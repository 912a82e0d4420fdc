"""The README's library quickstart runs as written.

A deletion that removes documented API fails here before it reaches a user.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_runs_and_prints_measures_in_unit_interval(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1, "README should hold exactly one python quickstart block"
    exec(compile(blocks[0], str(README), "exec"), {})
    values = [float(v) for v in capsys.readouterr().out.split()]
    assert len(values) == 4
    assert all(0.0 <= v <= 1.0 for v in values), values
