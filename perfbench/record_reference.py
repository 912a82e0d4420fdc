"""Record the reference outputs that run.py compares against.

  python3 perfbench/record_reference.py

Run from the root of a source checkout.  For every workload and scale it
sets up the inputs for the reference seed, runs the workflow once, checks
its invariants and stores the data file's SHA-256 (every value, for
episode-batch) in perfbench/reference.json.  Record only from a commit whose
outputs are known to be right: later runs fail wherever they differ.
"""

from __future__ import annotations

import json
import re
import shutil
from pathlib import Path

from run import (
    REFERENCE,
    REFERENCE_SEED,
    WORK,
    check_invariants,
    child_env,
    output_rows,
    reference_entry,
    run_workflow,
    set_up,
)
from workloads import SCALES, WORKLOADS


def main() -> None:
    root = Path.cwd()
    env = child_env(root)
    references = {}
    for scale in SCALES:
        for workload in WORKLOADS:
            workdir = root / WORK / f"record-{workload}-{scale}"
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            try:
                set_up(workload, scale, REFERENCE_SEED, workdir, env)
                run_workflow(workload, False, workdir, env)
                out = workdir / "out"
                check_invariants(workload, output_rows(workload, scale, out))
                references.setdefault(scale, {})[workload] = reference_entry(workload, out)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    text = json.dumps(references, indent=1)
    # one line per innermost list, so each episode's values read as a row
    text = re.sub(r"\[\s+([^\[\]]+?)\s+\]", lambda m: "[" + re.sub(r"\s+", "", m.group(1)) + "]", text)
    REFERENCE.write_text(text + "\n")


if __name__ == "__main__":
    main()
