"""Byte parity of the CLI's data files with recorded SHA-256 hashes.

Each command below runs on a small input inside a scratch working directory
(relative paths, so `manifest.json` and `report.json` do not embed a
temporary path), and every data file it writes plus its `manifest.json` is
hashed.  The hashes were recorded from the code before the scalar pendulum
path and the unused probability API were removed, and they pin the outputs
of that code on this numpy and libm: a refactor of `src/` must reproduce
them byte for byte.  They must never be re-recorded to absorb a change in
`src/`; a new numpy or libm that moves the last digits of a float is the
only reason to record them again, and only from unchanged `src/`.
"""

import hashlib

import pytest

from morphocomp.cli import main

RUNS = {
    "binary_csv": [
        "binary-sweep", "--phi", "0", "1.5", "5", "--psi", "0", "2",
        "--mu", "0", "20", "--out", "binary_csv",
    ],
    "binary_json": [
        "binary-sweep", "--phi", "0", "1.5", "5", "--psi", "0", "2",
        "--mu", "0", "20", "--format", "json", "--out", "binary_json",
    ],
    "sweep": [
        "rotator", "sweep", "--eta", "0", "0.3", "--beta", "0", "1.0",
        "--runs", "2", "--steps", "100", "--seed", "3", "--out", "sweep",
    ],
    "sweep_json": [
        "rotator", "sweep", "--eta", "0", "0.3", "--beta", "0", "1.0",
        "--runs", "2", "--steps", "100", "--seed", "3", "--format", "json",
        "--out", "sweep_json",
    ],
    "run": [
        "rotator", "run", "--eta", "0.2", "--beta", "0.5", "--steps", "100",
        "--seed", "4", "--out", "run",
    ],
    # reads the series written by "run", so it must come after it
    "measure": [
        "measure", "--input", "run/series.csv", "--sensor-bins", "0:8:30",
        "--action-bins=-1:1:30", "--out", "measure",
    ],
}

EXPECTED = {
    "binary_csv/binary_sweep.csv": "1f90eb7b8bf9b36b1e95407d8863bf180c602eb3249925dac7dabeef3a0270a3",
    "binary_csv/manifest.json": "33c3b6dd02523d1938b8d735515696875f906f9bc45772549d4997a1fbe15ebd",
    "binary_json/binary_sweep.json": "aa9cc2d0e5906f1c0524f38f2fc1420174870161bf9470127943a40f5e5a8238",
    "binary_json/manifest.json": "1252cb3230308ccd006c44c0801d1b9bf4a198de6899f3e0cf88cdf7a637c83f",
    "measure/manifest.json": "1e50770a6a5d1004de406d6b86fe7340539b1873f2f4a0bd03fedddb340065d7",
    "measure/report.json": "bfd1ad265c341196c6222552bd6d2350bce479d6c0da62bfccad082ae1f51ec0",
    "run/manifest.json": "0909f00aa6a239379e994d64c56a4906a0bc6dc4e7d7df1b64a86129e48f4e07",
    "run/series.csv": "92ad3984d6c281814aa84449b459564b11195c7c06c7230550583ee49c6d62b6",
    "run/transients.csv": "a1f14bfe6ff8f9e9568a27f175cf2a95bd2f8727e344b46cd6e604b3df16b033",
    "sweep/manifest.json": "2d116189793c9c011ecd71d40a4899876329529aa6105207fd96b36a681833d2",
    "sweep/rotator_sweep.csv": "a9638814aa46b30166a6708ad48ad4e03ac5529f81c866fb90e023081b90ffc7",
    "sweep_json/manifest.json": "84ffcaa956b277c0d338487fc658915b055ceebd599ffc725d440c31876b063f",
    "sweep_json/rotator_sweep.json": "e4fb746c0260875d99fc4d51188cf0a9a73c98e4322dd0273224f4c21e06c710",
}


def output_hashes(root):
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.fixture(scope="module")
def hashes(tmp_path_factory):
    root = tmp_path_factory.mktemp("parity")
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(root)
        for argv in RUNS.values():
            assert main(argv) == 0, argv
    return output_hashes(root)


def test_every_run_writes_its_recorded_files(hashes):
    assert sorted(hashes) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_output_bytes_match_recorded_hash(hashes, name):
    assert hashes.get(name) == EXPECTED[name]
