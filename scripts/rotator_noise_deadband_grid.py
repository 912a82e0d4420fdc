#!/usr/bin/env python3
"""Measure surfaces of the pendulum over the noise/deadband plane.

By default a coarse 5x5 grid with 10 runs per cell (about 5 s on a 2-core
VM); pass --full for the fine 21x201 grid (336 s at a peak RSS of 91 MB
there, in one run).

Usage: python scripts/rotator_noise_deadband_grid.py [--out DIR] [--full] [--runs N]
"""

import argparse
import sys

from morphocomp.cli import main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/rotator", help="output directory")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--full", action="store_true", help="fine 21x201 grid")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    argv = ["rotator", "sweep", "--runs", str(args.runs), "--seed", str(args.seed),
            "--out", args.out]
    if not args.full:
        argv += ["--eta", "0", "0.125", "0.25", "0.375", "0.5",
                 "--beta", "0", "0.5", "1.0", "1.5", "2.0"]
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
