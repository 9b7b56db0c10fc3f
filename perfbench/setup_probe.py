"""Measure one benchmark set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Prints the seconds that importing espectra and writing the first pass's
inputs took.  run.py starts this a few times so that set-up time is a
median of fresh imports, not one sample.
"""

import sys
from pathlib import Path

from workloads import setup

if __name__ == "__main__":
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    _, seconds = setup(workload, seed, workdir)
    print(repr(seconds))
