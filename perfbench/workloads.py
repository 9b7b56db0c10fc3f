"""Workload job lists and their seeded inputs.

A workload is a list of `espectra` command lines.  Tensor inputs are written
as JSON files into a scratch directory inside the checkout; the program sees
only those files and the command-line flags.  Pass `p` of a run at seed `s`
uses its own inputs, so repeating a pass never feeds a tensor the program
has already seen in this process.

A `verify --suite` job draws its samples inside espectra from its suite
seed.  `gradient_resultant` has no fallback for a singular Macaulay
denominator minor, so about one (2,3) or (2,4) sample in 300-700 makes the
job exit 3 with no report.  The benchmark keeps no job that fails: it moves
such a job to the next suite seed whose samples all have a regular minor by
its own resultant code (`oracle.py`), and the run's record counts the seeds
it passed over.

Importing this module does not import espectra: `setup` does, so that the
import is part of the measured set-up time.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle
from checks import tensor_poly

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("echar_odd", "eigen_even", "verify_suite")
# suite seeds tried per verify job: base, base + 10, ... stay inside the
# pass's own block of 100 tensor seeds
SUITE_SEED_TRIES = 9


@dataclass
class Job:
    """One `espectra` invocation and what the checks need to know about it."""

    label: str
    argv: list[str]
    tensor: object = None  # SymmetricTensor for echar / eigen jobs
    diagonal: list | None = None  # exact diagonal coefficients, Fermat inputs
    passed_over: int = 0  # suite seeds skipped for a singular gradient minor
    result: dict = field(default_factory=dict)


def load_espectra():
    """Import espectra from this checkout's `src`, never from elsewhere."""
    os.environ.pop("ESPECTRA_THREADS", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("espectra")
    importlib.import_module("espectra.cli")
    where = Path(pkg.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"espectra imported from {where}, not from {SRC}")
    return pkg


def _tensor_seed(seed: int, pass_index: int, k: int) -> int:
    return 10_000 * seed + 100 * pass_index + k


def regular_suite_seed(n: int, d: int, samples: int, base: int) -> tuple[int, int]:
    """The first suite seed of base, base + 10, ... whose samples, drawn as
    `espectra verify --suite` draws them, all have a regular gradient
    Macaulay minor; returns it and how many seeds it passed over."""
    from espectra import random_tensor

    for tries in range(SUITE_SEED_TRIES):
        seed = base + 10 * tries
        tensors = [random_tensor(n, d, seed=seed + 1000 * k) for k in range(samples)]
        if not any(oracle.minor_is_singular(oracle.gradient_system(tensor_poly(f))) for f in tensors):
            return seed, tries
    raise RuntimeError(f"no suite seed with regular gradient minors near {base} at ({n},{d})")


def make_jobs(workload: str, seed: int, pass_index: int, workdir: Path) -> list[Job]:
    """The job list of one pass, with its input files written to workdir."""
    from espectra import (
        fermat_tensor,
        random_fermat_coeffs,
        random_tensor,
        tensor_to_json,
    )

    workdir.mkdir(parents=True, exist_ok=True)
    jobs: list[Job] = []

    def tensor_job(label: str, argv: list[str], f, diagonal=None) -> None:
        path = workdir / f"p{pass_index}-{label}.json"
        path.write_text(json.dumps(tensor_to_json(f), sort_keys=True))
        jobs.append(Job(label, argv + ["--input", str(path)], f, diagonal))

    def ts(k: int) -> int:
        return _tensor_seed(seed, pass_index, k)

    if workload == "echar_odd":
        shapes = [(2, 3)] * 6 + [(1, 7), (1, 9)]
        for k, (n, d) in enumerate(shapes):
            tensor_job(f"echar-{n}.{d}-{k}", ["echar"], random_tensor(n, d, seed=ts(k)))
    elif workload == "eigen_even":
        eigen = ["eigen", "--method", "charpoly", "--seed", str(seed)]
        shapes = [(2, 4)] * 4 + [(1, 6), (1, 8)]
        for k, (n, d) in enumerate(shapes):
            tensor_job(f"eigen-{n}.{d}-{k}", eigen, random_tensor(n, d, seed=ts(k)))
        for k in range(len(shapes), len(shapes) + 3):
            coeffs = random_fermat_coeffs(2, 4, ts(k))
            tensor_job(f"eigen-diag2.4-{k}", eigen, fermat_tensor(coeffs, 4), coeffs)
    elif workload == "verify_suite":
        samples = 4
        for k, (n, d) in enumerate(((2, 3), (2, 4), (1, 5))):
            suite_seed, passed_over = regular_suite_seed(n, d, samples, ts(k))
            argv = ["verify", "--suite", f"{n},{d}", "--samples", str(samples), "--seed", str(suite_seed)]
            jobs.append(Job(f"verify-{n}.{d}", argv, passed_over=passed_over))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return jobs


def setup(workload: str, seed: int, workdir: Path) -> tuple[list[Job], float]:
    """Import espectra and build the first pass's inputs; returns the jobs and
    the seconds that took."""
    started = time.perf_counter()
    load_espectra()
    jobs = make_jobs(workload, seed, 0, workdir)
    return jobs, time.perf_counter() - started
