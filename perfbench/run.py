"""espectra benchmark: three CLI workloads, closed loop, one client.

    python3 perfbench/run.py --workload echar_odd --seed 0 --seconds 30 --trace 0

Builds the workload's inputs from --seed, then runs its job list through
`espectra.cli.main` in this process, one job at a time, with no added
threads and ESPECTRA_THREADS unset.  Whole passes over the job list repeat
until at least --seconds of pass time is spent and at least MIN_PASSES
passes ran; every pass has fresh inputs, so no pass reuses a tensor the
process has seen.  Every output is checked after its pass, outside the
timed region.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the first pass's
jobs three times: a warm-up, an untraced pass and a traced pass, and prints
the per-layer metrics of the traced pass with the tracing overhead (traced
minus untraced).  perfbench/README.md says what each metric should move.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  `failed` counts jobs that ended without a checked report, and any
such job breaches the correctness gate: the run then exits 1 with no
metrics.  An espectra that cannot be imported from this checkout's `src`
exits 2 with no result.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import oracle
from checks import check_job
from tracer import Tracer
from workloads import ROOT, SRC, WORKLOADS, make_jobs, setup

HERE = Path(__file__).resolve().parent
SEED0_DIGESTS = HERE / "outputs_seed0.json"

# the first MIN_PASSES passes always run: they fix the input set that the
# share metrics count, whatever the speed of the code, and give the median
# pass time three samples of machine noise and input variance
MIN_PASSES = 3
# the calibration loop: the determinant of a REFERENCE_SIZE square matrix of
# Gaussian integers with REFERENCE_BITS-bit parts, about 40 ms on a 2-core
# x86 box with CPython 3.11
REFERENCE_SIZE = 32
REFERENCE_BITS = 16
REFERENCE_SEED = 12345
# reference time per pass, as a share of the pass's job time
REFERENCE_SHARE = 0.05
# fresh-interpreter set-ups measured besides this process's own
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 120


def _run_job(job) -> None:
    cli = sys.modules["espectra.cli"]  # looked up per call so a trace wrapper is seen
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(job.argv))
        except Exception:  # a crash is a failed job, reported with its traceback
            traceback.print_exc()
            code = 1
    job.result = {
        "label": job.label,
        "kind": job.argv[0],
        "code": code,
        "seconds": perf_counter() - start,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "passed_over": job.passed_over,
    }


def _reference_matrix() -> list[list[tuple[int, int]]]:
    rng = random.Random(REFERENCE_SEED)
    half = 1 << (REFERENCE_BITS - 1)
    return [
        [(rng.getrandbits(REFERENCE_BITS) - half, rng.getrandbits(REFERENCE_BITS) - half)
         for _ in range(REFERENCE_SIZE)]
        for _ in range(REFERENCE_SIZE)
    ]


_REFERENCE = _reference_matrix()


def _reference_seconds() -> float:
    """Time one fixed fraction-free elimination in pure Python.

    The work never changes, so its time tracks how fast this machine runs
    interpreted big-integer code right now.  It is the benchmark's own
    determinant (oracle.py), so no change to espectra can make it faster.
    """
    start = perf_counter()
    oracle.determinant(_REFERENCE)
    return perf_counter() - start


def _run_pass(jobs, tracer=None) -> tuple[float, float]:
    """Run the job list once; returns its seconds and its reference units.

    The reference loop runs before the first job and after each job, and
    again after a job until reference time reaches REFERENCE_SHARE of the
    job time so far, so that long jobs get as many samples of the machine's
    speed as short ones.  The pass's seconds over the mean of those times is
    the pass in reference units.  The mean, not the median, because a job is
    slowed by the machine's average load over its run, bursts included.  On
    a shared machine whose speed drifts by 20% or more within a minute, that
    ratio spreads less across runs than the seconds do.
    """
    ref = [_reference_seconds()]
    seconds = 0.0
    for job in jobs:
        if tracer is not None:
            tracer.job = job.label
        _run_job(job)
        seconds += job.result["seconds"]
        ref.append(_reference_seconds())
        while sum(ref) < REFERENCE_SHARE * seconds:
            ref.append(_reference_seconds())
    return seconds, seconds / statistics.mean(ref)


def _check_pass(jobs, pass_index: int, breaches: list[str]) -> list[dict]:
    """Check every job of a pass; returns the pass's results.  A job with a
    breach fails; `nonzero` marks every non-zero exit, eigen's exit 4 with a
    report among them, for failed_share."""
    for job in jobs:
        found = check_job(job)
        job.result["failed"] = bool(found)
        job.result["nonzero"] = job.result["code"] != 0 or bool(found)
        breaches.extend(f"pass {pass_index} {job.label}: {msg}" for msg in found)
    return [job.result for job in jobs]


def _setup_probe(workload: str, seed: int, workdir: Path) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(workdir)],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "espectra").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _digests(passes) -> dict[str, str]:
    return {
        f"p{p}/{r['label']}": r["digest"]
        for p, results in enumerate(passes)
        for r in results
        if r["kind"] in ("echar", "verify") and "digest" in r
    }


def _seed0_match(digests: dict[str, str]) -> bool | None:
    stored = json.loads(SEED0_DIGESTS.read_text())
    shared = [k for k in digests if k in stored]
    if not shared:
        return None
    for key in shared:
        if digests[key] != stored[key]:
            print(f"outputs differ from the stored seed-0 digest: {key}", file=sys.stderr)
    return all(digests[k] == stored[k] for k in shared)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _shares(results) -> tuple[float, float]:
    """failed_share (jobs with a non-zero exit) and pairs_missing_share of a
    list of job results."""
    failed = sum(1 for r in results if r["nonzero"])
    expected = sum(r.get("expected_classes", 0) for r in results)
    returned = sum(r.get("returned_classes", 0) for r in results)
    missing = max(expected - returned, 0)
    print(f"# {failed} of {len(results)} jobs exited non-zero; {missing} of {expected} classes missing")
    return failed / len(results), (missing / expected if expected else 0.0)


def _end_to_end(passes, pass_times, setup_seconds) -> dict:
    failed_share, missing_share = _shares([r for results in passes[:MIN_PASSES] for r in results])
    # reported, not gated: see README.md
    for name, value, unit in (
        ("wall_s", statistics.median(t for t, _ in pass_times), "s"),
        ("failed_share", failed_share, "ratio"),
        ("pairs_missing_share", missing_share, "ratio"),
    ):
        print(f"{name} {value!r} {unit} (ungated)")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_ref": _metric(statistics.median(u for _, u in pass_times), "ref"),
        "setup_s": _metric(statistics.median(setup_seconds), "s"),
        "peak_rss_mb": _metric(peak_kb / 1024.0, "MB"),
        "pairs_found_share": _metric(1.0 - missing_share, "ratio"),
    }


def _per_layer(tracer, traced, untraced, untraced_results) -> dict:
    """Layer figures of the traced pass; traced and untraced are that pass's
    and the untraced pass's (seconds, reference units).  The untraced pass
    also gives the end-to-end figures that no bound can gate."""
    failed_share, missing_share = _shares(untraced_results)
    t = tracer
    c = t.counters
    psi_calls = t.calls("resultant.parametric")
    gn = t.calls("spectra.gn")
    tensors = len(t.tensors)
    for name in t.missing:
        print(f"trace target missing: {name}", file=sys.stderr)
    return {
        "resultant.det_s": _metric(t.total("resultant.det"), "s"),
        "resultant.det_calls": _metric(t.calls("resultant.det"), "count"),
        "resultant.det_cells": _metric(c["det_cells"], "cells"),
        "resultant.det_max_size": _metric(c["det_max_size"], "rows"),
        "resultant.det_max_bits": _metric(c["det_max_bits"], "bits"),
        "resultant.matrix_build_s": _metric(t.self_time("resultant.matrix_build"), "s"),
        "resultant.samples": _metric(c["psi_quotients"] / psi_calls if psi_calls else 0.0, "ratio"),
        "resultant.singular_minors": _metric(c["singular_minors"], "count"),
        "echar.calls_per_tensor": _metric(
            t.calls("echar.e_char_poly") / tensors if tensors else 0.0, "ratio"
        ),
        "poly_core.interpolate_s": _metric(t.total("poly_core.interpolate"), "s"),
        "poly_core.squarefree_s": _metric(t.total("poly_core.squarefree"), "s"),
        "poly_core.evaluate_calls": _metric(t.calls("poly_core.evaluate"), "count"),
        "poly_core.evaluate_s": _metric(t.total("poly_core.evaluate"), "s"),
        "spectra.recover_s": _metric(t.total("spectra.recover"), "s"),
        "spectra.aberth_s": _metric(t.total("spectra.aberth"), "s"),
        "spectra.gn_solves": _metric(gn, "count"),
        "spectra.gn_s": _metric(t.total("spectra.gn"), "s"),
        "spectra.pairs_per_gn_solve": _metric(c["recovered_pairs"] / gn if gn else 0.0, "ratio"),
        "invariants.grad_resultant_s": _metric(t.total("invariants.grad_resultant"), "s"),
        "invariants.proxy_s": _metric(t.total("invariants.proxy"), "s"),
        "cli.self_s": _metric(t.self_time("cli.main"), "s"),
        "wall_s": _metric(untraced[0], "s"),
        "failed_share": _metric(failed_share, "ratio"),
        "pairs_missing_share": _metric(missing_share, "ratio"),
        "trace.traced_wall_s": _metric(traced[0], "s"),
        "trace.overhead_s": _metric(traced[0] - untraced[0], "s"),
        "trace.overhead_share": _metric(traced[1] / untraced[1] - 1.0, "ratio"),
    }


def _print_spans(tracer) -> None:
    print("span                               calls     total_s      self_s")
    for name, st in sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_s):
        print(f"{name:32s} {st.calls:8d} {st.total_s:11.4f} {st.self_s:11.4f}")
    per_job: dict[str, dict[str, float]] = {}
    for span in tracer.spans:
        layers = per_job.setdefault(span.job, {})
        layers[span.name] = layers.get(span.name, 0.0) + span.self_s
    print("job                  self time of its three largest spans")
    for job, layers in per_job.items():
        top = sorted(layers.items(), key=lambda kv: -kv[1])[:3]
        print(f"{job:20s} " + "  ".join(f"{name} {sec:.3f}" for name, sec in top))


def run(args, workdir: Path) -> int:
    try:
        jobs, own_setup = setup(args.workload, args.seed, workdir / "main")
    except ImportError as exc:
        print(f"cannot import espectra from {SRC}: {exc}", file=sys.stderr)
        return 2

    setup_seconds = [own_setup] + [
        _setup_probe(args.workload, args.seed, workdir / f"probe{i}")
        for i in range(SETUP_PROBES)
    ]

    breaches: list[str] = []
    passes: list[list[dict]] = []
    pass_times: list[tuple[float, float]] = []  # (seconds, reference units)
    if args.trace:
        # warm-up, untraced, traced: all on the first pass's inputs
        for traced in (False, False, True):
            if traced:
                with Tracer() as tracer:
                    pass_times.append(_run_pass(jobs, tracer))
            else:
                pass_times.append(_run_pass(jobs))
            passes.append(_check_pass(jobs, len(passes), breaches))
        if len({tuple(r.get("digest") for r in results) for results in passes}) != 1:
            breaches.append("outputs changed between passes on the same inputs")
        _print_spans(tracer)
        metrics = _per_layer(tracer, pass_times[2], pass_times[1], passes[1])
        digests = _digests(passes[:1])
    else:
        while True:
            pass_times.append(_run_pass(jobs))
            passes.append(_check_pass(jobs, len(passes), breaches))
            enough = len(passes) >= MIN_PASSES and sum(t for t, _ in pass_times) >= args.seconds
            if breaches or enough:
                break
            jobs = make_jobs(args.workload, args.seed, len(passes), workdir / "main")
        digests = _digests(passes)
        metrics = None
    attempted = sum(len(results) for results in passes)
    failed = sum(1 for results in passes for r in results if r["failed"])

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "source_digest": _source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pass_seconds": [t for t, _ in pass_times],
        "pass_ref_units": [u for _, u in pass_times],
        "job_seconds": [{r["label"]: r["seconds"] for r in results} for results in passes],
        "setup_seconds": setup_seconds,
        "suite_seeds_passed_over": sum(r["passed_over"] for results in passes for r in results),
        "output_digests": digests,
        "outputs_match_seed0": _seed0_match(digests) if args.seed == 0 else None,
    }
    print("record " + json.dumps(record, sort_keys=True))
    if breaches:
        for msg in breaches:
            print(f"CHECK FAILED {msg}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1
    if metrics is None:
        metrics = _end_to_end(passes, pass_times, setup_seconds)
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workdir = HERE / f"_work-{os.getpid()}"
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
