"""Correctness gates and failure accounting for benchmark jobs.

Every check runs outside the timed region.  A breach is a wrong answer, a
crash or an exit without a report: the benchmark then exits non-zero and
reports no metrics.  An `eigen` run that exits 4 with a report listing
unrecovered roots is no breach: its pairs are checked like any others, and
the classes it did not return count as missing.

The exact `psi` check uses `oracle.py`, which shares no code with espectra.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import oracle

# fresh parameter values tried for the exact psi check, offset past the
# largest interpolation node |lambda| <= degree bound
_FRESH_OFFSETS = (1, 2, 3)
# two eigenpairs this close (relative to 1 + |lam| and 1 + max |x_i|) are
# one class.  On the benchmark's inputs a returned pair lies within 1e-14 of
# its closed-form class, and distinct classes lie at least 0.08 apart.
CLASS_TOL = 1e-6


def outputs_digest(report: dict) -> str:
    """SHA-256 of a report's `outputs` block, the part that must not drift."""
    text = json.dumps(report["outputs"], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _complex(entry: dict) -> complex:
    return complex(float(entry["re"]), float(entry["im"]))


def _unimodular(m: int, count: int = 4) -> list[list[list[int]]]:
    """The identity, then random unit upper-triangular integer matrices.

    Their determinant is 1, so substituting one into a system leaves its
    resultant unchanged while moving the Macaulay denominator minor off a
    zero it may have for this particular system.
    """
    rng = random.Random(m)
    return [[[int(i == j) for j in range(m)] for i in range(m)]] + [
        [[rng.randint(-2, 2) if j > i else int(i == j) for j in range(m)] for i in range(m)]
        for _ in range(count)
    ]


def tensor_poly(f) -> dict:
    return oracle.gaussian_poly((e, c.re, c.im) for e, c in f.poly.terms.items())


def _psi_at(out: dict, lam: int) -> tuple[Fraction, Fraction]:
    """The printed psi at lam, from the exact "p/q" coefficient strings."""
    acc_re, acc_im = Fraction(0), Fraction(0)
    for c in reversed(out["psi_coeffs"]):
        acc_re, acc_im = acc_re * lam + Fraction(c["re"]), acc_im * lam + Fraction(c["im"])
    return acc_re, acc_im


def check_echar(job, out: dict) -> list[str]:
    """psi has the generic degree, only even powers for odd d, and agrees
    exactly with the benchmark's own resultant at a lambda outside the
    interpolation nodes."""
    from espectra import psi_degree_bound

    f = job.tensor
    nonzero = [k for k, c in enumerate(out["psi_coeffs"]) if Fraction(c["re"]) or Fraction(c["im"])]
    degree = nonzero[-1] if nonzero else -1
    expected = psi_degree_bound(f.n, f.d)
    breaches = []
    if degree != expected or out["degree"] != expected:
        breaches.append(f"degree {degree}, reported {out['degree']}, expected {expected}")
    if f.d % 2 and any(k % 2 for k in nonzero):
        breaches.append("odd d but psi has an odd power of lambda")
    poly = tensor_poly(f)
    for offset in _FRESH_OFFSETS:
        lam = expected + offset
        forms, power = oracle.eigen_system(poly, f.d, lam)
        for mat in _unimodular(len(forms)):
            num, den = oracle.resultant_quotient([oracle.substitute(p, mat) for p in forms])
            if den == (0, 0):
                continue
            # psi(lam) * d^power * det(minor) must equal det(M)
            psi_re, psi_im = _psi_at(out, lam)
            k_re, k_im = f.d**power * den[0], f.d**power * den[1]
            if (psi_re * k_re - psi_im * k_im, psi_re * k_im + psi_im * k_re) != num:
                breaches.append(f"psi({lam}) differs from the resultant")
            return breaches
    return breaches + ["no fresh lambda and shear with a regular denominator minor"]


def check_verify(job, out: dict) -> list[str]:
    breaches = [
        f"sample {k} verdict {v['verdict']}"
        for k, v in enumerate(out["verdicts"])
        if v["verdict"] != "PASS"
    ]
    if len(out["verdicts"]) != out["samples"]:
        breaches.append(f"{len(out['verdicts'])} verdicts for {out['samples']} samples")
    if out.get("constant_agrees") is not True:
        breaches.append("constant-term ratio differs across samples")
    return breaches


def expected_classes(job) -> int:
    """Closed-form class count for diagonal inputs, generic count otherwise
    (random inputs are certified generic by the generator)."""
    from espectra import generic_eigen_count

    f = job.tensor
    if job.diagonal is not None:
        return len(_closed_form_pairs(job))
    return generic_eigen_count(f.n, f.d)


def _closed_form_pairs(job) -> list:
    from espectra import fermat_eigenpairs, fermat_spec

    return fermat_eigenpairs(fermat_spec(job.diagonal, job.tensor.d)).pairs


def _same_class(a: tuple, b: tuple, d: int) -> bool:
    """(lam, x) and (lam', x') within CLASS_TOL of each other, where x and -x
    are one class: (lam, x) is an eigenpair exactly when ((-1)^d lam, -x) is."""
    (lam, x), (mu, y) = a, b
    scale = 1.0 + max(abs(c) for c in x)
    for s in (1, -1):
        if abs(lam - s**d * mu) <= CLASS_TOL * (1.0 + abs(lam)) and all(
            abs(u - s * v) <= CLASS_TOL * scale for u, v in zip(x, y)
        ):
            return True
    return False


def check_eigen(job, out: dict) -> tuple[list[str], int]:
    """Every returned pair meets the residual and norm gates of the library,
    recomputed here from the printed digits, and is a class of its own; a
    diagonal input's pairs are each a distinct closed-form class.  Returns
    the breaches and the number of distinct classes returned."""
    from espectra import eigen_residual
    from espectra.spectra import RESIDUAL_REPORT

    f = job.tensor
    breaches = []
    pairs = []
    for k, pair in enumerate(out["pairs"]):
        lam = _complex(pair["lam"])
        x = tuple(_complex(c) for c in pair["x"])
        pairs.append((lam, x))
        tol = RESIDUAL_REPORT * (1.0 + abs(lam))
        if eigen_residual(f, lam, x) > tol:
            breaches.append(f"pair {k}: eigen residual above {tol:.3g}")
        if abs(sum(c * c for c in x) - 1.0) > RESIDUAL_REPORT:
            breaches.append(f"pair {k}: <x, x> differs from 1")
        if abs(lam - f.poly.evaluate(x)) > tol:
            breaches.append(f"pair {k}: lambda differs from f(x)")
    if out["count"] != len(pairs):
        breaches.append(f"count {out['count']} for {len(pairs)} pairs")
    if job.diagonal is not None:
        known = [(p.lam, tuple(p.x)) for p in _closed_form_pairs(job)]
        matched: dict[int, int] = {}
        for k, pair in enumerate(pairs):
            hits = [c for c, ref in enumerate(known) if _same_class(pair, ref, f.d)]
            if not hits:
                breaches.append(f"pair {k} is no closed-form class")
            elif hits[0] in matched:
                breaches.append(f"pairs {matched[hits[0]]} and {k} are one closed-form class")
            else:
                matched[hits[0]] = k
        returned = len(matched)
    else:
        twins = [
            (i, j)
            for j in range(len(pairs))
            for i in range(j)
            if _same_class(pairs[i], pairs[j], f.d)
        ]
        breaches.extend(f"pairs {i} and {j} are one class" for i, j in twins)
        returned = len(pairs) - len({j for _, j in twins})
    exist = expected_classes(job)
    if returned > exist:
        breaches.append(f"{returned} classes returned, only {exist} exist")
    return breaches, returned


def check_job(job) -> list[str]:
    """Fill job.result with report, digest and class counts; return the
    breaches.  A job that ends without a report is a breach."""
    res = job.result
    kind = job.argv[0]
    try:
        report = json.loads(res["stdout"])
    except json.JSONDecodeError:
        report = None
    if report is None:
        return [f"exit {res['code']} without a report: {res['stderr'].strip()[-300:]}"]
    res["report"] = report
    res["digest"] = outputs_digest(report)
    out = report["outputs"]
    if kind == "eigen":
        # exit 4 with a report lists unrecovered roots: counted, not wrong
        breaches, res["returned_classes"] = check_eigen(job, out)
        res["expected_classes"] = expected_classes(job)
        if res["code"] not in (0, 4):
            breaches.append(f"exit {res['code']}")
        return breaches
    breaches = check_echar(job, out) if kind == "echar" else check_verify(job, out)
    if res["code"] != 0:
        breaches.append(f"exit {res['code']}")
    return breaches
