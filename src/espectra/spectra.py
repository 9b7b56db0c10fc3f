"""Numeric eigenpair extraction for symmetric tensors.

An eigenpair (lambda, x) satisfies (1/d) grad f(x) = lambda x with the
bilinear normalization <x, x> = 1.  Pairs come in sign classes: for even d
the pair (lambda, -x) is the same class, for odd d the class partner is
(-lambda, -x).  One representative per class is returned, chosen so the
first significant component of x has positive real part (positive imaginary
part breaks ties).

Three extraction routes, in increasing generality:

  * binary_eigenpairs: n = 1 only.  The eigen-directions are the roots of
    the degree-d binary form x1 * df/dx2 - x2 * df/dx1, found numerically
    and normalized; a root on the isotropic pair (1, +-i) makes the
    normalization impossible and raises IsotropicRootError.
  * fermat_eigenpairs: closed-form enumeration for diagonal tensors
    sum a_i x_i^d.  Eigenvectors are supported on subsets of coordinates
    with explicit radicals in the a_i, so no root finding is involved.
  * eigenpairs_from_charpoly: generic route.  Roots of the exact
    E-characteristic polynomial (Aberth-Ehrlich iteration on the double
    precision image of each square-free factor) are each completed to an
    eigenvector by a damped Gauss-Newton iteration from random starts,
    then sharpened by Newton on (x, lambda) jointly.  Both iterations, the
    acceptance gate and the reported residuals read grad f and its
    Jacobian from one _CompiledDerivatives per tensor: exponent and
    complex coefficient matrices built once from the exact form, so each
    evaluation is one monomial vector and one matrix product instead of a
    walk over exact coefficients.  Roots whose recovery fails are reported
    in the result rather than raised.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product

# numpy is imported inside the numeric routes, so that importing espectra
# (and running `espectra echar`, `verify` or `invariants`) does not load it

from .echar import ECharPoly, _ISO_MINUS, _ISO_PLUS, _binary_form_roots
from .poly_core import GaussianRational, MultiPoly, SymmetricTensor, gradient


RESIDUAL_SUCCESS = 1e-10
RESIDUAL_REPORT = 1e-8


class IsotropicRootError(ValueError):
    """An eigen-direction fell on the isotropic quadric; <x, x> = 1 fails."""


class ZeroCoefficientError(ValueError):
    """Diagonal tensor with a vanishing coefficient."""


@dataclass(frozen=True)
class EigenPair:
    """One eigenpair with its double precision residual.

    residual is the max-norm of (1/d) grad f(x) - lambda x.  Valid pairs
    keep residual, |<x, x> - 1| and |lambda - f(x)| / (1 + |lambda|) all
    below 1e-8.
    """

    lam: complex
    x: tuple[complex, ...]
    residual: float


@dataclass(frozen=True)
class RecoveryFailure:
    kind: str
    detail: str


@dataclass
class SpectrumResult:
    """Recovered pairs plus per-root failure records (reported, not fatal)."""

    pairs: list[EigenPair]
    failures: list[RecoveryFailure] = field(default_factory=list)

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)


@dataclass(frozen=True)
class FermatSpec:
    """Diagonal tensor sum a_i x_i^d given by its coefficient vector."""

    a: tuple[complex, ...]
    d: int

    @property
    def n(self) -> int:
        return len(self.a) - 1


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

def aberth_roots(
    coeffs: list[complex],
    max_iter: int = 200,
    tol: float = 1e-13,
    seed: int = 0,
) -> list[complex]:
    """All complex roots of a polynomial given by ascending coefficients.

    Simultaneous Aberth-Ehrlich iteration started on a randomly rotated
    circle inside the Fujiwara root bound, followed by a Newton polish of
    each root against the original coefficients.  Multiple roots converge
    (only linearly) to clusters; the caller sees them with multiplicity.
    """
    import numpy as np

    cs = list(coeffs)
    if not cs or all(c == 0 for c in cs):
        raise ValueError("aberth_roots needs a nonzero polynomial")
    while cs and cs[-1] == 0:
        cs.pop()
    deg = len(cs) - 1
    if deg == 0:
        return []
    if deg == 1:
        return [-cs[0] / cs[1]]
    a = np.array(cs[::-1], dtype=complex)  # descending for polyval
    monic = a / a[0]
    # Fujiwara bound on root modulus
    bounds = [
        2.0 * abs(monic[k]) ** (1.0 / k) for k in range(1, deg + 1) if monic[k] != 0
    ]
    radius = max(bounds) if bounds else 1.0
    radius = max(radius, 1e-6)
    rng = np.random.default_rng(seed)
    offset = rng.uniform(0.0, 2.0 * math.pi)
    angles = 2.0 * math.pi * np.arange(deg) / deg + offset
    scales = 0.7 + 0.3 * rng.random(deg)
    z = radius * scales * np.exp(1j * angles)
    da = np.polyder(a)
    for _ in range(max_iter):
        pz = np.polyval(a, z)
        dz = np.polyval(da, z)
        dz = np.where(dz == 0, 1e-300, dz)
        newton = pz / dz
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        diff = np.where(diff == 0, 1e-300, diff)
        inv = 1.0 / diff
        np.fill_diagonal(inv, 0.0)
        sums = inv.sum(axis=1)
        denom = 1.0 - newton * sums
        denom = np.where(denom == 0, 1e-300, denom)
        w = newton / denom
        z = z - w
        if np.all(np.abs(w) <= tol * (1.0 + np.abs(z))):
            break
    # Newton polish against the original (exactly converted) coefficients
    for _ in range(2):
        pz = np.polyval(a, z)
        dz = np.polyval(da, z)
        safe = np.abs(dz) > 1e-280
        step = np.where(safe, pz / np.where(safe, dz, 1.0), 0.0)
        z = z - step
    return [complex(v) for v in z]


# ---------------------------------------------------------------------------
# sign classes
# ---------------------------------------------------------------------------

def _wants_flip(x: tuple[complex, ...]) -> bool:
    scale = max(abs(c) for c in x)
    if scale == 0.0:
        return False
    for c in x:
        if abs(c) > 1e-9 * scale:
            if abs(c.real) > 1e-9 * abs(c):
                return c.real < 0
            return c.imag < 0
    return False


def canonical_pair(lam: complex, x: tuple[complex, ...], parity: str):
    """Representative of the sign class of (lambda, x).

    Flips x so its first significant component has positive real part
    (positive imaginary part on ties); for odd parity lambda flips along.
    """
    if _wants_flip(x):
        x = tuple(-c for c in x)
        if parity == "odd":
            lam = -lam
    return lam, x


def product_of_eigenvalues(pairs: list[EigenPair]) -> complex:
    """Product of the representative eigenvalues, one per sign class.

    For odd parity each representative is defined up to sign, so the
    product is meaningful up to an overall sign; its modulus always is.
    """
    out = complex(1.0)
    for p in pairs:
        out *= p.lam
    return out


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

def eigen_residual(f: SymmetricTensor, lam: complex, x: tuple[complex, ...]) -> float:
    return max(
        abs(f.poly.diff(i).evaluate(x) / f.d - lam * x[i]) for i in range(f.n_vars)
    )


def _norm_defect(x: tuple[complex, ...]) -> float:
    return abs(sum(c * c for c in x) - 1.0)


# ---------------------------------------------------------------------------
# binary route
# ---------------------------------------------------------------------------

def binary_eigenpairs(f: SymmetricTensor) -> list[EigenPair]:
    """Eigenpairs of a binary form via the eigen-direction form.

    The directions are the d projective roots of
    x1 * df/dx2 - x2 * df/dx1.  Raises IsotropicRootError when a direction
    is isotropic, which is detected exactly before any floating point work.
    """
    if f.n != 1:
        raise ValueError("binary_eigenpairs needs n = 1")
    x1 = MultiPoly.variable(2, 0)
    x2 = MultiPoly.variable(2, 1)
    direction_form = x1 * f.poly.diff(1) - x2 * f.poly.diff(0)
    if direction_form.is_zero():
        raise ValueError(
            "eigen-direction form vanishes identically; every direction is an"
            " eigenvector and the spectrum is not discrete"
        )
    for pt in (_ISO_PLUS, _ISO_MINUS):
        if direction_form.evaluate_exact(pt).is_zero():
            raise IsotropicRootError(
                "an eigen-direction lies on the isotropic quadric"
            )
    parity = "even" if f.d % 2 == 0 else "odd"
    pairs = []
    for s, t in _binary_form_roots(direction_form):
        nu = s * s + t * t
        if abs(nu) <= 1e-12 * (abs(s) ** 2 + abs(t) ** 2):
            raise IsotropicRootError(
                "an eigen-direction is numerically isotropic"
            )
        w = cmath.sqrt(nu)
        x = (s / w, t / w)
        lam = f.poly.evaluate(x)
        lam, x = canonical_pair(lam, x, parity)
        pairs.append(EigenPair(lam=lam, x=x, residual=eigen_residual(f, lam, x)))
    return pairs


# ---------------------------------------------------------------------------
# generic route: characteristic polynomial roots + Gauss-Newton recovery
# ---------------------------------------------------------------------------

class _CompiledDerivatives:
    """grad f and its Jacobian, compiled once for double evaluation.

    Each family (the m first partials, the m*m second partials) shares one
    integer exponent matrix E over the union of its monomials and one
    complex coefficient matrix C, one row per partial, each exact
    coefficient converted by complex() once.  A point x then gives every
    partial of the family as C @ prod(x**E, axis=1).  Built per tensor by
    eigenpairs_from_charpoly and dropped with it.
    """

    def __init__(self, f: SymmetricTensor):
        self.d = f.d
        self.m = f.n_vars
        self.grads = gradient(f)
        self._grad = self._compile(self.grads)
        self._hess = self._compile(
            [g.diff(k) for g in self.grads for k in range(self.m)]
        )

    def _compile(self, polys: list[MultiPoly]):
        import numpy as np

        monos = sorted(set().union(*(p.terms for p in polys)))
        index = {e: j for j, e in enumerate(monos)}
        coeffs = np.zeros((len(polys), len(monos)), dtype=complex)
        for i, p in enumerate(polys):
            for e, c in p.terms.items():
                coeffs[i, index[e]] = complex(c)
        exps = np.array(monos, dtype=np.int64).reshape(len(monos), self.m)
        return exps, coeffs

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """All m first partials at x."""
        exps, coeffs = self._grad
        return coeffs @ (x**exps).prod(axis=1)

    def hessian(self, x: np.ndarray) -> np.ndarray:
        """The m x m second partials at x."""
        exps, coeffs = self._hess
        return (coeffs @ (x**exps).prod(axis=1)).reshape(self.m, self.m)

    def residual(self, lam: complex, x: tuple[complex, ...]) -> float:
        """eigen_residual of (lam, x): max |(1/d) grad f(x) - lam x|."""
        import numpy as np

        v = np.array(x, dtype=complex)
        return float(abs(self.gradient(v) / self.d - lam * v).max())


def _householder_lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Least-squares solution of the tall system a x = b by Householder QR.

    The Gauss-Newton Jacobian is at most 5 x 4, so plain complex arithmetic
    costs about what np.linalg.lstsq does, and it keeps LAPACK's SVD driver
    (about 1.3 MB of resident library code) out of the process.  Returns
    None when a column is zero below the diagonal, i.e. depends on the
    columns before it.
    """
    import numpy as np

    rows, cols = a.shape
    r = a.tolist()
    y = b.tolist()
    for k in range(cols):
        v = [r[i][k] for i in range(k, rows)]
        norm2 = sum(z.real * z.real + z.imag * z.imag for z in v)
        if norm2 == 0.0:
            return None
        alpha = math.sqrt(norm2)
        lead = v[0]
        v[0] = lead + (lead / abs(lead) if lead else 1.0) * alpha
        # H = I - v v^H / (v^H v / 2), and v^H v / 2 = alpha (alpha + |lead|)
        scale = 1.0 / (alpha * (alpha + abs(lead)))
        for j in range(k, cols):
            t = scale * sum(vi.conjugate() * r[k + i][j] for i, vi in enumerate(v))
            for i, vi in enumerate(v):
                r[k + i][j] -= t * vi
        t = scale * sum(vi.conjugate() * y[k + i] for i, vi in enumerate(v))
        for i, vi in enumerate(v):
            y[k + i] -= t * vi
    x = [0j] * cols
    for k in range(cols - 1, -1, -1):
        x[k] = (y[k] - sum(r[k][j] * x[j] for j in range(k + 1, cols))) / r[k][k]
    return np.array(x)


def _gauss_newton_solve(
    ev: _CompiledDerivatives,
    lam: complex,
    x0: np.ndarray,
    max_iter: int = 100,
) -> tuple[np.ndarray, float]:
    """Damped Gauss-Newton on the eigen-system at fixed lambda.

    Residual vector: (1/d) grad f(x) - lam x followed by <x, x> - 1.
    Steps that increase the residual norm are halved up to 8 times.
    """
    import numpy as np

    m, d = ev.m, ev.d
    x = x0.copy()

    def residual(v: np.ndarray) -> np.ndarray:
        r = np.empty(m + 1, dtype=complex)
        r[:m] = ev.gradient(v) / d - lam * v
        r[m] = (v * v).sum() - 1.0
        return r

    r = residual(x)
    rn = float(abs(r).max())
    for _ in range(max_iter):
        if rn < RESIDUAL_SUCCESS:
            break
        jac = np.empty((m + 1, m), dtype=complex)
        jac[:m] = ev.hessian(x) / d
        jac[range(m), range(m)] -= lam
        jac[m, :] = 2.0 * x
        step = _householder_lstsq(jac, -r)
        if step is None:
            break
        alpha = 1.0
        improved = False
        for _ in range(8):
            cand = x + alpha * step
            rc = residual(cand)
            rcn = float(abs(rc).max())
            if rcn < rn:
                x, r, rn = cand, rc, rcn
                improved = True
                break
            alpha *= 0.5
        if not improved:
            break
    return x, rn


def _joint_newton(
    ev: _CompiledDerivatives,
    lam: complex,
    x: np.ndarray,
    max_iter: int = 6,
) -> tuple[np.ndarray, complex]:
    """Square Newton on (x, lambda) jointly.

    An eigenpair is a regular zero of the combined system even when the
    characteristic polynomial has a multiple root at lambda, so a few steps
    sharpen a 1e-8 candidate to machine precision.
    """
    import numpy as np

    m, d = ev.m, ev.d
    v = np.concatenate([x, [lam]])
    for _ in range(max_iter):
        xs = v[:m]
        cl = v[m]
        fun = np.empty(m + 1, dtype=complex)
        fun[:m] = ev.gradient(xs) / d - cl * xs
        fun[m] = (xs * xs).sum() - 1.0
        jac = np.zeros((m + 1, m + 1), dtype=complex)
        jac[:m, :m] = ev.hessian(xs) / d
        jac[range(m), range(m)] -= cl
        jac[:m, m] = -xs
        jac[m, :m] = 2.0 * xs
        try:
            step = np.linalg.solve(jac, -fun)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        v = v + step
        if np.max(np.abs(step)) < 1e-14 * (1.0 + np.max(np.abs(v))):
            break
    return v[:m], complex(v[m])


_START_SCALES = (1.0, 2.0, 0.5, 4.0, 0.25)

# two numeric lambdas within this relative distance refer to the same exact
# root of psi; roots arrive as simple roots of square-free factors, so they
# carry near machine precision and genuinely distinct roots sit far outside
# this radius for anything but adversarial inputs
_ROOT_RTOL = 1e-8

# Gauss-Newton residual loose enough to hand a stalled-but-close iterate to
# the joint Newton polish, which applies the real acceptance gate
_GN_ACCEPT = 1e-6


def eigenpairs_from_charpoly(
    f: SymmetricTensor,
    charpoly: ECharPoly,
    seed: int = 0,
    n_starts: int = 32,
) -> SpectrumResult:
    """Complete the roots of psi to eigenpairs, one per sign class.

    The exact square-free decomposition of psi splits the root set into
    simple roots of pairwise-coprime factors, each tagged with its exact
    multiplicity, so every numeric root is sharp (an m-fold root attacked
    directly is only located to about eps^(1/m)).  A root of multiplicity k
    is then completed to k eigenpairs.  Candidates come from damped
    Gauss-Newton at the root over random starts on a cycle of scales, then
    every candidate is sharpened by a square Newton iteration on
    (x, lambda) jointly, which converges quadratically because an eigenpair
    is a regular zero of the combined system even where psi has a multiple
    root.  Two rescue layers cover basins too small for random starts: for
    odd parity the negated eigenvector of a solved root at -lambda, and for
    ternary tensors informed starts on the eigen-directions found by
    eliminating the proportionality minors of (grad f, x).  Later copies of
    a multiple root insist on an eigenvector class not seen yet; copies
    left over once the distinct classes are exhausted belong to genuinely
    repeated eigenpairs and are dropped silently, while roots with no
    recovered class at all are recorded as failures.
    """
    import numpy as np

    if charpoly.psi.is_zero():
        return SpectrumResult(pairs=[], failures=[
            RecoveryFailure(kind="IDENTICALLY_ZERO", detail="psi vanishes; spectrum is not discrete")
        ])
    m = f.n_vars
    parity = charpoly.parity
    ev = _CompiledDerivatives(f)
    rng = np.random.default_rng(seed + 1)
    failures: list[RecoveryFailure] = []
    direction_starts: list[np.ndarray] | None = None

    prim, _ = charpoly.psi.primitive_part()
    clusters: list[dict] = []
    for factor, mult in prim.squarefree_decomposition():
        for r in aberth_roots(factor.complex_coeffs(), seed=seed):
            clusters.append({"mu": r, "count": mult, "found": [], "missing": 0})

    def tight(mu: complex) -> float:
        return _ROOT_RTOL * (1.0 + abs(mu))

    def polish(mu: complex, x: np.ndarray):
        """Joint Newton from (x, mu); None unless it lands on an eigenpair
        of this root."""
        xp, lp = _joint_newton(ev, mu, x)
        xt = tuple(complex(c) for c in xp)
        ok = (
            ev.residual(lp, xt) <= RESIDUAL_REPORT * (1.0 + abs(lp))
            and _norm_defect(xt) <= RESIDUAL_REPORT
            and abs(lp - mu) <= tight(mu)
        )
        return (complex(lp), xt) if ok else None

    def same_class(lam: complex, xa, xb) -> bool:
        _, ca = canonical_pair(lam, tuple(xa), parity)
        _, cb = canonical_pair(lam, tuple(xb), parity)
        return all(abs(a - b) <= 1e-6 * (1.0 + abs(a)) for a, b in zip(ca, cb))

    def novel(cl: dict):
        def check(pair) -> bool:
            return all(
                not same_class(cl["mu"], pair[1], got[1]) for got in cl["found"]
            )

        return check

    def try_mirror(cl: dict):
        if parity != "odd":
            return None
        mu = cl["mu"]
        want = novel(cl)
        for other in clusters:
            if abs(mu + other["mu"]) > tight(mu):
                continue
            for plam, px in other["found"]:
                cand = np.array([-c for c in px])
                got = polish(mu, cand)
                if got is not None and want(got):
                    return got
        return None

    def try_random(cl: dict):
        mu = cl["mu"]
        want = novel(cl)
        for s in range(n_starts):
            scale = _START_SCALES[s % len(_START_SCALES)]
            x0 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            x0 *= scale / math.sqrt(2 * m)
            x, rn = _gauss_newton_solve(ev, mu, x0)
            if rn <= _GN_ACCEPT * (1.0 + abs(mu)):
                got = polish(mu, x)
                if got is not None and want(got):
                    return got
        return None

    def try_directions(cl: dict):
        nonlocal direction_starts
        if direction_starts is None:
            if m == 2:
                direction_starts = _binary_direction_starts(ev.grads)
            elif m == 3:
                direction_starts = _ternary_direction_starts(f, ev.grads)
            else:
                direction_starts = []
        if not direction_starts:
            return None
        mu = cl["mu"]
        want = novel(cl)
        cands = direction_starts
        if parity == "odd":
            # the listed representative solves one of +-lambda; its negation
            # solves the other
            cands = cands + [-v for v in cands]
        ordered = sorted(
            cands,
            key=lambda v: abs(f.poly.evaluate(tuple(v)) - mu),
        )
        for x0 in ordered:
            x, rn = _gauss_newton_solve(ev, mu, x0)
            if rn <= _GN_ACCEPT * (1.0 + abs(mu)):
                got = polish(mu, x)
                if got is not None and want(got):
                    return got
        return None

    for cl in clusters:
        for _copy in range(cl["count"]):
            found = try_mirror(cl) or try_random(cl) or try_directions(cl)
            if found is None:
                cl["missing"] += 1
            else:
                cl["found"].append(found)
    # partners solved later in the sweep can seed roots that came up short
    # on the first pass
    for cl in clusters:
        while cl["missing"] > 0:
            found = try_mirror(cl)
            if found is None:
                break
            cl["found"].append(found)
            cl["missing"] -= 1

    pairs: list[EigenPair] = []
    for cl in clusters:
        for lam, x in cl["found"]:
            clam, cx = canonical_pair(lam, x, parity)
            pairs.append(
                EigenPair(lam=clam, x=cx, residual=ev.residual(clam, cx))
            )
        for _ in range(cl["missing"]):
            if cl["found"]:
                # every class at this multiple root is already recovered;
                # the leftover copies are the extra sheet of a genuinely
                # repeated eigenpair and carry no new information
                continue
            failures.append(
                RecoveryFailure(
                    kind="RECOVERY_FAILED", detail=f"lambda={cl['mu']!r}"
                )
            )
    return SpectrumResult(pairs=_dedup_pairs(pairs), failures=failures)


def _binary_direction_starts(grads: list[MultiPoly]) -> list[np.ndarray]:
    """Normalized eigen-direction candidates of a binary tensor.

    Every eigenvector lies on a root of the proportionality minor of
    (grad f, x), a binary form whose roots are cheap and exact, so these
    starts put Gauss-Newton inside the right basin even where random
    starts keep hitting a nonzero local minimum of the residual.
    Isotropic directions are skipped; they have no normalized
    representative.
    """
    import numpy as np

    x = [MultiPoly.variable(2, i) for i in range(2)]
    form = grads[0] * x[1] - grads[1] * x[0]
    if form.is_zero():
        return []
    starts: list[np.ndarray] = []
    for s, t in _binary_form_roots(form):
        nu = s * s + t * t
        if abs(nu) <= 1e-12 * (abs(s) ** 2 + abs(t) ** 2):
            continue
        w = cmath.sqrt(nu)
        starts.append(np.array([s / w, t / w]))
    return starts


def _ternary_direction_starts(
    f: SymmetricTensor, grads: list[MultiPoly]
) -> list[np.ndarray]:
    """Normalized eigen-direction candidates of a ternary tensor.

    The directions are the common projective zeros of the 2x2 minors of the
    matrix with rows (1/d) grad f(y) and y.  Two minors are intersected by a
    numeric hidden-variable resultant in the last coordinate (interpolated
    from fixed-size Sylvester determinants, so coefficient degree drops are
    harmless), candidate points are filtered against the third minor, and
    non-isotropic ones are normalized to the bilinear unit sphere.  Used
    only to seed Gauss-Newton, so double precision is sufficient.
    """
    import numpy as np

    x = [MultiPoly.variable(3, i) for i in range(3)]
    minors = [
        grads[1] * x[2] - grads[2] * x[1],
        grads[2] * x[0] - grads[0] * x[2],
        grads[0] * x[1] - grads[1] * x[0],
    ]
    d = f.d
    # split each minor into binary-form coefficients of powers of y3
    def layers(p: MultiPoly) -> list[MultiPoly]:
        out = [MultiPoly.zero(2) for _ in range(d + 1)]
        for exp, c in p.terms.items():
            out[exp[2]] = out[exp[2]] + MultiPoly(2, {(exp[0], exp[1]): c})
        return out

    lay1 = layers(minors[0])
    lay2 = layers(minors[1])
    deg_r = d * d
    radius = 1.37
    samples = [
        radius * cmath.exp(2j * math.pi * (k + 0.31) / (deg_r + 1))
        for k in range(deg_r + 1)
    ]
    values = []
    for s in samples:
        pt = (s, 1.0 + 0j)
        c1 = [layer.evaluate(pt) for layer in lay1]
        c2 = [layer.evaluate(pt) for layer in lay2]
        values.append(_formal_sylvester_det(c1, c2))
    coeffs = _fit_poly(samples, values)
    scale = max(abs(c) for c in coeffs)
    candidates: list[tuple[complex, complex]] = []
    if scale > 0:
        trimmed = list(coeffs)
        while len(trimmed) > 1 and abs(trimmed[-1]) < 1e-10 * scale:
            trimmed.pop()
        if len(trimmed) > 1:
            for s in aberth_roots(trimmed):
                candidates.append((s, 1.0 + 0j))
    candidates.append((1.0 + 0j, 0j))  # the chart the slice t=1 misses
    starts: list[np.ndarray] = []
    for s, t in candidates:
        pt = (s, t)
        c1 = [layer.evaluate(pt) for layer in lay1]
        top = max(abs(v) for v in c1)
        if top == 0:
            continue
        trimmed = list(c1)
        while len(trimmed) > 1 and abs(trimmed[-1]) < 1e-9 * top:
            trimmed.pop()
        if len(trimmed) < 2:
            u_list = [0j] if abs(trimmed[0]) < 1e-9 * top else []
        else:
            u_list = aberth_roots(trimmed)
        for u in u_list:
            y = np.array([s, t, u])
            size = float(np.max(np.abs(y)))
            if size == 0:
                continue
            y = y / size
            yt = tuple(y)
            check = max(abs(mn.evaluate(yt)) for mn in minors)
            if check > 1e-5 * (1.0 + float(np.max(np.abs(y))) ** d):
                continue
            nu = complex(np.sum(y * y))
            if abs(nu) <= 1e-10:
                continue
            starts.append(y / cmath.sqrt(nu))
    return starts


def _formal_sylvester_det(p: list[complex], q: list[complex]) -> complex:
    """Sylvester determinant at the formal degrees len(p)-1, len(q)-1."""
    import numpy as np

    m = len(p) - 1
    k = len(q) - 1
    size = m + k
    mat = np.zeros((size, size), dtype=complex)
    for r in range(k):
        mat[r, r : r + m + 1] = p
    for r in range(m):
        mat[k + r, r : r + k + 1] = q
    return complex(np.linalg.det(mat))


def _fit_poly(xs: list[complex], ys: list[complex]) -> list[complex]:
    """Interpolating coefficients (ascending) through len(xs) points."""
    import numpy as np

    van = np.vander(np.array(xs), increasing=True)
    sol = np.linalg.solve(van, np.array(ys))
    return [complex(v) for v in sol]


def _dedup_pairs(pairs: list[EigenPair], tol: float = 1e-6) -> list[EigenPair]:
    """Merge sign-class duplicates, keeping the smallest-residual member."""
    kept: list[EigenPair] = []
    for p in pairs:
        scale = 1.0 + abs(p.lam)
        match = None
        for i, q in enumerate(kept):
            if abs(p.lam - q.lam) > tol * scale:
                continue
            if all(
                abs(a - b) <= tol * (1.0 + abs(a)) for a, b in zip(p.x, q.x)
            ):
                match = i
                break
        if match is None:
            kept.append(p)
        elif p.residual < kept[match].residual:
            kept[match] = p
    return kept


# ---------------------------------------------------------------------------
# diagonal (Fermat-type) closed form
# ---------------------------------------------------------------------------

def fermat_modes(m: int, d: int):
    """Enumerate (support, arrangement) labels of the diagonal eigenvectors.

    support runs over nonempty subsets of the m coordinates; for a support
    of size j there are (d-2)^(j-1) arrangements of (d-2)-th roots of unity
    on all support slots after the first.  For d = 2 only singletons occur.
    """
    for j in range(1, m + 1):
        for support in combinations(range(m), j):
            for alphas in product(range(max(d - 2, 0)), repeat=j - 1):
                yield support, alphas


def fermat_mode_vector(
    spec: FermatSpec, support: tuple[int, ...], alphas: tuple[int, ...]
) -> tuple[list[complex], complex]:
    """Unnormalized eigenvector components on the support and their <x, x>.

    The second return value is the norm factor whose product over all modes
    is the denominator polynomial of the eigenvalue product formula.
    """
    j = len(support)
    if j == 1:
        return [1.0 + 0j], 1.0 + 0j
    root_exp = 1.0 / (spec.d - 2)
    xi = [_principal_power(spec.a[k], root_exp) for k in support]
    eps = cmath.exp(2j * math.pi / (spec.d - 2))
    alpha_full = (0,) + alphas
    comps = []
    for l in range(j):
        prod = 1.0 + 0j
        for mth in range(j):
            if mth != l:
                prod *= xi[mth]
        comps.append(prod * eps ** alpha_full[l])
    norm2 = sum(c * c for c in comps)
    return comps, norm2


def _principal_power(z: complex, e: float) -> complex:
    if z == 0:
        return 0j
    return cmath.exp(e * cmath.log(z))


def fermat_eigenpairs(spec: FermatSpec) -> SpectrumResult:
    """All eigenpairs of a diagonal tensor by the closed-form enumeration.

    Modes whose norm factor degenerates to zero (isotropic constructed
    vector, possible for special coefficient ratios) are skipped and
    reported per mode as NORM_ZERO failures.
    """
    if any(z == 0 for z in spec.a):
        raise ZeroCoefficientError("diagonal tensor has a zero coefficient")
    if spec.d < 2:
        raise ValueError("fermat_eigenpairs needs d >= 2")
    m = spec.n + 1
    parity = "even" if spec.d % 2 == 0 else "odd"
    f = _fermat_tensor_numeric(spec)
    pairs: list[EigenPair] = []
    failures: list[RecoveryFailure] = []
    for support, alphas in fermat_modes(m, spec.d):
        comps, norm2 = fermat_mode_vector(spec, support, alphas)
        if len(support) == 1:
            x = [0j] * m
            x[support[0]] = 1.0 + 0j
            lam = spec.a[support[0]]
        else:
            scale = max(abs(c) ** 2 for c in comps)
            if abs(norm2) <= 1e-10 * scale:
                failures.append(
                    RecoveryFailure(
                        kind="NORM_ZERO",
                        detail=f"support={support} arrangement={alphas}",
                    )
                )
                continue
            w = cmath.sqrt(norm2)
            x = [0j] * m
            for l, k in enumerate(support):
                x[k] = comps[l] / w
            coeff_prod = 1.0 + 0j
            for k in support:
                coeff_prod *= spec.a[k]
            lam = coeff_prod / w ** (spec.d - 2)
        lam, xt = canonical_pair(lam, tuple(x), parity)
        pairs.append(
            EigenPair(lam=lam, x=xt, residual=eigen_residual(f, lam, xt))
        )
    return SpectrumResult(pairs=pairs, failures=failures)


def _fermat_tensor_numeric(spec: FermatSpec) -> SymmetricTensor:
    """Double precision stand-in used only for residual reporting."""
    terms = {}
    m = spec.n + 1
    for i, z in enumerate(spec.a):
        exp = [0] * m
        exp[i] = spec.d
        terms[tuple(exp)] = GaussianRational(
            Fraction(z.real), Fraction(z.imag)
        )
    return SymmetricTensor(MultiPoly(m, terms), spec.d)
