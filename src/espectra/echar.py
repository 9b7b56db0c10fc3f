"""E-characteristic polynomials of symmetric tensors.

An eigenpair of a symmetric tensor f of order d on C^(n+1) is a pair
(lambda, x) with (1/d) grad f(x) = lambda * x and <x, x> = 1, where <., .>
is the bilinear sum-of-products pairing (no conjugation).  The
E-characteristic polynomial psi is the resultant of the eigen-system with
lambda left as a parameter:

  even d:  psi(lam) = Res( (1/d) grad f - lam * ||x||^(d-2) x ),
           n+1 forms of degree d-1, expected degree N.
  odd d:   an extra variable x0 tracks the norm:
           psi(lam) = Res( x0^2 - ||x||^2,
                           (1/d) grad f - lam * x0^(d-2) x ),
           n+2 forms, expected degree 2N, only even powers of lam.

N is the generic eigenvalue count: n+1 for d = 2 and
((d-1)^(n+1) - 1) / (d-2) otherwise.  A drop of deg(psi) below the expected
value is exactly the existence of an isotropic eigenvector: a solution of the
eigen-system with <x, x> = 0, equivalently a point where the projective
hypersurface of f meets the isotropic quadric Q non-transversally.
find_deficit_solution produces such a witness for n <= 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly_core import (
    GaussianRational,
    MultiPoly,
    SymmetricTensor,
    UniPoly,
    ZERO,
    binary_coeffs,
    binary_gcd,
    conic_restrict_poly,
    quadric_form,
)
from .resultant_engine import ParametricSystem, parametric_resultant


class UnsupportedDimensionError(ValueError):
    """Raised by the n <= 2 only operations when given a larger tensor."""


def generic_eigen_count(n: int, d: int) -> int:
    """Generic number of eigenvalue classes of an order-d tensor on C^(n+1)."""
    if d < 2:
        raise ValueError("eigen counting needs d >= 2")
    if d == 2:
        return n + 1
    return ((d - 1) ** (n + 1) - 1) // (d - 2)


def psi_degree_bound(n: int, d: int) -> int:
    """Generic degree of psi: N for even d, 2N for odd d."""
    N = generic_eigen_count(n, d)
    return N if d % 2 == 0 else 2 * N


@dataclass
class ECharPoly:
    """psi together with the structural flags read off from it."""

    psi: UniPoly
    parity: str  # "even" or "odd"
    n: int
    d: int
    n_expected: int  # generic degree of psi (N or 2N)
    deficient: bool
    identically_zero: bool

    @property
    def eigen_count(self) -> int:
        return generic_eigen_count(self.n, self.d)

    @property
    def constant_term(self) -> GaussianRational:
        return self.psi.coeff(0)

    @property
    def leading_coeff(self) -> GaussianRational:
        if self.psi.is_zero():
            return ZERO
        return self.psi.coeffs[-1]


@dataclass
class DeficitCertificate:
    """Numeric witness of an isotropic eigenvector.

    x is scaled so its largest component has modulus 1; residual is the max
    of the eigen-equation residual and |<x, x>| and must come out <= 1e-8.
    """

    x: tuple[complex, ...]
    lam: complex
    residual: float


def build_even_system(f: SymmetricTensor) -> ParametricSystem:
    """Eigen-system for even d: (1/d) df/dx_i - lam ||x||^(d-2) x_i."""
    if f.d % 2:
        raise ValueError("build_even_system needs even d")
    m = f.n_vars
    q_pow = quadric_form(m) ** ((f.d - 2) // 2)
    const = [f.poly.diff(i).scale(GaussianRational.of(1) / f.d) for i in range(m)]
    linear = [-(q_pow * MultiPoly.variable(m, i)) for i in range(m)]
    return ParametricSystem(const, linear)


def build_odd_system(f: SymmetricTensor) -> ParametricSystem:
    """Eigen-system for odd d with the norm variable x0 prepended.

    Variables are (x0, x1, ..., x_(n+1)); the first form x0^2 - ||x||^2 has
    no parameter part, the rest are (1/d) df/dx_i - lam x0^(d-2) x_i.
    """
    if f.d % 2 == 0:
        raise ValueError("build_odd_system needs odd d")
    m = f.n_vars + 1

    def lift(p: MultiPoly) -> MultiPoly:
        return MultiPoly(m, {(0,) + e: c for e, c in p.terms.items()})

    x0_sq = MultiPoly.monomial(m, (2,) + (0,) * (m - 1))
    norm_sq = MultiPoly.zero(m)
    for i in range(1, m):
        exp = [0] * m
        exp[i] = 2
        norm_sq = norm_sq + MultiPoly.monomial(m, tuple(exp))
    const = [x0_sq - norm_sq]
    linear = [MultiPoly.zero(m)]
    x0_pow = MultiPoly.monomial(m, (f.d - 2,) + (0,) * (m - 1))
    for i in range(f.n_vars):
        const.append(lift(f.poly.diff(i)).scale(GaussianRational.of(1) / f.d))
        xi = MultiPoly.variable(m, i + 1)
        linear.append(-(x0_pow * xi))
    # x0 -> -x0 maps the system at lam onto the system at -lam (d - 2 is
    # odd); Res(F o A) = det(A)^(prod of degrees) Res(F), with det -1 and the
    # even degree product 2 (d-1)^(n+1), so psi(-lam) = psi(lam)
    return ParametricSystem(const, linear, even=True)


def e_char_poly(f: SymmetricTensor, degree_bound: int | None = None) -> ECharPoly:
    """Exact E-characteristic polynomial via parametric resultant interpolation.

    The interpolation degree bound is always the generic degree; a lower
    observed degree is a certificate of deficiency, never an artifact.
    """
    if f.poly.is_zero():
        raise ValueError("e_char_poly needs a nonzero tensor")
    parity = "even" if f.d % 2 == 0 else "odd"
    expected = psi_degree_bound(f.n, f.d)
    if degree_bound is None:
        degree_bound = expected
    system = build_even_system(f) if parity == "even" else build_odd_system(f)
    psi = parametric_resultant(system, degree_bound)
    identically_zero = psi.is_zero()
    deficient = identically_zero or psi.degree < expected
    return ECharPoly(
        psi=psi,
        parity=parity,
        n=f.n,
        d=f.d,
        n_expected=expected,
        deficient=deficient,
        identically_zero=identically_zero,
    )


# ---------------------------------------------------------------------------
# irregularity and deficit witnesses (n <= 2)
# ---------------------------------------------------------------------------

_ISO_PLUS = (GaussianRational.of(1), GaussianRational.of(0, 1))
_ISO_MINUS = (GaussianRational.of(1), GaussianRational.of(0, -1))


def is_irregular(f: SymmetricTensor) -> bool:
    """True when grad f has a projective zero on the isotropic quadric.

    n = 1: Q is the point pair (1, +-i) and the check is exact evaluation.
    n = 2: the partials are restricted to the conic parametrization and an
    exact gcd detects a common root.  Larger n is out of scope.
    """
    if f.n == 1:
        for pt in (_ISO_PLUS, _ISO_MINUS):
            if all(
                f.poly.diff(i).evaluate_exact(pt).is_zero() for i in range(2)
            ):
                return True
        return False
    if f.n == 2:
        parts = [conic_restrict_poly(f.poly.diff(i)) for i in range(3)]
        nonzero = [p for p in parts if not p.is_zero()]
        if not nonzero:
            return True
        # a partial that vanishes identically on the conic constrains nothing,
        # so the common-zero test is a gcd over the remaining restrictions
        g = nonzero[0]
        for p in nonzero[1:]:
            g = binary_gcd(g, p)
        return g.total_degree() > 0
    raise UnsupportedDimensionError(
        f"irregularity test supports n in (1, 2), got n = {f.n}"
    )


def _deficit_residual(f: SymmetricTensor, x: tuple[complex, ...], lam: complex) -> float:
    grad = [f.poly.diff(i).evaluate(x) / f.d for i in range(f.n_vars)]
    eig = max(abs(g - lam * xi) for g, xi in zip(grad, x))
    iso = abs(sum(xi * xi for xi in x))
    return max(eig, iso)


def _certificate_from_point(
    f: SymmetricTensor, x_raw: tuple[complex, ...]
) -> DeficitCertificate:
    scale = max(abs(c) for c in x_raw)
    x = tuple(c / scale for c in x_raw)
    # recover lambda from the eigen equation at the largest component
    k = max(range(len(x)), key=lambda i: abs(x[i]))
    lam = f.poly.diff(k).evaluate(x) / (f.d * x[k])
    return DeficitCertificate(x=x, lam=lam, residual=_deficit_residual(f, x, lam))


def _binary_form_roots(p: MultiPoly) -> list[tuple[complex, complex]]:
    """Projective roots (s, t) of a nonzero homogeneous binary form.

    Roots at (0 : 1) and (1 : 0) come from the monomial content; the rest
    are roots of the dehomogenization p(1, u), listed with multiplicity.
    """
    from .spectra import aberth_roots  # runtime import, spectra imports echar

    a = min(e[0] for e in p.terms)
    b = min(e[1] for e in p.terms)
    core = MultiPoly(2, {(e[0] - a, e[1] - b): c for e, c in p.terms.items()})
    roots: list[tuple[complex, complex]] = []
    roots.extend([(0.0 + 0j, 1.0 + 0j)] * a)
    roots.extend([(1.0 + 0j, 0.0 + 0j)] * b)
    cs = [complex(c) for c in binary_coeffs(core)]
    if len(cs) > 1:
        for u in aberth_roots(cs):
            roots.append((1.0 + 0j, u))
    return roots


def find_deficit_solution(f: SymmetricTensor) -> DeficitCertificate | None:
    """Witness for an isotropic eigenvector, or None when there is none.

    n = 1: (1, +-i) is an isotropic eigenvector exactly when f vanishes
    there (an exact test); lambda follows from the eigen equation.
    n = 2: the conic restriction g of f has a repeated root exactly at a
    tangency or singular contact point.  The repeated-root locus is computed
    as the exact gcd of the two partials of g (a common root of dg/ds and
    dg/dt is automatically a root of g by the homogeneous Euler identity),
    where the contact parameter appears as a simple root and is therefore
    recovered at full precision.
    """
    if f.n == 1:
        for pt, raw in ((_ISO_PLUS, (1, 1j)), (_ISO_MINUS, (1, -1j))):
            if f.poly.evaluate_exact(pt).is_zero():
                x = (complex(1.0), raw[1])
                lam = f.poly.diff(0).evaluate(x) / f.d
                return DeficitCertificate(
                    x=x, lam=lam, residual=_deficit_residual(f, x, lam)
                )
        return None
    if f.n == 2:
        g = conic_restrict_poly(f.poly)
        if g.is_zero():
            # f vanishes on the whole quadric; pick any conic point
            return _certificate_from_point(f, (1.0 + 0j, 1j, 0j))
        gs = g.diff(0)
        gt = g.diff(1)
        if gs.is_zero() or gt.is_zero():
            common = gt if gs.is_zero() else gs
        else:
            common = binary_gcd(gs, gt)
        if common.total_degree() < 1:
            return None
        s, t = _binary_form_roots(common)[0]
        x_raw = (s * s - t * t, 1j * (s * s + t * t), 2 * s * t)
        return _certificate_from_point(f, x_raw)
    raise UnsupportedDimensionError(
        f"deficit search supports n in (1, 2), got n = {f.n}"
    )
