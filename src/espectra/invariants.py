"""Combinatorial invariants and the product-of-eigenvalues verifier.

The count N of eigenvalue sign classes, the coefficient-degree invariant phi,
and the polar degree delta0 are tied by exact integer identities that this
module evaluates directly (no floating point):

    N      = n + 1 (d = 2),  ((d-1)^(n+1) - 1) / (d - 2) otherwise
    phi    = (n+1)(d-1)^n - N = (d-2) * sum_k (k+1)(d-1)^k
    alpha_k = (k+1) * sum_j C(n+1, j) (-1)^j 2^(n-1-k-j)
    beta_k  = (k+1) * sum_l C(k+l+1, l) (-1)^l
    delta0 = 2 * sum_k alpha_k d^k,     2 phi = (d-2) delta0

For binary forms the discriminant of the isotropic-direction pair is the
exact product qdisc = f(1, i) * f(1, -i); it vanishes precisely when an
eigen-direction cannot be normalized.  For ternary forms no closed
discriminant is attempted; a Sylvester-resultant proxy of the conic
restriction detects the same vanishing locus up to an unknown constant and
exponent, which is all the verifier needs.

verify_main_theorem checks, per tensor, that the product of the eigenvalue
representatives times the discriminant power equals the gradient resultant
(n = 1 with full constants; n = 2 through the exact unit-ratio constant and
the proxy).  constant_term_ratio checks that the ratio of the constant
coefficient of the characteristic polynomial to the gradient resultant is
one fixed exact number across samples of the same shape.

Both checks read the same two exact values of a tensor: its characteristic
polynomial psi and its gradient resultant Res((1/d) grad f).  A
TensorAnalysis wraps one tensor and computes each of the two lazily, at
most once, on first use.  Both checks accept either a SymmetricTensor or a
TensorAnalysis, so a caller that runs both on the same samples (verify
--suite) passes the same analyses to each and pays for psi and the
resultant once per sample.  An analysis holds no state beyond its tensor's
values and lives only as long as its caller keeps it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .echar import (
    DeficitCertificate,
    ECharPoly,
    UnsupportedDimensionError,
    e_char_poly,
    find_deficit_solution,
    generic_eigen_count,
    is_irregular,
)
from .poly_core import (
    ExactScalar,
    GaussianRational,
    SymmetricTensor,
    restrict_to_conic,
)
from .resultant_engine import resultant_value, sylvester_resultant


class RatioMismatchError(ValueError):
    """Samples of the same shape produced different exact ratios."""

    def __init__(self, first: int, second: int, ratio_a, ratio_b):
        self.indices = (first, second)
        self.ratios = (ratio_a, ratio_b)
        super().__init__(
            f"sample {second} ratio {ratio_b} differs from sample {first}"
            f" ratio {ratio_a}"
        )


class DegenerateRestrictionError(ValueError):
    """The tensor vanishes identically on the isotropic conic."""


@dataclass(frozen=True)
class InvariantReport:
    n: int
    d: int
    eigen_count: int
    phi: int
    delta0: int
    alpha: tuple[int, ...]
    beta: tuple[int, ...]


@dataclass(frozen=True)
class BinaryInvariants:
    """Exact values at the two isotropic directions of a binary form."""

    b0: ExactScalar
    bd: ExactScalar
    qdisc: ExactScalar


def _alpha(n: int, k: int) -> int:
    total = 0
    for j in range(n - k):
        total += math.comb(n + 1, j) * (-1) ** j * 2 ** (n - 1 - k - j)
    return (k + 1) * total


def _beta(n: int, k: int) -> int:
    total = 0
    for l in range(n - k):
        total += math.comb(k + l + 1, l) * (-1) ** l
    return (k + 1) * total


def invariant_report(n: int, d: int) -> InvariantReport:
    """Exact invariants at shape (n, d), cross-checked before returning.

    Four independent routes to phi and delta0 must agree: the count
    identity, the alternating-sum alpha coefficients, the binomial-sum beta
    coefficients, and the factored (d-2)-multiple form.
    """
    if n < 1 or d < 2:
        raise ValueError("invariant_report needs n >= 1 and d >= 2")
    count = generic_eigen_count(n, d)
    phi = (n + 1) * (d - 1) ** n - count
    alpha = tuple(_alpha(n, k) for k in range(n))
    beta = tuple(_beta(n, k) for k in range(n))
    if alpha != beta:
        raise AssertionError(f"alpha/beta mismatch at n={n}: {alpha} != {beta}")
    delta0 = 2 * sum(alpha[k] * d**k for k in range(n))
    if 2 * phi != (d - 2) * delta0:
        raise AssertionError(
            f"2*phi != (d-2)*delta0 at (n,d)=({n},{d}): {2*phi} vs {(d-2)*delta0}"
        )
    phi_factored = (d - 2) * sum((k + 1) * (d - 1) ** k for k in range(n))
    if phi != phi_factored:
        raise AssertionError(f"phi mismatch at (n,d)=({n},{d})")
    return InvariantReport(
        n=n, d=d, eigen_count=count, phi=phi, delta0=delta0, alpha=alpha, beta=beta
    )


_ONE = GaussianRational(Fraction(1))
_PLUS_I = (GaussianRational(Fraction(1)), GaussianRational(Fraction(0), Fraction(1)))
_MINUS_I = (GaussianRational(Fraction(1)), GaussianRational(Fraction(0), Fraction(-1)))


def binary_q_discriminant(f: SymmetricTensor) -> BinaryInvariants:
    """Exact discriminant data of a binary form.

    b0 and bd are the values of f at the isotropic directions (1, i) and
    (1, -i); their product is real for real f and vanishes exactly when the
    form has an isotropic eigen-direction.
    """
    if f.n != 1:
        raise ValueError("binary_q_discriminant needs n = 1")
    b0 = f.poly.evaluate_exact(_PLUS_I)
    bd = f.poly.evaluate_exact(_MINUS_I)
    return BinaryInvariants(b0=b0, bd=bd, qdisc=b0 * bd)


def ternary_q_discriminant_proxy(f: SymmetricTensor) -> ExactScalar:
    """Tangency detector for a ternary form against the isotropic conic.

    Restricts f to the rational parametrization of the conic and returns
    the Sylvester resultant of the two partial derivatives of the
    restriction.  The value is zero exactly when the restriction has a
    repeated projective root, i.e. when the form is tangent to the conic or
    singular on it; rescaling f by t rescales the value by t^(2(2d-1)).
    The normalization relative to the primitive tangency discriminant is
    not pinned down, so only vanishing and homogeneity are meaningful.
    """
    if f.n != 2:
        raise ValueError("ternary_q_discriminant_proxy needs n = 2")
    g = restrict_to_conic(f)
    if g.is_zero():
        raise DegenerateRestrictionError(
            "the form vanishes identically on the isotropic conic"
        )
    gs = g.diff(0)
    gt = g.diff(1)
    if gs.is_zero() or gt.is_zero():
        # the restriction is a pure power of one variable: maximally
        # repeated root, so the tangency detector vanishes
        return GaussianRational()
    return sylvester_resultant(gs, gt)


def gradient_resultant(f: SymmetricTensor) -> ExactScalar:
    """Exact normalized resultant of the scaled gradient system (1/d) grad f."""
    inv_d = GaussianRational(Fraction(1, f.d))
    return resultant_value([f.poly.diff(i).scale(inv_d) for i in range(f.n_vars)])


class TensorAnalysis:
    """One tensor's psi and gradient resultant, each computed at most once.

    Both values are lazy: a check that stops early (a deficient or
    irregular tensor) never pays for the resultant.  They go through the
    module-level e_char_poly and gradient_resultant with the tensor as the
    first argument, so a caller that rebinds those names sees every call.
    """

    def __init__(self, f: SymmetricTensor):
        self.f = f

    @staticmethod
    def of(x: "SymmetricTensor | TensorAnalysis") -> "TensorAnalysis":
        """x itself when it is an analysis, else a fresh analysis of x."""
        return x if isinstance(x, TensorAnalysis) else TensorAnalysis(x)

    @property
    def n(self) -> int:
        return self.f.n

    @property
    def d(self) -> int:
        return self.f.d

    @cached_property
    def echar(self) -> ECharPoly:
        return e_char_poly(self.f)

    @cached_property
    def gradient_resultant(self) -> ExactScalar:
        return gradient_resultant(self.f)


@dataclass(frozen=True)
class MainTheoremReport:
    """Outcome of the product-of-eigenvalues identity on one tensor.

    verdict is PASS, FAIL, or HYPOTHESIS_FAILED (deficient or irregular
    input, reported with a certificate instead of a check).  vieta_abs is
    the modulus of the product of eigenvalue representatives read off the
    characteristic polynomial; rel_error measures the identity named in the
    module docstring.  constant is the exact ratio c0 / Res^(1 or 2) when
    it is rational (n = 2), or the exact even-degree n = 1 ratio; None when
    only a floating check applies.  observed_sign records the sign of the
    exact constant when one exists.
    """

    verdict: str
    n: int
    d: int
    parity: str
    vieta_abs: float | None = None
    res_abs: float | None = None
    disc_abs: float | None = None
    rel_error: float | None = None
    constant: ExactScalar | None = None
    observed_sign: int | None = None
    certificate: DeficitCertificate | None = None
    detail: str = ""


MAIN_THEOREM_RTOL = 1e-6


def verify_main_theorem(f: SymmetricTensor | TensorAnalysis) -> MainTheoremReport:
    """Check the eigenvalue-product identity on one regular tensor.

    For n = 1:  |product of eigenvalues| * |qdisc|^((d-2)/2) must equal
    |Res| within 1e-6 relative, with the product taken from the
    characteristic polynomial by Vieta.  For even d the whole ratio is
    rational and is additionally required to be exactly +-1.

    For n = 2 the discriminant itself is out of reach, so the check is the
    exact unit ratio c0 / Res (even d) or c0 / Res^2 (odd d) being +-1,
    plus agreement of the tangency proxy with the non-deficiency
    hypothesis.

    Deficient or irregular tensors short-circuit to HYPOTHESIS_FAILED with
    the isotropic-eigenvector certificate attached.
    """
    analysis = TensorAnalysis.of(f)
    f = analysis.f
    n, d = f.n, f.d
    parity = "even" if d % 2 == 0 else "odd"
    if n not in (1, 2):
        raise UnsupportedDimensionError("verify_main_theorem covers n <= 2")
    ec = analysis.echar
    if is_irregular(f) or ec.deficient:
        cert = find_deficit_solution(f)
        return MainTheoremReport(
            verdict="HYPOTHESIS_FAILED",
            n=n,
            d=d,
            parity=parity,
            certificate=cert,
            detail="deficient characteristic polynomial"
            if ec.deficient
            else "irregular tensor",
        )
    res = analysis.gradient_resultant
    c0 = ec.psi.coeff(0)
    c_top = ec.psi.coeffs[-1]
    count = ec.eigen_count
    if parity == "even":
        vieta_abs = abs(complex(c0 / c_top))
    else:
        vieta_abs = math.sqrt(abs(complex(c0 / c_top)))
    res_abs = abs(complex(res))
    if n == 1:
        qd = binary_q_discriminant(f).qdisc
        disc_abs = abs(complex(qd))
        lhs = vieta_abs * disc_abs ** ((d - 2) / 2.0)
        rel = abs(lhs - res_abs) / max(res_abs, 1e-300)
        if parity == "even":
            constant = (c0 * qd ** ((d - 2) // 2)) / (c_top * res) * (
                GaussianRational(Fraction((-1) ** count))
            )
        else:
            # square of the identity: rational even when the d-2 power is not
            constant = (c0 * qd ** (d - 2)) / (c_top * res * res)
        sign = _unit_sign(constant)
        verdict = "PASS" if rel <= MAIN_THEOREM_RTOL and sign else "FAIL"
        return MainTheoremReport(
            verdict=verdict,
            n=n,
            d=d,
            parity=parity,
            vieta_abs=vieta_abs,
            res_abs=res_abs,
            disc_abs=disc_abs,
            rel_error=rel,
            constant=constant,
            observed_sign=sign,
        )
    # n = 2: exact unit-constant route plus the tangency proxy
    power = 1 if parity == "even" else 2
    constant = c0 / res**power
    sign = _unit_sign(constant)
    proxy = ternary_q_discriminant_proxy(f)
    proxy_ok = bool(proxy)
    verdict = "PASS" if sign is not None and proxy_ok else "FAIL"
    return MainTheoremReport(
        verdict=verdict,
        n=n,
        d=d,
        parity=parity,
        vieta_abs=vieta_abs,
        res_abs=res_abs,
        rel_error=0.0 if sign is not None else 1.0,
        constant=constant,
        observed_sign=sign,
        detail="tangency proxy nonzero" if proxy_ok else "tangency proxy zero",
    )


def _unit_sign(value: GaussianRational) -> int | None:
    """+1 or -1 when value is exactly that, None otherwise."""
    if value.im:
        return None
    if value.re == 1:
        return 1
    if value.re == -1:
        return -1
    return None


def constant_term_ratio(
    samples: list[SymmetricTensor | TensorAnalysis], parity: str | None = None
) -> ExactScalar:
    """The shared exact ratio c0 / Res^(1 or 2) across same-shape samples.

    The power is 1 for even degree and 2 for odd.  All samples must agree
    exactly; the first disagreement raises RatioMismatchError naming the
    offending pair.
    """
    samples = [TensorAnalysis.of(x) for x in samples]
    if len(samples) < 2:
        raise ValueError("constant_term_ratio needs at least two samples")
    shape = (samples[0].n, samples[0].d)
    for f in samples[1:]:
        if (f.n, f.d) != shape:
            raise ValueError("constant_term_ratio samples must share (n, d)")
    d = shape[1]
    expected_parity = "even" if d % 2 == 0 else "odd"
    if parity is None:
        parity = expected_parity
    elif parity != expected_parity:
        raise ValueError(f"parity {parity!r} contradicts degree {d}")
    power = 1 if parity == "even" else 2
    ratio = None
    first = 0
    for idx, analysis in enumerate(samples):
        ec = analysis.echar
        if ec.deficient:
            raise ValueError(f"sample {idx} is deficient; ratio undefined")
        res = analysis.gradient_resultant
        value = ec.psi.coeff(0) / res**power
        if ratio is None:
            ratio = value
            first = idx
        elif value != ratio:
            raise RatioMismatchError(first, idx, ratio, value)
    return ratio


def fermat_h_polynomial(spec) -> complex:
    """Numeric norm-factor product of the diagonal eigenvector enumeration.

    The product of one bilinear square-norm per eigenvector mode, taken
    before normalization; it is homogeneous of degree 2 phi / (d - 2) in
    the diagonal coefficients, and the eigenvalue product of the diagonal
    tensor equals (prod a_i)^((d-1)^n) / h^((d-2)/2) in modulus.
    """
    from .spectra import ZeroCoefficientError, fermat_mode_vector, fermat_modes

    if spec.d < 3:
        raise ValueError("fermat_h_polynomial needs d >= 3")
    if any(z == 0 for z in spec.a):
        raise ZeroCoefficientError("diagonal tensor has a zero coefficient")
    h = complex(1.0)
    for support, alphas in fermat_modes(spec.n + 1, spec.d):
        _, norm2 = fermat_mode_vector(spec, support, alphas)
        h *= norm2
    return h
