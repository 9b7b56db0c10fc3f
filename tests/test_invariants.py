"""Integer invariants, exact discriminants, and the product identity checks."""

from fractions import Fraction

import pytest

from espectra.generators import fermat_tensor, random_tensor, tangent_tensor
import espectra.invariants as invariants_mod
from espectra.invariants import (
    DegenerateRestrictionError,
    TensorAnalysis,
    binary_q_discriminant,
    constant_term_ratio,
    fermat_h_polynomial,
    gradient_resultant,
    invariant_report,
    ternary_q_discriminant_proxy,
    verify_main_theorem,
)
from espectra.poly_core import (
    GaussianRational,
    MultiPoly,
    SymmetricTensor,
    quadric_form,
)
from espectra.spectra import FermatSpec


def gr(re, im=0):
    return GaussianRational.of(re, im)


def test_invariant_report_ternary_cubic():
    rep = invariant_report(2, 3)
    assert rep.eigen_count == 7
    assert rep.phi == 5
    assert rep.delta0 == 10
    assert rep.alpha == (-1, 2)
    assert rep.beta == (-1, 2)


def test_invariant_report_quaternary_quartic():
    rep = invariant_report(3, 4)
    assert rep.eigen_count == 40
    assert rep.phi == 68
    assert rep.delta0 == 68
    assert rep.alpha == (2, -4, 3)


def test_alpha_beta_agree_to_n_20():
    # the report constructor asserts alpha == beta internally; driving it
    # across the range proves the two closed forms agree coefficientwise
    for n in range(1, 21):
        rep = invariant_report(n, 3)
        assert rep.alpha == rep.beta


def test_phi_delta0_identity_over_degree_grid():
    for n in range(1, 21):
        for d in range(2, 13):
            rep = invariant_report(n, d)
            assert 2 * rep.phi == (d - 2) * rep.delta0


def test_invariant_report_validates_shape():
    with pytest.raises(ValueError):
        invariant_report(0, 3)
    with pytest.raises(ValueError):
        invariant_report(2, 1)


def test_binary_q_discriminant_hand_values():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    f = SymmetricTensor(x ** 3 + x ** 2 * y, 3)
    inv = binary_q_discriminant(f)
    # f(1, i) = 1 + i and f(1, -i) = 1 - i, so the product is 2
    assert inv.b0 == gr(1, 1)
    assert inv.bd == gr(1, -1)
    assert inv.qdisc == gr(2)


def test_binary_q_discriminant_vanishes_on_tangent_form():
    f = tangent_tensor(1, 4, seed=3)
    inv = binary_q_discriminant(f)
    assert inv.b0.is_zero()
    assert inv.qdisc.is_zero()


def test_ternary_proxy_zero_exactly_on_tangent_form():
    assert ternary_q_discriminant_proxy(tangent_tensor(2, 3, seed=1)).is_zero()
    assert not ternary_q_discriminant_proxy(random_tensor(2, 3, seed=4)).is_zero()


def test_ternary_proxy_homogeneity():
    f = random_tensor(2, 3, seed=8)
    scaled = SymmetricTensor(f.poly.scale(gr(3)), f.d)
    base = ternary_q_discriminant_proxy(f)
    # rescaling the form by t rescales the detector by t^(2(2d-1)) = t^10
    assert ternary_q_discriminant_proxy(scaled) == base * gr(3) ** 10


def test_ternary_proxy_rejects_conic_multiple():
    g = MultiPoly.variable(3, 0)
    f = SymmetricTensor(quadric_form(3) * g, 3)
    with pytest.raises(DegenerateRestrictionError):
        ternary_q_discriminant_proxy(f)


def test_verify_main_theorem_passes_on_regular_samples():
    for n, d, seed in ((1, 3, 2), (1, 4, 2), (2, 3, 2), (2, 4, 3)):
        rep = verify_main_theorem(random_tensor(n, d, seed=seed))
        assert rep.verdict == "PASS"
        assert rep.observed_sign in (1, -1)
        assert rep.rel_error <= 1e-6


def test_verify_main_theorem_reports_deficient_with_certificate():
    rep = verify_main_theorem(tangent_tensor(2, 3, seed=1))
    assert rep.verdict == "HYPOTHESIS_FAILED"
    assert rep.certificate is not None
    # the certificate witnesses an isotropic eigenvector
    norm = sum(c * c for c in rep.certificate.x)
    assert abs(complex(norm)) < 1e-8


def test_constant_term_ratio_is_one_across_shapes():
    # the exact ratio c0 / Res (even degree) or c0 / Res^2 (odd degree)
    # is the same unit for every regular sample of a shape; at these four
    # shapes that unit is exactly +1
    for n, d in ((1, 3), (1, 4), (2, 3), (2, 4)):
        samples = [random_tensor(n, d, seed=s) for s in range(3)]
        assert constant_term_ratio(samples) == gr(1)


def test_constant_term_ratio_validates_input():
    f = random_tensor(1, 3, seed=0)
    with pytest.raises(ValueError):
        constant_term_ratio([f])
    with pytest.raises(ValueError):
        constant_term_ratio([f, random_tensor(2, 3, seed=0)])
    with pytest.raises(ValueError):
        constant_term_ratio(
            [f, random_tensor(1, 3, seed=1)], parity="even"
        )


def test_fermat_h_polynomial_homogeneity():
    a = (2 + 1j, -1 + 0j, 3 - 2j)
    h1 = fermat_h_polynomial(FermatSpec(a=a, d=3))
    h2 = fermat_h_polynomial(FermatSpec(a=tuple(3 * z for z in a), d=3))
    # degree 2 phi / (d - 2) = 10 in the diagonal coefficients at (2, 3)
    assert abs(h2 / h1 - 3 ** 10) <= 1e-9 * 3 ** 10


def test_gradient_resultant_fermat_closed_form():
    # diagonal tensors: Res((1/d) grad) = prod a_i^((d-1)^n) exactly
    f = fermat_tensor((gr(2), gr(-3), gr(1, 1)), 3)
    expect = (gr(2) * gr(-3) * gr(1, 1)) ** 4
    assert gradient_resultant(f) == expect


def test_analysis_gives_the_same_reports_as_the_tensor():
    for n, d in ((1, 3), (1, 4), (2, 3)):
        samples = [random_tensor(n, d, seed=s) for s in range(3)]
        analyses = [TensorAnalysis(f) for f in samples]
        for f, a in zip(samples, analyses):
            assert verify_main_theorem(a) == verify_main_theorem(f)
        # the analyses already hold psi and the resultant from the verdicts
        assert constant_term_ratio(analyses) == constant_term_ratio(samples)


def test_analysis_of_returns_an_analysis_unchanged():
    a = TensorAnalysis(random_tensor(1, 3, seed=0))
    assert TensorAnalysis.of(a) is a
    assert TensorAnalysis.of(a.f).f is a.f
    assert (a.n, a.d) == (1, 3)


def test_deficient_sample_never_computes_gradient_resultant(monkeypatch):
    calls = []
    real = invariants_mod.gradient_resultant

    def counting(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(invariants_mod, "gradient_resultant", counting)
    tangent = TensorAnalysis(tangent_tensor(2, 3, seed=1))
    rep = verify_main_theorem(tangent)
    assert rep.verdict == "HYPOTHESIS_FAILED"
    assert calls == []
    # the shared analysis still makes the constant check refuse the sample
    with pytest.raises(ValueError, match="sample 1 is deficient"):
        constant_term_ratio([TensorAnalysis(random_tensor(2, 3, seed=0)), tangent])
