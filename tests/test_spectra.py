"""Root finding, eigenpair recovery, and the three spectrum routes."""

import cmath
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from espectra.echar import e_char_poly
from espectra.generators import fermat_tensor, random_tensor, tangent_tensor
from espectra.poly_core import GaussianRational, MultiPoly, SymmetricTensor
from espectra.spectra import (
    FermatSpec,
    _CompiledDerivatives,
    _householder_lstsq,
    IsotropicRootError,
    ZeroCoefficientError,
    aberth_roots,
    binary_eigenpairs,
    canonical_pair,
    eigen_residual,
    eigenpairs_from_charpoly,
    fermat_eigenpairs,
    fermat_modes,
    product_of_eigenvalues,
)


def gr(re, im=0):
    return GaussianRational.of(re, im)


def sorted_lams(pairs):
    return sorted((p.lam for p in pairs), key=lambda z: (round(abs(z), 9), round(z.real, 9), round(z.imag, 9)))


def test_aberth_recovers_separated_roots():
    # (z - 1)(z - 2)(z + 3j) expanded, ascending coefficients
    roots = [1.0, 2.0, -3j]
    coeffs = [1.0]
    for r in roots:
        coeffs = [0.0] + coeffs
        for k in range(len(coeffs) - 1):
            coeffs[k] -= r * coeffs[k + 1]
    got = aberth_roots(coeffs)
    assert len(got) == 3
    for r in roots:
        assert min(abs(g - r) for g in got) < 1e-12


def test_aberth_handles_multiple_root():
    # z^2 (z - 1): double root at 0 limits accuracy to about sqrt(eps)
    got = aberth_roots([0.0, 0.0, -1.0, 1.0])
    zeros = sorted(got, key=abs)[:2]
    assert all(abs(z) < 1e-6 for z in zeros)
    assert abs(sorted(got, key=abs)[2] - 1) < 1e-10


def test_aberth_is_seed_deterministic():
    coeffs = [3.0, -2.0, 0.5j, 1.0]
    assert aberth_roots(coeffs, seed=5) == aberth_roots(coeffs, seed=5)


def test_canonical_pair_fixes_sign_even():
    lam, x = canonical_pair(2.0 + 1j, (-1.0, 2.0), "even")
    assert x[0] > 0
    assert lam == 2.0 + 1j  # even order: the eigenvalue never flips


def test_canonical_pair_fixes_sign_odd():
    lam, x = canonical_pair(2.0 + 1j, (-1.0, 2.0), "odd")
    assert x[0] > 0
    assert lam == -2.0 - 1j  # odd order: flipping x flips lambda


def test_canonical_pair_idempotent():
    lam, x = canonical_pair(1.5, (0.0, -2.0 + 1j), "odd")
    assert canonical_pair(lam, x, "odd") == (lam, x)


def test_binary_cubic_two_cube_spectrum():
    # x^3 + y^3: directions (1,0), (0,1), (1,1)/sqrt(2) with eigenvalues
    # 1, 1, 1/sqrt(2)
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    f = SymmetricTensor(x ** 3 + y ** 3, 3)
    pairs = binary_eigenpairs(f)
    assert len(pairs) == 3
    lams = sorted_lams(pairs)
    assert lams[0] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert lams[1] == pytest.approx(1.0, abs=1e-12)
    assert lams[2] == pytest.approx(1.0, abs=1e-12)
    for p in pairs:
        assert p.residual < 1e-12
        assert abs(sum(c * c for c in p.x) - 1) < 1e-12


def test_binary_route_rejects_isotropic_direction():
    f = tangent_tensor(1, 4, seed=7)
    with pytest.raises(IsotropicRootError):
        binary_eigenpairs(f)


def test_binary_and_charpoly_routes_agree():
    for seed, d in ((0, 3), (1, 4), (2, 5)):
        f = random_tensor(1, d, seed=seed)
        direct = binary_eigenpairs(f)
        cp = e_char_poly(f)
        completed = eigenpairs_from_charpoly(f, cp, seed=seed)
        assert not completed.failures
        a = sorted_lams(direct)
        b = sorted_lams(completed.pairs)
        assert len(a) == len(b) == cp.eigen_count
        for u, v in zip(a, b):
            assert abs(u - v) <= 1e-7 * (1 + abs(u))


def test_charpoly_route_on_double_root_spectrum():
    # x^3 + y^3 has a repeated eigenvalue, so psi has a multiple root; the
    # joint Newton polish must still return full-accuracy eigenpairs
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    f = SymmetricTensor(x ** 3 + y ** 3, 3)
    cp = e_char_poly(f)
    result = eigenpairs_from_charpoly(f, cp, seed=0)
    assert not result.failures
    assert len(result.pairs) == 3
    for p in result.pairs:
        assert p.residual < 1e-12


def test_charpoly_route_reports_identically_zero():
    from espectra.poly_core import quadric_form

    f = SymmetricTensor(quadric_form(3) * quadric_form(3), 4)
    cp = e_char_poly(f)
    result = eigenpairs_from_charpoly(f, cp)
    assert not result.pairs
    assert result.failures[0].kind == "IDENTICALLY_ZERO"


def test_spectrum_result_iteration():
    f = random_tensor(1, 3, seed=9)
    cp = e_char_poly(f)
    result = eigenpairs_from_charpoly(f, cp, seed=1)
    assert len(result) == len(result.pairs)
    assert [p.lam for p in result] == [p.lam for p in result.pairs]


def test_ternary_cubic_full_class_count():
    f = random_tensor(2, 3, seed=31)
    cp = e_char_poly(f)
    result = eigenpairs_from_charpoly(f, cp, seed=31)
    assert not result.failures
    assert len(result.pairs) == 7
    for p in result.pairs:
        assert p.residual <= 1e-10
        # lambda = f(x) on the normalized eigenvector
        assert abs(f.poly.evaluate(p.x) - p.lam) <= 1e-8 * (1 + abs(p.lam))


def test_fermat_modes_count_matches_generic_count():
    # number of modes is the generic eigen count N
    assert sum(1 for _ in fermat_modes(2, 3)) == 3
    assert sum(1 for _ in fermat_modes(3, 3)) == 7
    assert sum(1 for _ in fermat_modes(3, 4)) == 13
    assert sum(1 for _ in fermat_modes(2, 5)) == 5


def test_fermat_route_binary_cubic_matches_direct():
    spec = FermatSpec(a=(1 + 0j, 1 + 0j), d=3)
    closed = fermat_eigenpairs(spec)
    assert not closed.failures
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    f = SymmetricTensor(x ** 3 + y ** 3, 3)
    direct = binary_eigenpairs(f)
    a = sorted_lams(closed.pairs)
    b = sorted_lams(direct)
    assert len(a) == len(b) == 3
    for u, v in zip(a, b):
        assert abs(u - v) < 1e-10


def test_fermat_route_ternary_quartic_counts_and_residuals():
    spec = FermatSpec(a=(2 + 1j, -1 + 0j, 3 - 2j), d=4)
    result = fermat_eigenpairs(spec)
    assert not result.failures
    assert len(result.pairs) == 13
    for p in result.pairs:
        assert p.residual < 1e-9


def test_fermat_route_rejects_zero_coefficient():
    with pytest.raises(ZeroCoefficientError):
        fermat_eigenpairs(FermatSpec(a=(1 + 0j, 0j), d=3))


def test_product_of_eigenvalues_matches_manual():
    f = random_tensor(1, 4, seed=11)
    pairs = binary_eigenpairs(f)
    prod = product_of_eigenvalues(pairs)
    manual = 1.0 + 0j
    for p in pairs:
        manual *= p.lam
    assert prod == pytest.approx(manual)


def test_eigen_residual_is_zero_on_exact_pair():
    # for f = x^d the pair (1, e_1) is exact
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    f = SymmetricTensor(x ** 4 + y ** 4, 4)
    assert eigen_residual(f, 1.0, (1.0, 0.0)) == 0.0


def test_recovery_rescues_tiny_basins():
    # seeds whose psi has a root with a tiny Gauss-Newton basin, where
    # random starts alone were observed to miss; the rescue layers must
    # still recover every class
    for seed in (104, 117):
        f = random_tensor(2, 3, seed=seed)
        cp = e_char_poly(f)
        result = eigenpairs_from_charpoly(f, cp, seed=seed)
        assert not result.failures
        assert len(result.pairs) == 7


def test_recovery_rescues_even_order_binary_stall():
    # at this seed the fixed-lambda Gauss-Newton stalls on a nonzero local
    # minimum from every random start for one root, and even order has no
    # sign-partner rescue; the eigen-direction starts must carry it
    f = random_tensor(1, 4, seed=40)
    cp = e_char_poly(f)
    result = eigenpairs_from_charpoly(f, cp, seed=40)
    assert not result.failures
    a = sorted_lams(binary_eigenpairs(f))
    b = sorted_lams(result.pairs)
    assert len(a) == len(b) == 4
    for u, v in zip(a, b):
        assert abs(u - v) <= 1e-8 * (1 + abs(u))


def test_charpoly_route_on_high_multiplicity_roots():
    # x^4 + y^4 + z^4: psi = (t - 1)^3 (t - 1/2)^6 (t - 1/3)^4 up to scale,
    # 13 eigenpair classes total.  The exact square-free split hands the
    # recovery sharp roots with known multiplicities; all classes must come
    # back at full accuracy and match the closed-form route
    f = fermat_tensor((1, 1, 1), 4)
    cp = e_char_poly(f)
    prim, _ = cp.psi.primitive_part()
    assert sorted((q.degree, m) for q, m in prim.squarefree_decomposition()) == [
        (1, 3),
        (1, 4),
        (1, 6),
    ]
    result = eigenpairs_from_charpoly(f, cp, seed=0)
    assert not result.failures
    closed = fermat_eigenpairs(FermatSpec(a=(1 + 0j, 1 + 0j, 1 + 0j), d=4))
    assert not closed.failures
    a = sorted_lams(result.pairs)
    b = sorted_lams(closed.pairs)
    assert len(a) == len(b) == 13
    for u, v in zip(a, b):
        assert abs(u - v) <= 1e-9
    assert max(p.residual for p in result.pairs) < 1e-12


def test_charpoly_route_matches_closed_form_on_repeated_odd_spectrum():
    # x^3 + y^3 + z^3, odd order with multiple psi roots; compare the
    # sign-blind eigenvalue multisets of the two routes
    f = fermat_tensor((1, 1, 1), 3)
    cp = e_char_poly(f)
    result = eigenpairs_from_charpoly(f, cp, seed=0)
    assert not result.failures
    closed = fermat_eigenpairs(FermatSpec(a=(1 + 0j, 1 + 0j, 1 + 0j), d=3))
    assert not closed.failures
    a = sorted(round(abs(p.lam), 9) for p in result.pairs)
    b = sorted(round(abs(p.lam), 9) for p in closed.pairs)
    assert len(a) == len(b) == 7
    assert a == b


_fractions = st.fractions(min_value=-40, max_value=40, max_denominator=12)


@st.composite
def gaussian_forms(draw):
    """A random Gaussian-rational form with n <= 3, d <= 6, and a point."""
    n = draw(st.integers(1, 3))
    d = draw(st.integers(1, 6))
    monos = [
        e for e in product(range(d + 1), repeat=n + 1) if sum(e) == d
    ]
    chosen = draw(st.lists(st.sampled_from(monos), min_size=1, unique=True))
    terms = {e: GaussianRational(draw(_fractions), draw(_fractions)) for e in chosen}
    parts = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    x = [complex(draw(parts), draw(parts)) for _ in range(n + 1)]
    return SymmetricTensor(MultiPoly(n + 1, terms), d), x


def _term_scale(p, x):
    """Sum of |c| |x^e| over the terms: the size rounding error is measured in."""
    return sum(
        abs(complex(c)) * math.prod(abs(z) ** k for z, k in zip(x, e))
        for e, c in p.terms.items()
    )


@settings(max_examples=80, deadline=None)
@given(gaussian_forms())
def test_compiled_derivatives_match_multipoly_evaluate(case):
    f, x = case
    ev = _CompiledDerivatives(f)
    grad = ev.gradient(np.array(x))
    hess = ev.hessian(np.array(x))
    m = f.n_vars
    for i in range(m):
        gi = f.poly.diff(i)
        assert abs(grad[i] - gi.evaluate(x)) <= 1e-12 * _term_scale(gi, x)
        for k in range(m):
            hik = gi.diff(k)
            assert abs(hess[i, k] - hik.evaluate(x)) <= 1e-12 * _term_scale(hik, x)
    lam = complex(0.5, -1.0)
    scale = max(_term_scale(f.poly.diff(i), x) for i in range(m)) + abs(lam)
    assert abs(
        ev.residual(lam, tuple(x)) - eigen_residual(f, lam, tuple(x))
    ) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_householder_lstsq_matches_numpy(m, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m + 1, m)) + 1j * rng.standard_normal((m + 1, m))
    b = rng.standard_normal(m + 1) + 1j * rng.standard_normal(m + 1)
    want = np.linalg.lstsq(a, b, rcond=None)[0]
    got = _householder_lstsq(a, b)
    cond = np.linalg.cond(a)
    assert np.max(np.abs(got - want)) <= 1e-13 * cond * (1.0 + np.max(np.abs(want)))


def test_householder_lstsq_reports_dependent_column():
    a = np.array([[1.0, 0.0], [1j, 0.0], [2.0, 0.0]])
    assert _householder_lstsq(a, np.ones(3, dtype=complex)) is None
