"""Characteristic polynomial construction, degrees, parity, deficiency."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from espectra.echar import (
    UnsupportedDimensionError,
    build_odd_system,
    e_char_poly,
    find_deficit_solution,
    generic_eigen_count,
    is_irregular,
    psi_degree_bound,
)
from espectra.generators import (
    apply_rotation,
    fermat_tensor,
    random_rotation,
    random_tensor,
    tangent_tensor,
)
from espectra.poly_core import (
    GaussianRational,
    MultiPoly,
    SymmetricTensor,
    UniPoly,
    quadric_form,
)
from espectra.resultant_engine import (
    MacaulaySystem,
    macaulay_resultant,
    parametric_resultant,
)


def gr(re, im=0):
    return GaussianRational.of(re, im)


def test_generic_eigen_count_table():
    # d = 2 reduces to ordinary eigenvalues
    assert generic_eigen_count(1, 2) == 2
    assert generic_eigen_count(2, 2) == 3
    assert generic_eigen_count(4, 2) == 5
    # geometric series ((d-1)^(n+1) - 1)/(d - 2)
    assert generic_eigen_count(1, 3) == 3
    assert generic_eigen_count(2, 3) == 7
    assert generic_eigen_count(2, 4) == 13
    assert generic_eigen_count(1, 5) == 5
    assert generic_eigen_count(3, 3) == 15


def test_psi_degree_bound_parity():
    assert psi_degree_bound(2, 4) == 13
    assert psi_degree_bound(2, 3) == 14  # odd order doubles the degree
    assert psi_degree_bound(1, 3) == 6


def test_binary_cubic_psi_degree_and_parity():
    f = random_tensor(1, 3, seed=2)
    cp = e_char_poly(f)
    assert cp.parity == "odd"
    assert cp.psi.degree == 6
    assert not cp.deficient
    assert cp.psi.even_part_only()
    assert cp.eigen_count == 3


def test_binary_quartic_psi_degree():
    f = random_tensor(1, 4, seed=3)
    cp = e_char_poly(f)
    assert cp.parity == "even"
    assert cp.psi.degree == 4
    assert not cp.deficient


def test_quadric_psi_is_ordinary_charpoly():
    # diagonal quadratic form: eigenvalues are the diagonal entries
    x = [MultiPoly.variable(3, i) for i in range(3)]
    f = SymmetricTensor(x[0] ** 2 * 2 + x[1] ** 2 * 3 + x[2] ** 2 * 5, 2)
    cp = e_char_poly(f)
    assert cp.psi.degree == 3
    for lam in (2, 3, 5):
        assert cp.psi.eval_exact(lam).is_zero()


def test_isotropic_power_psi_identically_zero():
    q = quadric_form(3)
    f = SymmetricTensor(q * q, 4)
    cp = e_char_poly(f)
    assert cp.identically_zero
    assert cp.psi.is_zero()


def test_dimension_gate_on_certificate_operations():
    # the polynomial itself is available in any dimension the matrix
    # budget allows; the certificate machinery is rank-2/3 only
    x = [MultiPoly.variable(4, i) for i in range(4)]
    f = SymmetricTensor(x[0] ** 3 + x[1] ** 3 + x[2] ** 3 + x[3] ** 3, 3)
    cp = e_char_poly(f)
    assert cp.psi.degree == 30
    assert cp.eigen_count == 15
    with pytest.raises(UnsupportedDimensionError):
        is_irregular(f)
    with pytest.raises(UnsupportedDimensionError):
        find_deficit_solution(f)


def test_tangent_binary_is_deficient():
    f = tangent_tensor(1, 4, seed=7)
    cp = e_char_poly(f)
    assert cp.deficient
    assert cp.psi.degree < psi_degree_bound(1, 4)
    cert = find_deficit_solution(f)
    assert cert is not None
    assert cert.residual <= 1e-8
    # the isotropic eigenvector is proportional to (1, i) or (1, -i)
    ratio = cert.x[1] / cert.x[0]
    assert min(abs(ratio - 1j), abs(ratio + 1j)) <= 1e-6


def test_tangent_ternary_is_deficient_not_irregular():
    f = tangent_tensor(2, 3, seed=5)
    assert not is_irregular(f)
    cp = e_char_poly(f)
    assert cp.deficient
    cert = find_deficit_solution(f)
    assert cert is not None
    assert cert.residual <= 1e-8
    # certificate is isotropic: <x,x> = 0
    assert abs(sum(c * c for c in cert.x)) <= 1e-8


def test_random_tensors_are_not_deficient():
    for seed in range(4):
        f = random_tensor(2, 3, seed=seed)
        cp = e_char_poly(f)
        assert not cp.deficient
        assert find_deficit_solution(f) is None


def test_fermat_cubic_psi_has_generic_degree():
    f = fermat_tensor([gr(1), gr(1), gr(1)], 3)
    cp = e_char_poly(f)
    assert cp.psi.degree == 14
    assert cp.psi.even_part_only()
    assert not cp.deficient


@pytest.mark.parametrize("n, d", [(1, 3), (1, 5), (2, 3)])
def test_odd_psi_from_half_the_nodes_equals_full_interpolation(n, d):
    # e_char_poly builds odd psi as g(lam^2) from lam = 0..N, which makes
    # its parity hold by construction; the parity law itself is checked here
    # against the interpolation on the full node set 0, +-1, +-2, ...
    f = random_tensor(n, d, seed=31)
    system = build_odd_system(f)
    bound = psi_degree_bound(n, d)
    full = parametric_resultant(dataclasses.replace(system, even=False), bound)
    psi = e_char_poly(f).psi
    assert psi == full
    for k in (1, 2, bound // 2 + 1):
        direct = macaulay_resultant(MacaulaySystem(system.at(-k)))
        assert psi.eval_exact(gr(-k)) == direct


# exact laws of psi; hypothesis draws binary forms, the pinned examples add
# one ternary cubic and one ternary quartic

@settings(max_examples=40, deadline=None)
@given(n=st.just(1), d=st.integers(3, 6), seed=st.integers(0, 10**6),
       rot_seed=st.integers(0, 10**6))
@example(n=2, d=3, seed=1, rot_seed=2)
@example(n=2, d=4, seed=1, rot_seed=2)
def test_psi_is_invariant_under_exact_rotations(n, d, seed, rot_seed):
    # x -> Q y with Q special orthogonal fixes the quadric and has det 1,
    # so the resultant of the eigen-system is unchanged for every lambda
    f = random_tensor(n, d, seed=seed)
    g = apply_rotation(f, random_rotation(n + 1, rot_seed))
    assert e_char_poly(g).psi == e_char_poly(f).psi


_NONZERO_GAUSSIAN = st.builds(
    lambda a, b, q: GaussianRational.of(Fraction(a, q), Fraction(b, q)),
    st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 4),
).filter(bool)


@settings(max_examples=40, deadline=None)
@given(n=st.just(1), d=st.integers(3, 6), seed=st.integers(0, 10**6),
       c=_NONZERO_GAUSSIAN)
@example(n=2, d=3, seed=1, c=gr(Fraction(2, 3), -1))
@example(n=2, d=4, seed=1, c=gr(-3, 2))
def test_psi_scaling_law(n, d, seed, c):
    # psi_{cf}(lam) = c^e psi_f(lam / c), e = (n+1)(d-1)^n for even d and
    # twice that for odd d: the resultant is homogeneous in each form
    f = random_tensor(n, d, seed=seed)
    e = (n + 1) * (d - 1) ** n * (1 if d % 2 == 0 else 2)
    psi = e_char_poly(f).psi
    scaled = e_char_poly(SymmetricTensor(f.poly.scale(c), d)).psi
    assert scaled == UniPoly([c ** (e - j) * a for j, a in enumerate(psi.coeffs)])
