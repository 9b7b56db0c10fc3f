"""Exact scalar, polynomial, and tensor plumbing."""

import json
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from espectra import poly_core
from espectra.poly_core import (
    GaussianRational,
    MultiPoly,
    NonHomogeneousError,
    SymmetricTensor,
    UniPoly,
    as_scalar,
    binary_coeffs,
    binary_from_coeffs,
    binary_gcd,
    euler_check,
    quadric_form,
    restrict_to_conic,
    scalar_from_json,
    scalar_to_json,
    tensor_from_json,
    tensor_to_json,
)


def gr(re, im=0):
    return GaussianRational.of(re, im)


def test_scalar_field_axioms_spot_checks():
    a = gr(Fraction(3, 4), Fraction(-1, 2))
    b = gr(-2, 5)
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * b == b * a
    assert (a + b) * a == a * a + b * a
    assert -(-a) == a


def test_scalar_division_and_powers():
    i = gr(0, 1)
    assert i * i == gr(-1)
    assert i ** 4 == gr(1)
    assert 1 / i == -i
    assert gr(5) / gr(0, 5) == -i
    assert gr(2, 1) ** -2 == 1 / (gr(2, 1) * gr(2, 1))
    with pytest.raises(ZeroDivisionError):
        gr(1) / gr(0)


def test_scalar_coerces_python_numbers():
    assert gr(1, 1) * 2 == gr(2, 2)
    assert gr(3) + Fraction(1, 3) == gr(Fraction(10, 3))
    assert as_scalar(7) == gr(7)
    assert as_scalar(Fraction(-2, 9)) == gr(Fraction(-2, 9))
    assert complex(gr(Fraction(1, 2), -3)) == 0.5 - 3j


def test_scalar_json_round_trip():
    vals = [gr(0), gr(Fraction(22, 7), Fraction(-1, 3)), gr(-5, 4)]
    for v in vals:
        doc = scalar_to_json(v)
        assert set(doc) == {"re", "im"}
        assert isinstance(doc["re"], str)
        assert scalar_from_json(doc) == v


def test_multipoly_arithmetic_and_diff():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    p = (x + y) ** 3
    assert p.total_degree() == 3
    assert p.is_homogeneous()
    # d/dx (x+y)^3 = 3 (x+y)^2
    assert p.diff(0) == (x + y) * (x + y) * 3
    assert p.diff(0).diff(1) == (x + y) * 6


def test_multipoly_cancellation_keeps_terms_clean():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    p = x * y - y * x
    assert p.is_zero()
    assert p.terms == {}


def test_multipoly_evaluate_exact_matches_float():
    x = MultiPoly.variable(3, 0)
    y = MultiPoly.variable(3, 1)
    z = MultiPoly.variable(3, 2)
    p = x * x * z - y * y * y * 2 + x * y * z * 5
    pt_exact = (gr(1, 2), gr(Fraction(-1, 2)), gr(3, -1))
    pt_float = tuple(complex(c) for c in pt_exact)
    assert abs(complex(p.evaluate_exact(pt_exact)) - p.evaluate(pt_float)) < 1e-12


def test_substitute_linear_swap_and_shear():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    p = x * x * y
    swapped = p.substitute_linear([[0, 1], [1, 0]])
    assert swapped == y * y * x
    sheared = p.substitute_linear([[1, 1], [0, 1]])  # x -> x + y
    assert sheared == (x + y) * (x + y) * y


def test_quadric_form_is_sum_of_squares():
    q = quadric_form(3)
    assert q.evaluate((1.0, 2.0, 3.0)) == pytest.approx(14.0)
    assert q.evaluate((1.0, 1j, 0.0)) == pytest.approx(0.0)


def test_unipoly_trailing_zeros_trimmed():
    p = UniPoly([1, 2, 0, 0])
    assert p.degree == 1
    assert UniPoly([0, 0]).is_zero()
    assert UniPoly.zero().degree == -1


def test_unipoly_interpolate_round_trip():
    p = UniPoly([gr(1, 1), gr(0), gr(Fraction(-7, 3)), gr(2, -5)])
    nodes = [0, 1, -1, 2]
    values = [p.eval_exact(t) for t in nodes]
    assert UniPoly.interpolate(nodes, values) == p


def test_unipoly_even_part_only():
    assert UniPoly([3, 0, -1, 0, 5]).even_part_only()
    assert not UniPoly([3, 1]).even_part_only()
    assert UniPoly.zero().even_part_only()


def test_unipoly_content_and_primitive_part():
    p = UniPoly([gr(Fraction(4, 3)), gr(Fraction(-2, 3), Fraction(8, 3))])
    prim, content = p.primitive_part()
    assert content == Fraction(2, 3)
    assert prim == UniPoly([gr(2), gr(-1, 4)])
    # primitive part of the primitive part is itself
    again, c2 = prim.primitive_part()
    assert again == prim and c2 == 1
    zp, zc = UniPoly.zero().primitive_part()
    assert zp.is_zero() and zc == 0


def test_squarefree_decomposition_recovers_multiplicities():
    # p = 5 (t - 1)^3 (t + 2) (t^2 + i)^2, built exactly from its factors
    lin1 = UniPoly([gr(-1), gr(1)])
    lin2 = UniPoly([gr(2), gr(1)])
    quad = UniPoly([gr(0, 1), gr(0), gr(1)])
    p = UniPoly.constant(gr(5))
    for factor, mult in [(lin1, 3), (lin2, 1), (quad, 2)]:
        for _ in range(mult):
            p = p * factor
    dec = p.squarefree_decomposition()
    assert [(q, m) for q, m in dec] == [(lin2, 1), (quad, 2), (lin1, 3)]


def test_squarefree_decomposition_trivial_cases():
    p = UniPoly([gr(3), gr(0), gr(1)])  # already square-free
    assert p.squarefree_decomposition() == [
        (UniPoly([gr(3), gr(0), gr(1)]), 1)
    ]
    assert UniPoly.constant(gr(4)).squarefree_decomposition() == []
    with pytest.raises(ValueError):
        UniPoly.zero().squarefree_decomposition()


def test_binary_coeffs_ordering():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    p = x * x * 3 - x * y * 2 + y * y * 7
    cs = binary_coeffs(p)
    assert cs == [gr(3), gr(-2), gr(7)]
    assert binary_from_coeffs(cs) == p


def test_binary_gcd_extracts_shared_factor():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    shared = x - y * 2
    p = shared * (x + y)
    q = shared * (x * x + y * y * 3)
    g = binary_gcd(p, q)
    # gcd is defined up to scalar: compare after normalizing the x-coefficient
    cs = binary_coeffs(g)
    assert len(cs) == 2
    assert cs[1] / cs[0] == gr(-2)


def test_tensor_shape_validation():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    f = SymmetricTensor(x * x * y, 3)
    assert f.n == 1 and f.n_vars == 2
    with pytest.raises(NonHomogeneousError):
        SymmetricTensor(x * x + y, 2)
    with pytest.raises(NonHomogeneousError):
        SymmetricTensor(x * x, 3)


def test_euler_identity_residual_is_roundoff():
    x = MultiPoly.variable(3, 0)
    y = MultiPoly.variable(3, 1)
    z = MultiPoly.variable(3, 2)
    f = SymmetricTensor(x ** 3 + y ** 3 * 2 - x * y * z * 4 + z ** 3, 3)
    assert euler_check(f, (0.3 - 1j, 2.0, -0.7 + 0.2j)) < 1e-12


def test_tensor_json_round_trip():
    x = MultiPoly.variable(3, 0)
    y = MultiPoly.variable(3, 1)
    z = MultiPoly.variable(3, 2)
    f = SymmetricTensor(x * x * y * gr(2, -3) + z ** 3 * gr(Fraction(1, 7)), 3)
    doc = tensor_to_json(f)
    g = tensor_from_json(json.loads(json.dumps(doc)))
    assert g.poly == f.poly and g.d == f.d


def test_binary_binomial_weighting():
    # entry a_j stands for C(d, j) a_j x^(d-j) y^j
    doc = {
        "n": 1,
        "d": 3,
        "binary_binomial": True,
        "coeffs": [
            {"exp": [3, 0], "re": "1", "im": "0"},
            {"exp": [2, 1], "re": "2", "im": "0"},
            {"exp": [1, 2], "re": "0", "im": "0"},
            {"exp": [0, 3], "re": "-1", "im": "0"},
        ],
    }
    f = tensor_from_json(doc)
    cs = binary_coeffs(f.poly)
    assert cs == [gr(1), gr(6), gr(0), gr(-1)]


def test_restrict_to_conic_kills_isotropic_factor():
    q = quadric_form(3)
    x = MultiPoly.variable(3, 0)
    f = SymmetricTensor(q * x, 3)
    assert restrict_to_conic(f).is_zero()


def _monic_product(factors):
    out = UniPoly.constant(1)
    for q, mult in factors:
        for _ in range(mult):
            out = out * q
    return out.scale(GaussianRational.of(1) / out.coeffs[-1])


_small = st.fractions(min_value=-9, max_value=9, max_denominator=4)


@st.composite
def factored_polys(draw):
    """Products of random degree 1-2 factors with multiplicities 1-4."""
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        deg = draw(st.integers(1, 2))
        coeffs = [GaussianRational(draw(_small), draw(_small)) for _ in range(deg)]
        coeffs.append(GaussianRational.of(draw(st.integers(1, 5)), draw(st.integers(-2, 2))))
        factors.append((UniPoly(coeffs), draw(st.integers(1, 4))))
    scale = GaussianRational(draw(_small.filter(bool)), draw(_small))
    return _monic_product(factors).scale(scale)


@settings(max_examples=60, deadline=None)
@given(factored_polys())
def test_squarefree_certificate_agrees_with_yun(p):
    with patch.object(poly_core, "_CERTIFICATE_PRIMES", ()):
        yun = p.squarefree_decomposition()
    assert p.squarefree_decomposition() == yun
    # the certificate fires on every square-free input here: being wrong
    # would need all three primes to be unlucky
    if [m for _, m in yun] == [1]:
        assert poly_core._modular_squarefree(p)


def test_squarefree_certificate_unlucky_prime_falls_through():
    prime = poly_core._CERTIFICATE_PRIMES[0]
    a = 7
    # distinct roots a and a + P collide mod P, so the image has a double root
    f = UniPoly([-a, 1]) * UniPoly([-(a + prime), 1])
    with patch.object(poly_core, "_CERTIFICATE_PRIMES", (prime,)):
        assert not poly_core._modular_squarefree(f)
        assert f.squarefree_decomposition() == [(f, 1)]


def test_squarefree_certificate_skips_prime_dividing_leading_coefficient():
    prime = poly_core._CERTIFICATE_PRIMES[0]
    # (P x - 1)^2 (x + 2) maps to x + 2 mod P, square-free, but only because
    # the degree dropped; the prime must be skipped, not trusted
    f = UniPoly([-1, prime]) * UniPoly([-1, prime]) * UniPoly([2, 1])
    with patch.object(poly_core, "_CERTIFICATE_PRIMES", (prime,)):
        assert not poly_core._modular_squarefree(f)
        got = f.squarefree_decomposition()
    assert got == [
        (UniPoly([2, 1]), 1),
        (UniPoly([GaussianRational.of(Fraction(-1, prime)), 1]), 2),
    ]
