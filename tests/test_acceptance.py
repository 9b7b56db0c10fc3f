"""End-to-end acceptance checks.

Each test pins one externally visible contract: the committed reference
system and its printed coefficients, deficiency detection with certificate,
the eigenvalue-product law for binary forms, the diagonal closed form with
its exact resultant, the integer invariant identities, the constant-term
unit law, eigenpair class counts, orthogonal invariance of the spectrum,
the resultant engine laws, and the parity structure of odd-degree
characteristic polynomials.  Stated runtime ceilings are asserted where a
contract carries one.
"""

import json
import math
import time
from fractions import Fraction
from importlib import resources

from espectra.cli import EXIT_OK, RunReport, main
from espectra.echar import e_char_poly, find_deficit_solution, generic_eigen_count
from espectra.generators import (
    apply_rotation,
    fermat_spec,
    fermat_tensor,
    random_fermat_coeffs,
    random_rotation,
    random_tensor,
)
from espectra.invariants import (
    binary_q_discriminant,
    constant_term_ratio,
    fermat_h_polynomial,
    gradient_resultant,
    invariant_report,
)
from espectra.poly_core import (
    GaussianRational,
    MultiPoly,
    binary_from_coeffs,
    tensor_from_json,
)
from espectra.resultant_engine import (
    MacaulaySystem,
    macaulay_resultant,
    sylvester_resultant,
)
from espectra.spectra import (
    binary_eigenpairs,
    eigenpairs_from_charpoly,
    fermat_eigenpairs,
    product_of_eigenvalues,
)

REFERENCE_SYSTEM = resources.files("espectra") / "fixtures/tangent_ternary_cubic_system.json"
REFERENCE_TENSOR = resources.files("espectra") / "fixtures/tangent_ternary_cubic.json"

# the seven published coefficients of the reference characteristic
# polynomial, by power of lambda
REFERENCE_COEFFS = {
    12: 22405379203945800000,
    10: 1737672597491537284396875,
    8: 45686609440492531312122181875,
    6: 538619871002221271247213134552625,
    4: 2746031584320556852962647720783548350,
    2: 2137752598886514957981090279414043391031,
    0: 13843807659909379464027427753236120270069196,
}


def test_reference_system_reproduces_published_coefficients(capsys):
    started = time.perf_counter()
    code = main(["echar", "--input", str(REFERENCE_SYSTEM)])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert code == EXIT_OK
    o = RunReport.parse(out).outputs
    assert o["kind"] == "system"
    assert o["degree"] == 12
    prim = o["psi_primitive"]
    got = {
        j: int(Fraction(c["re"]))
        for j, c in enumerate(prim)
        if Fraction(c["re"]) or Fraction(c["im"])
    }
    assert all(Fraction(c["im"]) == 0 for c in prim)
    sign = 1 if got[12] == REFERENCE_COEFFS[12] else -1
    assert got == {j: sign * v for j, v in REFERENCE_COEFFS.items()}
    assert elapsed <= 300.0


def test_reference_tensor_deficiency_and_certificate():
    f = tensor_from_json(json.loads(REFERENCE_TENSOR.read_text()))
    ec = e_char_poly(f)
    assert ec.deficient
    assert ec.psi.degree == 12
    assert 2 * ec.eigen_count == 14
    cert = find_deficit_solution(f)
    assert cert is not None
    assert cert.residual <= 1e-8
    # the witness is proportional to (0, 1, -i)
    x = cert.x
    scale = max(abs(c) for c in x)
    assert abs(x[0]) <= 1e-8 * scale
    assert abs(x[2] / x[1] - (-1j)) <= 1e-8


def test_binary_eigenvalue_product_law():
    started = time.perf_counter()
    for d in (3, 4, 5):
        count = generic_eigen_count(1, d)
        for seed in range(20):
            f = random_tensor(1, d, seed=seed)
            ec = e_char_poly(f)
            assert not ec.deficient
            c0 = ec.psi.coeff(0)
            c_top = ec.psi.coeffs[-1]
            if d % 2 == 0:
                vieta = c0 / c_top * GaussianRational.of((-1) ** count)
                vieta_abs = abs(complex(vieta))
            else:
                # psi lists each eigenvalue with both signs, so the full
                # Vieta product is (-1)^count times the square of the
                # class product
                vieta_abs = math.sqrt(abs(complex(c0 / c_top)))
            qdisc = binary_q_discriminant(f).qdisc
            res_abs = abs(complex(gradient_resultant(f)))
            lhs = vieta_abs * abs(complex(qdisc)) ** ((d - 2) / 2.0)
            assert abs(lhs - res_abs) <= 1e-6 * res_abs
            numeric = abs(product_of_eigenvalues(binary_eigenpairs(f)))
            assert abs(numeric - vieta_abs) <= 1e-6 * (1.0 + vieta_abs)
    assert time.perf_counter() - started <= 120.0


def test_diagonal_closed_form_counts_products_and_resultant():
    for n in (1, 2):
        for d in (3, 4, 5):
            a = random_fermat_coeffs(n, d, seed=10 * n + d)
            spec = fermat_spec(a, d)
            result = fermat_eigenpairs(spec)
            assert not result.failures
            count = generic_eigen_count(n, d)
            assert len(result.pairs) == count
            prod = abs(product_of_eigenvalues(result.pairs))
            g = 1.0 + 0j
            for z in spec.a:
                g *= z
            g = g ** ((d - 1) ** n)
            h = fermat_h_polynomial(spec)
            expect = abs(g / h ** ((d - 2) / 2.0))
            assert abs(prod - expect) <= 1e-6 * expect
            prod_a = a[0]
            for c in a[1:]:
                prod_a = prod_a * c
            assert gradient_resultant(fermat_tensor(a, d)) == prod_a ** (
                (d - 1) ** n
            )


def test_integer_invariant_identities_fast_and_exact():
    started = time.perf_counter()
    for n in range(1, 21):
        for d in range(2, 13):
            rep = invariant_report(n, d)
            assert rep.alpha == rep.beta
            assert 2 * rep.phi == (d - 2) * rep.delta0
    assert time.perf_counter() - started <= 1.0


def test_constant_term_unit_law_across_shapes():
    for n, d in ((1, 3), (1, 4), (2, 3), (2, 4)):
        samples = [random_tensor(n, d, seed=s) for s in range(5)]
        ratio = constant_term_ratio(samples)
        # one exact constant for the shape; at these shapes it is +1
        assert ratio == GaussianRational.of(1)


def test_ternary_cubic_class_count_and_eigen_identity():
    for seed in range(10):
        f = random_tensor(2, 3, seed=seed)
        ec = e_char_poly(f)
        result = eigenpairs_from_charpoly(f, ec, seed=seed)
        assert not result.failures
        assert len(result.pairs) == 7
        for p in result.pairs:
            assert abs(f.poly.evaluate(p.x) - p.lam) <= 1e-8 * (1 + abs(p.lam))


def _sign_blind_multiset(pairs):
    return sorted(
        (round(abs(p.lam), 7), round(abs(p.lam.real), 7), round(abs(p.lam.imag), 7))
        for p in pairs
    )


def test_spectrum_is_orthogonally_invariant():
    for seed in range(10):
        f = random_tensor(2, 3, seed=seed)
        g = apply_rotation(f, random_rotation(3, seed=seed))
        sp_f = eigenpairs_from_charpoly(f, e_char_poly(f), seed=seed)
        sp_g = eigenpairs_from_charpoly(g, e_char_poly(g), seed=seed)
        assert not sp_f.failures and not sp_g.failures
        a = _sign_blind_multiset(sp_f.pairs)
        b = _sign_blind_multiset(sp_g.pairs)
        assert len(a) == len(b) == 7
        for (m1, r1, i1), (m2, r2, i2) in zip(a, b):
            scale = 1.0 + m1
            assert abs(m1 - m2) <= 1e-6 * scale
            assert abs(r1 - r2) <= 1e-6 * scale
            assert abs(i1 - i2) <= 1e-6 * scale


def test_resultant_engine_laws():
    import random as pyrandom

    started = time.perf_counter()
    # normalization on diagonal systems: monomial forms give the exact
    # product of coefficient powers
    rng = pyrandom.Random(0)
    for _ in range(10):
        coeffs = [
            GaussianRational.of(rng.randint(1, 9), rng.randint(-9, 9))
            for _ in range(3)
        ]
        degrees = [rng.randint(1, 3) for _ in range(3)]
        forms = []
        for i, (c, deg) in enumerate(zip(coeffs, degrees)):
            exp = [0, 0, 0]
            exp[i] = deg
            forms.append(MultiPoly(3, {tuple(exp): c}))
        expect = GaussianRational.of(1)
        for i, c in enumerate(coeffs):
            power = 1
            for j, deg in enumerate(degrees):
                if j != i:
                    power *= deg
            expect = expect * c ** power
        assert macaulay_resultant(MacaulaySystem(forms)) == expect
    # per-argument homogeneity: scaling form i by t scales the resultant
    # by t^(product of the other degrees)
    for seed in range(5):
        f = random_tensor(2, 3, seed=seed)
        forms = [f.poly.diff(i) for i in range(3)]
        base = macaulay_resultant(MacaulaySystem(forms))
        t = GaussianRational.of(seed + 2)
        for i in range(3):
            scaled = list(forms)
            scaled[i] = scaled[i].scale(t)
            expect = base * t ** 4  # the other two degrees are 2 * 2
            assert macaulay_resultant(MacaulaySystem(scaled)) == expect
    # Sylvester and Macaulay agree on binary pairs
    rng = pyrandom.Random(1)
    for _ in range(100):
        dp = rng.randint(1, 4)
        dq = rng.randint(1, 4)
        p = binary_from_coeffs(
            [GaussianRational.of(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(dp + 1)]
        )
        q = binary_from_coeffs(
            [GaussianRational.of(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(dq + 1)]
        )
        if p.is_zero() or q.is_zero() or p.total_degree() < dp or q.total_degree() < dq:
            continue
        assert sylvester_resultant(p, q) == macaulay_resultant(MacaulaySystem([p, q]))
    assert time.perf_counter() - started <= 60.0


def test_odd_degree_charpoly_has_even_powers_only():
    shapes = [(1, 3)] * 8 + [(1, 5)] * 6 + [(2, 3)] * 6
    for k, (n, d) in enumerate(shapes):
        f = random_tensor(n, d, seed=k)
        ec = e_char_poly(f)
        assert ec.parity == "odd"
        assert ec.psi.even_part_only()
        assert any(
            c for j, c in enumerate(ec.psi.coeffs) if j % 2 == 0
        )
