"""Macaulay and Sylvester resultants, exact determinants, parametric driver."""

import copy
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from espectra.poly_core import (
    GaussianRational,
    MultiPoly,
    SymmetricTensor,
    UniPoly,
    binary_from_coeffs,
    quadric_form,
)
import espectra.resultant_engine as engine
from espectra.echar import build_even_system, build_odd_system, e_char_poly
from espectra.generators import random_tensor
from espectra.resultant_engine import (
    IntegerMatrix,
    MacaulaySystem,
    MatrixTooLargeError,
    ParametricSystem,
    _bareiss_gaussian,
    _bareiss_int,
    exact_determinant,
    macaulay_resultant,
    parametric_resultant,
    sylvester_resultant,
)


def gr(re, im=0):
    return GaussianRational.of(re, im)


def random_binary(rng, deg, force_top=False):
    cs = [gr(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(deg + 1)]
    if force_top and not cs[-1]:
        cs[-1] = gr(1)
    return binary_from_coeffs(cs)


def test_exact_determinant_known_values():
    assert exact_determinant([[gr(2)]]) == gr(2)
    m = [[gr(1), gr(2)], [gr(3), gr(4)]]
    assert exact_determinant(m) == gr(-2)
    # a Gaussian-rational 3x3 with fraction entries
    m = [
        [gr(Fraction(1, 2)), gr(0, 1), gr(3)],
        [gr(1), gr(Fraction(-2, 3)), gr(0)],
        [gr(0, -1), gr(5), gr(Fraction(7, 4))],
    ]
    # expand along the first row by hand
    c0 = gr(Fraction(-2, 3)) * gr(Fraction(7, 4)) - gr(0) * gr(5)
    c1 = gr(1) * gr(Fraction(7, 4)) - gr(0) * gr(0, -1)
    c2 = gr(1) * gr(5) - gr(Fraction(-2, 3)) * gr(0, -1)
    expect = gr(Fraction(1, 2)) * c0 - gr(0, 1) * c1 + gr(3) * c2
    assert exact_determinant(m) == expect


def test_determinant_of_singular_matrix_is_zero():
    m = [[gr(1), gr(2), gr(3)], [gr(2), gr(4), gr(6)], [gr(0), gr(1), gr(1)]]
    assert exact_determinant(m).is_zero()


def test_sylvester_matches_product_formula():
    # Res of (x - a y)(x - b y) style factored forms is the product of
    # cross differences; check on split linear factors
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    p = (x - y * 2) * (x - y * 3)
    q = (x - y * 5) * (x + y)
    expect = gr(1)
    for a in (gr(2), gr(3)):
        for b in (gr(5), gr(-1)):
            expect = expect * (b - a)
    assert sylvester_resultant(p, q) == expect


def test_sylvester_detects_shared_root():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    shared = x - y * gr(3, 1)
    assert sylvester_resultant(shared * (x + y), shared * (x - y)).is_zero()


def test_macaulay_agrees_with_sylvester_on_binary_pairs():
    rng = random.Random(42)
    for _ in range(30):
        dp = rng.randint(1, 4)
        dq = rng.randint(1, 4)
        p = random_binary(rng, dp, force_top=True)
        q = random_binary(rng, dq, force_top=True)
        syl = sylvester_resultant(p, q)
        mac = macaulay_resultant(MacaulaySystem([p, q]))
        assert mac == syl


def test_macaulay_fermat_normalization():
    # Res(a1 x1^d1, ..., am xm^dm) = prod ai^(prod of the other degrees)
    x = [MultiPoly.variable(3, i) for i in range(3)]
    a = [gr(2, 1), gr(-3), gr(1, -1)]
    degs = [2, 3, 2]
    forms = [x[i] ** degs[i] * a[i] for i in range(3)]
    res = macaulay_resultant(MacaulaySystem(forms))
    expect = gr(1)
    for i in range(3):
        e = 1
        for j in range(3):
            if j != i:
                e *= degs[j]
        expect = expect * a[i] ** e
    assert res == expect


def test_macaulay_per_argument_homogeneity():
    rng = random.Random(7)
    x = [MultiPoly.variable(3, i) for i in range(3)]

    def random_ternary(deg):
        terms = {}
        for e0 in range(deg + 1):
            for e1 in range(deg + 1 - e0):
                terms[(e0, e1, deg - e0 - e1)] = gr(
                    rng.randint(-5, 5), rng.randint(-5, 5)
                )
        return MultiPoly(3, terms)

    degs = [1, 2, 2]
    forms = [random_ternary(d) for d in degs]
    base = macaulay_resultant(MacaulaySystem(forms))
    assert not base.is_zero()
    for i in range(3):
        c = gr(rng.randint(2, 6), rng.randint(1, 4))
        scaled = list(forms)
        scaled[i] = scaled[i].scale(c)
        res = macaulay_resultant(MacaulaySystem(scaled))
        e = 1
        for j in range(3):
            if j != i:
                e *= degs[j]
        assert res == base * c ** e


def test_macaulay_vanishes_on_shared_projective_zero():
    x = [MultiPoly.variable(3, i) for i in range(3)]
    # all three forms vanish at (1, 1, 1)
    forms = [
        x[0] - x[1],
        (x[1] - x[2]) * (x[0] + x[1] + x[2]),
        (x[0] - x[2]) * (x[0] + x[2] * 2 - x[1] * 3),
    ]
    assert macaulay_resultant(MacaulaySystem(forms)).is_zero()


def test_macaulay_size_guard():
    x = [MultiPoly.variable(3, i) for i in range(3)]
    forms = [xi ** 40 for xi in x]
    with pytest.raises(MatrixTooLargeError):
        macaulay_resultant(MacaulaySystem(forms))


def test_parametric_resultant_interpolates_exactly():
    # forms (x - t y, x - 2 y) with parameter t: Res(x - ay, x - by) = a - b,
    # so the result is t - 2
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    system = ParametricSystem(
        const_part=[x, x - y * 2],
        linear_part=[-y, MultiPoly.zero(2)],
    )
    psi = parametric_resultant(system, degree_bound=1)
    assert psi == UniPoly([gr(-2), gr(1)])


def test_parametric_resultant_shared_factor_system_is_zero():
    # every form is a multiple of the isotropic conic, so the resultant
    # vanishes at all parameter values; the quotient formula degenerates
    # everywhere and the perturbation fallback must still decide it
    q = quadric_form(3)
    x = [MultiPoly.variable(3, i) for i in range(3)]
    system = ParametricSystem(
        const_part=[q * xi for xi in x],
        linear_part=[MultiPoly.zero(3)] * 3,
    )
    psi = parametric_resultant(system, degree_bound=4)
    assert psi.is_zero()


def test_parametric_degree_bound_validation():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    system = ParametricSystem(const_part=[x, y], linear_part=[y, MultiPoly.zero(2)])
    with pytest.raises(ValueError):
        parametric_resultant(system, degree_bound=-1)


# ---------------------------------------------------------------------------
# the lazy-row kernel against plain dense Bareiss
# ---------------------------------------------------------------------------

def dense_bareiss_int(rows):
    """Textbook fraction-free Bareiss determinant: every row below the pivot
    is updated at every step.  The exact oracle for _bareiss_int."""
    rows = [row[:] for row in rows]
    n = len(rows)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for r in range(k + 1, n):
                if rows[r][k] != 0:
                    rows[k], rows[r] = rows[r], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        rowk = rows[k]
        pkk = rowk[k]
        for i in range(k + 1, n):
            rowi = rows[i]
            aik = rowi[k]
            for j in range(k + 1, n):
                rowi[j] = (pkk * rowi[j] - aik * rowk[j]) // prev
            rowi[k] = 0
        prev = pkk
    return sign * rows[n - 1][n - 1]


def dense_bareiss_gaussian(re, im):
    """Textbook Bareiss over the Gaussian integers; the oracle for
    _bareiss_gaussian."""
    re = [row[:] for row in re]
    im = [row[:] for row in im]
    n = len(re)
    if n == 0:
        return 1, 0
    sign = 1
    pr, pi = 1, 0
    for k in range(n - 1):
        if re[k][k] == 0 and im[k][k] == 0:
            for r in range(k + 1, n):
                if re[r][k] != 0 or im[r][k] != 0:
                    re[k], re[r] = re[r], re[k]
                    im[k], im[r] = im[r], im[k]
                    sign = -sign
                    break
            else:
                return 0, 0
        rkr, rki = re[k], im[k]
        qr, qi = rkr[k], rki[k]
        nq = pr * pr + pi * pi
        for i in range(k + 1, n):
            rir, rii = re[i], im[i]
            br, bi = rir[k], rii[k]
            for j in range(k + 1, n):
                ar, ai = rir[j], rii[j]
                cr, ci = rkr[j], rki[j]
                tr = qr * ar - qi * ai - br * cr + bi * ci
                ti = qr * ai + qi * ar - br * ci - bi * cr
                rir[j] = (tr * pr + ti * pi) // nq
                rii[j] = (ti * pr - tr * pi) // nq
            rir[k] = 0
            rii[k] = 0
        pr, pi = qr, qi
    last = n - 1
    return sign * re[last][last], sign * im[last][last]


@st.composite
def integer_matrices(draw, gaussian):
    """Square integer (or re/im pairs of) matrices of size 0-12: dense or
    mostly zero, with forced zero pivots (row swaps) and forced singularity."""
    n = draw(st.integers(0, 12))
    bound = draw(st.sampled_from([3, 40, 2**70]))
    sparsity = draw(st.integers(0, 3))  # keep an entry when its tag >= sparsity
    cells = n * n * (2 if gaussian else 1)
    entries = st.sampled_from([0, 0, 1, -1, 2, 3]) if bound == 3 else st.integers(-bound, bound)
    values = draw(st.lists(entries, min_size=cells, max_size=cells))
    tags = draw(st.lists(st.integers(0, 3), min_size=cells, max_size=cells))
    values = [v if t >= sparsity else 0 for v, t in zip(values, tags)]
    parts = [
        [values[(p * n + i) * n:(p * n + i + 1) * n] for i in range(n)]
        for p in range(2 if gaussian else 1)
    ]
    zero_pivots = draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=3)) if n else []
    for k in zero_pivots:
        for part in parts:
            part[k][k] = 0
    # rows with a zero prefix through their own diagonal stay lazy for the
    # first steps and then force a swap with an already updated row
    for k in zero_pivots:
        for part in parts:
            part[k][:k + 1] = [0] * (k + 1)
    if n >= 2 and draw(st.booleans()):
        # row j becomes c times row i (a Gaussian c for the complex case)
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        cr, ci = draw(st.integers(-3, 3)), draw(st.integers(-3, 3)) if gaussian else 0
        if gaussian:
            re, im = parts
            re[j] = [cr * a - ci * b for a, b in zip(re[i], im[i])]
            im[j] = [cr * b + ci * a for a, b in zip(re[i], im[i])]
        else:
            parts[0][j] = [cr * a for a in parts[0][i]]
    return parts


@settings(max_examples=300, deadline=None)
@given(integer_matrices(gaussian=False))
# row 2 stays lazy through step 1 and is swapped in as pivot at step 2
@example([[[2, 2, 0, 1, 2], [1, 1, 3, 0, 0], [0, -1, 3, 0, 0], [-1, 0, 0, 3, 0], [-1, -1, 0, 0, 0]]])
def test_lazy_bareiss_int_matches_dense_oracle(parts):
    (rows,) = parts
    expect = dense_bareiss_int(rows)
    assert _bareiss_int(copy.deepcopy(rows)) == expect
    # exact_determinant also reorders the columns before the kernel runs
    matrix = IntegerMatrix(copy.deepcopy(rows), None, Fraction(1))
    assert exact_determinant(matrix) == gr(expect)


@settings(max_examples=300, deadline=None)
@given(integer_matrices(gaussian=True))
@example([  # lazy rows swapped in as pivots
    [[3, 0, 0, 0, 2], [3, 0, 0, 0, 0], [0, 0, 0, 0, 1], [1, 0, 0, 0, 0], [0, 3, -1, 0, 3]],
    [[0, 0, 0, 1, 0], [0, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, -2, 0, 0, -2], [-2, 0, 0, -2, 0]],
])
def test_lazy_bareiss_gaussian_matches_dense_oracle(parts):
    re, im = parts
    got = _bareiss_gaussian(copy.deepcopy(re), copy.deepcopy(im))
    assert got == dense_bareiss_gaussian(re, im)


@settings(max_examples=100, deadline=None)
@given(integer_matrices(gaussian=True), st.integers(1, 12))
def test_exact_determinant_of_rational_rows_matches_oracle(parts, denom):
    # dividing row i by denom + i scales the determinant by prod 1 / (denom + i)
    re, im = parts
    n = len(re)
    rows = [
        [gr(Fraction(a, denom + i), Fraction(b, denom + i)) for a, b in zip(re[i], im[i])]
        for i in range(n)
    ]
    dr, di = dense_bareiss_gaussian(re, im)
    scale = Fraction(1)
    for i in range(n):
        scale /= denom + i
    assert exact_determinant(rows) == gr(dr * scale, di * scale)


def _oracle_value(matrix):
    if matrix.im is None:
        return GaussianRational(dense_bareiss_int(matrix.re) * matrix.scale)
    dr, di = dense_bareiss_gaussian(matrix.re, matrix.im)
    return GaussianRational(dr * matrix.scale, di * matrix.scale)


@pytest.mark.parametrize("n, d, gaussian", [
    (2, 3, True), (1, 7, True), (2, 4, True), (2, 3, False), (2, 4, False),
])
def test_every_psi_determinant_matches_dense_oracle(n, d, gaussian, monkeypatch):
    # every numerator and minor matrix e_char_poly builds, fed to the kernel
    # and to the dense oracle side by side
    f = random_tensor(n, d, seed=11, gaussian=gaussian)
    kernel = engine.exact_determinant
    seen = []

    def checked(matrix):
        assert isinstance(matrix, IntegerMatrix)
        expect = _oracle_value(copy.deepcopy(matrix))
        got = kernel(matrix)
        seen.append(len(matrix))
        assert got == expect
        return got

    monkeypatch.setattr(engine, "exact_determinant", checked)
    e_char_poly(f)
    size = MacaulaySystem(
        (build_odd_system if d % 2 else build_even_system)(f).at(0)
    ).size
    assert size in seen


def test_integer_rows_match_the_dense_macaulay_matrix():
    # the rows written from the scaled forms are the dense Macaulay matrix
    # (and its minor) up to the carried scale
    f = random_tensor(2, 3, seed=4)
    system = MacaulaySystem(build_odd_system(f).at(3))
    lay = system.layout
    dense = []
    for owner, mult in lay.rows:
        row = [GaussianRational()] * system.size
        for e, c in system.forms[owner].terms.items():
            row[lay.index[tuple(a + b for a, b in zip(e, mult))]] = c
        dense.append(row)
    minor = [[dense[r][c] for c in lay.reduced] for r in lay.reduced]
    for built, plain in (
        (system.numerator_matrix(), dense),
        (system.denominator_matrix(), minor),
    ):
        im = built.im or [[0] * len(built)] * len(built)
        assert len(built) == len(plain)
        for i, row in enumerate(plain):
            ratio = None
            for j, c in enumerate(row):
                cell = GaussianRational(Fraction(built.re[i][j]), Fraction(im[i][j]))
                if c.is_zero():
                    assert cell.is_zero()
                    continue
                r = c / cell
                assert ratio is None or r == ratio
                ratio = r
        assert exact_determinant(built) == exact_determinant(plain)
