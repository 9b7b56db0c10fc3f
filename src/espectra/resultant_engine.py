"""Exact multipolynomial resultants via Sylvester and Macaulay matrices.

The resultant here is the classical normalized one: it is the integer
polynomial in the coefficients of a square system of homogeneous forms that
vanishes exactly when the system has a nontrivial common zero, normalized so
that the diagonal monomial system (x_1^d1, ..., x_m^dm) has resultant 1.

Two construction paths are provided:

  * sylvester_resultant: two binary forms, determinant of the Sylvester matrix.
  * macaulay_resultant: m forms in m variables, the classical quotient
    det(M) / det(M') at the critical degree D = sum(d_i - 1) + 1.  Column
    monomials divisible by x_i^d_i for at least two indices i index the
    denominator minor M'.  When det(M') vanishes for a specific numeric
    system the quotient is undefined and DenominatorSingularError is raised;
    resultant_value then retries after a determinant-one shear and finally
    falls back to a perturbed quotient.

Integer rows.  Every row of M holds the coefficients of one form, shifted.
MacaulaySystem therefore scales each form once by its common denominator
(and strips its integer content), and writes only its few nonzero terms into
Gaussian-integer rows; M' takes its rows and columns from the same scaled
forms.  The matrix carries the rational product of the row scales, which
exact_determinant multiplies back in at the end.

Lazy-row Bareiss.  Determinants are computed by fraction-free Bareiss
elimination over the integers or the Gaussian integers.  With P_s the pivot
of step s (P_0 = 1), step s takes each row below the pivot from its stage
s-1 value to

    row^(s) = (P_s * row^(s-1) - b * pivot^(s-1)) / P_(s-1),

b being the row's entry in the pivot column.  When b = 0 this is only the
rescaling row^(s) = (P_s / P_(s-1)) * row^(s-1), so such a row is left alone
and its stage a is recorded instead; across the skipped steps the factors
telescope to row^(s-1) = (P_(s-1) / P_a) * row^(a).  The row's next real
update is then

    row^(s) = (P_s * row^(a) - b_a * pivot^(s-1)) / P_a,

and a lazy row that becomes the pivot row (or the last row) is first
brought to its due stage by multiplying by P_(s-1) and dividing by P_a.
Both divisions are exact, because the results are the ordinary Bareiss
entries, which are minors of the integer matrix.  So the determinant is the
same integer, while a sparse Macaulay row is touched only at steps where
its pivot-column entry is nonzero.  exact_determinant first permutes rows
and columns alike so that the sparsest columns come first; a symmetric
permutation changes neither the determinant nor the diagonal, and it keeps
rows lazy for longer (about 3x fewer cell updates at a 56x56 Macaulay
matrix, 5x at 210x210).

parametric_resultant handles systems whose entries are degree <= 1 in an
external parameter: it evaluates the Macaulay quotient at small exact sample
points 0, 1, -1, 2, -2, ... and interpolates.  A system marked even (the
odd-d eigen-system, where psi(lam) = g(lam^2)) is sampled at lam = 0..N only
and g is interpolated at the nodes k^2, which halves the determinants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import comb, gcd, lcm
from operator import itemgetter
from typing import Sequence

from .poly_core import (
    ZERO,
    ONE,
    GaussianRational,
    MultiPoly,
    UniPoly,
    as_scalar,
    binary_coeffs,
)


class ResultantError(RuntimeError):
    pass


class DenominatorSingularError(ResultantError):
    """det(M') = 0 for this specific system; the quotient formula fails here."""


class MatrixTooLargeError(ResultantError):
    """Guardrail against Macaulay matrices beyond desk scale."""


MAX_MACAULAY_SIZE = 3000


# ---------------------------------------------------------------------------
# exact determinants
# ---------------------------------------------------------------------------

@dataclass
class IntegerMatrix:
    """A square matrix held as scale * (re + i * im) with integer rows.

    im is None for a real matrix.  exact_determinant may eliminate the rows
    in place, so one matrix serves one determinant.
    """

    re: list[list[int]]
    im: list[list[int]] | None
    scale: Fraction

    def __len__(self) -> int:
        return len(self.re)

    @staticmethod
    def from_rows(matrix: Sequence[Sequence[GaussianRational]]) -> "IntegerMatrix":
        """Clear each dense row to Gaussian integers without common content."""
        n = len(matrix)
        re_m: list[list[int]] = []
        im_m: list[list[int]] = []
        scale = Fraction(1)
        for row in matrix:
            if len(row) != n:
                raise ValueError("determinant needs a square matrix")
            row_scale, re_row, im_row = _integer_parts(row)
            scale *= row_scale
            re_m.append(re_row)
            im_m.append(im_row)
        return IntegerMatrix(re_m, im_m if any(map(any, im_m)) else None, scale)


def _integer_parts(values: Sequence[GaussianRational]) -> tuple[Fraction, list[int], list[int]]:
    """(scale, re, im) with values = scale * (re + i im), where the integers
    re and im share no common factor."""
    denom = 1
    for c in values:
        denom = lcm(denom, c.re.denominator, c.im.denominator)
    re = [c.re.numerator * (denom // c.re.denominator) for c in values]
    im = [c.im.numerator * (denom // c.im.denominator) for c in values]
    content = gcd(*re, *im) or 1
    if content > 1:
        re = [v // content for v in re]
        im = [v // content for v in im]
    return Fraction(content, denom), re, im


def _bareiss_int(rows: list[list[int]]) -> int:
    """Fraction-free determinant of a square integer matrix (in place).

    Lazy-row Bareiss, see the module docstring: piv[s] is the pivot of step s
    and stage[i] the step whose value row i currently holds.
    """
    n = len(rows)
    if n == 0:
        return 1
    sign = 1
    piv = [1]
    stage = [0] * n
    for k in range(n - 1):
        if rows[k][k] == 0:
            for r in range(k + 1, n):
                if rows[r][k] != 0:
                    rows[k], rows[r] = rows[r], rows[k]
                    stage[k], stage[r] = stage[r], stage[k]
                    sign = -sign
                    break
            else:
                return 0
        rowk = rows[k]
        a = stage[k]
        if a < k:
            up, down = piv[k], piv[a]
            rowk[k:] = [v * up // down for v in rowk[k:]]
        p = rowk[k]
        piv.append(p)
        tail = rowk[k + 1:]
        for i in range(k + 1, n):
            rowi = rows[i]
            b = rowi[k]
            if b:
                down = piv[stage[i]]
                rowi[k + 1:] = [
                    (p * v - b * w) // down for v, w in zip(rowi[k + 1:], tail)
                ]
                stage[i] = k + 1
    last = rows[n - 1][n - 1] * piv[n - 1] // piv[stage[n - 1]]
    return sign * last


def _bareiss_gaussian(re: list[list[int]], im: list[list[int]]) -> tuple[int, int]:
    """Fraction-free determinant over the Gaussian integers (in place).

    Matrices are parallel real/imaginary integer parts.  The same lazy-row
    rule as _bareiss_int; every division is exact by the Bareiss identity,
    which holds in any integral domain.  Dividing by a Gaussian integer D is
    multiplying by conj(D) and dividing by |D|^2, and conj(D) is folded into
    the row's two multipliers before the cells are touched.
    """
    n = len(re)
    if n == 0:
        return 1, 0
    sign = 1
    piv = [(1, 0)]
    stage = [0] * n
    for k in range(n - 1):
        if re[k][k] == 0 and im[k][k] == 0:
            for r in range(k + 1, n):
                if re[r][k] != 0 or im[r][k] != 0:
                    re[k], re[r] = re[r], re[k]
                    im[k], im[r] = im[r], im[k]
                    stage[k], stage[r] = stage[r], stage[k]
                    sign = -sign
                    break
            else:
                return 0, 0
        rkr, rki = re[k], im[k]
        a = stage[k]
        if a < k:
            # scale the lazy pivot row by P_k / P_a
            (ur, ui), nd = _times_conj(piv[k], piv[a])
            xs, ys = rkr[k:], rki[k:]
            rkr[k:] = [(x * ur - y * ui) // nd for x, y in zip(xs, ys)]
            rki[k:] = [(x * ui + y * ur) // nd for x, y in zip(xs, ys)]
        q = (rkr[k], rki[k])
        piv.append(q)
        cs, ds = rkr[k + 1:], rki[k + 1:]
        for i in range(k + 1, n):
            rir, rii = re[i], im[i]
            b = (rir[k], rii[k])
            if b[0] or b[1]:
                # row <- (q * row - b * pivot_row) / P_a
                d = piv[stage[i]]
                (ur, ui), nd = _times_conj(q, d)
                (wr, wi), _ = _times_conj(b, d)
                xs, ys = rir[k + 1:], rii[k + 1:]
                rir[k + 1:] = [
                    (x * ur - y * ui - c * wr + e * wi) // nd
                    for x, y, c, e in zip(xs, ys, cs, ds)
                ]
                rii[k + 1:] = [
                    (x * ui + y * ur - c * wi - e * wr) // nd
                    for x, y, c, e in zip(xs, ys, cs, ds)
                ]
                stage[i] = k + 1
    last = n - 1
    (ur, ui), nd = _times_conj(piv[last], piv[stage[last]])
    x, y = re[last][last], im[last][last]
    dr, di = (x * ur - y * ui) // nd, (x * ui + y * ur) // nd
    return (dr, di) if sign == 1 else (-dr, -di)


def _times_conj(z: tuple[int, int], d: tuple[int, int]) -> tuple[tuple[int, int], int]:
    """z * conj(d) and |d|^2, so that z / d = (z * conj(d)) / |d|^2."""
    (zr, zi), (dr, di) = z, d
    return (zr * dr + zi * di, zi * dr - zr * di), dr * dr + di * di


def exact_determinant(
    matrix: IntegerMatrix | Sequence[Sequence[GaussianRational]],
) -> GaussianRational:
    """Determinant of a square matrix of Gaussian rationals.

    A dense matrix is first cleared to integer rows (IntegerMatrix.from_rows);
    the rational row scale is multiplied back in exactly at the end.
    """
    if not isinstance(matrix, IntegerMatrix):
        matrix = IntegerMatrix.from_rows(matrix)
    re, im = _sparse_columns_first(matrix.re, matrix.im)
    if im is None:
        return GaussianRational(_bareiss_int(re) * matrix.scale)
    dr, di = _bareiss_gaussian(re, im)
    return GaussianRational(dr * matrix.scale, di * matrix.scale)


def _sparse_columns_first(re, im):
    """Permute rows and columns alike, sparsest columns first.

    A symmetric permutation leaves the determinant and the diagonal as they
    are.  Eliminating the sparse columns first leaves most rows with a zero
    in the pivot column for longer, so the lazy-row kernel skips them.
    """
    n = len(re)
    if n < 2:
        return re, im
    if im is None:
        counts = [n - col.count(0) for col in zip(*re)]
    else:
        counts = [
            sum(1 for a, b in zip(cr, ci) if a or b)
            for cr, ci in zip(zip(*re), zip(*im))
        ]
    order = sorted(range(n), key=counts.__getitem__)
    pick = itemgetter(*order)
    re = [list(pick(re[i])) for i in order]
    if im is not None:
        im = [list(pick(im[i])) for i in order]
    return re, im


# ---------------------------------------------------------------------------
# Sylvester resultant of two binary forms
# ---------------------------------------------------------------------------

def sylvester_resultant(p: MultiPoly, q: MultiPoly) -> GaussianRational:
    """Resultant of two nonzero homogeneous binary forms of positive degree."""
    if p.is_zero() or q.is_zero():
        raise ValueError("sylvester_resultant needs nonzero forms")
    pc = binary_coeffs(p)
    qc = binary_coeffs(q)
    m = len(pc) - 1
    k = len(qc) - 1
    if m < 1 or k < 1:
        raise ValueError("sylvester_resultant needs forms of positive degree")
    size = m + k
    rows: list[list[GaussianRational]] = []
    for r in range(k):
        row = [ZERO] * size
        for j, c in enumerate(pc):
            row[r + j] = c
        rows.append(row)
    for r in range(m):
        row = [ZERO] * size
        for j, c in enumerate(qc):
            row[r + j] = c
        rows.append(row)
    return exact_determinant(rows)


# ---------------------------------------------------------------------------
# Macaulay resultant of m forms in m variables
# ---------------------------------------------------------------------------

def _monomials_of_degree(n_vars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of the given total degree, descending lex order."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], remaining: int, pos: int):
        if pos == n_vars - 1:
            out.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + [e], remaining - e, pos + 1)

    rec([], degree, 0)
    return out


@dataclass(frozen=True)
class _MacaulayLayout:
    """Row/column bookkeeping for one (n_vars, degrees) profile."""

    n_vars: int
    degrees: tuple[int, ...]
    crit_degree: int
    monomials: tuple[tuple[int, ...], ...]
    index: dict
    # rows[i] = (form index, multiplier exponent) for column monomial i
    rows: tuple[tuple[int, tuple[int, ...]], ...]
    reduced: tuple[int, ...]
    # reduced_index[c] = position of column c inside the minor M'
    reduced_index: dict


_layout_cache: dict[tuple[int, tuple[int, ...]], _MacaulayLayout] = {}


def _macaulay_layout(n_vars: int, degrees: tuple[int, ...]) -> _MacaulayLayout:
    key = (n_vars, degrees)
    got = _layout_cache.get(key)
    if got is not None:
        return got
    crit = sum(d - 1 for d in degrees) + 1
    size = comb(crit + n_vars - 1, n_vars - 1)
    if size > MAX_MACAULAY_SIZE:
        raise MatrixTooLargeError(
            f"Macaulay matrix would be {size}x{size}; limit is {MAX_MACAULAY_SIZE}"
        )
    monomials = tuple(_monomials_of_degree(n_vars, crit))
    index = {mono: i for i, mono in enumerate(monomials)}
    rows = []
    reduced = []
    for i, mono in enumerate(monomials):
        owner = -1
        count = 0
        for v in range(n_vars):
            if mono[v] >= degrees[v]:
                count += 1
                if owner < 0:
                    owner = v
        # by pigeonhole at the critical degree some exponent reaches d_v
        mult = list(mono)
        mult[owner] -= degrees[owner]
        rows.append((owner, tuple(mult)))
        if count >= 2:
            reduced.append(i)
    layout = _MacaulayLayout(
        n_vars, degrees, crit, monomials, index, tuple(rows), tuple(reduced),
        {c: pos for pos, c in enumerate(reduced)},
    )
    _layout_cache[key] = layout
    return layout


@dataclass
class MacaulaySystem:
    """A square system of homogeneous forms prepared for the Macaulay quotient.

    forms[i] is paired with variable i: the rows owned by forms[i] are the
    column monomials whose i-th exponent reaches degrees[i] first.
    """

    forms: list[MultiPoly]
    degrees: tuple[int, ...] = field(init=False)
    layout: _MacaulayLayout = field(init=False, repr=False)
    _scaled: list = field(init=False, repr=False)

    def __post_init__(self):
        if not self.forms:
            raise ValueError("empty system")
        n_vars = self.forms[0].n_vars
        if len(self.forms) != n_vars:
            raise ValueError(
                f"need exactly {n_vars} forms for {n_vars} variables,"
                f" got {len(self.forms)}"
            )
        degs = []
        for f in self.forms:
            if f.is_zero():
                raise ValueError("zero form in resultant system")
            if f.n_vars != n_vars:
                raise ValueError("mixed variable counts in system")
            if not f.is_homogeneous():
                raise ValueError("resultant system forms must be homogeneous")
            d = f.total_degree()
            if d < 1:
                raise ValueError("resultant system forms must have positive degree")
            degs.append(d)
        self.degrees = tuple(degs)
        self.layout = _macaulay_layout(n_vars, self.degrees)
        # each form once as scale * (Gaussian-integer terms)
        self._scaled = []
        for f in self.forms:
            scale, re, im = _integer_parts(list(f.terms.values()))
            self._scaled.append((scale, list(zip(f.terms, re, im))))

    @property
    def size(self) -> int:
        return len(self.layout.monomials)

    @property
    def crit_degree(self) -> int:
        return self.layout.crit_degree

    @property
    def reduced_columns(self) -> tuple[int, ...]:
        return self.layout.reduced

    def _integer_matrix(self, rows: Sequence[int], column: dict | None) -> IntegerMatrix:
        """The listed rows of M, written straight from the scaled forms; column
        maps M's columns to the result's (None keeps them all)."""
        lay = self.layout
        width = len(rows)
        re_m: list[list[int]] = []
        im_m: list[list[int]] = []
        scale = Fraction(1)
        any_im = False
        for r in rows:
            owner, mult = lay.rows[r]
            form_scale, terms = self._scaled[owner]
            scale *= form_scale
            re_row = [0] * width
            im_row = [0] * width
            for e, vr, vi in terms:
                col = lay.index[tuple(a + b for a, b in zip(e, mult))]
                if column is not None:
                    col = column.get(col)
                    if col is None:
                        continue
                re_row[col] = vr
                if vi:
                    im_row[col] = vi
                    any_im = True
            re_m.append(re_row)
            im_m.append(im_row)
        return IntegerMatrix(re_m, im_m if any_im else None, scale)

    def numerator_matrix(self) -> IntegerMatrix:
        return self._integer_matrix(range(self.size), None)

    def denominator_matrix(self) -> IntegerMatrix:
        return self._integer_matrix(self.layout.reduced, self.layout.reduced_index)


_diagonal_checked: set[tuple[int, tuple[int, ...]]] = set()


def _check_diagonal_normalization(n_vars: int, degrees: tuple[int, ...]) -> None:
    """Macaulay quotient of (x_1^d1, ..., x_m^dm) must be exactly 1.

    This pins the global sign of the construction for a degree profile: the
    quotient det(M)/det(M') equals sigma * Res identically with sigma = +-1
    fixed by the row and column order, and evaluating on the diagonal system
    shows sigma = +1.  Run once per profile as a cheap self-check of the
    layout bookkeeping.
    """
    key = (n_vars, degrees)
    if key in _diagonal_checked:
        return
    diag = []
    for v in range(n_vars):
        exp = [0] * n_vars
        exp[v] = degrees[v]
        diag.append(MultiPoly.monomial(n_vars, tuple(exp)))
    sys = MacaulaySystem(diag)
    num = exact_determinant(sys.numerator_matrix())
    den = exact_determinant(sys.denominator_matrix())
    if den.is_zero() or (num / den) != ONE:
        raise ResultantError(
            f"Macaulay layout self-check failed for profile {degrees}"
        )
    _diagonal_checked.add(key)


def macaulay_resultant(system: MacaulaySystem) -> GaussianRational:
    """Normalized resultant via the classical quotient det(M) / det(M').

    Raises DenominatorSingularError when det(M') = 0 for this specific
    system; resultant_value retries after a shear of the variables.
    """
    _check_diagonal_normalization(system.forms[0].n_vars, system.degrees)
    num = exact_determinant(system.numerator_matrix())
    den = exact_determinant(system.denominator_matrix())
    if den.is_zero():
        raise DenominatorSingularError(
            f"Macaulay denominator minor is singular for profile {system.degrees}"
        )
    return num / den


# ---------------------------------------------------------------------------
# parametric systems and interpolation
# ---------------------------------------------------------------------------

@dataclass
class ParametricSystem:
    """Square system whose forms are affine in one external parameter.

    form_i(lam) = const_part[i] + lam * linear_part[i]; a zero polynomial in
    linear_part marks a parameter-free form.  Every specialization must stay
    homogeneous of fixed degree, which holds when linear_part[i] is zero or
    homogeneous of the same degree as const_part[i].

    even states that the resultant is an even function of lam.  Only a
    builder that proves it may set it (the odd-d eigen-system does);
    parametric_resultant then samples lam >= 0 only.
    """

    const_part: list[MultiPoly]
    linear_part: list[MultiPoly]
    even: bool = False

    def __post_init__(self):
        if len(self.const_part) != len(self.linear_part):
            raise ValueError("mismatched parametric system parts")
        for a, b in zip(self.const_part, self.linear_part):
            if b.is_zero():
                continue
            if a.is_zero():
                continue
            if not (a.is_homogeneous() and b.is_homogeneous()):
                raise ValueError("parametric system parts must be homogeneous")
            if a.total_degree() != b.total_degree():
                raise ValueError(
                    "constant and parameter parts must share a degree"
                )

    @property
    def n_vars(self) -> int:
        return self.const_part[0].n_vars

    def at(self, lam) -> list[MultiPoly]:
        lam = as_scalar(lam)
        return [
            a + b.scale(lam) if not b.is_zero() else a
            for a, b in zip(self.const_part, self.linear_part)
        ]


def _perturbed_quotient_value(forms: list[MultiPoly]) -> GaussianRational:
    """Resultant value of a system whose Macaulay quotient degenerates.

    Perturbs form i by t * x_i^{d_i} and interpolates det(M)(t) and
    det(M')(t) exactly.  Their ratio is the resultant of the perturbed
    system, a polynomial in t, so the value at t = 0 is zero when the
    numerator valuation exceeds the denominator valuation and the ratio of
    the lowest coefficients otherwise.  Both determinants carry a unit
    leading coefficient in t (each row owns a distinct diagonal column),
    hence neither vanishes identically.
    """
    m = forms[0].n_vars
    degs = [f.total_degree() for f in forms]

    def diag_term(i: int, tval: int) -> MultiPoly:
        exp = tuple(degs[i] if j == i else 0 for j in range(m))
        return MultiPoly.monomial(m, exp, tval)

    n_size = MacaulaySystem(forms).size
    nodes: list[int] = []
    num_vals: list[GaussianRational] = []
    den_vals: list[GaussianRational] = []
    for tval in range(1, n_size + 2):
        moved = MacaulaySystem([forms[i] + diag_term(i, tval) for i in range(m)])
        nodes.append(tval)
        num_vals.append(exact_determinant(moved.numerator_matrix()))
        den_vals.append(exact_determinant(moved.denominator_matrix()))
    num = UniPoly.interpolate(nodes, num_vals)
    den = UniPoly.interpolate(nodes, den_vals)
    vn = _valuation(num)
    vd = _valuation(den)
    if vn is None or (vd is not None and vn > vd):
        return ZERO
    if vd is None or vn < vd:
        raise ResultantError(
            "perturbed Macaulay quotient is not polynomial; system outside"
            " the supported profile"
        )
    return num.coeff(vn) / den.coeff(vd)


def _valuation(p: UniPoly) -> int | None:
    for k in range(p.degree + 1):
        if p.coeff(k):
            return k
    return None


def _unimodular_shears(m: int) -> list[list[list[int]]]:
    """Three determinant-one integer matrices used to dodge singular minors."""
    ident = [[int(i == j) for j in range(m)] for i in range(m)]
    upper = [row[:] for row in ident]
    lower = [row[:] for row in ident]
    for i in range(m - 1):
        upper[i][i + 1] = 1
        lower[i + 1][i] = 1
    both = [
        [sum(upper[i][k] * lower[k][j] for k in range(m)) for j in range(m)]
        for i in range(m)
    ]
    return [upper, lower, both]


def resultant_value(forms: list[MultiPoly]) -> GaussianRational:
    """Exact resultant of a square system of nonzero forms.

    The Macaulay quotient can degenerate (det(M') = 0) even though the
    resultant value is perfectly well defined.  A determinant-one change of
    variables leaves that value fixed and usually moves the denominator
    minor off its zero locus, so the quotient is retried after each shear.
    A degeneration that survives every shear is structural (for instance
    all forms share a factor), and the perturbed quotient, which always
    produces the exact value, decides it.
    """
    shears = _unimodular_shears(forms[0].n_vars)
    for moved in chain(
        [forms], ([f.substitute_linear(mat) for f in forms] for mat in shears)
    ):
        try:
            return macaulay_resultant(MacaulaySystem(moved))
        except DenominatorSingularError:
            continue
    return _perturbed_quotient_value(forms)


def _full_nodes(count: int) -> list[int]:
    """The first count of the sample points 0, 1, -1, 2, -2, ..."""
    return [(k + 1) // 2 * (1 if k % 2 else -1) for k in range(count)]


def parametric_resultant(system: ParametricSystem, degree_bound: int) -> UniPoly:
    """Resultant of a parameter-affine system as an exact UniPoly.

    Evaluates the resultant exactly at degree_bound + 1 integer sample
    points 0, 1, -1, 2, -2, ... and interpolates.  For a system marked even,
    psi(lam) = g(lam^2) with deg g <= degree_bound // 2: it evaluates at
    lam = 0, 1, ..., degree_bound // 2, interpolates g at the nodes lam^2
    and expands, which gives the same polynomial from half the samples.
    """
    if degree_bound < 0:
        raise ValueError("degree_bound must be nonnegative")

    def eval_at(lam: int) -> GaussianRational:
        forms = system.at(lam)
        if any(f.is_zero() for f in forms):
            # a form vanished identically at this sample, so every point is
            # a common zero and the resultant value is 0
            return ZERO
        return resultant_value(forms)

    if not system.even:
        nodes = _full_nodes(degree_bound + 1)
        return UniPoly.interpolate(nodes, [eval_at(lam) for lam in nodes])
    lams = range(degree_bound // 2 + 1)
    g = UniPoly.interpolate([lam * lam for lam in lams], [eval_at(lam) for lam in lams])
    coeffs = [ZERO] * (2 * len(g.coeffs))
    coeffs[::2] = g.coeffs
    return UniPoly(coeffs)
