"""Exact polynomial arithmetic over the Gaussian rationals.

Everything downstream (resultant matrices, characteristic polynomials of the
eigen-system, discriminant-style invariants) is built on three containers:

  * GaussianRational: a + b*sqrt(-1) with a, b arbitrary-precision rationals.
  * MultiPoly: sparse multivariate polynomial, dict keyed by exponent tuples.
    The zero polynomial is the empty dict.  Values are never zero.
  * UniPoly: dense univariate polynomial, list of coefficients by power,
    trailing coefficient nonzero (empty list for the zero polynomial).

SymmetricTensor wraps a homogeneous MultiPoly of degree d in n+1 variables and
is the public handle for "a symmetric tensor", identified with its associated
form.  Homogeneity is validated at construction and violating it is a hard
error, so consumers never need to re-check.

All containers are treated as immutable after construction.  Numeric
evaluation happens in double precision; everything symbolic stays exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence


class NonHomogeneousError(ValueError):
    """Raised when a tensor is built from a non-homogeneous polynomial."""


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v.strip())
    raise TypeError(f"cannot interpret {v!r} as an exact rational")


@dataclass(frozen=True)
class GaussianRational:
    """Exact complex number with rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(re=0, im=0) -> "GaussianRational":
        return GaussianRational(_as_fraction(re), _as_fraction(im))

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_real(self) -> bool:
        return not self.im

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other) -> "GaussianRational":
        other = as_scalar(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other) -> "GaussianRational":
        return self + (-as_scalar(other))

    def __rsub__(self, other) -> "GaussianRational":
        return as_scalar(other) + (-self)

    def __mul__(self, other) -> "GaussianRational":
        other = as_scalar(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Squared modulus, an exact nonnegative rational."""
        return self.re * self.re + self.im * self.im

    def __truediv__(self, other) -> "GaussianRational":
        other = as_scalar(other)
        n = other.abs2()
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        c = other.conjugate()
        return GaussianRational(
            (self.re * c.re - self.im * c.im) / n,
            (self.re * c.im + self.im * c.re) / n,
        )

    def __rtruediv__(self, other) -> "GaussianRational":
        return as_scalar(other) / self

    def __pow__(self, k: int) -> "GaussianRational":
        if k < 0:
            return (ONE / self) ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


ZERO = GaussianRational()
ONE = GaussianRational(Fraction(1))
I = GaussianRational(Fraction(0), Fraction(1))

# Public alias for the exact coefficient type used across the package.
ExactScalar = GaussianRational


def as_scalar(v) -> GaussianRational:
    """Coerce ints, Fractions, strings and 2-tuples to a GaussianRational."""
    if isinstance(v, GaussianRational):
        return v
    if isinstance(v, tuple) and len(v) == 2:
        return GaussianRational(_as_fraction(v[0]), _as_fraction(v[1]))
    return GaussianRational(_as_fraction(v))


def scalar_from_json(entry: Mapping) -> GaussianRational:
    """Read {"re": ..., "im": ...} with exact "p/q" strings or integers."""
    for key in ("re", "im"):
        v = entry.get(key, 0)
        if isinstance(v, float):
            raise ValueError(
                f"coefficient field {key!r} must be an exact string or integer,"
                f" got float {v!r}"
            )
    return GaussianRational(
        _as_fraction(entry.get("re", 0)), _as_fraction(entry.get("im", 0))
    )


def scalar_to_json(s: GaussianRational) -> dict:
    return {"re": str(s.re), "im": str(s.im)}


# ---------------------------------------------------------------------------
# multivariate polynomials
# ---------------------------------------------------------------------------

Exponent = tuple  # tuple[int, ...]


class MultiPoly:
    """Sparse polynomial in `n_vars` variables over the Gaussian rationals.

    Terms are held in a dict mapping exponent tuples to nonzero coefficients.
    Instances are immutable by convention; all operations return new objects.
    """

    __slots__ = ("n_vars", "terms")

    def __init__(self, n_vars: int, terms: Mapping[Exponent, object] | None = None):
        if n_vars < 1:
            raise ValueError("n_vars must be positive")
        clean: dict[Exponent, GaussianRational] = {}
        for exp, c in (terms or {}).items():
            exp = tuple(exp)
            if len(exp) != n_vars or any(e < 0 or not isinstance(e, int) for e in exp):
                raise ValueError(f"bad exponent tuple {exp} for {n_vars} variables")
            c = as_scalar(c)
            if c:
                prev = clean.get(exp)
                clean[exp] = c if prev is None else prev + c
                if not clean[exp]:
                    del clean[exp]
        self.n_vars = n_vars
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(n_vars: int) -> "MultiPoly":
        return MultiPoly(n_vars, {})

    @staticmethod
    def constant(n_vars: int, c) -> "MultiPoly":
        return MultiPoly(n_vars, {(0,) * n_vars: as_scalar(c)})

    @staticmethod
    def variable(n_vars: int, i: int) -> "MultiPoly":
        exp = [0] * n_vars
        exp[i] = 1
        return MultiPoly(n_vars, {tuple(exp): ONE})

    @staticmethod
    def monomial(n_vars: int, exp: Sequence[int], c=1) -> "MultiPoly":
        return MultiPoly(n_vars, {tuple(exp): as_scalar(c)})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Largest term degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    # -- iteration ---------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponent, GaussianRational]]:
        """Terms in graded lexicographic order, highest first (canonical)."""
        return [
            (e, self.terms[e])
            for e in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True)
        ]

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.n_vars != other.n_vars:
            raise ValueError("variable count mismatch")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, ZERO) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        p = MultiPoly.zero(self.n_vars)
        p.terms = out
        return p

    def __neg__(self) -> "MultiPoly":
        p = MultiPoly.zero(self.n_vars)
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def scale(self, s) -> "MultiPoly":
        s = as_scalar(s)
        if not s:
            return MultiPoly.zero(self.n_vars)
        p = MultiPoly.zero(self.n_vars)
        p.terms = {e: c * s for e, c in self.terms.items()}
        return p

    def __mul__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        self._check(other)
        out: dict[Exponent, GaussianRational] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, ZERO) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        p = MultiPoly.zero(self.n_vars)
        p.terms = out
        return p

    def __rmul__(self, other) -> "MultiPoly":
        return self.scale(other)

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = MultiPoly.constant(self.n_vars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.n_vars == other.n_vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n_vars, frozenset(self.terms.items())))

    # -- calculus and evaluation -------------------------------------------

    def diff(self, i: int) -> "MultiPoly":
        """Partial derivative with respect to variable i."""
        out: dict[Exponent, GaussianRational] = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                out[tuple(ne)] = c * e[i]
        p = MultiPoly.zero(self.n_vars)
        p.terms = out
        return p

    def evaluate(self, point: Sequence[complex]) -> complex:
        """Evaluate in double precision at a complex point."""
        if len(point) != self.n_vars:
            raise ValueError("point dimension mismatch")
        pt = [complex(z) for z in point]
        total = 0j
        for e, c in self.terms.items():
            v = complex(c)
            for z, k in zip(pt, e):
                if k:
                    v *= z**k
            total += v
        return total

    def evaluate_exact(self, point: Sequence) -> GaussianRational:
        """Evaluate exactly at a point of Gaussian rationals."""
        if len(point) != self.n_vars:
            raise ValueError("point dimension mismatch")
        pt = [as_scalar(z) for z in point]
        total = ZERO
        for e, c in self.terms.items():
            v = c
            for z, k in zip(pt, e):
                if k:
                    v = v * z**k
            total = total + v
        return total

    def substitute_linear(self, matrix: Sequence[Sequence]) -> "MultiPoly":
        """Compose with a linear change of variables x_i = sum_j M[i][j] y_j.

        `matrix` has one row per current variable; the number of columns sets
        the variable count of the result.
        """
        if len(matrix) != self.n_vars:
            raise ValueError("matrix must have one row per variable")
        m_new = len(matrix[0])
        images = [
            MultiPoly(m_new, {tuple(int(j == k) for k in range(m_new)): as_scalar(row[j])
                              for j in range(m_new)})
            for row in matrix
        ]
        return compose(self, images)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"x{i + 1}" + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(e)
                if k
            )
            bits.append(f"({c})" + ("*" + mono if mono else ""))
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"MultiPoly({self.n_vars}, {self.terms!r})"


def compose(p: MultiPoly, images: Sequence[MultiPoly]) -> MultiPoly:
    """p(images[0], ..., images[m-1]): substitute one polynomial per variable.

    The images share a variable count, which the result takes.  Each image
    power is computed once per call; there is no cache across calls, since
    the cost is in the term products, not in the powers.
    """
    m_new = images[0].n_vars
    cache: list[dict[int, MultiPoly]] = [dict() for _ in images]
    acc = MultiPoly.zero(m_new)
    for e, c in p.terms.items():
        term = MultiPoly.constant(m_new, c)
        for i, k in enumerate(e):
            if k:
                got = cache[i].get(k)
                if got is None:
                    got = cache[i][k] = images[i] ** k
                term = term * got
        acc = acc + term
    return acc


def quadric_form(n_vars: int) -> MultiPoly:
    """The isotropic quadric sum of squares x_1^2 + ... + x_m^2."""
    acc = MultiPoly.zero(n_vars)
    for i in range(n_vars):
        acc = acc + MultiPoly.monomial(
            n_vars, tuple(2 * int(j == i) for j in range(n_vars)), 1
        )
    return acc


# ---------------------------------------------------------------------------
# univariate polynomials
# ---------------------------------------------------------------------------

class UniPoly:
    """Dense univariate polynomial over the Gaussian rationals.

    Coefficients are stored by ascending power with a nonzero trailing entry;
    the zero polynomial is the empty list and has degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [as_scalar(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly()

    @staticmethod
    def constant(c) -> "UniPoly":
        return UniPoly([as_scalar(c)])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, j: int) -> GaussianRational:
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return ZERO

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            [self.coeff(j) + other.coeff(j) for j in range(n)]
        )

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def scale(self, s) -> "UniPoly":
        s = as_scalar(s)
        return UniPoly([c * s for c in self.coeffs])

    def __mul__(self, other) -> "UniPoly":
        if not isinstance(other, UniPoly):
            return self.scale(other)
        if self.is_zero() or other.is_zero():
            return UniPoly.zero()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def eval_exact(self, z) -> GaussianRational:
        z = as_scalar(z)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def eval_complex(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + complex(c)
        return acc

    def derivative(self) -> "UniPoly":
        return UniPoly([c * j for j, c in enumerate(self.coeffs)][1:])

    def complex_coeffs(self) -> list[complex]:
        return [complex(c) for c in self.coeffs]

    def even_part_only(self) -> bool:
        """True when every odd-power coefficient vanishes exactly."""
        return all(not c for j, c in enumerate(self.coeffs) if j % 2 == 1)

    def content(self) -> Fraction:
        """Positive rational gcd of all real and imaginary coefficient parts.

        Dividing by it gives Gaussian-integer coefficients with collective
        gcd 1.  The zero polynomial has content 0.
        """
        num = 0
        den = 1
        for c in self.coeffs:
            for part in (c.re, c.im):
                if part:
                    num = math.gcd(num, abs(part.numerator))
                    den = den * part.denominator // math.gcd(den, part.denominator)
        if num == 0:
            return Fraction(0)
        return Fraction(num, den)

    def primitive_part(self) -> tuple["UniPoly", Fraction]:
        """The polynomial divided by its content, paired with the content.

        The result has Gaussian-integer coefficients with collective gcd 1
        and is unique up to one global sign, which is left as computed.
        """
        c = self.content()
        if not c:
            return UniPoly.zero(), Fraction(0)
        inv = GaussianRational(1 / c)
        return UniPoly([co * inv for co in self.coeffs]), c

    def squarefree_decomposition(self) -> list[tuple["UniPoly", int]]:
        """Split into pairwise-coprime square-free parts by multiplicity.

        Returns (q, m) pairs with self equal, up to its leading coefficient,
        to the product of the q**m, each q monic and square-free, ordered by
        increasing m; multiplicities with no factor are omitted.  Roots of q
        carry multiplicity exactly m in self, which is what downstream
        eigenvector recovery needs: a numeric root finder locates an m-fold
        root only to about eps**(1/m), while the roots of q itself are all
        simple.

        A modular certificate settles the common square-free case first.
        Clear denominators to F in Z[i][x] and map it to F_P[x] by
        i -> sqrt(-1) mod P, for each P in _CERTIFICATE_PRIMES (all
        P = 1 mod 4, so the map is a ring homomorphism onto F_P).  If the
        leading coefficient survives and gcd(F mod P, F' mod P) = 1, self
        is square-free and the answer is [(monic self, 1)].  Proof: were
        g = gcd(F, F') over Q(i) of positive degree, then by Gauss's lemma
        over the UFD Z[i] it can be taken primitive in Z[i][x] with
        F = g h and F' = g k, h and k in Z[i][x].  Reducing, g mod P divides
        both images, and since lc(F) = lc(g) lc(h) does not vanish mod P,
        neither does lc(g), so g mod P keeps its positive degree: the
        modular gcd could not be 1.  When every prime is unlucky, or self
        really has a repeated root, Yun's iteration runs exactly over the
        Gaussian rationals, so the result is the same in every case.
        """
        if self.is_zero():
            raise ValueError("square-free decomposition of the zero polynomial")
        p = self.scale(ONE / self.coeffs[-1])
        if p.degree == 0:
            return []
        if _modular_squarefree(self):
            return [(p, 1)]
        dp = p.derivative()
        g = _uni_gcd(p, dp)
        if g.degree == 0:
            return [(p, 1)]
        w, _ = _uni_divmod(p, g)
        y, _ = _uni_divmod(dp, g)
        z = y - w.derivative()
        out: list[tuple[UniPoly, int]] = []
        m = 1
        while w.degree > 0:
            gm = _uni_gcd(w, z)
            if gm.degree > 0:
                out.append((gm, m))
            w, _ = _uni_divmod(w, gm)
            y, _ = _uni_divmod(z, gm)
            z = y - w.derivative()
            m += 1
        if sum(m * q.degree for q, m in out) != p.degree:
            raise ArithmeticError("square-free decomposition lost degree")
        return out

    @staticmethod
    def interpolate(nodes: Sequence, values: Sequence) -> "UniPoly":
        """Exact Newton interpolation through distinct nodes."""
        if len(nodes) != len(values):
            raise ValueError("node/value length mismatch")
        xs = [as_scalar(x) for x in nodes]
        dd = [as_scalar(v) for v in values]
        k = len(xs)
        # divided differences in place: dd[j] ends as the j-th Newton coefficient
        for level in range(1, k):
            for j in range(k - 1, level - 1, -1):
                denom = xs[j] - xs[j - level]
                if not denom:
                    raise ValueError("interpolation nodes must be distinct")
                dd[j] = (dd[j] - dd[j - 1]) / denom
        # Horner expansion of the Newton form
        poly = UniPoly.constant(dd[-1])
        for j in range(k - 2, -1, -1):
            shift = UniPoly([-xs[j], ONE])
            poly = poly * shift + UniPoly.constant(dd[j])
        return poly

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for j, c in enumerate(self.coeffs):
            if c:
                bits.append(f"({c})" + (f"*t^{j}" if j else ""))
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"UniPoly({[str(c) for c in self.coeffs]})"


# ---------------------------------------------------------------------------
# symmetric tensors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetricTensor:
    """A symmetric tensor of order d on C^(n+1), held as its homogeneous form.

    `poly` has n+1 variables; `d` is the common degree of all terms.  The
    zero tensor is allowed (with an explicit degree) but most downstream
    operations reject it.
    """

    poly: MultiPoly
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("tensor order d must be positive")
        if not self.poly.is_homogeneous():
            raise NonHomogeneousError("tensor form must be homogeneous")
        if not self.poly.is_zero() and self.poly.total_degree() != self.d:
            raise NonHomogeneousError(
                f"form has degree {self.poly.total_degree()}, expected {self.d}"
            )

    @property
    def n(self) -> int:
        """Projective dimension: the form lives on C^(n+1)."""
        return self.poly.n_vars - 1

    @property
    def n_vars(self) -> int:
        return self.poly.n_vars

    def __call__(self, point: Sequence[complex]) -> complex:
        return self.poly.evaluate(point)


def gradient(f: SymmetricTensor) -> list[MultiPoly]:
    """All first partials of the associated form, in variable order."""
    return [f.poly.diff(i) for i in range(f.n_vars)]


def euler_check(f: SymmetricTensor, point: Sequence[complex]) -> float:
    """Residual of the Euler identity <grad f(x), x> = d * f(x) at a point.

    The pairing is the bilinear sum (no conjugation).  Exact zero in exact
    arithmetic; in doubles this is a roundoff-sized sanity number.
    """
    x = [complex(z) for z in point]
    g = sum(f.poly.diff(i).evaluate(x) * x[i] for i in range(f.n_vars))
    return abs(g - f.d * f.poly.evaluate(x))


# conic parametrization used for all rank-3 isotropic-quadric work:
# (s, t) -> (s^2 - t^2, i(s^2 + t^2), 2st) lies on x1^2 + x2^2 + x3^2 = 0
# identically, and covers the whole conic.

def conic_restrict_poly(p: MultiPoly) -> MultiPoly:
    """Restrict a ternary form to the isotropic conic; result is binary in (s, t)."""
    if p.n_vars != 3:
        raise ValueError("conic restriction needs exactly 3 variables")
    s2 = MultiPoly.monomial(2, (2, 0))
    t2 = MultiPoly.monomial(2, (0, 2))
    st = MultiPoly.monomial(2, (1, 1))
    x1 = s2 - t2
    x2 = (s2 + t2).scale(I)
    x3 = st.scale(2)
    return compose(p, [x1, x2, x3])


def restrict_to_conic(f: SymmetricTensor) -> MultiPoly:
    """Binary form f(x(s, t)) of degree 2d on the isotropic conic (n = 2 only)."""
    if f.n != 2:
        raise ValueError("restrict_to_conic requires a ternary form (n = 2)")
    return conic_restrict_poly(f.poly)


# ---------------------------------------------------------------------------
# binary form helpers
# ---------------------------------------------------------------------------

def binary_coeffs(p: MultiPoly) -> list[GaussianRational]:
    """Coefficient list of a homogeneous binary form by second-variable power."""
    if p.n_vars != 2:
        raise ValueError("binary form expected")
    if p.is_zero():
        return []
    if not p.is_homogeneous():
        raise ValueError("binary form must be homogeneous")
    m = p.total_degree()
    out = [ZERO] * (m + 1)
    for (a, b), c in p.terms.items():
        out[b] = c
    return out


def binary_from_coeffs(coeffs: Sequence) -> MultiPoly:
    """Inverse of binary_coeffs: coeffs[j] multiplies x1^(m-j) x2^j."""
    m = len(coeffs) - 1
    return MultiPoly(
        2, {(m - j, j): as_scalar(c) for j, c in enumerate(coeffs)}
    )


def _binary_monomial_content(p: MultiPoly) -> tuple[int, int, MultiPoly]:
    """Split off the largest s^a t^b dividing every term."""
    a = min(e[0] for e in p.terms)
    b = min(e[1] for e in p.terms)
    if a == 0 and b == 0:
        return 0, 0, p
    stripped = MultiPoly(2, {(e[0] - a, e[1] - b): c for e, c in p.terms.items()})
    return a, b, stripped


def _uni_divmod(num: UniPoly, den: UniPoly) -> tuple[UniPoly, UniPoly]:
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    q = [ZERO] * max(0, num.degree - den.degree + 1)
    rem = list(num.coeffs)
    dlead = den.coeffs[-1]
    dn = den.degree
    while len(rem) - 1 >= dn and any(bool(c) for c in rem):
        while rem and not rem[-1]:
            rem.pop()
        if len(rem) - 1 < dn:
            break
        k = len(rem) - 1 - dn
        factor = rem[-1] / dlead
        q[k] = factor
        for j in range(dn + 1):
            rem[k + j] = rem[k + j] - factor * den.coeffs[j]
        rem.pop()
    return UniPoly(q), UniPoly(rem)


# word-size primes P = 1 (mod 4) for the square-free certificate; below
# 2**31, so every residue product is a small int
_CERTIFICATE_PRIMES = (2147483629, 2147483549, 2147483497)


def _sqrt_minus_one(prime: int) -> int:
    """A square root of -1 modulo a prime = 1 (mod 4)."""
    c = 2
    while pow(c, (prime - 1) // 2, prime) != prime - 1:
        c += 1
    return pow(c, (prime - 1) // 4, prime)


def _gcd_degree_mod(a: list[int], b: list[int], prime: int) -> int:
    """Degree of gcd(a, b) in F_prime[x], ascending residue lists."""
    def trim(v: list[int]) -> list[int]:
        while v and v[-1] == 0:
            v.pop()
        return v

    a, b = trim(list(a)), trim(list(b))
    while b:
        inv = pow(b[-1], -1, prime)
        db = len(b) - 1
        while len(a) > db:
            q = a[-1] * inv % prime
            shift = len(a) - 1 - db
            for j in range(db):
                a[shift + j] = (a[shift + j] - q * b[j]) % prime
            a.pop()
            trim(a)
        a, b = b, a
    return len(a) - 1


def _modular_squarefree(f: UniPoly) -> bool:
    """True when a certificate prime proves f square-free.

    False only means that no prime was conclusive; the argument is in
    UniPoly.squarefree_decomposition.
    """
    prim, _ = f.primitive_part()  # Gaussian-integer coefficients
    ints = [(c.re.numerator, c.im.numerator) for c in prim.coeffs]
    for prime in _CERTIFICATE_PRIMES:
        s = _sqrt_minus_one(prime)
        image = [(a + b * s) % prime for a, b in ints]
        if image[-1] == 0:
            continue
        deriv = [j * c % prime for j, c in enumerate(image)][1:]
        if _gcd_degree_mod(image, deriv, prime) == 0:
            return True
    return False


def _uni_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic Euclidean gcd over the Gaussian rationals.

    Each remainder is reduced to its primitive part; the gcd is unchanged
    up to a unit and the coefficient growth stays polynomial even for
    inputs whose integer coefficients run to dozens of digits.
    """
    a, b = p, q
    while not b.is_zero():
        _, r = _uni_divmod(a, b)
        if not r.is_zero():
            r = r.primitive_part()[0]
        a, b = b, r
    if a.is_zero():
        return a
    lead = a.coeffs[-1]
    return a.scale(ONE / lead)


def binary_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Exact gcd of two homogeneous binary forms, monic in the leading term.

    A nontrivial result (positive degree) certifies a common projective root,
    including roots at (1 : 0) and (0 : 1) which are tracked through the
    monomial content.
    """
    if p.is_zero():
        return q
    if q.is_zero():
        return p
    a1, b1, p1 = _binary_monomial_content(p)
    a2, b2, q1 = _binary_monomial_content(q)
    # dehomogenized coefficient lists of p1(1, u), q1(1, u) are exactly the
    # binary coefficient lists; both now have nonzero constant term
    u = _uni_gcd(UniPoly(binary_coeffs(p1)), UniPoly(binary_coeffs(q1)))
    core = binary_from_univariate(u)
    s_part = min(a1, a2)
    t_part = min(b1, b2)
    if s_part or t_part:
        core = core * MultiPoly.monomial(2, (s_part, t_part))
    return core


def binary_from_univariate(u: UniPoly) -> MultiPoly:
    """Rehomogenize a univariate polynomial to a binary form of its degree."""
    if u.is_zero():
        return MultiPoly.zero(2)
    r = u.degree
    return MultiPoly(2, {(r - j, j): c for j, c in enumerate(u.coeffs) if c})


# ---------------------------------------------------------------------------
# tensor JSON interface
# ---------------------------------------------------------------------------

def tensor_from_json(obj: Mapping) -> SymmetricTensor:
    """Parse the tensor JSON object.

    Layout: {"n": 2, "d": 3, "coeffs": [{"exp": [3,0,0], "re": "0", "im": "342"}, ...]}
    with "re"/"im" as exact "p/q" strings or integers.  With the optional
    flag "binary_binomial": true (n must be 1) each entry lists the weight
    a_j of x1^(d-j) x2^j relative to the binomial convention, and storage
    multiplies in the binomial factor C(d, j).
    """
    try:
        n = int(obj["n"])
        d = int(obj["d"])
        entries = obj["coeffs"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed tensor JSON: {exc}") from exc
    binomial = bool(obj.get("binary_binomial", False))
    if binomial and n != 1:
        raise ValueError("binary_binomial requires n = 1")
    n_vars = n + 1
    terms: dict[Exponent, GaussianRational] = {}
    for entry in entries:
        exp = tuple(int(e) for e in entry["exp"])
        if len(exp) != n_vars:
            raise ValueError(f"exponent {exp} does not match n = {n}")
        if sum(exp) != d:
            raise NonHomogeneousError(
                f"exponent {exp} has degree {sum(exp)}, expected {d}"
            )
        c = scalar_from_json(entry)
        if binomial:
            c = c * math.comb(d, exp[1])
        if exp in terms:
            raise ValueError(f"duplicate exponent {exp}")
        if c:
            terms[exp] = c
    return SymmetricTensor(MultiPoly(n_vars, terms), d)


def tensor_to_json(f: SymmetricTensor) -> dict:
    """Serialize a tensor with plain (non-binomial) coefficients."""
    coeffs = [
        {"exp": list(e), **scalar_to_json(c)}
        for e, c in f.poly.sorted_terms()
    ]
    return {"n": f.n, "d": f.d, "coeffs": coeffs}
