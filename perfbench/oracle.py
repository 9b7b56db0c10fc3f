"""Exact resultants computed by the benchmark alone.

The checks need the value of psi_f at a lambda the program never sampled,
and they must not get it from the code they check.  This module rebuilds
the eigen-system from the tensor's coefficients, lays out Macaulay's
matrices and takes their determinants by fraction-free elimination over the
Gaussian integers.  It imports nothing from espectra.

A polynomial is a dict from exponent tuples to Gaussian integers, and a
Gaussian integer is an (re, im) pair of ints.  The eigen-systems follow the
definitions in the E-characteristic polynomial literature:

  even d:  (1/d) grad f - lam ||x||^(d-2) x
  odd d:   x0^2 - ||x||^2,  (1/d) grad f - lam x0^(d-2) x

Each parametric form is multiplied by d to clear the 1/d.  The resultant is
homogeneous of degree prod_{j != i} deg_j in the coefficients of form i, so
that scaling multiplies it by a known power of d.
"""

from __future__ import annotations

from fractions import Fraction


def _add_term(p: dict, e: tuple, c: tuple) -> None:
    old = p.get(e)
    if old is not None:
        c = (old[0] + c[0], old[1] + c[1])
    if c == (0, 0):
        p.pop(e, None)
    else:
        p[e] = c


def _mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, (a, b) in p.items():
        for e2, (c, d) in q.items():
            _add_term(out, tuple(x + y for x, y in zip(e1, e2)), (a * c - b * d, a * d + b * c))
    return out


def _lin(p: dict, q: dict, s: tuple) -> dict:
    """p + s * q for a Gaussian integer s."""
    out = dict(p)
    for e, (c, d) in q.items():
        _add_term(out, e, (s[0] * c - s[1] * d, s[0] * d + s[1] * c))
    return out


def _pow(p: dict, k: int, m: int) -> dict:
    out = {(0,) * m: (1, 0)}
    for _ in range(k):
        out = _mul(out, p)
    return out


def _mono(m: int, exps: dict) -> dict:
    return {tuple(exps.get(i, 0) for i in range(m)): (1, 0)}


def _diff(p: dict, i: int) -> dict:
    out: dict = {}
    for e, (a, b) in p.items():
        if e[i]:
            lowered = e[:i] + (e[i] - 1,) + e[i + 1:]
            _add_term(out, lowered, (a * e[i], b * e[i]))
    return out


def _degree(p: dict) -> int:
    return sum(next(iter(p)))


def gaussian_poly(terms) -> dict:
    """(exponent, re, im) triples with integer parts as an oracle polynomial."""
    out: dict = {}
    for e, re, im in terms:
        re, im = Fraction(re), Fraction(im)
        if re.denominator != 1 or im.denominator != 1:
            raise ValueError("the oracle takes Gaussian-integer coefficients")
        _add_term(out, tuple(e), (int(re), int(im)))
    return out


def eigen_system(f: dict, d: int, lam: int) -> tuple[list[dict], int]:
    """The eigen-system of the form f of degree d at an integer lambda,
    scaled to Gaussian integers; returns the forms and the power of d by
    which the scaling multiplied the resultant."""
    m = len(next(iter(f)))
    s = (-d * lam, 0)
    if d % 2 == 0:
        quad = {}
        for i in range(m):
            _add_term(quad, tuple(2 * (j == i) for j in range(m)), (1, 0))
        q_pow = _pow(quad, (d - 2) // 2, m)
        forms = [_lin(_diff(f, i), _mul(q_pow, _mono(m, {i: 1})), s) for i in range(m)]
        scaled = range(m)
    else:
        lift = {(0,) + e: c for e, c in f.items()}
        norm = _mono(m + 1, {0: 2})
        for i in range(1, m + 1):
            _add_term(norm, tuple(2 * (j == i) for j in range(m + 1)), (-1, 0))
        forms = [norm] + [
            _lin(_diff(lift, i), _mono(m + 1, {0: d - 2, i: 1}), s) for i in range(1, m + 1)
        ]
        scaled = range(1, m + 1)
    degrees = [_degree(p) for p in forms]
    power = 0
    for i in scaled:
        share = 1
        for j, dj in enumerate(degrees):
            if j != i:
                share *= dj
        power += share
    return forms, power


def gradient_system(f: dict) -> list[dict]:
    """grad f, which is d times the system whose resultant is Res(grad f / d)."""
    m = len(next(iter(f)))
    return [_diff(f, i) for i in range(m)]


def substitute(p: dict, mat: list[list[int]]) -> dict:
    """p composed with the change of variables x_i = sum_j mat[i][j] y_j."""
    m = len(mat)
    images = [{tuple(int(j == k) for k in range(m)): (mat[i][j], 0) for j in range(m) if mat[i][j]}
              for i in range(m)]
    powers: dict = {}
    out: dict = {}
    for e, c in p.items():
        term = {(0,) * m: c}
        for i, k in enumerate(e):
            if k:
                if (i, k) not in powers:
                    powers[(i, k)] = _pow(images[i], k, m)
                term = _mul(term, powers[(i, k)])
        for e2, c2 in term.items():
            _add_term(out, e2, c2)
    return out


def _monomials(m: int, degree: int) -> list[tuple]:
    if m == 1:
        return [(degree,)]
    return [(k,) + rest for k in range(degree, -1, -1) for rest in _monomials(m - 1, degree - k)]


def macaulay_matrices(forms: list[dict]) -> tuple[list[list[tuple]], list[int]]:
    """Macaulay's matrix of a square system, and the indices of its minor.

    Row i belongs to column monomial i: it is x^(a - d_v e_v) times form v,
    where v is the first variable whose power in a reaches d_v.  Rows and
    columns in the same order make the diagonal system x_v^(d_v) give the
    identity, so det(M) / det(minor) is the resultant normalised to 1 there.
    The minor keeps the monomials in which two or more such powers occur.
    """
    m = len(forms)
    degrees = [_degree(p) for p in forms]
    crit = sum(dv - 1 for dv in degrees) + 1
    columns = _monomials(m, crit)
    index = {a: k for k, a in enumerate(columns)}
    rows = []
    minor = []
    for k, a in enumerate(columns):
        owners = [v for v in range(m) if a[v] >= degrees[v]]
        v = owners[0]
        shift = a[:v] + (a[v] - degrees[v],) + a[v + 1:]
        row = [(0, 0)] * len(columns)
        for e, c in forms[v].items():
            row[index[tuple(x + y for x, y in zip(e, shift))]] = c
        rows.append(row)
        if len(owners) >= 2:
            minor.append(k)
    return rows, minor


def determinant(rows: list[list[tuple]]) -> tuple[int, int]:
    """Determinant over the Gaussian integers by Bareiss elimination.

    Every division by the previous pivot is exact in any integral domain;
    in Z[i] it is a multiplication by the conjugate and an exact integer
    division by the norm.
    """
    n = len(rows)
    if n == 0:
        return (1, 0)
    re = [[c[0] for c in row] for row in rows]
    im = [[c[1] for c in row] for row in rows]
    sign = 1
    prev_re, prev_im, norm = 1, 0, 1
    for k in range(n - 1):
        if not (re[k][k] or im[k][k]):
            for r in range(k + 1, n):
                if re[r][k] or im[r][k]:
                    re[k], re[r] = re[r], re[k]
                    im[k], im[r] = im[r], im[k]
                    sign = -sign
                    break
            else:
                return (0, 0)
        kre, kim = re[k], im[k]
        pr, pi = kre[k], kim[k]
        for i in range(k + 1, n):
            ire, iim = re[i], im[i]
            cr, ci = ire[k], iim[k]
            for j in range(k + 1, n):
                ar, ai, br, bi = ire[j], iim[j], kre[j], kim[j]
                xr = pr * ar - pi * ai - cr * br + ci * bi
                xi = pr * ai + pi * ar - cr * bi - ci * br
                if norm == 1:
                    ire[j], iim[j] = xr * prev_re + xi * prev_im, xi * prev_re - xr * prev_im
                else:
                    ire[j] = (xr * prev_re + xi * prev_im) // norm
                    iim[j] = (xi * prev_re - xr * prev_im) // norm
            ire[k] = iim[k] = 0
        prev_re, prev_im = pr, pi
        norm = pr * pr + pi * pi
    return (sign * re[n - 1][n - 1], sign * im[n - 1][n - 1])


def minor_is_singular(forms: list[dict]) -> bool:
    rows, minor = macaulay_matrices(forms)
    return determinant([[rows[r][c] for c in minor] for r in minor]) == (0, 0)


def resultant_quotient(forms: list[dict]) -> tuple[tuple[int, int], tuple[int, int]]:
    """(det M, det minor); their quotient is the resultant when the minor is
    regular."""
    rows, minor = macaulay_matrices(forms)
    den = determinant([[rows[r][c] for c in minor] for r in minor])
    if den == (0, 0):
        return (0, 0), den
    return determinant(rows), den
