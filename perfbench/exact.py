"""Exact arithmetic of the benchmark's own, independent of cliffbundle.

The benchmark picks base points and checks outputs with this module, so a
bug in the program's polynomial or scalar layers cannot make a check agree
with it.  A polynomial is a dict ``{(i, j, k): c}`` over u, v, w.  Over Q
the coefficients are ``Fraction``; over F_p (``p`` an odd prime) they are
ints in ``[0, p)``.  ``p`` is ``None`` for Q throughout.
"""

from __future__ import annotations

import re
from fractions import Fraction

VARIABLES = ("u", "v", "w")
_TERM = re.compile(r"\s*([+-]?)\s*([^+\-]+)")


def scalar(num: int, den: int, p):
    if p is None:
        return Fraction(num, den)
    return num * pow(den, -1, p) % p


def normalize(c, p):
    return c if p is None else c % p


def parse(text: str, p) -> dict:
    """Parse the CLI polynomial grammar (as printed by the program)."""
    out = {}
    for sign, body in _TERM.findall(text):
        coeff = scalar(1, 1, p)
        exps = [0, 0, 0]
        for factor in body.strip().split("*"):
            if factor[0].isdigit():
                num, _, den = factor.partition("/")
                coeff = coeff * scalar(int(num), int(den or 1), p)
            else:
                name, _, power = factor.partition("^")
                exps[VARIABLES.index(name)] += int(power or 1)
        if sign == "-":
            coeff = -coeff
        add_term(out, tuple(exps), coeff, p)
    return out


def add_term(f: dict, e, c, p) -> None:
    s = normalize(f.get(e, 0) + c, p)
    if s:
        f[e] = s
    else:
        f.pop(e, None)


def add(f: dict, g: dict, p) -> dict:
    out = dict(f)
    for e, c in g.items():
        add_term(out, e, c, p)
    return out


def neg(f: dict, p) -> dict:
    return {e: normalize(-c, p) for e, c in f.items()}


def mul(f: dict, g: dict, p) -> dict:
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            add_term(out, (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2]),
                     c1 * c2, p)
    return out


def evaluate(f: dict, point, p):
    x, y, z = point
    total = 0
    for (i, j, k), c in f.items():
        total += c * x ** i * y ** j * z ** k
    return normalize(total, p)


def upper_to_grid(six):
    """Symmetric 3x3 grid from the upper triangle Q11, Q12, Q13, Q22, Q23, Q33."""
    q11, q12, q13, q22, q23, q33 = six
    return [[q11, q12, q13], [q12, q22, q23], [q13, q23, q33]]


def neg_adjugate3(grid, p):
    """-adj(Q) entrywise, from the cyclic cofactor formula."""
    out = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            a, b = (j + 1) % 3, (j + 2) % 3
            c, d = (i + 1) % 3, (i + 2) % 3
            cof = add(mul(grid[a][c], grid[b][d], p),
                      neg(mul(grid[a][d], grid[b][c], p), p), p)
            out[i][j] = neg(cof, p)
    return out


def det(matrix, p):
    """Determinant of a square scalar matrix by Gaussian elimination."""
    m = [list(row) for row in matrix]
    n = len(m)
    result = scalar(1, 1, p)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return normalize(0, p)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            result = -result
        result = normalize(result * m[c][c], p)
        inv = 1 / m[c][c] if p is None else pow(m[c][c], -1, p)
        for r in range(c + 1, n):
            f = m[r][c] * inv
            if f:
                m[r] = [normalize(x - f * y, p) for x, y in zip(m[r], m[c])]
    return normalize(result, p)


def grid_values(grid, point, p):
    return [[evaluate(f, point, p) for f in row] for row in grid]


def projective_points(p: int):
    """P^2(F_p) with the last nonzero coordinate 1, as int triples."""
    for a in range(p):
        for b in range(p):
            yield (a, b, 1)
    for a in range(p):
        yield (a, 1, 0)
    yield (1, 0, 0)
