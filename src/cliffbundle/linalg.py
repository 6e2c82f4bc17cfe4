"""Small exact linear algebra on scalars in two parts: Gaussian elimination
over a scalar domain (``rref``, ``rank``, ``kernel_basis``; first nonzero
pivot), whose one library caller is the 4x4 rank of
``brauer_severi.bs_membership`` besides the test oracles and the
benchmark's own F25plus chain; and ``symmetric_rank`` on plain ints.
A symmetric matrix, of scalars or of polynomials, is stored as its upper
triangle listed row by row; ``symmetric_grid`` builds its rows.
Determinants and minors of polynomial matrices live in ``poly``.
"""

from __future__ import annotations

from math import isqrt
from operator import pos


def rref(m, domain):
    """Reduced row echelon form.  Returns (rref_matrix, pivot_columns)."""
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if a[i][c] != domain.zero:
                pivot = i
                break
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = domain.one / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != domain.zero:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rank(m, domain) -> int:
    if not m:
        return 0
    _, pivots = rref(m, domain)
    return len(pivots)


def symmetric_grid(upper) -> tuple:
    """Rows of the symmetric matrix whose upper triangle, listed row by
    row, is ``upper``; ``PolyMatrix.upper`` reads it back."""
    upper = tuple(upper)
    n = (isqrt(8 * len(upper) + 1) - 1) // 2
    if not n or n * (n + 1) // 2 != len(upper):
        raise ValueError(f"{len(upper)} entries are not the upper triangle "
                         "of a square matrix")
    grid = [[None] * n for _ in range(n)]
    it = iter(upper)
    for i in range(n):
        for j in range(i, n):
            grid[i][j] = grid[j][i] = next(it)
    return tuple(map(tuple, grid))


def symmetric_rank(upper, p: int) -> int:
    """Rank over F_p (over Q for p = 0) of the symmetric 3x3 matrix whose
    upper triangle, row by row, is the six ints ``upper``: the largest
    order of a nonzero principal minor, as for every symmetric matrix."""
    a, d, e, b, f, c = upper
    nonzero = p.__rmod__ if p else pos  # x % p, a C-level call per minor
    if nonzero(a * (b * c - f * f) - d * (d * c - e * f) + e * (d * f - b * e)):
        return 3
    if nonzero(a * b - d * d) or nonzero(a * c - e * e) or nonzero(b * c - f * f):
        return 2
    return 1 if any(map(nonzero, upper)) else 0


def kernel_basis(m, domain):
    """Basis of the right kernel, one vector per free column.

    The basis is the standard one read off the RREF: free column j yields the
    vector with 1 in slot j and the negated pivot-row entries elsewhere, so
    the result is deterministic.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a, pivots = rref(m, domain)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [domain.zero] * cols
        v[fc] = domain.one
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][fc]
        basis.append(v)
    return basis
