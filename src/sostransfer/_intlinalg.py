"""Small exact integer/rational linear algebra helpers.

Kernel bases via unimodular column reduction, linear Diophantine solves,
rational solves against full-column-rank integer matrices, and enumeration
of lattice vectors on an affine quadric whose quadratic part is negative
definite on the relevant hyperplane.  Everything is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

Vec = tuple[int, ...]


def kernel_basis(rows: Sequence[Sequence[int]], n: int) -> list[Vec]:
    """Basis of the saturated integer kernel {x : A x = 0} for A given by rows.

    Computed by unimodular column operations; the basis columns therefore
    span all integer points of the rational kernel.
    """
    a = [list(r) for r in rows]
    ucols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]

    def col_sub(j: int, i: int, q: int) -> None:
        for row in a:
            row[j] -= q * row[i]
        uj, ui = ucols[j], ucols[i]
        for t in range(n):
            uj[t] -= q * ui[t]

    def col_swap(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]
        ucols[i], ucols[j] = ucols[j], ucols[i]

    col = 0
    for r in range(len(a)):
        while True:
            nz = [j for j in range(col, n) if a[r][j] != 0]
            if not nz:
                break
            if len(nz) == 1:
                if nz[0] != col:
                    col_swap(nz[0], col)
                col += 1
                break
            j0 = min(nz, key=lambda j: abs(a[r][j]))
            for j in nz:
                if j != j0:
                    col_sub(j, j0, a[r][j] // a[r][j0])
    return [tuple(ucols[j]) for j in range(col, n)]


def solve_single_row(row: Sequence[int], target: int) -> Optional[Vec]:
    """One integer solution of <row, x> = target, or None."""
    n = len(row)
    # Reduce the row to (g, 0, ..., 0) by the same column-operation machinery.
    a = [list(row)]
    ucols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    while True:
        nz = [j for j in range(n) if a[0][j] != 0]
        if not nz:
            return tuple([0] * n) if target == 0 else None
        if len(nz) == 1:
            g = a[0][nz[0]]
            if target % g != 0:
                return None
            q = target // g
            return tuple(q * ucols[nz[0]][t] for t in range(n))
        j0 = min(nz, key=lambda j: abs(a[0][j]))
        for j in nz:
            if j != j0:
                quo = a[0][j] // a[0][j0]
                a[0][j] -= quo * a[0][j0]
                for t in range(n):
                    ucols[j][t] -= quo * ucols[j0][t]


def solve_in_column_span(cols: Sequence[Sequence[int]], v: Sequence[int]) -> Optional[Vec]:
    """Integer y with sum_j y_j * cols[j] = v, for full-column-rank cols.

    Returns None when v is outside the rational span or the rational solution
    is not integral (cannot happen when cols is a saturated-kernel basis and
    v lies in the kernel).
    """
    n = len(v)
    k = len(cols)
    aug = [[Fraction(cols[j][i]) for j in range(k)] + [Fraction(v[i])] for i in range(n)]
    pivots = []
    row = 0
    for c in range(k):
        pr = next((r for r in range(row, n) if aug[r][c] != 0), None)
        if pr is None:
            continue
        aug[row], aug[pr] = aug[pr], aug[row]
        pv = aug[row][c]
        aug[row] = [x / pv for x in aug[row]]
        for r in range(n):
            if r != row and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        pivots.append(c)
        row += 1
    # consistency
    for r in range(row, n):
        if aug[r][k] != 0:
            return None
    y = [Fraction(0)] * k
    for r, c in enumerate(pivots):
        y[c] = aug[r][k]
    if any(val.denominator != 1 for val in y):
        return None
    return tuple(int(val) for val in y)


def _ldl(a: list[list[Fraction]]) -> tuple[list[Fraction], list[list[Fraction]]]:
    k = len(a)
    m = [row[:] for row in a]
    d = [Fraction(0)] * k
    lmat = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        d[i] = m[i][i]
        if d[i] <= 0:
            raise ValueError("matrix is not positive definite")
        for j in range(i + 1, k):
            lmat[i][j] = m[i][j] / d[i]
        for r in range(i + 1, k):
            for c in range(r, k):
                m[r][c] -= d[i] * lmat[i][r] * lmat[i][c]
                m[c][r] = m[r][c]
    return d, lmat


def enumerate_quadric_points(
    a_pd: list[list[Fraction]],
    center: list[Fraction],
    radius: Fraction,
) -> list[Vec]:
    """All integer y with (y - center)^T A (y - center) = radius, A positive definite."""
    k = len(a_pd)
    if k == 0:
        return [()] if radius == 0 else []
    if radius < 0:
        return []
    d, lmat = _ldl(a_pd)
    out: list[Vec] = []
    z = [Fraction(0)] * k  # z_j = y_j - center_j for chosen levels

    def recurse(i: int, rem: Fraction) -> None:
        if i < 0:
            if rem == 0:
                out.append(tuple(int(center[j] + z[j]) for j in range(k)))
            return
        inner = sum(lmat[i][j] * z[j] for j in range(i + 1, k))
        c_i = center[i] - inner
        # |y_i - c_i| <= sqrt(rem / d_i) < bound + 1 for the exact
        # bound = floor(sqrt(p / r)) = isqrt(p * r) // r, where rem / d_i = p / r;
        # so floor(c_i) - bound <= y_i <= ceil(c_i) + bound, filtered below.
        q = rem / d[i]
        bound = math.isqrt(q.numerator * q.denominator) // q.denominator
        lo = math.floor(c_i) - bound
        hi = math.ceil(c_i) + bound
        for y_i in range(lo, hi + 1):
            zi = y_i - center[i]
            term = d[i] * (zi + inner) ** 2
            if term > rem:
                continue
            z[i] = zi
            recurse(i - 1, rem - term)
        z[i] = Fraction(0)

    recurse(k - 1, radius)
    return out


def solve_quadratic_lattice(
    gram: Sequence[Sequence[int]],
    kvec: Sequence[int],
    square: int,
    kdot: int,
) -> list[Vec]:
    """All x in Z^n with x.G.x = square and x.G.K = kdot.

    Requires the form to be negative definite on the orthogonal complement of
    K, which holds for the Picard lattices in play (signature (1, n-1) with
    K.K > 0); the solution set is then finite.
    """
    n = len(kvec)
    gk = tuple(sum(gram[i][j] * kvec[j] for j in range(n)) for i in range(n))
    x0 = solve_single_row(gk, kdot)
    if x0 is None:
        return []
    bcols = kernel_basis([gk], n)
    k = len(bcols)

    def pair(u: Sequence[int], v: Sequence[int]) -> int:
        return sum(u[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))

    c0 = pair(x0, x0)
    if k == 0:
        return [tuple(x0)] if c0 == square else []
    a_pd = [[Fraction(-pair(bcols[i], bcols[j])) for j in range(k)] for i in range(k)]
    w = [Fraction(pair(bcols[i], x0)) for i in range(k)]
    # x = x0 + B y ; x.G.x = c0 + 2 w.y - y.A.y = square
    # => y.A.y - 2 w.y + (square - c0) = 0 ; complete the square at h = A^{-1} w
    h = _solve_pd(a_pd, w)
    r = sum(h[i] * w[i] for i in range(k)) - Fraction(square - c0)
    ys = enumerate_quadric_points(a_pd, h, r)
    out = []
    for y in ys:
        x = tuple(x0[i] + sum(y[j] * bcols[j][i] for j in range(k)) for i in range(n))
        out.append(x)
    out.sort()
    return out


def _solve_pd(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """Solve A h = b for positive-definite A by Gaussian elimination."""
    k = len(a)
    m = [row[:] + [b[i]] for i, row in enumerate(a)]
    for c in range(k):
        pr = next(r for r in range(c, k) if m[r][c] != 0)
        m[c], m[pr] = m[pr], m[c]
        pv = m[c][c]
        m[c] = [x / pv for x in m[c]]
        for r in range(k):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [m[i][k] for i in range(k)]


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    rows, inner, cols = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(cols)) for i in range(rows)
    )


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> Vec:
    return tuple(sum(a[i][j] * v[j] for j in range(len(v))) for i in range(len(a)))


def identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def rank_of(matrix: Sequence[Sequence[int]]) -> int:
    rows = [[Fraction(x) for x in row] for row in matrix]
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    rank = 0
    for c in range(n_cols):
        pr = next((r for r in range(rank, n_rows) if rows[r][c] != 0), None)
        if pr is None:
            continue
        rows[rank], rows[pr] = rows[pr], rows[rank]
        pv = rows[rank][c]
        rows[rank] = [x / pv for x in rows[rank]]
        for r in range(n_rows):
            if r != rank and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank
