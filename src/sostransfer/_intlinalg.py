"""Exact linear algebra on integer lattices.

Every integer elimination here is one unimodular column reduction,
``_column_reduce``: A·U = [H | 0] with U unimodular and H in column echelon
form.  Kernel bases are the last columns of U, a single linear Diophantine
equation is solved from H's one pivot, and an integer combination of
full-column-rank columns is solved pivot by pivot with exact division, so the
solves of a lattice walk never leave the integers.

The one rational elimination is ``_ldl``, which factors the positive-definite
part of an affine quadric as LᵀDL; ``solve_quadratic_lattice`` solves the
quadric's centre from those factors and enumerates its lattice points from
them.  Fractions occur only in that enumeration; nothing uses floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

Vec = tuple[int, ...]


def _column_reduce(rows: Sequence[Sequence[int]], n: int) -> tuple[list[list[int]], list[list[int]], int]:
    """A·U = [H | 0] by unimodular column operations, for A given by rows.

    Returns the rows of A·U, the columns of U and the rank r.  Columns r..n-1
    of A·U are zero, and column j < r has its pivot in a row above which it
    is zero, the pivot rows increasing with j.
    """
    a = [list(r) for r in rows]
    ucols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    col = 0
    for row in a:
        while True:
            nz = [j for j in range(col, n) if row[j] != 0]
            if not nz:
                break
            if len(nz) == 1:
                j = nz[0]
                if j != col:
                    for r in a:
                        r[j], r[col] = r[col], r[j]
                    ucols[j], ucols[col] = ucols[col], ucols[j]
                col += 1
                break
            j0 = min(nz, key=lambda j: abs(row[j]))
            u0 = ucols[j0]
            for j in nz:
                if j != j0:
                    q = row[j] // row[j0]
                    for r in a:
                        r[j] -= q * r[j0]
                    uj = ucols[j]
                    for t in range(n):
                        uj[t] -= q * u0[t]
    return a, ucols, col


def kernel_basis(rows: Sequence[Sequence[int]], n: int) -> list[Vec]:
    """Basis of the saturated integer kernel {x : A x = 0} for A given by rows.

    The basis columns are unimodular-reduction columns, so they span all
    integer points of the rational kernel.
    """
    _, ucols, rank = _column_reduce(rows, n)
    return [tuple(u) for u in ucols[rank:]]


def solve_single_row(row: Sequence[int], target: int) -> Optional[Vec]:
    """One integer solution of <row, x> = target, or None."""
    n = len(row)
    h, ucols, rank = _column_reduce([row], n)
    if rank == 0:
        return tuple([0] * n) if target == 0 else None
    g = h[0][0]  # ± gcd of the row
    if target % g != 0:
        return None
    return tuple(target // g * x for x in ucols[0])


def solve_in_column_span(cols: Sequence[Sequence[int]], v: Sequence[int]) -> Optional[Vec]:
    """Integer y with sum_j y_j * cols[j] = v, for full-column-rank cols.

    With A the matrix whose rows are cols, y·A = v is y·[H | 0] = w for
    w = Uᵀv.  Returns None when w is nonzero past the rank (v is outside the
    rational span) or when a pivot division is not exact (the rational
    solution is not integral; this cannot happen when cols is a
    saturated-kernel basis and v lies in the kernel).
    """
    h, ucols, rank = _column_reduce(cols, len(v))
    w = [sum(map(mul, u, v)) for u in ucols]
    if any(w[rank:]):
        return None
    k = len(cols)
    y = [0] * k
    for j in reversed(range(rank)):
        p = next(i for i in range(k) if h[i][j] != 0)
        q, r = divmod(w[j] - sum(y[i] * h[i][j] for i in range(p + 1, k)), h[p][j])
        if r != 0:
            return None
        y[p] = q
    return tuple(y)


def _ldl(a: list[list[Fraction]]) -> tuple[list[Fraction], list[list[Fraction]]]:
    """A = LᵀDL for positive-definite A: the diagonal of D, and L above its
    unit diagonal (lmat[i][j] for j > i; the stored diagonal is zero)."""
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


def _ldl_solve(d: list[Fraction], lmat: list[list[Fraction]], b: Sequence[Fraction]) -> list[Fraction]:
    """h with A h = b for A = LᵀDL given by its ``_ldl`` factors."""
    k = len(d)
    u: list[Fraction] = []
    for i in range(k):
        u.append(b[i] - sum(lmat[j][i] * u[j] for j in range(i)))
    h = [ui / di for ui, di in zip(u, d)]
    for i in reversed(range(k)):
        h[i] -= sum(lmat[i][j] * h[j] for j in range(i + 1, k))
    return h


def enumerate_quadric_points(
    d: list[Fraction],
    lmat: list[list[Fraction]],
    center: list[Fraction],
    radius: Fraction,
) -> list[Vec]:
    """All integer y with (y - center)ᵀ A (y - center) = radius, for
    positive-definite A given by its ``_ldl`` factors."""
    k = len(d)
    if radius < 0:
        return []
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
    d, lmat = _ldl(a_pd)
    h = _ldl_solve(d, lmat, w)
    r = sum(h[i] * w[i] for i in range(k)) - Fraction(square - c0)
    ys = enumerate_quadric_points(d, lmat, h, r)
    out = []
    for y in ys:
        x = tuple(x0[i] + sum(y[j] * bcols[j][i] for j in range(k)) for i in range(n))
        out.append(x)
    out.sort()
    return out


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> Vec:
    return tuple(sum(map(mul, row, v)) for row in a)


def identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
