"""Exact linear algebra on integer lattices.

Every integer elimination here is one unimodular column reduction,
``_column_reduce``: A·U = [H | 0] with U unimodular and H in column echelon
form.  Kernel bases are the last columns of U, a single linear Diophantine
equation is solved from H's one pivot, and an integer combination of
full-column-rank columns is solved pivot by pivot with exact division, so the
solves of a lattice walk never leave the integers.

The one rational elimination is ``_ldl``, which factors the positive-definite
part of an affine quadric as LᵀDL; ``solve_quadratic_lattice`` solves the
quadric's centre from those factors, and ``enumerate_quadric_points`` scales
the factors, centre and radius to integers once and enumerates the lattice
points in integers.  Fractions occur only in the LDL factors and the centre;
nothing uses floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
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
    d: Sequence[Rational],
    lmat: Sequence[Sequence[Rational]],
    center: Sequence[Rational],
    radius: Rational,
) -> list[Vec]:
    """All integer y with (y - center)ᵀ A (y - center) = radius, for
    positive-definite A given by its ``_ldl`` factors.

    The recursion runs on integers (Fincke-Pohst, levels k-1 down to 0, each
    level's values ascending).  With M the lcm of the denominators of the
    centre and of L, and D that of d and the radius, Zⱼ = M·yⱼ - M·centreⱼ
    and Sᵢ = M·Zᵢ + Σⱼ>ᵢ (M·lᵢⱼ)·Zⱼ = M²·(yᵢ - cᵢ); a level is kept iff
    (D·dᵢ)·Sᵢ² ≤ REM, where REM starts at D·M⁴·radius and loses each kept
    level's term, so the range of yᵢ is one isqrt.
    """
    k = len(d)
    if radius < 0:
        return []
    m = math.lcm(*(x.denominator for x in center), *(lmat[i][j].denominator for i in range(k) for j in range(i + 1, k)))
    dd = math.lcm(radius.denominator, *(x.denominator for x in d))
    m2 = m * m
    dm = [dd * x.numerator // x.denominator for x in d]
    mc = [m * x.numerator // x.denominator for x in center]
    ml = [[(j, m * lmat[i][j].numerator // lmat[i][j].denominator) for j in range(i + 1, k)] for i in range(k)]
    out: list[Vec] = []
    y = [0] * k
    z = [0] * k  # Z_j = M·y_j - M·center_j for chosen levels

    def recurse(i: int, rem: int) -> None:
        if i < 0:
            if rem == 0:
                out.append(tuple(y))
            return
        # S_i = M²·y_i + t with t = Σⱼ>ᵢ (M·lᵢⱼ)·Zⱼ - M·(M·cᵢ); |S_i| ≤ isqrt(rem // (D·dᵢ))
        t = sum(mlij * z[j] for j, mlij in ml[i]) - m * mc[i]
        di = dm[i]
        b = math.isqrt(rem // di)
        for yi in range(-((b + t) // m2), (b - t) // m2 + 1):
            si = m2 * yi + t
            y[i] = yi
            z[i] = m * yi - mc[i]
            recurse(i - 1, rem - di * si * si)

    recurse(k - 1, dd * m2 * m2 * radius.numerator // radius.denominator)
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
    gk = mat_vec(gram, kvec)
    x0 = solve_single_row(gk, kdot)
    if x0 is None:
        return []
    bcols = kernel_basis([gk], n)
    k = len(bcols)
    gx0 = mat_vec(gram, x0)
    c0 = sum(map(mul, x0, gx0))
    if k == 0:
        return [tuple(x0)] if c0 == square else []
    # pairings read off the rows G.b, one per basis vector
    gb = [mat_vec(gram, b) for b in bcols]
    a_pd = [[Fraction(-sum(map(mul, bcols[i], gb[j]))) for j in range(k)] for i in range(k)]
    w = [Fraction(sum(map(mul, b, gx0))) for b in bcols]
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
