"""Exact linear algebra on integer lattices.

Every linear solve here rests on one unimodular column reduction,
``_column_reduce``: A·U = [H | 0] with U unimodular and H in column echelon
form.  Kernel bases are the last columns of U, a single linear Diophantine
equation is solved from H's one pivot, and integer combinations of
full-column-rank columns are solved pivot by pivot with exact division, one
reduction serving every right-hand side.

The quadrics of ``solve_quadratic_lattice`` are one integer matrix each,
factored by a symmetric fraction-free (Bareiss) elimination whose pivots are
leading minors; ``enumerate_quadric_points`` scales the completed squares
once by the lcm of adjacent pivot products and enumerates the lattice
points.  No step leaves the integers.
"""

from __future__ import annotations

import math
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


def solve_in_column_span(cols: Sequence[Sequence[int]], vs: Sequence[Sequence[int]]) -> list[Optional[Vec]]:
    """Integer y with sum_j y_j * cols[j] = v for each v in vs, for
    full-column-rank cols, from one column reduction.

    With A the matrix whose rows are cols, y·A = v is y·[H | 0] = w for
    w = Uᵀv.  The answer for v is None when w is nonzero past the rank (v is
    outside the rational span) or when a pivot division is not exact (the
    rational solution is not integral; this cannot happen when cols is a
    saturated-kernel basis and v lies in the kernel).
    """
    k = len(cols)
    h, ucols, rank = _column_reduce(cols, len(cols[0]))
    pivots = [next(i for i in range(k) if h[i][j] != 0) for j in range(rank)]

    def solve(v: Sequence[int]) -> Optional[Vec]:
        w = [sum(map(mul, u, v)) for u in ucols]
        if any(w[rank:]):
            return None
        y = [0] * k
        for j in reversed(range(rank)):
            p = pivots[j]
            q, r = divmod(w[j] - sum(y[i] * h[i][j] for i in range(p + 1, k)), h[p][j])
            if r != 0:
                return None
            y[p] = q
        return tuple(y)

    return [solve(v) for v in vs]


def enumerate_quadric_points(b: Sequence[Sequence[int]]) -> list[Vec]:
    """All integer y with (y, 1)ᵀ B (y, 1) = 0, for a symmetric integer
    (k+1)×(k+1) matrix B whose leading k×k block is positive definite.

    A symmetric fraction-free (Bareiss) elimination leaves integer rows M
    whose pivots pᵢ = M_ii are the leading minors (p_{-1} = 1).  With
    Sᵢ = pᵢ·yᵢ + Σ_{i<j<k} M_ij·yⱼ + M_ik the quadric is
    Σᵢ Sᵢ²/(p_{i-1}pᵢ) + p_k/p_{k-1}; scaled once by L = lcm(p_{i-1}pᵢ), a
    level is kept iff (L/(p_{i-1}pᵢ))·Sᵢ² ≤ REM, where REM starts at
    -(L/p_{k-1})·p_k and loses each kept level's term, so the range of yᵢ
    is one isqrt.  The recursion (Fincke-Pohst) runs levels k-1 down to 0,
    each level's values ascending.
    """
    k = len(b) - 1
    m = [list(row) for row in b]
    piv = [1]  # piv[i + 1] = p_i
    for i in range(k):
        p, mi = m[i][i], m[i]
        if p <= 0:
            raise ValueError("matrix is not positive definite")
        for r in range(i + 1, k + 1):
            mr, mir = m[r], mi[r]
            for c in range(r, k + 1):  # the upper triangle; division exact
                mr[c] = (p * mr[c] - mir * mi[c]) // piv[-1]
        piv.append(p)
    scale = math.lcm(*(piv[i] * piv[i + 1] for i in range(k)))
    rem0 = -(scale // piv[k]) * m[k][k]
    if rem0 < 0:
        return []
    weight = [scale // (piv[i] * piv[i + 1]) for i in range(k)]
    out: list[Vec] = []
    y = [0] * k

    def recurse(i: int, rem: int) -> None:
        if i < 0:
            if rem == 0:
                out.append(tuple(y))
            return
        # S_i = p_i·y_i + t; |S_i| ≤ isqrt(rem // weight_i)
        row = m[i]
        t = row[k] + sum(row[j] * y[j] for j in range(i + 1, k))
        p, wi = row[i], weight[i]
        bound = math.isqrt(rem // wi)
        for yi in range(-((bound + t) // p), (bound - t) // p + 1):
            si = p * yi + t
            y[i] = yi
            recurse(i - 1, rem - wi * si * si)

    recurse(k - 1, rem0)
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

    One column reduction of the row G.K, (G.K)·U = [g | 0], solves the
    linear condition: G.K is nonzero because K.K > 0, so g = ±gcd(G.K), the
    condition has an integer solution iff g divides kdot, and then the
    solutions are x0 = (kdot / g)·U₀ plus the span of the kernel basis
    U₁, ..., U_{n-1}.
    """
    n = len(kvec)
    gk = mat_vec(gram, kvec)
    h, ucols, _ = _column_reduce([gk], n)
    g = h[0][0]
    if kdot % g != 0:
        return []
    x0 = [kdot // g * x for x in ucols[0]]
    bcols = ucols[1:]
    k = len(bcols)
    gx0 = mat_vec(gram, x0)
    c0 = sum(map(mul, x0, gx0))
    if k == 0:
        return [tuple(x0)] if c0 == square else []
    # pairings read off the rows G.b, one per basis vector
    gb = [mat_vec(gram, b) for b in bcols]
    w = [sum(map(mul, b, gx0)) for b in bcols]
    # x = x0 + B y ; x.G.x = c0 + 2 w.y - y.A.y = square for A = -BᵀGB
    # <=> (y, 1)ᵀ [[A, -w], [-wᵀ, square - c0]] (y, 1) = 0
    quadric = [[-sum(map(mul, bcols[i], gb[j])) for j in range(k)] + [-w[i]] for i in range(k)]
    quadric.append([-wi for wi in w] + [square - c0])
    brows = tuple(zip(*bcols))
    return sorted(
        tuple(a + sum(map(mul, row, y)) for a, row in zip(x0, brows)) for y in enumerate_quadric_points(quadric)
    )


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> Vec:
    return tuple(sum(map(mul, row, v)) for row in a)


def identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
