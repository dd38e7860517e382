import itertools
import random

from fractions import Fraction
from math import ceil, floor, isqrt

from conftest import (
    fraction_column_solve,
    fraction_enumerate_quadric_points,
    fraction_ldl,
    fraction_ldl_solve,
    fraction_rank,
    fraction_solve_in_column_span,
    integer_quadric_matrix,
    ldl_product,
)
from sostransfer._intlinalg import (
    enumerate_quadric_points,
    kernel_basis,
    solve_in_column_span,
    solve_quadratic_lattice,
)

P2_GRAM_5 = tuple(
    tuple((1 if i == j == 0 else (-1 if i == j else 0)) for j in range(5)) for i in range(5)
)
P2_K_5 = (-3, 1, 1, 1, 1)
QUADRIC_GRAM = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1))
QUADRIC_K = (-2, -2, 1, 1)


def test_kernel_basis_randomized():
    rng = random.Random(42)
    for _ in range(200):
        r = rng.randint(1, 2)
        n = rng.randint(r + 1, 6)
        rows = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(r)]
        basis = kernel_basis(rows, n)
        for b in basis:
            assert all(sum(row[i] * b[i] for i in range(n)) == 0 for row in rows)
        assert len(basis) == n - fraction_rank(rows)
        for _ in range(4):
            v = tuple(rng.randint(-3, 3) for _ in range(n))
            if basis and all(sum(row[i] * v[i] for i in range(n)) == 0 for row in rows):
                assert solve_in_column_span(basis, [v]) != [None]


def _brute_p2(square, kdot):
    out = set()
    for a in range(-5, 8):
        for bs in itertools.product(range(-5, 6), repeat=4):
            if a * a - sum(t * t for t in bs) == square and -3 * a - sum(bs) == kdot:
                out.add((a,) + bs)
    return out


def _brute_quadric(square, kdot):
    out = set()
    for x in itertools.product(range(-5, 6), repeat=4):
        xx = 2 * x[0] * x[1] - x[2] * x[2] - x[3] * x[3]
        xk = -2 * x[0] - 2 * x[1] - x[2] - x[3]
        if xx == square and xk == kdot:
            out.add(x)
    return out


def test_quadric_enumeration_matches_brute_force():
    for s, kd in ((-1, -1), (0, -2), (-2, 0), (1, -3)):
        assert set(solve_quadratic_lattice(P2_GRAM_5, P2_K_5, s, kd)) == _brute_p2(s, kd)
    for s, kd in ((-1, -1), (0, -2)):
        assert set(solve_quadratic_lattice(QUADRIC_GRAM, QUADRIC_K, s, kd)) == _brute_quadric(s, kd)


def _brute_minimal_quadric(square, kdot):
    out = set()
    for x in itertools.product(range(-6, 7), repeat=2):
        if 2 * x[0] * x[1] == square and -2 * x[0] - 2 * x[1] == kdot:
            out.add(x)
    return out


def test_quadric_enumeration_when_gk_has_a_common_factor():
    # G.K = (-2, -2) on Q22 and Q31 and (-3) on the plane, so a kdot that
    # the gcd does not divide leaves the linear condition unsolvable
    gram, k = ((0, 1), (1, 0)), (-2, -2)
    for s, kd in ((-1, -1), (0, -1), (0, -3), (0, -2), (-1, -2), (0, -4), (2, -4), (-4, -2)):
        assert set(solve_quadratic_lattice(gram, k, s, kd)) == _brute_minimal_quadric(s, kd)
    assert solve_quadratic_lattice(gram, k, -1, -1) == []
    assert solve_quadratic_lattice(gram, k, 0, -1) == []
    assert solve_quadratic_lattice(gram, k, 0, -2) == [(0, 1), (1, 0)]  # the two conic classes
    for s, kd in ((1, -3), (1, -1), (4, -6), (4, -5), (9, -9), (1, 3)):
        assert solve_quadratic_lattice(((1,),), (-3,), s, kd) == [
            (a,) for a in range(-5, 6) if a * a == s and -3 * a == kd
        ]


def test_known_counts():
    assert len(solve_quadratic_lattice(P2_GRAM_5, P2_K_5, -1, -1)) == 10
    assert len(solve_quadratic_lattice(P2_GRAM_5, P2_K_5, 0, -2)) == 5
    assert len(solve_quadratic_lattice(QUADRIC_GRAM, QUADRIC_K, -1, -1)) == 6


def test_quadric_points_on_exact_boundaries():
    # Rational centres, and radii hit exactly by an integer point, against a
    # scan of a box that holds every solution (A - I is diagonally dominant,
    # so A >= I and |y_i - c_i|^2 <= radius).
    rng = random.Random(44)
    for _ in range(60):
        k = rng.randint(1, 3)
        a = [[Fraction(0)] * k for _ in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                a[i][j] = a[j][i] = Fraction(rng.randint(-1, 1), rng.randint(1, 2))
        for i in range(k):
            a[i][i] = 1 + sum(abs(x) for x in a[i]) + rng.randint(0, 1)
        c = [Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(k)]
        y0 = [floor(ci) + rng.randint(-1, 1) for ci in c]
        z0 = [y - ci for y, ci in zip(y0, c)]
        radius = sum(z0[i] * a[i][j] * z0[j] for i in range(k) for j in range(k))
        reach = isqrt(ceil(radius)) + 1
        box = [range(floor(ci) - reach, ceil(ci) + reach + 1) for ci in c]
        brute = set()
        for y in itertools.product(*box):
            z = [yi - ci for yi, ci in zip(y, c)]
            if sum(z[i] * a[i][j] * z[j] for i in range(k) for j in range(k)) == radius:
                brute.add(y)
        got = enumerate_quadric_points(integer_quadric_matrix(a, c, radius))
        assert tuple(y0) in brute
        assert len(got) == len(set(got)) and set(got) == brute
        assert got == fraction_enumerate_quadric_points(*fraction_ldl(a), c, radius)


def _full_rank_columns(rng, n, k):
    while True:
        cols = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(k)]
        if fraction_rank(cols) == k:
            return cols


def test_solve_in_column_span_matches_fraction_oracle():
    # Full-column-rank systems whose right-hand side has an integral
    # solution, only a non-integral one, or (mostly) none at all.
    rng = random.Random(45)
    seen = dict.fromkeys(("integral", "non_integral", "inconsistent"), 0)
    for _ in range(600):
        n = rng.randint(1, 7)
        k = rng.randint(1, n)
        cols = _full_rank_columns(rng, n, k)
        kind = rng.choice(sorted(seen))
        y = [rng.randint(-4, 4) for _ in range(k)]
        if kind == "non_integral":
            # scale column j by s and give it the coefficient c/s, s not dividing c
            j, s = rng.randrange(k), rng.randint(2, 4)
            cols[j] = tuple(s * x for x in cols[j])
            y[j] = Fraction(s * rng.randint(-3, 3) + rng.randint(1, s - 1), s)
        v = tuple(int(sum(y[j] * cols[j][i] for j in range(k))) for i in range(n))
        if kind == "inconsistent":
            v = tuple(rng.randint(-6, 6) for _ in range(n))
        [got] = solve_in_column_span(cols, [v])
        assert got == fraction_solve_in_column_span(cols, v)
        if kind == "integral":
            assert got == tuple(y)
        elif kind == "non_integral":
            assert got is None
        elif fraction_column_solve(cols, v) is not None:
            continue
        seen[kind] += 1
    assert min(seen.values()) > 100


def test_batched_solves_match_fraction_oracle():
    # One call per system, its right-hand sides mixing integral,
    # non-integral and out-of-span solutions, answered in order.  Column 0
    # is scaled by s, so the coefficient c/s (s not dividing c) gives an
    # integer right-hand side whose only solution is not integral.
    rng = random.Random(48)
    seen = dict.fromkeys(("integral", "non_integral", "inconsistent"), 0)
    for _ in range(150):
        n = rng.randint(2, 7)
        k = rng.randint(1, n - 1)
        cols = _full_rank_columns(rng, n, k)
        s = rng.randint(2, 4)
        cols[0] = tuple(s * x for x in cols[0])
        vs = []
        for _ in range(rng.randint(1, 8)):
            y = [Fraction(rng.randint(-4, 4)) for _ in range(k)]
            kind = rng.choice(sorted(seen))
            if kind == "non_integral":
                y[0] = Fraction(s * rng.randint(-3, 3) + rng.randint(1, s - 1), s)
            v = tuple(int(sum(y[j] * cols[j][i] for j in range(k))) for i in range(n))
            if kind == "inconsistent":
                v = tuple(rng.randint(-6, 6) for _ in range(n))
            vs.append(v)
        got = solve_in_column_span(cols, vs)
        assert got == [fraction_solve_in_column_span(cols, v) for v in vs]
        for v, g in zip(vs, got):
            if g is not None:
                seen["integral"] += 1
            elif fraction_column_solve(cols, v) is None:
                seen["inconsistent"] += 1
            else:
                seen["non_integral"] += 1
    assert min(seen.values()) > 100


def test_ldl_centre_solve_matches_fraction_solve():
    # the LDL oracles behind the enumeration tests against Gauss-Jordan
    rng = random.Random(46)
    for _ in range(200):
        k = rng.randint(1, 6)
        m = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        # MᵀM + I is positive definite
        a = [[Fraction(sum(m[t][i] * m[t][j] for t in range(k)) + (i == j)) for j in range(k)] for i in range(k)]
        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(k)]
        assert fraction_ldl_solve(*fraction_ldl(a), b) == fraction_column_solve([[row[j] for row in a] for j in range(k)], b)


def _random_fraction(rng, lo, hi, max_den=60):
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(lo * den, hi * den), den)


def test_integer_enumeration_matches_fraction_recursion():
    # Random LᵀDL factors and centres with denominators up to 60, k <= 7,
    # scaled into one integer matrix for the Bareiss enumeration:
    # radii hit by an integer point (the nearest-plane one), random radii, radius 0 (with integral
    # and with rational centres) and negative radii give the same lists, in
    # the same order, as the Fraction recursion.
    rng = random.Random(47)
    seen = dict.fromkeys(("hits", "random", "zero", "negative"), 0)
    points = 0
    for _ in range(400):
        k = rng.randint(1, 7)
        d = [_random_fraction(rng, 1, 8) for _ in range(k)]
        lmat = [[_random_fraction(rng, -1, 1) if j > i else Fraction(0) for j in range(k)] for i in range(k)]
        center = [_random_fraction(rng, -20, 20) for _ in range(k)]
        kind = rng.choice(sorted(seen))
        if kind == "hits":
            # the nearest-plane point: each level rounded to its own centre
            z = [Fraction(0)] * k
            radius = Fraction(0)
            for i in reversed(range(k)):
                inner = sum(lmat[i][j] * z[j] for j in range(i + 1, k))
                z[i] = round(center[i] - inner) - center[i]
                radius += d[i] * (z[i] + inner) ** 2
        elif kind == "random":
            radius = _random_fraction(rng, 0, 6)
        elif kind == "zero":
            radius = Fraction(0)
            if rng.random() < 0.5:
                center = [Fraction(round(c)) for c in center]
        else:
            radius = _random_fraction(rng, -6, -1)
        got = enumerate_quadric_points(integer_quadric_matrix(ldl_product(d, lmat), center, radius))
        assert got == fraction_enumerate_quadric_points(d, lmat, center, radius)
        assert all(type(x) is int for y in got for x in y)
        points += len(got)
        seen[kind] += 1
    assert min(seen.values()) > 70 and points > 100
