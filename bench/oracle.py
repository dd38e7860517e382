"""Independent lattice geometry and del Pezzo lattice data for the checkers.

Nothing here imports ``sostransfer``: hulls, lattice counts (Pick's theorem
from a shoelace area and edge gcds), lattice width, flood-fill component
counts and the Picard-lattice data of the catalogued surfaces are rebuilt from
their definitions, so a checker built on this module shares no search code
with the program it checks.
"""

from __future__ import annotations

import itertools
import re
from math import gcd

# -- polygons ------------------------------------------------------------------


def hull(points) -> tuple[tuple[int, int], ...]:
    """Strictly convex hull, counter-clockwise, collinear points dropped."""
    pts = sorted({(int(x), int(y)) for x, y in points})
    if len(pts) <= 2:
        return tuple(pts)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    chain = []
    for seq in (pts, pts[::-1]):
        half = []
        for p in seq:
            while len(half) >= 2 and cross(half[-2], half[-1], p) <= 0:
                half.pop()
            half.append(p)
        chain += half[:-1]
    return tuple(chain)


def twice_area(v) -> int:
    n = len(v)
    return abs(sum(v[i][0] * v[(i + 1) % n][1] - v[(i + 1) % n][0] * v[i][1] for i in range(n)))


def boundary_count(v) -> int:
    n = len(v)
    return sum(gcd(abs(v[(i + 1) % n][0] - v[i][0]), abs(v[(i + 1) % n][1] - v[i][1])) for i in range(n))


def pick_counts(v) -> tuple[int, int]:
    """(all, interior) lattice points of a full-dimensional polygon, by Pick."""
    a2, b = twice_area(v), boundary_count(v)
    interior = (a2 - b + 2) // 2
    return interior + b, interior


def msum(p, q):
    return hull((a[0] + b[0], a[1] + b[1]) for a in p for b in q)


def scale(p, k: int):
    return tuple((k * x, k * y) for x, y in p)


def triangle_degree(v) -> int:
    return max(x + y for x, y in v) - min(x for x, _ in v) - min(y for _, y in v)


def box_sides(v) -> int:
    return max(x for x, _ in v) - min(x for x, _ in v) + max(y for _, y in v) - min(y for _, y in v)


def width_one(v) -> bool:
    """True when some primitive direction gives lattice width exactly 1.

    Edge normals and the short directions are tried; any direction found is
    a witness, so the test is sound however the candidates are chosen.
    """
    dirs = {(1, 0), (0, 1), (1, 1), (1, -1)}
    n = len(v)
    for i in range(n):
        dx, dy = v[(i + 1) % n][0] - v[i][0], v[(i + 1) % n][1] - v[i][1]
        g = gcd(abs(dx), abs(dy))
        dirs.add((-dy // g, dx // g))
    for ux, uy in dirs:
        vals = [ux * x + uy * y for x, y in v]
        if max(vals) - min(vals) == 1:
            return True
    return False


def is_twice_unit_triangle(v) -> bool:
    if len(v) != 3 or twice_area(v) != 4:
        return False
    return all(gcd(abs(v[(i + 1) % 3][0] - v[i][0]), abs(v[(i + 1) % 3][1] - v[i][1])) == 2 for i in range(3))


def _inside(v, x, y) -> bool:
    n = len(v)
    return all(
        (v[(i + 1) % n][0] - v[i][0]) * (y - v[i][1]) - (v[(i + 1) % n][1] - v[i][1]) * (x - v[i][0]) >= 0
        for i in range(n)
    )


def translate_count(p, q) -> int:
    """#(P + (-Q)) ∩ Z², the number of translates a sweep visits."""
    return pick_counts(msum(p, [(-x, -y) for x, y in q]))[0]


def grid_faithful(v) -> bool:
    """Edges only along (1,0), (0,1) and (1,-1): every feature of a set
    difference of two such polygons is at least 1/sqrt(2) wide, so the
    quarter grid represents it."""
    n = len(v)
    for i in range(n):
        dx, dy = v[(i + 1) % n][0] - v[i][0], v[(i + 1) % n][1] - v[i][1]
        if dx != 0 and dy != 0 and dx != -dy:
            return False
    return True


def flood_fill_h(p, q, res: int = 4) -> int:
    """Σ over translates m of (components of P minus (Q+m)) - 1, on a grid.

    Closed polygons are dilated by ``res`` so grid points become lattice
    points; components are 4-connected.  Only for grid-faithful shapes.
    """
    pb = scale(p, res)
    xs = [x for x, _ in pb]
    ys = [y for _, y in pb]
    cells = [(x, y) for x in range(min(xs), max(xs) + 1) for y in range(min(ys), max(ys) + 1) if _inside(pb, x, y)]
    zone = msum(p, [(-x, -y) for x, y in q])
    zx = [x for x, _ in zone]
    zy = [y for _, y in zone]
    total = 0
    for mx in range(min(zx), max(zx) + 1):
        for my in range(min(zy), max(zy) + 1):
            if not _inside(zone, mx, my):
                continue
            qb = scale([(x + mx, y + my) for x, y in q], res)
            left = {c for c in cells if not _inside(qb, *c)}
            comps = 0
            while left:
                comps += 1
                stack = [left.pop()]
                while stack:
                    cx, cy = stack.pop()
                    for nb in ((cx + 1, cy), (cx - 1, cy), (cx, cy + 1), (cx, cy - 1)):
                        if nb in left:
                            left.remove(nb)
                            stack.append(nb)
            total += max(comps, 1) - 1
    return total


# -- del Pezzo surfaces -----------------------------------------------------------

#: The classification table of totally-real del Pezzo surfaces of degree at
#: least 3: (name, degree, real Picard rank, number of real (-1)-curves).
CATALOGUE = (
    ("P2", 9, 1, 0), ("P2(1,0)", 8, 2, 1), ("Q22", 8, 2, 0), ("Q31", 8, 1, 0),
    ("P2(2,0)", 7, 3, 3), ("P2(0,2)", 7, 2, 1), ("P2(3,0)", 6, 4, 6), ("P2(1,2)", 6, 3, 2),
    ("Q31(0,2)", 6, 2, 0), ("Q22(0,2)", 6, 3, 0), ("P2(4,0)", 5, 5, 10), ("P2(2,2)", 5, 4, 4),
    ("P2(0,4)", 5, 3, 2), ("P2(5,0)", 4, 6, 16), ("P2(3,2)", 4, 5, 8), ("P2(1,4)", 4, 4, 4),
    ("Q31(0,4)", 4, 3, 0), ("Q22(0,4)", 4, 4, 0), ("D", 4, 2, 0), ("P2(6,0)", 3, 7, 27),
    ("P2(4,2)", 3, 6, 15), ("P2(2,4)", 3, 5, 7), ("P2(0,6)", 3, 4, 3), ("D(1,0)", 3, 3, 3),
)

#: Certificate kind by the surface's minimal-model family.
CERTIFICATE_KIND = {"D": "modified_2_interval", "D(1,0)": "modified_2_interval",
                    "Q31(0,2)": "modified_1_interval", "Q31(0,4)": "modified_1_interval"}


class Lattice:
    """Picard lattice of a catalogued surface: form, canonical class, involution."""

    def __init__(self, name: str):
        self.name = name
        m = re.fullmatch(r"P2(?:\((\d+),(\d+)\))?", name)
        q = re.fullmatch(r"(Q22|Q31)(?:\(0,(\d+)\))?", name)
        swaps: list[tuple[int, int]] = []
        if m or name in ("D", "D(1,0)"):
            if m:
                a, pairs = int(m.group(1) or 0), int(m.group(2) or 0) // 2
            else:
                a, pairs = (5 if name == "D" else 6), 0
            r = a + 2 * pairs
            self.gram = [[(1 if i == j == 0 else -1 if i == j else 0) for j in range(r + 1)] for i in range(r + 1)]
            self.K = (-3,) + (1,) * r
            swaps = [(1 + a + 2 * i, 2 + a + 2 * i) for i in range(pairs)]
        elif q:
            pairs = int(q.group(2) or 0) // 2
            n = 2 + 2 * pairs
            self.gram = [[0] * n for _ in range(n)]
            self.gram[0][1] = self.gram[1][0] = 1
            for i in range(2, n):
                self.gram[i][i] = -1
            self.K = (-2, -2) + (1,) * (2 * pairs)
            swaps = [(2 + 2 * i, 3 + 2 * i) for i in range(pairs)] + ([(0, 1)] if q.group(1) == "Q31" else [])
        else:
            raise KeyError(name)
        n = len(self.K)
        self.tau = [[int(i == j) for j in range(n)] for i in range(n)]
        for i, j in swaps:
            self.tau[i][i] = self.tau[j][j] = 0
            self.tau[i][j] = self.tau[j][i] = 1
        if name.startswith("D"):
            # de Jonquieres involution: images of H, E1..E5 as columns.
            cols = [[3, -2, -1, -1, -1, -1], [2, -1, -1, -1, -1, -1]]
            for i in range(2, 6):
                cols.append([1, -1] + [-1 if k == i else 0 for k in range(2, 6)])
            for c, col in enumerate(cols):
                for i, x in enumerate(col):
                    self.tau[i][c] = x
        self.rank = n
        self._terms = [(i, j, g) for i, row in enumerate(self.gram) for j, g in enumerate(row) if g]
        self.degree = self.dot(self.K, self.K)

    def dot(self, a, b) -> int:
        return sum(a[i] * g * b[j] for i, j, g in self._terms)

    def minus_k_dot(self, d) -> int:
        return -self.dot(self.K, d)

    def tau_image(self, d) -> tuple[int, ...]:
        return tuple(sum(self.tau[i][j] * d[j] for j in range(self.rank)) for i in range(self.rank))

    def is_real(self, d) -> bool:
        return self.tau_image(d) == tuple(d)

    def chi(self, d) -> int:
        q = self.dot(d, d) - self.dot(d, self.K)
        return 1 + q // 2

    def classes(self, square: int, k_dot: int) -> list[tuple[int, ...]]:
        """All classes C with C.C = square and K.C = k_dot, by a box search.

        On del Pezzo surfaces of degree at least 3 the (-1)-curves and conic
        bundles have hyperplane coefficients 0..3 and exceptional coefficients
        -2..1, so the box holds all of them.
        """
        head = 1 if self.K[0] == -3 else 2
        out = []
        for c in itertools.product(*([range(0, 4)] * head + [range(-2, 2)] * (self.rank - head))):
            if self.dot(self.K, c) == k_dot and self.dot(c, c) == square:
                out.append(c)
        return out


_LATTICES: dict[str, Lattice] = {}


def lattice(name: str) -> Lattice:
    if name not in _LATTICES:
        _LATTICES[name] = Lattice(name)
    return _LATTICES[name]
