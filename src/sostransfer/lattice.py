"""Exact geometry of full-dimensional convex lattice polygons.

A ``LatticePolygon`` is full-dimensional by construction: the hull refuses
a point or a segment, so Pick's theorem holds for every polygon and no
count below has a degenerate case.

Everything in this module is integer arithmetic: convex hulls, Minkowski
sums, closed-form lattice-point counts, translate containment as one exact
interval per row (at most ``MAX_SWEEP_ROWS`` rows per scan), the count N_in
of translates of Q inside int P, which scans the rows of at most one box,
and the terminal tests (Lawrence prism, twice a unimodular triangle) as
lattice invariants.  Every comparison is exact.

Counts of a Minkowski sum never need the sum itself: twice the area of
P + Q is twice the areas of P and Q plus twice their mixed area, its
boundary count is the sum of theirs, and Pick's theorem turns the two into
``minkowski_lattice_point_count``.  The toric transfer criterion reads the
total h of the component counts over all translates, and its margin, from
that one count #L(P + Q) and ``inside_translate_count`` (the closed form
and its proof are in ``toric.reduced_component_total``).  The candidate
polygons (``rectangle``, ``wide_prism``, ``veronese_triangle``) are built
once per process, in bounded caches, so the invariants they cache are
computed once too.
"""

from __future__ import annotations

import reprlib
from functools import cached_property, lru_cache
from math import gcd
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence


class LatticeGeometryError(ValueError):
    """Base class for lattice-geometry errors."""


class EmptyPointSetError(LatticeGeometryError):
    """Raised when a hull is requested for an empty point set."""


class DegeneratePolygonError(LatticeGeometryError):
    """Raised when the hull of a point set is a point or a segment."""


class TranslateContainmentError(LatticeGeometryError):
    """Raised when some lattice translate of P fits inside Q.

    The transfer criterion is inapplicable in that situation, which callers
    must distinguish from a negative verdict.
    """


class LatticePoint(NamedTuple):
    """A point of the integer lattice."""

    x: int
    y: int

    def __add__(self, other: "LatticePoint") -> "LatticePoint":
        return LatticePoint(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "LatticePoint") -> "LatticePoint":
        return LatticePoint(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "LatticePoint":
        return LatticePoint(-self.x, -self.y)


def _as_point(p) -> LatticePoint:
    try:
        x, y = p
    except (TypeError, ValueError):
        raise LatticeGeometryError(f"a point must be an integer pair, got {reprlib.repr(p)}") from None
    if isinstance(x, bool) or isinstance(y, bool) or not isinstance(x, int) or not isinstance(y, int):
        raise LatticeGeometryError(f"non-integer coordinates: {reprlib.repr(p)}")
    return LatticePoint(x, y)


def _cross(o: LatticePoint, a: LatticePoint, b: LatticePoint) -> int:
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def _hull_vertices(points: Sequence[LatticePoint]) -> tuple[LatticePoint, ...]:
    """Strictly convex hull in CCW order, starting at the lex-min vertex.

    Collinear points are dropped so the vertex list is canonical.  A hull
    of fewer than three vertices is a point or a segment, and is refused.
    """
    pts = sorted(set(points))
    if not pts:
        raise EmptyPointSetError("empty point set")
    lower: list[LatticePoint] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[LatticePoint] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise DegeneratePolygonError("the vertices span a point or a segment, not a full-dimensional polygon")
    return tuple(hull)


class LatticePolygon:
    """A full-dimensional convex polygon with integer vertices in canonical
    CCW form: at least three vertices, no three on one line."""

    def __init__(self, vertices: Iterable) -> None:
        pts = [_as_point(p) for p in vertices]
        self.vertices: tuple[LatticePoint, ...] = _hull_vertices(pts)

    @classmethod
    def _from_canonical(cls, vertices: tuple[LatticePoint, ...]) -> "LatticePolygon":
        poly = object.__new__(cls)
        poly.vertices = vertices
        return poly

    # -- basic structure ---------------------------------------------------

    @cached_property
    def twice_area(self) -> int:
        v = self.vertices
        n = len(v)
        return sum(v[i].x * v[(i + 1) % n].y - v[(i + 1) % n].x * v[i].y for i in range(n))

    @cached_property
    def edges(self) -> tuple[tuple[LatticePoint, LatticePoint], ...]:
        v = self.vertices
        return tuple(zip(v, v[1:] + v[:1]))

    @cached_property
    def bounding_box(self) -> tuple[int, int, int, int]:
        xs = [p.x for p in self.vertices]
        ys = [p.y for p in self.vertices]
        return (min(xs), min(ys), max(xs), max(ys))

    def __eq__(self, other) -> bool:
        return isinstance(other, LatticePolygon) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        return f"LatticePolygon({list(map(tuple, self.vertices))})"

    # -- rigid motions ------------------------------------------------------

    def translate(self, m) -> "LatticePolygon":
        """P + m for an integer vector m; a float or bool coordinate is
        refused, as in the constructor."""
        m = _as_point(m)
        return LatticePolygon._from_canonical(tuple(p + m for p in self.vertices))

    def reflect(self) -> "LatticePolygon":
        """The polygon -P (point reflection through the origin).

        A half-turn keeps the CCW order, so the negated vertices only rotate
        to start at the new lex-min vertex, the image of the lex-max one.
        It is built once per polygon, with the invariants it caches.
        """
        return self._reflection

    @cached_property
    def _reflection(self) -> "LatticePolygon":
        v = tuple(-p for p in self.vertices)
        i = v.index(min(v))
        return LatticePolygon._from_canonical(v[i:] + v[:i])

    # -- counting ------------------------------------------------------------

    @cached_property
    def boundary_lattice_point_count(self) -> int:
        return sum(gcd(abs(b.x - a.x), abs(b.y - a.y)) for a, b in self.edges)

    @cached_property
    def lattice_point_count(self) -> int:
        """Exact number of lattice points in the closed polygon.

        Pick's theorem, 2A = 2I + B - 2, in closed form: (2A + B)/2 + 1,
        O(edges) whatever the size of the polygon.
        """
        return (self.twice_area + self.boundary_lattice_point_count) // 2 + 1

    @cached_property
    def interior_lattice_point_count(self) -> int:
        return self.lattice_point_count - self.boundary_lattice_point_count

    # -- JSON ----------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"vertices": [[p.x, p.y] for p in self.vertices]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "LatticePolygon":
        """The polygon of ``{"vertices": [[x, y], ...]}``, canonicalized."""
        if not isinstance(data, dict) or "vertices" not in data:
            raise LatticeGeometryError("polygon JSON must have a 'vertices' field")
        verts = data["vertices"]
        if not isinstance(verts, list) or not verts:
            raise LatticeGeometryError("field 'vertices' must be a nonempty list")
        for v in verts:
            if (
                not isinstance(v, (list, tuple))
                or len(v) != 2
                or any(isinstance(c, bool) or not isinstance(c, int) for c in v)
            ):
                raise LatticeGeometryError(f"field 'vertices' must hold integer pairs, got {reprlib.repr(v)}")
        return cls(verts)


# -- public operations -------------------------------------------------------


def _edge_vectors(poly: LatticePolygon) -> list[tuple[int, int]]:
    """Edge vectors in CCW order from the lex-min vertex."""
    return [(b.x - a.x, b.y - a.y) for a, b in poly.edges]


def _turn_key(e: tuple[int, int]) -> int:
    """0 for directions in the half-turn (-90°, 90°], 1 for (90°, 270°].

    From the lex-min vertex the CCW edge directions run from just above
    -90° up to 270°, so each polygon's edge list is sorted by (half, angle)
    and two directions in one half compare by the sign of their cross
    product.
    """
    return 0 if e[0] > 0 or (e[0] == 0 and e[1] > 0) else 1


def minkowski_sum(p: LatticePolygon, q: LatticePolygon) -> LatticePolygon:
    """Minkowski sum P + Q by merging the two CCW edge sequences.

    The sum starts at the sum of the lex-min vertices; its edges are the
    edges of P and Q in angular order, with parallel edges of one direction
    joined, so the vertex list comes out canonical without a hull.
    """
    ep, eq = _edge_vectors(p), _edge_vectors(q)
    edges: list[tuple[int, int]] = []
    i = j = 0
    while i < len(ep) or j < len(eq):
        if j == len(eq):
            e = ep[i]
            i += 1
        elif i == len(ep):
            e = eq[j]
            j += 1
        else:
            a, b = ep[i], eq[j]
            ha, hb = _turn_key(a), _turn_key(b)
            cross = a[0] * b[1] - a[1] * b[0]
            if ha == hb and cross == 0:
                e = (a[0] + b[0], a[1] + b[1])
                i += 1
                j += 1
            elif ha < hb or (ha == hb and cross > 0):
                e = a
                i += 1
            else:
                e = b
                j += 1
        edges.append(e)
    x, y = p.vertices[0].x + q.vertices[0].x, p.vertices[0].y + q.vertices[0].y
    vertices = [LatticePoint(x, y)]
    for dx, dy in edges[:-1]:
        x, y = x + dx, y + dy
        vertices.append(LatticePoint(x, y))
    return LatticePolygon._from_canonical(tuple(vertices))


def minkowski_lattice_point_count(p: LatticePolygon, q: LatticePolygon) -> int:
    """#L(P + Q), without building P + Q.

    Twice the area of P + Q is A2(P) + A2(Q) plus twice the mixed area,
    2 sum_j max_{v in P} (e_j,y v.x - e_j,x v.y) over the edge vectors e_j of
    Q (the support of P in each edge's outward normal, which the edge's
    length already scales).  The edges of P + Q are those of P and Q, parallel
    ones joined, so B(P + Q) = B(P) + B(Q), and Pick's theorem gives
    #L = (A2 + B)/2 + 1.
    """
    mixed = sum(max((b.y - a.y) * v.x - (b.x - a.x) * v.y for v in p.vertices) for a, b in q.edges)
    twice_area = p.twice_area + q.twice_area + 2 * mixed
    return (twice_area + p.boundary_lattice_point_count + q.boundary_lattice_point_count) // 2 + 1


#: Rows that one row scan (``_row_intervals``) visits at most.  The scan is
#: linear in the rows of its box, so a taller box is refused instead of
#: scanned; an empty box costs nothing, whatever its height.
MAX_SWEEP_ROWS = 1_000_000


def contains_lattice_translate(p: LatticePolygon, q: LatticePolygon) -> Optional[LatticePoint]:
    """The least witness m, in (mx, my) order, with P + m contained in Q.

    P + m lies in Q exactly when m lies in the box that the bounding boxes
    allow and n.m >= c - min_v n.v for every inward halfplane n.x >= c of
    Q.  On each row my of the box these bounds leave one exact interval of
    mx; the witness is the least lower end over the rows, ties going to the
    lower row.  Rows ascend and no lower end is below the box's, so the
    first row whose interval starts there holds the witness.
    """
    pxmin, pymin, pxmax, pymax = p.bounding_box
    qxmin, qymin, qxmax, qymax = q.bounding_box
    mx_lo = qxmin - pxmin
    best: Optional[tuple[int, int]] = None
    for my, lo, hi in _row_intervals(q, 0, p.vertices, (mx_lo, qymin - pymin, qxmax - pxmax, qymax - pymax)):
        if lo <= hi and (best is None or lo < best[0]):
            best = (lo, my)
            if lo == mx_lo:
                break
    return None if best is None else LatticePoint(*best)


def _row_intervals(
    bound: LatticePolygon, slack: int, points: Sequence[LatticePoint], box: tuple[int, int, int, int]
) -> Iterator[tuple[int, int, int]]:
    """(my, lo, hi) for each row my of box = (mx_lo, my_lo, mx_hi, my_hi),
    ascending: [lo, hi] holds the mx of the box, if any, for which every
    point w of points satisfies n.(w + m) >= c + slack, for each inward
    halfplane n.x >= c of bound.  That is nx*mx >= c + slack - min_w n.w -
    ny*my, one bound per halfplane on each row.  A horizontal halfplane
    (nx = 0) only bounds my, which the box must already do, so it is
    skipped.  An empty box yields nothing at once; a nonempty box of more
    than ``MAX_SWEEP_ROWS`` rows is refused before any row is scanned.
    """
    mx_lo, my_lo, mx_hi, my_hi = box
    if mx_lo > mx_hi or my_lo > my_hi:
        return
    if my_hi - my_lo >= MAX_SWEEP_ROWS:
        raise LatticeGeometryError(
            f"the translate box spans {my_hi - my_lo + 1} rows, more than the {MAX_SWEEP_ROWS} a row scan may visit"
        )
    planes = _inward_halfplanes(bound)
    bounds = [(nx, ny, c + slack - min(nx * w.x + ny * w.y for w in points)) for nx, ny, c in planes if nx]
    for my in range(my_lo, my_hi + 1):
        lo, hi = mx_lo, mx_hi
        for nx, ny, r in bounds:
            r -= ny * my  # the bound reads nx * mx >= r on this row
            if nx > 0:
                lo = max(lo, -(-r // nx))
            else:
                hi = min(hi, r // nx)
        yield my, lo, hi


def _inward_halfplanes(q: LatticePolygon) -> tuple[tuple[int, int, int], ...]:
    """(nx, ny, c) triples with interior given by nx*x + ny*y >= c."""
    planes = []
    for a, b in q.edges:
        nx = -(b.y - a.y)
        ny = b.x - a.x
        planes.append((nx, ny, nx * a.x + ny * a.y))
    return tuple(planes)


def inside_translate_count(p: LatticePolygon, q: LatticePolygon) -> int:
    """N_in = #{m : Q + m inside int P}, the lattice translates of Q that lie
    in the interior of P; the toric criterion reads h and its margin from it
    (``toric.reduced_component_total``).

    Requires the transfer hypothesis: no lattice translate of P fits inside
    Q.  The count scans the rows of the box where the translates of Q
    strictly fit inside P's bounding box, one exact interval of mx per row:
    Q + m lies inside int P when n_j.m >= c_j + 1 - min_w n_j.w for every
    inward halfplane n_j.x >= c_j of P.

    Of the two row scans at most one has rows: the containment box has rows
    only when Q is at least as tall as P, and the inside box only when P is
    at least two rows taller than Q.  So a tall pair costs nothing unless
    that one box is tall, and only a box of more than ``MAX_SWEEP_ROWS``
    rows is refused.
    """
    if contains_lattice_translate(p, q) is not None:
        raise TranslateContainmentError("translate containment")
    pxmin, pymin, pxmax, pymax = p.bounding_box
    qxmin, qymin, qxmax, qymax = q.bounding_box
    box = (pxmin - qxmin + 1, pymin - qymin + 1, pxmax - qxmax - 1, pymax - qymax - 1)
    return sum(hi - lo + 1 for _, lo, hi in _row_intervals(p, 1, q.vertices, box) if lo <= hi)


# The candidate shapes ``wide_prism``, ``rectangle`` and ``veronese_triangle``
# are built once per process: the planner asks for the same few hundred at
# every state.  The caches are typed, so a bool argument misses the entry of
# its int and is still refused.


@lru_cache(maxsize=1024, typed=True)
def wide_prism(h1: int, h2: int) -> LatticePolygon:
    """Prism presented with unit lattice height: rows of lengths h1 >= 1 and
    h2 >= 0 (h1 = h2 = 0 would be a segment)."""
    if h1 < 1 or h2 < 0:
        raise LatticeGeometryError("prism heights need h1 >= 1 and h2 >= 0")
    return LatticePolygon([(0, 0), (h1, 0), (0, 1), (h2, 1)])


def is_lawrence_prism(p: LatticePolygon) -> Optional[tuple[int, int]]:
    """Heights (h1, h2), h1 >= h2, if P is equivalent to a Lawrence prism.

    A full-dimensional prism has no interior lattice points and lattice
    width one; the width direction is always normal to an edge, because
    every vertex lies on one of the two supporting lattice lines.  Each
    fiber's height is the lattice length of the segment joining the
    vertices on its line (zero for a single vertex).
    """
    if p.interior_lattice_point_count != 0:
        return None
    for a, b in p.edges:
        dx, dy = b.x - a.x, b.y - a.y
        g = gcd(abs(dx), abs(dy))
        ux, uy = -dy // g, dx // g  # primitive normal of this edge
        values = [ux * v.x + uy * v.y for v in p.vertices]
        base = min(values)
        if max(values) - base != 1:
            continue
        fibers: tuple[list[LatticePoint], list[LatticePoint]] = ([], [])
        for v, value in zip(p.vertices, values):
            fibers[value - base].append(v)
        h_bottom, h_top = (gcd(f[-1].x - f[0].x, f[-1].y - f[0].y) for f in fibers)
        return (h_bottom, h_top) if h_bottom >= h_top else (h_top, h_bottom)
    return None


def is_twice_unit_triangle(p: LatticePolygon) -> bool:
    """Whether P is equivalent to 2Δ: a triangle of twice-area 4 whose edges
    all have lattice length 2, so that it is twice a unimodular triangle."""
    return (
        len(p.vertices) == 3
        and p.twice_area == 4
        and all(gcd(b.x - a.x, b.y - a.y) == 2 for a, b in p.edges)
    )


@lru_cache(maxsize=1024, typed=True)
def rectangle(a: int, b: int) -> LatticePolygon:
    return LatticePolygon([(0, 0), (a, 0), (a, b), (0, b)])


@lru_cache(maxsize=256, typed=True)
def veronese_triangle(d: int) -> LatticePolygon:
    if d < 1:
        raise LatticeGeometryError("degree must be positive")
    return LatticePolygon([(0, 0), (d, 0), (0, d)])
