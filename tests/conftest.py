"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd, isqrt, lcm
from operator import mul
from typing import Iterator, Optional, Sequence

import pytest

from sostransfer import delpezzo
from sostransfer._intlinalg import mat_mul, mat_vec, solve_quadratic_lattice
from sostransfer.delpezzo import (
    MAX_WALK_STEPS,
    AmpleStep,
    DelPezzoError,
    DelPezzoTransfer,
    NotConjugationFixedError,
    NotEffectiveError,
    TransferStep,
    certificate_kind,
    chi,
    conic_bundle_classes,
    contract_along,
    interval_kind,
    is_ample,
    is_nef,
    minus_one_curves,
    real_negative_curves,
)
from sostransfer.lattice import (
    DegeneratePolygonError,
    LatticeGeometryError,
    LatticePoint,
    LatticePolygon,
    TranslateContainmentError,
    _cross,
    _inward_halfplanes,
    minkowski_sum,
)
from sostransfer.ruled import build_schedule
from sostransfer.toric import ToricTransferError, TransferVerdict


# -- polygon geometry that only the tests read ---------------------------------


class EmptyDifferenceError(LatticeGeometryError):
    """Raised when ``P \\ Q'`` is empty because ``Q'`` contains ``P``."""


@dataclass(frozen=True)
class ComponentCount:
    """Number of connected components of a set difference, plus the reduced count."""

    components: int
    reduced: int

    def __post_init__(self) -> None:
        if self.components < 0:
            raise LatticeGeometryError("negative component count")
        if self.reduced != max(self.components, 1) - 1:
            raise LatticeGeometryError("reduced count must be max(components,1) - 1")


def scaled(p: LatticePoint, k: int) -> LatticePoint:
    return LatticePoint(p.x * k, p.y * k)


def full_hull(points) -> Optional[LatticePolygon]:
    """The polygon of points, or None when their hull is a point or a
    segment.  A seeded generator skips a None and draws nothing more for it,
    so its corpus keeps the same full-dimensional polygons in the same
    order."""
    try:
        return LatticePolygon(points)
    except DegeneratePolygonError:
        return None


def dilate(poly: LatticePolygon, k: int) -> LatticePolygon:
    """The dilation kP for k >= 1 (0P would be a point).  Scaling keeps the
    vertex list canonical, so no hull is taken."""
    if k < 1:
        raise LatticeGeometryError("dilation factor must be positive")
    return LatticePolygon._from_canonical(tuple(scaled(p, k) for p in poly.vertices))


def standard_prism(h1: int, h2: int) -> LatticePolygon:
    """The prism with vertical fibers of heights h1 and h2 over a unit edge."""
    if h1 < 0 or h2 < 0:
        raise LatticeGeometryError("prism heights must be nonnegative")
    return LatticePolygon([(0, 0), (1, 0), (0, h1), (1, h2)])


def contains_point(poly: LatticePolygon, p) -> bool:
    p = LatticePoint(*p)
    return all(_cross(a, b, p) >= 0 for a, b in poly.edges)


def contains_polygon(poly: LatticePolygon, other: LatticePolygon) -> bool:
    return all(contains_point(poly, p) for p in other.vertices)


def apply_unimodular(poly: LatticePolygon, matrix: Sequence[Sequence[int]], shift=(0, 0)) -> LatticePolygon:
    (a, b), (c, d) = matrix
    if a * d - b * c not in (1, -1):
        raise LatticeGeometryError("matrix is not unimodular")
    sx, sy = shift
    return LatticePolygon([(a * p.x + b * p.y + sx, c * p.x + d * p.y + sy) for p in poly.vertices])


def edge_direction_multiset(poly: LatticePolygon) -> dict[tuple[int, int], int]:
    """Primitive edge directions with total lattice length as multiplicity."""
    out: dict[tuple[int, int], int] = {}
    for a, b in poly.edges:
        dx, dy = b.x - a.x, b.y - a.y
        g = gcd(abs(dx), abs(dy))
        key = (dx // g, dy // g)
        out[key] = out.get(key, 0) + g
    return out


def difference_components(p: LatticePolygon, qp: LatticePolygon) -> ComponentCount:
    """Connected components of the closed set difference P \\ Q'.

    Both polygons closed; a region of P touching the rest only at points
    swallowed by Q' counts as a separate component.  The count equals the
    number of maximal arcs of the boundary of P outside Q' (at least one
    component whenever the difference is nonempty).  While Q' does not
    contain P, Q' covers sum_i ([e_i meets Q'] - [v_i in Q']) arcs of it,
    for the edges e_i = [v_i, v_(i+1)] of P (the proof is in
    ``toric.reduced_component_total``).  The segment e_i misses Q' exactly
    when a separating axis exists: both ends lie strictly outside one inward
    halfplane n.x >= c of Q', or every vertex of Q' lies strictly on one
    side of the line of e_i.
    """
    planes = _inward_halfplanes(qp)
    outside = [{j for j, (nx, ny, c) in enumerate(planes) if nx * v.x + ny * v.y < c} for v in p.vertices]
    if not any(outside):
        raise EmptyDifferenceError("empty difference")
    blocks = 0
    for (a, b), out_a, out_b in zip(p.edges, outside, outside[1:] + outside[:1]):
        sides = [_cross(a, b, w) for w in qp.vertices]
        blocks += not (out_a & out_b or min(sides) > 0 or max(sides) < 0)
        blocks -= not out_a
    comps = max(1, blocks)
    return ComponentCount(comps, comps - 1)


def _binom2(n: int) -> int:
    return n * (n - 1) // 2 if n >= 2 else 0


def veronese_step_counts(d: int) -> tuple[int, int]:
    """Closed-form counts for the classic step dΔ -> (d-2)Δ."""
    if d < 3:
        raise ToricTransferError("classic step needs degree at least 3")
    return _binom2(2 * d - 2), _binom2(2 * d - 3)


# -- the transfer inequality in its section-count and Euler-characteristic forms


def ceil_half(n: int) -> int:
    """Exact ceiling of n/2 for any integer n."""
    return -((-n) // 2)


@dataclass(frozen=True)
class CohomologyInput:
    """Section dimensions entering the transfer inequality.

    Vanishing hypotheses on the underlying geometry (no sections of E - D,
    no first cohomology of D + E or of 2E) are the caller's obligation; the
    polygon and Picard-lattice front ends discharge them structurally.
    """

    h0_DplusE: int
    h0_2Dplus2E: int
    h0_2E: int
    h1_EminusD: int

    def __post_init__(self) -> None:
        for name in ("h0_DplusE", "h0_2Dplus2E", "h0_2E", "h1_EminusD"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


def h0_criterion_holds(c: CohomologyInput) -> bool:
    """Section-count inequality implying that E supports multipliers for D.

    Tests h0(D+E) > 1 + ceil((h0(2D+2E) - h0(2E) - h0(D+E) - h1(E-D)) / 2).
    """
    numerator = c.h0_2Dplus2E - c.h0_2E - c.h0_DplusE - c.h1_EminusD
    return c.h0_DplusE > 1 + ceil_half(numerator)


def chi_criterion_holds(chi_2E: int, h1_EminusD: int, chi_minusDminusE: int) -> bool:
    """Euler-characteristic form of the transfer inequality.

    Strict test chi(2E) + h1(E-D) > chi(-D-E).  On a nonsingular surface the
    right-hand side may be passed as chi(K+D+E), which is equal by duality.
    """
    if h1_EminusD < 0:
        raise ValueError("h1_EminusD must be nonnegative")
    return chi_2E + h1_EminusD > chi_minusDminusE


def random_polygon(rng: random.Random, max_coord: int = 8, tries: int = 50) -> LatticePolygon:
    """A random full-dimensional convex lattice polygon in [0, max_coord]^2."""
    for _ in range(tries):
        pts = [
            (rng.randint(0, max_coord), rng.randint(0, max_coord))
            for _ in range(rng.randint(3, 7))
        ]
        poly = full_hull(pts)
        if poly is not None:
            return poly
    raise AssertionError("could not draw a full-dimensional polygon")


def _floor_div(num: int, den: int) -> int:
    if den < 0:
        num, den = -num, -den
    return num // den


def _ceil_div(num: int, den: int) -> int:
    if den < 0:
        num, den = -num, -den
    return -((-num) // den)


def _row_span(poly: LatticePolygon, y: int) -> Optional[tuple[int, int]]:
    """Integer x-range [lo, hi] of the slice of poly at height y, or None."""
    lo: Optional[tuple[int, int]] = None  # exact fraction (num, den), den > 0
    hi: Optional[tuple[int, int]] = None

    def update(num: int, den: int) -> None:
        nonlocal lo, hi
        if den < 0:
            num, den = -num, -den
        if lo is None or num * lo[1] < lo[0] * den:
            lo = (num, den)
        if hi is None or num * hi[1] > hi[0] * den:
            hi = (num, den)

    for a, b in poly.edges:
        if a.y == b.y:
            if a.y == y:
                update(a.x, 1)
                update(b.x, 1)
        elif min(a.y, b.y) <= y <= max(a.y, b.y):
            update(a.x * (b.y - a.y) + (y - a.y) * (b.x - a.x), b.y - a.y)
    if lo is None or hi is None:
        return None
    xlo = _ceil_div(*lo)
    xhi = _floor_div(*hi)
    if xlo > xhi:
        return None
    return xlo, xhi


def lattice_points(poly: LatticePolygon) -> Iterator[LatticePoint]:
    """Every lattice point of the closed polygon, row by row."""
    _, ymin, _, ymax = poly.bounding_box
    for y in range(ymin, ymax + 1):
        span = _row_span(poly, y)
        if span is not None:
            for x in range(span[0], span[1] + 1):
                yield LatticePoint(x, y)


def brute_force_contains_translate(p: LatticePolygon, q: LatticePolygon) -> Optional[LatticePoint]:
    """The first m, scanning mx then my over the box the bounding boxes
    allow, with every vertex of P + m inside Q, or None."""
    pxmin, pymin, pxmax, pymax = p.bounding_box
    qxmin, qymin, qxmax, qymax = q.bounding_box
    for mx in range(qxmin - pxmin, qxmax - pxmax + 1):
        for my in range(qymin - pymin, qymax - pymax + 1):
            m = LatticePoint(mx, my)
            if all(contains_point(q, v + m) for v in p.vertices):
                return m
    return None


def _mat_vec(m, p: LatticePoint) -> LatticePoint:
    (a, b), (c, d) = m
    return LatticePoint(a * p.x + b * p.y, c * p.x + d * p.y)


def _candidate_map(u1, u2, v1, v2):
    """Integer matrix M with M u_i = v_i, or None."""
    det = u1.x * u2.y - u1.y * u2.x
    if det == 0:
        return None
    # M = V * adj(U) / det with U = [u1 u2], V = [v1 v2] as columns.
    a_num = v1.x * u2.y - v2.x * u1.y
    b_num = -v1.x * u2.x + v2.x * u1.x
    c_num = v1.y * u2.y - v2.y * u1.y
    d_num = -v1.y * u2.x + v2.y * u1.x
    if any(n % det for n in (a_num, b_num, c_num, d_num)):
        return None
    m = ((a_num // det, b_num // det), (c_num // det, d_num // det))
    (a, b), (c, d) = m
    if a * d - b * c not in (1, -1):
        return None
    return m


def is_lattice_equivalent(p: LatticePolygon, q: LatticePolygon) -> bool:
    """Whether an affine unimodular map carries P onto Q.

    One edge-to-edge correspondence is anchored; the finitely many candidate
    linear parts come from matching P's first two edge vectors against
    consecutive edge vectors of Q, in both orientations.
    """
    if (
        len(p.vertices) != len(q.vertices)
        or p.twice_area != q.twice_area
        or p.boundary_lattice_point_count != q.boundary_lattice_point_count
        or p.lattice_point_count != q.lattice_point_count
    ):
        return False
    pe = [b - a for a, b in p.edges]
    u1, u2 = pe[0], pe[1]
    n = len(q.vertices)
    for reversed_q in (False, True):
        verts = q.vertices if not reversed_q else tuple(reversed(q.vertices))
        qe = [verts[(i + 1) % n] - verts[i] for i in range(n)]
        for r in range(n):
            m = _candidate_map(u1, u2, qe[r], qe[(r + 1) % n])
            if m is None:
                continue
            image = _mat_vec(m, p.vertices[0])
            shift = verts[r] - image
            mapped = LatticePolygon([_mat_vec(m, v) + shift for v in p.vertices])
            if mapped == q:
                return True
    return False


TWICE_UNIT_TRIANGLE = LatticePolygon([(0, 0), (2, 0), (0, 2)])


def brute_force_lattice_count(poly: LatticePolygon) -> int:
    """Count lattice points by scanning the bounding box with halfplane tests."""
    xmin, ymin, xmax, ymax = poly.bounding_box
    return sum(
        contains_point(poly, (x, y))
        for x in range(xmin, xmax + 1)
        for y in range(ymin, ymax + 1)
    )


def brute_force_interior_count(poly: LatticePolygon) -> int:
    """Interior = strict inequalities against every edge halfplane."""
    xmin, ymin, xmax, ymax = poly.bounding_box
    edges = poly.edges
    count = 0
    for x in range(xmin, xmax + 1):
        for y in range(ymin, ymax + 1):
            if all(
                (b.x - a.x) * (y - a.y) - (b.y - a.y) * (x - a.x) > 0 for a, b in edges
            ):
                count += 1
    return count


def _clip_rows(p: LatticePolygon, q: LatticePolygon) -> tuple[tuple[tuple[int, int, int, int], ...], ...]:
    """Per edge a + t*(dx, dy) of P, per inward halfplane (nx, ny, c) of Q,
    the tuple (nx, ny, f0, df) with f0 = nx*ax + ny*ay - c and
    df = nx*dx + ny*dy: on that edge the halfplane of Q + (mx, my) is
    f0 - nx*mx - ny*my + t*df >= 0."""
    planes = _inward_halfplanes(q)
    return tuple(
        tuple((nx, ny, nx * a.x + ny * a.y - c, nx * (b.x - a.x) + ny * (b.y - a.y)) for nx, ny, c in planes)
        for a, b in p.edges
    )


def _covered_block_count(clip_rows: Sequence[Sequence[tuple[int, int, int, int]]], mx: int, my: int) -> int:
    """Number of maximal arcs of the boundary of P covered by Q + (mx, my),
    for the clip rows of (P, Q) from ``_clip_rows``.

    The boundary of P is parametrized by scalar position i + t along edge i.
    Each edge meets the convex translate in a single closed sub-interval,
    clipped in integer arithmetic; positions are exact fractions.  Touching
    intervals merge (closed-set semantics), including circularly.

    The sub-interval of edge i starts at i + t with t in [0, 1], and edges
    are visited in order, so the intervals arrive sorted by start.
    """
    intervals: list[tuple[int, int, int, int]] = []  # (s_num, s_den, e_num, e_den)
    for i, row in enumerate(clip_rows):
        lo_n, lo_d = 0, 1
        hi_n, hi_d = 1, 1
        empty = False
        for nx, ny, f0, df in row:
            f0 -= nx * mx + ny * my
            if df == 0:
                if f0 < 0:
                    empty = True
                    break
            elif df > 0:
                # constraint t >= -f0/df
                if -f0 * lo_d > lo_n * df:
                    lo_n, lo_d = -f0, df
            else:
                # constraint t <= f0/(-df)
                if f0 * hi_d < hi_n * (-df):
                    hi_n, hi_d = f0, -df
        if empty or lo_n * hi_d > hi_n * lo_d:
            continue
        intervals.append((i * lo_d + lo_n, lo_d, i * hi_d + hi_n, hi_d))
    if not intervals:
        return 0
    first_s_num, first_s_den = intervals[0][0], intervals[0][1]
    cur_n, cur_d = intervals[0][2], intervals[0][3]
    blocks = 1
    for s_num, s_den, e_num, e_den in intervals[1:]:
        if s_num * cur_d <= cur_n * s_den:
            if e_num * cur_d > cur_n * e_den:
                cur_n, cur_d = e_num, e_den
        else:
            blocks += 1
            cur_n, cur_d = e_num, e_den
    if blocks > 1 and cur_n == len(clip_rows) * cur_d and first_s_num == 0:
        blocks -= 1
    return blocks


def brute_force_component_total(p: LatticePolygon, q: LatticePolygon) -> int:
    """Reduced component total by visiting every lattice translate of Q.

    The reference for ``reduced_component_total``: one block count at each
    lattice point m of the zone P + (-Q), with no breakpoints.
    """
    if brute_force_contains_translate(p, q) is not None:
        raise TranslateContainmentError("translate containment")
    clips = _clip_rows(p, q)
    total = 0
    for m in lattice_points(minkowski_sum(p, q.reflect())):
        blocks = _covered_block_count(clips, m.x, m.y)
        if blocks > 1:
            total += blocks - 1
    return total


def brute_force_inside_count(p: LatticePolygon, q: LatticePolygon) -> int:
    """#{m : Q + m inside int P} by testing every translate m of the box
    where Q + m fits in P's bounding box: every vertex of Q + m must lie
    strictly inside every edge of P.  The reference for
    ``lattice.inside_translate_count``, refusing the same inputs."""
    if brute_force_contains_translate(p, q) is not None:
        raise TranslateContainmentError("translate containment")
    pxmin, pymin, pxmax, pymax = p.bounding_box
    qxmin, qymin, qxmax, qymax = q.bounding_box
    return sum(
        all((b.x - a.x) * (w.y + my - a.y) - (b.y - a.y) * (w.x + mx - a.x) > 0 for a, b in p.edges for w in q.vertices)
        for mx in range(pxmin - qxmin, pxmax - qxmax + 1)
        for my in range(pymin - qymin, pymax - qymax + 1)
    )


def built_polygon_verdict(p: LatticePolygon, q: LatticePolygon) -> TransferVerdict:
    """The one-step verdict counted on built polygons, the reference for
    ``toric.transfer_check`` (which builds none): count(2Q) on dilate(Q, 2),
    #int(P + Q) on minkowski_sum(P, Q), and h by visiting every translate in
    the zone minkowski_sum(P, -Q) (``brute_force_component_total``)."""
    h = brute_force_component_total(p, q)
    count = dilate(q, 2).lattice_point_count
    interior = minkowski_sum(p, q).interior_lattice_point_count
    margin = count + h - interior
    return TransferVerdict(count, h, interior, margin > 0, margin)


def plan_corpus(rng: random.Random, random_count: int = 40) -> list[LatticePolygon]:
    """The shapes of the benchmark's plan workload: kΔ (k = 3..8), squares of
    side 2..6, four rectangles and random_count random hulls in [0, 8]^2."""
    from sostransfer.lattice import rectangle, veronese_triangle

    shapes = [veronese_triangle(k) for k in range(3, 9)]
    shapes += [rectangle(k, k) for k in range(2, 7)]
    shapes += [rectangle(a, b) for a, b in ((2, 3), (3, 5), (5, 2), (4, 6))]
    return shapes + [random_polygon(rng, max_coord=8) for _ in range(random_count)]


def _normalized_line(a: int, b: int, k: int) -> tuple[int, int, int]:
    """The line a*x + b*y = k with a > 0 and coprime coefficients (a != 0)."""
    if a < 0:
        a, b, k = -a, -b, -k
    g = gcd(a, b, k)
    return a // g, b // g, k // g


def event_segments(p: LatticePolygon, q: LatticePolygon) -> set[tuple[int, int, int, int, int]]:
    """Non-horizontal segments of translate space where the covered-arc
    pattern of the boundary of P under Q + m can change, as (a, b, k, y0, y1):
    the part of the line a*mx + b*my = k with y0 <= my <= y1.

    On these segments a vertex of P lies on an edge of Q + m, or a vertex of
    Q + m lies on an edge of P; off them the block count stays the same.  A
    corpus predicate: the sweep-oracle tests use it to show that their pairs
    have breakpoints off the lattice, segments crossing between rows, or
    segments sharing a line.
    """
    segments = set()
    for c, d in q.edges:
        nx, ny = c.y - d.y, d.x - c.x  # inward normal of Q's edge
        if nx:
            for v in p.vertices:
                y0, y1 = sorted((v.y - c.y, v.y - d.y))
                segments.add(_normalized_line(nx, ny, nx * (v.x - c.x) + ny * (v.y - c.y)) + (y0, y1))
    for a, b in p.edges:
        nx, ny = a.y - b.y, b.x - a.x  # inward normal of P's edge
        if nx:
            for w in q.vertices:
                y0, y1 = sorted((a.y - w.y, b.y - w.y))
                segments.add(_normalized_line(nx, ny, nx * (a.x - w.x) + ny * (a.y - w.y)) + (y0, y1))
    return segments


def hull_minkowski_sum(p: LatticePolygon, q: LatticePolygon) -> LatticePolygon:
    """P + Q as the convex hull of all pairwise vertex sums."""
    return LatticePolygon([a + b for a in p.vertices for b in q.vertices])


def total_or_containment(total_fn, p: LatticePolygon, q: LatticePolygon):
    """total_fn(p, q), or the string "containment" if it raises
    TranslateContainmentError, so two sweeps can be compared in one assert."""
    try:
        return total_fn(p, q)
    except TranslateContainmentError:
        return "containment"


def fraction_covered_arcs(p: LatticePolygon, qp: LatticePolygon) -> tuple[int, list[Fraction]]:
    """Maximal arcs of the boundary of P inside Q', with Fraction keys.

    Each edge i of P is clipped against every halfplane of Q' as an exact
    Fraction interval of positions i + t, the intervals are sorted by their
    Fraction starts, and touching ones merge, circularly too.  Returns the
    arc count and the sorted starts.
    """
    n = len(p.edges)
    intervals = []
    for i, (a, b) in enumerate(p.edges):
        lo, hi = Fraction(0), Fraction(1)
        for c, d in qp.edges:
            # side(point) >= 0 on Q'; along the edge it is s0 + t * ds
            s0 = (d.x - c.x) * (a.y - c.y) - (d.y - c.y) * (a.x - c.x)
            s1 = (d.x - c.x) * (b.y - c.y) - (d.y - c.y) * (b.x - c.x)
            ds = s1 - s0
            if ds == 0:
                if s0 < 0:
                    lo, hi = Fraction(1), Fraction(0)
            elif ds > 0:
                lo = max(lo, Fraction(-s0, ds))
            else:
                hi = min(hi, Fraction(-s0, ds))
        if lo <= hi:
            intervals.append((i + lo, i + hi))
    intervals.sort(key=lambda iv: iv[0])
    arcs = []
    for start, end in intervals:
        if arcs and start <= arcs[-1][1]:
            arcs[-1][1] = max(arcs[-1][1], end)
        else:
            arcs.append([start, end])
    if len(arcs) > 1 and arcs[-1][1] == n and arcs[0][0] == 0:
        arcs.pop()
    return len(arcs), [start for start, _ in intervals]


def shoelace_area_twice(poly: LatticePolygon) -> int:
    v = poly.vertices
    n = len(v)
    return sum(v[i].x * v[(i + 1) % n].y - v[(i + 1) % n].x * v[i].y for i in range(n))


def ehrhart_quadratic(poly: LatticePolygon) -> tuple[Fraction, Fraction, Fraction]:
    """Quadratic counting polynomial fitted on dilations 0, 1, 2."""
    l0 = Fraction(1)
    l1 = Fraction(poly.lattice_point_count)
    l2 = Fraction(dilate(poly, 2).lattice_point_count)
    a = (l2 - 2 * l1 + l0) / 2
    b = l1 - l0 - a
    return a, b, l0


def flood_fill_components(
    p: LatticePolygon, qp: LatticePolygon, resolution: int = 4, eight_connected: bool = False
) -> int:
    """Component count of P \\ Q' sampled on the (1/resolution)-grid.

    Membership is exact: both polygons are dilated by the resolution so cell
    centers become lattice points.  Adjacency is 4-connectivity by default.
    """
    p_big = dilate(p, resolution)
    q_big = dilate(qp, resolution)
    xmin, ymin, xmax, ymax = p_big.bounding_box
    cells = set()
    for x in range(xmin, xmax + 1):
        for y in range(ymin, ymax + 1):
            if contains_point(p_big, (x, y)) and not contains_point(q_big, (x, y)):
                cells.add((x, y))
    offsets = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    if eight_connected:
        offsets += [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    components = 0
    seen: set[tuple[int, int]] = set()
    for cell in sorted(cells):
        if cell in seen:
            continue
        components += 1
        stack = [cell]
        seen.add(cell)
        while stack:
            cx, cy = stack.pop()
            for dx, dy in offsets:
                nxt = (cx + dx, cy + dy)
                if nxt in cells and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return components


def random_unimodular(rng: random.Random) -> tuple[tuple[int, int], tuple[int, int]]:
    """A small random integer matrix of determinant +-1 (shear/swap words)."""
    m = [[1, 0], [0, 1]]

    def mul(a, b):
        return [
            [a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]],
            [a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]],
        ]

    for _ in range(rng.randint(1, 4)):
        k = rng.randint(-2, 2)
        choice = rng.randrange(3)
        if choice == 0:
            m = mul(m, [[1, k], [0, 1]])
        elif choice == 1:
            m = mul(m, [[1, 0], [k, 1]])
        else:
            m = mul(m, [[0, 1], [1, 0]])
    return (tuple(m[0]), tuple(m[1]))


def edges_share_a_line(p: LatticePolygon, q: LatticePolygon) -> bool:
    """True when some edge of P and some edge of Q lie on a common line.

    Used to filter the flood-fill corpus: exact collinear overlap can leave
    one-dimensional slivers that a grid sample cannot connect.
    """
    for a, b in p.edges:
        for c, d in q.edges:
            da = (b.x - a.x, b.y - a.y)
            dc = (d.x - c.x, d.y - c.y)
            if da[0] * dc[1] - da[1] * dc[0] != 0:
                continue
            if da[0] * (c.y - a.y) - da[1] * (c.x - a.x) == 0:
                return True
    return False


def component_oracle_pairs(rng: random.Random, count: int, max_p: int = 10, max_q: int = 6):
    """Yield (P, Q') pairs on which the quarter-grid oracle is faithful.

    Filters: the polygons' bounding boxes overlap, Q' does not contain P, no
    edge of P shares a line with an edge of Q' (collinear overlap leaves
    one-dimensional slivers no grid can join), P's own sample is connected,
    and the count is stable both from resolution 4 to 8 and from 4- to
    8-connectivity.  Instability marks a sub-grid feature (a wedge thinner
    than the grid), where point sampling cannot represent the region; the
    filter uses only oracle-side data, so it cannot mask implementation
    errors on the instances it keeps.
    """
    produced = 0
    attempts = 0
    while produced < count:
        attempts += 1
        if attempts > 400 * count:
            raise AssertionError("oracle corpus generation stalled")
        p = random_polygon(rng, max_coord=max_p)
        q = random_polygon(rng, max_coord=max_q)
        shift = (rng.randint(-4, max_p), rng.randint(-4, max_p))
        qp = q.translate(shift)
        if contains_polygon(qp, p):
            continue
        pxmin, pymin, pxmax, pymax = p.bounding_box
        qxmin, qymin, qxmax, qymax = qp.bounding_box
        if qxmin > pxmax or qxmax < pxmin or qymin > pymax or qymax < pymin:
            continue
        if edges_share_a_line(p, qp):
            continue
        far = qp.translate((10 * (pxmax - qxmin + max_q + 2), 0))
        if flood_fill_components(p, far) != 1:
            continue  # P itself is too thin for the grid
        c4 = flood_fill_components(p, qp, resolution=4)
        if c4 != flood_fill_components(p, qp, resolution=4, eight_connected=True):
            continue
        if c4 != flood_fill_components(p, qp, resolution=8):
            continue
        if c4 != flood_fill_components(p, qp, resolution=8, eight_connected=True):
            continue
        if c4 != flood_fill_components(p, qp, resolution=16):
            continue
        produced += 1
        yield p, qp, c4


def structured_oracle_pairs(rng: random.Random, count: int):
    """Oracle pairs drawn from the shapes of the toric pipeline.

    Rectangles, triangles, and corner-cut trapezoids only have edge slopes
    0, infinity, and -1, so every feature of a set difference is at least
    1/sqrt(2) wide and the quarter grid represents it faithfully.
    """
    from sostransfer.lattice import rectangle, veronese_triangle
    from sostransfer.toric import trapezoid

    def draw_shape(max_d: int) -> LatticePolygon:
        choice = rng.randrange(3)
        if choice == 0:
            return rectangle(rng.randint(1, max_d), rng.randint(1, max_d))
        if choice == 1:
            return veronese_triangle(rng.randint(1, max_d))
        d = rng.randint(2, max_d)
        return trapezoid(d, rng.randint(0, d - 1))

    produced = 0
    while produced < count:
        p = draw_shape(9)
        q = draw_shape(5)
        pxmin, pymin, pxmax, pymax = p.bounding_box
        shift = (rng.randint(-3, pxmax + 1), rng.randint(-3, pymax + 1))
        qp = q.translate(shift)
        if contains_polygon(qp, p):
            continue
        qxmin, qymin, qxmax, qymax = qp.bounding_box
        if qxmin > pxmax or qxmax < pxmin or qymin > pymax or qymax < pymin:
            continue
        produced += 1
        yield p, qp, flood_fill_components(p, qp)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


# -- del Pezzo oracles -----------------------------------------------------------


def dense_intersect(s, d1, d2) -> int:
    """D1.D2 as the full double sum over the Gram matrix."""
    if len(d1) != len(s.K) or len(d2) != len(s.K):
        raise ValueError("divisor length does not match the Picard rank")
    return sum(a * sum(map(mul, row, d2)) for a, row in zip(d1, s.gram))


def dense_tau_image(s, d) -> tuple[int, ...]:
    """The involution applied to d as a dense matrix-vector product."""
    n = len(s.K)
    return tuple(sum(s.tau[i][j] * d[j] for j in range(n)) for i in range(n))


@functools.lru_cache(maxsize=None)
def _lattice_classes(gram, kvec, square, kdot):
    return tuple(solve_quadratic_lattice(gram, kvec, square, kdot))


def dense_cone_generators(s) -> tuple[tuple[int, ...], ...]:
    """The (-1)-classes and conic bundle classes, or the primitive -K ray."""
    gens = set(_lattice_classes(s.gram, s.K, -1, -1)) | set(_lattice_classes(s.gram, s.K, 0, -2))
    if gens:
        return tuple(sorted(gens))
    g = 0
    for x in s.K:
        g = gcd(g, x)
    return (tuple(-x // g for x in s.K),)


def dense_is_nef(s, d, gens) -> bool:
    """Nefness against the test classes gens (from dense_cone_generators)."""
    return all(dense_intersect(s, d, c) >= 0 for c in gens)


def dense_is_ample(s, d, gens) -> bool:
    if dense_intersect(s, d, d) <= 0:
        return False
    return all(dense_intersect(s, d, c) > 0 for c in gens)


def plain_marked_isometry(gram_s, k_s, tau_s, dst):
    """Marked-lattice isometry onto dst by plain backtracking.

    Same variable order (fewest candidates first) and candidate order
    (sorted) as the library's search, but every pairing against the images
    chosen so far is a product with the candidate's dense row G.v, and
    nothing is pruned before it is reached: the canonical class and the
    involution are tested only at the leaves.  Returns the matrix sending
    source coordinates to dst, or None.
    """
    n = len(k_s)
    if n != len(dst.K):
        return None
    gk = [sum(gram_s[i][j] * k_s[j] for j in range(n)) for i in range(n)]
    cands = [_lattice_classes(dst.gram, dst.K, gram_s[i][i], gk[i]) for i in range(n)]
    if not all(cands):
        return None
    cands = [[(v, mat_vec(dst.gram, v)) for v in vs] for vs in cands]
    order = sorted(range(n), key=lambda i: len(cands[i]))
    images = {}

    def backtrack(pos):
        if pos == n:
            m = tuple(tuple(images[j][i] for j in range(n)) for i in range(n))
            if mat_vec(m, k_s) != dst.K or mat_mul(m, tau_s) != mat_mul(dst.tau, m):
                return None
            return m
        i = order[pos]
        for v, row in cands[i]:
            if all(sum(map(mul, row, w)) == gram_s[i][j] for j, w in images.items()):
                images[i] = v
                res = backtrack(pos + 1)
                if res is not None:
                    return res
                del images[i]
        return None

    return backtrack(0)


def random_effective_divisor(s, rng, max_coeff: int = 2) -> tuple[int, ...]:
    """A nonzero real effective divisor: a random nonnegative combination of
    negative curves and conic bundles, symmetrized under conjugation."""
    pool = list(minus_one_curves(s)) + list(conic_bundle_classes(s))
    if not pool:
        pool = [s.minus_K]
    n = s.rank
    for _ in range(100):
        total = (0,) * n
        for cls in pool:
            coeff = rng.randint(0, max_coeff) if rng.random() < 0.3 else 0
            if coeff:
                total = tuple(t + coeff * x for t, x in zip(total, cls))
        total = tuple(a + b for a, b in zip(total, s.tau_image(total)))
        if any(total):
            return total
    return tuple(2 * x for x in s.minus_K)


def reference_ample_step(s, cur) -> AmpleStep:
    """One ample step built from vectors: E = D - C, and every chi and
    pairing of the record evaluated on its class."""
    c, nvec, mvec, nef_n, nef_m = s._ample_step_classes
    evec = tuple(x - y for x, y in zip(cur, c))
    two_e = tuple(2 * x for x in evec)
    chi_2e = chi(s, two_e)
    chi_minus_de = chi(s, tuple(-x - y for x, y in zip(cur, evec)))
    record = {
        "surface": s.name,
        "D": cur,
        "C": c,
        "E": evec,
        "N": nvec,
        "M": mvec,
        "nef_E": is_nef(s, evec),
        "nef_N": nef_n,
        "nef_M": nef_m,
        "two_E_dot_M": s.intersect(two_e, mvec),
        "chi_2E": chi_2e,
        "chi_minus_D_minus_E": chi_minus_de,
        "chi_2E_minus_M": chi(s, tuple(x - y for x, y in zip(two_e, mvec))),
        "h1_E_minus_D": 0,
        "holds": chi_criterion_holds(chi_2e, 0, chi_minus_de),
    }
    if not record["holds"]:
        raise DelPezzoError(f"{s.name}: ample step inequality failed for {cur}")
    return AmpleStep(c, evec, record)


def reference_transfer_sequence(s, d) -> DelPezzoTransfer:
    """The transfer walk one step per loop turn: a conic-multiple test on
    every divisor, then ``is_ample``, ``is_nef`` and a vector-built ample step,
    each scanning the cone afresh."""
    cur = tuple(d)
    if len(cur) != len(s.K):
        raise DelPezzoError("divisor length does not match the Picard rank")
    if not s.is_real(cur):
        raise NotConjugationFixedError("not conjugation-fixed")
    surf = s
    steps = []
    for _ in range(MAX_WALK_STEPS):
        if not any(cur):
            steps.append(TransferStep("terminal", surf.name, cur, check={"terminal_kind": "zero", "minus_K_dot": 0}))
            break
        mk_pairing = surf.intersect(surf.minus_K, cur)
        cm = delpezzo._conic_multiple(surf, cur, mk_pairing)
        if cm is not None:
            bundle, mult = cm
            check = {
                "terminal_kind": "conic_bundle_multiple",
                "multiple": mult,
                "interval_kind": interval_kind(surf.name),
                "minus_K_dot": mk_pairing,
            }
            steps.append(TransferStep("terminal", surf.name, cur, witness=(bundle,), check=check))
            break
        if is_ample(surf, cur):
            ast = reference_ample_step(surf, cur)
            if not ast.check["nef_E"]:
                raise DelPezzoError(f"{surf.name}: ample step left a divisor that is not nef")
            check = dict(ast.check)
            check["minus_K_dot"] = mk_pairing
            steps.append(TransferStep("ample_step", surf.name, cur, witness=(ast.C,), check=check, result=ast.E))
            cur = ast.E
        elif is_nef(surf, cur):
            reals, pairs = real_negative_curves(surf)
            zero_reals = [c for c in reals if surf.intersect(cur, c) == 0]
            if zero_reals:
                spec = (min(zero_reals),)
            else:
                zero_pairs = [p for p in pairs if surf.intersect(cur, p[0]) == 0]
                if not zero_pairs:
                    raise DelPezzoError(f"{surf.name}: nef-not-ample divisor with no contractible curve")
                spec = min(zero_pairs)
            contraction = contract_along(surf, spec)
            nxt = contraction.push(cur)
            check = {"target": contraction.target.name, "minus_K_dot": mk_pairing}
            steps.append(TransferStep("contract", surf.name, cur, witness=tuple(spec), check=check, result=nxt))
            surf = contraction.target
            cur = nxt
        else:
            witness = delpezzo._negative_curve_witness(surf, cur) if mk_pairing >= 0 else None
            if witness is None:
                raise NotEffectiveError("not effective")
            nxt = cur
            for w in witness:
                nxt = tuple(x - y for x, y in zip(nxt, w))
            check = {"pairing": surf.intersect(cur, witness[0]), "minus_K_dot": mk_pairing}
            steps.append(TransferStep("subtract_negative_curve", surf.name, cur, witness=witness, check=check, result=nxt))
            cur = nxt
    else:
        raise DelPezzoError(f"transfer did not terminate within the budget of {MAX_WALK_STEPS} steps")
    return DelPezzoTransfer(
        surface=s.name,
        start=tuple(d),
        steps=tuple(steps),
        terminal_kind=steps[-1].check["terminal_kind"],
        certificate_kind=certificate_kind(s.name),
    )


def random_unimodular_pair(rng: random.Random, n: int, moves: int = 4):
    """A random n x n integer matrix U with determinant ±1 and its inverse:
    a product of ``moves`` elementary moves (adding ± one row to another, or
    negating a row), the inverse built from the inverse moves."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in u]
    for _ in range(moves):
        i = rng.randrange(n)
        if n > 1 and rng.random() < 0.75:
            j = rng.choice([t for t in range(n) if t != i])
            sign = rng.choice((1, -1))
            u[i] = [a + sign * b for a, b in zip(u[i], u[j])]
            for row in inv:
                row[j] -= sign * row[i]
        else:
            u[i] = [-a for a in u[i]]
            for row in inv:
                row[i] = -row[i]
    return tuple(map(tuple, u)), tuple(map(tuple, inv))


# -- linear algebra oracles --------------------------------------------------------


def fraction_ldl(a):
    """A = LᵀDL for positive-definite A: the diagonal of D, and L above its
    unit diagonal (lmat[i][j] for j > i; the stored diagonal is zero)."""
    k = len(a)
    m = [[Fraction(x) for x in row] for row in a]
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


def fraction_ldl_solve(d, lmat, b):
    """h with A h = b for A = LᵀDL given by its ``fraction_ldl`` factors."""
    k = len(d)
    u = []
    for i in range(k):
        u.append(b[i] - sum(lmat[j][i] * u[j] for j in range(i)))
    h = [ui / di for ui, di in zip(u, d)]
    for i in reversed(range(k)):
        h[i] -= sum(lmat[i][j] * h[j] for j in range(i + 1, k))
    return h


def ldl_product(d, lmat):
    """LᵀDL from the diagonal of D and L above its unit diagonal."""
    k = len(d)
    unit = [[Fraction(1) if i == j else lmat[i][j] for j in range(k)] for i in range(k)]
    return [[sum(d[t] * unit[t][r] * unit[t][c] for t in range(k)) for c in range(k)] for r in range(k)]


def integer_quadric_matrix(a, center, radius):
    """The symmetric integer matrix B with (y, 1)ᵀ B (y, 1) a positive
    multiple of (y - center)ᵀ A (y - center) - radius: the rational
    [[A, -A·c], [-(A·c)ᵀ, cᵀA·c - radius]] scaled by the lcm of its
    denominators."""
    k = len(a)
    ac = [sum(Fraction(a[i][j]) * center[j] for j in range(k)) for i in range(k)]
    rows = [[Fraction(x) for x in a[i]] + [-ac[i]] for i in range(k)]
    rows.append([-x for x in ac] + [sum(c * x for c, x in zip(center, ac)) - radius])
    scale = lcm(*(x.denominator for row in rows for x in row))
    return [[int(x * scale) for x in row] for row in rows]


def fraction_enumerate_quadric_points(d, lmat, center, radius):
    """All integer y with (y - center)ᵀ A (y - center) = radius, for A given
    by its ``fraction_ldl`` factors, by the Fraction recursion the integer one
    replaced: levels k-1 down to 0, each level's values ascending."""
    k = len(d)
    if radius < 0:
        return []
    out = []
    z = [Fraction(0)] * k  # z_j = y_j - center_j for chosen levels

    def recurse(i, rem):
        if i < 0:
            if rem == 0:
                out.append(tuple(int(center[j] + z[j]) for j in range(k)))
            return
        inner = sum(lmat[i][j] * z[j] for j in range(i + 1, k))
        c_i = center[i] - inner
        q = rem / d[i]
        bound = isqrt(q.numerator * q.denominator) // q.denominator
        for y_i in range(floor(c_i) - bound, ceil(c_i) + bound + 1):
            zi = y_i - center[i]
            term = d[i] * (zi + inner) ** 2
            if term > rem:
                continue
            z[i] = zi
            recurse(i - 1, rem - term)
        z[i] = Fraction(0)

    recurse(k - 1, Fraction(radius))
    return out


def fraction_column_solve(cols, v):
    """The rational y with sum_j y_j * cols[j] = v, by Fraction Gauss-Jordan
    elimination on the augmented matrix (free variables zero), or None when
    v is outside the rational span."""
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
    if any(aug[r][k] != 0 for r in range(row, n)):
        return None
    y = [Fraction(0)] * k
    for r, c in enumerate(pivots):
        y[c] = aug[r][k]
    return y


def fraction_solve_in_column_span(cols, v):
    """Integer y with sum_j y_j * cols[j] = v, or None: the rational
    solution, kept only when it is integral."""
    y = fraction_column_solve(cols, v)
    if y is None or any(val.denominator != 1 for val in y):
        return None
    return tuple(int(val) for val in y)


def fraction_rank(matrix) -> int:
    """Rank by Fraction Gauss-Jordan elimination."""
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


# -- ruled oracles -----------------------------------------------------------------


def counted_nef_threshold(a_squared: int, a_dot_k: int, k_squared: int) -> int:
    """Smallest ell >= 0 with ell^2 A^2 - 2 ell A.K + K^2 - 1 > 0, counted
    up from 0 (it exists: with A^2 >= 1 the quadratic is positive at
    4(|A.K| + |K^2| + 2))."""
    ell = 0
    while ell * ell * a_squared - 2 * ell * a_dot_k + k_squared - 1 <= 0:
        ell += 1
    return ell


def replayed_degree_bound(data, d: int, d0: int) -> tuple[int, int, int]:
    """(total H-degree, steps counted, steps per level) of the multiplier
    chain from dH down to d0 H, one schedule per level: ``build_schedule``
    at every level delta in (d0, d], from d down, so the first level
    without a schedule raises its ScheduleError.  The total is summed while
    building (t * delta + delta - 1 per level) and again by replaying the
    stored ladders' targets; the two must agree."""
    schedules = []
    running = steps = 0
    for delta in range(d, d0, -1):
        sched = build_schedule(data, delta)
        schedules.append(sched)
        running += sched.t * delta + (delta - 1)
        steps += sched.t + 1
    assert running == sum(abs(rung[0]) for sched in schedules for rung in sched.ladder[1:])
    return running, steps, (schedules[0].t + 1) if schedules else 0
