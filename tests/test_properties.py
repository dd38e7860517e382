"""Property tests for the exact geometry layer.

Structural invariants run under hypothesis; the heavier randomized corpora
(grid oracle for component counts, unimodular invariance of the translate
total) use seeded generators from conftest.
"""

import functools
import random

from hypothesis import assume, given, settings, strategies as st

from sostransfer.lattice import (
    LatticePolygon,
    contains_lattice_translate,
    is_lawrence_prism,
    minkowski_lattice_point_count,
    minkowski_sum,
    rectangle,
    veronese_triangle,
)
from sostransfer.toric import reduced_component_total

from conftest import (
    _clip_rows,
    _covered_block_count,
    apply_unimodular,
    brute_force_component_total,
    brute_force_interior_count,
    brute_force_lattice_count,
    component_oracle_pairs,
    contains_point,
    contains_polygon,
    difference_components,
    dilate,
    edge_direction_multiset,
    ehrhart_quadratic,
    full_hull,
    is_lattice_equivalent,
    lattice_points,
    random_polygon,
    random_unimodular,
    shoelace_area_twice,
    standard_prism,
    structured_oracle_pairs,
    total_or_containment,
)

point_lists = st.lists(
    st.tuples(st.integers(min_value=-6, max_value=6), st.integers(min_value=-6, max_value=6)),
    min_size=1,
    max_size=8,
)
#: The polygons of point lists whose hull is neither a point nor a segment.
polygons = point_lists.map(full_hull).filter(lambda poly: poly is not None)


@given(point_lists)
def test_hull_idempotent_and_contains_input(pts):
    poly = full_hull(pts)
    # the hull refuses exactly the point lists on one line
    a, b = pts[0], next((r for r in pts if r != pts[0]), pts[0])
    assert (poly is None) == all((b[0] - a[0]) * (r[1] - a[1]) == (b[1] - a[1]) * (r[0] - a[0]) for r in pts)
    assume(poly is not None)
    assert LatticePolygon(poly.vertices) == poly
    assert all(contains_point(poly, p) for p in pts)


@given(polygons)
def test_counts_match_brute_force(poly):
    assert poly.lattice_point_count == brute_force_lattice_count(poly)
    assert poly.interior_lattice_point_count == brute_force_interior_count(poly)


@given(polygons, polygons)
def test_minkowski_contains_all_sums(a, b):
    total = minkowski_sum(a, b)
    for p in a.vertices:
        for q in b.vertices:
            assert contains_point(total, p + q)


@given(polygons, st.integers(min_value=1, max_value=4))
def test_dilation_counts_monotone(poly, k):
    assert dilate(poly, k).lattice_point_count >= poly.lattice_point_count


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5))
def test_prism_recognition_round_trip(h1, h2):
    assume(max(h1, h2) > 0)  # heights 0 and 0 give a segment
    poly = standard_prism(max(h1, h2), min(h1, h2))
    assert is_lawrence_prism(poly) == (max(h1, h2), min(h1, h2))


def polygons_in_box(size: int):
    return (
        st.lists(st.tuples(st.integers(0, size), st.integers(0, size)), min_size=3, max_size=6)
        .map(full_hull)
        .filter(lambda poly: poly is not None)
    )


far_shifts = st.tuples(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))


@st.composite
def component_total_pairs(draw):
    """(P, Q) with P random, a rectangle or a triangle kΔ, and Q drawn on
    its own (often small enough to fit inside P's interior), as the hull of
    some of P's vertices (edges on P's edge lines), or as -P (every edge
    parallel to one of P's); each polygon is then moved by its own shift,
    near or far."""
    p = draw(
        polygons_in_box(7)
        | st.builds(rectangle, st.integers(1, 7), st.integers(1, 7))
        | st.builds(veronese_triangle, st.integers(1, 7))
    )
    kind = draw(st.sampled_from(("independent", "collinear", "parallel")))
    if kind == "independent":
        q = draw(polygons_in_box(draw(st.sampled_from((2, 4, 7)))))
    elif kind == "collinear":
        q = full_hull(draw(st.lists(st.sampled_from(p.vertices), min_size=3, unique=True)))
        assume(q is not None)
    else:
        q = p.reflect()
    near = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
    return p.translate(draw(near | far_shifts)), q.translate(draw(near | far_shifts))


@settings(max_examples=150, deadline=None)
@given(component_total_pairs())
def test_component_total_matches_per_translate_sweep(pair):
    p, q = pair
    assert total_or_containment(reduced_component_total, p, q) == total_or_containment(
        brute_force_component_total, p, q
    )


@settings(max_examples=200, deadline=None)
@given(polygons_in_box(9), polygons_in_box(9), far_shifts, far_shifts)
def test_minkowski_count_matches_the_built_sum(p, q, shift_p, shift_q):
    """#L(P + Q) and #L(P + (-Q)) from the mixed area, against the count of
    the built sum, near the origin and 10^9 away."""
    for a, b in ((p, q), (p.translate(shift_p), q.translate(shift_q))):
        for r in (b, b.reflect()):
            assert minkowski_lattice_point_count(a, r) == minkowski_sum(a, r).lattice_point_count


def test_pick_identity_corpus():
    rng = random.Random(101)
    for _ in range(200):
        poly = random_polygon(rng, max_coord=9)
        area2 = shoelace_area_twice(poly)
        b = poly.boundary_lattice_point_count
        assert 2 * poly.lattice_point_count == area2 + b + 2


def test_ehrhart_reciprocity_corpus():
    rng = random.Random(202)
    for _ in range(200):
        poly = random_polygon(rng, max_coord=6)
        a, b, c = ehrhart_quadratic(poly)
        for k in (1, 2, 3):
            value = a * k * k + b * k + c
            assert value == dilate(poly, k).lattice_point_count
            reciprocal = a * k * k - b * k + c
            assert reciprocal == dilate(poly, k).interior_lattice_point_count


def test_minkowski_edge_law_corpus():
    rng = random.Random(303)
    for _ in range(150):
        a = random_polygon(rng, max_coord=7)
        b = random_polygon(rng, max_coord=7)
        total = minkowski_sum(a, b)
        merged: dict = {}
        for poly in (a, b):
            for key, mult in edge_direction_multiset(poly).items():
                merged[key] = merged.get(key, 0) + mult
        assert edge_direction_multiset(total) == merged


@functools.lru_cache(maxsize=1)
def _structured_corpus():
    return tuple(structured_oracle_pairs(random.Random(404), 120))


@functools.lru_cache(maxsize=1)
def _random_corpus():
    return tuple(component_oracle_pairs(random.Random(414), 60))


def test_component_oracle_structured_corpus():
    """Arc counting against the quarter-grid flood fill on pipeline shapes,
    and the closed-form total against the per-translate sweep on the same
    pairs."""
    for p, qp, expected in _structured_corpus():
        got = difference_components(p, qp).components
        assert got == max(1, expected), (p.vertices, qp.vertices, got, expected)
        assert total_or_containment(reduced_component_total, p, qp) == total_or_containment(
            brute_force_component_total, p, qp
        )


def test_component_oracle_random_corpus():
    """Arc counting against the flood fill on grid-faithful random pairs,
    and the closed-form total against the per-translate sweep on the same
    pairs."""
    for p, qp, expected in _random_corpus():
        got = difference_components(p, qp).components
        assert got == max(1, expected), (p.vertices, qp.vertices, got, expected)
        assert total_or_containment(reduced_component_total, p, qp) == total_or_containment(
            brute_force_component_total, p, qp
        )


def _segment_meets(a, b, poly: LatticePolygon) -> bool:
    """Whether the closed segment [a, b] meets the closed convex polygon:
    no edge normal of either separates them (separating axes)."""
    axes = [(d.y - c.y, c.x - d.x) for c, d in poly.edges] + [(b.y - a.y, a.x - b.x)]
    for nx, ny in axes:
        seg = (nx * a.x + ny * a.y, nx * b.x + ny * b.y)
        pol = [nx * v.x + ny * v.y for v in poly.vertices]
        if max(seg) < min(pol) or max(pol) < min(seg):
            return False
    return True


def test_block_count_is_edge_meets_minus_vertex_inside():
    """The lemma behind the closed-form total and ``difference_components``:
    while Q' does not contain P, the covered arcs of the boundary of P
    number sum_i ([e_i meets Q'] - [v_i in Q']).  At every zone translate of
    both oracle corpora, the fraction-interval merge agrees with the lemma
    (by a separating-axis test written here) and with
    ``difference_components``."""
    checked = 0
    for p, qp, _ in _structured_corpus() + _random_corpus():
        clips = _clip_rows(p, qp)
        for m in lattice_points(minkowski_sum(p, qp.reflect())):
            moved = qp.translate(m)
            if contains_polygon(moved, p):
                continue
            oracle = _covered_block_count(clips, m.x, m.y)
            starts = sum(_segment_meets(a, b, moved) - contains_point(moved, a) for a, b in p.edges)
            assert oracle == starts, (p, qp, m)
            assert difference_components(p, moved).components == max(1, oracle), (p, qp, m)
            checked += 1
    assert checked > 10_000


def test_translate_total_unimodular_invariance():
    rng = random.Random(505)
    done = 0
    while done < 30:
        p = random_polygon(rng, max_coord=6)
        q = random_polygon(rng, max_coord=4)
        if contains_lattice_translate(p, q) is not None:
            continue
        h = reduced_component_total(p, q)
        matrix = random_unimodular(rng)
        shift = (rng.randint(-3, 3), rng.randint(-3, 3))
        p2 = apply_unimodular(p, matrix, shift)
        q2 = apply_unimodular(q, matrix, shift)
        assert reduced_component_total(p2, q2) == h
        assert is_lattice_equivalent(p, p2)
        done += 1
