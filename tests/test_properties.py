"""Property tests for the exact geometry layer.

Structural invariants run under hypothesis; the heavier randomized corpora
(grid oracle for component counts, unimodular invariance of the translate
total) use seeded generators from conftest.
"""

import random

from hypothesis import given, settings, strategies as st

from sostransfer.lattice import (
    LatticePolygon,
    contains_lattice_translate,
    difference_components,
    dilate,
    is_lawrence_prism,
    minkowski_sum,
    reduced_component_total,
    standard_prism,
)

from conftest import (
    brute_force_component_total,
    brute_force_interior_count,
    brute_force_lattice_count,
    edges_share_a_line,
    ehrhart_quadratic,
    flood_fill_components,
    is_lattice_equivalent,
    random_polygon,
    random_unimodular,
    shoelace_area_twice,
    total_or_containment,
)

point_lists = st.lists(
    st.tuples(st.integers(min_value=-6, max_value=6), st.integers(min_value=-6, max_value=6)),
    min_size=1,
    max_size=8,
)


@given(point_lists)
def test_hull_idempotent_and_contains_input(pts):
    poly = LatticePolygon(pts)
    assert LatticePolygon(poly.vertices) == poly
    assert all(poly.contains_point(p) for p in pts)


@given(point_lists)
def test_counts_match_brute_force(pts):
    poly = LatticePolygon(pts)
    assert poly.lattice_point_count == brute_force_lattice_count(poly)
    assert poly.interior_lattice_point_count == brute_force_interior_count(poly)


@given(point_lists, point_lists)
def test_minkowski_contains_all_sums(pts_a, pts_b):
    a, b = LatticePolygon(pts_a), LatticePolygon(pts_b)
    total = minkowski_sum(a, b)
    for p in a.vertices:
        for q in b.vertices:
            assert total.contains_point(p + q)


@given(point_lists, st.integers(min_value=0, max_value=4))
def test_dilation_counts_monotone(pts, k):
    poly = LatticePolygon(pts)
    assert dilate(poly, k).lattice_point_count >= (1 if k == 0 else poly.lattice_point_count)


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5))
def test_prism_recognition_round_trip(h1, h2):
    poly = standard_prism(max(h1, h2), min(h1, h2))
    got = is_lawrence_prism(poly)
    if poly.dim == 2:
        assert got == (max(h1, h2), min(h1, h2))


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
            for key, mult in poly.edge_direction_multiset.items():
                merged[key] = merged.get(key, 0) + mult
        assert total.edge_direction_multiset == merged


def test_component_oracle_structured_corpus():
    """Arc counting against the quarter-grid flood fill on pipeline shapes,
    and the row sweep against the per-translate sweep on the same pairs."""
    rng = random.Random(404)
    from conftest import structured_oracle_pairs

    for p, qp, expected in structured_oracle_pairs(rng, 120):
        got = difference_components(p, qp).components
        assert got == max(1, expected), (p.vertices, qp.vertices, got, expected)
        assert total_or_containment(reduced_component_total, p, qp) == total_or_containment(
            brute_force_component_total, p, qp
        )


def test_component_oracle_random_corpus():
    """Arc counting against the flood fill on grid-faithful random pairs,
    and the row sweep against the per-translate sweep on the same pairs."""
    rng = random.Random(414)
    from conftest import component_oracle_pairs

    for p, qp, expected in component_oracle_pairs(rng, 60):
        got = difference_components(p, qp).components
        assert got == max(1, expected), (p.vertices, qp.vertices, got, expected)
        assert total_or_containment(reduced_component_total, p, qp) == total_or_containment(
            brute_force_component_total, p, qp
        )


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
        p2 = p.apply_unimodular(matrix, shift)
        q2 = q.apply_unimodular(matrix, shift)
        assert reduced_component_total(p2, q2) == h
        assert is_lattice_equivalent(p, p2)
        done += 1
