import random
import time
from math import gcd
from typing import Optional

import pytest

from sostransfer import lattice
from sostransfer.lattice import (
    DegeneratePolygonError,
    EmptyPointSetError,
    LatticeGeometryError,
    MAX_SWEEP_ROWS,
    LatticePoint,
    LatticePolygon,
    TranslateContainmentError,
    contains_lattice_translate,
    inside_translate_count,
    is_lawrence_prism,
    is_twice_unit_triangle,
    minkowski_lattice_point_count,
    minkowski_sum,
    rectangle,
    veronese_triangle,
    wide_prism,
)
from sostransfer.toric import iter_convex_subpolygons, reduced_component_total

from conftest import (
    TWICE_UNIT_TRIANGLE,
    ComponentCount,
    EmptyDifferenceError,
    _clip_rows,
    _covered_block_count,
    apply_unimodular,
    brute_force_component_total,
    brute_force_contains_translate,
    brute_force_inside_count,
    brute_force_interior_count,
    brute_force_lattice_count,
    component_oracle_pairs,
    contains_polygon,
    difference_components,
    dilate,
    event_segments,
    fraction_covered_arcs,
    full_hull,
    hull_minkowski_sum,
    is_lattice_equivalent,
    plan_corpus,
    random_polygon,
    random_unimodular,
    scaled,
    standard_prism,
    structured_oracle_pairs,
    total_or_containment,
)

FIGURE_PRISM = LatticePolygon([(0, 0), (3, 0), (2, 1), (0, 1)])


class TestConvexHull:
    def test_point_on_edge_is_dropped(self):
        poly = LatticePolygon([(0, 0), (2, 0), (0, 2), (1, 1)])
        assert poly.vertices == (LatticePoint(0, 0), LatticePoint(2, 0), LatticePoint(0, 2))

    def test_single_point(self):
        for verts in ([(0, 0)], [(2, 5), (2, 5)]):
            with pytest.raises(DegeneratePolygonError, match="a point or a segment"):
                LatticePolygon(verts)

    def test_quadrilateral_keeps_all_vertices(self):
        poly = LatticePolygon([(0, 0), (3, 0), (2, 1), (0, 1)])
        assert len(poly.vertices) == 4

    def test_empty_input(self):
        with pytest.raises(EmptyPointSetError, match="empty point set"):
            LatticePolygon([])

    def test_idempotent_on_canonical(self):
        poly = LatticePolygon([(0, 0), (3, 0), (2, 1), (0, 1)])
        assert LatticePolygon(poly.vertices) == poly

    def test_rejects_non_integers(self):
        with pytest.raises(LatticeGeometryError):
            LatticePolygon([(0, 0), (0.5, 0)])

    def test_translate_takes_integer_vectors_only(self):
        tri = veronese_triangle(3)
        for vector in ((0.5, 0), (True, 0), (0, False)):
            with pytest.raises(LatticeGeometryError, match="non-integer coordinates"):
                tri.translate(vector)
        assert tri.translate((2, -1)) == LatticePolygon([(2, -1), (5, -1), (2, 2)])
        assert tri.translate(LatticePoint(2, -1)).lattice_point_count == tri.lattice_point_count

    def test_a_point_must_be_a_pair(self):
        tri = veronese_triangle(3)
        cases = (
            (lambda: tri.translate((1, 2, 3)), r"integer pair, got \(1, 2, 3\)"),
            (lambda: tri.translate(5), "integer pair, got 5"),
            (lambda: LatticePolygon([(1, 2, 3)]), r"integer pair, got \(1, 2, 3\)"),
        )
        for call, message in cases:
            with pytest.raises(LatticeGeometryError, match=message):
                call()
        # the value is quoted briefly
        with pytest.raises(LatticeGeometryError) as err:
            tri.translate(tuple(range(1000)))
        assert len(str(err.value)) < 100

    def test_collinear_input_is_refused(self):
        for verts in ([(0, 0), (1, 1), (3, 3)], [(3, 3), (0, 0), (2, 2), (0, 0)], [(0, 0), (3, 0)]):
            with pytest.raises(DegeneratePolygonError, match="a point or a segment"):
                LatticePolygon(verts)
        with pytest.raises(DegeneratePolygonError):
            LatticePolygon.from_json_dict({"vertices": [[0, 0], [2, 2]]})

    def test_degenerate_shapes_are_refused(self):
        # each constructor refuses the arguments that would give a point or a segment
        for build, args in ((veronese_triangle, (0,)), (wide_prism, (0, 0))):
            with pytest.raises(LatticeGeometryError):
                build(*args)
        for build, args in ((rectangle, (0, 3)), (rectangle, (2, 0))):
            with pytest.raises(DegeneratePolygonError):
                build(*args)


class TestDilate:
    def test_unit_square_doubles(self):
        assert dilate(rectangle(1, 1), 2) == rectangle(2, 2)

    def test_degree_five_triangle(self):
        assert dilate(veronese_triangle(1), 5) == veronese_triangle(5)

    def test_zero_is_refused(self):
        # 0P is a point, so the dilation factor must be positive
        with pytest.raises(LatticeGeometryError, match="positive"):
            dilate(rectangle(3, 2), 0)

    def test_identity(self):
        assert dilate(FIGURE_PRISM, 1) == FIGURE_PRISM


class TestMinkowskiSum:
    def test_squares(self):
        assert minkowski_sum(rectangle(2, 2), rectangle(1, 1)) == rectangle(3, 3)

    def test_triangle_plus_prism_is_cut_trapezoid(self):
        total = minkowski_sum(veronese_triangle(5), FIGURE_PRISM)
        assert total == LatticePolygon([(0, 0), (8, 0), (2, 6), (0, 6)])
        # pinned counts for this region: interior 20, boundary 22
        assert total.lattice_point_count == 42
        assert total.interior_lattice_point_count == 20

    def test_commutative(self):
        a, b = veronese_triangle(3), FIGURE_PRISM
        assert minkowski_sum(a, b) == minkowski_sum(b, a)


class TestCounting:
    def test_square_counts(self):
        assert rectangle(2, 2).lattice_point_count == 9
        assert rectangle(3, 3).interior_lattice_point_count == 4

    def test_doubled_prism_count(self):
        assert dilate(FIGURE_PRISM, 2).lattice_point_count == 18

    def test_segment_count(self):
        # a segment has no polygon to count: the hull refuses it
        with pytest.raises(DegeneratePolygonError):
            LatticePolygon([(0, 0), (3, 0)])

    def test_trapezoid_interior(self):
        total = minkowski_sum(veronese_triangle(5), FIGURE_PRISM)
        assert total.interior_lattice_point_count == 20

    def test_unit_triangle_interior(self):
        assert veronese_triangle(1).interior_lattice_point_count == 0


class TestTranslateSearch:
    def test_unit_square_inside_bigger(self):
        assert contains_lattice_translate(rectangle(1, 1), rectangle(2, 2)) == LatticePoint(0, 0)

    def test_bigger_square_does_not_fit(self):
        assert contains_lattice_translate(rectangle(2, 2), rectangle(1, 1)) is None

    def test_triangle_does_not_fit_in_prism(self):
        assert contains_lattice_translate(veronese_triangle(5), FIGURE_PRISM) is None

    def test_shifted_witness(self):
        target = rectangle(2, 2).translate((5, 7))
        assert contains_lattice_translate(rectangle(1, 1), target) == LatticePoint(5, 7)

    def test_witness_on_the_first_row_ends_the_scan(self):
        # the tall triangle's box has 10**6 rows, but (0, 0) is already the
        # least witness, so no row after the first is scanned
        tall = LatticePolygon([(0, 0), (1, 0), (0, 10**6)])
        start = time.perf_counter()
        assert contains_lattice_translate(veronese_triangle(1), tall) == LatticePoint(0, 0)
        assert time.perf_counter() - start < 0.1

    def test_sliver_is_scanned_by_rows(self):
        # P = 2Δ against a sliver of height M: the box has about M² translates
        # but only M rows.
        m = 10**4
        sliver = LatticePolygon([(0, 0), (m, m), (m, m - 1)])
        start = time.perf_counter()
        assert contains_lattice_translate(veronese_triangle(2), sliver) is None
        assert time.perf_counter() - start < 1.0

    def test_tall_box_is_refused_up_front(self):
        # the same sliver at height n: its box has n - 1 rows and no witness,
        # so past the row budget the scan is refused before its first row
        for n in (MAX_SWEEP_ROWS + 2, 10**12):
            sliver = LatticePolygon([(0, 0), (n, n), (n, n - 1)])
            start = time.perf_counter()
            with pytest.raises(LatticeGeometryError, match="rows"):
                contains_lattice_translate(veronese_triangle(2), sliver)
            assert time.perf_counter() - start < 1.0


def _point_set(rng: random.Random, size: int) -> Optional[LatticePolygon]:
    """The hull of one to six random points, or None when it is a point or a
    segment."""
    return full_hull([(rng.randint(0, size), rng.randint(0, size)) for _ in range(rng.randint(1, 6))])


class TestTranslateScanOracle:
    """The row scan, witness included, against the box scan of every translate."""

    def test_random_pairs(self):
        rng = random.Random(7070)
        found = missed = 0
        for _ in range(2500):
            p = _point_set(rng, 4)
            q = _point_set(rng, 8) if rng.random() < 0.3 else random_polygon(rng, max_coord=8)
            shift = (rng.randint(-3, 3), rng.randint(-3, 3))
            if p is None or q is None:
                continue
            q = q.translate(shift)
            witness = brute_force_contains_translate(p, q)
            assert contains_lattice_translate(p, q) == witness, (p, q)
            found += witness is not None
            missed += witness is None
        assert found > 500 and missed > 500

    def test_far_translated_pairs(self):
        rng = random.Random(7171)
        for _ in range(400):
            far = rng.choice((10**6, 10**9))
            p = _point_set(rng, 3)
            shift = (rng.randint(-far, far), rng.randint(-far, far))
            q = random_polygon(rng, max_coord=7).translate((rng.randint(-far, far), rng.randint(-far, far)))
            if p is None:
                continue
            p = p.translate(shift)
            witness = brute_force_contains_translate(p, q)
            assert contains_lattice_translate(p, q) == witness, (p, q)
            if witness is not None:
                assert contains_polygon(q, p.translate(witness))

    def test_degenerate_p(self):
        # a point or a segment P never reaches the scan: the hull refuses it
        rng = random.Random(7272)
        for _ in range(300):
            a = (rng.randint(-2, 7), rng.randint(-2, 4))
            b = (rng.randint(-2, 7), rng.randint(-2, 4))
            for verts in ([a], [a, b]):
                with pytest.raises(DegeneratePolygonError):
                    LatticePolygon(verts)


class TestDifferenceComponents:
    def test_disjoint_translate(self):
        far = FIGURE_PRISM.translate((40, 40))
        assert difference_components(veronese_triangle(5), far) == ComponentCount(1, 0)

    def test_square_difference_connected(self):
        assert difference_components(rectangle(2, 2), rectangle(1, 1)) == ComponentCount(1, 0)

    def test_separating_translate(self):
        cut = FIGURE_PRISM.translate((0, 2))
        assert difference_components(veronese_triangle(5), cut) == ComponentCount(2, 1)

    def test_slab_through_square(self):
        slab = LatticePolygon([(-1, 1), (4, 1), (4, 2), (-1, 2)])
        assert difference_components(rectangle(3, 3), slab).components == 2

    def test_empty_difference_rejected(self):
        with pytest.raises(EmptyDifferenceError):
            difference_components(rectangle(1, 1), rectangle(2, 2))

    def test_degenerate_rejected(self):
        # a segment never reaches the difference: the hull refuses it
        with pytest.raises(DegeneratePolygonError):
            LatticePolygon([(0, 0), (1, 0)])

    def test_corner_touch_disconnects(self):
        # removing a block that owns the only meeting point separates the
        # two remaining triangles (closed-minus-closed semantics)
        p = LatticePolygon([(0, 0), (4, 0), (4, 4), (0, 4)])
        q = LatticePolygon([(0, 1), (3, 0), (4, 3), (1, 4)])
        assert difference_components(p, q).components == 4


class TestReducedComponentTotal:
    def test_squares_total_zero(self):
        assert reduced_component_total(rectangle(2, 2), rectangle(1, 1)) == 0

    def test_prism_total_three(self):
        assert reduced_component_total(veronese_triangle(5), FIGURE_PRISM) == 3

    def test_triangle_pair_zero(self):
        assert reduced_component_total(veronese_triangle(5), veronese_triangle(3)) == 0

    def test_hypothesis_violation(self):
        with pytest.raises(TranslateContainmentError):
            reduced_component_total(rectangle(1, 1), rectangle(2, 2))


class TestInsideTranslateCount:
    """N_in, the translates of Q inside int P, against the count of every
    translate whose vertices all lie strictly inside P."""

    @staticmethod
    def _agree(p, q):
        got = total_or_containment(inside_translate_count, p, q)
        assert got == total_or_containment(brute_force_inside_count, p, q), (p, q)
        return got

    def test_oracle_pairs(self):
        # each pair both ways round: small P against large Q is refused
        pairs = [*component_oracle_pairs(random.Random(707), 20), *structured_oracle_pairs(random.Random(717), 120)]
        counts = [self._agree(a, b) for p, qp, _ in pairs for a, b in ((p, qp), (qp, p))]
        assert sum(c == "containment" for c in counts) >= 80
        assert sum(c not in ("containment", 0) for c in counts) >= 35

    def test_containment_is_refused(self):
        with pytest.raises(TranslateContainmentError, match="translate containment"):
            inside_translate_count(rectangle(1, 1), rectangle(2, 2))

    def test_degenerate_input_is_refused(self):
        # a segment or a point never reaches the count: the hull refuses it
        for verts in ([(0, 0), (3, 1)], [(2, 2)]):
            with pytest.raises(DegeneratePolygonError, match="a point or a segment"):
                LatticePolygon(verts)


def _steep_polygon(rng: random.Random) -> LatticePolygon:
    """A random polygon in a box of width 2..3 and height up to 13, upright
    or on its side, so that most edge normals have |nx| > 1."""
    while True:
        w, hgt = rng.randint(2, 3), rng.randint(5, 13)
        pts = [(rng.randint(0, w), rng.randint(0, hgt)) for _ in range(rng.randint(3, 6))]
        if rng.random() < 0.5:
            pts = [(y, x) for x, y in pts]
        poly = full_hull(pts)
        if poly is not None:
            return poly


class TestRowSweepOracle:
    """The closed-form total against the per-translate sweep."""

    def test_steep_edge_corpus(self):
        rng = random.Random(606)
        scaled = 0
        for _ in range(150):
            p, q = _steep_polygon(rng), _steep_polygon(rng)
            got = total_or_containment(reduced_component_total, p, q)
            assert got == total_or_containment(brute_force_component_total, p, q), (p, q)
            scaled += max(a for a, *_ in event_segments(p, q)) > 1
        assert scaled >= 100  # most pairs have breakpoints off the lattice

    def test_far_from_origin_corpus(self):
        rng = random.Random(616)
        for _ in range(150):
            p = random_polygon(rng, max_coord=rng.choice((5, 9)))
            q = random_polygon(rng, max_coord=rng.choice((3, 6)))
            far = 10 ** rng.randint(6, 9)
            pm = p.translate((rng.randint(-far, far), rng.randint(-far, far)))
            qm = q.translate((rng.randint(-far, far), rng.randint(-far, far)))
            got = total_or_containment(reduced_component_total, pm, qm)
            assert got == total_or_containment(brute_force_component_total, pm, qm), (pm, qm)
            # the total runs over all translates of Q, so it ignores both shifts
            assert got == total_or_containment(reduced_component_total, p, q)

    def test_containment_raised_alike(self):
        rng = random.Random(626)
        raised = 0
        for _ in range(200):
            p = random_polygon(rng, max_coord=3)
            q = random_polygon(rng, max_coord=7)
            got = total_or_containment(reduced_component_total, p, q)
            assert got == total_or_containment(brute_force_component_total, p, q), (p, q)
            raised += got == "containment"
        assert raised >= 50


def _random_in_box(rng: random.Random, width: int, height: int) -> LatticePolygon:
    while True:
        pts = [(rng.randint(0, width), rng.randint(0, height)) for _ in range(rng.randint(3, 6))]
        poly = full_hull(pts)
        if poly is not None:
            return poly


_FEW_DIRECTIONS = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2)]


def _few_direction_polygon(rng: random.Random) -> LatticePolygon:
    """A polygon whose edges mostly run along a handful of directions, so
    that edges of two such polygons are often parallel."""
    while True:
        pts = [(0, 0)]
        for dx, dy in sorted(rng.sample(_FEW_DIRECTIONS, 3)):
            t = rng.randint(1, 4)
            pts.append((pts[-1][0] + t * dx, pts[-1][1] + t * dy))
        poly = full_hull(pts + [(x + rng.randint(0, 2), y) for x, y in pts])
        if poly is not None:
            return poly


def _crossing_between_rows(p: LatticePolygon, q: LatticePolygon) -> bool:
    """Whether two event segments cross strictly between two rows."""
    segs = list(event_segments(p, q))
    for i, (a1, b1, k1, lo1, hi1) in enumerate(segs):
        for a2, b2, k2, lo2, hi2 in segs[i + 1:]:
            num, det = a1 * k2 - a2 * k1, a1 * b2 - a2 * b1  # the lines meet at my = num / det
            if det < 0:
                num, det = -num, -det
            if det and num % det and max(lo1, lo2) * det < num < min(hi1, hi2) * det:
                return True
    return False


def _coincident_segments(p: LatticePolygon, q: LatticePolygon) -> bool:
    """Whether two event segments on one line overlap in more than a row."""
    by_line: dict = {}
    for a, b, k, y0, y1 in event_segments(p, q):
        by_line.setdefault((a, b, k), []).append((y0, y1))
    return any(
        max(r[0], s[0]) < min(r[1], s[1])
        for spans in by_line.values()
        for i, r in enumerate(spans)
        for s in spans[i + 1:]
    )


class TestReuseSweepOracle:
    """The closed-form total against the per-translate sweep on tall zones,
    on event segments crossing between rows and on parallel edges."""

    @staticmethod
    def _agree(p, q):
        got = total_or_containment(reduced_component_total, p, q)
        assert got == total_or_containment(brute_force_component_total, p, q), (p, q)
        return got

    def test_tall_zones_share_signatures(self):
        rng = random.Random(636)
        for _ in range(80):
            p = _random_in_box(rng, rng.randint(1, 4), rng.randint(40, 120))
            q = random_polygon(rng, max_coord=rng.choice((2, 3)))
            self._agree(p, q)
        # the total is a closed form: src has no per-translate block count
        assert not hasattr(lattice, "difference_components")

    def test_near_horizontal_edges_cross_between_rows(self):
        rng = random.Random(646)
        crossing = 0
        for _ in range(150):
            p = _random_in_box(rng, rng.randint(10, 20), rng.randint(1, 3))
            q = _random_in_box(rng, rng.randint(5, 12), rng.randint(1, 2))
            self._agree(p, q)
            crossing += _crossing_between_rows(p, q)
        assert crossing >= 100

    def test_coincident_segments_from_parallel_edges(self):
        rng = random.Random(656)
        coincident = raised = 0
        for _ in range(150):
            p, q = _few_direction_polygon(rng), _few_direction_polygon(rng)
            raised += self._agree(p, q) == "containment"
            coincident += _coincident_segments(p, q)
        assert coincident >= 60
        assert raised >= 5


class TestPickCounts:
    """Pick's closed form against the scan of the bounding box."""

    @staticmethod
    def _agree(poly):
        assert poly.lattice_point_count == brute_force_lattice_count(poly), poly
        assert poly.interior_lattice_point_count == brute_force_interior_count(poly), poly

    def test_random_polygons(self):
        rng = random.Random(666)
        for _ in range(300):
            self._agree(random_polygon(rng, max_coord=rng.choice((3, 9, 15))))

    def test_far_translated(self):
        rng = random.Random(676)
        for _ in range(150):
            far = 10 ** rng.randint(6, 9)
            poly = random_polygon(rng, max_coord=9).translate((rng.randint(-far, far), rng.randint(-far, far)))
            self._agree(poly)

    def test_thin_polygons(self):
        rng = random.Random(686)
        for _ in range(150):
            poly = _random_in_box(rng, rng.randint(1, 2), rng.randint(10, 300))
            self._agree(poly if rng.random() < 0.5 else apply_unimodular(poly, ((0, 1), (1, 0))))

    def test_degenerate(self):
        # a point or a segment has no Pick count: the hull refuses it
        for verts in ([(3, 4)], [(0, 0), (6, 4)], [(-2, 5), (-2, 9)]):
            with pytest.raises(DegeneratePolygonError):
                LatticePolygon(verts)

    def test_tall_triangle_counts_at_once(self):
        # P = conv{(0,0), (1,0), (0,n)} and P + 2Δ = conv{(0,0), (3,0), (2,n), (0,n+2)}
        def counts(n):
            p = LatticePolygon([(0, 0), (1, 0), (0, n)])
            s = minkowski_sum(p, veronese_triangle(2))
            if n < 40:
                self._agree(p)
                self._agree(s)
            return p.lattice_point_count, p.interior_lattice_point_count, s.lattice_point_count, s.interior_lattice_point_count

        for n in range(1, 40):
            assert counts(n) == (n + 2, 0, 3 * n + 7, 2 * n - 1)
        n = 10**12
        start = time.perf_counter()
        got = counts(n)
        assert time.perf_counter() - start < 1.0
        assert got == (n + 2, 0, 3 * n + 7, 2 * n - 1)


class TestDerivedPolygons:
    """Edge-merge Minkowski sums, reflections and dilations against hulls."""

    def test_against_hulls(self):
        rng = random.Random(696)

        def draw():
            # a point or a segment still takes its draws, so the polygons
            # after it come from a fixed stream; the hull refuses it (None)
            c = rng.random()
            if c < 0.15:  # a point
                return full_hull([(rng.randint(-5, 5), rng.randint(-5, 5))])
            if c < 0.35:  # a segment
                x, y, dx, dy = (rng.randint(-5, 5) for _ in range(4))
                return full_hull([(x, y), (x + dx * rng.randint(1, 3), y + dy * rng.randint(1, 3))])
            poly = random_polygon(rng, max_coord=rng.choice((2, 6, 10)))
            return poly.translate((rng.randint(-10**9, 10**9), rng.randint(-10**9, 10**9))) if c > 0.9 else poly

        for _ in range(2000):
            p, q = draw(), draw()
            if p is not None and q is not None:
                assert minkowski_sum(p, q).vertices == hull_minkowski_sum(p, q).vertices, (p, q)
            k = rng.randint(0, 4)
            if p is None:
                continue
            assert p.reflect().vertices == LatticePolygon([-v for v in p.vertices]).vertices, p
            assert p.reflect() is p.reflect()
            if k:  # 0P is a point
                assert dilate(p, k).vertices == LatticePolygon([scaled(v, k) for v in p.vertices]).vertices, (p, k)


class TestMinkowskiCounts:
    """#L(P + Q) and #L(P + (-Q)) from areas and boundary counts, against
    the count of the built sum."""

    @staticmethod
    def _agree(p, q):
        for r in (q, q.reflect()):
            assert minkowski_lattice_point_count(p, r) == minkowski_sum(p, r).lattice_point_count, (p, r)

    def test_plan_corpus_pairs(self):
        shapes = plan_corpus(random.Random(77))
        for p in shapes:
            for q in shapes:
                self._agree(p, q)

    def test_far_translated(self):
        rng = random.Random(7373)
        for _ in range(300):
            p, q = (
                random_polygon(rng, max_coord=rng.choice((3, 9, 1000))).translate(
                    (rng.randint(-(10**12), 10**12), rng.randint(-(10**12), 10**12))
                )
                for _ in range(2)
            )
            self._agree(p, q)

    def test_slivers(self):
        # long thin triangles and their unimodular images, against each other
        # and against small shapes; the sums have up to about 10^12 rows
        rng = random.Random(7474)
        small = [veronese_triangle(2), rectangle(1, 1), FIGURE_PRISM]
        for n in (1, 2, 7, 10**4, 10**12):
            slivers = [
                LatticePolygon([(0, 0), (n, n), (n, n - 1)]),
                LatticePolygon([(0, 0), (n, 0), (0, 1)]),
                LatticePolygon([(0, 0), (1, 0), (0, n)]),
            ]
            slivers += [apply_unimodular(s, random_unimodular(rng)) for s in slivers]
            for s in slivers:
                for q in small + slivers:
                    self._agree(s, q)
                    self._agree(q, s)

    def test_degenerate_inputs_are_refused(self):
        # a point or a segment never reaches the counts: the hull refuses it
        for verts in ([(1, 1)], [(0, 0), (3, 2)]):
            with pytest.raises(DegeneratePolygonError):
                LatticePolygon(verts)


class TestExactArcOrder:
    """Arc counts at coordinates where float positions along the boundary
    collide, against an oracle that sorts by Fraction keys."""

    @pytest.mark.parametrize("shift", [10**7, 10**8, 10**9])
    def test_slivers_at_a_vertex(self, shift):
        n = m = 10**9
        p = LatticePolygon([(0, 0), (n, 0), (0, n)]).translate((shift, -3 * shift))
        slivers = (
            [(n - 1, m), (n + 1, -m - 1), (n + m, 0)],  # covers the vertex (n, 0)
            [(n - 1, m), (n + 1, -m - 2), (n + 1, -m - 1)],  # passes just inside it
        )
        for verts in slivers:
            qp = LatticePolygon(verts).translate((shift, -3 * shift))
            arcs, starts = fraction_covered_arcs(p, qp)
            # distinct exact starts that one float key cannot tell apart
            assert any(a != b and float(a) == float(b) for a, b in zip(starts, starts[1:]))
            assert _covered_block_count(_clip_rows(p, qp), 0, 0) == arcs
            assert difference_components(p, qp).components == max(1, arcs)


class TestLatticeEquivalence:
    def test_translation(self):
        assert is_lattice_equivalent(rectangle(1, 1), rectangle(1, 1).translate((5, 7)))

    def test_different_dilations(self):
        assert not is_lattice_equivalent(veronese_triangle(1), veronese_triangle(2))

    def test_sheared_prism(self):
        p = LatticePolygon([(0, 0), (1, 0), (3, 1), (0, 1)])
        assert is_lattice_equivalent(p, standard_prism(3, 1))
        assert is_lattice_equivalent(p, apply_unimodular(standard_prism(3, 1), ((-1, 0), (0, 1))))

    def test_figure_prism_vs_standard(self):
        assert is_lattice_equivalent(FIGURE_PRISM, standard_prism(3, 2))

    def test_reflection_detected(self):
        p = LatticePolygon([(0, 0), (2, 0), (1, 3)])
        assert is_lattice_equivalent(p, apply_unimodular(p, ((-1, 0), (0, 1)), (5, 5)))


class TestLawrencePrism:
    def test_unit_square(self):
        assert is_lawrence_prism(rectangle(1, 1)) == (1, 1)

    def test_standard_heights(self):
        assert is_lawrence_prism(LatticePolygon([(0, 0), (1, 0), (0, 3), (1, 2)])) == (3, 2)

    def test_twice_unit_triangle_is_not(self):
        assert is_lawrence_prism(veronese_triangle(2)) is None
        assert is_twice_unit_triangle(veronese_triangle(2))

    def test_unit_triangle(self):
        assert is_lawrence_prism(veronese_triangle(1)) == (1, 0)

    def test_twice_a_wider_empty_triangle_is_not_2delta(self):
        # Every edge has lattice length 2, but the halved triangle
        # (0,0), (1,0), (-1,3) has twice-area 3, not 1.
        p = LatticePolygon([(0, 0), (2, 0), (-2, 6)])
        assert all(gcd(b.x - a.x, b.y - a.y) == 2 for a, b in p.edges)
        assert not is_twice_unit_triangle(p)
        assert not is_lattice_equivalent(p, TWICE_UNIT_TRIANGLE)

    def test_interior_point_disqualifies(self):
        assert is_lawrence_prism(veronese_triangle(3)) is None

    def test_wide_matches_standard(self):
        for h1 in range(1, 5):
            for h2 in range(0, h1 + 1):
                poly = wide_prism(h1, h2)
                assert is_lawrence_prism(poly) == (h1, h2)
                assert is_lattice_equivalent(poly, standard_prism(h1, h2))


class TestTerminalInvariantsOracle:
    """Both terminal tests against the lattice-equivalence search, on every
    convex polygon in 5Δ and a unimodular image of each."""

    def test_against_lattice_equivalence(self):
        rng = random.Random(8080)
        prisms = [((h1, h2), standard_prism(h1, h2)) for h1 in range(1, 6) for h2 in range(h1 + 1)]
        polys = list(iter_convex_subpolygons(5))
        images = [
            apply_unimodular(q, random_unimodular(rng), (rng.randint(-9, 9), rng.randint(-9, 9))) for q in polys
        ]
        kinds = {"prism": 0, "2Δ": 0}
        for poly in polys + images:
            expected = next((h for h, prism in prisms if is_lattice_equivalent(poly, prism)), None)
            assert is_lawrence_prism(poly) == expected, poly
            twice = is_lattice_equivalent(poly, TWICE_UNIT_TRIANGLE)
            assert is_twice_unit_triangle(poly) == twice, poly
            kinds["prism"] += expected is not None
            kinds["2Δ"] += twice
        assert kinds["prism"] > 100 and kinds["2Δ"] > 10


class TestJson:
    def test_round_trip(self):
        data = FIGURE_PRISM.to_json_dict()
        assert data == {"vertices": [[0, 0], [3, 0], [2, 1], [0, 1]]}
        assert LatticePolygon.from_json_dict(data) == FIGURE_PRISM

    def test_reader_canonicalizes(self):
        poly = LatticePolygon.from_json_dict({"vertices": [[1, 1], [0, 0], [1, 0], [0, 1]]})
        assert poly == rectangle(1, 1)
