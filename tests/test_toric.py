import hashlib
import json
import random
import time
from dataclasses import replace

import pytest

from sostransfer.lattice import (
    MAX_SWEEP_ROWS,
    LatticeGeometryError,
    LatticePolygon,
    TranslateContainmentError,
    rectangle,
    veronese_triangle,
    wide_prism,
)
from sostransfer import toric
from sostransfer.cli import run
from sostransfer.toric import (
    NoPlanError,
    PipelineStepError,
    PlanStep,
    ToricTransferError,
    TransferVerdict,
    hilbert_classic_bound,
    hilbert_classic_plan,
    improved_ternary_bound,
    iter_convex_subpolygons,
    plan_to_json_dict,
    plan_transfer,
    transfer_check,
    trapezoid,
)

from conftest import (
    brute_force_component_total,
    built_polygon_verdict,
    dilate,
    full_hull,
    lattice_points,
    plan_corpus,
    random_polygon,
    total_or_containment,
    veronese_step_counts,
)

FIGURE_PRISM = LatticePolygon([(0, 0), (3, 0), (2, 1), (0, 1)])


def replay_plan(plan):
    for step in plan.steps:
        assert built_polygon_verdict(step.p, step.q) == step.verdict
        assert step.verdict.holds
    plan.validate()


class TestTransferCheck:
    def test_squares(self):
        v = transfer_check(rectangle(2, 2), rectangle(1, 1))
        assert (v.count_2Q, v.h, v.interior_PQ, v.holds, v.margin) == (9, 0, 4, True, 5)

    def test_degree_ten_prism(self):
        v = transfer_check(veronese_triangle(5), FIGURE_PRISM)
        assert (v.count_2Q, v.h, v.interior_PQ, v.holds, v.margin) == (18, 3, 20, True, 1)

    def test_equality_boundary(self):
        v = transfer_check(veronese_triangle(5), veronese_triangle(2))
        assert (v.count_2Q, v.h, v.interior_PQ, v.holds, v.margin) == (15, 0, 15, False, 0)

    def test_inapplicable(self):
        with pytest.raises(TranslateContainmentError):
            transfer_check(rectangle(1, 1), rectangle(2, 2))

    def test_thin_polygon_sweeps_rows_not_translates(self):
        # P + (-2Δ) has four rows; the sweep costs O(rows), not O(n).
        q = veronese_triangle(2)
        p = LatticePolygon([(0, 0), (2 * 10**4, 0), (0, 1)])
        assert transfer_check(p, q).h == brute_force_component_total(p, q) == 2 * 2 * 10**4 - 5
        n = 10**12
        start = time.perf_counter()
        v = transfer_check(LatticePolygon([(0, 0), (n, 0), (0, 1)]), q)
        assert time.perf_counter() - start < 1.0
        assert v.h == 2 * n - 5

    def test_tall_polygon_is_answered_exactly(self):
        # P + (-2Δ) has n + 3 rows, but no translate of 2Δ fits in a width-1
        # P, so neither row scan of h has a row to visit
        q = veronese_triangle(2)
        for n in (MAX_SWEEP_ROWS - 2, 10**12):
            p = LatticePolygon([(0, 0), (1, 0), (0, n)])
            start = time.perf_counter()
            assert transfer_check(p, q).h == 2 * n - 5
            assert time.perf_counter() - start < 1.0
        for n in (10, 30, 40):
            p = LatticePolygon([(0, 0), (1, 0), (0, n)])
            assert transfer_check(p, q).h == brute_force_component_total(p, q) == 2 * n - 5

    def test_tall_inside_box_is_refused(self):
        # translates of 2Δ fit inside the width-10 P on 10⁷ - 3 rows, past
        # the row budget: the inside scan is refused before its first row
        p = LatticePolygon([(0, 0), (10, 0), (0, 10**7)])
        with pytest.raises(LatticeGeometryError, match="translate box spans 9999997 rows"):
            transfer_check(p, veronese_triangle(2))

    def test_tall_pair_of_near_heights_is_answered_exactly(self):
        # P + (-Q) spans 2n rows, but Q is one row shorter than P: neither a
        # translate of P inside Q nor of Q inside int P has a row to scan
        def pair(n):
            return LatticePolygon([(0, 0), (2, 0), (0, n)]), LatticePolygon([(0, 0), (1, 0), (0, n - 1)])

        v = transfer_check(*pair(10**7))
        assert (v.h, v.margin, v.holds) == (4_999_999, 10_000_003, True)
        for n in (20, 30):
            assert transfer_check(*pair(n)) == built_polygon_verdict(*pair(n))


    def test_a_computed_check_counts_each_sum_once(self, monkeypatch):
        # #L(P + Q) and N_in are counted once per computed check, under any
        # name a caller reads them by; a cached check counts neither
        from sostransfer import lattice

        calls = []
        for name in ("minkowski_lattice_point_count", "inside_translate_count"):
            def spy(p, q, name=name, real=getattr(lattice, name)):
                calls.append(name)
                return real(p, q)

            for module in (lattice, toric):
                monkeypatch.setattr(module, name, spy)
        toric.transfer_check.cache_clear()
        # N_in is 0 for the first pair and 10 for the second
        for p, q in ((veronese_triangle(5), FIGURE_PRISM), (veronese_triangle(9), rectangle(2, 1))):
            calls.clear()
            v = transfer_check(p, q)
            assert sorted(calls) == ["inside_translate_count", "minkowski_lattice_point_count"]
            assert v == built_polygon_verdict(p, q)
            calls.clear()
            assert transfer_check(p, q) == v and calls == []


class TestTransferCheckOracle:
    """transfer_check, which counts 2Q, P + Q and P + (-Q) from areas and
    boundary counts, against the verdict counted on built polygons."""

    def test_every_check_of_the_corpus_plans(self, monkeypatch):
        # every pair the planner decides from the plan workload's shapes,
        # passing or failing, and so every step of the plans; the steps
        # reversed add inapplicable pairs, which must be refused alike
        pairs = set()
        real_margin = toric._passing_margin

        def margin(p, q):
            pairs.add((p, q))
            return real_margin(p, q)

        monkeypatch.setattr(toric, "_passing_margin", margin)
        plans = [plan_transfer(source) for source in plan_corpus(random.Random(77))]
        assert len(plans) == 55 and all(step.verdict.holds for plan in plans for step in plan.steps)
        steps = {(step.p, step.q) for plan in plans for step in plan.steps}
        assert steps <= pairs
        raised = 0
        for p, q in pairs | {(q, p) for p, q in steps}:
            got = total_or_containment(transfer_check, p, q)
            assert got == total_or_containment(built_polygon_verdict, p, q), (p, q)
            fast = total_or_containment(real_margin, p, q)
            assert fast == (got if got == "containment" else got.margin if got.holds else None), (p, q)
            raised += got == "containment"
        assert len(pairs) > 2000 and raised > 10


def _bound_margin(p, q):
    """m0 + max(cols, 0) * max(rows, 0): the margin with N_in replaced by
    the cells of the box that N_in scans, read from the definitions."""
    (pw, ph), (qw, qh) = ((x1 - x0, y1 - y0) for x0, y0, x1, y1 in (p.bounding_box, q.bounding_box))
    m0 = q.twice_area - p.twice_area + p.boundary_lattice_point_count + q.boundary_lattice_point_count - 1
    return m0 + max(pw - qw - 1, 0) * max(ph - qh - 1, 0)


class TestPassingMargin:
    """The planners' fast path against the full check."""

    @staticmethod
    def _pairs(rng):
        # kΔ against jΔ both ways round (margin 0 at j = k - 3), then random
        # pairs, the same pairs far from the origin, and pairs whose Q is
        # the hull of a translate of P and a few more points
        for k in range(2, 13):
            for j in range(1, k):
                yield veronese_triangle(k), veronese_triangle(j), False
                yield veronese_triangle(j), veronese_triangle(k), True
        for _ in range(400):
            p = random_polygon(rng, max_coord=rng.choice((3, 6, 9)))
            q = random_polygon(rng, max_coord=rng.choice((3, 6)))
            yield p, q, False
            far = 10 ** rng.randint(6, 9)
            shift = (rng.randint(-far, far), rng.randint(-far, far))
            yield p.translate(shift), q.translate((rng.randint(-far, far), rng.randint(-far, far))), False
            extra = [(rng.randint(-4, 8), rng.randint(-4, 8)) for _ in range(rng.randint(0, 3))]
            yield p, LatticePolygon([*p.vertices, *extra]).translate(shift), True

    def test_agrees_with_the_full_check(self, monkeypatch):
        # and scans for N_in exactly when the box bound leaves a chance; a
        # pair with a translate of P inside Q is refused, never answered None
        scans = []
        real_count = toric.inside_translate_count

        def count(p, q):
            scans.append((p, q))
            return real_count(p, q)

        monkeypatch.setattr(toric, "inside_translate_count", count)
        outcomes = dict.fromkeys(("containment", "bounded", "zero bound", "zero margin", "passing", "failing"), 0)
        for p, q, inside in self._pairs(random.Random(2424)):
            full = total_or_containment(transfer_check, p, q)
            scans.clear()
            fast = total_or_containment(toric._passing_margin, p, q)
            bound = _bound_margin(p, q)
            assert len(scans) == (bound > 0), (p, q)
            if full == "containment":
                assert fast == "containment", (p, q)
                outcomes["containment"] += 1
                continue
            assert not inside, (p, q)
            assert fast == (full.margin if full.holds else None), (p, q)
            if bound <= 0:
                assert full.margin <= 0, (p, q)
                outcomes["bounded"] += 1
            outcomes["zero bound"] += bound == 0
            outcomes["zero margin"] += full.margin == 0 < bound
            outcomes["passing" if full.holds else "failing"] += 1
        assert min(outcomes.values()) >= 5 and outcomes["bounded"] >= 100, outcomes

    def test_plans_count_the_mixed_area_once_per_emitted_step(self, monkeypatch):
        # a failing candidate costs no #L(P + Q); each step the planners
        # emit costs one, and a repeated step is served from the cache
        calls = []
        real_count = toric.minkowski_lattice_point_count

        def count(p, q):
            calls.append((p, q))
            return real_count(p, q)

        monkeypatch.setattr(toric, "minkowski_lattice_point_count", count)
        runs = [
            lambda: plan_transfer(veronese_triangle(9)),
            lambda: plan_transfer(rectangle(5, 5)),
            lambda: improved_ternary_bound(5)[0],
        ]
        for run_plan in runs:
            toric.transfer_check.cache_clear()
            toric._pipeline_step.cache_clear()
            calls.clear()
            plan = run_plan()
            emitted = {(s.p, s.q) for s in plan.steps}
            assert len(calls) == len(emitted) and set(calls) == emitted


class TestClassicPipeline:
    def test_step_counts_match_geometry(self):
        for d in range(3, 13):
            c2q, interior = veronese_step_counts(d)
            v = transfer_check(veronese_triangle(d), veronese_triangle(d - 2))
            assert (v.count_2Q, v.interior_PQ, v.h) == (c2q, interior, 0)

    def test_equality_case_margin_zero(self):
        for d in range(4, 13):
            v = transfer_check(veronese_triangle(d), veronese_triangle(d - 3))
            assert v.margin == 0 and not v.holds

    def test_classic_bounds(self):
        assert hilbert_classic_bound(3) == 2
        assert hilbert_classic_bound(4) == 4
        assert hilbert_classic_bound(5) == 8

    def test_classic_plan_totals(self):
        for d in range(3, 11):
            plan = hilbert_classic_plan(d)
            replay_plan(plan)
            assert plan.total_multiplier_degree == hilbert_classic_bound(d)
            expected_kind = "twice_unit_triangle" if d % 2 == 0 else "lawrence_prism"
            assert plan.terminal_kind == expected_kind

    def test_rejects_small_degree(self):
        with pytest.raises(ToricTransferError):
            veronese_step_counts(2)
        with pytest.raises(ToricTransferError):
            hilbert_classic_bound(2)


class TestTrapezoid:
    def test_zero_cut_is_triangle(self):
        assert trapezoid(7, 0) == veronese_triangle(7)

    def test_figure_region(self):
        assert trapezoid(8, 2) == LatticePolygon([(0, 0), (8, 0), (2, 6), (0, 6)])

    def test_specific_count(self):
        assert dilate(trapezoid(5, 2), 2).lattice_point_count == 56

    def test_rejects_bad_cut(self):
        # a cut m = d leaves the segment of the base
        for d, m in ((3, 4), (3, 3), (0, 0), (3, -1)):
            with pytest.raises(ToricTransferError, match="0 <= m < d"):
                trapezoid(d, m)


class TestBiforms:
    def test_square_step_identities(self):
        for d in range(2, 13):
            v = transfer_check(rectangle(d, d), rectangle(d - 1, d - 1))
            assert (v.count_2Q, v.h, v.interior_PQ, v.holds) == (
                (2 * d - 1) ** 2,
                0,
                (2 * d - 2) ** 2,
                True,
            )

    def test_rectangle_two_step(self):
        for d in range(7, 13):
            first = transfer_check(rectangle(d, d), rectangle(d - 1, d - 2))
            second = transfer_check(rectangle(d - 1, d - 2), rectangle(d - 3, d - 3))
            assert first.holds and second.holds


    @pytest.mark.parametrize(
        "p, context",
        [
            (rectangle(1, 1), "biform"),
            (rectangle(3, 2).translate((-4, 7)), "biform"),
            (rectangle(1, 5).translate((2, -3)), "biform"),
            (LatticePolygon([(1, 0), (3, 0), (3, 2), (0, 2), (0, 1)]), "ternary"),  # the 3 x 2 box minus a corner
            (LatticePolygon([(0, 0), (2, 0), (3, 1), (1, 1)]), "ternary"),  # a parallelogram
            (veronese_triangle(1), "ternary"),
            (veronese_triangle(4).translate((5, 5)), "ternary"),
        ],
    )
    def test_context_is_biform_exactly_for_boxes(self, p, context):
        assert toric._infer_context(p) == context


class TestPlanner:
    def test_squares_example(self):
        plan = plan_transfer(rectangle(2, 2), families=("squares",))
        assert len(plan.steps) == 1
        assert plan.steps[0].q == rectangle(1, 1)
        assert plan.terminal_kind == "lawrence_prism"

    def test_squares_chain_total(self):
        for d in (3, 4, 5, 6):
            plan = plan_transfer(rectangle(d, d), families=("squares",))
            replay_plan(plan)
            assert plan.total_multiplier_degree == d * (d - 1)
            assert [s.q for s in plan.steps] == [rectangle(k, k) for k in range(d - 1, 0, -1)]

    def test_triangle_to_prism(self):
        plan = plan_transfer(veronese_triangle(5), families=("prisms", "veronese"))
        assert len(plan.steps) == 1
        assert plan.steps[0].q == FIGURE_PRISM
        assert plan.terminal_kind == "lawrence_prism"
        assert plan.total_multiplier_degree == 6

    def test_deterministic(self):
        one = plan_transfer(veronese_triangle(6), families=("trapezoids", "prisms", "veronese"))
        two = plan_transfer(veronese_triangle(6), families=("trapezoids", "prisms", "veronese"))
        assert one == two

    def test_no_plan_keeps_partial_chain(self, monkeypatch):
        # the squares chain 4 -> 3 -> 2 -> 1, with every candidate from the
        # 2x2 square made to fail: the error carries the two steps that passed
        full = plan_transfer(rectangle(4, 4), families=("squares",))
        real_margin = toric._passing_margin

        def margin(p, q):
            return None if p == rectangle(2, 2) else real_margin(p, q)

        monkeypatch.setattr(toric, "_passing_margin", margin)
        with pytest.raises(NoPlanError) as err:
            plan_transfer(rectangle(4, 4), families=("squares",))
        assert err.value.partial_steps == full.steps[:2]
        assert [s.q for s in err.value.partial_steps] == [rectangle(3, 3), rectangle(2, 2)]

    def test_no_plan_without_any_step(self):
        with pytest.raises(NoPlanError) as err:
            plan_transfer(veronese_triangle(6), families=("squares",))
        assert err.value.partial_steps == ()

    def test_unknown_family_is_refused_up_front(self):
        # Δ is terminal, so no step would ever build the candidates; the
        # name is still checked, on terminal and nonterminal sources alike
        for source in (veronese_triangle(1), veronese_triangle(6)):
            with pytest.raises(ToricTransferError, match="unknown candidate family 'bogus'"):
                plan_transfer(source, families=("veronese", "bogus"))


class TestImprovedPipeline:
    def test_degree_five_closes_with_prism(self):
        plan, budget = improved_ternary_bound(5)
        assert len(plan.steps) == 1
        assert plan.steps[0].q == FIGURE_PRISM
        assert plan.total_multiplier_degree == 6
        assert budget == 3
        assert plan.terminal_kind == "lawrence_prism"

    def test_degree_ten_beats_classic(self):
        plan, budget = improved_ternary_bound(10)
        replay_plan(plan)
        assert budget < hilbert_classic_bound(10) == 40

    def test_all_steps_validated(self):
        plan, _ = improved_ternary_bound(17)
        replay_plan(plan)

    def test_rejects_small_degree(self):
        with pytest.raises(ToricTransferError):
            improved_ternary_bound(4)

    def test_bite_margin_closed_form(self):
        # no translate of T(d, m2) fits inside int T(d, m), so the margin is
        # A2(Q) - A2(P) + B(P) + B(Q) - 1, with A2 = d² - m² and B = 3d - m
        for d in range(2, 61):
            for m in range(min(3, d)):
                for m2 in range(m + 1, d):
                    verdict = transfer_check(trapezoid(d, m), trapezoid(d, m2))
                    assert verdict.margin == m * m - m2 * m2 + 6 * d - m - m2 - 1, (d, m, m2)

    def test_bite_is_the_largest_passing_cut(self):
        # the pipeline's bite from T(d, m) passes, and the next larger cut
        # fails unless the bite already leaves a single row
        for d in range(6, 61):
            for m in range(3):
                step = toric._pipeline_step(d, m)
                m2 = d - step.q.bounding_box[3]
                assert step.note == "bite" and step.q == trapezoid(d, m2)
                assert transfer_check(trapezoid(d, m), trapezoid(d, m2)).holds, (d, m)
                if m2 < d - 1:
                    assert not transfer_check(trapezoid(d, m), trapezoid(d, m2 + 1)).holds, (d, m)


class TestPlanGolden:
    def test_plans_unchanged(self):
        # sha1 of the plan JSON of kΔ (k = 3..8), three rectangles and 15
        # random polygons, computed before the terminal flags were hoisted
        # out of the candidate passes: the plans and their tie-breaks stay.
        rng = random.Random(4242)
        sources = [veronese_triangle(k) for k in range(3, 9)]
        sources += [rectangle(a, b) for a, b in ((3, 3), (2, 5), (4, 6))]
        while len(sources) < 24:
            poly = full_hull([(rng.randint(0, 7), rng.randint(0, 7)) for _ in range(rng.randint(3, 6))])
            if poly is not None:
                sources.append(poly)
        out = json.dumps([plan_to_json_dict(plan_transfer(s)) for s in sources], separators=(",", ":"))
        assert hashlib.sha1(out.encode()).hexdigest() == "09c40f338b6ddbfc7a866f9d18ca4cf5ae7529af"


def improved_plans_sha1(degrees):
    table = [[plan_to_json_dict(plan), total] for plan, total in map(improved_ternary_bound, degrees)]
    return hashlib.sha1(json.dumps(table, separators=(",", ":")).encode()).hexdigest()


class TestPipelineGolden:
    # sha1 of the plan JSON, computed before the three chain loops became
    # step rules of one descent loop
    def test_classic_plans_unchanged(self):
        out = json.dumps([plan_to_json_dict(hilbert_classic_plan(d)) for d in range(3, 61)], separators=(",", ":"))
        assert hashlib.sha1(out.encode()).hexdigest() == "e9740b090896b5590ae90f7f6d4537f4008e73cb"

    def test_improved_plans_unchanged(self):
        assert improved_plans_sha1(range(5, 52)) == "214b706a2495d9337e39f55b3de263d5ba875100"

    def test_improved_plans_take_the_largest_bite(self):
        # sha1 of the plans of d = 52..60, whose first bites are the largest
        # passing cuts of test_bite_is_the_largest_passing_cut
        assert improved_plans_sha1(range(52, 61)) == "ae6bffadb66b81c7e612456e297ff71775bb50e6"


class TestCaches:
    def test_caches_bounded_and_hold_a_bound_table(self):
        from sostransfer import toric

        checks, states = toric.transfer_check, toric._pipeline_step
        assert checks.cache_info().maxsize == 4096
        assert states.cache_info().maxsize is not None
        checks.cache_clear()
        states.cache_clear()
        table = [improved_ternary_bound(d) for d in range(5, 41)]
        c, s = checks.cache_info(), states.cache_info()
        assert c.currsize == c.misses and s.currsize == s.misses  # nothing evicted
        assert [improved_ternary_bound(d) for d in range(5, 41)] == table
        assert checks.cache_info().misses == c.misses
        assert states.cache_info().misses == s.misses

    def test_candidates_and_enumeration_built_once(self):
        from sostransfer import toric

        candidates, polygons = toric._family_candidates, toric._convex_subpolygons
        assert candidates.cache_info().maxsize is not None
        assert polygons.cache_info().maxsize is not None
        candidates.cache_clear()
        polygons.cache_clear()
        assert list(iter_convex_subpolygons(4)) == list(iter_convex_subpolygons(4))
        assert polygons.cache_info().misses == 1
        families = ("exhaustive", "prisms")
        plan_transfer(veronese_triangle(4), families=families)
        built = candidates.cache_info().misses
        # a translated source meets states of the same sizes
        plan_transfer(veronese_triangle(4).translate((7, -3)), families=families)
        assert candidates.cache_info().misses == built

    def test_candidate_shapes_built_once_and_bools_still_refused(self):
        # the constructor caches are typed: True is not served the entry of 1
        for build, args in ((rectangle, (1, 1)), (wide_prism, (1, 1)), (veronese_triangle, (1,)), (trapezoid, (2, 1))):
            assert build(*args) is build(*args)
            with pytest.raises(LatticeGeometryError):
                build(*args[:-1], True)


class TestSubpolygonEnumeration:
    def test_matches_brute_force(self):
        # oracle: hulls of all subsets of the small triangle's lattice points
        for k in (2, 3, 4):
            tri = veronese_triangle(k)
            pts = list(lattice_points(tri))
            import itertools

            seen = set()
            for size in range(3, len(pts) + 1):
                for combo in itertools.combinations(pts, size):
                    poly = full_hull(combo)
                    if poly is None:
                        continue
                    xmin, ymin, _, _ = poly.bounding_box
                    seen.add(poly.translate((-xmin, -ymin)).vertices)
            enumerated = {q.vertices for q in iter_convex_subpolygons(k)}
            assert enumerated == seen

    @staticmethod
    def vertex_lists_sha1(degrees, order=lambda polys: polys):
        digest = hashlib.sha1()
        for k in degrees:
            for q in order(list(iter_convex_subpolygons(k))):
                digest.update(repr([tuple(v) for v in q.vertices]).encode())
        return digest.hexdigest()

    def test_same_polygons_in_same_order(self):
        # pins the order as well as the set: the polygons come sorted by
        # canonical vertex list; sha1 of the vertex lists, k = 1..4
        assert self.vertex_lists_sha1(range(1, 5)) == "3715cba31788fa203254c7c5d7c130447ee1c95b"

    def test_same_sets_as_the_edge_chain_search(self):
        # counts and sha1 of the sorted vertex lists, k = 1..5, as the
        # angular edge-chain search that the closure replaced gave them
        assert [len(list(iter_convex_subpolygons(k))) for k in range(1, 6)] == [1, 21, 175, 1082, 5973]
        digest = self.vertex_lists_sha1(range(1, 6), lambda polys: sorted(polys, key=lambda q: q.vertices))
        assert digest == "1debcc6bdfb4e8505ccaa5959569cd5cbeb897a2"

    def test_exhaustive_plans_are_pinned(self):
        # sha1 of the compact plan JSON of kΔ, k = 3..5, with and without
        # prisms; the edge-chain search gave the same plans
        expected = {
            3: ("7096162efa42871318f341b27e139aae0d791953", 2),
            4: ("1a57246a441480d46f1b7045f46336480df6febc", 4),
            5: ("a42a8f699e9827195da646d9c0e85eaa7b97b467", 6),
        }
        for families in (("exhaustive", "prisms"), ("exhaustive",)):
            for k, (sha1, total) in expected.items():
                doc = plan_to_json_dict(plan_transfer(veronese_triangle(k), families=families))
                assert doc["total_degree"] == total
                assert hashlib.sha1(json.dumps(doc, separators=(",", ":")).encode()).hexdigest() == sha1

    def test_degree_cap(self):
        with pytest.raises(ToricTransferError):
            list(iter_convex_subpolygons(7))
        assert list(iter_convex_subpolygons(0)) == [] == list(iter_convex_subpolygons(-3))


class TestPlanJson:
    def test_round_trip(self):
        plan, _ = improved_ternary_bound(5)
        data = json.loads(json.dumps(plan_to_json_dict(plan)))
        assert data["terminal_kind"] == "lawrence_prism"
        assert data["terminal"] == plan.terminal.to_json_dict()
        assert data["total_degree"] == plan.total_multiplier_degree
        assert len(data["steps"]) == len(plan.steps)
        for st, step in zip(data["steps"], plan.steps):
            v = step.verdict
            assert st == {
                "p": step.p.to_json_dict(),
                "q": step.q.to_json_dict(),
                "count2q": v.count_2Q,
                "h": v.h,
                "interior": v.interior_PQ,
                "margin": v.margin,
                "note": step.note,
            }

    def test_kind_spelling(self):
        plan = hilbert_classic_plan(4)
        assert plan_to_json_dict(plan)["terminal_kind"] == "2delta"


class TestFaultDetectors:
    """The checks that refuse an inconsistent verdict or plan, and the
    pipeline's refusal of a step that fails its check."""

    def test_inconsistent_verdicts_are_refused(self):
        with pytest.raises(ToricTransferError, match="margin must equal count_2Q"):
            TransferVerdict(9, 0, 4, True, 4)
        with pytest.raises(ToricTransferError, match="holds must mirror margin > 0"):
            TransferVerdict(9, 0, 4, False, 5)

    def test_each_broken_plan_is_refused(self):
        plan = hilbert_classic_plan(7)
        plan.validate()
        first, second, *rest = plan.steps
        failing = PlanStep(second.p, second.q, TransferVerdict(5, 0, 5, False, 0))
        broken = [
            (replace(plan, steps=(first, replace(second, p=rectangle(3, 3)), *rest)), "steps must chain"),
            (replace(plan, steps=(first, failing, *rest)), "plan contains a failing step"),
            (replace(plan, terminal=veronese_triangle(2)), "terminal must be the last step's Q"),
            (replace(plan, steps=(), terminal=veronese_triangle(3)), "terminal is not a Lawrence prism"),
            (replace(plan, terminal_kind="twice_unit_triangle"), "terminal is not twice the unit triangle"),
            (replace(plan, terminal_kind="bogus"), "unknown terminal kind 'bogus'"),
        ]
        for bad, message in broken:
            with pytest.raises(ToricTransferError, match=message):
                bad.validate()

    def test_a_failing_classic_step_is_a_pipeline_error(self, monkeypatch, capsys):
        failing = TransferVerdict(5, 0, 5, False, 0)
        monkeypatch.setattr(toric, "transfer_check", lambda p, q: failing)
        with pytest.raises(PipelineStepError, match="classic step failed") as info:
            hilbert_classic_plan(7)
        assert (info.value.p, info.value.q, info.value.verdict) == (veronese_triangle(7), veronese_triangle(5), failing)
        assert run(["hilbert", "--d", "7"]) == 1
        assert capsys.readouterr() == ("", "error: classic step failed\n")
