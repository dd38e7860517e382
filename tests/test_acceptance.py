"""Acceptance suite: one test per criterion, exact tolerances.

Every test prints a PASS line on success so a plain `pytest -s
tests/test_acceptance.py` shows one line per criterion.
"""

import json
import random
import time

from conftest import random_effective_divisor
from sostransfer.cli import run as cli_run
from sostransfer.delpezzo import (
    CATALOGUE_TABLE,
    real_negative_curves,
    surface_from_name,
    transfer_sequence,
)
from sostransfer.lattice import (
    LatticePolygon,
    contains_lattice_translate,
    minkowski_sum,
    rectangle,
    veronese_triangle,
)
from sostransfer.ruled import (
    build_schedule,
    descent_margin,
    exceptional_margin,
    genus_example_data,
    minimal_d,
    multiplier_degree_bound,
)
from sostransfer.toric import (
    hilbert_classic_bound,
    improved_ternary_bound,
    reduced_component_total,
    transfer_check,
)

from conftest import (
    CohomologyInput,
    _clip_rows,
    _covered_block_count,
    brute_force_component_total,
    chi_criterion_holds,
    component_oracle_pairs,
    difference_components,
    dilate,
    edge_direction_multiset,
    ehrhart_quadratic,
    h0_criterion_holds,
    random_polygon,
    shoelace_area_twice,
    structured_oracle_pairs,
    total_or_containment,
    veronese_step_counts,
)

FIGURE_PRISM = LatticePolygon([(0, 0), (3, 0), (2, 1), (0, 1)])


def _binom2(n):
    return n * (n - 1) // 2 if n >= 2 else 0


def test_c01_squares_example():
    v = transfer_check(rectangle(2, 2), rectangle(1, 1))
    assert (v.count_2Q, v.h, v.interior_PQ, v.holds) == (9, 0, 4, True)
    print("ACCEPTANCE 01 PASS - squares example is exactly (9, 0, 4, holds)")


def test_c02_degree_ten_improvement(capsys):
    v = transfer_check(veronese_triangle(5), FIGURE_PRISM)
    assert (v.count_2Q, v.h, v.interior_PQ, v.holds) == (18, 3, 20, True)
    code = cli_run(["hilbert", "--d", "5", "--improved", "--json"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert code == 0
    assert payload["total_degree"] == 6
    assert payload["terminal_kind"] == "lawrence_prism"
    with capsys.disabled():
        print("ACCEPTANCE 02 PASS - degree-10 prism check (18, 3, 20) and CLI degree 6")


def test_c03_classic_step_and_equality_case():
    for d in range(3, 13):
        counts = veronese_step_counts(d)
        assert counts == (_binom2(2 * d - 2), _binom2(2 * d - 3))
        v = transfer_check(veronese_triangle(d), veronese_triangle(d - 2))
        assert (v.count_2Q, v.interior_PQ) == counts
    for d in range(4, 13):
        v = transfer_check(veronese_triangle(d), veronese_triangle(d - 3))
        assert v.margin == 0
    print("ACCEPTANCE 03 PASS - classic step counts (d=3..12) and equality margins (d=4..12)")


def test_c04_biforms():
    for d in range(2, 11):
        v = transfer_check(rectangle(d, d), rectangle(d - 1, d - 1))
        assert (v.count_2Q, v.h, v.interior_PQ, v.holds) == (
            (2 * d - 1) ** 2,
            0,
            (2 * d - 2) ** 2,
            True,
        )
    for d in range(7, 13):
        assert transfer_check(rectangle(d, d), rectangle(d - 1, d - 2)).holds
        assert transfer_check(rectangle(d - 1, d - 2), rectangle(d - 3, d - 3)).holds
    print("ACCEPTANCE 04 PASS - biform identities (d=2..10) and rectangle two-step (d=7..12)")


def test_c05_asymptotic_ternary_bound():
    start = time.monotonic()
    crossover = None
    for d in range(10, 61):
        plan, total = improved_ternary_bound(d)
        for step in plan.steps:
            h = reduced_component_total(step.p, step.q)
            count = dilate(step.q, 2).lattice_point_count
            interior = minkowski_sum(step.p, step.q).interior_lattice_point_count
            assert (count, h, interior) == (
                step.verdict.count_2Q,
                step.verdict.h,
                step.verdict.interior_PQ,
            )
            assert count + h > interior
        if total < hilbert_classic_bound(d):
            if crossover is None:
                crossover = d
        else:
            crossover = None
    assert crossover is not None and crossover <= 20
    _, total100 = improved_ternary_bound(100)
    ratio = total100 / 100**2
    assert 0.10 < ratio < 0.22
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(
        f"ACCEPTANCE 05 PASS - steps validated d=10..60, crossover {crossover} <= 20, "
        f"ratio {ratio:.4f} in (0.10, 0.22), {elapsed:.1f}s"
    )


def test_c06_catalogue():
    from sostransfer._intlinalg import identity, mat_mul

    assert len(CATALOGUE_TABLE) == 24
    for name, degree, rho, n_real in CATALOGUE_TABLE:
        s = surface_from_name(name)
        n = s.rank
        assert mat_mul(s.tau, s.tau) == identity(n)
        taut = tuple(tuple(s.tau[j][i] for j in range(n)) for i in range(n))
        assert mat_mul(mat_mul(taut, s.gram), s.tau) == s.gram
        assert s.tau_image(s.K) == s.K
        assert s.real_rank == rho
        reals, _ = real_negative_curves(s)
        assert len(reals) == n_real
    spot = {"P2(6,0)": 27, "D": 0, "D(1,0)": 3}
    for name, expected in spot.items():
        assert len(real_negative_curves(surface_from_name(name))[0]) == expected
    print("ACCEPTANCE 06 PASS - all 24 catalogue rows verified exactly")


def test_c07_random_transfer_sequences():
    rng = random.Random(20260810)
    checked = 0
    for name in ("P2(6,0)", "P2(2,4)", "Q31(0,2)", "D(1,0)"):
        s = surface_from_name(name)
        for _ in range(200):
            d = random_effective_divisor(s, rng)
            t = transfer_sequence(s, d)
            assert t.terminal_kind in ("zero", "conic_bundle_multiple")
            assert t.chain_length <= s.intersect(s.minus_K, d)
            trace = [
                st.check["minus_K_dot"]
                for st in t.steps
                if st.kind in ("subtract_negative_curve", "ample_step")
            ]
            assert all(a > b for a, b in zip(trace, trace[1:]))
            for st in t.steps:
                if st.kind == "ample_step":
                    assert chi_criterion_holds(
                        st.check["chi_2E"],
                        st.check["h1_E_minus_D"],
                        st.check["chi_minus_D_minus_E"],
                    )
            checked += 1
    assert checked == 800
    print("ACCEPTANCE 07 PASS - 800 random transfer sequences satisfy every invariant")


def test_c08_certificate_kinds():
    q = surface_from_name("Q31(0,2)")
    t = transfer_sequence(q, q.minus_K)
    amples = [st for st in t.steps if st.kind == "ample_step"]
    assert amples[0].divisor == q.minus_K
    assert amples[0].result == (1, 1, 0, 0)
    assert amples[-1].result == (0, 0)
    assert t.terminal_kind == "zero"
    assert t.certificate_kind == "modified_1_interval"
    for name in ("D", "D(1,0)"):
        s = surface_from_name(name)
        assert transfer_sequence(s, s.minus_K).certificate_kind == "modified_2_interval"
    p = surface_from_name("P2(6,0)")
    assert transfer_sequence(p, p.minus_K).certificate_kind == "sos"
    print("ACCEPTANCE 08 PASS - certificate kinds match the three-way classification")


def test_c09_ruled_elliptic():
    data = genus_example_data("elliptic_segre")
    for d in range(5, 51):
        assert descent_margin(data, d, 2) == 2
    assert exceptional_margin(data, 5, 0, 2) == 54
    assert minimal_d(data) == 5
    print("ACCEPTANCE 09 PASS - elliptic margins (2 and 54) and minimal degree 5")


def test_c10_quadratic_growth():
    data = genus_example_data("elliptic_segre")
    e50 = multiplier_degree_bound(data, 50, 5)
    e100 = multiplier_degree_bound(data, 100, 5)
    ratio = e100.total_H_degree / e50.total_H_degree
    assert 3.5 <= ratio <= 4.5
    # independent replay: sum the ladders directly
    for d, bound in ((50, e50), (100, e100)):
        replay = 0
        for delta in range(d, 5, -1):
            sched = build_schedule(data, delta)
            replay += sum(abs(r[0]) for r in sched.ladder[1:])
        assert replay == bound.total_H_degree
    print(f"ACCEPTANCE 10 PASS - growth ratio {ratio:.3f} in [3.5, 4.5], accountings agree")


def test_c11_cross_module_consistency():
    rng = random.Random(1111)
    checked = 0
    while checked < 50:
        p = random_polygon(rng, max_coord=8)
        q = random_polygon(rng, max_coord=8)
        if contains_lattice_translate(p, q) is not None:
            continue
        verdict = transfer_check(p, q)
        total = minkowski_sum(p, q)
        cohomology = CohomologyInput(
            h0_DplusE=total.lattice_point_count,
            h0_2Dplus2E=dilate(total, 2).lattice_point_count,
            h0_2E=verdict.count_2Q,
            h1_EminusD=verdict.h,
        )
        assert h0_criterion_holds(cohomology) == verdict.holds
        assert (
            chi_criterion_holds(verdict.count_2Q, verdict.h, verdict.interior_PQ)
            == verdict.holds
        )
        checked += 1
    print("ACCEPTANCE 11 PASS - section-count and polygon criteria agree on 50 random pairs")


def test_c12_geometry_property_suite():
    rng = random.Random(1212)
    instances = 0
    for _ in range(200):  # Pick's identity
        poly = random_polygon(rng, max_coord=9)
        assert 2 * poly.lattice_point_count == shoelace_area_twice(poly) + poly.boundary_lattice_point_count + 2
        instances += 1
    for _ in range(200):  # Ehrhart reciprocity, k <= 3
        poly = random_polygon(rng, max_coord=6)
        a, b, c = ehrhart_quadratic(poly)
        for k in (1, 2, 3):
            assert a * k * k + b * k + c == dilate(poly, k).lattice_point_count
            assert a * k * k - b * k + c == dilate(poly, k).interior_lattice_point_count
        instances += 1
    for _ in range(150):  # Minkowski edge law
        p1 = random_polygon(rng, max_coord=7)
        p2 = random_polygon(rng, max_coord=7)
        merged: dict = {}
        for poly in (p1, p2):
            for key, mult in edge_direction_multiset(poly).items():
                merged[key] = merged.get(key, 0) + mult
        assert edge_direction_multiset(minkowski_sum(p1, p2)) == merged
        instances += 1
    for p, qp, expected in structured_oracle_pairs(rng, 100):
        assert difference_components(p, qp).components == max(1, expected)
        assert max(1, _covered_block_count(_clip_rows(p, qp), 0, 0)) == expected
        assert total_or_containment(reduced_component_total, p, qp) == total_or_containment(
            brute_force_component_total, p, qp
        )
        instances += 1
    for p, qp, expected in component_oracle_pairs(rng, 50):
        assert difference_components(p, qp).components == max(1, expected)
        assert max(1, _covered_block_count(_clip_rows(p, qp), 0, 0)) == expected
        instances += 1
    assert instances >= 500
    print(f"ACCEPTANCE 12 PASS - {instances} randomized geometry instances, zero failures")
