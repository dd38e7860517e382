"""The benchmark's own tests: a smoke run of every workload, and checkers
that reject corrupted outputs.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import copy
import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from sostransfer import delpezzo, ruled, toric  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload, "--smoke",
                           "--trace", str(trace)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ternary", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout.strip() == ""


def test_percentiles_are_taken_within_kinds():
    def rounds(items):
        return [{"items": [(t, item, None, None) for t, item in items]}]

    times = [0.01 * i for i in range(1, 21)]
    one_kind = rounds([(t, "x") for t in times])
    assert run.item_percentile("plan", one_kind, 90) == pytest.approx(run._percentile(times, 90))
    # Two request kinds, 10x apart, each spread the same way: the pooled
    # median would fall between the kinds; within kinds it is their mean median.
    mix = rounds([(t, ["fast"]) for t in times[:10]] + [(10 * t, ["slow"]) for t in times[:10]])
    fast, slow = statistics.median(times[:10]), 10 * statistics.median(times[:10])
    assert run.item_percentile("cli", mix, 50) == pytest.approx((fast + slow) / 2)
    failed = rounds([(t, "x") for t in times] + [(100.0, "x")])
    failed[0]["items"][-1] = (100.0, "x", None, "RuntimeError")
    assert run.item_percentile("plan", failed, 90) == pytest.approx(run._percentile(times, 90))


# -- toric ------------------------------------------------------------------------------


def _plan_json(source):
    from sostransfer.lattice import LatticePolygon

    return toric.plan_to_json_dict(toric.plan_transfer(LatticePolygon(source)))


SOURCE = [[0, 0], [7, 0], [0, 7]]


def test_valid_plans_pass():
    assert checks.check_source_plan(SOURCE, _plan_json(SOURCE)) == []
    for d in (5, 9, 12):
        plan, budget = toric.improved_ternary_bound(d)
        out = {"improved": toric.plan_to_json_dict(plan), "budget": budget,
               "classic": toric.plan_to_json_dict(toric.hilbert_classic_plan(d))}
        assert checks.check_ternary(d, out) == []


@pytest.mark.parametrize("delta", [1, -1])
def test_margin_off_by_one_is_rejected(delta):
    plan = _plan_json(SOURCE)
    plan["steps"][0]["margin"] += delta
    assert any("margin" in e for e in checks.check_source_plan(SOURCE, plan))


def test_broken_chain_link_is_rejected():
    plan, budget = toric.improved_ternary_bound(12)
    bad = toric.plan_to_json_dict(plan)
    bad["steps"][1]["p"] = bad["steps"][0]["p"]
    assert any("chain link" in e for e in checks.check_improved(12, bad, budget))


@pytest.mark.parametrize("corrupt", ["kind", "vertices"])
def test_wrong_terminal_is_rejected(corrupt):
    plan = _plan_json(SOURCE)
    if corrupt == "kind":
        plan["terminal_kind"] = "2delta" if plan["terminal_kind"] == "lawrence_prism" else "lawrence_prism"
    else:
        plan["terminal"]["vertices"] = [[0, 0], [3, 0], [0, 3]]
    assert any("terminal" in e for e in checks.check_source_plan(SOURCE, plan))


def test_wrong_total_and_classic_counts_are_rejected():
    plan = toric.plan_to_json_dict(toric.hilbert_classic_plan(9))
    plan["total_degree"] += 2
    assert checks.check_classic(9, plan)


def test_flood_fill_recounts_the_paper_example():
    tri5, prism = oracle.hull([(0, 0), (5, 0), (0, 5)]), oracle.hull([(0, 0), (3, 0), (2, 1), (0, 1)])
    assert oracle.flood_fill_h(tri5, prism) == 3
    square, unit = oracle.hull([(0, 0), (2, 0), (2, 2), (0, 2)]), oracle.hull([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert oracle.flood_fill_h(square, unit) == 0


def test_cli_h_off_by_one_is_rejected():
    argv = ["toric-check", "--p", '{"vertices":[[0,0],[5,0],[0,5]]}', "--q",
            '{"vertices":[[0,0],[3,0],[2,1],[0,1]]}', "--json"]
    good = '{"count2q":18,"h":3,"interior":20,"holds":true,"margin":1}'
    assert checks.check_cli(argv, 0, good) == []
    bad = '{"count2q":18,"h":4,"interior":20,"holds":true,"margin":2}'
    assert any("h 4" in e or "18, 3, 20" in e for e in checks.check_cli(argv, 0, bad))
    assert checks.check_cli(argv, 2, good) == ["exit code 2"]
    assert checks.check_cli(argv, 0, good + "\n" + good)


# -- del Pezzo ----------------------------------------------------------------------------


def _transfer(name, divisor=None):
    s = delpezzo.surface_from_name(name)
    d = tuple(divisor) if divisor else s.minus_K
    return list(d), delpezzo.transfer_to_json_dict(delpezzo.transfer_sequence(s, d))


def test_valid_transfers_pass():
    for name in ("P2(6,0)", "Q31(0,2)", "D(1,0)", "P2(2,4)"):
        start, t = _transfer(name)
        assert checks.check_transfer(name, start, t) == []
    start, t = _transfer("P2(6,0)", [1, 2, 0, 0, 0, 0, 0])  # H + 2E1 meets E1 negatively
    assert any(st["kind"] == "subtract_negative_curve" for st in t["steps"])
    assert checks.check_transfer("P2(6,0)", start, t) == []


def test_wrong_chi_is_rejected():
    start, t = _transfer("P2(6,0)")
    step = next(st for st in t["steps"] if st["kind"] == "ample_step")
    step["check"]["chi_2E"] += 1
    assert any("χ" in e for e in checks.check_transfer("P2(6,0)", start, t))


def test_transfer_broken_link_and_wrong_terminal_are_rejected():
    start, t = _transfer("D(1,0)")
    bad = copy.deepcopy(t)
    bad["steps"][1]["divisor"][0] += 1
    assert any("chain link" in e for e in checks.check_transfer("D(1,0)", start, bad))
    bad = copy.deepcopy(t)
    last = bad["steps"][-1]["check"]
    last["terminal_kind"] = "zero" if last["terminal_kind"] == "conic_bundle_multiple" else "conic_bundle_multiple"
    assert any("terminal" in e for e in checks.check_transfer("D(1,0)", start, bad))
    bad = copy.deepcopy(t)
    bad["certificate_kind"] = "sos"
    assert checks.check_transfer("D(1,0)", start, bad)


def test_contraction_is_checked():
    start, t = _transfer("P2(6,0)", [1, 0, 0, 0, 0, 0, 0])  # H: nef, not ample, contracts down
    kinds = [st["kind"] for st in t["steps"]]
    assert "contract" in kinds and checks.check_transfer("P2(6,0)", start, t) == []
    step = t["steps"][kinds.index("contract")]
    step["check"]["target"] = "P2(4,0)"
    assert checks.check_transfer("P2(6,0)", start, t)


def test_catalogue_matches_the_classification_table():
    rows = [{"name": n, "degree": d, "real_rank": r, "real_minus_one_curves": c,
             "rank": delpezzo.surface_from_name(n).rank} for n, d, r, c in delpezzo.CATALOGUE_TABLE]
    assert checks.check_cli(["delpezzo-catalog", "--json"], 0, json.dumps(rows)) == []
    rows[19]["real_minus_one_curves"] = 26  # P2(6,0) has 27 real lines
    assert checks.check_cli(["delpezzo-catalog", "--json"], 0, json.dumps(rows))


# -- ruled ----------------------------------------------------------------------------------


def _bound_json(data, d, d0):
    b = ruled.multiplier_degree_bound(data, d, d0)
    return {"total_H_degree": b.total_H_degree, "steps_counted": b.steps_counted}


def test_ruled_totals_and_schedules():
    elliptic = ruled.genus_example_data("elliptic_segre")
    good = _bound_json(elliptic, 60, 5)
    assert checks.check_bound(checks.ELLIPTIC, 60, 5, good, True) == []
    assert checks.check_bound(checks.ELLIPTIC, 60, 5, dict(good, total_H_degree=good["total_H_degree"] + 1), True)
    canonical = ruled.genus_example_data("canonical_times_line", 3, 1)
    data = canonical.to_json_dict()
    d0 = ruled.minimal_d(canonical)
    good = _bound_json(canonical, d0 + 5, d0)
    assert checks.check_bound(data, d0 + 5, d0, good, False) == []
    assert checks.check_bound(data, d0 + 5, d0, dict(good, total_H_degree=good["total_H_degree"] - 1), False)
    sched = ruled.build_schedule(canonical, d0 + 3).to_json_dict()
    assert checks.check_schedule(data, d0 + 3, sched, False) == []
    sched["k"][2] += 1
    assert checks.check_schedule(data, d0 + 3, sched, False)
    ell = ruled.build_schedule(elliptic, 9).to_json_dict()
    assert checks.check_schedule(checks.ELLIPTIC, 9, ell, True) == []
    ell["step_margins"][0] -= 1
    assert checks.check_schedule(checks.ELLIPTIC, 9, ell, True)
