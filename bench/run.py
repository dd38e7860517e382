"""Benchmark of sostransfer: four closed-loop workloads, one client each.

    python3 bench/run.py --workload ternary --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30
    python3 bench/run.py --workload all --smoke

Run from the root of a checkout; the program is imported from ``src``,
nothing is installed.  A run repeats rounds until the next one would pass
``--seconds``.  A round is one cold process doing a fixed amount of work
(one process per request on ``cli``), and only one measured process runs
at a time.  Every output is checked by ``checks`` after the timed pass.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics (from a run with ``layertrace`` installed) with
``--trace 1``.  With ``--trace 1`` the spans and counters are also written to
``bench/out/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks
import inputs
import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("ternary", "plan", "delpezzo", "cli")
PROCESS_TIMEOUT_S = 150
SETUP_PROBES = 3  # extra set-up-only process starts per library round
MIN_ITEMS = 110  # so that at least ten items lie beyond item_p90_ms
H_CHECKS_PER_RUN = 8

UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms", "item_p90_ms": "ms", "peak_rss_mb": "MB"}


class HarnessError(RuntimeError):
    """The benchmark itself cannot run (no ``src``, a worker died)."""


def _env(trace: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["BENCH_TRACE"] = "1" if trace else "0"
    return env


def _spawn(argv, stdin_text, env):
    """Run one measured process; returns (spawn time, end time, result)."""
    t_spawn = time.monotonic()
    proc = subprocess.run([sys.executable, *argv], input=stdin_text, capture_output=True, text=True,
                          env=env, timeout=PROCESS_TIMEOUT_S, cwd=ROOT)
    return t_spawn, time.monotonic(), proc


def library_round(workload, items, trace, env):
    t_spawn, _, proc = _spawn([str(BENCH / "worker.py"), workload, "1" if trace else "0"], json.dumps(items), env)
    if proc.returncode != 0:
        raise HarnessError(f"{workload} worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    res = json.loads(proc.stdout)
    setups = [res["ready"] - t_spawn]
    peaks = [res["peak_rss_kb"]]
    for _ in range(SETUP_PROBES):
        t_probe, _, probe = _spawn([str(BENCH / "worker.py"), workload, "0", "probe"], json.dumps(items), env)
        if probe.returncode != 0:
            raise HarnessError(f"{workload} probe exited {probe.returncode}: {probe.stderr[-2000:]}")
        probe_res = json.loads(probe.stdout)
        setups.append(probe_res["ready"] - t_probe)
        peaks.append(probe_res["peak_rss_kb"])
    return {
        "setup_s": setups,
        "peak_rss_kb": peaks,
        "items": [(it["s"], item, it["out"], it["error"]) for item, it in zip(items, res["items"])],
        "traces": [res["trace"]] if trace else [],
        "interpreter_s": [res["start"] - t_spawn],
        "import_s": [],
        "stdout_bytes": 0,
    }


def cli_round(requests, trace, env):
    rnd = {"setup_s": [], "peak_rss_kb": [], "items": [], "traces": [], "interpreter_s": [], "import_s": [],
           "stdout_bytes": 0}
    for argv in requests:
        t_spawn, t_end, proc = _spawn([str(BENCH / "launcher.py"), *argv], None, env)
        try:
            rec = json.loads(proc.stderr.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            raise HarnessError(f"launcher died on {argv}: {proc.stderr[-2000:]}") from None
        rnd["setup_s"].append(rec["ready"] - t_spawn)
        rnd["interpreter_s"].append(rec["start"] - t_spawn)
        rnd["import_s"].append(rec["import_s"])
        rnd["peak_rss_kb"].append(rec["peak_rss_kb"])
        rnd["stdout_bytes"] += len(proc.stdout.encode())
        err = f"exit code {proc.returncode}: {proc.stderr.strip().splitlines()[0]}" if proc.returncode else None
        rnd["items"].append((t_end - rec["ready"], argv, {"code": proc.returncode, "stdout": proc.stdout}, err))
        if trace:
            rnd["traces"].append(rec["trace"])
    return rnd


def check_item(workload, item, out) -> list[str]:
    if workload == "ternary":
        return checks.check_ternary(item, out)
    if workload == "plan":
        return checks.check_source_plan(item, out)
    if workload == "delpezzo":
        return checks.check_transfer(item["surface"], item["divisor"], out)
    return checks.check_cli(item, out["code"], out["stdout"])


def _plans(workload, item, out):
    if out is None:
        return []
    if workload == "ternary":
        return [out["improved"], out["classic"]]
    if workload == "plan":
        return [out]
    if workload == "cli" and item[0] in ("toric-plan", "hilbert") and out["code"] == 0:
        return [json.loads(out["stdout"])]
    return []


def verify(workload, rounds):
    """Check every item; returns (failed, wrong, problems, digest)."""
    verdicts: dict[str, list[str]] = {}
    failed = wrong = 0
    problems = []
    h_candidates: dict[tuple, list] = {}
    digest = hashlib.sha1()
    for r, rnd in enumerate(rounds):
        for n, (_, item, out, err) in enumerate(rnd["items"]):
            if err is not None:
                failed += 1
                problems.append(f"round {r} item {n}: {err}")
                continue
            key = json.dumps([item, out], sort_keys=True)
            if key not in verdicts:
                verdicts[key] = check_item(workload, item, out)
                for plan in _plans(workload, item, out):
                    for p, q, h in checks.h_steps(plan):
                        h_candidates.setdefault((p, q, h), []).append(key)
            if r == 0:
                digest.update(key.encode())
    # Flood-fill recount of h on a fixed number of small grid-faithful steps.
    for p, q, h in sorted(h_candidates)[:H_CHECKS_PER_RUN]:
        if oracle.flood_fill_h(p, q) != h:
            for key in h_candidates[(p, q, h)]:
                verdicts[key] = verdicts[key] + [f"h {h} of {p} -> {q} != flood-fill count"]
    for r, rnd in enumerate(rounds):
        for n, (_, item, out, err) in enumerate(rnd["items"]):
            if err is None:
                bad = verdicts[json.dumps([item, out], sort_keys=True)]
                if bad:
                    failed += 1
                    wrong += 1
                    problems.append(f"round {r} item {n}: {'; '.join(bad[:3])}")
    return failed, wrong, problems, digest.hexdigest()[:16]


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _kind(workload, item) -> str:
    """Items of one kind: every call of the workload's operation, on
    ``delpezzo`` one family of divisors (short chains on multiples of -K, long
    ones on random divisors), on ``cli`` every repeat of one request."""
    if workload == "cli":
        return json.dumps(item)
    return item["kind"] if workload == "delpezzo" else workload


def item_percentile(workload, rounds, q) -> float:
    """The q-th percentile latency, in seconds, taken within kinds: the mean
    over kinds of each kind's median, times the q-th percentile of every
    completed item's latency over its own kind's median.  With one kind this
    is the plain percentile."""
    by_kind = defaultdict(list)
    for rnd in rounds:
        for t, item, _, err in rnd["items"]:
            if err is None:
                by_kind[_kind(workload, item)].append(t)
    medians = {k: statistics.median(ts) for k, ts in by_kind.items()}
    relative = [t / medians[k] for k, ts in by_kind.items() for t in ts]
    return statistics.mean(medians.values()) * _percentile(relative, q)


def end_to_end(workload, rounds) -> dict:
    times = [it[0] for rnd in rounds for it in rnd["items"] if it[3] is None]
    if not times:
        raise HarnessError("no item completed")
    setups = [s for rnd in rounds for s in rnd["setup_s"]]
    values = {
        "setup_s": statistics.median(setups),
        "items_per_s": len(times) / sum(times),
        "item_p50_ms": 1000 * item_percentile(workload, rounds, 50),
        "item_p90_ms": 1000 * item_percentile(workload, rounds, 90),
        "peak_rss_mb": max(kb for rnd in rounds for kb in rnd["peak_rss_kb"]) / 1024,
    }
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}


PER_LAYER = (
    ("lattice.reduced_component_total", ("calls", "self_s")),
    ("lattice.contains_lattice_translate", ("calls", "self_s")),
    ("lattice.minkowski_sum", ("calls", "self_s")),
    ("toric.transfer_check", ("calls", "self_s")),
    ("toric.improved_ternary_bound", ("self_s",)),
    ("toric.hilbert_classic_plan", ("self_s",)),
    ("toric.plan_transfer", ("self_s",)),
    ("delpezzo.intersect", ("calls", "self_s")),
    ("delpezzo.is_nef", ("calls", "self_s")),
    ("delpezzo.is_ample", ("calls", "self_s")),
    ("delpezzo.transfer_sequence", ("self_s",)),
    ("delpezzo.ample_step", ("calls", "self_s")),
    ("delpezzo.contract_along", ("calls", "self_s")),
    ("delpezzo.surface_from_name", ("self_s",)),
    ("intlinalg.solve_quadratic_lattice", ("calls", "self_s")),
    ("intlinalg.solve_in_column_span", ("calls", "self_s")),
    ("ruled.build_schedule", ("calls", "self_s")),
    ("ruled.minimal_transfer_t", ("calls", "self_s")),
    ("ruled.minimal_d", ("self_s",)),
    ("ruled.multiplier_degree_bound", ("self_s",)),
    ("cli.run", ("self_s",)),
)
COUNTS = ("lattice.translates", "toric.transfer_check.inapplicable", "toric.plan_steps",
          "delpezzo.steps.subtract", "delpezzo.steps.contract", "delpezzo.steps.ample", "delpezzo.steps.terminal")


def per_layer(rounds) -> dict:
    """Per-layer metrics per round (one round is a fixed amount of work)."""
    calls, self_s, counts, distinct = defaultdict(int), defaultdict(float), defaultdict(int), defaultdict(int)
    for rnd in rounds:
        for tr in rnd["traces"]:
            for k, v in tr["calls"].items():
                calls[k] += v
            for k, v in tr["self_s"].items():
                self_s[k] += v
            for k, v in tr["counts"].items():
                counts[k] += v
            for k, v in tr["distinct"].items():
                distinct[k] += v
    n = len(rounds)
    out = {}
    for name, fields in PER_LAYER:
        if "calls" in fields:
            out[f"{name}.calls"] = (calls[name] / n, "count")
        out[f"{name}.self_s"] = (self_s[name] / n, "s")
    for name in COUNTS:
        out[name] = (counts[name] / n, "count")
    tc = "toric.transfer_check"
    out[f"{tc}.distinct"] = (distinct[tc] / n, "count")
    out[f"{tc}.repeat_ratio"] = (1 - distinct[tc] / calls[tc] if calls[tc] else 0.0, "ratio")
    done = counts[f"{tc}.completed"]
    out[f"{tc}.holds_ratio"] = (counts[f"{tc}.holds"] / done if done else 0.0, "ratio")
    out["ruled.minimal_transfer_t.distinct"] = (distinct["ruled.minimal_transfer_t"] / n, "count")
    interp = [s for rnd in rounds for s in rnd["interpreter_s"]]
    imports = [s for rnd in rounds for s in rnd["import_s"]]
    out["cli.interpreter_s"] = (statistics.median(interp) if imports else 0.0, "s")
    out["cli.import_s"] = (statistics.median(imports) if imports else 0.0, "s")
    out["cli.stdout_bytes"] = (sum(rnd["stdout_bytes"] for rnd in rounds) / n, "bytes")
    times = [it[0] for rnd in rounds for it in rnd["items"] if it[3] is None]
    out["traced.items_per_s"] = (len(times) / sum(times), "1/s")
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(out.items())}


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Run whole rounds until the next one would end after ``seconds`` and
    the run has at least ``MIN_ITEMS`` items."""
    env = _env(trace)
    compileall.compile_dir(str(SRC), quiet=1)
    _spawn(["-c", "import sostransfer.cli"], None, env)  # warm the file cache; not measured
    items = inputs.round_inputs(workload, seed, smoke)
    rounds = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        done = sum(len(rnd["items"]) for rnd in rounds)
        if rounds and (smoke or (elapsed + elapsed / len(rounds) > seconds and done >= MIN_ITEMS)):
            break
        if workload == "cli":
            rounds.append(cli_round(items, trace, env))
        else:
            rounds.append(library_round(workload, items, trace, env))
    return rounds


def run_workload(workload, seed, seconds, trace, smoke=False) -> dict:
    if not (SRC / "sostransfer" / "__init__.py").is_file():
        raise HarnessError(f"no program to measure: {SRC / 'sostransfer'} is missing")
    rounds = measure(workload, seed, seconds, trace, smoke)
    failed, wrong, problems, digest = verify(workload, rounds)
    for line in problems[:10]:
        print(f"FAILED {workload}: {line}", file=sys.stderr)
    attempted = sum(len(rnd["items"]) for rnd in rounds)
    metrics = per_layer(rounds) if trace else end_to_end(workload, rounds)
    if trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{workload}-{seed}.json"
        path.write_text(json.dumps({"workload": workload, "seed": seed, "rounds": [rnd["traces"] for rnd in rounds],
                                    "metrics": metrics}, separators=(",", ":")))
        print(f"{workload}: trace written to {path.relative_to(ROOT)}")
    print(f"{workload}: {len(rounds)} rounds, {attempted} items, {failed} failed, output digest {digest}")
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:14.6g} {m['unit']}")
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_child(workload, seed, seconds, trace, smoke=False) -> dict:
    """One workload run in its own process; returns its result line."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0"] + (["--smoke"] if smoke else [])
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        raise HarnessError(f"{workload} run exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one round at tiny sizes")
    args = ap.parse_args(argv)
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
            print(json.dumps(result, separators=(",", ":")))
            return 0
        results = {w: run_child(w, args.seed, args.seconds, bool(args.trace), args.smoke) for w in WORKLOADS}
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = sorted({m for r in results.values() for m in r["metrics"]})
    print(f"{'metric':45s} {'unit':>6s} " + " ".join(f"{w:>12s}" for w in WORKLOADS))
    for row in ("attempted", "failed"):
        print(f"{row:45s} {'count':>6s} " + " ".join(f"{results[w][row]:12d}" for w in WORKLOADS))
    for name in names:
        unit = next(r["metrics"][name]["unit"] for r in results.values() if name in r["metrics"])
        print(f"{name:45s} {unit:>6s} " + " ".join(f"{results[w]['metrics'][name]['value']:12.5g}" for w in WORKLOADS))
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "workloads": results}, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
