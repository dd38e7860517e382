"""Steadiness check: two sets of runs of the same code, spread against bounds.

    python3 bench/steady.py

Each of the two sets runs every workload once for each of ten seeds, one run
at a time, with the run length of ``BENCHMARK.json``; the second set uses
other seeds than the first.  For every end-to-end metric it prints, per set,
the quartile spread (Q3 - Q1) / median as ``statistics.quantiles(values,
n=4)`` gives it, and the shift of the second set's median against the first,
both next to the metric's bound.  The check passes when every spread except
that of ``setup_s`` and every shift, ``setup_s``'s too, stays within its
bound and the failed share is the same in every run of a workload.  A summary
is written to ``bench/out/steady-<time>.json``.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from fractions import Fraction

import run

SETS = 2
SEEDS_PER_SET = 10


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    sets = []
    for s in range(SETS):
        results = {w: [] for w in run.WORKLOADS}
        for w in run.WORKLOADS:
            for seed in range(1 + 100 * s, 1 + 100 * s + SEEDS_PER_SET):
                r = run.run_child(w, seed, seconds, trace=False)
                results[w].append(r)
                print(f"set {s + 1} {w} seed {seed}: failed {r['failed']}/{r['attempted']} "
                      + " ".join(f"{k}={v['value']:.5g}" for k, v in r["metrics"].items()), flush=True)
        sets.append(results)
    ok = True
    summary = {}
    print(f"\n{'workload':9s} {'metric':12s} {'bound':>6s}  spread1  spread2   shift   median1   median2")
    for w in run.WORKLOADS:
        shares = {Fraction(r["failed"], r["attempted"]) for res in sets for r in res[w]}
        if len(shares) != 1:
            print(f"{w}: failed share differs between runs: {shares}")
            ok = False
        for name, (bound, better) in bounds.items():
            vals = [[r["metrics"][name]["value"] for r in res[w]] for res in sets]
            spreads = [spread(v) for v in vals]
            meds = [statistics.median(v) for v in vals]
            worse = (meds[1] - meds[0]) / meds[0] * (1 if better == "lower" else -1)
            if name != "setup_s" and any(x > bound for x in spreads):
                ok = False
            ok &= worse <= bound
            print(f"{w:9s} {name:12s} {bound:6.3f} " + " ".join(f"{x:8.4f}" for x in spreads)
                  + f" {worse:+7.4f} {meds[0]:9.5g} {meds[1]:9.5g}"
                  + ("   <- above a third of the bound" if max(spreads) > bound / 3 else ""))
            summary.setdefault(w, {})[name] = {"bound": bound, "spreads": spreads, "medians": meds,
                                               "worse_share": worse}
    run.OUT.mkdir(exist_ok=True)
    path = run.OUT / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps({"seconds": seconds, "seeds_per_set": SEEDS_PER_SET, "summary": summary,
                                "sets": sets}, indent=1))
    print(f"\n{'steady' if ok else 'NOT steady'}; summary in {path.relative_to(run.ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
