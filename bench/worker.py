"""One measured process: a round of library calls for one workload.

Usage: ``python3 worker.py WORKLOAD TRACE [probe]`` with ``src`` on
``PYTHONPATH`` and the round's inputs as JSON on stdin.  Prints one JSON
document: the monotonic time at which the first item could start, each
item's seconds and output (or error), the process's peak resident set, and
the trace when TRACE is 1.  A probe stops once the first item could start: it
measures set-up only.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

from sostransfer import delpezzo, lattice, toric  # noqa: E402


def _ternary(inputs):
    # Each row computes both pipelines; the outputs are serialized after timing.
    return [(lambda d=d: (toric.improved_ternary_bound(d), toric.hilbert_classic_plan(d))) for d in inputs]


def _plan(inputs):
    polys = [lattice.LatticePolygon(v) for v in inputs]
    return [(lambda p=p: toric.plan_transfer(p)) for p in polys]


def _delpezzo(inputs):
    # Building and validating the catalogued surfaces is set-up: done here,
    # it is not charged to whichever item first names a surface.
    delpezzo.catalogue()
    return [(lambda it=it: delpezzo.transfer_sequence(delpezzo.surface_from_name(it["surface"]), tuple(it["divisor"])))
            for it in inputs]


def to_json(workload, out):
    if workload == "ternary":
        (plan, budget), classic = out
        return {"improved": toric.plan_to_json_dict(plan), "budget": budget,
                "classic": toric.plan_to_json_dict(classic)}
    if workload == "plan":
        return toric.plan_to_json_dict(out)
    return delpezzo.transfer_to_json_dict(out)


def main() -> int:
    workload, trace = sys.argv[1], sys.argv[2] == "1"
    tracer = None
    if trace:
        import layertrace

        tracer = layertrace.Tracer()
        layertrace.install(tracer)
    items = {"ternary": _ternary, "plan": _plan, "delpezzo": _delpezzo}[workload](json.load(sys.stdin))
    ready = time.monotonic()
    if sys.argv[3:] == ["probe"]:
        items = []
    timed = []
    for item in items:
        err = out = None
        t0 = time.perf_counter()
        try:
            out = tracer.call("item", item, (), {}) if tracer else item()
        except Exception as exc:  # an item that raises is a failed operation
            err = f"{type(exc).__name__}: {exc}"
        timed.append((time.perf_counter() - t0, out, err))
    from peakrss import peak_rss_kb

    results = [{"s": s, "out": None if err else to_json(workload, out), "error": err} for s, out, err in timed]
    json.dump({"start": T_START, "ready": ready, "items": results, "peak_rss_kb": peak_rss_kb(),
               "trace": tracer.dump() if tracer else None}, sys.stdout, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
