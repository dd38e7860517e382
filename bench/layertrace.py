"""Per-layer tracing for the traced run, from outside the program.

``install`` replaces public functions of ``sostransfer`` where their callers
look them up (the module global a caller reads, or the class attribute for
``SurfaceModel.intersect``) with wrappers that time each call.  Functions
called often record a count and a summed self time; the others also record a
span (id, parent id, name, start, end).  Self time is a call's duration minus
the time of the traced calls inside it.  The tracer's own bookkeeping on
results (such as counting translates) is credited to no layer.
"""

from __future__ import annotations

import time
from collections import defaultdict

# Functions called up to millions of times per round: counters only.
COUNTER_ONLY = frozenset({
    "delpezzo.intersect", "delpezzo.is_nef", "delpezzo.is_ample",
    "lattice.minkowski_sum", "lattice.contains_lattice_translate",
    "intlinalg.solve_in_column_span", "intlinalg.solve_quadratic_lattice",
    "ruled.minimal_transfer_t",
})


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [span id or None, seconds covered by children]
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)
        self._next_id = 0

    def call(self, name, fn, args, kwargs, after=None):
        span = name not in COUNTER_ONLY
        parent = next((f[0] for f in reversed(self.stack) if f[0] is not None), None)
        if span:
            self._next_id += 1
        frame = [self._next_id if span else None, 0.0]
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._close(name, frame, t0, parent)
            if after is not None:
                self.hidden(after, args, None, exc)
            raise
        self._close(name, frame, t0, parent)
        if after is not None:
            self.hidden(after, args, result, None)
        return result

    def _close(self, name, frame, t0, parent) -> None:
        t1 = time.perf_counter()
        self.stack.pop()
        dur = t1 - t0
        self.calls[name] += 1
        self.self_s[name] += dur - frame[1]
        if self.stack:
            self.stack[-1][1] += dur
        if frame[0] is not None:
            self.spans.append((frame[0], parent, name, t0, t1))

    def hidden(self, fn, *args) -> None:
        """Run tracer bookkeeping without charging its time to any layer."""
        t0 = time.perf_counter()
        fn(*args)
        if self.stack:
            self.stack[-1][1] += time.perf_counter() - t0

    def dump(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "spans": self.spans,
        }


def install(tr: Tracer) -> None:
    """Wrap the layers' public functions; returns nothing, patches in place."""
    from sostransfer import cli, delpezzo, lattice, ruled, toric

    orig_msum = lattice.minkowski_sum

    def patch(name, owners, attr, after=None, before=None):
        orig = getattr(owners[0], attr)

        def wrapper(*args, **kwargs):
            if before is not None:
                tr.hidden(before, args)
            return tr.call(name, orig, args, kwargs, after)

        wrapper.__wrapped__ = orig
        for owner in owners:
            setattr(owner, attr, wrapper)

    def count_translates(args, result, exc):
        if exc is None:
            p, q = args[0], args[1]
            tr.counts["lattice.translates"] += orig_msum(p, q.reflect()).lattice_point_count

    def check_key(args):
        tr.distinct["toric.transfer_check"].add((args[0].vertices, args[1].vertices))

    def check_verdict(args, result, exc):
        if isinstance(exc, lattice.TranslateContainmentError):
            tr.counts["toric.transfer_check.inapplicable"] += 1
        elif exc is None:
            tr.counts["toric.transfer_check.completed"] += 1
            tr.counts["toric.transfer_check.holds"] += int(result.holds)

    def plan_steps(args, result, exc):
        if exc is None:
            plan = result[0] if isinstance(result, tuple) else result
            tr.counts["toric.plan_steps"] += len(plan.steps)

    kinds = {"subtract_negative_curve": "subtract", "contract": "contract", "ample_step": "ample", "terminal": "terminal"}

    def chain_steps(args, result, exc):
        if exc is None:
            for st in result.steps:
                tr.counts["delpezzo.steps." + kinds[st.kind]] += 1

    def t_key(args):
        tr.distinct["ruled.minimal_transfer_t"].add(args[0])

    patch("lattice.reduced_component_total", [toric], "reduced_component_total", after=count_translates)
    patch("lattice.contains_lattice_translate", [lattice], "contains_lattice_translate")
    patch("lattice.minkowski_sum", [lattice, toric], "minkowski_sum")
    patch("toric.transfer_check", [toric], "transfer_check", after=check_verdict, before=check_key)
    for fn in ("improved_ternary_bound", "hilbert_classic_plan", "plan_transfer"):
        patch("toric." + fn, [toric], fn, after=plan_steps)
    patch("delpezzo.intersect", [delpezzo.SurfaceModel], "intersect")
    for fn in ("is_nef", "is_ample", "ample_step", "contract_along", "surface_from_name"):
        patch("delpezzo." + fn, [delpezzo], fn)
    patch("delpezzo.transfer_sequence", [delpezzo], "transfer_sequence", after=chain_steps)
    for fn in ("solve_quadratic_lattice", "solve_in_column_span"):
        patch("intlinalg." + fn, [delpezzo], fn)
    for fn in ("build_schedule", "minimal_d", "multiplier_degree_bound"):
        patch("ruled." + fn, [ruled], fn)
    patch("ruled.minimal_transfer_t", [ruled], "minimal_transfer_t", before=t_key)
    patch("cli.run", [cli], "run")
