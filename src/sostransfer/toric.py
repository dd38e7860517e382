"""Polygon-level transfer criterion, iterative pipelines, and plan search.

The one-step criterion compares the lattice-point count of 2Q plus the total
reduced component count h of the differences ``P \\ (Q+m)`` against the
interior count of P + Q.  Chains of passing steps end at a polygon of a
minimal-degree toric surface: a Lawrence prism or twice the unit triangle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import Callable, Iterator, Optional, Sequence

from .lattice import (
    DegeneratePolygonError,
    LatticePolygon,
    inside_translate_count,
    is_lawrence_prism,
    is_twice_unit_triangle,
    minkowski_lattice_point_count,
    rectangle,
    veronese_triangle,
    wide_prism,
)


class ToricTransferError(ValueError):
    """Base error for the toric transfer layer."""


class NoPlanError(ToricTransferError):
    """No valid plan found; carries the best partial chain."""

    def __init__(self, message: str, partial_steps=()):
        super().__init__(message)
        self.partial_steps = tuple(partial_steps)


class PipelineStepError(ToricTransferError):
    """An iterative pipeline step failed its check (transcription bug)."""

    def __init__(self, message: str, p=None, q=None, verdict=None):
        super().__init__(message)
        self.p, self.q, self.verdict = p, q, verdict


@dataclass(frozen=True)
class TransferVerdict:
    """Outcome of the one-step polygon criterion."""

    count_2Q: int
    h: int
    interior_PQ: int
    holds: bool
    margin: int

    def __post_init__(self) -> None:
        if self.margin != self.count_2Q + self.h - self.interior_PQ:
            raise ToricTransferError("margin must equal count_2Q + h - interior_PQ")
        if self.holds != (self.margin > 0):
            raise ToricTransferError("holds must mirror margin > 0")


@dataclass(frozen=True)
class PlanStep:
    p: LatticePolygon
    q: LatticePolygon
    verdict: TransferVerdict
    note: str = ""


@dataclass(frozen=True)
class TransferPlan:
    """A chained transfer: every step passes, consecutive polygons match,
    and the terminal polygon belongs to a minimal-degree toric surface."""

    steps: tuple[PlanStep, ...]
    terminal: LatticePolygon
    terminal_kind: str  # "lawrence_prism" | "twice_unit_triangle"
    total_multiplier_degree: int

    def validate(self) -> None:
        for a, b in itertools.pairwise(self.steps):
            if a.q != b.p:
                raise ToricTransferError("steps must chain: next P is previous Q")
        for s in self.steps:
            if not s.verdict.holds:
                raise ToricTransferError("plan contains a failing step")
        if self.steps and self.steps[-1].q != self.terminal:
            raise ToricTransferError("terminal must be the last step's Q")
        if self.terminal_kind == "lawrence_prism":
            if is_lawrence_prism(self.terminal) is None:
                raise ToricTransferError("terminal is not a Lawrence prism")
        elif self.terminal_kind == "twice_unit_triangle":
            if not is_twice_unit_triangle(self.terminal):
                raise ToricTransferError("terminal is not twice the unit triangle")
        else:
            raise ToricTransferError(f"unknown terminal kind {self.terminal_kind!r}")


@lru_cache(maxsize=4096)
def transfer_check(p: LatticePolygon, q: LatticePolygon) -> TransferVerdict:
    """One-step criterion: does Q support multipliers for P?

    Requires that no lattice translate of P sits inside Q; when that
    hypothesis fails the criterion is inapplicable (raised, not False).
    Every count is Pick's theorem on areas and boundary counts: #L(2Q) is
    2 A2(Q) + B(Q) + 1 for twice the area A2(Q) and the boundary count B(Q),
    and #int(P + Q) is #L(P + Q) - B(P) - B(Q), with #L(P + Q) from the
    mixed area; neither 2Q nor P + Q is built.

    A check counts #L(P + Q) and N_in = #{m : Q + m inside int P} once
    each, and ``reduced_component_total`` gives h = #L(P + Q) + N_in - A2(P)
    - A2(Q) - B(Q) - 2.  In the margin count(2Q) + h - #int(P + Q) the count
    #L(P + Q) cancels, so the margin holds no mixed area at all:

        margin = A2(Q) - A2(P) + B(P) + B(Q) - 1 + N_in.
    """
    n_in, lattice_pq = inside_translate_count(p, q), minkowski_lattice_point_count(p, q)
    bp, bq = p.boundary_lattice_point_count, q.boundary_lattice_point_count
    h = lattice_pq + n_in - p.twice_area - q.twice_area - bq - 2
    margin = q.twice_area - p.twice_area + bp + bq - 1 + n_in
    return TransferVerdict(2 * q.twice_area + bq + 1, h, lattice_pq - bp - bq, margin > 0, margin)


def _passing_margin(p: LatticePolygon, q: LatticePolygon) -> Optional[int]:
    """``transfer_check(p, q).margin`` when it is positive, else None; the
    planners decide candidates by it and count #L(P + Q) and h only for the
    step they emit.

    The margin is m0 + N_in with m0 = A2(Q) - A2(P) + B(P) + B(Q) - 1.  A
    translate Q + m inside int P lies in a cell of the box that
    ``lattice.inside_translate_count`` scans, which has max(cols, 0) *
    max(rows, 0) cells for cols = width(P) - width(Q) - 1 and rows =
    height(P) - height(Q) - 1.  So N_in is at most that many, and a pair
    with m0 + cells <= 0 fails with no scan at all.  Any other pair makes
    one ``inside_translate_count``.

    The bound hides no translate containment.  If P + m lies in Q, then
    A2(Q) >= A2(P), so m0 >= B(P) + B(Q) - 1 >= 5, since every polygon has
    at least three boundary points.  Then m0 + cells > 0, and the count
    raises TranslateContainmentError as ``transfer_check`` does.
    """
    pxmin, pymin, pxmax, pymax = p.bounding_box
    qxmin, qymin, qxmax, qymax = q.bounding_box
    cols = (pxmax - pxmin) - (qxmax - qxmin) - 1
    rows = (pymax - pymin) - (qymax - qymin) - 1
    m0 = q.twice_area - p.twice_area + p.boundary_lattice_point_count + q.boundary_lattice_point_count - 1
    if m0 + max(cols, 0) * max(rows, 0) <= 0:
        return None
    margin = m0 + inside_translate_count(p, q)
    return margin if margin > 0 else None


def reduced_component_total(p: LatticePolygon, q: LatticePolygon) -> int:
    """Total reduced component count h over all lattice translates of Q:
    the sum over m in Z^2 of (blocks(m) - 1)+, where blocks(m) is the number
    of maximal arcs of the boundary of P that Q + m covers, so that
    P \\ (Q + m) has max(blocks(m), 1) components (the oracle
    ``difference_components`` in ``tests/conftest.py`` counts them).

    Requires the transfer hypothesis: no lattice translate of P fits inside
    Q.  Then h has a closed form:

        h = #L(P + Q) + #{m : Q + m inside int P} - A2(P) - A2(Q) - B(Q) - 2,

    for twice the areas A2 and the boundary counts B; it is the h of
    ``transfer_check``.

    Proof.  By the hypothesis Q' = Q + m never contains P, so the covered
    set is a closed proper subset of the circle bounding P, and each of its
    components has one first point going counter-clockwise.  On e_i the
    covered part is one closed segment, since Q' is convex.  A component
    starts on e_i, at a point of the half-open edge (v_i, v_(i+1)], exactly
    when that segment is nonempty and v_i is not in Q'.  As v_i in Q'
    implies the segment is nonempty,

        blocks(m) = sum_i ([e_i meets Q'] - [v_i in Q']).

    Over all m, e_i meets Q + m for the m in e_i + (-Q) and v_i lies in
    Q + m for the m in v_i - Q, so the sum of blocks(m) is
    sum_i (#L(e_i + (-Q)) - #L(Q)).  Let edge e_i = [v_i, v_(i+1)] of P
    have lattice length g_i and primitive outward normal n_i, and let w_i
    = max - min of n_i.w over the vertices w of Q.  Adding the segment e_i
    to -Q adds 2 g_i w_i to twice its area and 2 g_i to its boundary count,
    so by Pick's theorem #L(e_i + (-Q)) - #L(Q) = g_i (w_i + 1).  Finally
    blocks(m) >= 1 exactly when Q + m meets the boundary of P, that is for
    the m of the zone P + (-Q) except those with Q + m inside the interior
    of P (a translate that meets P but not its boundary lies in the
    interior), so

        h = sum_i g_i (w_i + 1) - #L(P + (-Q)) + #{m : Q + m inside int P}.

    The two mixed areas in it cancel.  Write M- = sum_i g_i max_w (-n_i.w)
    and M+ = sum_i g_i max_w n_i.w for the mixed terms of P with -Q and
    with Q, so that w_i splits into the two maxima and, by Pick's theorem
    as in ``lattice.minkowski_lattice_point_count``,

        sum_i g_i (w_i + 1) = M- + M+ + B(P),
        #L(P + (-Q)) = (A2(P) + A2(Q) + B(P) + B(Q))/2 + M- + 1,
        #L(P + Q) = (A2(P) + A2(Q) + B(P) + B(Q))/2 + M+ + 1.

    Subtracting the second line from the first and putting M+ from the
    third gives the closed form.  Neither sum is built, and the last count
    is ``lattice.inside_translate_count``.
    """
    return transfer_check(p, q).h


# -- closed forms for the classic ternary iteration ---------------------------


def hilbert_classic_bound(d: int) -> int:
    """Total multiplier degree of the classic degree-lowering iteration."""
    if d < 3:
        raise ToricTransferError("classic bound needs degree at least 3")
    return d * (d - 2) // 2 if d % 2 == 0 else (d - 1) ** 2 // 2


@lru_cache(maxsize=2048, typed=True)
def trapezoid(d: int, m: int) -> LatticePolygon:
    """The trapezoid cut from the degree-d triangle: x >= 0, 0 <= y <= d-m,
    x + y <= d, for 0 <= m < d (m = d would be a segment).  Twice it holds
    degree-2d forms vanishing to order 2m at a torus-fixed point.  Built
    once per (d, m) in a bounded, typed cache, as the candidate shapes of
    ``lattice`` are."""
    if m < 0 or m >= d:
        raise ToricTransferError("trapezoid needs 0 <= m < d")
    return LatticePolygon([(0, 0), (d, 0), (m, d - m), (0, d - m)])


# -- degree functional ---------------------------------------------------------


def ternary_degree(q: LatticePolygon) -> int:
    """Minimal k with Q inside a translate of the degree-k triangle."""
    xs = [v.x for v in q.vertices]
    ys = [v.y for v in q.vertices]
    return max(v.x + v.y for v in q.vertices) - min(xs) - min(ys)


def step_multiplier_degree(q: LatticePolygon, context: str) -> int:
    """Declared per-step multiplier degree.

    Ternary context: twice the minimal triangle degree containing Q up to
    translation.  Biform context: the side sum of Q's bounding box (the chain
    through shrinking squares then totals d(d-1), matching the product
    multiplier's degree on the doubled embedding).
    """
    if context == "ternary":
        return 2 * ternary_degree(q)
    if context == "biform":
        xmin, ymin, xmax, ymax = q.bounding_box
        return (xmax - xmin) + (ymax - ymin)
    raise ToricTransferError(f"unknown degree context {context!r}")


def _is_terminal(q: LatticePolygon) -> Optional[str]:
    if is_lawrence_prism(q) is not None:
        return "lawrence_prism"
    if is_twice_unit_triangle(q):
        return "twice_unit_triangle"
    return None


# -- chain descent -------------------------------------------------------------


#: The most steps a chain may take.  Every step rule strictly descends, so
#: a longer chain exists whenever the budget runs out: running out is a
#: resource limit, not inapplicability.
MAX_CHAIN_STEPS = 10_000


def _descend(
    source: LatticePolygon,
    next_step: Callable[[LatticePolygon], Optional[PlanStep]],
    context: str,
) -> TransferPlan:
    """The validated chain from source that next_step builds, one step per
    state, down to a terminal polygon; the total is in context's units.

    next_step returns None when no step passes; NoPlanError then carries the
    chain so far.  A chain that needs more than ``MAX_CHAIN_STEPS`` steps is
    refused with ToricTransferError.
    """
    steps: list[PlanStep] = []
    cur = source
    while (kind := _is_terminal(cur)) is None:
        if len(steps) >= MAX_CHAIN_STEPS:
            raise ToricTransferError(f"the chain needs more than the budget of {MAX_CHAIN_STEPS} steps")
        step = next_step(cur)
        if step is None:
            raise NoPlanError("no plan", steps)
        steps.append(step)
        cur = step.q
    total = sum(step_multiplier_degree(s.q, context) for s in steps)
    plan = TransferPlan(tuple(steps), cur, kind, total)
    plan.validate()
    return plan


# -- classic pipeline ----------------------------------------------------------


def _classic_step(cur: LatticePolygon) -> PlanStep:
    q = veronese_triangle(ternary_degree(cur) - 2)
    verdict = transfer_check(cur, q)
    if not verdict.holds:
        raise PipelineStepError("classic step failed", cur, q, verdict)
    return PlanStep(cur, q, verdict, note="classic")


def hilbert_classic_plan(d: int) -> TransferPlan:
    """The classic chain dΔ -> (d-2)Δ -> ... down to Δ or 2Δ, each step checked."""
    if d < 3:
        raise ToricTransferError("classic plan needs degree at least 3")
    return _descend(veronese_triangle(d), _classic_step, "ternary")


# -- improved ternary pipeline -------------------------------------------------

_CLOSE_AT_OR_BELOW = 5


@lru_cache(maxsize=2048)
def _pipeline_step(d: int, m: int) -> PlanStep:
    """The corner-biting pipeline's step from the trapezoid state T(d, m).

    While the cut is small (m < 3) the step bites the corner down to the
    largest cut m2 <= d - 1 with a positive margin.  No translate of
    T(d, m2) fits inside int T(d, m), since its base holds d + 1 lattice
    points and no row of the interior more than d - 1, so the margin is
    m² - m2² + 6d - m - m2 - 1: positive exactly while m2 (m2 + 1) <=
    m² - m + 6d - 2.  Degree drops go three at a time while the cut lasts;
    once the degree is small a direct step onto the cheapest passing
    terminal candidate, a prism or twice the unit triangle, closes the
    chain.  Steps are memoized per state in a bounded LRU, so the chains of
    nearby degrees share their tails.
    """
    cur = trapezoid(d, m)
    if d <= _CLOSE_AT_OR_BELOW:
        for cand, _, terminal in _family_candidates(("prisms", "veronese"), "ternary", d, d - m, d):
            if terminal and _passing_margin(cur, cand) is not None:
                return PlanStep(cur, cand, transfer_check(cur, cand), note="close")
    if m < 3:
        q = trapezoid(d, min(d - 1, (isqrt(4 * (m * m - m + 6 * d - 2) + 1) - 1) // 2))
        note, failure = "bite", "no corner bite passes"
    else:
        q, note, failure = trapezoid(d - 3, m - 3), "reduce", "degree-drop step failed"
    verdict = transfer_check(cur, q)
    if not verdict.holds:
        raise PipelineStepError(f"{failure} at T({d},{m})", cur, q, verdict)
    return PlanStep(cur, q, verdict, note=note)


def _trapezoid_step(cur: LatticePolygon) -> PlanStep:
    _, _, d, height = cur.bounding_box  # cur is T(d, d - height)
    return _pipeline_step(d, d - height)


def improved_ternary_bound(d: int) -> tuple[TransferPlan, int]:
    """Corner-biting pipeline for degree-2d ternary forms.

    Returns the validated plan together with its total degree in polygon
    units (the sum over steps of the minimal triangle degree of each
    multiplier's support; the asymptotic leading term of that total is d²/6).
    The plan itself carries the full polynomial-degree total, twice as large.
    """
    if d < 5:
        raise ToricTransferError("improved pipeline needs degree at least 5")
    plan = _descend(trapezoid(d, 0), _trapezoid_step, "ternary")
    return plan, plan.total_multiplier_degree // 2


# -- generic planner -----------------------------------------------------------

def _infer_context(p: LatticePolygon) -> str:
    # a convex polygon inside its bounding box with the box's area is the box
    xmin, ymin, xmax, ymax = p.bounding_box
    return "biform" if p.twice_area == 2 * (xmax - xmin) * (ymax - ymin) else "ternary"


#: The candidate families that ``plan_transfer`` accepts; the first four
#: are its default.  ``exhaustive`` holds every polygon of ternary degree at
#: most min(kmax, 6), so above degree 6 it is not exhaustive.
_FAMILIES = ("trapezoids", "rectangles", "prisms", "veronese", "squares", "exhaustive")


@lru_cache(maxsize=256)
def _family_candidates(
    families: tuple[str, ...], context: str, w: int, hgt: int, kmax: int
) -> tuple[tuple[LatticePolygon, int, bool], ...]:
    """(q, degree, terminal) for each candidate of the families cheaper than
    the state's own step degree (``step_multiplier_degree``: 2 kmax in
    ternary context, w + hgt in biform), ordered by degree then vertex list.
    The candidates depend on a state only through its bounding width w and
    height hgt and its ternary degree kmax, so they are built once per such
    key.  No candidate holds a lattice translate of the state, so none is
    refused for translate containment: a polygon that holds a translate of
    P has at least P's ternary degree and box side sum.  The planners
    decide each candidate by ``_passing_margin``, whose box bound rejects
    most failing ones without a scan."""
    cur_deg = 2 * kmax if context == "ternary" else w + hgt
    out: dict[LatticePolygon, tuple[LatticePolygon, int, bool]] = {}

    def add(q: LatticePolygon) -> None:
        if q not in out and (entry := _candidate(q, context))[1] < cur_deg:
            out[q] = entry

    for fam in families:
        if fam == "squares":
            for k in range(1, max(w, hgt)):
                add(rectangle(k, k))
        elif fam == "rectangles":
            for a in range(1, w + 1):
                for b in range(1, hgt + 1):
                    add(rectangle(a, b))
        elif fam == "veronese":
            for k in range(1, kmax):
                add(veronese_triangle(k))
        elif fam == "trapezoids":
            for dd in range(2, kmax):
                for mm in range(0, dd):
                    add(trapezoid(dd, mm))
        elif fam == "prisms":
            for h1 in range(1, kmax + 1):
                for h2 in range(0, h1 + 1):
                    add(wide_prism(h1, h2))
        elif fam == "exhaustive":
            for q in iter_convex_subpolygons(min(kmax, 6)):
                add(q)
    return tuple(sorted(out.values(), key=lambda entry: (entry[1], entry[0].vertices)))


@lru_cache(maxsize=4096)
def _candidate(q: LatticePolygon, context: str) -> tuple[LatticePolygon, int, bool]:
    """(q, degree, terminal) of a candidate, one shared entry per polygon, so
    that the candidate tuples of many states hold the same objects."""
    return q, step_multiplier_degree(q, context), _is_terminal(q) is not None


def _greedy_step(cur: LatticePolygon, families: tuple[str, ...], ctx: str) -> Optional[PlanStep]:
    """The planner's step from cur: a passing terminal candidate if any,
    else any passing candidate; the cheapest, then the largest margin, then
    the smallest canonical vertex list.  Candidates are decided by
    ``_passing_margin`` alone, and only the step it returns gets a full
    ``transfer_check``."""
    xmin, ymin, xmax, ymax = cur.bounding_box
    candidates = _family_candidates(families, ctx, xmax - xmin, ymax - ymin, ternary_degree(cur))
    for terminal_only in (True, False):
        level: Optional[int] = None
        best: Optional[tuple[tuple[int, tuple], LatticePolygon]] = None
        for q, deg, terminal in candidates:
            if terminal != terminal_only:
                continue
            if level is not None and deg > level:
                break
            if (margin := _passing_margin(cur, q)) is None:
                continue
            key = (-margin, q.vertices)
            if level is None:
                level = deg
            if best is None or key < best[0]:
                best = (key, q)
        if best is not None:
            return PlanStep(cur, best[1], transfer_check(cur, best[1]))
    return None


def plan_transfer(
    p: LatticePolygon,
    families: Sequence[str] = _FAMILIES[:4],
) -> TransferPlan:
    """Greedy chain search over parametric candidate families.

    At each state the one-step lookahead tries terminal polygons first (by
    ascending multiplier degree); otherwise the cheapest passing candidate is
    taken.  Ties break toward larger margin, then the lexicographically
    smallest canonical vertex list, so plans are reproducible.  A candidate
    is decided by its margin and the box bound of ``_passing_margin``, so a
    failing one costs at most one N_in count; only the emitted steps get a
    full ``transfer_check``, with #L(P + Q) and h.  Every name in families
    must be one of ``_FAMILIES``; an unknown name is refused before the
    search starts, whatever the source.
    """
    families = tuple(families)
    if not families:
        raise ToricTransferError("candidate families must be nonempty")
    for fam in families:
        if fam not in _FAMILIES:
            known = f"{', '.join(_FAMILIES)} (default {','.join(_FAMILIES[:4])})"
            raise ToricTransferError(f"unknown candidate family {fam!r}: the families are {known}")
    ctx = _infer_context(p)
    return _descend(p, lambda cur: _greedy_step(cur, families, ctx), ctx)


# -- exhaustive enumeration of small convex polygons ---------------------------


def iter_convex_subpolygons(k: int) -> Iterator[LatticePolygon]:
    """All full-dimensional convex lattice polygons fitting (up to lattice
    translation) inside the degree-k triangle, k <= 6, each shifted to
    min x = min y = 0 and sorted by canonical vertex list.  Nothing is
    yielded for k < 1, and k > 6 is refused.  Each k is enumerated once per
    process.

    The polygons are the closure of kΔ under vertex removal, taken on sets
    of lattice points: a state is the point set S of a polygon, shifted to
    min x = min y = 0, and its children are the sets S \\ {v}, shifted
    again, for the vertices v of its polygon.  A child whose hull is a
    segment holds no full-dimensional polygon and is skipped.  A child seen
    before is dropped before its hull is built: the search remembers each
    point set as one bitmask over the (k + 1)² grid, an int and not a set.
    The closure is exactly the set asked for:

    1. A vertex v is an extreme point of conv(S), so conv(S \\ {v}) ∩ Z² =
       S \\ {v}: every state is the full point set of its polygon.  No
       lattice point is ever counted, and two states give one polygon
       exactly when they are one set.
    2. Every lattice polygon Q inside a lattice polygon P is reached from P.
       If Q ≠ P, some vertex v of P lies outside Q, and Q still lies inside
       conv(P ∩ Z² \\ {v}), which has fewer lattice points.
    """
    if k < 1:
        return
    if k > 6:
        raise ToricTransferError("exhaustive enumeration is limited to degree 6")
    yield from _convex_subpolygons(k)


@lru_cache(maxsize=6)
def _convex_subpolygons(k: int) -> tuple[LatticePolygon, ...]:
    found, seen, stack = [], set(), [frozenset((x, y) for x in range(k + 1) for y in range(k + 1 - x))]
    while stack:
        points = stack.pop()
        try:
            poly = LatticePolygon(points)
        except DegeneratePolygonError:
            continue
        found.append(poly)
        for v in poly.vertices:
            rest = points - {v}
            x0, y0 = min(x for x, _ in rest), min(y for _, y in rest)
            rest = frozenset((x - x0, y - y0) for x, y in rest)
            if (key := sum(1 << (x * (k + 1) + y) for x, y in rest)) not in seen:
                seen.add(key)
                stack.append(rest)
    return tuple(sorted(found, key=lambda q: q.vertices))


# -- JSON ----------------------------------------------------------------------


def verdict_to_json_dict(v: TransferVerdict) -> dict:
    return {
        "count2q": v.count_2Q,
        "h": v.h,
        "interior": v.interior_PQ,
        "holds": v.holds,
        "margin": v.margin,
    }


_KIND_TO_JSON = {"lawrence_prism": "lawrence_prism", "twice_unit_triangle": "2delta"}


def plan_to_json_dict(plan: TransferPlan) -> dict:
    return {
        "steps": [
            {
                "p": s.p.to_json_dict(),
                "q": s.q.to_json_dict(),
                **{k: v for k, v in verdict_to_json_dict(s.verdict).items() if k != "holds"},
                "note": s.note,
            }
            for s in plan.steps
        ],
        "terminal": plan.terminal.to_json_dict(),
        "terminal_kind": _KIND_TO_JSON[plan.terminal_kind],
        "total_degree": plan.total_multiplier_degree,
    }
