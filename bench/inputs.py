"""Seeded inputs of the four workloads.

Every round of a run is one cold process doing the same fixed work on the
same inputs.  The shapes and divisors come from a fixed corpus, so that every
seed costs the same; ``--seed`` moves and reorders them:

- ``ternary``: the bound table d = 5..40, ascending, both pipelines per row.
  A table is a fixed input; the seed does not change it.
- ``plan``: 40 random convex polygons with coordinates 0..8 plus kΔ, squares
  and rectangles.  The seed translates every source by its own lattice
  vector (the planner's work is translation invariant; its cache keys are
  not).
- ``delpezzo``: 6 random real effective divisors (the C07 recipe) on each of
  P2(6,0), P2(2,4), Q31(0,2) and D(1,0), plus n·(-K) for n = 1, 2, 3 on all
  24 catalogued surfaces, always in this order: the first item that needs a
  surface's cone generators or a contraction also computes them (both are
  cached), so another order would move that cost to other items.  The seed
  does not change it.
- ``cli``: 17 requests covering all seven verbs.  The seed shuffles their
  order and translates the polygons.
"""

from __future__ import annotations

import functools
import json
import random

import oracle

CORPUS_SEED = 20260810
TERNARY_DEGREES = range(5, 41)
PLAN_RANDOM = 40
DP_SURFACES = ("P2(6,0)", "P2(2,4)", "Q31(0,2)", "D(1,0)")
DP_PER_SURFACE = 6
DP_MULTIPLES = (1, 2, 3)

# Inline ruled data of the canonical_times_line family in genus 3 with m = 1
# and 2 (-K.H = m(2g-2), H.(H+K) = (2m^2-m)(2g-2), chi(O) = 1-g), each with
# its minimal applicable degree, so the requests sit just above it.
G3M1 = ({"minusK_dot_H": 4, "H_dot_HplusK": 4, "chiO": -2, "ell": 2}, 2280015392)
G3M2 = ({"minusK_dot_H": 8, "H_dot_HplusK": 24, "chiO": -2, "ell": 1}, 131773356036)


def random_polygon(rng: random.Random, max_coord: int = 8):
    while True:
        v = oracle.hull((rng.randint(0, max_coord), rng.randint(0, max_coord)) for _ in range(rng.randint(3, 7)))
        if len(v) >= 3:
            return v


@functools.cache
def _plan_corpus():
    rng = random.Random(CORPUS_SEED)
    sources = [random_polygon(rng) for _ in range(PLAN_RANDOM)]
    sources += [((0, 0), (k, 0), (0, k)) for k in range(3, 9)]
    sources += [((0, 0), (k, 0), (k, k), (0, k)) for k in range(2, 7)]
    sources += [((0, 0), (a, 0), (a, b), (0, b)) for a, b in ((2, 3), (3, 5), (5, 2), (4, 6))]
    return tuple(sources)


def random_divisor(lat: oracle.Lattice, pool, rng: random.Random, max_coeff: int = 2):
    """A nonzero real effective divisor: a random nonnegative combination of
    (-1)-curves and conic bundles, symmetrized under conjugation."""
    for _ in range(100):
        total = [0] * lat.rank
        for cls in pool:
            coeff = rng.randint(0, max_coeff) if rng.random() < 0.3 else 0
            for i, x in enumerate(cls):
                total[i] += coeff * x
        total = [a + b for a, b in zip(total, lat.tau_image(total))]
        if any(total):
            return total
    return [-2 * k for k in lat.K]


@functools.cache
def _delpezzo_corpus():
    rng = random.Random(CORPUS_SEED)
    items = []
    for name in DP_SURFACES:
        lat = oracle.lattice(name)
        pool = lat.classes(-1, -1) + lat.classes(0, -2)
        items += [{"surface": name, "divisor": random_divisor(lat, pool, rng), "kind": "random"}
                  for _ in range(DP_PER_SURFACE)]
    for name, *_ in oracle.CATALOGUE:
        k = oracle.lattice(name).K
        items += [{"surface": name, "divisor": [-n * x for x in k], "kind": "anticanonical"} for n in DP_MULTIPLES]
    return tuple(items)


def _poly_json(v, shift=(0, 0)) -> str:
    return json.dumps({"vertices": [[x + shift[0], y + shift[1]] for x, y in v]}, separators=(",", ":"))


def cli_requests(rng: random.Random, smoke: bool = False) -> list[list[str]]:
    """The request mix: argv lists for ``sostransfer``, every verb present."""

    def shift():
        return (rng.randint(-20, 20), rng.randint(-20, 20))

    square = ((0, 0), (2, 0), (2, 2), (0, 2))
    prism = ((0, 0), (3, 0), (2, 1), (0, 1))
    tri5 = ((0, 0), (5, 0), (0, 5))
    g3m1, g3m1_min = json.dumps(G3M1[0], separators=(",", ":")), G3M1[1]
    g3m2, g3m2_min = json.dumps(G3M2[0], separators=(",", ":")), G3M2[1]
    reqs = [
        ["toric-check", "--p", _poly_json(square, shift()), "--q", _poly_json(((0, 0), (1, 0), (1, 1), (0, 1))), "--json"],
        ["toric-check", "--p", _poly_json(tri5, shift()), "--q", _poly_json(prism), "--json"],
        ["toric-plan", "--p", _poly_json(((0, 0), (6, 0), (0, 6)), shift()), "--json"],
        ["hilbert", "--d", "5", "--improved", "--json"],
        ["delpezzo-catalog", "--json"],
        ["delpezzo-transfer", "--surface", "P2(6,0)", "--divisor", "-K", "--json"],
        ["ruled-schedule", "--elliptic", "--d", "40", "--json"],
        ["ruled-bound", "--elliptic", "--d", "100", "--d0", "5", "--json"],
    ]
    if not smoke:
        reqs += [
            ["toric-plan", "--p", _poly_json(((0, 0), (5, 0), (5, 5), (0, 5)), shift()), "--json"],
            ["hilbert", "--d", "30", "--improved", "--json"],
            ["hilbert", "--d", "24", "--json"],
            ["delpezzo-transfer", "--surface", "Q31(0,2)", "--divisor", "-K", "--json"],
            ["delpezzo-transfer", "--surface", "D(1,0)", "--divisor", "6,-2,-2,-2,-2,-2,-2", "--json"],
            ["ruled-schedule", "--data", g3m2, "--d", str(g3m2_min + 7), "--json"],
            ["ruled-schedule", "--data", g3m1, "--d", str(g3m1_min + 3), "--json"],
            ["ruled-bound", "--data", g3m1, "--d", str(g3m1_min + 60), "--d0", str(g3m1_min), "--json"],
            ["ruled-bound", "--data", g3m2, "--d", str(g3m2_min + 40), "--d0", str(g3m2_min), "--json"],
        ]
    rng.shuffle(reqs)
    return reqs


def round_inputs(workload: str, seed: int, smoke: bool = False):
    """Inputs of every round (one cold process) of a run."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "ternary":
        return list(range(5, 9)) if smoke else list(TERNARY_DEGREES)
    if workload == "plan":
        corpus = _plan_corpus()[:3] if smoke else _plan_corpus()
        return [[[x + dx, y + dy] for x, y in v] for v in corpus for dx, dy in [(rng.randint(-50, 50), rng.randint(-50, 50))]]
    if workload == "delpezzo":
        items = list(_delpezzo_corpus())
        return items[::DP_PER_SURFACE][: len(DP_SURFACES)] + items[-3:] if smoke else items
    if workload == "cli":
        return cli_requests(rng, smoke)
    raise KeyError(workload)
