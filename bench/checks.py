"""Independent checks of every output the benchmark gets back.

Each checker takes an input and the JSON the program produced for it and
returns a list of problems (empty when the output is right).  The checkers
re-derive every number from the JSON with ``oracle``; none imports
``sostransfer``.
"""

from __future__ import annotations

import functools
import itertools
import json
from fractions import Fraction
from math import comb

import oracle


def _poly(obj):
    return oracle.hull(obj["vertices"])


def _context(source) -> str:
    """The planner's degree units: bounding-box sides for an axis-parallel
    rectangle source (biforms), twice the triangle degree otherwise."""
    xs = [x for x, _ in source]
    ys = [y for _, y in source]
    box = oracle.hull([(min(xs), min(ys)), (max(xs), min(ys)), (max(xs), max(ys)), (min(xs), max(ys))])
    return "biform" if oracle.hull(source) == box else "ternary"


def check_step(p, q, st: dict) -> list[str]:
    """#(2Q) and #interior(P+Q) by Pick's theorem; margin positive and exact."""
    errors = []
    count2q = oracle.pick_counts(oracle.scale(q, 2))[0]
    interior = oracle.pick_counts(oracle.msum(p, q))[1]
    if (st["count2q"], st["interior"]) != (count2q, interior):
        errors.append(f"counts {(st['count2q'], st['interior'])} != {(count2q, interior)}")
    margin = count2q + st["h"] - interior
    if st["margin"] != margin or margin <= 0:
        errors.append(f"margin {st['margin']} (recomputed {margin}) must be positive and match")
    return errors


def check_plan(plan: dict, source=None, context: str = "ternary") -> list[str]:
    """Counts by Pick's theorem, positive margins, chained steps, the
    terminal's kind, and the total degree."""
    errors = []
    prev = oracle.hull(source) if source is not None else None
    total = 0
    for i, st in enumerate(plan["steps"]):
        p, q = _poly(st["p"]), _poly(st["q"])
        if prev is not None and p != prev:
            errors.append(f"step {i}: P is not the previous Q (broken chain link)")
        if len(p) < 3 or len(q) < 3:
            errors.append(f"step {i}: degenerate polygon")
            break
        errors += [f"step {i}: {e}" for e in check_step(p, q, st)]
        total += oracle.box_sides(q) if context == "biform" else 2 * oracle.triangle_degree(q)
        prev = q
    terminal = _poly(plan["terminal"])
    if prev is not None and terminal != prev:
        errors.append("terminal is not the last step's Q")
    kind = plan["terminal_kind"]
    if kind == "lawrence_prism":
        ok = len(terminal) >= 3 and oracle.pick_counts(terminal)[1] == 0 and oracle.width_one(terminal)
    elif kind == "2delta":
        ok = oracle.is_twice_unit_triangle(terminal)
    else:
        ok = False
    if not ok:
        errors.append(f"terminal {terminal} is not a {kind}")
    if plan["total_degree"] != total:
        errors.append(f"total degree {plan['total_degree']} != {total}")
    return errors


def _triangle(k):
    return ((0, 0), (k, 0), (0, k))


def check_improved(d: int, plan: dict, budget: int) -> list[str]:
    errors = check_plan(plan, _triangle(d))
    if 2 * budget != plan["total_degree"]:
        errors.append(f"budget {budget} is not half the total {plan['total_degree']}")
    if d == 5:
        st = plan["steps"][0]
        if (st["count2q"], st["h"], st["interior"]) != (18, 3, 20) or plan["total_degree"] != 6:
            errors.append("d = 5 must give the prism check (18, 3, 20) and multiplier degree 6")
    return errors


def check_classic(d: int, plan: dict) -> list[str]:
    errors = check_plan(plan, _triangle(d))
    k = d
    for st in plan["steps"]:
        if (_poly(st["p"]), _poly(st["q"])) != (_triangle(k), _triangle(k - 2)):
            errors.append(f"classic step from {k} is not kΔ -> (k-2)Δ")
        elif (st["count2q"], st["interior"]) != (comb(2 * k - 2, 2), comb(2 * k - 3, 2)):
            errors.append(f"classic step from {k} misses C(2k-2,2), C(2k-3,2)")
        k -= 2
    want = d * (d - 2) // 2 if d % 2 == 0 else (d - 1) ** 2 // 2
    if plan["total_degree"] != want:
        errors.append(f"classic total {plan['total_degree']} != {want}")
    return errors


def check_ternary(d: int, out: dict) -> list[str]:
    return check_improved(d, out["improved"], out["budget"]) + check_classic(d, out["classic"])


def check_source_plan(source, plan: dict) -> list[str]:
    return check_plan(plan, source, _context(source))


def h_steps(plan: dict, limit: int = 80):
    """Steps small and grid-faithful enough for the flood-fill h check."""
    for st in plan["steps"]:
        p, q = _poly(st["p"]), _poly(st["q"])
        if oracle.grid_faithful(p) and oracle.grid_faithful(q) and oracle.translate_count(p, q) <= limit:
            yield p, q, st["h"]


# -- del Pezzo ---------------------------------------------------------------------


def check_transfer(surface: str, start, t: dict) -> list[str]:
    """Pairings, witnesses, χ values, contractions, the terminal and the
    certificate kind of a transfer sequence, from the Picard-lattice data."""
    errors = []
    start = list(start)
    if t["surface"] != surface or list(t["divisor"]) != start:
        errors.append("transfer does not start at the input")
    cur_surf, cur = surface, start
    mk_start = oracle.lattice(surface).minus_k_dot(start)
    trace = []
    steps = t["steps"]
    for i, st in enumerate(steps):
        lat = oracle.lattice(st["surface"])
        d = list(st["divisor"])
        if st["surface"] != cur_surf or d != cur:
            errors.append(f"step {i}: does not continue the previous step (broken chain link)")
        mk = lat.minus_k_dot(d)
        if st["check"]["minus_K_dot"] != mk:
            errors.append(f"step {i}: -K.D {st['check']['minus_K_dot']} != {mk}")
        w = [list(c) for c in st["witness"]]
        kind = st["kind"]
        if kind in ("subtract_negative_curve", "contract"):
            for c in w:
                if lat.dot(c, c) != -1 or lat.dot(lat.K, c) != -1:
                    errors.append(f"step {i}: witness {c} is not a (-1)-class")
            real = len(w) == 1 and lat.is_real(w[0])
            pair = len(w) == 2 and list(lat.tau_image(w[0])) == w[1] and lat.dot(w[0], w[1]) == 0
            if not (real or pair):
                errors.append(f"step {i}: witness is neither a real curve nor a disjoint conjugate pair")
        if kind == "subtract_negative_curve":
            if any(lat.dot(d, c) >= 0 for c in w):
                errors.append(f"step {i}: D.C must be negative")
            res = [x - sum(c[j] for c in w) for j, x in enumerate(d)]
            if list(st["result"]) != res:
                errors.append(f"step {i}: result is not D - sum C")
            trace.append(mk)
            cur = res
        elif kind == "ample_step":
            c, e = w[0], list(st["result"])
            if e != [x - y for x, y in zip(d, c)]:
                errors.append(f"step {i}: E is not D - C")
            chi_2e = lat.chi([2 * x for x in e])
            chi_mde = lat.chi([-x - y for x, y in zip(d, e)])
            if (st["check"]["chi_2E"], st["check"]["chi_minus_D_minus_E"]) != (chi_2e, chi_mde) or chi_2e <= chi_mde:
                errors.append(f"step {i}: wrong χ: need χ(2E) = {chi_2e} > χ(-D-E) = {chi_mde}")
            trace.append(mk)
            cur = e
        elif kind == "contract":
            target = oracle.lattice(st["check"]["target"])
            r = list(st["result"])
            if any(lat.dot(d, c) != 0 for c in w):
                errors.append(f"step {i}: contracted curve meets D")
            if (target.dot(r, r), target.minus_k_dot(r)) != (lat.dot(d, d), mk):
                errors.append(f"step {i}: contraction changes D.D or -K.D")
            if target.degree != lat.degree + len(w):
                errors.append(f"step {i}: target degree {target.degree} != {lat.degree} + {len(w)}")
            cur_surf, cur = target.name, r
        elif kind == "terminal":
            if i != len(steps) - 1:
                errors.append(f"step {i}: terminal before the end")
            ok = False
            if st["check"]["terminal_kind"] == "zero":
                ok = not any(d)
            elif w:
                b, c = w[0], st["check"]["multiple"]
                ok = (c >= 1 and lat.is_real(b) and lat.dot(b, b) == 0 and lat.minus_k_dot(b) == 2
                      and d == [c * x for x in b])
            if not ok or st["check"]["terminal_kind"] != t["terminal_kind"]:
                errors.append(f"step {i}: wrong terminal")
        else:
            errors.append(f"step {i}: unknown kind {kind}")
    if not steps or steps[-1]["kind"] != "terminal":
        errors.append("no terminal step")
    if any(a <= b for a, b in zip(trace, trace[1:])):
        errors.append("-K.D does not strictly decrease over the multiplier steps")
    if len(trace) > mk_start or t["chain_length"] != len(trace):
        errors.append(f"chain length {t['chain_length']} ({len(trace)} steps) exceeds -K.D = {mk_start} or miscounts")
    if t["certificate_kind"] != oracle.CERTIFICATE_KIND.get(surface, "sos"):
        errors.append(f"certificate kind {t['certificate_kind']} does not follow the family of {surface}")
    return errors


# -- ruled surfaces -----------------------------------------------------------------


@functools.cache
def generic_t(minus_k_h: int, h_hk: int) -> int:
    """Ladder length: the smallest t with 1/2 + ... + 1/(t+1) > 2(1 + sqrt(s)),
    s the smallest positive integer with s(-K.H) > H.(H+K)."""
    s = h_hk // minus_k_h + 1 if h_hk >= 0 else 1
    total, t = Fraction(0), 0
    while not (total > 2 and (total - 2) ** 2 > 4 * s):
        t += 1
        total += Fraction(1, t + 1)
    return t


ELLIPTIC = {"minusK_dot_H": 6, "H_dot_HplusK": 0, "chiO": 0, "ell": 1}


def check_schedule(data: dict, d: int, sched: dict, elliptic: bool) -> list[str]:
    errors = []
    a, b, chi_o = data["minusK_dot_H"], data["H_dot_HplusK"], data["chiO"]
    if elliptic:
        if (sched["k"], sched["step_margins"], sched["final_margin"]) != ([2], [12 * d - 6], 2):
            errors.append(f"elliptic schedule at d = {d} must have k = [2] and margins 12d - 6, 2")
        return errors
    lam = 2 * d * a - chi_o
    m = 0
    for j, k in enumerate(sched["k"], 1):
        if not ((2 * j * (k + 1)) ** 2 <= lam <= 4 * (j + 1) ** 2 * k * k):
            errors.append(f"k_{j} = {k} is outside its isqrt interval")
        margin = 2 * d * a - (2 * m + k) * (k + 1) - chi_o
        if sched["step_margins"][j - 1] != margin or margin <= 0:
            errors.append(f"step {j}: margin {sched['step_margins'][j - 1]} (recomputed {margin})")
        m += k
    final = (1 - 2 * d) * b + m * (m - 1) - chi_o
    if sched["final_margin"] != final or final <= 0:
        errors.append(f"final margin {sched['final_margin']} (recomputed {final})")
    if len(sched["k"]) != generic_t(a, b) or sched["t"] != len(sched["k"]):
        errors.append(f"ladder length {sched['t']} != {generic_t(a, b)}")
    ladder = [[d, 0]] + [[d, -mj] for mj in itertools.accumulate(sched["k"])] + [[d - 1, 0]]
    if sched["ladder"] != ladder:
        errors.append("ladder does not follow k")
    return errors


def check_bound(data: dict, d: int, d0: int, bound: dict, elliptic: bool) -> list[str]:
    """Total H-degree and step counts in closed form: each level δ in (d0, d]
    adds t·δ + (δ - 1) over t + 1 steps (t = 1 on the elliptic ladder)."""
    t = 1 if elliptic else generic_t(data["minusK_dot_H"], data["H_dot_HplusK"])
    levels = d - d0
    total = (t + 1) * (d * (d + 1) - d0 * (d0 + 1)) // 2 - levels
    want = {"total_H_degree": total, "steps_counted": (t + 1) * levels}
    got = {k: bound[k] for k in want}
    return [] if got == want else [f"ruled bound {got} != {want}"]


# -- CLI ------------------------------------------------------------------------------


def _arg(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def check_cli(argv: list[str], code: int, stdout: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    lines = stdout.strip().splitlines()
    if len(lines) != 1:
        return [f"expected one JSON document, got {len(lines)} lines"]
    try:
        out = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    verb = argv[0]
    if verb == "toric-check":
        p, q = oracle.hull(json.loads(_arg(argv, "--p"))["vertices"]), oracle.hull(json.loads(_arg(argv, "--q"))["vertices"])
        errors = check_step(p, q, out)
        if out["holds"] is not (out["margin"] > 0):
            errors.append("holds does not mirror the margin")
        if oracle.grid_faithful(p) and oracle.grid_faithful(q) and out["h"] != oracle.flood_fill_h(p, q):
            errors.append(f"h {out['h']} != flood-fill count")
        x0, y0 = min(p)
        if [(x - x0, y - y0) for x, y in p] == list(_triangle(5)) and (out["count2q"], out["h"], out["interior"]) != (18, 3, 20):
            errors.append("the degree-10 prism example must give (18, 3, 20)")
        return errors
    if verb == "toric-plan":
        return check_source_plan(json.loads(_arg(argv, "--p"))["vertices"], out)
    if verb == "hilbert":
        d = int(_arg(argv, "--d"))
        if "--improved" in argv:
            return check_improved(d, out, out["budget_degree"])
        return check_classic(d, out)
    if verb == "delpezzo-catalog":
        rows = [(r["name"], r["degree"], r["real_rank"], r["real_minus_one_curves"]) for r in out]
        errors = [] if rows == list(oracle.CATALOGUE) else ["catalogue differs from the classification table"]
        if any(r["rank"] != oracle.lattice(r["name"]).rank for r in out):
            errors.append("catalogue ranks differ")
        return errors
    if verb == "delpezzo-transfer":
        surface = _arg(argv, "--surface")
        text = _arg(argv, "--divisor")
        start = [-x for x in oracle.lattice(surface).K] if text == "-K" else [int(x) for x in text.split(",")]
        return check_transfer(surface, start, out)
    elliptic = "--elliptic" in argv
    data = ELLIPTIC if elliptic else json.loads(_arg(argv, "--data"))
    if verb == "ruled-schedule":
        return check_schedule(data, int(_arg(argv, "--d")), out, elliptic)
    if verb == "ruled-bound":
        return check_bound(data, int(_arg(argv, "--d")), int(_arg(argv, "--d0")), out, elliptic)
    return [f"unknown verb {verb}"]

