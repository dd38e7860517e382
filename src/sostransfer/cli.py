"""Command-line front end.

Reads polygon, surface, and ruled-surface data, dispatches to the library,
and emits either human-readable tables or JSON.  Exit codes: 0 on success,
1 on malformed input or on work past a budget (a polygon pair too tall to
scan, a toric chain, a del Pezzo walk or a ruled ladder with too many
steps), 2 when a criterion or algorithm is inapplicable to the given input
(for example translate containment or a non-effective divisor) -
inapplicability is not a negative verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import delpezzo, ruled, toric
from .lattice import LatticePolygon, TranslateContainmentError

_INAPPLICABLE = (
    TranslateContainmentError,
    delpezzo.NotEffectiveError,
    delpezzo.NotConjugationFixedError,
    toric.NoPlanError,
    ruled.ScheduleError,
)


class CliInputError(ValueError):
    pass


def _emit_json(obj) -> None:
    print(json.dumps(obj, separators=(",", ":")))


def _read_json(source: str, what: str):
    """The JSON value of ``source``, given inline (starting with '{' or '[')
    or as a file path; ``what`` names the input in error messages."""
    text = source.strip()
    if not text.startswith(("{", "[")):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CliInputError(f"cannot read {what} file {source!r}: {exc}") from None
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CliInputError(f"malformed {what} JSON: {exc}") from None


def parse_polygon(source: str, strict: bool = False) -> LatticePolygon:
    """Polygon from inline JSON or a file path; canonicalizes on read.

    Vertices must be integer pairs (checked by ``LatticePolygon.from_json_dict``).
    Under strict mode the input vertex list must already be exactly the
    canonical hull: counter-clockwise from the lex-min vertex, with no
    repeated, interior or collinear points.
    """
    data = _read_json(source, "polygon")
    poly = LatticePolygon.from_json_dict(data)
    if strict and [tuple(v) for v in data["vertices"]] != list(poly.vertices):
        raise CliInputError("field 'vertices' is not in strict convex position")
    return poly


def _parse_divisor(text: str, surface: delpezzo.SurfaceModel) -> tuple[int, ...]:
    if text.strip() == "-K":
        return surface.minus_K
    parts = [p.strip() for p in text.split(",")]
    try:
        coeffs = tuple(int(p) for p in parts)
    except ValueError:
        raise CliInputError(f"field 'divisor' must be comma-separated integers, got {text!r}") from None
    if len(coeffs) != surface.rank:
        raise CliInputError(
            f"field 'divisor' needs {surface.rank} coefficients for {surface.name}, got {len(coeffs)}"
        )
    return coeffs


def _ruled_data(args) -> ruled.RuledData:
    if getattr(args, "elliptic", False):
        return ruled.genus_example_data("elliptic_segre")
    if not args.data:
        raise CliInputError("field 'data' is required (or pass --elliptic)")
    return ruled.RuledData.from_json_dict(_read_json(args.data, "data"))


# -- subcommands ----------------------------------------------------------------


def _cmd_toric_check(args) -> int:
    p = parse_polygon(args.p, args.strict)
    q = parse_polygon(args.q, args.strict)
    verdict = toric.transfer_check(p, q)
    if args.json:
        _emit_json(toric.verdict_to_json_dict(verdict))
    else:
        print(f"count(2Q)    = {verdict.count_2Q}")
        print(f"h            = {verdict.h}")
        print(f"interior(P+Q)= {verdict.interior_PQ}")
        print(f"margin       = {verdict.margin}")
        print(f"holds        = {'yes' if verdict.holds else 'no'}")
    return 0


def _cmd_toric_plan(args) -> int:
    p = parse_polygon(args.p, args.strict)
    families = tuple(f.strip() for f in args.families.split(",") if f.strip())
    plan = toric.plan_transfer(p, families=families)
    if args.json:
        _emit_json(toric.plan_to_json_dict(plan))
    else:
        _print_plan(plan)
    return 0


def _print_plan(plan: toric.TransferPlan, extra: str = "") -> None:
    for i, s in enumerate(plan.steps, 1):
        pv = [tuple(v) for v in s.p.vertices]
        qv = [tuple(v) for v in s.q.vertices]
        note = f" [{s.note}]" if s.note else ""
        print(
            f"step {i}{note}: P={pv} -> Q={qv}  "
            f"count2q={s.verdict.count_2Q} h={s.verdict.h} "
            f"interior={s.verdict.interior_PQ} margin={s.verdict.margin}"
        )
    print(f"terminal kind: {plan.terminal_kind}")
    print(f"total multiplier degree: {plan.total_multiplier_degree}")
    if extra:
        print(extra)


def _cmd_hilbert(args) -> int:
    if args.improved:
        plan, budget = toric.improved_ternary_bound(args.d)
        if args.json:
            payload = toric.plan_to_json_dict(plan)
            payload["budget_degree"] = budget
            payload["classic_bound"] = toric.hilbert_classic_bound(args.d)
            _emit_json(payload)
        else:
            _print_plan(plan, extra=f"degree budget (polygon units): {budget}")
            print(f"classic bound: {toric.hilbert_classic_bound(args.d)}")
    else:
        plan = toric.hilbert_classic_plan(args.d)
        if args.json:
            payload = toric.plan_to_json_dict(plan)
            payload["classic_bound"] = toric.hilbert_classic_bound(args.d)
            _emit_json(payload)
        else:
            _print_plan(plan)
    return 0


def _cmd_delpezzo_catalog(args) -> int:
    rows = []
    for name, degree, rho, n_real in delpezzo.CATALOGUE_TABLE:
        surface = delpezzo.surface_from_name(name)
        rows.append(
            {
                "name": name,
                "degree": degree,
                "real_rank": rho,
                "real_minus_one_curves": n_real,
                "rank": surface.rank,
            }
        )
    if args.json:
        _emit_json(rows)
    else:
        print(f"{'name':10s} {'degree':>6s} {'rho(R)':>6s} {'# real (-1)':>11s}")
        for row in rows:
            print(
                f"{row['name']:10s} {row['degree']:6d} {row['real_rank']:6d} "
                f"{row['real_minus_one_curves']:11d}"
            )
    return 0


def _cmd_delpezzo_transfer(args) -> int:
    surface = delpezzo.surface_from_name(args.surface)
    divisor = _parse_divisor(args.divisor, surface)
    transfer = delpezzo.transfer_sequence(surface, divisor)
    if args.json:
        _emit_json(delpezzo.transfer_to_json_dict(transfer))
    else:
        print(f"surface: {transfer.surface}   divisor: {list(transfer.start)}")
        for i, st in enumerate(transfer.steps, 1):
            witness = [list(w) for w in st.witness]
            print(f"step {i}: {st.kind} on {st.surface}  D={list(st.divisor)}  witness={witness}")
        print(f"terminal kind: {transfer.terminal_kind}")
        print(f"certificate kind: {transfer.certificate_kind}")
        print(f"multiplier chain length: {transfer.chain_length}")
    return 0


def _cmd_ruled_schedule(args) -> int:
    data = _ruled_data(args)
    schedule = ruled.build_schedule(data, args.d)
    if args.json:
        _emit_json(schedule.to_json_dict())
    else:
        print(f"mode: {schedule.mode}   s = {schedule.s}   t = {schedule.t} (generic t = {schedule.generic_t})")
        print(f"ladder: {[list(r) for r in schedule.ladder]}")
        print(f"step margins: {list(schedule.step_margins)}  final margin: {schedule.final_margin}")
        print("note: ell taken on trust (no negative-class data)")
    return 0


def _cmd_ruled_bound(args) -> int:
    data = _ruled_data(args)
    bound = ruled.multiplier_degree_bound(data, args.d, args.d0)
    if args.json:
        _emit_json(
            {
                "d": bound.d,
                "d0": bound.d0,
                "total_H_degree": bound.total_H_degree,
                "steps_counted": bound.steps_counted,
                "steps_per_level": bound.steps_per_level,
                "steps_quoted": bound.steps_quoted,
            }
        )
    else:
        print(f"total H-degree of the multiplier chain: {bound.total_H_degree}")
        print(f"ladder steps counted: {bound.steps_counted} ({bound.steps_per_level} per level)")
        print(f"looser quoted step count: {bound.steps_quoted}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sostransfer",
        description="plan and verify sum-of-squares multiplier transfers on real surfaces",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(sp, polygons=False):
        sp.add_argument("--json", action="store_true", help="emit JSON")
        if polygons:
            sp.add_argument("--strict", action="store_true", help="reject non-canonical vertex lists")

    sp = sub.add_parser("toric-check", help="one-step polygon transfer criterion")
    sp.add_argument("--p", required=True, help="polygon JSON (inline or file path)")
    sp.add_argument("--q", required=True, help="polygon JSON (inline or file path)")
    common(sp, polygons=True)
    sp.set_defaults(func=_cmd_toric_check)

    sp = sub.add_parser("toric-plan", help="search a multi-step transfer plan")
    sp.add_argument("--p", required=True)
    sp.add_argument("--families", default="trapezoids,rectangles,prisms,veronese")
    common(sp, polygons=True)
    sp.set_defaults(func=_cmd_toric_plan)

    sp = sub.add_parser("hilbert", help="ternary-form multiplier pipelines")
    sp.add_argument("--d", type=int, required=True, help="half the form degree")
    sp.add_argument("--improved", action="store_true", help="use the corner-biting pipeline")
    common(sp)
    sp.set_defaults(func=_cmd_hilbert)

    sp = sub.add_parser("delpezzo-catalog", help="list the 24 catalogued surfaces")
    common(sp)
    sp.set_defaults(func=_cmd_delpezzo_catalog)

    sp = sub.add_parser("delpezzo-transfer", help="transfer sequence for a divisor")
    sp.add_argument("--surface", required=True)
    sp.add_argument("--divisor", required=True, help='comma-separated coefficients, or "-K"')
    common(sp)
    sp.set_defaults(func=_cmd_delpezzo_transfer)

    sp = sub.add_parser("ruled-schedule", help="one-degree transfer ladder on a blow-up")
    sp.add_argument("--data", help="ruled data JSON (inline or file path)")
    sp.add_argument("--elliptic", action="store_true", help="use the elliptic product preset")
    sp.add_argument("--d", type=int, required=True)
    common(sp)
    sp.set_defaults(func=_cmd_ruled_schedule)

    sp = sub.add_parser("ruled-bound", help="total multiplier degree down to a base degree")
    sp.add_argument("--data")
    sp.add_argument("--elliptic", action="store_true")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--d0", type=int, required=True)
    common(sp)
    sp.set_defaults(func=_cmd_ruled_bound)

    return parser


def _merge_value_flags(argv: Sequence[str]) -> list[str]:
    """Join '--divisor -K'-style pairs so leading minus signs parse as values."""
    out: list[str] = []
    i = 0
    argv = list(argv)
    while i < len(argv):
        if argv[i] == "--divisor" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"--divisor={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def run(argv: Sequence[str]) -> int:
    """Parse and execute one command; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(_merge_value_flags(argv))
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _INAPPLICABLE as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
