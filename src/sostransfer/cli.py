"""Command-line front end.

Reads polygon, surface, and ruled-surface data, dispatches to the library,
and prints the one document of the answer: with ``--json`` as compact JSON
on one line, otherwise as one ``key: value`` line per top-level field (or
``i: item`` from 1, for the catalogue's list), each value in JSON, so the
text shows every field the JSON holds.  Exit codes: 0 on success,
1 on malformed input or on work past a budget (a polygon pair too tall to
scan, a toric chain, a del Pezzo walk or a ruled ladder with too many
steps), 2 when a criterion or algorithm is inapplicable to the given input
(for example translate containment or a non-effective divisor) -
inapplicability is not a negative verdict.
"""

from __future__ import annotations

import argparse
import dataclasses
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


def _emit(doc, as_json: bool) -> None:
    """Print an answer: its compact JSON on one line, or one line per
    top-level field, ``key: value`` (``i: item`` from 1 for a list), with
    the value in JSON."""
    if as_json:
        print(json.dumps(doc, separators=(",", ":")))
        return
    for key, value in enumerate(doc, 1) if isinstance(doc, list) else doc.items():
        print(f"{key}: {json.dumps(value)}")


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


# -- subcommands: each returns the one document of its answer -----------------


def _cmd_toric_check(args) -> dict:
    p = parse_polygon(args.p, args.strict)
    q = parse_polygon(args.q, args.strict)
    return toric.verdict_to_json_dict(toric.transfer_check(p, q))


def _cmd_toric_plan(args) -> dict:
    p = parse_polygon(args.p, args.strict)
    families = tuple(f.strip() for f in args.families.split(",") if f.strip())
    return toric.plan_to_json_dict(toric.plan_transfer(p, families=families))


def _cmd_hilbert(args) -> dict:
    if args.improved:
        plan, budget = toric.improved_ternary_bound(args.d)
        doc = toric.plan_to_json_dict(plan)
        doc["budget_degree"] = budget
    else:
        doc = toric.plan_to_json_dict(toric.hilbert_classic_plan(args.d))
    doc["classic_bound"] = toric.hilbert_classic_bound(args.d)
    return doc


def _cmd_delpezzo_catalog(args) -> list:
    return [
        {
            "name": name,
            "degree": degree,
            "real_rank": rho,
            "real_minus_one_curves": n_real,
            "rank": delpezzo.surface_from_name(name).rank,
        }
        for name, degree, rho, n_real in delpezzo.CATALOGUE_TABLE
    ]


def _cmd_delpezzo_transfer(args) -> dict:
    surface = delpezzo.surface_from_name(args.surface)
    divisor = _parse_divisor(args.divisor, surface)
    return delpezzo.transfer_to_json_dict(delpezzo.transfer_sequence(surface, divisor))


def _cmd_ruled_schedule(args) -> dict:
    return ruled.build_schedule(_ruled_data(args), args.d).to_json_dict()


def _cmd_ruled_bound(args) -> dict:
    return dataclasses.asdict(ruled.multiplier_degree_bound(_ruled_data(args), args.d, args.d0))


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
    sp.add_argument(
        "--families",
        default=",".join(toric._FAMILIES[:4]),
        help=f"comma-separated candidate families out of {', '.join(toric._FAMILIES)} (default: %(default)s)",
    )
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

    sp = sub.add_parser(
        "ruled-schedule",
        help="one-degree transfer ladder on a blow-up",
        description="one-degree transfer ladder on a blow-up; ell is taken on trust (no negative-class data)",
    )
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
        doc = args.func(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _INAPPLICABLE as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(doc, args.json)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
