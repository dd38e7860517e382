import json
import time

import pytest

from sostransfer.cli import run

SQUARE2 = '{"vertices":[[0,0],[2,0],[2,2],[0,2]]}'
SQUARE1 = '{"vertices":[[0,0],[1,0],[1,1],[0,1]]}'
DELTA2 = '{"vertices":[[0,0],[2,0],[0,2]]}'


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestToricCheck:
    def test_squares_json(self, capsys):
        code, out, _ = invoke(capsys, "toric-check", "--p", SQUARE2, "--q", SQUARE1, "--json")
        assert code == 0
        assert out.strip() == '{"count2q":9,"h":0,"interior":4,"holds":true,"margin":5}'

    def test_containment_exits_two(self, capsys):
        code, _, err = invoke(capsys, "toric-check", "--p", SQUARE1, "--q", SQUARE2)
        assert code == 2
        assert "translate containment" in err

    def test_too_tall_exits_one(self, capsys):
        # 2Δ fits inside the tall triangle on more rows than a scan may visit
        tall = '{"vertices":[[0,0],[10,0],[0,10000000]]}'
        start = time.perf_counter()
        code, out, err = invoke(capsys, "toric-check", "--p", tall, "--q", DELTA2)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert "rows" in err

    def test_tall_without_rows_to_scan_is_answered(self, capsys):
        # 2Δ fits inside no translate of a width-1 triangle: h has no row to scan
        tall = '{"vertices":[[0,0],[1,0],[0,1000000000000]]}'
        start = time.perf_counter()
        code, out, _ = invoke(capsys, "toric-check", "--p", tall, "--q", DELTA2, "--json")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert out.strip() == '{"count2q":15,"h":1999999999995,"interior":1999999999999,"holds":true,"margin":11}'

    def test_inline_array_is_read_as_json(self, capsys):
        code, out, err = invoke(capsys, "toric-check", "--p", "[[0,0],[1,0],[0,1]]", "--q", SQUARE1)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "vertices" in err and "cannot read" not in err

    def test_non_integer_vertex(self, capsys):
        code, _, err = invoke(
            capsys, "toric-check", "--p", '{"vertices":[[0,0],[0.5,0]]}', "--q", SQUARE1
        )
        assert code == 1
        assert "vertices" in err

    def test_strict_rejects_unordered_extras(self, capsys):
        poly = '{"vertices":[[0,0],[2,0],[0,2],[1,1]]}'
        code, _, err = invoke(capsys, "toric-check", "--p", poly, "--q", SQUARE1, "--strict")
        assert code == 1
        assert "convex position" in err

    @pytest.mark.parametrize("vertices", ["[[0,2],[2,0],[0,0]]", "[[0,2],[2,0],[0,0],[0,0]]"])
    def test_strict_rejects_a_noncanonical_list_of_hull_vertices(self, capsys, vertices):
        # clockwise and not from the lex-min vertex; then with a repeated vertex
        poly = '{"vertices":' + vertices + "}"
        code, out, err = invoke(capsys, "toric-check", "--p", poly, "--q", SQUARE1, "--strict")
        assert code == 1 and out == ""
        assert "convex position" in err
        code, out, _ = invoke(capsys, "toric-check", "--p", poly, "--q", SQUARE1)
        assert code == 0 and out

    def test_deeply_nested_polygon_file_exits_one(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = invoke(capsys, "toric-check", "--p", str(path), "--q", SQUARE1)
        assert code == 1 and out == ""
        assert err.startswith("error: malformed polygon JSON") and "Traceback" not in err

    def test_bad_values_are_echoed_short(self, capsys, tmp_path):
        # a field JSON parses but the reader refuses is quoted in brief
        path = tmp_path / "p.json"
        path.write_text('{"vertices":[' + "[" * 985 + "]" * 985 + "]}")
        data = '{"minusK_dot_H":"' + "x" * 5000 + '","H_dot_HplusK":0,"chiO":0,"ell":1}'
        for argv in (("toric-check", "--p", str(path), "--q", SQUARE1), ("ruled-schedule", "--data", data, "--d", "5")):
            code, out, err = invoke(capsys, *argv)
            assert code == 1 and out == ""
            assert err.startswith("error:") and err.count("\n") == 1 and len(err) < 200

    def test_unordered_accepted_without_strict(self, capsys):
        poly = '{"vertices":[[1,1],[0,0],[1,0],[0,1]]}'
        code, out, _ = invoke(capsys, "toric-check", "--p", SQUARE2, "--q", poly, "--json")
        assert code == 0 and json.loads(out)["holds"] is True

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(SQUARE2)
        code, out, _ = invoke(capsys, "toric-check", "--p", str(path), "--q", SQUARE1, "--json")
        assert code == 0 and json.loads(out)["margin"] == 5

    def test_determinism(self, capsys):
        one = invoke(capsys, "toric-check", "--p", SQUARE2, "--q", SQUARE1, "--json")
        two = invoke(capsys, "toric-check", "--p", SQUARE2, "--q", SQUARE1, "--json")
        assert one == two


class TestToricPlan:
    def test_exhaustive_family(self, capsys):
        delta4 = '{"vertices":[[0,0],[4,0],[0,4]]}'
        code, out, _ = invoke(capsys, "toric-plan", "--p", delta4, "--families", "exhaustive", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["terminal_kind"] == "2delta"
        assert payload["terminal"] == {"vertices": [[0, 0], [2, 0], [0, 2]]}


    def test_unknown_family_on_terminal_source(self, capsys):
        delta1 = '{"vertices":[[0,0],[1,0],[0,1]]}'
        code, out, err = invoke(capsys, "toric-plan", "--p", delta1, "--families", "bogus", "--json")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "'bogus'" in err

    def test_unknown_family_error_names_every_family(self, capsys):
        delta4 = '{"vertices":[[0,0],[4,0],[0,4]]}'
        code, out, err = invoke(capsys, "toric-plan", "--p", delta4, "--families", "prisms,bogus")
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: unknown candidate family 'bogus'")
        for name in ("squares", "rectangles", "veronese", "trapezoids", "prisms", "exhaustive"):
            assert name in err
        assert "default trapezoids,rectangles,prisms,veronese" in err

    def test_help_names_every_family(self, capsys):
        code, out, _ = invoke(capsys, "toric-plan", "--help")
        assert code == 0
        out = " ".join(out.split())
        for name in ("squares", "rectangles", "veronese", "trapezoids", "prisms", "exhaustive"):
            assert name in out
        assert "default: trapezoids,rectangles,prisms,veronese" in out


class TestErrorLines:
    """Malformed input exits 1 with one ``error:`` line and nothing on stdout."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ("delpezzo-transfer", "--surface", "P2", "--divisor", "1,x"),
                "field 'divisor' must be comma-separated integers, got '1,x'",
            ),
            (
                ("ruled-schedule", "--data", '{"minusK_dot_H":6,"H_dot_HplusK":0,"chiO":0}', "--d", "5"),
                "missing field 'ell'",
            ),
            (
                ("ruled-schedule", "--data", '{"minusK_dot_H":6,"H_dot_HplusK":0,"chiO":0,"ell":-1}', "--d", "5"),
                "ell must be nonnegative",
            ),
        ],
        ids=["divisor-not-integers", "ruled-data-without-ell", "ruled-data-negative-ell"],
    )
    def test_one_error_line(self, capsys, argv, message):
        assert invoke(capsys, *argv) == (1, "", f"error: {message}\n")

    def test_missing_polygon_file(self, capsys, tmp_path):
        path = str(tmp_path / "missing.json")
        message = f"cannot read polygon file {path!r}: [Errno 2] No such file or directory: {path!r}"
        assert invoke(capsys, "toric-check", "--p", path, "--q", SQUARE1) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "thin",
        ['{"vertices":[[1,1]]}', '{"vertices":[[0,0],[2,2]]}', '{"vertices":[[0,0],[1,1],[3,3]]}'],
        ids=["point", "segment", "collinear-triple"],
    )
    def test_a_point_or_a_segment_is_refused(self, capsys, thin):
        error = "error: the vertices span a point or a segment, not a full-dimensional polygon\n"
        for argv in (
            ("toric-check", "--p", thin, "--q", DELTA2),
            ("toric-check", "--p", DELTA2, "--q", thin),
            ("toric-plan", "--p", thin),
        ):
            assert invoke(capsys, *argv) == (1, "", error), argv


class TestHilbert:
    def test_improved_degree_five(self, capsys):
        code, out, _ = invoke(capsys, "hilbert", "--d", "5", "--improved")
        assert code == 0
        assert "total_degree: 6" in out
        assert "lawrence_prism" in out

    def test_improved_json(self, capsys):
        code, out, _ = invoke(capsys, "hilbert", "--d", "5", "--improved", "--json")
        payload = json.loads(out)
        assert payload["total_degree"] == 6
        assert payload["terminal_kind"] == "lawrence_prism"
        assert payload["budget_degree"] == 3
        assert payload["classic_bound"] == 8

    def test_classic(self, capsys):
        code, out, _ = invoke(capsys, "hilbert", "--d", "6", "--json")
        payload = json.loads(out)
        assert payload["total_degree"] == 12
        assert payload["terminal_kind"] == "2delta"

    def test_chain_past_the_step_budget_exits_one(self, capsys):
        # the classic chain from 30000Δ has 14,999 passing steps: running out
        # of steps is a budget, not inapplicability
        code, out, err = invoke(capsys, "hilbert", "--d", "30000")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "budget" in err and err.count("\n") == 1


class TestDelPezzo:
    def test_catalog_rows(self, capsys):
        code, out, _ = invoke(capsys, "delpezzo-catalog", "--json")
        rows = json.loads(out)
        assert code == 0 and len(rows) == 24
        byname = {r["name"]: r for r in rows}
        assert byname["P2(6,0)"]["real_minus_one_curves"] == 27
        assert byname["D"]["real_minus_one_curves"] == 0
        assert byname["D(1,0)"]["real_minus_one_curves"] == 3

    def test_transfer_anticanonical(self, capsys):
        code, out, _ = invoke(
            capsys, "delpezzo-transfer", "--surface", "Q31(0,2)", "--divisor", "-K", "--json"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["certificate_kind"] == "modified_1_interval"
        assert payload["terminal_kind"] == "zero"

    def test_unknown_surface(self, capsys):
        code, _, err = invoke(capsys, "delpezzo-transfer", "--surface", "P2(9,9)", "--divisor", "-K")
        assert code == 1
        assert "not catalogued" in err

    def test_bad_divisor_length(self, capsys):
        code, _, err = invoke(capsys, "delpezzo-transfer", "--surface", "Q22", "--divisor", "1,2,3")
        assert code == 1
        assert "divisor" in err

    def test_not_effective_exits_two(self, capsys):
        code, _, err = invoke(
            capsys, "delpezzo-transfer", "--surface", "P2(1,0)", "--divisor", "0,-1"
        )
        assert code == 2
        assert "not effective" in err

    def test_not_nef_without_a_negative_curve_exits_two(self, capsys):
        # -K.D = 2, but D is not nef and Q22 has no (-1)-curve to subtract
        code, out, err = invoke(capsys, "delpezzo-transfer", "--surface", "Q22", "--divisor", "2,-1")
        assert code == 2 and out == ""
        assert err == "not applicable: not effective\n"

    def test_walk_past_the_step_budget_exits_one(self, capsys):
        # 20000 H on the plane ends at zero after more than MAX_WALK_STEPS
        # ample steps: running out of steps is a budget, not inapplicability
        start = time.perf_counter()
        code, out, err = invoke(capsys, "delpezzo-transfer", "--surface", "P2", "--divisor", "20000")
        assert time.perf_counter() - start < 2.0
        assert code == 1 and out == ""
        assert err.startswith("error:") and "budget" in err and err.count("\n") == 1


class TestRuled:
    def test_elliptic_schedule(self, capsys):
        code, out, _ = invoke(capsys, "ruled-schedule", "--elliptic", "--d", "7", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["ladder"] == [[7, 0], [7, -2], [6, 0]]

    def test_inline_data(self, capsys):
        data = '{"minusK_dot_H":6,"H_dot_HplusK":0,"chiO":0,"ell":1}'
        code, out, _ = invoke(capsys, "ruled-schedule", "--data", data, "--d", "5", "--json")
        assert code == 0 and json.loads(out)["mode"] == "elliptic"

    def test_small_degree_exits_two(self, capsys):
        code, _, err = invoke(capsys, "ruled-schedule", "--elliptic", "--d", "3")
        assert code == 2

    def test_degree_range_below_the_bound_names_it(self, capsys):
        # level 4 is the chain's first without a schedule: it is below 2m + ell = 5
        code, out, err = invoke(capsys, "ruled-bound", "--elliptic", "--d", "10", "--d0", "3")
        assert code == 2 and out == ""
        assert err.startswith("not applicable:") and "d = 4" in err and "= 5" in err

    def test_reversed_degree_range_exits_one(self, capsys):
        # d below d0 is malformed input, not a degree without a schedule
        code, out, err = invoke(capsys, "ruled-bound", "--elliptic", "--d", "3", "--d0", "5")
        assert code == 1 and out == ""
        assert err == "error: d must be at least d0\n"

    def test_bound(self, capsys):
        code, out, _ = invoke(
            capsys, "ruled-bound", "--elliptic", "--d", "10", "--d0", "5", "--json"
        )
        payload = json.loads(out)
        assert payload["total_H_degree"] == 75
        assert payload["steps_counted"] == 10

    @pytest.mark.parametrize(
        "data, field",
        [
            ('{"minusK_dot_H":6.9,"H_dot_HplusK":0,"chiO":0,"ell":1}', "minusK_dot_H"),
            ('{"minusK_dot_H":6,"H_dot_HplusK":0,"chiO":0,"ell":true}', "ell"),
            ('{"minusK_dot_H":"6","H_dot_HplusK":0,"chiO":0,"ell":1}', "minusK_dot_H"),
            ('{"minusK_dot_H":6,"H_dot_HplusK":0,"chiO":null,"ell":1}', "chiO"),
        ],
    )
    def test_non_integer_field(self, capsys, data, field):
        code, out, err = invoke(capsys, "ruled-schedule", "--data", data, "--d", "5", "--json")
        assert code == 1 and out == ""
        assert err.startswith("error:") and f"'{field}'" in err and "Traceback" not in err

    def test_data_file_not_an_object(self, capsys, tmp_path):
        path = tmp_path / "data.json"
        path.write_text("[1,2]")
        code, out, err = invoke(capsys, "ruled-bound", "--data", str(path), "--d", "10", "--d0", "5")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "object" in err and "Traceback" not in err

    def test_deeply_nested_data_file_exits_one(self, capsys, tmp_path):
        path = tmp_path / "data.json"
        path.write_text('{"a":' * 100_000 + "0" + "}" * 100_000)
        code, out, err = invoke(capsys, "ruled-schedule", "--data", str(path), "--d", "5")
        assert code == 1 and out == ""
        assert err.startswith("error: malformed data JSON") and "Traceback" not in err

    def test_inline_array_is_read_as_json(self, capsys):
        code, out, err = invoke(capsys, "ruled-schedule", "--data", "[1,2]", "--d", "5")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "object" in err and "cannot read" not in err

    def test_long_ladder_is_refused(self, capsys):
        # s = 65 needs a ladder of about e^(2 sqrt(65)) steps
        data = '{"minusK_dot_H":1,"H_dot_HplusK":64,"chiO":1,"ell":0}'
        start = time.perf_counter()
        code, out, err = invoke(capsys, "ruled-schedule", "--data", data, "--d", "5")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err.startswith("error:") and "budget" in err and err.count("\n") == 1

    def test_degree_range_across_a_gap_exits_two(self, capsys):
        # no degree from 2,285,826,498 to d has a schedule on this data, so
        # the chain fails at its first level, d
        data = '{"minusK_dot_H":4,"H_dot_HplusK":4,"chiO":-2,"ell":2}'
        code, out, err = invoke(capsys, "ruled-bound", "--data", data, "--d", "2285826600", "--d0", "2285826400")
        assert code == 2 and out == ""
        assert err.startswith("not applicable:") and "d = 2285826600" in err and "k_190 misses its lower bound" in err

    def test_long_degree_range_is_refused(self, capsys):
        # an elliptic chain is one check at any length; a generic one reads
        # a block per isqrt value, about 9 * 10^7 blocks of 190 steps here
        code, out, _ = invoke(capsys, "ruled-bound", "--elliptic", "--d", "1000000000", "--d0", "5", "--json")
        assert code == 0
        assert json.loads(out)["total_H_degree"] == 999_999_999_999_999_975
        data = '{"minusK_dot_H":4,"H_dot_HplusK":4,"chiO":-2,"ell":2}'
        start = time.perf_counter()
        code, out, err = invoke(capsys, "ruled-bound", "--data", data, "--d", str(10**15), "--d0", "2620156050")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err.startswith("error:") and "budget" in err and err.count("\n") == 1

    def test_missing_data(self, capsys):
        code, _, err = invoke(capsys, "ruled-schedule", "--d", "5")
        assert code == 1
        assert "data" in err


class TestTextMode:
    @pytest.mark.parametrize(
        "argv",
        [
            ("toric-check", "--p", SQUARE2, "--q", SQUARE1),
            ("toric-plan", "--p", '{"vertices":[[0,0],[4,0],[0,4]]}'),
            ("hilbert", "--d", "5", "--improved"),
            ("hilbert", "--d", "6"),
            ("delpezzo-catalog",),
            ("delpezzo-transfer", "--surface", "Q31(0,2)", "--divisor", "-K"),
            ("ruled-schedule", "--elliptic", "--d", "7"),
            ("ruled-bound", "--elliptic", "--d", "10", "--d0", "5"),
        ],
        ids=[
            "toric-check",
            "toric-plan",
            "hilbert-improved",
            "hilbert-classic",
            "delpezzo-catalog",
            "delpezzo-transfer",
            "ruled-schedule",
            "ruled-bound",
        ],
    )
    def test_text_lines_rebuild_the_json_document(self, capsys, argv):
        code, out, _ = invoke(capsys, *argv, "--json")
        assert code == 0 and out.count("\n") == 1
        code, text, _ = invoke(capsys, *argv)
        assert code == 0
        pairs = [line.split(": ", 1) for line in text.splitlines()]
        doc = {key: json.loads(value) for key, value in pairs}
        assert len(doc) == len(pairs)
        if out.startswith("["):
            assert list(doc) == [str(i) for i in range(1, len(doc) + 1)]
            doc = list(doc.values())
        assert json.dumps(doc, separators=(",", ":")) + "\n" == out

    def test_schedule_help_says_ell_is_trusted(self, capsys):
        code, out, _ = invoke(capsys, "ruled-schedule", "--help")
        assert code == 0 and "ell is taken on trust" in " ".join(out.split())


class TestRoundTrip:
    def test_plan_json_reparses(self, capsys):
        from sostransfer.toric import improved_ternary_bound, plan_to_json_dict

        code, out, _ = invoke(capsys, "hilbert", "--d", "7", "--improved", "--json")
        assert code == 0
        payload = json.loads(out)
        payload.pop("budget_degree")
        payload.pop("classic_bound")
        assert payload == plan_to_json_dict(improved_ternary_bound(7)[0])
