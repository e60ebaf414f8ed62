import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import padicvdp
from padicvdp import cli
from padicvdp.cli import main
from padicvdp.core import PrecisionExhaustedError
from padicvdp.vdp import VdpTable, normalize_alpha

from support import FERMAT_DIFF_TEXT, QUINTIC_TEXT


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert out, f"no stdout; stderr was: {err}"
    return code, json.loads(out)


class TestExpand:
    def test_identity_table(self, capsys):
        code, payload = run_json(
            capsys, "expand", "--prime", "3", "--expr", "x1", "--level", "2",
        )
        assert code == 0
        table = payload["result"]["table"]
        assert table["p"] == 3 and table["K"] == 2
        assert len(table["B"]) == 9
        assert payload["result"]["spot_check"]["ok"]
        assert payload["result"]["sup_norm"] == "3^0"

    def test_zero_function_sup_norm(self, capsys):
        code, payload = run_json(
            capsys, "expand", "--prime", "3", "--expr", "0", "--level", "1",
        )
        assert code == 0
        assert payload["result"]["sup_norm"] == "0"
        assert payload["result"]["sup_norm_exponent"] is None

    def test_quintic_small_values(self, capsys):
        code, payload = run_json(
            capsys, "expand", "--prime", "7", "--expr", QUINTIC_TEXT,
            "--level", "1", "--precision", "6",
        )
        assert code == 0
        table = payload["result"]["table"]
        for m, digits in enumerate(table["B"]):
            value = sum(d * 7**i for i, d in enumerate(digits))
            assert value == (-5 + 4 * m**5) % 7**6

    def test_multivariate_expansion(self, capsys):
        code, payload = run_json(
            capsys, "expand", "--prime", "3", "--expr", "x1 + x2",
            "--vars", "2", "--level", "1",
        )
        assert code == 0
        assert payload["result"]["table"]["n"] == 2
        assert "(2,2)" in payload["result"]["table"]["A"]

    def test_output_file_is_consumable(self, capsys, tmp_path):
        out_file = tmp_path / "table.json"
        code, _ = run_json(
            capsys, "expand", "--prime", "7", "--expr", FERMAT_DIFF_TEXT,
            "--level", "2", "--precision", "8", "--output", str(out_file),
        )
        assert code == 0
        stored = json.loads(out_file.read_text())
        assert stored["K"] == 2 and len(stored["B"]) == 49
        code, payload = run_json(
            capsys, "lipschitz", "--prime", "7", "--table", str(out_file),
            "--alpha", "1", "--samples", "200",
        )
        assert code == 0
        assert payload["result"]["verdict"] == "no-violation-found"


class TestEval:
    def test_value_and_text(self, capsys):
        code, payload = run_json(
            capsys, "eval", "--prime", "7", "--expr", QUINTIC_TEXT,
            "--point", "5", "--precision", "6",
        )
        assert code == 0
        assert payload["result"]["value"]["digits"][0] == 0
        assert payload["result"]["text"].endswith("p=7 N=6")

    def test_point_arity_checked(self, capsys):
        code, out, err = run_cli(
            capsys, "eval", "--prime", "7", "--expr", "x1", "--point", "1,2",
        )
        assert code == 2
        assert "arity" in err


class TestLipschitz:
    def test_fermat_difference_alpha_one_passes(self, capsys):
        code, payload = run_json(
            capsys, "lipschitz", "--prime", "7", "--expr", FERMAT_DIFF_TEXT,
            "--level", "2", "--precision", "8", "--alpha", "1", "--samples", "300",
        )
        assert code == 0
        tiers = payload["result"]["tiers"]
        assert tiers["necessary-bound"]["holds"]
        assert tiers["pair-sampled"]["ok"]
        assert tiers["projection-sampled"] == {"applicable": False}

    def test_fermat_difference_alpha_zero_violated(self, capsys):
        code, payload = run_json(
            capsys, "lipschitz", "--prime", "7", "--expr", FERMAT_DIFF_TEXT,
            "--level", "2", "--precision", "8", "--alpha", "0", "--samples", "300",
        )
        assert code == 1
        assert payload["result"]["verdict"] == "violated"
        assert payload["result"]["tiers"]["necessary-bound"]["violation"] == 7

    def test_multivariate_tiers(self, capsys):
        code, payload = run_json(
            capsys, "lipschitz", "--prime", "7", "--vars", "2",
            "--expr", f"({FERMAT_DIFF_TEXT}) + x2",
            "--level", "2", "--precision", "8", "--alpha", "1,0",
            "--samples", "200", "--projection-samples", "3",
        )
        assert code == 0
        tiers = payload["result"]["tiers"]
        assert tiers["necessary-bound"]["holds"]
        assert tiers["projection-sampled"]["applicable"]
        assert not tiers["projection-sampled"]["violated"]
        assert "not exhaustive" in tiers["projection-sampled"]["note"]

    def test_alpha_from_function_file(self, capsys, tmp_path):
        fn_file = tmp_path / "fn.json"
        fn_file.write_text(json.dumps(
            {"arity": 1, "alpha": [1], "body": FERMAT_DIFF_TEXT}
        ))
        code, payload = run_json(
            capsys, "lipschitz", "--prime", "7", "--func", str(fn_file),
            "--level", "2", "--precision", "8", "--samples", "100",
        )
        assert code == 0
        assert payload["result"]["alpha"] == [1]

    def test_missing_alpha_is_config_error(self, capsys):
        code, out, err = run_cli(
            capsys, "lipschitz", "--prime", "7", "--expr", "x1",
        )
        assert code == 2
        assert "alpha" in err

    def test_projection_tier_names_its_witness(self, capsys):
        # (x1 - x1^7)/7 is not 1-Lipschitz in x1, whatever x2 is fixed at
        code, payload = run_json(
            capsys, "lipschitz", "--prime", "7", "--vars", "2", "--expr",
            "divp(x1 - x1^7, 1) + x2", "--alpha", "0,0", "--level", "2",
            "--precision", "8", "--samples", "50",
        )
        assert code == 1
        tier = payload["result"]["tiers"]["projection-sampled"]
        assert tier["violated"]
        assert tier["witness"] == {"coordinate": 1, "fixed": [25853374], "violation": 7}


class TestTableValidation:
    """Table JSON is checked before allocation: bad headers fail fast with exit 2."""

    @staticmethod
    def lipschitz_on(capsys, tmp_path, data):
        path = tmp_path / "table.json"
        path.write_text(json.dumps(data))
        started = time.monotonic()
        code, out, err = run_cli(
            capsys, "lipschitz", "--prime", "7", "--table", str(path),
            "--alpha", "1", "--samples", "200",
        )
        assert time.monotonic() - started < 1.0
        return code, out, err

    @staticmethod
    def stored_table(capsys, tmp_path, *extra):
        out_file = tmp_path / "stored.json"
        code, _ = run_json(
            capsys, "expand", "--prime", "7", "--expr", FERMAT_DIFF_TEXT,
            "--level", "1", "--precision", "8", "--output", str(out_file), *extra,
        )
        assert code == 0
        return json.loads(out_file.read_text())

    def assert_config_error(self, code, out, err):
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["category"] == "config"

    def test_huge_level_in_list_format(self, capsys, tmp_path):
        data = self.stored_table(capsys, tmp_path)
        data["K"] = 1000000000
        self.assert_config_error(*self.lipschitz_on(capsys, tmp_path, data))

    def test_huge_level_in_keyed_format(self, capsys, tmp_path):
        data = self.stored_table(capsys, tmp_path, "--vars", "2")
        assert data["n"] == 2
        data["K"] = 1000000000
        self.assert_config_error(*self.lipschitz_on(capsys, tmp_path, data))

    @pytest.mark.parametrize("level", [1e9, "3"])
    def test_non_integer_level(self, capsys, tmp_path, level):
        data = self.stored_table(capsys, tmp_path)
        data["K"] = level
        self.assert_config_error(*self.lipschitz_on(capsys, tmp_path, data))

    def test_keyed_table_of_arity_one(self, capsys, tmp_path):
        data = self.stored_table(capsys, tmp_path)
        listed = self.lipschitz_on(capsys, tmp_path, data)
        keyed = {key: data[key] for key in ("p", "K", "N")}
        keyed["n"] = 1
        keyed["A"] = {f"({m})": digits for m, digits in enumerate(data["B"])}
        code, out, err = self.lipschitz_on(capsys, tmp_path, keyed)
        assert code == 0 and err == ""
        assert (code, out, err) == listed

    def test_stored_normalized_entries_must_match(self, capsys, tmp_path):
        data = {"p": 7, "K": 1, "N": 2, "B": [[0, 0]] * 7, "alpha": 0, "b": [[1, 0]] * 7}
        self.assert_config_error(*self.lipschitz_on(capsys, tmp_path, data))

    def test_stored_alpha_must_satisfy_the_bound(self, capsys, tmp_path):
        data = self.stored_table(capsys, tmp_path, "--level", "2")
        data.update(alpha=0, b=data["B"])
        self.assert_config_error(*self.lipschitz_on(capsys, tmp_path, data))

    @pytest.mark.parametrize("data, message", [
        ({"p": 7, "K": 1, "N": 1, "B": {}}, "table field B must be a list"),
        ({"p": 4, "K": 1, "N": 1, "B": [[0]] * 4}, "table prime 4 is not prime"),
        ({"p": 7, "K": 0, "N": 1, "B": [[0]]}, "K >= 1"),
        ({"p": 7, "K": 1, "N": 50, "B": [[0, 0]] * 7},
         "table field N is 50, its entries know 2 digits"),
        ({"p": 7, "K": 1, "B": [[0, 0]] * 7}, "table field N must be an integer, got None"),
    ], ids=["mapping-for-list", "non-prime", "level-zero", "precision-not-the-entries",
            "precision-missing"])
    def test_a_malformed_header_is_a_config_error(self, capsys, tmp_path, data, message):
        code, out, err = self.lipschitz_on(capsys, tmp_path, data)
        self.assert_config_error(code, out, err)
        assert message in json.loads(err)["error"]["message"]

    def test_valid_normalized_table_is_read(self, capsys, tmp_path):
        data = self.stored_table(capsys, tmp_path, "--level", "2")
        plain = self.lipschitz_on(capsys, tmp_path, data)
        normalized = normalize_alpha(VdpTable.from_json(data), 1).to_json()
        assert self.lipschitz_on(capsys, tmp_path, normalized) == plain
        assert plain[0] == 0


class TestRootsAndLift:
    def test_quintic_roots(self, capsys):
        code, payload = run_json(
            capsys, "roots", "--prime", "7", "--expr", QUINTIC_TEXT, "--level", "1",
        )
        assert code == 0
        assert payload["result"]["residues"] == [5]

    def test_multivariate_roots(self, capsys):
        code, payload = run_json(
            capsys, "roots", "--prime", "3", "--vars", "2",
            "--expr", "x1 + x2", "--level", "1",
        )
        assert code == 0
        assert payload["result"]["residues"] == [[0, 0], [1, 2], [2, 1]]

    def test_quintic_lift(self, capsys):
        code, payload = run_json(
            capsys, "lift", "--prime", "7", "--expr", QUINTIC_TEXT,
            "--start", "5", "--l0", "1", "--alpha", "0",
            "--target-precision", "10",
        )
        assert code == 0
        result = payload["result"]
        assert result["status"] == "lifted"
        assert result["replay_verified"]
        assert result["root"]["coords"][0]["digits"][0] == 5
        assert len(result["levels"]) == 9

    def test_linear_lift_recovers_constant(self, capsys):
        code, payload = run_json(
            capsys, "lift", "--prime", "3", "--expr", "x1 - 10",
            "--start", "1", "--target-precision", "5",
        )
        assert code == 0
        digits = payload["result"]["root"]["coords"][0]["digits"]
        assert sum(d * 3**i for i, d in enumerate(digits)) == 10

    def test_condition_failure_exits_one(self, capsys):
        code, payload = run_json(
            capsys, "lift", "--prime", "2", "--expr", "x1^2 - 1",
            "--start", "1", "--target-precision", "8",
        )
        assert code == 1
        assert payload["result"]["status"] == "condition-failed"

    def test_auto_coordinate(self, capsys):
        code, payload = run_json(
            capsys, "lift", "--prime", "3", "--vars", "2",
            "--expr", "x2 - 10 + 0*x1", "--start", "0,1",
            "--target-precision", "5", "--auto-coordinate",
        )
        assert code == 0
        assert payload["result"]["status"] == "lifted"
        assert all(lv["coordinate"] == 2 for lv in payload["result"]["levels"])

    @pytest.mark.parametrize("argv, message", [
        (["--expr", QUINTIC_TEXT, "--start", "5", "--coordinate", "3"],
         "coordinate 3 out of range for arity 1"),
        (["--vars", "2", "--expr", "x1 + x2 - 5", "--start", "5,0", "--coordinate", "0"],
         "coordinate 0 out of range for arity 2"),
    ], ids=["above-one-variable", "zero"])
    def test_coordinate_out_of_range(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "lift", "--prime", "7", *argv, "--target-precision", "4")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {"category": "config", "message": message}

    def test_auto_coordinate_for_one_variable(self, capsys):
        argv = ["lift", "--prime", "7", "--expr", QUINTIC_TEXT,
                "--start", "5", "--target-precision", "4"]
        code, auto = run_json(capsys, *argv, "--auto-coordinate")
        assert code == 0
        assert auto["result"]["auto_coordinate"] is True
        assert all(lv["coordinate"] == 1 for lv in auto["result"]["levels"])
        _, fixed = run_json(capsys, *argv)
        assert fixed["result"]["auto_coordinate"] is False
        assert auto["result"]["root"] == fixed["result"]["root"]

    @pytest.mark.parametrize("budget, code", [("100", 0), ("99", 2)])
    def test_lift_digit_cost_is_checked_against_the_budget(self, capsys, budget, code):
        # target x (target + divp budget) digits: 10 x 10 here
        got, out, err = run_cli(
            capsys, "lift", "--prime", "3", "--expr", "x1 - 10", "--start", "1",
            "--target-precision", "10", "--budget", budget,
        )
        assert got == code
        if code:
            assert out == "" and json.loads(err)["error"]["category"] == "config"


class TestWellposed:
    def test_total_function_passes(self, capsys):
        code, payload = run_json(
            capsys, "wellposed", "--prime", "7", "--expr", FERMAT_DIFF_TEXT,
            "--samples", "500", "--precision", "8",
        )
        assert code == 0
        assert payload["result"]["totality"]["failures"] == 0

    def test_partial_function_fails(self, capsys):
        code, payload = run_json(
            capsys, "wellposed", "--prime", "7", "--expr", "divp(x1, 1)",
            "--samples", "500", "--precision", "8",
        )
        assert code == 1
        assert payload["result"]["totality"]["failures"] > 0

    def test_residue_level_report(self, capsys):
        code, payload = run_json(
            capsys, "wellposed", "--prime", "7", "--expr", QUINTIC_TEXT,
            "--samples", "200", "--residue-level", "2",
        )
        assert code == 0
        assert payload["result"]["residue"]["ok"]

    def test_residue_level_counts_undefined_pairs_as_failures(self, capsys):
        argv = ["wellposed", "--prime", "7", "--expr", "divp(x1, 1)", "--samples", "50"]
        _, alone = run_json(capsys, *argv)
        code, payload = run_json(capsys, *argv, "--residue-level", "2", "--alpha", "1")
        assert code == 1
        assert payload["result"]["totality"] == alone["result"]["totality"]
        assert alone["result"]["totality"]["failures"] == 38
        residue = payload["result"]["residue"]
        assert not residue["ok"] and residue["failures"] > 0

    @pytest.mark.parametrize("budget, code", [("150", 0), ("149", 2)])
    def test_residue_digit_cost_is_checked_against_the_budget(self, capsys, budget, code):
        # samples x (level + 2 + divp budget) digits: 50 x 3 here
        got, out, err = run_cli(
            capsys, "wellposed", "--prime", "7", "--expr", "x1", "--residue-level", "1",
            "--samples", "50", "--budget", budget,
        )
        assert got == code
        if code:
            assert out == "" and json.loads(err)["error"] == {
                "category": "config", "message": "residue check reads 150 digits, budget is 149"}

    @pytest.mark.parametrize("alpha, code", [("1,0", 0), ("0,0", 1)])
    def test_residue_level_in_two_variables(self, capsys, alpha, code):
        # F mod 7^(2 - max(alpha)) depends on x mod 7^2 only at alpha (1, 0)
        got, payload = run_json(
            capsys, "wellposed", "--prime", "7", "--vars", "2", "--expr", "divp(x1 - x1^7, 1) + x2",
            "--residue-level", "2", "--alpha", alpha, "--samples", "300",
        )
        residue = payload["result"]["residue"]
        assert got == code and residue["alpha"] == [int(a) for a in alpha.split(",")]
        assert residue["ok"] == (code == 0) and (residue["failures"] > 0) == (code == 1)


class TestErrorsAndDeterminism:
    def test_nonprime_rejected(self, capsys):
        code, out, err = run_cli(capsys, "roots", "--prime", "6", "--expr", "x1")
        assert code == 2

    def test_parse_error_rejected(self, capsys):
        code, out, err = run_cli(capsys, "roots", "--prime", "7", "--expr", "x1 +")
        assert code == 2
        assert "parse-error" in err

    @pytest.mark.parametrize("expr, message", [
        ("x1 + 1/0", "zero denominator (line 1, column 8)"),
        ("x1 $ 2", "unexpected character '$' (line 1, column 4)"),
        ("(x1 + 1", "expected ')', found 'end of input' (line 1, column 8)"),
        ("x1^x1", "expected a natural number, found 'x1' (line 1, column 4)"),
        ("3/x1", "expected an integer denominator (line 1, column 3)"),
        ("digitsum(x1, 1, 0)", "digitsum exponent must be >= 1 (line 1, column 1)"),
    ], ids=["zero-denominator", "unexpected-character", "missing-parenthesis",
            "variable-exponent", "variable-denominator", "digitsum-exponent-zero"])
    def test_malformed_expression_text_is_a_parse_error(self, capsys, expr, message):
        code, out, err = run_cli(capsys, "eval", "--prime", "7", "--expr", expr, "--point", "1")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {"category": "parse-error", "message": message}

    def test_a_negative_denominator_is_accepted(self, capsys):
        values = [run_json(capsys, "eval", "--prime", "7", f"--expr={expr}", "--point", "1")
                  for expr in ("3/-5", "-3/5")]
        assert values[0][0] == values[1][0] == 0
        assert values[0][1]["result"] == values[1][1]["result"]

    def test_precision_exhausted(self, capsys):
        code, out, err = run_cli(
            capsys, "expand", "--prime", "3", "--expr", "x1",
            "--level", "3", "--precision", "1",
        )
        assert code == 4

    def test_evaluation_error(self, capsys):
        code, out, err = run_cli(
            capsys, "eval", "--prime", "7", "--expr", "divp(x1, 1)", "--point", "1",
        )
        assert code == 3

    def test_budget_guard(self, capsys):
        code, out, err = run_cli(
            capsys, "expand", "--prime", "7", "--expr", "x1 + x2", "--vars", "2",
            "--level", "4", "--budget", "1000", "--precision", "8",
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["roots", "expand"])
    def test_huge_level_fails_on_budget_before_any_work(self, capsys, command):
        started = time.monotonic()
        code, out, err = run_cli(
            capsys, command, "--prime", "7", "--expr", "x1",
            "--level", "100000000", "--precision", "100000000",
        )
        assert time.monotonic() - started < 1.0
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["category"] == "config"
        assert "budget" in error["message"]

    @pytest.mark.parametrize("argv", [
        ["lipschitz", "--prime", "7", "--expr", "x1", "--alpha", "0",
         "--samples", "100000000"],
        ["wellposed", "--prime", "7", "--expr", "x1", "--samples", "100000000"],
        ["lift", "--prime", "7", "--expr", QUINTIC_TEXT, "--start", "5", "--l0", "1",
         "--alpha", "0", "--target-precision", "100000"],
        ["lipschitz", "--prime", "7", "--vars", "2", "--expr", "x1 + x2", "--alpha", "0,0",
         "--projection-samples", "100000000"],
        ["eval", "--prime", "1000000000000000003", "--expr", "x1", "--point", "1"],
        ["eval", "--prime", "7", "--expr", "x1", "--point", "3", "--precision", "100000000"],
        ["lift", "--prime", "7", "--expr", "x1", "--start", "0", "--l0", "100000000"],
        ["lift", "--prime", "7", "--expr", "x1", "--start", "0", "--alpha", "100000000"],
        ["wellposed", "--prime", "7", "--expr", "x1", "--samples", "1",
         "--residue-level", "100000000"],
        ["wellposed", "--prime", "7", "--expr", "x1", "--samples", "0",
         "--residue-level", "100000000"],
        # a divp exponent adds to the digits F is evaluated at, before p^work is formed
        ["eval", "--prime", "7", "--expr", "divp(x1,10000000)", "--point", "0",
         "--precision", "5"],
        ["wellposed", "--prime", "7", "--expr", "divp(x1,100000000)", "--samples", "1"],
        ["roots", "--prime", "7", "--expr", "divp(x1,100000000)", "--level", "1"],
        ["lipschitz", "--prime", "7", "--expr", "divp(x1,100000000)", "--alpha", "0",
         "--level", "1", "--samples", "1"],
        ["expand", "--prime", "7", "--expr", "divp(x1,100000000)"],
        ["lift", "--prime", "7", "--expr", "divp(x1,100000000)", "--start", "0"],
        ["wellposed", "--prime", "7", "--expr", "divp(x1,9999990)", "--samples", "1",
         "--residue-level", "5"],
    ])
    def test_counts_fail_on_budget_before_any_work(self, capsys, argv):
        started = time.monotonic()
        code, out, err = run_cli(capsys, *argv)
        assert time.monotonic() - started < 1.0
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["category"] == "config"
        assert "budget" in error["message"]

    @pytest.mark.parametrize("expr", ["(" * 300 + "x1" + ")" * 300, "+".join(["x1"] * 1000)])
    def test_too_deep_expression_is_a_parse_error(self, capsys, expr):
        started = time.monotonic()
        code, out, err = run_cli(capsys, "eval", "--prime", "7", "--expr", expr, "--point", "1")
        assert time.monotonic() - started < 1.0
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["category"] == "parse-error"
        assert "line 1, column" in error["message"]

    @pytest.mark.parametrize("coefficient", ["i^200000", "((i^30)^30)^30", "2^100000", "i^101"])
    def test_oversized_digitsum_coefficient_is_a_parse_error(self, capsys, coefficient):
        started = time.monotonic()
        code, out, err = run_cli(
            capsys, "eval", "--prime", "7", "--expr", f"digitsum(x1, {coefficient}, 1)",
            "--point", "1",
        )
        assert time.monotonic() - started < 1.0
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["category"] == "parse-error"
        assert "line 1, column 1" in error["message"]

    @pytest.mark.parametrize("coefficient", ["i^100", "(1+i)^100"])
    def test_digitsum_coefficient_at_the_limit_evaluates(self, capsys, coefficient):
        code, out, err = run_cli(
            capsys, "eval", "--prime", "7", "--expr", f"digitsum(x1, {coefficient}, 1)",
            "--point", "1",
        )
        assert code == 0 and err == ""

    @pytest.mark.parametrize("expr, column", [
        ("x1^" + "9" * 5000, 4),
        ("digitsum(x1, " + "9" * 5000 + ", 1)", 14),
        ("x" + "1" * 5000, 1),
        ("x1 + 1/" + "3" * 5000, 8),
    ])
    def test_integer_literal_past_the_digit_limit_is_a_parse_error(self, capsys, expr, column):
        started = time.monotonic()
        code, out, err = run_cli(capsys, "eval", "--prime", "7", "--expr", expr, "--point", "1")
        assert time.monotonic() - started < 1.0
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["category"] == "parse-error"
        assert f"line 1, column {column}" in error["message"]

    @pytest.mark.parametrize("coefficient", [
        "(((2^100)^100)^100)^100", "((2^100)^100)^100", "(1+i)^60 * (2^100)^100",
    ])
    def test_digitsum_coefficient_too_large_in_bits_is_a_parse_error(self, capsys, coefficient):
        started = time.monotonic()
        code, out, err = run_cli(
            capsys, "eval", "--prime", "7", "--expr", f"x1 + digitsum(x1, {coefficient}, 1)",
            "--point", "1",
        )
        assert time.monotonic() - started < 1.0
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["category"] == "parse-error"
        assert "size in bits" in error["message"] and "line 1, column 6" in error["message"]

    @pytest.mark.parametrize("exponent", ["10000000", "100000000"])
    def test_huge_digitsum_exponent_evaluates_quickly(self, capsys, exponent):
        started = time.monotonic()
        code, payload = run_json(
            capsys, "eval", "--prime", "7", "--expr", f"digitsum(x1, 1, {exponent})",
            "--point", "2024",
        )
        assert time.monotonic() - started < 1.0
        assert code == 0
        assert payload["result"]["value"]["precision"] == 12

    def test_starved_table_is_undecided_in_the_bound_tier(self, capsys, tmp_path):
        path = tmp_path / "starved.json"
        path.write_text(json.dumps({"p": 7, "K": 3, "N": 1, "B": [[0]] * 343}))
        code, out, err = run_cli(
            capsys, "lipschitz", "--prime", "7", "--table", str(path), "--alpha", "0",
        )
        assert code == 4 and out == ""
        error = json.loads(err)["error"]
        assert error["category"] == "precision"
        assert "bound at m=49" in error["message"]

    def test_weight_is_checked_before_the_expansion(self, capsys):
        # the level-3 bivariate grid is 117,649 evaluations
        started = time.monotonic()
        code, out, err = run_cli(
            capsys, "lipschitz", "--prime", "7", "--vars", "2", "--expr", "x1 + x2",
            "--level", "3", "--alpha", "0", "--samples", "10",
        )
        assert time.monotonic() - started < 1.0
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["category"] == "config"

    @pytest.mark.parametrize("seed", ["0", "1", "2"])
    def test_bound_violation_wins_over_undecided_tiers(self, capsys, tmp_path, seed):
        # N = 1 < K = 3: pair points carry K digits, so the pair tier reads the grid too
        entries = [[0]] * 343
        entries[100] = [1]
        path = tmp_path / "viol.json"
        path.write_text(json.dumps({"p": 7, "K": 3, "N": 1, "B": entries}))
        code, payload = run_json(
            capsys, "lipschitz", "--prime", "7", "--table", str(path), "--alpha", "0",
            "--seed", seed,
        )
        assert code == 1
        result = payload["result"]
        assert result["verdict"] == "violated"
        assert result["tiers"]["necessary-bound"]["violation"] == 100
        pair = result["tiers"]["pair-sampled"]
        assert "undecided" not in pair and pair["violations"] > 0
        assert 100 in [v % 343 for v in pair["first_violation"]]

    @staticmethod
    def starved_pair_table(tmp_path, violation: bool) -> Path:
        side = 2**3
        entries = {f"({i},{j})": [0] for i in range(side) for j in range(side)}
        if violation:
            entries["(2,0)"] = [1]  # order 1 needed, and the one known digit is 1
        path = tmp_path / "viol2.json"
        path.write_text(json.dumps({"p": 2, "n": 2, "K": 3, "N": 1, "A": entries}))
        return path

    def test_bound_violation_on_a_starved_table_of_arity_two(self, capsys, tmp_path):
        path = self.starved_pair_table(tmp_path, violation=True)
        code, payload = run_json(
            capsys, "lipschitz", "--prime", "2", "--table", str(path), "--alpha", "0,0",
        )
        assert code == 1
        tiers = payload["result"]["tiers"]
        assert tiers["necessary-bound"]["violation"] == [2, 0]
        assert tiers["projection-sampled"] == {"applicable": False}
        assert "undecided" not in tiers["pair-sampled"]  # its points carry K digits

    def test_a_stored_table_is_not_projected_at_any_arity(self, capsys, tmp_path):
        # a projection at level K is a line of the table's own grid, decided by the bound tier;
        # expanding one needed K digits, so N = 1 < K = 3 exited 4 before
        path = self.starved_pair_table(tmp_path, violation=False)
        code, payload = run_json(
            capsys, "lipschitz", "--prime", "2", "--table", str(path), "--alpha", "2,2",
            "--projection-samples", "100000000",  # charged to --expr and --func only
        )
        assert code == 0 and payload["result"]["verdict"] == "no-violation-found"
        tiers = payload["result"]["tiers"]
        assert tiers["necessary-bound"]["holds"]
        assert tiers["projection-sampled"] == {"applicable": False}
        assert tiers["pair-sampled"]["ok"]

    def test_a_violated_tier_wins_over_an_undecided_one(self, capsys, monkeypatch):
        def undecided(*args, **kwargs):
            raise PrecisionExhaustedError("deciding the pair (0, 1) needs 9 digits, known 8")

        monkeypatch.setattr(cli, "sampled_weighted_lip_check", undecided)
        code, payload = run_json(
            capsys, "lipschitz", "--prime", "7", "--expr", FERMAT_DIFF_TEXT,
            "--level", "2", "--precision", "8", "--alpha", "0",
        )
        assert code == 1
        result = payload["result"]
        assert result["verdict"] == "violated"
        assert result["tiers"]["necessary-bound"]["violation"] == 7
        assert result["tiers"]["pair-sampled"] == {
            "undecided": "deciding the pair (0, 1) needs 9 digits, known 8"}

    def test_starved_table_without_a_violation_is_decided(self, capsys, tmp_path):
        # at alpha = 2 every order is <= 0, so the bound holds; pair points carry K digits,
        # and distinct ones differ below p^K, so no pair needs more than the bound's digits
        path = tmp_path / "starved.json"
        path.write_text(json.dumps({"p": 7, "K": 3, "N": 1, "B": [[0]] * 343}))
        code, payload = run_json(
            capsys, "lipschitz", "--prime", "7", "--table", str(path), "--alpha", "2",
        )
        assert code == 0 and payload["result"]["verdict"] == "no-violation-found"
        assert payload["result"]["tiers"]["pair-sampled"]["ok"]

    def test_byte_identical_output(self, capsys):
        argv = [
            "lipschitz", "--prime", "7", "--expr", FERMAT_DIFF_TEXT,
            "--level", "2", "--precision", "8", "--alpha", "1",
            "--samples", "200", "--seed", "42",
        ]
        code_a, out_a, _ = run_cli(capsys, *argv)
        code_b, out_b, _ = run_cli(capsys, *argv)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_seed_recorded(self, capsys):
        code, payload = run_json(
            capsys, "roots", "--prime", "7", "--expr", "x1", "--seed", "9",
        )
        assert payload["config"]["seed"] == 9

    def test_text_format(self, capsys):
        code, out, err = run_cli(
            capsys, "roots", "--prime", "7", "--expr", QUINTIC_TEXT,
            "--level", "1", "--format", "text",
        )
        assert code == 0
        assert "residues" in out and "{" not in out


BAD_FUNCTION_FILES = {
    "body-int": ({"arity": 1, "body": 5}, "body"),
    "body-list": ({"arity": 1, "body": ["x1"]}, "body"),
    "arity-bool": ({"arity": True, "body": "x1"}, "arity"),
    "arity-float": ({"arity": 1.7, "body": "x1"}, "arity"),
    "alpha-float": ({"arity": 1, "body": "x1", "alpha": [1.9]}, "alpha"),
    "alpha-bool": ({"arity": 1, "body": "x1", "alpha": [True]}, "alpha"),
}


class TestFunctionFiles:
    """A function file's fields are checked, never converted."""

    @pytest.mark.parametrize("case", BAD_FUNCTION_FILES.values(), ids=BAD_FUNCTION_FILES.keys())
    def test_a_field_of_the_wrong_type_is_a_config_error(self, capsys, tmp_path, case):
        data, field = case
        path = tmp_path / "f.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(
            capsys, "eval", "--prime", "7", "--func", str(path), "--point", "1",
        )
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["category"] == "config"
        assert f"field {field}" in error["message"]

    def test_a_bare_integer_alpha_is_a_weight_of_arity_one(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"arity": 1, "body": "x1", "alpha": 1}))
        code, payload = run_json(
            capsys, "lift", "--prime", "7", "--func", str(path), "--start", "0",
        )
        assert code == 0
        assert payload["config"]["alpha"] == [1]


CONFIG_ERRORS = {
    "negative-point": (["eval", "--prime", "7", "--expr", "x1", "--point", "-1"], ">= 0"),
    "start-arity": (["lift", "--prime", "7", "--vars", "2", "--expr", "x1 + x2",
                     "--start", "0"], "--start has 1 entries"),
    "table-prime": (["lipschitz", "--prime", "5", "--table", "{table}", "--alpha", "0"],
                    "table prime 7 does not match --prime 5"),
    "no-function": (["eval", "--prime", "7", "--point", "1"], "one of --expr or --func"),
    "budget-zero": (["roots", "--prime", "7", "--expr", "x1", "--budget", "0"],
                    "--budget must be >= 1"),
    "precision-zero": (["eval", "--prime", "7", "--expr", "x1", "--point", "1",
                        "--precision", "0"], "--precision must be >= 1"),
    "vars-zero": (["roots", "--prime", "7", "--expr", "x1", "--vars", "0"], "--vars must be >= 1"),
    "prime-one": (["roots", "--prime", "1", "--expr", "x1"], "--prime must be prime, got 1"),
    "expand-level-zero": (["expand", "--prime", "7", "--expr", "x1", "--level", "0"],
                          "--level must be >= 1, got 0"),
    "lipschitz-level-zero": (["lipschitz", "--prime", "7", "--expr", "x1", "--level", "0",
                              "--alpha", "0"], "--level must be >= 1, got 0"),
    "negative-samples": (["lipschitz", "--prime", "7", "--vars", "2", "--expr", "x1 + x2",
                          "--alpha", "0,0", "--level", "1", "--samples", "-5"],
                         "--samples must be >= 0, got -5"),
    "negative-projection-samples": (["lipschitz", "--prime", "7", "--vars", "2", "--expr",
                                     "x1 + x2", "--alpha", "0,0", "--level", "1",
                                     "--projection-samples", "-1"],
                                    "--projection-samples must be >= 0, got -1"),
    "negative-wellposed-samples": (["wellposed", "--prime", "7", "--expr",
                                    "divp(x1 - x1^7, 1)", "--samples", "-5"],
                                   "--samples must be >= 0, got -5"),
    "eval-arity": (["eval", "--prime", "7", "--expr", "x1", "--point", "1,2"],
                   "function of arity 1 applied to point of arity 2"),
}


@pytest.mark.parametrize("case", CONFIG_ERRORS.values(), ids=CONFIG_ERRORS.keys())
def test_argument_mismatches_are_config_errors(capsys, tmp_path, case):
    argv, message = case
    table = tmp_path / "t7.json"
    table.write_text(json.dumps({"p": 7, "K": 1, "N": 2, "B": [[0, 0]] * 7}))
    code, out, err = run_cli(capsys, *(a.replace("{table}", str(table)) for a in argv))
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["category"] == "config"
    assert message in error["message"]


def test_a_non_integer_list_is_refused_by_argparse(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["eval", "--prime", "7", "--expr", "x1", "--point", "3,x"])
    assert exit_info.value.code == 2
    assert "argument --point: invalid _int_list value: '3,x'" in capsys.readouterr().err


def test_an_unwritable_output_path_is_a_config_error(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "expand", "--prime", "7", "--expr", "x1", "--level", "1",
        "--output", str(tmp_path / "missing" / "table.json"),
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["category"] == "config"


def test_an_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._DISPATCH, "roots", broken)
    code, out, err = run_cli(capsys, "roots", "--prime", "7", "--expr", "x1")
    assert code == 3 and out == ""
    assert json.loads(err) == {"error": {"category": "internal", "message": "RuntimeError: boom"}}


def test_a_failed_reconstruction_spot_check_is_an_internal_error(capsys, monkeypatch):
    expand = cli.vdp_expand_multi

    def another_functions_table(defn, *rest, **options):
        return expand(cli.FuncDef(1, cli.parse("x1 + 1", 1)), *rest, **options)

    monkeypatch.setattr(cli, "vdp_expand_multi", another_functions_table)
    code, out, err = run_cli(capsys, "expand", "--prime", "3", "--expr", "x1", "--level", "2")
    assert code == 3 and out == ""
    error = json.loads(err)["error"]
    assert error["category"] == "evaluation"
    assert error["message"].startswith("internal: reconstruction mismatch at grid point (")


def run_module(*argv, **kwargs) -> subprocess.CompletedProcess:
    """`python -m padicvdp` in a child that imports the package under test, installed or not."""
    src = str(Path(padicvdp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run(
        [sys.executable, "-m", "padicvdp", *argv],
        text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60, **kwargs,
    )


def test_module_entry_point():
    proc = run_module("roots", "--prime", "7", "--expr", QUINTIC_TEXT, "--level", "1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["residues"] == [5]


def test_a_digit_map_at_100000_digits_runs():
    proc = run_module("eval", "--prime", "7", "--expr", "digitsum(x1, 1, 1)", "--point", "3",
                      "--precision", "100000")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["value"]["digits"] == [3] + [0] * 99_999


@pytest.mark.parametrize("argv, code", [
    (["lift", "--prime", "7", "--vars", "2", "--expr", "x1 + x2 - 5", "--start", "5,0",
      "--target-precision", "3"], 0),
    (["lipschitz", "--prime", "7", "--expr", FERMAT_DIFF_TEXT, "--alpha", "0",
      "--samples", "50", "--format", "text"], 1),
], ids=["lift", "violated-text"])
def test_a_closed_stdout_ends_quietly_with_the_commands_own_exit_code(argv, code):
    # the reader of the pipe is gone before the child writes, as under `... | head -0`
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_module(*argv, stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (code, "")
