import csv
import errno
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ramavg.averages as averages
import ramavg.cli as cli
import ramavg.multivar as multivar
import ramavg.ramanujan as ramanujan
import ramavg.verify as verify
from ramavg.cli import main
from ramavg.exact import DEGREE_CAP


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_ramanujan_sum(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "c", "--k", "4", "--j", "2")
        assert code == 0 and out == "-2\n"

    def test_negative_j(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "c", "--k", "12", "--j", "-8")
        code2, out2, _ = run_cli(capsys, "compute", "c", "--k", "12", "--j", "4")
        assert code == code2 == 0 and out == out2

    def test_s_average(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "S", "--k", "1", "--r", "5")
        assert code == 0 and out == "1\n"
        code, out, _ = run_cli(capsys, "compute", "S", "--k", "2", "--r", "2")
        assert code == 0 and out == "3/8\n"

    def test_e_value(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "E", "--ks", "2,3")
        assert code == 0 and out == "0\n"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "S", "--k", "2", "--r", "2", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {"num": 3, "den": 8}

    def test_format_flag_before_subcommand(self, capsys):
        for argv in (
            ("--format", "json", "compute", "S", "--k", "2", "--r", "2"),
            ("compute", "--format", "json", "S", "--k", "2", "--r", "2"),
        ):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0 and json.loads(out) == {"num": 3, "den": 8}

    def test_approx_rendering(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "S", "--k", "2", "--r", "2", "--approx"
        )
        assert code == 0 and out == "0.375\n"

    def test_bernoulli_and_helpers(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "bernoulli", "--m", "12")
        assert code == 0 and out == "-691/2730\n"
        code, out, _ = run_cli(capsys, "compute", "phi", "--n", "100")
        assert code == 0 and out == "40\n"
        code, out, _ = run_cli(capsys, "compute", "jordan", "--m", "2", "--n", "2")
        assert code == 0 and out == "3\n"
        code, out, _ = run_cli(capsys, "compute", "g", "--ks", "2,2", "--m", "1")
        assert code == 0 and out == "1\n"

    def test_missing_parameter_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "compute", "c", "--k", "4")
        assert code == 2 and out == "" and "--j" in err

    def test_extraneous_parameter_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "compute", "phi", "--n", "5", "--k", "3")
        assert code == 2 and "--k" in err

    @pytest.mark.parametrize("argv", [
        ("compute", "c", "--k", "4", "--j", "2", "--format", "xml"),
        ("compute", "psi", "--n", "5"),
        ("compute", "--k", "4", "--j", "2", "c"),  # value flags before the function
        ("compute", "E", "--ks", "2,0"),
        ("compute", "E", "--ks", "2,x"),
        ("compute", "c", "--k", "4", "--j", "x"),
        ("table", "s-r", "--k-max", "3", "--r", "1", "--n", "2"),
        ("table", "s-r", "--k-max", "x", "--r", "1"),
    ])
    def test_usage_errors_come_from_argparse(self, capsys, argv):
        # main returns argparse's status: no SystemExit escapes it.
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "usage: ramavg" in err

    def test_each_function_has_its_own_help(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "jordan", "--help")
        assert code == 0 and "--m M" in out and "--n N" in out and "--k" not in out

    def test_domain_error_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "compute", "phi", "--n", "0")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("fn, argv, evaluator", [
        ("bernoulli", ("--m",), "bernoulli_number"),
        ("S", ("--k", "1", "--r"), "s_r_closed"),
        ("g", ("--ks", "2", "--m"), "g_m"),
        ("jordan", ("--n", "2", "--m"), "jordan_totient"),
    ])
    def test_degree_above_the_cap_exits_2(self, capsys, monkeypatch, fn, argv, evaluator):
        calls = []
        monkeypatch.setattr(cli, evaluator, lambda *args: calls.append(args) or 1)
        code, out, err = run_cli(capsys, "compute", fn, *argv, str(DEGREE_CAP + 1))
        assert code == 2 and out == "" and calls == []
        assert err == f"error: {argv[-1]} must be <= {DEGREE_CAP}\n"
        code, out, _ = run_cli(capsys, "compute", fn, *argv, str(DEGREE_CAP))
        assert code == 0 and out == "1\n" and len(calls) == 1

    @pytest.mark.parametrize("flags, error", [
        ((), "Exceeds the limit (4300 digits) for integer string conversion"),
        (("--format", "json"), "Exceeds the limit (4300 digits) for integer string conversion"),
        (("--approx",), "integer division result too large for a float"),
    ])
    def test_a_value_too_large_to_render_exits_2(self, capsys, flags, error):
        # J_400(2^40) has 4,817 digits: past the interpreter's int-to-string
        # digit limit, and past a float's range.
        code, out, err = run_cli(
            capsys, "compute", "jordan", "--m", "400", "--n", str(2**40), *flags
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: {error}") and err.count("\n") == 1


class TestTable:
    def test_ramanujan_row_plain(self, capsys):
        code, out, _ = run_cli(capsys, "table", "ramanujan-row", "--k", "6")
        assert code == 0 and out == "2,1,-1,-2,-1,1,2\n"

    def test_ramanujan_row_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "ramanujan-row", "--k", "6", "--format", "json"
        )
        data = json.loads(out)
        assert code == 0
        assert data == {"k": 6, "values": [2, 1, -1, -2, -1, 1, 2]}

    @pytest.mark.parametrize("argv, expected", [
        (("ramanujan-row", "--k", "6", "--format", "plain"), "2,1,-1,-2,-1,1,2\n"),
        (("ramanujan-row", "--k", "6", "--format", "json"),
         '{"k": 6, "values": [2, 1, -1, -2, -1, 1, 2]}\n'),
        (("ramanujan-row", "--k", "6", "--format", "csv"),
         "j,c\n0,2\n1,1\n2,-1\n3,-2\n4,-1\n5,1\n6,2\n"),
        (("s-r", "--k-max", "3", "--r", "1", "--format", "plain"), "1,1\n2,1/4\n3,1/3\n"),
        (("s-r", "--k-max", "3", "--r", "1", "--format", "json"),
         '[{"k": 1, "num": 1, "den": 1}, {"k": 2, "num": 1, "den": 4},'
         ' {"k": 3, "num": 1, "den": 3}]\n'),
        (("s-r", "--k-max", "3", "--r", "1", "--format", "csv"), "k,s_r\n1,1\n2,1/4\n3,1/3\n"),
        (("s-r", "--k-max", "3", "--r", "2", "--approx"),
         "1,1\n2,0.375\n3,0.48148148148148145\n"),
        (("s-r", "--k-max", "3", "--r", "2", "--approx", "--format", "csv"),
         "k,s_r\n1,1\n2,0.375\n3,0.48148148148148145\n"),
        (("s-r", "--k-max", "3", "--r", "2", "--approx", "--format", "json"),
         '[{"k": 1, "num": 1, "den": 1}, {"k": 2, "num": 3, "den": 8},'
         ' {"k": 3, "num": 13, "den": 27}]\n'),
        (("e-values", "--n", "2", "--k-max", "2", "--format", "plain"),
         "1|1,1\n1|2,0\n2|1,0\n2|2,1\n"),
        (("e-values", "--n", "2", "--k-max", "2", "--format", "json"),
         '[{"ks": [1, 1], "e": 1}, {"ks": [1, 2], "e": 0},'
         ' {"ks": [2, 1], "e": 0}, {"ks": [2, 2], "e": 1}]\n'),
        (("e-values", "--n", "2", "--k-max", "2", "--format", "csv"),
         "ks,e\n1|1,1\n1|2,0\n2|1,0\n2|2,1\n"),
    ], ids=[
        "ramanujan-row-plain", "ramanujan-row-json", "ramanujan-row-csv",
        "s-r-plain", "s-r-json", "s-r-csv", "s-r-approx-plain", "s-r-approx-csv", "s-r-approx-json",
        "e-values-plain", "e-values-json", "e-values-csv",
    ])
    def test_output_bytes(self, capsys, argv, expected):
        code, out, _ = run_cli(capsys, "table", *argv)
        assert code == 0 and out == expected

    def test_e_values_read_no_divisor_lattice(self, capsys, monkeypatch, clear_run_caches):
        # E is built prime by prime; the lattice fold is the multiplicativity
        # check's alone.
        argv = ("table", "e-values", "--n", "2", "--k-max", "4", "--format", "csv")
        code, expected, _ = run_cli(capsys, *argv)
        assert code == 0 and expected.count("\n") == 17
        clear_run_caches()

        def refusing(ks):
            raise AssertionError(f"the divisor lattice of {ks} was read")

        monkeypatch.setattr(multivar, "_divisor_terms", refusing)
        assert run_cli(capsys, *argv) == (0, expected, "")

    def test_ramanujan_row_over_budget(self, capsys, monkeypatch):
        monkeypatch.setattr(ramanujan, "divisors", None)  # no row is built
        code, out, err = run_cli(
            capsys, "table", "ramanujan-row", "--k", str(ramanujan.ROW_BUDGET + 1)
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "row budget" in err

    @pytest.mark.parametrize("argv", [
        ("e-values", "--n", "12", "--k-max", "100"),
        ("e-values", "--n", "2", "--k-max", "224"),  # 2 * 224**2 = 100,352 moduli
        ("e-values", "--n", str(10**9), "--k-max", "1"),
        ("s-r", "--k-max", str(cli.TABLE_BUDGET + 1), "--r", "1"),
        ("s-r", "--k-max", "100000", "--r", "400"),  # 4 * 10**7 modulus-degrees
        ("s-r", "--k-max", "251", "--r", "400"),  # 100,400
    ])
    def test_table_over_budget(self, capsys, monkeypatch, argv):
        for name in ("iter_product", "orbicyclic_divisor", "s_r_closed"):
            monkeypatch.setattr(cli, name, None)  # no row is built
        code, out, err = run_cli(capsys, "table", *argv)
        assert code == 2 and out == ""
        assert err == (
            f"error: the table exceeds the budget of {cli.TABLE_BUDGET} moduli,"
            " an s-r modulus counted once per degree\n"
        )

    def test_table_budget_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "TABLE_BUDGET", 8)
        code, out, _ = run_cli(capsys, "table", "e-values", "--n", "2", "--k-max", "2")
        assert code == 0 and len(out.splitlines()) == 4
        code, out, _ = run_cli(capsys, "table", "s-r", "--k-max", "8", "--r", "1")
        assert code == 0 and len(out.splitlines()) == 8
        code, out, _ = run_cli(capsys, "table", "s-r", "--k-max", "9", "--r", "1")
        assert code == 2 and out == ""
        # k_max * r counts against the budget.
        code, out, _ = run_cli(capsys, "table", "s-r", "--k-max", "4", "--r", "2")
        assert code == 0 and len(out.splitlines()) == 4
        code, out, _ = run_cli(capsys, "table", "s-r", "--k-max", "3", "--r", "3")
        assert code == 2 and out == ""

    def test_s_r_degree_above_the_cap_exits_2(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "s_r_closed", lambda k, r: calls.append((k, r)) or 1)
        argv = ("table", "s-r", "--k-max", "2", "--r")
        code, out, err = run_cli(capsys, *argv, str(DEGREE_CAP + 1))
        assert code == 2 and out == "" and calls == []
        assert err == f"error: --r must be <= {DEGREE_CAP}\n"
        code, out, _ = run_cli(capsys, *argv, str(DEGREE_CAP))
        assert code == 0 and calls == [(1, DEGREE_CAP), (2, DEGREE_CAP)]

    def test_s_r_csv_has_five_data_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "s-r", "--k-max", "5", "--r", "1", "--format", "csv"
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0
        assert rows[0] == ["k", "s_r"]
        assert len(rows) == 6
        assert rows[1] == ["1", "1"]
        assert rows[3] == ["3", "1/3"]  # phi(3)/(2*3)

    def test_e_values_cardinality(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "e-values", "--n", "2", "--k-max", "4", "--format", "csv"
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0
        assert rows[0] == ["ks", "e"]
        assert len(rows) == 1 + 16

    def test_bad_range_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "table", "s-r", "--k-max", "0", "--r", "1")
        assert code == 2 and err

    def test_csv_round_trip(self, capsys):
        _, out, _ = run_cli(
            capsys, "table", "e-values", "--n", "2", "--k-max", "3", "--format", "csv"
        )
        rows = list(csv.reader(io.StringIO(out)))
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        assert buf.getvalue() == out


class TestVerify:
    def test_single_identity_exit_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--identity", "prop1", "--k-max", "100", "--r-max", "5"
        )
        assert code == 0
        assert "total 500, passed 500, failed 0" in out

    def test_json_report_parses_and_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--identity", "prop1", "--k-max", "10", "--r-max", "2",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["total"] == 20 and data["failed"] == 0
        assert json.dumps(data, indent=2) == out.rstrip("\n")

    def test_csv_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--identity", "half-sum", "--format", "csv"
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0
        assert rows[0] == ["identity", "params", "mode", "lhs", "rhs", "abs_error", "pass"]
        assert len(rows) == 1 + 40

    def test_empty_grid_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--identity", "prop4", "--k-max", "1")
        assert code == 2 and "error" in err

    def test_an_empty_trailing_parameter_sweeps_no_case_of_its_identity(self, capsys):
        # r <= 0 leaves prop1 no runs: alone its grid is empty, beside
        # inverse-dft it adds no row.
        code, out, err = run_cli(capsys, "verify", "--identity", "prop1", "--r-max", "0")
        assert code == 2 and out == "" and "empty grid" in err
        code, out, _ = run_cli(
            capsys, "verify", "--identity", "prop1,inverse-dft", "--r-max", "0",
            "--k-max", "3", "--n-max", "2", "--format", "csv",
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0 and len(rows) == 1 + 3 * 2
        assert {row[0] for row in rows[1:]} == {"inverse-dft"}

    @pytest.mark.parametrize("argv", [
        ("--identity", "e-multiplicativity", "--k-max", "0"),
        ("--identity", "e-multiplicativity", "--n-max", "0"),
    ])
    def test_no_coprime_pairs_to_draw_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert err == "error: empty grid for identities ['e-multiplicativity']\n"

    @pytest.mark.parametrize("selection, message", [
        ((",",), "error: no identity selected\n"),
        (("prop1", "prop1"), "error: identities selected more than once: prop1\n"),
    ], ids=["empty", "repeated"])
    def test_empty_or_repeated_selection_exits_2(self, capsys, selection, message):
        argv = [arg for tag in selection for arg in ("--identity", tag)]
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and out == "" and err == message

    def test_all_with_identity_exits_2(self, capsys, monkeypatch):
        swept = []
        monkeypatch.setattr(cli, "run_suite", swept.append)
        code, out, err = run_cli(
            capsys, "verify", "--all", "--identity", "prop1", "--k-max", "2", "--format", "json"
        )
        # argparse refuses the pair: its usage and error lines, exit 2.
        assert code == 2 and out == "" and swept == []
        assert err.startswith("usage: ramavg verify")
        assert "argument --identity: not allowed with argument --all" in err

    @pytest.mark.parametrize("tag, cap", [
        ("prop5-cosine", averages.COSINE_LIMIT), ("inverse-dft", averages.DFT_LIMIT),
    ])
    def test_bound_above_cap_exits_2_before_sweeping(self, capsys, monkeypatch, tag, cap):
        built, evaluated = [], []
        monkeypatch.setattr(verify, "_grid", lambda *args: built.append(args) or [])
        for name in ("binomial_weighted_cosine", "inverse_dft_batch"):
            monkeypatch.setattr(averages, name, lambda *args: evaluated.append(args))
        code, out, err = run_cli(
            capsys, "verify", "--identity", tag, "--k-max", str(cap + 1), "--n-max", "1"
        )
        assert code == 2 and out == "" and err == f"error: k must be <= {cap}\n"
        assert built == [] and evaluated == []

    def test_degree_bound_above_the_cap_exits_2_before_sweeping(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(verify, "_grid", lambda *args: built.append(args) or [])
        code, out, err = run_cli(
            capsys, "verify", "--identity", "prop1", "--r-max", str(DEGREE_CAP + 1)
        )
        assert code == 2 and out == "" and err == f"error: r must be <= {DEGREE_CAP}\n"
        assert built == []

    @pytest.mark.parametrize("argv", [
        ("--identity", "prop1", "--k-max", "100000000"),
        ("--identity", "cross-evaluator", "--k-max", "100000"),
        ("--identity", "prop7-corollary", "--k-max", "1", "--n-max", "1000000"),
    ])
    def test_grid_over_the_budget_exits_2_before_building(self, capsys, monkeypatch, argv):
        built = []
        monkeypatch.setattr(verify, "_grid", lambda *args: built.append(args) or [])
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and out == "" and built == []
        assert err == (
            f"error: grids exceed the budget of {verify.GRID_BUDGET} cases,"
            " a tuple case counted per modulus and a coprime pair per candidate it filters\n"
        )

    def test_unknown_identity_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--identity", "prop99")
        assert code == 2 and "prop99" in err

    def test_loosened_tolerance_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--identity", "prop2", "--k-max", "5", "--tolerance", "1e-6"
        )
        assert code == 2 and "tolerance" in err

    def test_failures_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(averages, "s_r_closed_batch", lambda k, rs: [999] * len(rs))
        code, out, _ = run_cli(
            capsys, "verify", "--identity", "prop1", "--k-max", "3", "--r-max", "1"
        )
        assert code == 1
        assert "FAIL prop1" in out

    def test_plain_report_lists_the_worst_error_of_a_float_identity(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--identity", "prop2", "--k-max", "5")
        assert code == 0
        # The value depends on the platform's libm.
        assert any(line.startswith("worst abs error prop2: ") for line in out.splitlines())

    def test_plain_report_lists_fifty_failures_and_counts_the_rest(self, capsys, monkeypatch):
        monkeypatch.setattr(averages, "s_r_closed_batch", lambda k, rs: [999] * len(rs))
        code, out, _ = run_cli(
            capsys, "verify", "--identity", "prop1", "--k-max", "60", "--r-max", "1"
        )
        lines = out.splitlines()
        fails = [i for i, line in enumerate(lines) if line.startswith("FAIL prop1(")]
        assert code == 1 and "total 60, passed 0, failed 60" in lines
        assert len(fails) == 50 and fails == list(range(fails[0], fails[0] + 50))
        assert lines[fails[-1] + 1] == "... and 10 more failures"

    def test_comma_separated_identities(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--identity", "half-sum,faulhaber", "--n-max", "10",
            "--r-max", "5", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["suite"] == "half-sum,faulhaber"
        assert data["total"] == 5 + 50

    @pytest.mark.parametrize("argv", [
        ("--identity", "prop1", "--r-max", "0"),
        ("--identity", "prop1", "--k-max", "100000000"),
        ("--identity", "prop5-cosine", "--k-max", str(averages.COSINE_LIMIT + 1)),
        ("--identity", "prop2", "--tolerance", "1e-6"),
    ], ids=["empty-grid", "grid-budget", "cap", "tolerance"])
    def test_a_refused_csv_sweep_prints_nothing(self, capsys, argv):
        # The CSV header goes out with the first compared run, so a sweep
        # refused before it has compared one leaves stdout empty.
        code, out, err = run_cli(capsys, "verify", *argv, "--format", "csv")
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_threads_flag_matches_serial(self, capsys):
        _, out1, _ = run_cli(
            capsys, "verify", "--identity", "prop2", "--k-max", "40", "--format", "json"
        )
        _, out4, _ = run_cli(
            capsys, "verify", "--identity", "prop2", "--k-max", "40", "--format", "json",
            "--threads", "4",
        )
        body1 = json.loads(out1)
        body4 = json.loads(out4)
        body1.pop("wall_time_seconds")
        body4.pop("wall_time_seconds")
        assert body1 == body4


class TestGlobalFlags:
    """Each global flag is accepted after the function or kind, before the
    command and after it, with the same output in each place."""

    # command -> (its name, the rest of the call, the flags its output shows).
    # compute prints a CSV value as plain text; the plain report's grid line
    # shows the seed and the tolerance.
    CALLS = {
        "compute": ("compute", ("S", "--k", "2", "--r", "2"), {"--format json", "--approx"}),
        "table": ("table", ("s-r", "--k-max", "3", "--r", "2"),
                  {"--format json", "--format csv", "--approx"}),
        "verify": ("verify", ("--identity", "prop3,half-sum", "--k-max", "6", "--r-max", "3"),
                   {"--format json", "--format csv", "--seed 7", "--tolerance 1e-9"}),
    }

    @staticmethod
    def _stable(result):
        code, out, err = result
        out = re.sub(r"wall time: .*|\"wall_time_seconds\": [^,\n]*", "", out)
        return code, out, err

    @pytest.mark.parametrize("flag", [
        ("--format", "json"), ("--format", "csv"), ("--tolerance", "1e-9"),
        ("--threads", "2"), ("--seed", "7"), ("--approx",),
    ], ids=["json", "csv", "tolerance", "threads", "seed", "approx"])
    @pytest.mark.parametrize("command", list(CALLS))
    def test_same_output_in_each_place(self, capsys, command, flag):
        name, rest, shown = self.CALLS[command]
        after_function, before_command, after_command = (
            self._stable(run_cli(capsys, *argv))
            for argv in ((name, *rest, *flag), (*flag, name, *rest), (name, *flag, *rest))
        )
        assert after_function[0] == 0
        assert after_function == before_command == after_command
        without = self._stable(run_cli(capsys, name, *rest))
        assert (after_function != without) == (" ".join(flag) in shown)

    def test_each_command_help_shows_the_flag_help(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--help")
        assert code == 0 and "may only be tightened" in out


class TestProgramBug:
    """An exception that is not one of its command's refusals is a program
    bug: exit 3, nothing on stdout and one line on stderr, which names the
    exception by its repr."""

    @staticmethod
    def _raise(exc):
        def raising(*args, **kwargs):
            raise exc
        return raising

    @pytest.mark.parametrize("name, exc, argv", [
        ("run_suite", ZeroDivisionError("division by zero"),
         ("verify", "--identity", "prop1", "--k-max", "2")),
        ("ramanujan_row", KeyError(6), ("table", "ramanujan-row", "--k", "6")),
        ("orbicyclic_divisor", RuntimeError("E is off\nby one"),
         ("compute", "E", "--ks", "2,3")),
        ("orbicyclic_divisor", RuntimeError("E is off\nby one"),
         ("table", "e-values", "--n", "2", "--k-max", "2")),
    ], ids=["verify", "ramanujan-row", "compute-E", "e-values"])
    def test_exits_3_with_one_line(self, capsys, monkeypatch, name, exc, argv):
        monkeypatch.setattr(cli, name, self._raise(exc))
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert err == f"internal error: {exc!r}\n" and err.count("\n") == 1


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone away: every write raises EPIPE."""

    def __init__(self, fd):
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def fileno(self):
        return self._fd


class _ClosingPipe(_ClosedPipe):
    """A stdout whose reader takes the first write, then goes away."""

    def __init__(self, fd):
        super().__init__(fd)
        self.taken = []

    def write(self, text):
        if self.taken:
            return super().write(text)
        self.taken.append(text)
        return len(text)


class TestBrokenPipe:
    def test_exits_141_and_silences_stdout(self, monkeypatch, tmp_path, capsys):
        target = tmp_path / "stdout"
        fd = os.open(target, os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
            code = main(["verify", "--identity", "half-sum", "--r-max", "3", "--format", "csv"])
            os.write(fd, b"after")  # lands in devnull, not in the file
        finally:
            os.close(fd)
        assert code == 141
        assert target.read_bytes() == b""
        assert capsys.readouterr().err == ""

    def test_a_closed_pipe_ends_the_sweep(self, monkeypatch, tmp_path, capsys):
        # Each run's rows are one write: the reader takes the k = 1 run with
        # the header, the write of the k = 2 run fails, and no later run is
        # evaluated.
        evaluated, real = [], verify.ramanujan_sum_batch
        monkeypatch.setattr(
            verify, "ramanujan_sum_batch", lambda k, js: evaluated.append(k) or real(k, js)
        )
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            stdout = _ClosingPipe(fd)
            monkeypatch.setattr(sys, "stdout", stdout)
            code = main(["verify", "--identity", "cross-evaluator", "--k-max", "50",
                         "--format", "csv"])
        finally:
            os.close(fd)
        assert code == 141 and capsys.readouterr().err == ""
        assert stdout.taken == [
            "identity,params,mode,lhs,rhs,abs_error,pass\n"
            'cross-evaluator,"k=1,j=0",exact,1,1,,true\n'
            'cross-evaluator,"k=1,j=1",exact,1,1,,true\n'
        ]
        assert evaluated == [1, 2]

    @staticmethod
    def _spawn(unbuffered, *argv):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        return subprocess.Popen(
            [sys.executable, "-m", "ramavg.cli", "verify", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_reader_prints_no_traceback(self, unbuffered):
        # Buffered, the report first reaches the pipe at a flush: main's,
        # or else the interpreter's at exit.
        proc = self._spawn(unbuffered, "--identity", "half-sum", "--r-max", "3", "--format", "json")
        proc.stdout.close()  # before the report is written
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert err == b""

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_reader_closing_mid_report(self, unbuffered):
        # The CSV (about 330 kB) outgrows the pipe, so the writer is still
        # inside a write when the reader leaves after the header.
        # Unbuffered, that write may return short with no error; the rest of
        # the report must still be attempted, so the exit status is 141.
        proc = self._spawn(unbuffered, "--identity", "cross-evaluator", "--k-max", "120",
                           "--format", "csv")
        assert proc.stdout.readline() == b"identity,params,mode,lhs,rhs,abs_error,pass\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert err == b""
