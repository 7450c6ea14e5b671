import csv
import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ramavg.averages as averages
import ramavg.cli as cli
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
        ("compute", "c", "--k", "4", "--j", "x"),
        ("table", "s-r", "--k-max", "3", "--r", "1", "--n", "2"),
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
        assert code == 2 and out == "" and swept == []
        assert err == "error: --all and --identity cannot be combined\n"

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

    def test_comma_separated_identities(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--identity", "half-sum,faulhaber", "--n-max", "10",
            "--r-max", "5", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["suite"] == "half-sum,faulhaber"
        assert data["total"] == 5 + 50

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


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone away: every write raises EPIPE."""

    def __init__(self, fd):
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def fileno(self):
        return self._fd


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
        # inside its one write when the reader leaves after the header.
        # Unbuffered, that write returns short with no error; the rest of
        # the report must still be attempted, so the exit status is 141.
        proc = self._spawn(unbuffered, "--identity", "cross-evaluator", "--k-max", "120",
                           "--format", "csv")
        assert proc.stdout.readline() == b"identity,params,mode,lhs,rhs,abs_error,pass\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert err == b""
