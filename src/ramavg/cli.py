"""Command-line front end: compute single values, tabulate rows and
averages, and run verification sweeps.

Each compute function and table kind is a subparser of its own, with its
own required flags, so argparse alone reports a usage error: its usage and
error lines, exit 2, nothing on stdout. argparse also reports verify's
selection conflict, --all with --identity, as the two exclude each other.
The global flags (_GLOBAL_FLAGS) are accepted before the subcommand, after
it, and after the function or kind, and each subcommand's --help shows
them.

Exit codes: 0 success; 1 verification failures; 2 a refused call, that is
a usage error, a bad configuration or a budget or cap refusal; 3 a program
bug; 141 (128 + SIGPIPE) when the reader of stdout closes early, with stderr
left empty. The commands raise, and main alone maps what they raise: each
command's refusal classes (_COMMANDS) to one "error: <message>" line on
stderr and exit 2, and any other exception to one "internal error: <repr>"
line and exit 3.
Exact values are printed as reduced rationals ("p/q", or a bare integer);
decimals only appear with --approx (17 significant digits).
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
from fractions import Fraction
from itertools import product as iter_product
from typing import List, Optional

from .arith import divisor_count_and_sum, euler_phi, jordan_totient, mobius
from .averages import DEFAULT_SEED, s_r_closed
from .exact import DEGREE_CAP, bernoulli_number
from .multivar import g_m, orbicyclic_divisor
from .ramanujan import BudgetError, ramanujan_row, ramanujan_sum
from .verify import (
    BOUNDS,
    CSV_HEADER,
    DEFAULT_TOLERANCE,
    ConfigError,
    IDENTITY_TAGS,
    ParamError,
    SuiteConfig,
    cases_to_csv,
    report_to_json,
    run_suite,
)

# (flag, its default, its argparse keywords) of each global flag.
_GLOBAL_FLAGS = (
    ("--format", "plain", {"choices": ("plain", "json", "csv")}),
    ("--tolerance", DEFAULT_TOLERANCE,
     {"type": float, "help": "float comparison tolerance; may only be tightened"}),
    ("--threads", 1, {"type": int, "help": "accepted and ignored: sweeps always run serially"}),
    ("--seed", DEFAULT_SEED,
     {"type": int, "help": "seed for randomized test functions and tuple pairs"}),
    ("--approx", False, {"action": "store_true",
                         "help": "render exact rationals as 17-significant-digit decimals"}),
)

# The most moduli one table may list: k_max * r for s-r, whose closed form
# costs about r steps per modulus, and n * k_max**n for e-values. It is
# checked before any row is built.
TABLE_BUDGET = 100_000


# name -> (parameter names, evaluator). The lambdas look their function up
# when called, so a patched or wrapped module attribute is the one used.
_COMPUTE = {
    "c": (("k", "j"), lambda k, j: ramanujan_sum(k, j)),
    "phi": (("n",), lambda n: euler_phi(n)),
    "mu": (("n",), lambda n: mobius(n)),
    "jordan": (("m", "n"), lambda m, n: jordan_totient(m, n)),
    "tau": (("n",), lambda n: divisor_count_and_sum(n)[0]),
    "sigma": (("n",), lambda n: divisor_count_and_sum(n)[1]),
    "bernoulli": (("m",), lambda m: bernoulli_number(m)),
    "S": (("k", "r"), lambda k, r: s_r_closed(k, r)),
    "E": (("ks",), lambda ks: orbicyclic_divisor(ks)),
    "g": (("ks", "m"), lambda ks, m: g_m(ks, m)),
}


def _parse_ks(text: str):
    try:
        ks = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"--ks expects comma-separated integers, got {text!r}")
    if not ks or any(k < 1 for k in ks):
        raise argparse.ArgumentTypeError(f"--ks entries must be positive, got {text!r}")
    return ks


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expects a positive integer, got {text!r}")
    return value


def _tags(text: str) -> List[str]:
    """The identity tags of one --identity value, split on commas; empty
    parts are dropped, so "," selects none."""
    return [tag for tag in text.split(",") if tag]


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of a process: with one parser
    per compute function and table kind, a build costs a few milliseconds."""
    parser = argparse.ArgumentParser(
        prog="ramavg",
        description="Ramanujan sums, their weighted averages, and identity verification.",
    )
    common = argparse.ArgumentParser(add_help=False)
    for flag, default, keywords in _GLOBAL_FLAGS:
        parser.add_argument(flag, default=default, **keywords)
        # SUPPRESS keeps a value parsed before the subcommand from being
        # clobbered. The top level takes no parents=[common]: argparse
        # shares the actions of a parent, so a set_defaults there would
        # rewrite the subcommands' defaults too.
        common.add_argument(flag, default=argparse.SUPPRESS, **keywords)
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", parents=[common], help="compute a single value")
    functions = p_compute.add_subparsers(dest="function", required=True)
    for name, (params, _) in _COMPUTE.items():
        leaf = functions.add_parser(name, parents=[common])
        for param in params:
            leaf.add_argument(f"--{param}", type=_parse_ks if param == "ks" else int,
                              required=True)

    p_table = sub.add_parser("table", parents=[common], help="tabulate rows or averages")
    kinds = p_table.add_subparsers(dest="kind", required=True)
    for kind, flags in _TABLES.items():
        leaf = kinds.add_parser(kind, parents=[common])
        for flag in flags:
            leaf.add_argument(f"--{flag}", type=_positive_int, required=True)

    p_verify = sub.add_parser("verify", parents=[common], help="run identity sweeps")
    selection = p_verify.add_mutually_exclusive_group()
    selection.add_argument("--all", action="store_true")
    selection.add_argument("--identity", action="extend", type=_tags, dest="identities",
                           metavar="TAG", help=f"one of: {', '.join(IDENTITY_TAGS)}")
    for name in BOUNDS:
        p_verify.add_argument("--" + name.replace("_", "-"), type=int)
    return parser


def _render_rational(value, fmt: str, approx: bool) -> str:
    value = Fraction(value)
    if fmt == "json":
        return json.dumps({"num": value.numerator, "den": value.denominator})
    if approx:
        return f"{float(value):.17g}"
    return str(value)


def _cmd_compute(args) -> int:
    wanted, evaluate = _COMPUTE[args.function]
    values = {name: getattr(args, name) for name in wanted}
    for flag in ("r", "m"):
        _check_degree(flag, values.get(flag))
    print(_render_rational(evaluate(*values.values()), args.format, args.approx))
    return 0


def _check_degree(flag: str, degree: Optional[int]) -> None:
    if degree is not None and degree > DEGREE_CAP:
        raise ParamError(f"--{flag} must be <= {DEGREE_CAP}")


def _check_budget(moduli: int) -> None:
    if moduli > TABLE_BUDGET:
        raise ParamError(
            f"the table exceeds the budget of {TABLE_BUDGET} moduli,"
            " an s-r modulus counted once per degree"
        )


# kind -> its flags, each a required positive int.
_TABLES = {"ramanujan-row": ("k",), "s-r": ("k-max", "r"), "e-values": ("n", "k-max")}


def _table(args):
    """The table of args.kind: its CSV header, its rows as (key, value)
    pairs, and a function that builds its JSON value."""
    if args.kind == "ramanujan-row":
        values = ramanujan_row(args.k)
        return "j,c", enumerate(values), lambda: {"k": args.k, "values": list(values)}
    if args.kind == "s-r":
        _check_degree("r", args.r)
        _check_budget(args.k_max * args.r)
        values = [(k, s_r_closed(k, args.r)) for k in range(1, args.k_max + 1)]
        rows = ((k, _render_rational(v, "plain", args.approx)) for k, v in values)
        return "k,s_r", rows, lambda: [
            {"k": k, "num": v.numerator, "den": v.denominator} for k, v in values
        ]
    # e-values: every ordered tuple of a given arity up to a component bound
    # k_max**n is not raised to a huge n: for k_max >= 2 the budget is
    # already exceeded at n = its bit length.
    _check_budget(args.n * args.k_max ** min(args.n, TABLE_BUDGET.bit_length()))
    values = [(t, orbicyclic_divisor(t))
              for t in iter_product(range(1, args.k_max + 1), repeat=args.n)]
    rows = (("|".join(map(str, t)), e) for t, e in values)
    return "ks,e", rows, lambda: [{"ks": list(t), "e": e} for t, e in values]


def _cmd_table(args) -> int:
    """Write the table: its JSON value, or its rows a line at a time, after
    the header in CSV; a plain ramanujan-row is one line of its values."""
    header, rows, json_value = _table(args)
    if args.format == "json":
        print(json.dumps(json_value()))
    elif args.format == "plain" and args.kind == "ramanujan-row":
        print(",".join(str(v) for _, v in rows))
    else:
        if args.format == "csv":
            print(header)
        for key, value in rows:
            print(f"{key},{value}")
    return 0


def _write(text: str) -> None:
    """Write text to stdout in full. Unbuffered (python -u), stdout hands
    the bytes straight to the file, and a write into a pipe whose reader
    closes meanwhile returns short without an error; the rest is written
    until the closed pipe raises BrokenPipeError."""
    raw = getattr(sys.stdout, "buffer", None)
    if not isinstance(raw, io.RawIOBase):
        sys.stdout.write(text)  # a buffered stream writes all or raises
        return
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
    while data:
        data = data[raw.write(data):]


def _csv_sink():
    """A run_suite sink that writes the CSV rows of each run to stdout as it
    is compared, one write per run, the header with the first: a refused
    or empty sweep writes nothing, and a closed pipe ends the sweep at the
    next run."""
    header = CSV_HEADER

    def write_run(ident, lead, rests, columns):
        nonlocal header
        _write(header + cases_to_csv(ident, lead, rests, columns))
        header = ""

    return write_run


def _cmd_verify(args) -> int:
    config = SuiteConfig(
        identities=args.identities,
        tolerance=args.tolerance,
        seed=args.seed,
        **{name: getattr(args, name) for name in BOUNDS},
    )
    report = run_suite(config, _csv_sink() if args.format == "csv" else None)
    if args.format == "json":
        _write(report_to_json(report) + "\n")
    elif args.format == "plain":
        print(f"suite: {report.suite}")
        print(f"grid: {report.grid}")
        print(f"total {report.total}, passed {report.passed}, failed {report.failed}")
        for tag, err in report.worst_errors.items():
            print(f"worst abs error {tag}: {err:.3e}")
        for case in report.failures[:50]:
            note = f" [{case.error}]" if case.error else ""
            print(f"FAIL {case.identity}({case.params}): lhs={case.lhs} rhs={case.rhs}{note}")
        if len(report.failures) > 50:
            print(f"... and {len(report.failures) - 50} more failures")
        print(f"wall time: {report.wall_time_seconds:.2f}s")
    return 0 if report.failed == 0 else 1


# command -> (its function, the exceptions that refuse a call). compute's
# ValueError covers a domain error and a value past the interpreter's
# int-to-string digit limit, its OverflowError a value past a float's range
# with --approx.
_COMMANDS = {
    "compute": (_cmd_compute, (ValueError, BudgetError, OverflowError)),
    "table": (_cmd_table, (ParamError, BudgetError)),
    "verify": (_cmd_verify, (ConfigError, ParamError)),
}


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # a usage error (2), or --help (0)
        return exc.code
    command, refusals = _COMMANDS[args.command]
    try:
        status = command(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # Later writes, and the interpreter's flush at exit, go to devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except refusals as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a program bug; repr keeps it to one line
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3
    return status


if __name__ == "__main__":
    sys.exit(main())
