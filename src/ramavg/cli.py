"""Command-line front end: compute single values, tabulate rows and
averages, and run verification sweeps.

Each compute function and table kind is a subparser of its own, with its
own required flags, so argparse alone reports a usage error: its usage and
error lines, exit 2, nothing on stdout. The global flags are accepted
before the subcommand, after it, and after the function or kind.

Exit codes: 0 success, 1 verification failures, 2 bad usage/configuration,
141 (128 + SIGPIPE) when the reader of stdout closes early; stderr stays empty.
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

_FORMATS = ("plain", "json", "csv")

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


# kind -> its flags, each a required positive int.
_TABLES = {"ramanujan-row": ("k",), "s-r": ("k-max", "r"), "e-values": ("n", "k-max")}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of a process: with one parser
    per compute function and table kind, a build costs a few milliseconds."""
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps values parsed before the subcommand from being clobbered.
    common.add_argument("--format", choices=_FORMATS, default=argparse.SUPPRESS)
    common.add_argument("--tolerance", type=float, default=argparse.SUPPRESS)
    common.add_argument("--threads", type=int, default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--approx", action="store_true", default=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(
        prog="ramavg",
        description="Ramanujan sums, their weighted averages, and identity verification.",
    )
    parser.add_argument("--format", choices=_FORMATS, default="plain")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="float comparison tolerance; may only be tightened")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored: sweeps always run serially")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed for randomized test functions and tuple pairs")
    parser.add_argument("--approx", action="store_true",
                        help="render exact rationals as 17-significant-digit decimals")
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
    p_verify.add_argument("--all", action="store_true", dest="run_all")
    p_verify.add_argument("--identity", action="append", dest="identities",
                          metavar="TAG", help=f"one of: {', '.join(IDENTITY_TAGS)}")
    p_verify.add_argument("--k-max", type=int, dest="k_max")
    p_verify.add_argument("--r-max", type=int, dest="r_max")
    p_verify.add_argument("--m-max", type=int, dest="m_max")
    p_verify.add_argument("--n-max", type=int, dest="n_max")
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
    if any(_over_degree_cap(flag, values.get(flag)) for flag in ("r", "m")):
        return 2
    # Rendering can fail too: past the interpreter's int-to-string digit
    # limit (ValueError), or past a float's range with --approx
    # (OverflowError).
    try:
        text = _render_rational(evaluate(*values.values()), args.format, args.approx)
    except (ValueError, RuntimeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return 0


def _over_degree_cap(flag: str, degree: Optional[int]) -> bool:
    if degree is None or degree <= DEGREE_CAP:
        return False
    print(f"error: --{flag} must be <= {DEGREE_CAP}", file=sys.stderr)
    return True


def _over_budget(moduli: int) -> bool:
    if moduli <= TABLE_BUDGET:
        return False
    print(
        f"error: the table exceeds the budget of {TABLE_BUDGET} moduli,"
        " an s-r modulus counted once per degree",
        file=sys.stderr,
    )
    return True


def _cmd_table(args) -> int:
    fmt = args.format
    if args.kind == "ramanujan-row":
        try:
            values = ramanujan_row(args.k)
        except BudgetError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if fmt == "json":
            print(json.dumps({"k": args.k, "values": list(values)}))
        elif fmt == "csv":
            print("j,c")
            for j, v in enumerate(values):
                print(f"{j},{v}")
        else:
            print(",".join(str(v) for v in values))
        return 0

    if args.kind == "s-r":
        if _over_degree_cap("r", args.r) or _over_budget(args.k_max * args.r):
            return 2
        rows = [(k, s_r_closed(k, args.r)) for k in range(1, args.k_max + 1)]
        if fmt == "json":
            print(json.dumps(
                [{"k": k, "num": v.numerator, "den": v.denominator} for k, v in rows]
            ))
        else:
            if fmt == "csv":
                print("k,s_r")
            for k, v in rows:
                print(f"{k},{_render_rational(v, 'plain', args.approx)}")
        return 0

    # e-values: every ordered tuple of a given arity up to a component bound
    # k_max**n is not raised to a huge n: for k_max >= 2 the budget is
    # already exceeded at n = its bit length.
    if _over_budget(args.n * args.k_max ** min(args.n, TABLE_BUDGET.bit_length())):
        return 2
    tuples = list(iter_product(range(1, args.k_max + 1), repeat=args.n))
    try:
        rows = [(t, orbicyclic_divisor(t)) for t in tuples]
    except RuntimeError as exc:  # enumeration budget
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if fmt == "json":
        print(json.dumps([{"ks": list(t), "e": e} for t, e in rows]))
    else:
        if fmt == "csv":
            print("ks,e")
        for t, e in rows:
            print(f"{'|'.join(str(x) for x in t)},{e}")
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
    identities: Optional[List[str]] = None
    if args.run_all and args.identities:
        print("error: --all and --identity cannot be combined", file=sys.stderr)
        return 2
    if args.identities:
        identities = []
        for entry in args.identities:
            identities.extend(part for part in entry.split(",") if part)
    config = SuiteConfig(
        identities=identities,
        k_max=args.k_max,
        r_max=args.r_max,
        m_max=args.m_max,
        n_max=args.n_max,
        tolerance=args.tolerance,
        seed=args.seed,
    )
    try:
        report = run_suite(config, _csv_sink() if args.format == "csv" else None)
    except (ConfigError, ParamError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # a usage error (2), or --help (0)
        return exc.code
    command = {"compute": _cmd_compute, "table": _cmd_table}.get(args.command, _cmd_verify)
    try:
        status = command(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # Later writes, and the interpreter's flush at exit, go to devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return status


if __name__ == "__main__":
    sys.exit(main())
