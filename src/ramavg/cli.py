"""Command-line front end: compute single values, tabulate rows and
averages, and run verification sweeps.

Exit codes: 0 success, 1 verification failures, 2 bad usage/configuration,
141 (128 + SIGPIPE) when the reader of stdout closes early; stderr stays empty.
Exact values are printed as reduced rationals ("p/q", or a bare integer);
decimals only appear with --approx (17 significant digits).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from fractions import Fraction
from itertools import product as iter_product
from typing import List, Optional

from .arith import divisor_count_and_sum, euler_phi, jordan_totient, mobius
from .averages import DEFAULT_SEED, DEFAULT_TOLERANCE, s_r_closed
from .exact import DEGREE_CAP, bernoulli_number
from .multivar import g_m, orbicyclic_divisor
from .ramanujan import BudgetError, ramanujan_row, ramanujan_sum
from .verify import (
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


def _build_parser() -> argparse.ArgumentParser:
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
    p_compute.add_argument("function", choices=tuple(_COMPUTE))
    p_compute.add_argument("--k", type=int)
    p_compute.add_argument("--j", type=int)
    p_compute.add_argument("--n", type=int)
    p_compute.add_argument("--m", type=int)
    p_compute.add_argument("--r", type=int)
    p_compute.add_argument("--ks", type=_parse_ks)

    p_table = sub.add_parser("table", parents=[common], help="tabulate rows or averages")
    p_table.add_argument("kind", choices=("ramanujan-row", "s-r", "e-values"))
    p_table.add_argument("--k", type=int)
    p_table.add_argument("--k-max", type=int, dest="k_max")
    p_table.add_argument("--r", type=int)
    p_table.add_argument("--n", type=int)

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
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _cmd_compute(args) -> int:
    fn = args.function
    wanted, evaluate = _COMPUTE[fn]
    supplied = {
        name: getattr(args, name)
        for name in ("k", "j", "n", "m", "r", "ks")
        if getattr(args, name) is not None
    }
    missing = [name for name in wanted if name not in supplied]
    extra = [name for name in supplied if name not in wanted]
    if missing or extra:
        parts = []
        if missing:
            parts.append(f"missing {', '.join('--' + m for m in missing)}")
        if extra:
            parts.append(f"unexpected {', '.join('--' + e for e in extra)}")
        print(
            f"usage: ramavg compute {fn} {' '.join('--' + w + ' <value>' for w in wanted)}"
            f" ({'; '.join(parts)})",
            file=sys.stderr,
        )
        return 2
    if any(_over_degree_cap(flag, supplied.get(flag)) for flag in ("r", "m")):
        return 2
    try:
        value = evaluate(*(supplied[name] for name in wanted))
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(_render_rational(value, args.format, args.approx))
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
        if args.k is None or args.k < 1:
            print("usage: ramavg table ramanujan-row --k <positive int>", file=sys.stderr)
            return 2
        try:
            values = ramanujan_row(args.k).values
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
        if args.k_max is None or args.k_max < 1 or args.r is None or args.r < 1:
            print("usage: ramavg table s-r --k-max <int> --r <int>", file=sys.stderr)
            return 2
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
    if args.n is None or args.n < 1 or args.k_max is None or args.k_max < 1:
        print("usage: ramavg table e-values --n <arity> --k-max <int>", file=sys.stderr)
        return 2
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
        keep_cases=(args.format == "csv"),
    )
    try:
        report = run_suite(config)
    except (ConfigError, ParamError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        _write(report_to_json(report) + "\n")
    elif args.format == "csv":
        _write(cases_to_csv(report.cases))
    else:
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
    args = _build_parser().parse_args(argv)
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
