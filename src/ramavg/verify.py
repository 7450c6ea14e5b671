"""Identity verification engine: sweeps, comparison modes, reports.

The catalog below is closed: each tag names exactly one evaluator and
one comparison mode (exact rational equality, or the mixed float criterion
averages.within_tolerance). Evaluators return sides only and _compare
compares them: the mode is owned here, not by callers or evaluators, so an
exact identity can never be checked sloppily from the command line.

Each identity declares its parameters once, as a schema (kind, minimum,
optional cap, grid bound). One validator checks every case against it,
and the default grid of most identities is the product of the declared
ranges; only grids of another shape are spelled out.

Evaluation goes by runs: the cases of a grid that share their leading
parameter (k, or the tuple ks). An identity's evaluate takes the leading
value, the trailing values of every case of the run and the seed, and
returns the sides of each case, so a kernel can share work across the run
(one read of the power-sum table of (k,) for prop1 and prop6, of each
tuple table for prop7 and of the FFT row per k for inverse-dft, one read
of k's divisors, gcd-class totals, mu(k/d) and phi(k) for every f of prop3
and prop3-corollary, one validated run per k for cross-evaluator); the
other identities evaluate case by case. If a run raises, each of its cases
is evaluated alone, so a failure stays with the cases that cause it.

A run is validated once per column: the leading value once, and the
values of each trailing parameter across the run as one column, so a
valid run costs a few C-level scans rather than a check per value; a
column that does not pass is checked value by value and raises the error
of its first bad value.

A run is then compared and rendered in two steps, each over columns.
_compare evaluates the run, transposes its sides into lhs, rhs and reason
columns and compares each case once, giving a passed column and, in
tolerance mode, an abs_error column. _render builds IdentityCases, each
a NamedTuple (an immutable tuple of its eight fields) made by
tuple.__new__, from those columns, or from the same rows of each: it takes
every passed flag and abs_error from them and compares nothing, so a case
reads the same whichever report keeps it. Its params are the leading
value's text, rendered once per run, and a str.format template of the
trailing values. run_suite tallies the counts and the worst errors from
the columns, then renders every case when SuiteConfig.keep_cases is set
(the CSV) and only the failing cases otherwise: a run whose cases all pass
renders nothing. run_identity compares and renders its one case. The CSV
is written from the unpacked tuples.

Before any grid is built, run_suite refuses a grid bound above a
parameter's cap, and counts the cases of every selected grid from its
bounds (no grid is built to count it), a case of moduli tuples once per
modulus it holds: more than GRID_BUDGET in all raise ParamError.

A sweep never aborts on a failing or erroring case; errors are recorded
on the case and the report's exit status carries the overall verdict.
Sweeps run serially. Reports are deterministic: cases are generated in
ascending parameter order and the JSON body (everything except
wall_time_seconds) is byte-stable across reruns.
"""

from __future__ import annotations

import json
import math
import random
import re
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement, groupby, repeat, starmap, zip_longest
from itertools import product as iter_product
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from . import averages, exact, multivar
from .arith import euler_phi
from .ramanujan import ramanujan_sum, ramanujan_sum_float, ramanujan_sum_holder

__all__ = [
    "ConfigError",
    "ParamError",
    "GRID_BUDGET",
    "IdentityCase",
    "VerificationReport",
    "SuiteConfig",
    "IDENTITY_TAGS",
    "identity_mode",
    "default_bounds",
    "run_identity",
    "run_suite",
    "report_to_json",
    "report_body_json",
    "cases_to_csv",
]

class ConfigError(ValueError):
    """Bad suite configuration (unknown identity, empty grid, tolerance)."""


class ParamError(ValueError):
    """Parameters violate an identity's schema."""


class IdentityCase(NamedTuple):
    """One rendered case. A tuple, so it is immutable and cheap to build."""

    identity: str
    params: str
    mode: str  # "exact" or "tolerance"
    lhs: str
    rhs: str
    passed: bool
    abs_error: Optional[float] = None  # tolerance mode only
    error: Optional[str] = None  # evaluator failure annotation

    def as_dict(self) -> dict:
        return {
            "identity": self.identity,
            "params": self.params,
            "mode": self.mode,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "abs_error": self.abs_error,
            "pass": self.passed,
            "error": self.error,
        }


@dataclass
class VerificationReport:
    suite: str
    grid: str
    total: int
    passed: int
    failed: int
    worst_errors: Dict[str, float]
    failures: List[IdentityCase]
    wall_time_seconds: float
    cases: Optional[List[IdentityCase]] = None  # populated when keep_cases
    # tag -> (cases, seconds) per identity, in sweep order; like the wall
    # time, it is not part of the body.
    timings: Dict[str, Tuple[int, float]] = field(default_factory=dict)

    def body_dict(self) -> dict:
        """Everything except wall time; the determinism contract applies here."""
        return {
            "suite": self.suite,
            "grid": self.grid,
            "total": self.total,
            "passed": self.passed,
            "failed": self.failed,
            "worst_errors": self.worst_errors,
            "failures": [c.as_dict() for c in self.failures],
        }


def report_body_json(report: VerificationReport) -> str:
    return json.dumps(report.body_dict(), indent=2)


def report_to_json(report: VerificationReport) -> str:
    body = report.body_dict()
    body["wall_time_seconds"] = report.wall_time_seconds
    return json.dumps(body, indent=2)


def cases_to_csv(cases: Iterable[IdentityCase]) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["identity", "params", "mode", "lhs", "rhs", "abs_error", "pass"])
    writer.writerows(
        (
            identity, params, mode, lhs, rhs,
            "" if abs_error is None else f"{abs_error:.17g}",
            "true" if passed else "false",
        )
        for identity, params, mode, lhs, rhs, passed, abs_error, _ in cases
    )
    return buf.getvalue()


# --- outcome helpers --------------------------------------------------------


def _fmt_rational(x: Union[int, Fraction]) -> str:
    # ints and Fractions are both already in lowest terms.
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# f"{x:.17g}" as a bound C method, so rendering a float column calls no
# Python function.
_fmt_float: Callable[[float], str] = "{:.17g}".format


def _fmt_value(v) -> str:
    if isinstance(v, tuple):
        return "|".join(str(x) for x in v)
    return str(v)


# (leading value, trailing values of each case of the run, seed) -> the
# sides of each case: (lhs, rhs), or (lhs, rhs, reason) for a case that
# fails for a reason its sides do not show (cross-evaluator's float oracle;
# (None, None, the exception) for a case that raised).
_Evaluator = Callable[[object, Sequence[tuple], int], List[tuple]]


# --- the identity catalog ---------------------------------------------------


@dataclass(frozen=True)
class Param:
    """One parameter of an identity's schema.

    kind is "int" (an integer >= minimum and, when cap is set, <= cap),
    "moduli" (a non-empty tuple of positive integers), "coprime" (moduli
    of the leading tuple's arity whose product is coprime to its product),
    "function" (a named or seeded random arithmetic function) or "choice"
    (one of choices).
    bound names the grid bound an "int" parameter ranges up to: from its
    minimum when the identity's grid is the product of such ranges, and
    the bound run_suite holds to cap before any grid is built.
    """

    name: str
    kind: str = "int"
    minimum: int = 1
    cap: Optional[int] = None
    bound: Optional[str] = None
    choices: Tuple[str, ...] = ()


@dataclass(frozen=True)
class IdentityDef:
    tag: str
    mode: str  # "exact" | "tolerance"
    params: Tuple[Param, ...]
    evaluate: _Evaluator
    bounds: Dict[str, int]  # default grid bounds
    # (bounds, seed) -> ascending params; None means the product of the
    # parameters' ranges.
    grid: Optional[Callable[[dict, int], List[tuple]]] = None
    # bounds -> the cases of grid(bounds, seed), a case of moduli tuples
    # counted once per modulus it holds (or can hold, for drawn arities),
    # counted without building the grid; given with every grid.
    size: Optional[Callable[[dict], int]] = None
    param_names: Tuple[str, ...] = field(init=False)
    trailing: str = field(init=False)  # ",name={}" per trailing parameter, for str.format

    def __post_init__(self):
        object.__setattr__(self, "param_names", tuple(p.name for p in self.params))
        object.__setattr__(self, "trailing", "".join(f",{p.name}={{}}" for p in self.params[1:]))


# rand followed by one to nine ASCII digits: str.isdigit would also take
# other scripts' digits ("rand\u0663"), which int() reads but the report
# renders as given, and past 4,300 digits int() refuses the string.
_RANDOM_NAME = re.compile(r"rand([0-9]{1,9})")


def _is_function_name(v) -> bool:
    return isinstance(v, str) and (
        v in averages.NAMED_FUNCTIONS or _RANDOM_NAME.fullmatch(v) is not None
    )


def _resolve_function(name: str, seed: int) -> averages.ArithmeticFunction:
    """The function of a name that passed validation."""
    if name in averages.NAMED_FUNCTIONS:
        return averages.NAMED_FUNCTIONS[name]
    return averages.random_function(int(name[4:]), seed)


def _is_int(v) -> bool:
    # bool is an int subclass, but True would render as "True" and equal 1.
    return isinstance(v, int) and not isinstance(v, bool)


def _check_param(p: Param, v, lead=None) -> None:
    """Check one value against p; lead is the run's leading value, which a
    "coprime" value is checked against."""
    if p.kind == "int":
        if not _is_int(v) or v < min(p.minimum, 1):
            sign = "non-negative" if p.minimum == 0 else "positive"
            raise ParamError(f"{p.name} must be a {sign} integer, got {v!r}")
        if v < p.minimum:
            raise ParamError(f"{p.name} must be >= {p.minimum}, got {v}")
        if p.cap is not None and v > p.cap:
            raise ParamError(f"{p.name} must be <= {p.cap}")
    elif p.kind in ("moduli", "coprime"):
        if not (isinstance(v, tuple) and v and all(_is_int(x) and x >= 1 for x in v)):
            raise ParamError(f"{p.name} must be a non-empty tuple of positive integers, got {v!r}")
        if p.kind == "coprime":
            if len(lead) != len(v):
                raise ParamError("tuples must have equal arity")
            if math.gcd(math.prod(lead), math.prod(v)) != 1:
                raise ParamError(f"tuples {lead} and {v} are not coprime")
    elif p.kind == "function":
        if not _is_function_name(v):
            raise ParamError(f"unknown arithmetic function {v!r}")
    elif v not in p.choices:
        raise ParamError(f"{p.name} must be one of {'/'.join(p.choices)}, got {v!r}")


def _column_passes(p: Param, column: Sequence) -> bool:
    """Whether every value of one trailing parameter across a run passes
    the schema, tested on the column as a whole. False may also mean that
    only _check_param can tell: a value of an int subclass, or a tuple of
    moduli (no identity has a trailing one but e-multiplicativity's, which
    is checked against its leading tuple)."""
    if p.kind == "int":
        return (
            set(map(type, column)) == {int}
            and min(column) >= p.minimum
            and (p.cap is None or max(column) <= p.cap)
        )
    if p.kind == "function":
        return all(map(_is_function_name, column))
    if p.kind == "choice":
        return all(v in p.choices for v in column)
    return False


def _validate(ident: IdentityDef, lead, rests: Sequence[tuple]) -> None:
    """Check one run against the identity's schema; raises ParamError.

    The leading value is checked once, and each trailing parameter as one
    column of the run. A column that does not pass whole is checked value
    by value, so the error raised is that of its first bad value. No
    identity has more than one trailing parameter, so column order is
    case order and the first bad value is that of the first bad case.
    """
    _check_param(ident.params[0], lead)
    for i, p in enumerate(ident.params[1:]):
        column = [rest[i] for rest in rests]
        if not _column_passes(p, column):
            for v in column:
                _check_param(p, v, lead)


# Cases of all the grids of one sweep, which run_suite counts before it
# builds any, a case of moduli tuples counted once per modulus it holds:
# 4x the largest default grid (inverse-dft, 250,000 cases), and above
# verify --all (598,001). A grid case holds about 64 bytes and a case kept
# for the CSV about 300 more, so the budget bounds the grids to about 64 MB
# and a CSV sweep to about 400 MB; a modulus adds less than a case.
GRID_BUDGET = 1_000_000


def _grid(ident: IdentityDef, bounds: Dict[str, int], seed: int) -> List[tuple]:
    if ident.grid is not None:
        return ident.grid(bounds, seed)
    return list(iter_product(*(range(p.minimum, bounds[p.bound] + 1) for p in ident.params)))


def _grid_size(ident: IdentityDef, bounds: Dict[str, int]) -> int:
    """ident.size(bounds), or the product grid's length: exact up to
    GRID_BUDGET, and a number above GRID_BUDGET past it, counted without
    building anything."""
    if ident.size is not None:
        return ident.size(bounds)
    return math.prod(len(range(p.minimum, bounds[p.bound] + 1)) for p in ident.params)


def _multiset_count(component_max: int, arity_max: int) -> int:
    """len(_tuple_grid(component_max, arity_max)) = C(k + n, n) - 1 (the
    hockey-stick sum of C(k + i - 1, i) over i = 1..n). Past GRID_BUDGET
    the smaller of k and n is held to GRID_BUDGET's bit length L, so
    math.comb stays small; the count is then at least C(2L, L) - 1, still
    above GRID_BUDGET."""
    k, n = max(component_max, 0), max(arity_max, 0)
    small = min(k, n, GRID_BUDGET.bit_length())
    return math.comb(max(k, n) + small, small) - 1


def _multiset_moduli(component_max: int, arity_max: int) -> int:
    """The moduli _tuple_grid(component_max, arity_max) holds, the sum of
    i C(k + i - 1, i) over i = 1..n, which is k C(k + n, n - 1). It is at
    least the case count, so past GRID_BUDGET the case count stands in."""
    cases = _multiset_count(component_max, arity_max)
    if cases > GRID_BUDGET or cases == 0:
        return cases
    return component_max * math.comb(component_max + arity_max, arity_max - 1)


def _tuple_grid(component_max: int, arity_max: int) -> List[tuple]:
    """Ascending multisets (k_1 <= ... <= k_n) for n = 1..arity_max.

    E, g_m and S_r are symmetric in their moduli (the summands are plain
    products), so one representative per multiset covers every ordering.
    """
    out: List[tuple] = []
    for n in range(1, arity_max + 1):
        out.extend(combinations_with_replacement(range(1, component_max + 1), n))
    return out


def _coprime_pair_grid(pairs: int, component_max: int, arity_max: int, seed: int) -> List[tuple]:
    """Seeded coprime tuple pairs ((a_1..a_n), (b_1..b_n)); none without
    components or arities to draw from."""
    if component_max < 1 or arity_max < 1:
        return []
    rng = random.Random(f"e-mult:{seed}")
    out = []
    for _ in range(pairs):
        n = rng.randint(1, arity_max)
        a = tuple(rng.randint(1, component_max) for _ in range(n))
        prod_a = math.prod(a)
        candidates = [v for v in range(1, component_max + 1) if math.gcd(v, prod_a) == 1]
        b = tuple(rng.choice(candidates) for _ in range(n))
        out.append((a, b))
    return out


# Evaluators read averages.*, multivar.*, exact.* and the ramanujan_sum*
# names of this module when they are called, never when the catalog is
# built, so a patched attribute (a test's fault injection, a tracer's
# wrapper) is the one that runs.


def _per_case(fn: Callable[..., tuple]) -> _Evaluator:
    """The batch evaluator of an identity without a kernel: fn(*params) on
    each case of the run."""
    return lambda lead, rests, seed: [fn(lead, *rest) for rest in rests]


def _prop1(k, rests, seed):
    """One power-sum table read for every r of the run; the closed side per case."""
    rs = [r for r, in rests]
    return [
        (lhs, averages.s_r_closed(k, r))
        for lhs, r in zip(averages.s_r_direct_batch(k, rs), rs)
    ]


def _prop6(k, rests, seed):
    """One power-sum table read for every m of the run."""
    return averages.bernoulli_weighted_batch(k, [m for m, in rests])


def _inverse_dft(k, rests, seed):
    return averages.inverse_dft_batch(k, [n for n, in rests])


def _prop7(ks, rests, seed):
    """One ModulusTuple and one read of each tuple table for the whole run."""
    t = multivar.ModulusTuple(ks)
    rs = [r for r, in rests]
    lhs = multivar.s_r_multi_direct_batch(t, rs)
    return list(zip(lhs, multivar.s_r_multi_closed_batch(t, rs)))


def _prop3(k, rests, seed):
    """One read of k's divisors, class totals, mu(k/d) and phi(k) for
    every f of the run."""
    return averages.gcd_weighted_batch(k, [_resolve_function(name, seed) for name, in rests])


def _prop3_grid(b, seed):
    names = list(averages.NAMED_FUNCTIONS) + [f"rand{i:02d}" for i in range(b["rand_count"])]
    return [(k, name) for k in range(1, b["k_max"] + 1) for name in names]


def _prop3_size(b):
    return max(b["k_max"], 0) * (len(averages.NAMED_FUNCTIONS) + max(b["rand_count"], 0))


# The three stated specializations of prop3.
_COROLLARY_RHS = {
    "id": lambda k: euler_phi(k) ** 2,
    "tau": lambda k: euler_phi(k),
    "sigma": lambda k: k * euler_phi(k),
}


def _prop3_corollary(k, rests, seed):
    """prop3's kernel for the left sides; each stated closed form per case."""
    names = [name for name, in rests]
    pairs = averages.gcd_weighted_batch(k, [averages.NAMED_FUNCTIONS[n] for n in names])
    return [(pair.lhs, _COROLLARY_RHS[n](k)) for pair, n in zip(pairs, names)]


def _prop7_corollary(ks):
    """S_1 = prod phi / (2k) + E/2."""
    t = multivar.ModulusTuple(ks)
    lhs = multivar.s_r_multi_direct(t, 1)
    rhs = Fraction(math.prod(euler_phi(k) for k in t.ks), 2 * t.lcm_value) + Fraction(
        multivar.orbicyclic_divisor(t), 2
    )
    return lhs, rhs


def _e_integrality(ks):
    """Direct E is a non-negative integer equal to the divisor form; both
    sides read one ModulusTuple."""
    t = multivar.ModulusTuple(ks)
    return multivar.orbicyclic_direct(t), multivar.orbicyclic_divisor(t)


def _cross_evaluator(k, rests, seed):
    """Divisor formula vs Holder form, with the rounded float definition
    as a third evaluator that fails a case by its reason."""
    divisor, holder, oracle = ramanujan_sum, ramanujan_sum_holder, ramanujan_sum_float
    out = []
    for (j,) in rests:
        a = divisor(k, j)
        b = holder(k, j)
        f = oracle(k, j)
        if round(f) == a and abs(f - a) <= 1e-6 * k:
            out.append((a, b))
        else:
            out.append((a, b, f"float oracle {_fmt_float(f)} disagrees with the exact value {a}"))
    return out


def _bernoulli_poly_sum_direct(k: int, m: int) -> Fraction:
    """sum_{j<k} B_m(j/k), each term by integer Horner on k^m D B_m(j/k)
    (D clears the Bernoulli denominators), with one division at the end.
    It stays a loop over j: exact.power_sum would be a closed form."""
    base, d = exact.bernoulli_polynomial_coefficients(m)
    coeffs = [c * k**t for t, c in enumerate(base)]
    total = 0
    for j in range(k):
        acc = 0
        for c in coeffs:
            acc = acc * j + c
        total += acc
    return Fraction(total, d * k**m)


def _tuple_param_grid(b, seed):
    return [(t,) for t in _tuple_grid(b["k_max"], b["n_max"])]


def _tuple_param_size(b):
    return _multiset_moduli(b["k_max"], b["n_max"])


def _coprime_pair_size(b):
    """At most n_max moduli on each side of each pair."""
    if b["k_max"] < 1:
        return 0
    return max(b["pairs"], 0) * 2 * max(b["n_max"], 0)


_K = Param("k", bound="k_max")
_KS = Param("ks", "moduli")
_R = Param("r", cap=exact.DEGREE_CAP, bound="r_max")
_M = Param("m", cap=exact.DEGREE_CAP, bound="m_max")

_CATALOG: Dict[str, IdentityDef] = {
    d.tag: d
    for d in (
        IdentityDef("prop1", "exact", (_K, _R), _prop1, {"k_max": 1000, "r_max": 10}),
        IdentityDef(
            "prop2", "tolerance", (_K,),
            _per_case(lambda k: averages.log_weighted_pair(k)),
            {"k_max": 500},
        ),
        IdentityDef(
            "prop3", "exact", (Param("k"), Param("f", "function")), _prop3,
            {"k_max": 1000, "rand_count": 20}, _prop3_grid, _prop3_size,
        ),
        IdentityDef(
            "prop3-corollary", "exact",
            (Param("k"), Param("f", "choice", choices=tuple(_COROLLARY_RHS))),
            _prop3_corollary,
            {"k_max": 1000},
            lambda b, seed: [
                (k, name) for k in range(1, b["k_max"] + 1) for name in _COROLLARY_RHS
            ],
            lambda b: max(b["k_max"], 0) * len(_COROLLARY_RHS),
        ),
        IdentityDef(
            "prop4", "tolerance", (Param("k", minimum=2, bound="k_max"),),
            _per_case(lambda k: averages.gamma_weighted_pair(k)),
            {"k_max": 500},
        ),
        IdentityDef(
            "gamma-product", "tolerance", (Param("n", bound="n_max"),),
            _per_case(lambda n: averages.gamma_product_check(n)),
            {"n_max": 500},
        ),
        IdentityDef(
            "mobius-log", "tolerance", (_K,),
            _per_case(lambda k: averages.mobius_log_check(k)),
            {"k_max": 500},
        ),
        IdentityDef(
            "prop5-exact", "exact", (_K,),
            _per_case(lambda k: averages.binomial_weighted_exact(k)),
            {"k_max": 200},
        ),
        IdentityDef(
            "prop5-cosine", "tolerance", (Param("k", cap=averages.COSINE_LIMIT, bound="k_max"),),
            _per_case(lambda k: averages.binomial_weighted_cosine(k)),
            {"k_max": 200},
        ),
        IdentityDef("prop6", "exact", (_K, _M), _prop6, {"k_max": 500, "m_max": 8}),
        IdentityDef(
            "inverse-dft", "tolerance",
            (Param("k", cap=averages.DFT_LIMIT, bound="k_max"), Param("n", bound="n_max")),
            _inverse_dft,
            {"k_max": 500, "n_max": 500},
        ),
        IdentityDef(
            "prop7", "exact", (_KS, _R),
            _prop7,
            {"k_max": 40, "n_max": 3, "r_max": 5},
            lambda b, seed: [
                (t, r)
                for t in _tuple_grid(b["k_max"], b["n_max"])
                for r in range(1, b["r_max"] + 1)
            ],
            lambda b: _multiset_moduli(b["k_max"], b["n_max"]) * max(b["r_max"], 0),
        ),
        IdentityDef(
            "prop7-corollary", "exact", (_KS,), _per_case(_prop7_corollary),
            {"k_max": 40, "n_max": 3}, _tuple_param_grid, _tuple_param_size,
        ),
        IdentityDef(
            "e-integrality", "exact", (_KS,), _per_case(_e_integrality),
            {"k_max": 40, "n_max": 3}, _tuple_param_grid, _tuple_param_size,
        ),
        IdentityDef(
            "e-multiplicativity", "exact", (Param("a", "moduli"), Param("b", "coprime")),
            _per_case(lambda a, b: multivar.multiplicativity_sides(a, b)),
            {"k_max": 30, "n_max": 3, "pairs": 200},
            lambda b, seed: _coprime_pair_grid(b["pairs"], b["k_max"], b["n_max"], seed),
            _coprime_pair_size,
        ),
        IdentityDef(
            "cross-evaluator", "exact", (Param("k"), Param("j", minimum=0)), _cross_evaluator,
            {"k_max": 300},
            lambda b, seed: [(k, j) for k in range(1, b["k_max"] + 1) for j in range(0, k + 1)],
            # sum of k + 1 over k = 1..k_max
            lambda b: max(b["k_max"], 0) * (max(b["k_max"], 0) + 3) // 2,
        ),
        # sum C(r+1, 2m) B_2m = (r+1)/2. True for r >= 1 only: at r = 0
        # there is no B_1 term to absorb and the sum is B_0 = 1, so the
        # default grid starts at 1 (run_identity still accepts r = 0 and
        # will honestly report the mismatch).
        IdentityDef(
            "half-sum", "exact", (Param("r", minimum=0, cap=exact.DEGREE_CAP, bound="r_max"),),
            _per_case(lambda r: (exact.half_sum_check(r), Fraction(r + 1, 2))),
            {"r_max": 40},
            lambda b, seed: [(r,) for r in range(1, b["r_max"] + 1)],
            lambda b: max(b["r_max"], 0),
        ),
        # Closed-form power sum vs the brute-force loop.
        IdentityDef(
            "faulhaber", "exact", (Param("n", bound="n_max"), _R),
            _per_case(lambda n, r: (exact.power_sum(n, r), sum(j**r for j in range(1, n + 1)))),
            {"n_max": 200, "r_max": 10},
        ),
        # Closed form vs gcd-filtered brute force.
        IdentityDef(
            "coprime-power-sum", "exact", (Param("n", minimum=2, bound="n_max"), _R),
            _per_case(lambda n, r: (
                exact.coprime_power_sum(n, r),
                sum(j**r for j in range(1, n + 1) if math.gcd(j, n) == 1),
            )),
            {"n_max": 200, "r_max": 8},
        ),
        # sum_{j<k} B_m(j/k) = B_m / k^(m-1).
        IdentityDef(
            "bernoulli-poly-sum", "exact", (_K, _M),
            _per_case(lambda k, m: (
                _bernoulli_poly_sum_direct(k, m), exact.bernoulli_number(m) / k ** (m - 1)
            )),
            {"k_max": 60, "m_max": 8},
        ),
    )
}
IDENTITY_TAGS: Tuple[str, ...] = tuple(_CATALOG)


def _lookup(tag: str) -> IdentityDef:
    if tag not in _CATALOG:
        raise ConfigError(f"unknown identity {tag!r}")
    return _CATALOG[tag]


def identity_mode(tag: str) -> str:
    return _lookup(tag).mode


def default_bounds(tag: str) -> Dict[str, int]:
    return dict(_lookup(tag).bounds)


# --- running cases ----------------------------------------------------------


def _check_tolerance(tolerance: float) -> None:
    if not (0 < tolerance <= averages.DEFAULT_TOLERANCE):
        raise ConfigError(
            f"tolerance may only be tightened below {averages.DEFAULT_TOLERANCE}, "
            f"got {tolerance}"
        )


_CAUGHT = (multivar.BudgetError, RuntimeError, OverflowError, ValueError)

_new_case = tuple.__new__  # (IdentityCase, fields), without NamedTuple.__new__'s frame


def _evaluate(ident: IdentityDef, lead, rests: Sequence[tuple], seed: int) -> List[tuple]:
    """The sides of each case of one run. When the run raises, each of its
    cases is evaluated as a batch of one, so a failure stays with the cases
    that cause it and its reason is the one the case gives alone."""
    try:
        return ident.evaluate(lead, rests, seed)
    except _CAUGHT as exc:
        if len(rests) == 1:
            return [(None, None, str(exc))]
        return [_evaluate(ident, lead, (rest,), seed)[0] for rest in rests]


class _Columns(NamedTuple):
    """One compared run, a column per field with a row per case."""

    lhs: Sequence
    rhs: Sequence
    reasons: Optional[Sequence[Optional[str]]]  # None when no case has a reason
    passed: Sequence[bool]
    errors: Optional[Sequence[Optional[float]]]  # abs_error; None in exact mode


def _compare(
    ident: IdentityDef, lead, rests: Sequence[tuple], tolerance: float, seed: int
) -> _Columns:
    """Validate one run, evaluate it and compare each of its cases once, as
    columns: == on the sides of an exact identity, averages.within_tolerance
    at `tolerance` on those of a tolerance one. A case with a reason fails;
    one that raised, (None, None, reason), has no abs_error."""
    _validate(ident, lead, rests)
    # Pairs and triples of sides as columns; a pair's reason is None.
    lhs, rhs, *reasons = zip_longest(*_evaluate(ident, lead, rests, seed))
    reasons = reasons[0] if reasons else None
    each_reason = repeat(None) if reasons is None else reasons
    if ident.mode == "exact":
        passed = [r is None and a == b for a, b, r in zip(lhs, rhs, each_reason)]
        return _Columns(lhs, rhs, reasons, passed, None)
    within = averages.within_tolerance
    passed = [r is None and within(a, b, tolerance) for a, b, r in zip(lhs, rhs, each_reason)]
    errors = [None if a is None else abs(a - b) for a, b in zip(lhs, rhs)]
    return _Columns(lhs, rhs, reasons, passed, errors)


def _render(
    ident: IdentityDef, lead, rests: Sequence[tuple], lhs, rhs, reasons, passed, errors
) -> List[IdentityCase]:
    """The IdentityCases of one run's columns as _compare gave them, or of
    the same rows of each column. Each case takes its passed flag and
    abs_error from the columns, so rendering never compares. The params
    are the leading value's text, rendered once, and a str.format template
    of the trailing values; the sides of a case that raised render as ""."""
    tag, mode, trailing = ident.tag, ident.mode, ident.trailing
    prefix = f"{ident.param_names[0]}={_fmt_value(lead)}"
    if tuple in map(type, rests[0]):  # validated: a column is all tuples or none
        rests = [tuple(map(_fmt_value, rest)) for rest in rests]
    fmt = _fmt_rational if mode == "exact" else _fmt_float
    if reasons is None:
        lhs, rhs, reasons = map(fmt, lhs), map(fmt, rhs), repeat(None)
    else:
        lhs = ["" if v is None else fmt(v) for v in lhs]
        rhs = ["" if v is None else fmt(v) for v in rhs]
    return list(map(_new_case, repeat(IdentityCase), zip(
        repeat(tag), map(prefix.__add__, starmap(trailing.format, rests)), repeat(mode),
        lhs, rhs, passed, repeat(None) if errors is None else errors, reasons,
    )))


def run_identity(
    tag: str,
    params: tuple,
    tolerance: float = averages.DEFAULT_TOLERANCE,
    seed: int = averages.DEFAULT_SEED,
) -> IdentityCase:
    """Evaluate one case, as a run of one. Schema violations raise
    ParamError and a loosened tolerance raises ConfigError; evaluator
    failures (budget, internal assertions) become failed cases instead.
    """
    _check_tolerance(tolerance)
    ident = _lookup(tag)
    if len(params) != len(ident.params):
        raise ParamError(
            f"{tag} expects parameters {ident.param_names}, got {len(params)} values"
        )
    lead, rests = params[0], (params[1:],)
    return _render(ident, lead, rests, *_compare(ident, lead, rests, tolerance, seed))[0]


# --- suites -----------------------------------------------------------------


@dataclass
class SuiteConfig:
    """What to sweep. Bounds left as None fall back to each identity's
    defaults (which are the acceptance grids)."""

    identities: Optional[List[str]] = None  # None = every identity
    k_max: Optional[int] = None
    r_max: Optional[int] = None
    m_max: Optional[int] = None
    n_max: Optional[int] = None
    tolerance: float = averages.DEFAULT_TOLERANCE
    seed: int = averages.DEFAULT_SEED
    keep_cases: bool = False


def _effective_bounds(ident: IdentityDef, config: SuiteConfig) -> Dict[str, int]:
    bounds = dict(ident.bounds)
    for name in ("k_max", "r_max", "m_max", "n_max"):
        override = getattr(config, name)
        if override is not None and name in bounds:
            bounds[name] = override
    return bounds


def _describe_bounds(tag: str, bounds: Dict[str, int]) -> str:
    inner = ",".join(f"{k}={v}" for k, v in sorted(bounds.items()))
    return f"{tag}[{inner}]"


def run_suite(config: SuiteConfig) -> VerificationReport:
    """Sweep the configured identities over their grids, in the order
    selected and ascending parameter order, and aggregate.

    Each grid is walked in runs of cases with equal params[0]. Each run is
    validated, evaluated and compared at once; every case is rendered when
    config.keep_cases is set, and only the failing ones otherwise. An
    empty or repeated selection raises ConfigError, and a grid bound above
    a parameter's cap raises ParamError before any grid is built.
    """
    start = time.perf_counter()
    _check_tolerance(config.tolerance)
    tags = list(IDENTITY_TAGS) if config.identities is None else list(config.identities)
    if not tags:
        raise ConfigError("no identity selected")
    repeated = sorted({tag for tag in tags if tags.count(tag) > 1})
    if repeated:
        raise ConfigError(f"identities selected more than once: {','.join(repeated)}")
    idents = [_lookup(tag) for tag in tags]

    bounds = [_effective_bounds(ident, config) for ident in idents]
    # A grid past a cap, or grids past the budget, are refused before any
    # grid is built or swept.
    for ident, b in zip(idents, bounds):
        for p in ident.params:
            if p.cap is not None and p.bound is not None and b[p.bound] > p.cap:
                raise ParamError(f"{p.name} must be <= {p.cap}")
    if sum(_grid_size(ident, b) for ident, b in zip(idents, bounds)) > GRID_BUDGET:
        raise ParamError(
            f"grids exceed the budget of {GRID_BUDGET} cases, a tuple case counted per modulus"
        )
    plans = [
        (ident, _grid(ident, b, config.seed), _describe_bounds(ident.tag, b))
        for ident, b in zip(idents, bounds)
    ]
    if not any(grid for _, grid, _ in plans):
        raise ConfigError(f"empty grid for identities {tags}")

    total = 0
    failures: List[IdentityCase] = []
    worst: Dict[str, float] = {}
    all_cases: Optional[List[IdentityCase]] = [] if config.keep_cases else None
    timings: Dict[str, Tuple[int, float]] = {}
    for ident, grid, _ in plans:
        tag = ident.tag
        identity_start = time.perf_counter()
        for lead, group in groupby(grid, key=itemgetter(0)):
            rests = [params[1:] for params in group]
            columns = _compare(ident, lead, rests, config.tolerance, config.seed)
            total += len(columns.passed)
            if columns.errors is not None:
                # A left fold from 0.0, as max() takes its arguments: a NaN
                # error never replaces the value.
                errors = [e for e in columns.errors if e is not None]
                if errors:
                    worst[tag] = max(worst.get(tag, 0.0), *errors)
            if all_cases is not None:
                cases = _render(ident, lead, rests, *columns)
                all_cases += cases
                if not all(columns.passed):
                    failures += [case for case in cases if not case[5]]  # passed
            elif not all(columns.passed):
                # Only the failing cases are rendered, from their rows of
                # each column.
                bad = [i for i, ok in enumerate(columns.passed) if not ok]
                failures += _render(ident, lead, [rests[i] for i in bad], *(
                    None if column is None else [column[i] for i in bad] for column in columns
                ))
        timings[tag] = (len(grid), time.perf_counter() - identity_start)

    # Keys in sweep order for byte-stable serialization.
    worst_ordered = {tag: worst[tag] for tag in tags if tag in worst}
    suite_name = "all" if config.identities is None else ",".join(tags)
    grid_text = "; ".join(describe for _, _, describe in plans)
    return VerificationReport(
        suite=suite_name,
        grid=grid_text + f"; seed={config.seed}; tolerance={config.tolerance:g}",
        total=total,
        passed=total - len(failures),
        failed=len(failures),
        worst_errors=worst_ordered,
        failures=failures,
        wall_time_seconds=time.perf_counter() - start,
        cases=all_cases,
        timings=timings,
    )
