"""Identity verification engine: sweeps, comparison modes, reports.

The catalog below is closed: each tag names exactly one evaluator and
one comparison mode (exact rational equality, or the mixed float criterion
within_tolerance at a tolerance no looser than DEFAULT_TOLERANCE).
Evaluators return side columns only and _compare compares them: the mode,
the criterion and the default tolerance are owned here, not by callers or
evaluators, so an exact identity can never be checked sloppily from the
command line.

Each identity declares its parameters once, as a schema (kind, minimum,
optional cap, grid bound). A default grid is the product of the
parameters' values (Param.values) and its size the product of their
counts (Param.count), except three that are spelled out: cross-evaluator's
(j <= k), e-multiplicativity's (coprime pairs drawn from the seed) and
half-sum's (from r = 1, while its schema admits r = 0 so that run_identity
reports that mismatch).

Evaluation goes by runs: cases of a grid that share their leading
parameter (k, or the tuple ks). _grid builds each grid as its runs, pairs
(leading value, trailing values of each case): a product grid builds the
product of its trailing parameters once and every run shares that list
(an empty parameter gives no runs), and a spelled-out grid gives its runs
itself, one per k for cross-evaluator, each a slice of one list of j, and
one per drawn pair for e-multiplicativity. An identity of one parameter
(prop2, prop4, gamma-product, mobius-log, prop5-exact, prop5-cosine,
prop7-corollary, e-integrality, half-sum) has no leading value: its grid
is one run, (None, [(v,), ...]), every case's value a trailing value, and
run_identity gives one of its cases the same shape. An identity's
evaluate takes the leading value, the trailing values of every case of
the run and the seed, and returns the run's side columns, (lhs, rhs) or
(lhs, rhs, reasons), each with a row per case (see _Evaluator); a float
side column may be a float64 array (inverse-dft's is). So a kernel shares
work across the run and returns the columns it computes (one read of the
power-sum table of (k,) for prop1 and prop6, and of phi(k) and the
Jordan totients for prop1's closed sides, of each tuple table for prop7
and of the FFT row per k for inverse-dft, one read of k's divisors,
gcd-class totals, mu(k/d) and phi(k) for every f of prop3 and
prop3-corollary; for cross-evaluator, the divisor and Holder forms once
per gcd class of the run and the float form from one FFT row per k); the
other identities evaluate case by case, their pairs gathered into the two
columns. If a run raises, each of its cases is evaluated alone, so a
failure stays with the cases that cause it, and the run's columns are
assembled from those runs of one. A one-parameter identity's run is its
whole grid, so a case of it that raises has every case of the grid
evaluated again, one at a time; a run that raises nowhere pays nothing.

Each caller checks what it is given, and only that. run_identity takes
its case from outside the program and checks it against the schema (one
validator, each value in order), raising the ParamError of its first bad
value. run_suite checks its own inputs: the selected tags, the tolerance
and each grid bound against its parameter's cap. The grids it then builds
hold only values of the schema, so their cases are not checked again;
tests check every case of every grid against the validator instead.

A run is compared once, over columns, and its text is rendered only when a
report is written. _compare evaluates the run and compares each case once
over the side columns the evaluator returns, so nothing transposes rows
into columns, giving a passed column and, in tolerance mode, an abs_error
column. A run is compared without a Python call per case: == mapped over
the lhs and rhs columns of an exact run; for a tolerance run, |lhs - rhs|
over float64 arrays gives the abs_error column and, with the same arrays,
the passed column by the rule of within_tolerance, evaluated over them.
The tolerance sides and the abs_error column stay float64 arrays from
there to the writer, except in a run with a reason or a raised case, whose
columns are lists, as its sides hold None. In such a run those cases fail,
and an exact one is compared case by case. run_suite tallies the counts
and the worst errors from the columns and renders only the failing cases,
from their rows of each column. It keeps no run: a caller that wants every
case (the CLI's CSV, the tests) passes a sink, which run_suite calls with
each run and its columns as soon as the run is compared. The params text
of a case is its run's prefix, the leading value's text rendered once per
run, and its trailing text, a str.format template of its trailing values,
rendered once per product grid, by _grid onto the trailing list its runs
share (_Trailing), once per cross-evaluator grid, whose runs hold slices
of that text, and once per run otherwise. A one-parameter run has no
prefix, and its text is rendered only for a report that shows its cases:
the CSV, or the failing rows of a JSON sweep. _side_texts gives the lhs
and rhs text of a run's columns or of their rows. A float column (a
tolerance side, or abs_error in the CSV) is formatted once per distinct
float64 bit pattern, not once per case (_fmt_floats): bits, not ==, since
0.0 and -0.0 render as "0" and "-0". A side column of a run with reasons,
which holds None for a case that raised, is formatted case by case.
cases_to_csv writes one run's rows from those text columns, its abs_error
and passed columns mapped to text, each row the ",".join of its fields.
The schema leaves one field that needs CSV quoting: a params field with a
leading value and trailing values, which holds the template's comma and is
always quoted; a one-parameter identity's, "k=5", holds none. No other
field can hold a ",", '"', "\\r" or "\\n": tags and modes are fixed words,
a parameter value renders as digits, "|", a named function, rand and ASCII
digits or a fixed choice, and a side or abs_error as str of an int or a
Fraction or as "{:.17g}" of a float (TestCsvQuoting holds the catalog to
this). _render, the only code that builds an IdentityCase, pairs the same
texts with the passed, abs_error and reason columns. Neither compares, so
a case reads the same whichever report shows it. run_identity compares and
renders its one case.

Before any grid is built, run_suite refuses a grid bound above a
parameter's cap, and counts the cases of every selected grid from its
bounds (no grid is built to count it), a case of moduli tuples once per
modulus it holds and a coprime pair also once per candidate its draw
filters: more than GRID_BUDGET in all raise ParamError, and none at all
ConfigError, as a count is 0 exactly when its grid is empty. It then
builds each grid when the sweep reaches its identity, and drops it before
it builds the next, so a sweep holds one grid at a time.

A sweep never aborts on a failing or erroring case; errors are recorded
on the case and the report's exit status carries the overall verdict.
Sweeps run serially. Reports are deterministic: a grid's cases come in
ascending parameter order, except e-multiplicativity's, which come in the
order the seeded draw gives them, and the JSON body (everything except
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
from functools import partial
from itertools import chain, combinations_with_replacement, repeat, starmap
from itertools import product as iter_product
from operator import add, eq
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from . import averages, exact, multivar
from .arith import euler_phi
from .ramanujan import ramanujan_sum_batch, ramanujan_sum_float_batch, ramanujan_sum_holder_batch

__all__ = [
    "DEFAULT_TOLERANCE",
    "within_tolerance",
    "ConfigError",
    "ParamError",
    "GRID_BUDGET",
    "IdentityCase",
    "VerificationReport",
    "SuiteConfig",
    "BOUNDS",
    "IDENTITY_TAGS",
    "run_identity",
    "run_suite",
    "report_to_json",
    "CSV_HEADER",
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
    # tag -> (cases, seconds) per identity, in sweep order, the seconds
    # counting the grid's build and the sink's; like the wall time, it is
    # not part of the body.
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


def report_to_json(report: VerificationReport) -> str:
    body = report.body_dict()
    body["wall_time_seconds"] = report.wall_time_seconds
    return json.dumps(body, indent=2)


# The CSV's first line, written before the rows of the first run.
CSV_HEADER = "identity,params,mode,lhs,rhs,abs_error,pass\n"


def cases_to_csv(ident: IdentityDef, lead, rests: Sequence[tuple], columns: _Columns) -> str:
    """The CSV rows of one run as run_suite gives it to its sink, one
    ",".join of its fields row after row, from text columns: the params
    and sides as _render renders them, abs_error to 17 significant digits
    ("" where there is none) and passed as true or false; a float column
    may be a list or a float64 array. The params field of a run with a
    leading value is quoted, as it holds the trailing template's comma; a
    one-parameter run's (lead None) and every other field are written as
    they are, since the schema lets no other field hold a ",", '"', "\\r"
    or "\\n" (see the module docstring; TestCsvQuoting holds the catalog
    to it). A one-parameter grid is one run, so its rows are one string."""
    lhs, rhs, reasons, passed, errors = columns
    params = _trailing_text(ident, rests)[1]
    if lead is not None:
        params = map(('"' + _prefix(ident, lead)).__add__, params)
    lhs, rhs = _side_texts(ident, lhs, rhs, reasons)
    if errors is None:
        errors = repeat("")
    elif reasons is None:  # every case has an abs_error
        errors = _fmt_floats(errors)
    else:
        errors = ["" if e is None else _fmt_float(e) for e in errors]
    # One ",".join over the run's fields, row after row, builds no string
    # per row: a pass field carries its row's newline and the identity
    # field of the next row, so every separator of the join is a comma.
    tag = ident.tag
    true, false = "true\n" + tag, "false\n" + tag
    flags = [true if ok else false for ok in passed]
    flags[-1] = "true\n" if passed[-1] else "false\n"
    return ",".join(chain((tag,), chain.from_iterable(zip(
        params, repeat(ident.mode), lhs, rhs, errors, flags,
    ))))


# --- outcome helpers --------------------------------------------------------


# str renders an int as its digits and a Fraction, always in lowest terms,
# as "n/d", or as "n" when d = 1; a C call per side.
_fmt_rational: Callable[[Union[int, Fraction]], str] = str


# f"{x:.17g}" as a bound C method, so rendering a float calls no Python
# function. A float column without reasons calls it through _fmt_floats,
# once per distinct value.
_fmt_float: Callable[[float], str] = "{:.17g}".format


def _fmt_floats(column: Sequence[float]) -> List[str]:
    """_fmt_float of each value of a float column, a list or a float64
    array, read with np.asarray, in order, each distinct value formatted
    once. Values are told apart by their float64 bits, not by ==, which
    would merge 0.0 and -0.0 (rendered "0" and "-0")."""
    column = np.asarray(column, np.float64)
    bits = column.view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = np.array(list(map(_fmt_float, distinct.view(np.float64).tolist())), object)
    return texts[inverse].tolist()


def _fmt_value(v) -> str:
    if isinstance(v, tuple):
        return "|".join(str(x) for x in v)
    return str(v)


# (leading value, trailing values of each case of the run, seed) -> the
# side columns of the run, each with a row per case: (lhs, rhs), or
# (lhs, rhs, reasons) for a run where some case fails for a reason its
# sides do not show (cross-evaluator's float oracle), reasons holding None
# for each case that has none. _evaluate gives a case that raised the
# sides None and the exception as its reason. _compare reads the columns
# as they come: nothing transposes rows into columns.
_SideColumns = Tuple[Sequence, ...]
_Evaluator = Callable[[object, Sequence[tuple], int], _SideColumns]


# --- the identity catalog ---------------------------------------------------


@dataclass(frozen=True)
class Param:
    """One parameter of an identity's schema.

    kind is "int" (an integer >= minimum and, when cap is set, <= cap),
    "moduli" (a non-empty tuple of positive integers), "coprime" (moduli
    of the leading tuple's arity whose product is coprime to its product),
    "function" (a named or seeded random arithmetic function) or "choice"
    (one of choices).
    bound names the grid bound of an "int" parameter, the one run_suite
    holds to cap before any grid is built, or the rand_count of a
    "function" one. values and count give the parameter's factor of a
    product grid.
    """

    name: str
    kind: str = "int"
    minimum: int = 1
    cap: Optional[int] = None
    bound: Optional[str] = None
    choices: Tuple[str, ...] = ()

    def values(self, bounds: Dict[str, int]) -> Sequence:
        """The grid's values, ascending: minimum..bound, the choices, the
        named functions then rand00.., or the multisets of k_max and n_max."""
        if self.kind == "moduli":
            return _tuple_grid(bounds["k_max"], bounds["n_max"])
        if self.kind == "choice":
            return self.choices
        if self.kind == "function":
            rands = (f"rand{i:02d}" for i in range(bounds[self.bound]))
            return [*averages.NAMED_FUNCTIONS, *rands]
        return range(self.minimum, bounds[self.bound] + 1)

    def count(self, bounds: Dict[str, int]) -> int:
        """len(values(bounds)), moduli counted once per modulus, without
        building them (see _multiset_moduli)."""
        if self.kind == "moduli":
            return _multiset_moduli(bounds["k_max"], bounds["n_max"])
        return len(self.values(bounds))


@dataclass(frozen=True)
class IdentityDef:
    tag: str
    mode: str  # "exact" | "tolerance"
    params: Tuple[Param, ...]
    evaluate: _Evaluator
    bounds: Dict[str, int]  # default grid bounds
    # (bounds, seed) -> the grid as _grid gives it, runs (leading value,
    # trailing values of each case), in ascending order except for drawn
    # grids (e-multiplicativity's, in the order of its seeded draw); None
    # means the product of the parameters' values.
    grid: Optional[Callable[[dict, int], List[Tuple[object, List[tuple]]]]] = None
    # bounds -> the cases of grid(bounds, seed), a case of moduli tuples
    # counted once per modulus it holds (or can hold, for drawn arities),
    # counted without building the grid; given with every grid.
    size: Optional[Callable[[dict], int]] = None
    param_names: Tuple[str, ...] = field(init=False)
    # The str.format template of a case's params text after its run's
    # prefix: ",name={}" per trailing parameter, or "name={}" for a
    # one-parameter identity, whose runs have no leading value.
    trailing: str = field(init=False)

    def __post_init__(self):
        names = tuple(p.name for p in self.params)
        object.__setattr__(self, "param_names", names)
        trailing = "".join(f",{name}={{}}" for name in names[1:]) or f"{names[0]}={{}}"
        object.__setattr__(self, "trailing", trailing)


# rand followed by one to nine ASCII digits: str.isdigit would also take
# other scripts' digits ("rand\u0663"), which int() reads but the report
# renders as given, and past 4,300 digits int() refuses the string.
_RANDOM_NAME = re.compile(r"rand([0-9]{1,9})")


def _is_function_name(v) -> bool:
    return isinstance(v, str) and (
        v in averages.NAMED_FUNCTIONS or _RANDOM_NAME.fullmatch(v) is not None
    )


def _resolve_function(name: str, seed: int) -> averages.ArithFn:
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


def _validate(ident: IdentityDef, params: tuple) -> None:
    """Check one case against the identity's schema, each value in order;
    raises the ParamError of the first bad value."""
    for p, v in zip(ident.params, params):
        _check_param(p, v, params[0])


# Cases of all the grids of one sweep, which run_suite counts before it
# builds any, a case of moduli tuples counted once per modulus it holds:
# 4x the largest default grid (inverse-dft, 250,000 cases), and above
# verify --all (604,001). A sweep holds one grid at a time. A counted case
# takes at most about 88 bytes of its grid, at the peak of the build and
# once built alike, under tracemalloc: a one-parameter identity's case, a
# 1-tuple of an int past the small-int cache in the grid's one run (prop2
# at k_max = 10^6: 88.4); cross-evaluator's about 25, its runs slices of
# one list; the runs of a product grid share one trailing list, so a case
# of a run of many takes a few bytes. So the budget bounds the grid a
# sweep holds to about 88 MB. A run is evaluated, compared and written
# whole, and a one-parameter grid is one run, so such a sweep also holds
# every column of its grid at once, and in CSV its text: mobius-log at
# k_max = 200,000 peaked at 125 MB RSS in JSON and 172 MB in CSV. A sweep
# keeps no run (a CSV is written run by run): only its failing cases,
# rendered, about 310 bytes each, so up to about 310 MB if every case fails.
GRID_BUDGET = 1_000_000


class _Trailing(list):
    """Trailing values whose text is rendered once for many runs: the one
    list that all runs of a product grid share, or a run's slice of
    cross-evaluator's list of j, never changed once built, with its text,
    the (text, closes) of _trailing_text, bound as the list is built."""

    __slots__ = ("text",)


def _one_run(values) -> List[tuple]:
    """The grid of a one-parameter identity: one run without a leading
    value, (None, [(v,) for each of values]), or no run if values is
    empty. Its text is rendered only when a report needs it."""
    cases = [(v,) for v in values]
    return [(None, cases)] if cases else []


def _grid(ident: IdentityDef, bounds: Dict[str, int], seed: int) -> List[tuple]:
    """The grid as runs (leading value, trailing values of each case):
    ident.grid's, in its order, or the product grid's, ascending. A
    one-parameter identity's is one run of every case (_one_run); the runs
    of any other share one _Trailing list of its trailing product, with the
    list's text rendered here. An empty parameter gives no runs."""
    if ident.grid is not None:
        return ident.grid(bounds, seed)
    if len(ident.params) == 1:
        return _one_run(ident.params[0].values(bounds))
    rests = _Trailing(iter_product(*(p.values(bounds) for p in ident.params[1:])))
    if not rests:
        return []
    rests.text = _trailing_text(ident, rests)
    return [(lead, rests) for lead in ident.params[0].values(bounds)]


def _grid_size(ident: IdentityDef, bounds: Dict[str, int]) -> int:
    """ident.size(bounds), or the product grid's length: exact up to
    GRID_BUDGET, and a number above GRID_BUDGET past it, counted without
    building anything."""
    if ident.size is not None:
        return ident.size(bounds)
    return math.prod(p.count(bounds) for p in ident.params)


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
    """Seeded coprime tuple pairs (a_1..a_n), (b_1..b_n), a run
    ((a_1..a_n), [((b_1..b_n),)]) per pair drawn; none without components
    or arities to draw from."""
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
        out.append((a, [(b,)]))
    return out


# Evaluators read averages.*, multivar.*, exact.* and the ramanujan_sum*
# names of this module when they are called, never when the catalog is
# built, so a patched attribute (a test's fault injection, a tracer's
# wrapper, the tautology guard's perturbations) is the one that runs.


def _per_case(fn: Callable[..., tuple]) -> _Evaluator:
    """The batch evaluator of an identity without a kernel: fn(*params), a
    pair, on each case of the run, fn(*rest) in a run without a leading
    value (a one-parameter identity's) and fn(lead, *rest) in any other,
    the pairs gathered into the lhs and rhs columns."""
    def evaluate(lead, rests, seed):
        case = fn if lead is None else partial(fn, lead)
        return tuple(zip(*starmap(case, rests)))
    return evaluate


def _prop1(k, rests, seed):
    """multivar's S_r of (k,): one power-sum table read for every r of the
    run, and one read of phi(k) and the Jordan totients for its closed sides."""
    rs = [r for r, in rests]
    return multivar.s_r_multi_direct_batch((k,), rs), averages.s_r_closed_batch(k, rs)


def _prop6(k, rests, seed):
    """One power-sum table read for every m of the run."""
    return averages.bernoulli_weighted_batch(k, [m for m, in rests])


def _inverse_dft(k, rests, seed):
    return averages.inverse_dft_batch(k, [n for n, in rests])


def _prop7(ks, rests, seed):
    """One read of each tuple table for the whole run."""
    rs = [r for r, in rests]
    return multivar.s_r_multi_direct_batch(ks, rs), multivar.s_r_multi_closed_batch(ks, rs)


def _prop3(k, rests, seed):
    """One read of k's divisors, class totals, mu(k/d) and phi(k) for
    every f of the run."""
    return averages.gcd_weighted_batch(k, [_resolve_function(name, seed) for name, in rests])


# The three stated specializations of prop3.
_COROLLARY_RHS = {
    "id": lambda k: euler_phi(k) ** 2,
    "tau": lambda k: euler_phi(k),
    "sigma": lambda k: k * euler_phi(k),
}


def _prop3_corollary(k, rests, seed):
    """prop3's kernel for the left sides; each stated closed form per case."""
    names = [name for name, in rests]
    lhs, _ = averages.gcd_weighted_batch(k, [averages.NAMED_FUNCTIONS[n] for n in names])
    return lhs, [_COROLLARY_RHS[n](k) for n in names]


def _prop7_corollary(ks):
    """S_1 = prod phi / (2k) + E/2."""
    lhs = multivar.s_r_multi_direct(ks, 1)
    rhs = Fraction(math.prod(euler_phi(k) for k in ks), 2 * math.lcm(*ks)) + Fraction(
        multivar.orbicyclic_divisor(ks), 2
    )
    return lhs, rhs


def _e_integrality(ks):
    """Direct E is a non-negative integer equal to the divisor form."""
    return multivar.orbicyclic_direct(ks), multivar.orbicyclic_divisor(ks)


def _cross_evaluator(k, rests, seed):
    """Divisor formula vs Holder form, with the rounded float definition
    as a third evaluator that fails a case by its reason; each evaluator
    takes the whole run. The oracle is checked once per case; round
    raises on a non-finite oracle, so _evaluate then takes the run one
    case at a time and that case fails with round's message."""
    js = [j for j, in rests]
    lhs = ramanujan_sum_batch(k, js)
    rhs = ramanujan_sum_holder_batch(k, js)
    bound = 1e-6 * k
    reasons = [
        None if round(f) == a and abs(f - a) <= bound
        else f"float oracle {_fmt_float(f)} disagrees with the exact value {a}"
        for a, f in zip(lhs, ramanujan_sum_float_batch(k, js))
    ]
    if any(reasons):
        return lhs, rhs, reasons
    return lhs, rhs


def _cross_evaluator_grid(b, seed):
    """A run per k = 1..k_max of the cases j = 0..k: slices of one
    _Trailing of j = 0..k_max, each holding its slice of that list's text,
    which is rendered once."""
    if b["k_max"] < 1:
        return []
    js = _Trailing((j,) for j in range(b["k_max"] + 1))
    text, closes = _trailing_text(_CATALOG["cross-evaluator"], js)
    runs = []
    for k in range(1, b["k_max"] + 1):
        rests = _Trailing(js[: k + 1])
        rests.text = text[: k + 1], closes[: k + 1]
        runs.append((k, rests))
    return runs


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


def _coprime_pair_size(b):
    """At most n_max moduli on each side of each pair, and the k_max
    candidates _coprime_pair_grid filters for each pair's b."""
    if b["k_max"] < 1 or b["n_max"] < 1:
        return 0
    return max(b["pairs"], 0) * (2 * b["n_max"] + b["k_max"])


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
            "prop3", "exact", (_K, Param("f", "function", bound="rand_count")), _prop3,
            {"k_max": 1000, "rand_count": 20},
        ),
        IdentityDef(
            "prop3-corollary", "exact",
            (_K, Param("f", "choice", choices=tuple(_COROLLARY_RHS))),
            _prop3_corollary,
            {"k_max": 1000},
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
        IdentityDef("prop7", "exact", (_KS, _R), _prop7, {"k_max": 40, "n_max": 3, "r_max": 5}),
        IdentityDef(
            "prop7-corollary", "exact", (_KS,), _per_case(_prop7_corollary),
            {"k_max": 40, "n_max": 3},
        ),
        IdentityDef(
            "e-integrality", "exact", (_KS,), _per_case(_e_integrality),
            {"k_max": 40, "n_max": 3},
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
            _cross_evaluator_grid,
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
            lambda b, seed: _one_run(range(1, b["r_max"] + 1)),
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


# --- running cases ----------------------------------------------------------


DEFAULT_TOLERANCE = 1e-8


def within_tolerance(lhs: float, rhs: float, tolerance: float) -> bool:
    """The mixed criterion of tolerance mode for one case: |lhs - rhs| <=
    tolerance * (1 + max|side|), which stays meaningful when a side is
    exactly zero. A NaN side never passes. _compare evaluates the same
    rule, in the same order, over a run's float64 columns."""
    return abs(lhs - rhs) <= tolerance * (1 + max(abs(lhs), abs(rhs)))


def _check_tolerance(tolerance: float) -> None:
    if not (0 < tolerance <= DEFAULT_TOLERANCE):
        raise ConfigError(
            f"tolerance may only be tightened below {DEFAULT_TOLERANCE}, "
            f"got {tolerance}"
        )


_CAUGHT = (multivar.BudgetError, RuntimeError, OverflowError, ValueError)


def _evaluate(ident: IdentityDef, lead, rests: Sequence[tuple], seed: int) -> _SideColumns:
    """The side columns of one run, as ident.evaluate gives them. When the
    run raises, each of its cases is evaluated as a run of one, so a
    failure stays with the cases that cause it and its reason is the one
    the case gives alone; the columns are then assembled from those runs
    of one, with a reasons column, as lists. A one-parameter identity's
    run is its whole grid, which is then evaluated again case by case."""
    try:
        return ident.evaluate(lead, rests, seed)
    except _CAUGHT as exc:
        if len(rests) == 1:
            return [None], [None], [str(exc)]
        singles = [_evaluate(ident, lead, (rest,), seed) for rest in rests]
        return (
            [single[0][0] for single in singles],
            [single[1][0] for single in singles],
            [single[2][0] if len(single) == 3 else None for single in singles],
        )


class _Columns(NamedTuple):
    """One compared run, a column per field with a row per case. The sides
    and abs_error of a tolerance run without reasons are float64 arrays;
    every other column is a sequence of Python values."""

    lhs: Sequence
    rhs: Sequence
    reasons: Optional[Sequence[Optional[str]]]  # None when no case has a reason
    passed: Sequence[bool]
    errors: Optional[Sequence[Optional[float]]]  # abs_error; None in exact mode


def _compare(
    ident: IdentityDef, lead, rests: Sequence[tuple], tolerance: float, seed: int
) -> _Columns:
    """Evaluate one run and compare each of its cases once, over the side
    columns the evaluator gives: == on the sides of an exact identity,
    within_tolerance's rule at `tolerance` on those of a tolerance one,
    over the sides read with np.asarray as float64 arrays, whose abs_error
    column is |lhs - rhs|. Without reasons the run's columns keep those
    three arrays; with them, the columns are lists: a case with a reason
    fails, and one that raised, with None sides, has no abs_error. The run
    is not checked against the schema: it comes from a grid, or from
    run_identity, which has checked its case."""
    lhs, rhs, *reasons = _evaluate(ident, lead, rests, seed)
    reasons = reasons[0] if reasons else None
    errors = None
    if ident.mode == "exact":
        if reasons is None:
            passed = list(map(eq, lhs, rhs))
        else:
            passed = [r is None and a == b for a, b, r in zip(lhs, rhs, reasons)]
    else:
        # float64 holds the None side of a case that raised as NaN. Like
        # Python's float -, the subtraction overflows to inf and gives NaN
        # for inf - inf without a warning.
        a, b = np.asarray(lhs, np.float64), np.asarray(rhs, np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            diff = np.abs(a - b)
        passed = (diff <= tolerance * (1 + np.maximum(np.abs(a), np.abs(b)))).tolist()
        if reasons is None:
            return _Columns(a, b, None, passed, diff)
        passed = [r is None and ok for r, ok in zip(reasons, passed)]
        errors = [None if v is None else e for v, e in zip(lhs, diff.tolist())]
    return _Columns(lhs, rhs, reasons, passed, errors)


def _rows(column, rows: List[int]):
    """The given rows of a column: an array's as an array, any other's as
    a list; None for no column."""
    if isinstance(column, np.ndarray):
        return column[rows]
    return None if column is None else [column[i] for i in rows]


def _prefix(ident: IdentityDef, lead) -> str:
    """The params text of a run's leading value, rendered once per run."""
    return f"{ident.param_names[0]}={_fmt_value(lead)}"


def _trailing_text(ident: IdentityDef, rests: Sequence[tuple]):
    """(text, closes) of each case of a run: ident.trailing.format of its
    trailing values, and its CSV params field after the run's opening:
    the same text with the '"' that closes the quoted field appended, or,
    for a one-parameter identity, whose field is not quoted, the text
    itself. No trailing value holds a '"' to escape (see cases_to_csv). A
    _Trailing list holds the text rendered as it was built; any other list
    is rendered on each call."""
    kept = getattr(rests, "text", None)
    if kept is not None:
        return kept
    values = rests
    if tuple in map(type, rests[0]):  # a trailing parameter is all tuples or none
        values = [tuple(map(_fmt_value, rest)) for rest in rests]
    text = list(starmap(ident.trailing.format, values))
    if len(ident.params) == 1:
        return text, text
    return text, list(map(add, text, repeat('"')))


def _side_texts(ident: IdentityDef, lhs, rhs, reasons):
    """The lhs and rhs text of each case of one run's columns, or of the
    same rows of each; the sides of a case that raised render as "". A
    float column without reasons goes through _fmt_floats; one with
    reasons holds None sides, so it is formatted case by case."""
    if reasons is not None:
        fmt = _fmt_rational if ident.mode == "exact" else _fmt_float
        return ["" if v is None else fmt(v) for v in lhs], ["" if v is None else fmt(v) for v in rhs]
    if ident.mode == "exact":
        return map(_fmt_rational, lhs), map(_fmt_rational, rhs)
    return _fmt_floats(lhs), _fmt_floats(rhs)


def _render(
    ident: IdentityDef, lead, rests: Sequence[tuple], lhs, rhs, reasons, passed, errors
) -> List[IdentityCase]:
    """The IdentityCases of one run's columns as _compare gave them, or of
    the same rows of each: the params from _trailing_text, after the run's
    _prefix when it has a leading value, the sides from _side_texts. Each
    case takes its passed flag and abs_error from the columns, so
    rendering never compares; an abs_error array gives plain floats."""
    params = _trailing_text(ident, rests)[0]
    if lead is not None:
        params = map(_prefix(ident, lead).__add__, params)
    lhs, rhs = _side_texts(ident, lhs, rhs, reasons)
    if isinstance(errors, np.ndarray):
        errors = errors.tolist()
    return list(map(
        IdentityCase, repeat(ident.tag), params, repeat(ident.mode), lhs, rhs, passed,
        repeat(None) if errors is None else errors, repeat(None) if reasons is None else reasons,
    ))


def run_identity(
    tag: str,
    params: tuple,
    tolerance: float = DEFAULT_TOLERANCE,
    seed: int = averages.DEFAULT_SEED,
) -> IdentityCase:
    """Evaluate one case, as a run of one, with no leading value for a
    one-parameter identity, as its grid's run has. Schema violations raise
    ParamError and a loosened tolerance raises ConfigError; evaluator
    failures (budget, internal assertions) become failed cases instead.
    The one caller of the schema check: its params come from outside.
    """
    _check_tolerance(tolerance)
    ident = _lookup(tag)
    if len(params) != len(ident.params):
        raise ParamError(
            f"{tag} expects parameters {ident.param_names}, got {len(params)} values"
        )
    _validate(ident, params)
    lead, rests = (None, (params,)) if len(params) == 1 else (params[0], (params[1:],))
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
    tolerance: float = DEFAULT_TOLERANCE
    seed: int = averages.DEFAULT_SEED


# The grid bounds a SuiteConfig may override, each a field of it and a CLI
# flag (--k-max, ...).
BOUNDS = ("k_max", "r_max", "m_max", "n_max")


def _effective_bounds(ident: IdentityDef, config: SuiteConfig) -> Dict[str, int]:
    bounds = dict(ident.bounds)
    for name in BOUNDS:
        override = getattr(config, name)
        if override is not None and name in bounds:
            bounds[name] = override
    return bounds


def _describe_bounds(tag: str, bounds: Dict[str, int]) -> str:
    inner = ",".join(f"{k}={v}" for k, v in sorted(bounds.items()))
    return f"{tag}[{inner}]"


# Called by run_suite with (identity, leading value, trailing values,
# _Columns) of each run, as soon as the run is compared.
_Sink = Callable[[IdentityDef, object, Sequence[tuple], _Columns], object]


def run_suite(config: SuiteConfig, sink: Optional[_Sink] = None) -> VerificationReport:
    """Sweep the configured identities over their grids, in the order
    selected and each grid's order (see IdentityDef.grid), and aggregate.

    Each identity's grid is built by _grid when the sweep reaches it,
    walked in its runs and dropped before the next grid is built. Each run
    is evaluated and compared at once, handed to sink when one is given
    (the CLI writes its CSV rows there, with cases_to_csv), and only its
    failing cases are rendered; no run is kept. Whatever sink raises ends
    the sweep. An unknown, empty or repeated selection, grids that are all
    empty, or a loosened tolerance, raises ConfigError; a grid bound above
    a parameter's cap, or grids past GRID_BUDGET, raise ParamError, all
    before any grid is built, so sink is never called on a refused sweep.
    The grids are built from the schema, so their cases are not checked
    again. Each identity's timing counts its grid's build.
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
    # A grid's count is 0 exactly when the grid is empty.
    size = sum(_grid_size(ident, b) for ident, b in zip(idents, bounds))
    if size > GRID_BUDGET:
        raise ParamError(
            f"grids exceed the budget of {GRID_BUDGET} cases, a tuple case counted per modulus"
            " and a coprime pair per candidate it filters"
        )
    if size == 0:
        raise ConfigError(f"empty grid for identities {tags}")

    total = 0
    failures: List[IdentityCase] = []
    worst: Dict[str, float] = {}
    timings: Dict[str, Tuple[int, float]] = {}
    for ident, b in zip(idents, bounds):
        tag = ident.tag
        identity_start = time.perf_counter()
        cases = 0
        # The grid lives as long as this loop: one grid at a time.
        for lead, rests in _grid(ident, b, config.seed):
            cases += len(rests)
            columns = _compare(ident, lead, rests, config.tolerance, config.seed)
            if sink is not None:
                sink(ident, lead, rests, columns)
            errors = columns.errors
            if errors is not None:
                # The largest error, a NaN never taking its place (fmax), as
                # max() from 0.0 folds its arguments. Only a case that
                # raised, in a run with reasons, has no error.
                if columns.reasons is not None:
                    errors = [e for e in errors if e is not None]
                if len(errors):
                    worst[tag] = float(np.fmax.reduce(errors, initial=worst.get(tag, 0.0)))
            if not all(columns.passed):
                # Only the failing cases are rendered, from their rows of
                # each column.
                bad = [i for i, ok in enumerate(columns.passed) if not ok]
                failures += _render(ident, lead, [rests[i] for i in bad], *(
                    _rows(column, bad) for column in columns
                ))
        total += cases
        timings[tag] = (cases, time.perf_counter() - identity_start)

    # Keys in sweep order for byte-stable serialization.
    worst_ordered = {tag: worst[tag] for tag in tags if tag in worst}
    suite_name = "all" if config.identities is None else ",".join(tags)
    grid_text = "; ".join(_describe_bounds(ident.tag, b) for ident, b in zip(idents, bounds))
    return VerificationReport(
        suite=suite_name,
        grid=grid_text + f"; seed={config.seed}; tolerance={config.tolerance:g}",
        total=total,
        passed=total - len(failures),
        failed=len(failures),
        worst_errors=worst_ordered,
        failures=failures,
        wall_time_seconds=time.perf_counter() - start,
        timings=timings,
    )
