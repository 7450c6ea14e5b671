"""Identity verification engine: sweeps, comparison modes, reports.

The catalog below is closed: each tag names exactly one evaluator pair
and one comparison mode (exact rational equality, or the mixed float
criterion |lhs - rhs| <= tol * (1 + max|side|)). The mode is owned here,
not by callers, so an exact identity can never be checked sloppily from
the command line.

A sweep never aborts on a failing or erroring case; errors are recorded
on the case and the report's exit status carries the overall verdict.
Reports are deterministic: cases are generated in ascending parameter
order, chunks are merged back in submission order, and the JSON body
(everything except wall_time_seconds) is byte-stable across reruns and
thread counts.
"""

from __future__ import annotations

import json
import math
import os
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from . import averages, exact, multivar
from .arith import euler_phi
from .ramanujan import ramanujan_sum, ramanujan_sum_float, ramanujan_sum_holder

__all__ = [
    "ConfigError",
    "ParamError",
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

CHUNK_SIZE = 1024


class ConfigError(ValueError):
    """Bad suite configuration (unknown identity, empty grid, tolerance)."""


class ParamError(ValueError):
    """Parameters violate an identity's schema."""


@dataclass(frozen=True)
class IdentityCase:
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
    for c in cases:
        writer.writerow(
            [
                c.identity,
                c.params,
                c.mode,
                c.lhs,
                c.rhs,
                "" if c.abs_error is None else f"{c.abs_error:.17g}",
                "true" if c.passed else "false",
            ]
        )
    return buf.getvalue()


# --- outcome helpers --------------------------------------------------------


def _fmt_rational(x: Union[int, Fraction]) -> str:
    # ints and Fractions are both already in lowest terms.
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def _fmt_value(v) -> str:
    if isinstance(v, tuple):
        return "|".join(str(x) for x in v)
    return str(v)


# (lhs, rhs, passed, abs_error, error): error is the reason a case failed
# when the two rendered sides alone do not show it.
_Outcome = Tuple[str, str, bool, Optional[float], Optional[str]]


def _exact_outcome(lhs, rhs) -> _Outcome:
    return _fmt_rational(lhs), _fmt_rational(rhs), lhs == rhs, None, None


def _float_outcome(pair: averages.FloatPair) -> _Outcome:
    return _fmt_float(pair.lhs), _fmt_float(pair.rhs), pair.ok, pair.abs_error, None


# --- the identity catalog ---------------------------------------------------


@dataclass(frozen=True)
class IdentityDef:
    tag: str
    mode: str  # "exact" | "tolerance"
    param_names: Tuple[str, ...]
    validate: Callable[[tuple], None]
    evaluate: Callable[[tuple, float, int], _Outcome]  # (params, tolerance, seed)
    grid: Callable[[dict, int], List[tuple]]  # (bounds, seed) -> ascending params
    bounds: Dict[str, int]  # default grid bounds


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParamError(msg)


def _positive_int(v, name: str) -> None:
    _require(isinstance(v, int) and v >= 1, f"{name} must be a positive integer, got {v!r}")


def _valid_tuple(v) -> None:
    _require(
        isinstance(v, tuple) and len(v) >= 1 and all(isinstance(x, int) and x >= 1 for x in v),
        f"ks must be a non-empty tuple of positive integers, got {v!r}",
    )


def _resolve_function(name, seed: int) -> averages.ArithmeticFunction:
    if name in averages.NAMED_FUNCTIONS:
        return averages.NAMED_FUNCTIONS[name]
    if isinstance(name, str) and name.startswith("rand") and name[4:].isdigit():
        return averages.random_function(int(name[4:]), seed)
    raise ParamError(f"unknown arithmetic function {name!r}")


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
    """Seeded coprime tuple pairs ((a_1..a_n), (b_1..b_n))."""
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


def _build_catalog() -> Dict[str, IdentityDef]:
    defs: List[IdentityDef] = []

    # prop1: power weight, exact
    def v_prop1(p):
        _positive_int(p[0], "k")
        _positive_int(p[1], "r")

    defs.append(
        IdentityDef(
            "prop1",
            "exact",
            ("k", "r"),
            v_prop1,
            lambda p, tol, seed: _exact_outcome(
                averages.s_r_direct(p[0], p[1]), averages.s_r_closed(p[0], p[1])
            ),
            lambda b, seed: [
                (k, r)
                for k in range(1, b["k_max"] + 1)
                for r in range(1, b["r_max"] + 1)
            ],
            {"k_max": 1000, "r_max": 10},
        )
    )

    # prop2: log weight, tolerance
    defs.append(
        IdentityDef(
            "prop2",
            "tolerance",
            ("k",),
            lambda p: _positive_int(p[0], "k"),
            lambda p, tol, seed: _float_outcome(averages.log_weighted_pair(p[0], tol)),
            lambda b, seed: [(k,) for k in range(1, b["k_max"] + 1)],
            {"k_max": 500},
        )
    )

    # prop3: gcd weight with arbitrary f, exact
    def v_prop3(p):
        _positive_int(p[0], "k")
        _resolve_function(p[1], 0)

    def e_prop3(p, tol, seed):
        f = _resolve_function(p[1], seed)
        pair = averages.gcd_weighted_pair(p[0], f)
        return _exact_outcome(pair.lhs, pair.rhs)

    def g_prop3(b, seed):
        names = list(averages.NAMED_FUNCTIONS) + [
            f"rand{i:02d}" for i in range(b["rand_count"])
        ]
        return [(k, name) for k in range(1, b["k_max"] + 1) for name in names]

    defs.append(
        IdentityDef(
            "prop3", "exact", ("k", "f"), v_prop3, e_prop3, g_prop3,
            {"k_max": 1000, "rand_count": 20},
        )
    )

    # prop3-corollary: the three stated specializations, exact
    _COROLLARY_RHS = {
        "id": lambda k: Fraction(euler_phi(k)) ** 2,
        "tau": lambda k: Fraction(euler_phi(k)),
        "sigma": lambda k: Fraction(k * euler_phi(k)),
    }

    def v_prop3c(p):
        _positive_int(p[0], "k")
        _require(p[1] in _COROLLARY_RHS, f"corollary f must be one of id/tau/sigma, got {p[1]!r}")

    def e_prop3c(p, tol, seed):
        pair = averages.gcd_weighted_pair(p[0], averages.NAMED_FUNCTIONS[p[1]])
        return _exact_outcome(pair.lhs, _COROLLARY_RHS[p[1]](p[0]))

    defs.append(
        IdentityDef(
            "prop3-corollary", "exact", ("k", "f"), v_prop3c, e_prop3c,
            lambda b, seed: [
                (k, name) for k in range(1, b["k_max"] + 1) for name in ("id", "tau", "sigma")
            ],
            {"k_max": 1000},
        )
    )

    # prop4: log-Gamma weight, tolerance, k > 1
    def v_prop4(p):
        _positive_int(p[0], "k")
        _require(p[0] >= 2, f"k must be >= 2, got {p[0]}")

    defs.append(
        IdentityDef(
            "prop4", "tolerance", ("k",), v_prop4,
            lambda p, tol, seed: _float_outcome(averages.gamma_weighted_pair(p[0], tol)),
            lambda b, seed: [(k,) for k in range(2, b["k_max"] + 1)],
            {"k_max": 500},
        )
    )

    # gamma-product: Gauss product in log scale, tolerance
    defs.append(
        IdentityDef(
            "gamma-product", "tolerance", ("n",),
            lambda p: _positive_int(p[0], "n"),
            lambda p, tol, seed: _float_outcome(averages.gamma_product_check(p[0], tol)),
            lambda b, seed: [(n,) for n in range(1, b["n_max"] + 1)],
            {"n_max": 500},
        )
    )

    # mobius-log, tolerance
    defs.append(
        IdentityDef(
            "mobius-log", "tolerance", ("k",),
            lambda p: _positive_int(p[0], "k"),
            lambda p, tol, seed: _float_outcome(averages.mobius_log_check(p[0], tol)),
            lambda b, seed: [(k,) for k in range(1, b["k_max"] + 1)],
            {"k_max": 500},
        )
    )

    # prop5-exact: binomial weight, both sides big integers
    def e_prop5(p, tol, seed):
        pair = averages.binomial_weighted_exact(p[0])
        return _exact_outcome(pair.lhs, pair.rhs)

    defs.append(
        IdentityDef(
            "prop5-exact", "exact", ("k",),
            lambda p: _positive_int(p[0], "k"),
            e_prop5,
            lambda b, seed: [(k,) for k in range(1, b["k_max"] + 1)],
            {"k_max": 200},
        )
    )

    # prop5-cosine: binomial weight vs cosine double sum, tolerance
    def v_prop5c(p):
        _positive_int(p[0], "k")
        _require(p[0] <= averages.COSINE_LIMIT, f"k must be <= {averages.COSINE_LIMIT}")

    defs.append(
        IdentityDef(
            "prop5-cosine", "tolerance", ("k",), v_prop5c,
            lambda p, tol, seed: _float_outcome(averages.binomial_weighted_cosine(p[0], tol)),
            lambda b, seed: [(k,) for k in range(1, b["k_max"] + 1)],
            {"k_max": 200},
        )
    )

    # prop6: Bernoulli polynomial weight, exact
    def v_prop6(p):
        _positive_int(p[0], "k")
        _positive_int(p[1], "m")

    def e_prop6(p, tol, seed):
        pair = averages.bernoulli_weighted_pair(p[0], p[1])
        return _exact_outcome(pair.lhs, pair.rhs)

    defs.append(
        IdentityDef(
            "prop6", "exact", ("k", "m"), v_prop6, e_prop6,
            lambda b, seed: [
                (k, m)
                for k in range(1, b["k_max"] + 1)
                for m in range(1, b["m_max"] + 1)
            ],
            {"k_max": 500, "m_max": 8},
        )
    )

    # inverse-dft, tolerance
    def v_dft(p):
        _positive_int(p[0], "k")
        _positive_int(p[1], "n")
        _require(p[0] <= averages.DFT_LIMIT, f"k must be <= {averages.DFT_LIMIT}")

    defs.append(
        IdentityDef(
            "inverse-dft", "tolerance", ("k", "n"), v_dft,
            lambda p, tol, seed: _float_outcome(averages.inverse_dft_check(p[0], p[1], tol)),
            lambda b, seed: [
                (k, n)
                for k in range(1, b["k_max"] + 1)
                for n in range(1, b["n_max"] + 1)
            ],
            {"k_max": 500, "n_max": 500},
        )
    )

    # prop7: multivariable power weight, exact
    def v_prop7(p):
        _valid_tuple(p[0])
        _positive_int(p[1], "r")

    defs.append(
        IdentityDef(
            "prop7", "exact", ("ks", "r"), v_prop7,
            lambda p, tol, seed: _exact_outcome(
                multivar.s_r_multi_direct(p[0], p[1]), multivar.s_r_multi_closed(p[0], p[1])
            ),
            lambda b, seed: [
                (t, r)
                for t in _tuple_grid(b["k_max"], b["n_max"])
                for r in range(1, b["r_max"] + 1)
            ],
            {"k_max": 40, "n_max": 3, "r_max": 5},
        )
    )

    # prop7-corollary (r = 1): S_1 = prod phi / (2k) + E/2, exact
    def e_prop7c(p, tol, seed):
        t = multivar.ModulusTuple(p[0])
        lhs = multivar.s_r_multi_direct(t, 1)
        rhs = Fraction(math.prod(euler_phi(k) for k in t.ks), 2 * t.lcm_value) + Fraction(
            multivar.orbicyclic_divisor(t), 2
        )
        return _exact_outcome(lhs, rhs)

    defs.append(
        IdentityDef(
            "prop7-corollary", "exact", ("ks",),
            lambda p: _valid_tuple(p[0]),
            e_prop7c,
            lambda b, seed: [(t,) for t in _tuple_grid(b["k_max"], b["n_max"])],
            {"k_max": 40, "n_max": 3},
        )
    )

    # e-integrality: direct E is a non-negative integer equal to the divisor form
    def e_eint(p, tol, seed):
        return _exact_outcome(
            multivar.orbicyclic_direct(p[0]), multivar.orbicyclic_divisor(p[0])
        )

    defs.append(
        IdentityDef(
            "e-integrality", "exact", ("ks",),
            lambda p: _valid_tuple(p[0]),
            e_eint,
            lambda b, seed: [(t,) for t in _tuple_grid(b["k_max"], b["n_max"])],
            {"k_max": 40, "n_max": 3},
        )
    )

    # e-multiplicativity on seeded coprime pairs
    def v_emult(p):
        _valid_tuple(p[0])
        _valid_tuple(p[1])
        _require(len(p[0]) == len(p[1]), "tuples must have equal arity")
        _require(
            math.gcd(math.prod(p[0]), math.prod(p[1])) == 1,
            f"tuples {p[0]} and {p[1]} are not coprime",
        )

    def e_emult(p, tol, seed):
        a, b = multivar.ModulusTuple(p[0]), multivar.ModulusTuple(p[1])
        combined = multivar.ModulusTuple(tuple(x * y for x, y in zip(a.ks, b.ks)))
        lhs = multivar.orbicyclic_divisor(combined)
        rhs = multivar.orbicyclic_divisor(a) * multivar.orbicyclic_divisor(b)
        return _exact_outcome(lhs, rhs)

    defs.append(
        IdentityDef(
            "e-multiplicativity", "exact", ("a", "b"), v_emult, e_emult,
            lambda b, seed: _coprime_pair_grid(b["pairs"], b["k_max"], b["n_max"], seed),
            {"k_max": 30, "n_max": 3, "pairs": 200},
        )
    )

    # cross-evaluator: divisor formula vs Holder vs rounded float definition
    def v_cross(p):
        _positive_int(p[0], "k")
        _require(isinstance(p[1], int) and p[1] >= 0, f"j must be a non-negative integer")

    def e_cross(p, tol, seed):
        k, j = p
        a = ramanujan_sum(k, j)
        b = ramanujan_sum_holder(k, j)
        f = ramanujan_sum_float(k, j)
        outcome = _exact_outcome(a, b)
        if round(f) == a and abs(f - a) <= 1e-6 * k:
            return outcome
        reason = f"float oracle {_fmt_float(f)} disagrees with the exact value {a}"
        return outcome[0], outcome[1], False, None, reason

    defs.append(
        IdentityDef(
            "cross-evaluator", "exact", ("k", "j"), v_cross, e_cross,
            lambda b, seed: [
                (k, j) for k in range(1, b["k_max"] + 1) for j in range(0, k + 1)
            ],
            {"k_max": 300},
        )
    )

    # half-sum: sum C(r+1, 2m) B_2m = (r+1)/2. True for r >= 1 only: at
    # r = 0 there is no B_1 term to absorb and the sum is B_0 = 1, so the
    # default grid starts at 1 (run_identity still accepts r = 0 and will
    # honestly report the mismatch).
    defs.append(
        IdentityDef(
            "half-sum", "exact", ("r",),
            lambda p: _require(isinstance(p[0], int) and p[0] >= 0, "r must be >= 0"),
            lambda p, tol, seed: _exact_outcome(
                exact.half_sum_check(p[0]), Fraction(p[0] + 1, 2)
            ),
            lambda b, seed: [(r,) for r in range(1, b["r_max"] + 1)],
            {"r_max": 40},
        )
    )

    # faulhaber: closed-form power sum vs the brute-force loop
    def v_faul(p):
        _positive_int(p[0], "n")
        _positive_int(p[1], "r")

    defs.append(
        IdentityDef(
            "faulhaber", "exact", ("n", "r"), v_faul,
            lambda p, tol, seed: _exact_outcome(
                exact.power_sum(p[0], p[1]), sum(j ** p[1] for j in range(1, p[0] + 1))
            ),
            lambda b, seed: [
                (n, r)
                for n in range(1, b["n_max"] + 1)
                for r in range(1, b["r_max"] + 1)
            ],
            {"n_max": 200, "r_max": 10},
        )
    )

    # coprime-power-sum: closed form vs gcd-filtered brute force, n >= 2
    def v_cps(p):
        _positive_int(p[0], "n")
        _require(p[0] >= 2, f"n must be >= 2, got {p[0]}")
        _positive_int(p[1], "r")

    defs.append(
        IdentityDef(
            "coprime-power-sum", "exact", ("n", "r"), v_cps,
            lambda p, tol, seed: _exact_outcome(
                exact.coprime_power_sum(p[0], p[1]),
                sum(j ** p[1] for j in range(1, p[0] + 1) if math.gcd(j, p[0]) == 1),
            ),
            lambda b, seed: [
                (n, r)
                for n in range(2, b["n_max"] + 1)
                for r in range(1, b["r_max"] + 1)
            ],
            {"n_max": 200, "r_max": 8},
        )
    )

    # bernoulli-poly-sum: sum_{j<k} B_m(j/k) = B_m / k^(m-1). The left side
    # evaluates every B_m(j/k) by integer Horner on k^m D B_m(j/k) (D
    # clears the Bernoulli denominators) and divides once at the end. It
    # stays a loop over j: exact.power_sum would be a closed form.
    def bps_direct(k, m):
        base, d = averages._bernoulli_poly_scaled(m)
        coeffs = [c * k**t for t, c in enumerate(base)]
        total = 0
        for j in range(k):
            acc = 0
            for c in coeffs:
                acc = acc * j + c
            total += acc
        return Fraction(total, d * k**m)

    def v_bps(p):
        _positive_int(p[0], "k")
        _positive_int(p[1], "m")

    defs.append(
        IdentityDef(
            "bernoulli-poly-sum", "exact", ("k", "m"), v_bps,
            lambda p, tol, seed: _exact_outcome(
                bps_direct(p[0], p[1]),
                exact.bernoulli_number(p[1]) / p[0] ** (p[1] - 1),
            ),
            lambda b, seed: [
                (k, m)
                for k in range(1, b["k_max"] + 1)
                for m in range(1, b["m_max"] + 1)
            ],
            {"k_max": 60, "m_max": 8},
        )
    )

    ordered = {}
    for d in defs:
        ordered[d.tag] = d
    return ordered


_CATALOG = _build_catalog()
IDENTITY_TAGS: Tuple[str, ...] = tuple(_CATALOG)


def identity_mode(tag: str) -> str:
    if tag not in _CATALOG:
        raise ConfigError(f"unknown identity {tag!r}")
    return _CATALOG[tag].mode


def default_bounds(tag: str) -> Dict[str, int]:
    if tag not in _CATALOG:
        raise ConfigError(f"unknown identity {tag!r}")
    return dict(_CATALOG[tag].bounds)


# --- running cases ----------------------------------------------------------


def _render_params(names: Sequence[str], values: tuple) -> str:
    return ",".join(f"{n}={_fmt_value(v)}" for n, v in zip(names, values))


def _check_tolerance(tolerance: float) -> None:
    if not (0 < tolerance <= averages.DEFAULT_TOLERANCE):
        raise ConfigError(
            f"tolerance may only be tightened below {averages.DEFAULT_TOLERANCE}, "
            f"got {tolerance}"
        )


def run_identity(
    tag: str,
    params: tuple,
    tolerance: float = averages.DEFAULT_TOLERANCE,
    seed: int = averages.DEFAULT_SEED,
) -> IdentityCase:
    """Evaluate one case. Schema violations raise ParamError and a loosened
    tolerance raises ConfigError; evaluator failures (budget, internal
    assertions) become failed cases instead."""
    _check_tolerance(tolerance)
    if tag not in _CATALOG:
        raise ConfigError(f"unknown identity {tag!r}")
    ident = _CATALOG[tag]
    if len(params) != len(ident.param_names):
        raise ParamError(
            f"{tag} expects parameters {ident.param_names}, got {len(params)} values"
        )
    ident.validate(params)
    rendered = _render_params(ident.param_names, params)
    try:
        lhs, rhs, passed, abs_error, error = ident.evaluate(params, tolerance, seed)
    except (multivar.BudgetError, RuntimeError, OverflowError, ValueError) as exc:
        return IdentityCase(tag, rendered, ident.mode, "", "", False, None, str(exc))
    return IdentityCase(
        tag,
        rendered,
        ident.mode,
        lhs,
        rhs,
        passed,
        abs_error if ident.mode == "tolerance" else None,
        error,
    )


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
    threads: int = 1  # 0 = auto
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


def _run_chunk(args):
    tag, chunk, tolerance, seed, keep_cases = args
    cases = [run_identity(tag, params, tolerance, seed) for params in chunk]
    passed = sum(1 for c in cases if c.passed)
    failures = [c for c in cases if not c.passed]
    worst = 0.0
    has_err = False
    for c in cases:
        if c.abs_error is not None:
            has_err = True
            if c.abs_error > worst:
                worst = c.abs_error
    return (
        len(cases),
        passed,
        failures,
        worst if has_err else None,
        cases if keep_cases else None,
    )


def run_suite(config: SuiteConfig) -> VerificationReport:
    """Sweep the configured identities over their grids and aggregate.

    The report is identical (except wall time) for any thread count: the
    grid is chunked in order and results are merged in submission order.
    """
    start = time.perf_counter()
    _check_tolerance(config.tolerance)
    tags = list(config.identities) if config.identities else list(IDENTITY_TAGS)
    for tag in tags:
        if tag not in _CATALOG:
            raise ConfigError(f"unknown identity {tag!r}")

    jobs = []
    grid_parts = []
    total_planned = 0
    for tag in tags:
        ident = _CATALOG[tag]
        bounds = _effective_bounds(ident, config)
        grid = ident.grid(bounds, config.seed)
        grid_parts.append(_describe_bounds(tag, bounds))
        total_planned += len(grid)
        for i in range(0, len(grid), CHUNK_SIZE):
            jobs.append(
                (tag, grid[i : i + CHUNK_SIZE], config.tolerance, config.seed, config.keep_cases)
            )
    if total_planned == 0:
        raise ConfigError(f"empty grid for identities {tags}")

    threads = config.threads if config.threads > 0 else (os.cpu_count() or 1)
    if threads == 1:
        results = [_run_chunk(job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_run_chunk, jobs))

    total = 0
    passed = 0
    failures: List[IdentityCase] = []
    worst: Dict[str, float] = {}
    all_cases: List[IdentityCase] = [] if config.keep_cases else None
    for job, (count, ok, fails, worst_err, cases) in zip(jobs, results):
        tag = job[0]
        total += count
        passed += ok
        failures.extend(fails)
        if worst_err is not None:
            worst[tag] = max(worst.get(tag, 0.0), worst_err)
        if cases is not None:
            all_cases.extend(cases)

    # Catalog-order keys for byte-stable serialization.
    worst_ordered = {tag: worst[tag] for tag in tags if tag in worst}
    suite_name = "all" if config.identities is None else ",".join(tags)
    return VerificationReport(
        suite=suite_name,
        grid="; ".join(grid_parts) + f"; seed={config.seed}; tolerance={config.tolerance:g}",
        total=total,
        passed=passed,
        failed=total - passed,
        worst_errors=worst_ordered,
        failures=failures,
        wall_time_seconds=time.perf_counter() - start,
        cases=all_cases,
    )
