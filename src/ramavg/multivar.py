"""Products of Ramanujan sums over several moduli: the orbicyclic average
E(k_1..k_n), the auxiliary divisor sums g_m, and the multivariable power
weighted average with its closed form over one denominator.

    E(k_1..k_n)   = (1/k) sum_{j=1}^{k} c_{k_1}(j) ... c_{k_n}(j)
                  = sum over divisor tuples of
                        prod_i d_i mu(k_i/d_i) / lcm(d_1..d_n)
    g_m(k_1..k_n) = same divisor sum with lcm(d_1..d_n)^(2m-1) instead
    S_r(k_1..k_n) = (1/k^(r+1)) sum_{j=1}^{k} j^r c_{k_1}(j) ... c_{k_n}(j)

with k = lcm(k_1..k_n) throughout. Direct sums run over one period of at
most PERIOD_BUDGET entries and divisor sums over at most DIVISOR_TUPLE_BUDGET
tuples; both raise BudgetError (the one class of ramanujan, which bounds
single rows by ROW_BUDGET) before allocating anything.

Single-component tuples go through exactly the same code paths as n >= 2;
their agreement with the single-variable module is asserted by tests, not
assumed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from .arith import divisors, euler_phi, mobius
from .exact import power_sum_closed
from .ramanujan import BudgetError, ramanujan_row

__all__ = [
    "BudgetError",
    "DIVISOR_TUPLE_BUDGET",
    "PERIOD_BUDGET",
    "ModulusTuple",
    "orbicyclic_direct",
    "orbicyclic_divisor",
    "g_m",
    "s_r_multi_direct",
    "s_r_multi_closed",
    "multiplicativity_sides",
    "multiplicativity_check",
]

DIVISOR_TUPLE_BUDGET = 10**7
PERIOD_BUDGET = 10**7  # entries of one product row; the default grids peak at 57,720

_INT64_SAFE = 1 << 62
_MASK31 = (1 << 31) - 1


@dataclass(frozen=True)
class ModulusTuple:
    """A non-empty tuple of moduli together with their lcm."""

    ks: Tuple[int, ...]
    lcm_value: int = field(init=False)

    def __post_init__(self):
        ks = tuple(int(k) for k in self.ks)
        if not ks:
            raise ValueError("ModulusTuple requires at least one modulus")
        if any(k < 1 for k in ks):
            raise ValueError(f"moduli must be positive, got {ks}")
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "lcm_value", math.lcm(*ks))

    @property
    def n(self) -> int:
        return len(self.ks)


def _as_tuple(t: Union[ModulusTuple, Sequence[int]]) -> ModulusTuple:
    return t if isinstance(t, ModulusTuple) else ModulusTuple(tuple(t))


# --- direct side: one period of the product row ----------------------------


@lru_cache(maxsize=64)
def _product_row(t: ModulusTuple):
    """(values, element_bound) for c_{k_1}(j) ... c_{k_n}(j), j = 1..lcm.

    Values are an int64 ndarray when the magnitudes provably fit (the
    element bound is prod phi(k_i)); otherwise a plain Python list.
    """
    length = t.lcm_value
    if length > PERIOD_BUDGET:
        raise BudgetError(f"period lcm{t.ks} = {length} exceeds {PERIOD_BUDGET}")
    bound = math.prod(euler_phi(k) for k in t.ks)
    if bound < _INT64_SAFE:
        row = np.ones(length, dtype=np.int64)
        for k in t.ks:
            base = np.array(ramanujan_row(k).values[1:], dtype=np.int64)
            row *= np.tile(base, length // k)
        return row, bound
    values = [1] * length
    for k in t.ks:
        base = ramanujan_row(k).values  # base[0] == base[k] == phi(k)
        for j in range(length):
            values[j] *= base[(j + 1) % k]
    return values, bound


def _exact_int64_sum(arr: np.ndarray, bound: int, length: int) -> int:
    """Exact sum of an int64 array whose entries are bounded by `bound`."""
    if bound * length < _INT64_SAFE:
        return int(arr.sum())
    hi = _exact_int64_sum(arr >> 31, (bound >> 31) + 1, length)
    return (hi << 31) + int((arr & _MASK31).sum())


def _weighted_power_sum(values, r: int, bound: int) -> int:
    """Exact sum_{j=1}^{L} j^r values[j-1], for ndarray or list input.

    The ndarray path stays in int64 by splitting any staged product into
    31-bit halves before it could overflow; every intermediate is bounded
    and the final per-piece sums are reassembled as Python integers.
    """
    if isinstance(values, list):
        return sum(j**r * v for j, v in enumerate(values, start=1))
    length = len(values)
    j = np.arange(1, length + 1, dtype=np.int64)
    entries = [(1, values, bound)]
    for _ in range(r):
        nxt = []
        for w, arr, b in entries:
            if b * length >= _INT64_SAFE:
                nxt.append((w << 31, (arr >> 31) * j, ((b >> 31) + 1) * length))
                nxt.append((w, (arr & _MASK31) * j, (_MASK31 + 1) * length))
            else:
                nxt.append((w, arr * j, b * length))
        entries = nxt
    return sum(w * _exact_int64_sum(arr, b, length) for w, arr, b in entries)


def orbicyclic_direct(t) -> int:
    """E by the defining average; must come out a non-negative integer."""
    t = _as_tuple(t)
    values, bound = _product_row(t)
    total = _weighted_power_sum(values, 0, bound)
    if total % t.lcm_value:
        raise RuntimeError(f"E{t.ks} is non-integral: {total}/{t.lcm_value}")
    result = total // t.lcm_value
    if result < 0:
        raise RuntimeError(f"E{t.ks} is negative: {result}")
    return result


# --- divisor side: lattice enumeration -------------------------------------


@lru_cache(maxsize=256)
def _divisor_terms(t: ModulusTuple) -> Tuple[Tuple[int, int], ...]:
    """Divisor-lattice terms aggregated by lcm: pairs (lcm(d_i), coefficient)
    with coefficient = sum of prod_i d_i mu(k_i/d_i) over tuples sharing
    that lcm. Zero-Mobius entries drop out before enumeration.
    """
    budget = math.prod(len(divisors(k)) for k in t.ks)
    if budget > DIVISOR_TUPLE_BUDGET:
        raise BudgetError(
            f"divisor-tuple count {budget} for {t.ks} exceeds {DIVISOR_TUPLE_BUDGET}"
        )
    per_component: List[List[Tuple[int, int]]] = []
    for k in t.ks:
        entries = []
        for d in divisors(k):
            mu_kd = mobius(k // d)
            if mu_kd:
                entries.append((d, d * mu_kd))
        per_component.append(entries)
    agg: Dict[int, int] = {}
    for combo in iter_product(*per_component):
        coef = 1
        lc = 1
        for d, w in combo:
            coef *= w
            lc = lc * d // math.gcd(lc, d)
        agg[lc] = agg.get(lc, 0) + coef
    return tuple(sorted(agg.items()))


def orbicyclic_divisor(t) -> int:
    """E by the divisor-lattice representation; integrality is asserted."""
    t = _as_tuple(t)
    total = 0
    for lc, coef in _divisor_terms(t):
        total += coef * (t.lcm_value // lc)
    if total % t.lcm_value:
        raise RuntimeError(f"divisor form of E{t.ks} is non-integral")
    return total // t.lcm_value


def g_m(t, m: int) -> Fraction:
    """Divisor sum with weight lcm(d_1..d_n)^(2m-1); g_0 recovers E.

    No integrality is asserted: the value is reported as an exact
    rational and callers decide what to expect of it.
    """
    t = _as_tuple(t)
    if m < 0:
        raise ValueError(f"g_m requires m >= 0, got {m}")
    terms = _divisor_terms(t)
    if m == 0:
        total = sum(coef * (t.lcm_value // lc) for lc, coef in terms)
        return Fraction(total, t.lcm_value)
    return Fraction(sum(coef * lc ** (2 * m - 1) for lc, coef in terms))


# --- the multivariable weighted average -------------------------------------


def s_r_multi_direct(t, r: int) -> Fraction:
    """S_r(k_1..k_n) from the defining sum over one period."""
    t = _as_tuple(t)
    if r < 1:
        raise ValueError(f"s_r_multi_direct requires r >= 1, got {r}")
    values, bound = _product_row(t)
    total = _weighted_power_sum(values, r, bound)
    return Fraction(total, t.lcm_value ** (r + 1))


def s_r_multi_closed(t, r: int) -> Fraction:
    """S_r(k_1..k_n) by exact.power_sum_closed, with integer weights E = g_0 and g_m:

        prod_i phi(k_i) / (2k) + 1/(r+1) * sum_{m=0}^{floor(r/2)}
            C(r+1, 2m) (B_{2m} / k^(2m)) g_m(k_1..k_n).
    """
    t = _as_tuple(t)
    if r < 1:
        raise ValueError(f"s_r_multi_closed requires r >= 1, got {r}")
    weights = [orbicyclic_divisor(t)] + [g_m(t, m).numerator for m in range(1, r // 2 + 1)]
    return power_sum_closed(t.lcm_value, r, math.prod(euler_phi(ki) for ki in t.ks), weights)


def multiplicativity_sides(a, b) -> Tuple[int, int]:
    """(E(a_1 b_1, ..., a_n b_n), E(a) E(b)) for coprime tuples.

    Requires equal arity and gcd(prod a_i, prod b_i) = 1; evaluation uses
    the divisor representation so componentwise products stay affordable.
    """
    a = _as_tuple(a)
    b = _as_tuple(b)
    if a.n != b.n:
        raise ValueError(f"arity mismatch: {a.ks} vs {b.ks}")
    if math.gcd(math.prod(a.ks), math.prod(b.ks)) != 1:
        raise ValueError(f"tuples {a.ks} and {b.ks} are not coprime")
    combined = ModulusTuple(tuple(x * y for x, y in zip(a.ks, b.ks)))
    return orbicyclic_divisor(combined), orbicyclic_divisor(a) * orbicyclic_divisor(b)


def multiplicativity_check(a, b) -> bool:
    """Whether E(a_1 b_1, ..., a_n b_n) = E(a) E(b) for coprime tuples."""
    lhs, rhs = multiplicativity_sides(a, b)
    return lhs == rhs
