"""Products of Ramanujan sums over several moduli: the orbicyclic average
E(k_1..k_n), the auxiliary divisor sums g_m, and the multivariable power
weighted average with its closed form over one denominator.

    E(k_1..k_n)   = (1/k) sum_{j=1}^{k} c_{k_1}(j) ... c_{k_n}(j)
                  = sum over divisor tuples of
                        prod_i d_i mu(k_i/d_i) / lcm(d_1..d_n)
    g_m(k_1..k_n) = same divisor sum with lcm(d_1..d_n)^(2m-1) instead
    S_r(k_1..k_n) = (1/k^(r+1)) sum_{j=1}^{k} j^r c_{k_1}(j) ... c_{k_n}(j)

with k = lcm(k_1..k_n) throughout. Direct sums run over one period of at
most PERIOD_BUDGET entries, and an object row (below) is charged
_OBJECT_ENTRY_BYTES per entry against the PERIOD_BUDGET * 8 bytes of the
largest int64 row. Divisor sums run over at most DIVISOR_TUPLE_BUDGET
tuples. All three raise BudgetError (the one class of ramanujan, which
bounds single rows by ROW_BUDGET) before allocating anything.

Each side is built one way. The direct side is one period of the product
row, one ndarray multiplied by one period of c_{k_i} at a time: int64 when
its own first entry c(0) = prod_i c_{k_i}(0) bounds it below 2^62, object
(Python ints) otherwise; it reads no phi. The divisor side folds the lattice
one modulus at a time, aggregating by lcm and dropping zero coefficients
after each step; it enumerates the lattice and never factors prime by prime.

Each tuple's product row and divisor lattice are built once per sweep in
catalog order, where each identity asks for its largest r first; a later
request for a larger r rebuilds the row. Two per-tuple tables, keyed by ks and
bounded by lru_cache at 1 << 14 tuples, hold only bigints:

    _power_sum_table   T_r = sum_{j=1}^{k} j^r prod_i c_{k_i}(j), r = 0..top,
                       from one product row and one ladder in r (carried
                       31-bit int64 limbs, linear in r, or plain Python
                       ints on an object row), and rebuilt to a larger top
                       when a caller asks for one;
    _weight_table      k E, g_1, g_2, ... from one divisor lattice, extended
                       on demand.

E (from T_0 and from k E), S_r and g_m read them. The S_r of a tuple (k,)
is the direct side of averages' power weight (s_r_direct, prop1), and
averages' Bernoulli weight (prop6) reads the table of (k,). The tables hold
k E, not E, so both integrality checks run at every read and their
RuntimeError is never cached. A BudgetError is raised before anything is
stored, so a table is either empty or complete up to its top; a tuple that
a budget refuses gets no table at all (the table's lookup applies the
budget), so it evicts none. A table of top R holds R + 1 integers of at
most log2(prod phi(k_i)) + (R + 1) log2(k) + 1 bits. verify --all fills
13,300 power-sum tables (the 12,340 tuples of the multivariable grid and
the moduli 41..1000 of prop1) and 12,664 weight tables, about 6.8 MB
together. No sweep re-reads a product row, so _product_row keeps one: at
most PERIOD_BUDGET entries, 80 MB as int64, where its earlier 64 rows could
take 5.1 GB. An object row holds one Python int per entry, and each rung of
its ladder makes another: E with S_1 and S_2 peaked at 56-80 bytes per
entry over one period of 10^6 entries, so it is admitted up to
PERIOD_BUDGET / 10 entries.

Single-component tuples go through exactly the same code paths as n >= 2;
their agreement with the single-variable closed forms is asserted by
tests, not assumed here.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
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
    "s_r_multi_direct_batch",
    "s_r_multi_closed",
    "s_r_multi_closed_batch",
    "multiplicativity_sides",
]

DIVISOR_TUPLE_BUDGET = 10**7
PERIOD_BUDGET = 10**7  # entries of one product row; the default grids peak at 57,720
# Peak bytes per entry of an object row's E, S_1 and S_2, measured by RSS.
_OBJECT_ENTRY_BYTES = 80

_INT64_SAFE = 1 << 62
_MASK31 = (1 << 31) - 1


@dataclass(frozen=True)
class ModulusTuple:
    """A non-empty tuple of moduli together with their lcm."""

    ks: Tuple[int, ...]
    lcm_value: int = field(init=False)

    def __post_init__(self):
        ks = tuple(map(_modulus, self.ks))
        if not ks:
            raise ValueError("ModulusTuple requires at least one modulus")
        if any(k < 1 for k in ks):
            raise ValueError(f"moduli must be positive, got {ks}")
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "lcm_value", math.lcm(*ks))

    @property
    def n(self) -> int:
        return len(self.ks)


def _modulus(k) -> int:
    """k as an int: bool and non-integral values are refused, numpy integers pass."""
    if isinstance(k, bool):
        raise ValueError(f"moduli must be integers, got {k!r}")
    try:
        return operator.index(k)
    except TypeError:
        raise ValueError(f"moduli must be integers, got {k!r}") from None


def _as_tuple(t: Union[ModulusTuple, Sequence[int]]) -> ModulusTuple:
    return t if isinstance(t, ModulusTuple) else ModulusTuple(tuple(t))


# --- direct side: one period of the product row ----------------------------


def _row_bound(ks: Tuple[int, ...], length: int) -> int:
    """The element bound of the product row of the moduli ks, of period
    length = lcm(ks): its own c(0) = prod_i c_{k_i}(0), read from the rows
    of c_{k_i}, once the period budget admits the row. A period past
    PERIOD_BUDGET entries, or an object row (a bound past int64) past
    PERIOD_BUDGET * 8 bytes, raises BudgetError first."""
    if length > PERIOD_BUDGET:
        raise BudgetError(f"period lcm{ks} = {length} exceeds {PERIOD_BUDGET}")
    bound = math.prod(ramanujan_row(k).values[0] for k in ks)
    if bound >= _INT64_SAFE and length * _OBJECT_ENTRY_BYTES > PERIOD_BUDGET * 8:
        raise BudgetError(
            f"object row lcm{ks} = {length} entries at {_OBJECT_ENTRY_BYTES} bytes each"
            f" exceeds {PERIOD_BUDGET * 8} bytes"
        )
    return bound


@lru_cache(maxsize=1)
def _product_row(t: ModulusTuple):
    """(values, element_bound) for c_{k_1}(j) ... c_{k_n}(j), j = 1..lcm.

    The element bound is _row_bound's, which budgets the row before it is
    allocated. Values are one ndarray, multiplied one period of c_{k_i} at
    a time: int64 when the bound provably fits, otherwise object (Python
    ints).
    """
    bound = _row_bound(t.ks, t.lcm_value)
    bases = [ramanujan_row(k).values for k in t.ks]  # base[0] == base[k] == c_k(0)
    row = np.ones(t.lcm_value, dtype=np.int64 if bound < _INT64_SAFE else object)
    for k, base in zip(t.ks, bases):
        periods = row.reshape(-1, k)  # a view: one period of c_k per line
        periods *= base[1:]
    return row, bound


def _exact_int64_sum(arr: np.ndarray, bound: int, length: int) -> int:
    """Exact sum of an int64 array whose entries are bounded by `bound`."""
    if bound * length < _INT64_SAFE:
        return int(arr.sum())
    hi = _exact_int64_sum(arr >> 31, (bound >> 31) + 1, length)
    return (hi << 31) + int((arr & _MASK31).sum())


def _weighted_power_sums(values: np.ndarray, top: int, bound: int) -> List[int]:
    """Exact sum_{j=1}^{L} j^r values[j-1] for r = 0..top.

    One ladder carries the staged products values[j-1] j^r from r to r + 1.
    An object row (Python ints) multiplies and sums them plainly. An int64
    row (L < 2^30) stays in int64: it holds them as 31-bit limbs,
    sum_i limbs[i] << 31 i, all bounded by one bound, and carries only
    when the next multiply by j could overflow (bound L >= 2^62). A carry
    leaves every limb in [0, 2^31) but a new top limb of at most
    2^31 + 2, so the limbs grow by one about every 31 / log2(L) steps,
    linearly in r. Their column sums are reassembled as Python integers.
    """
    sums = []
    length = len(values)
    j = np.arange(1, length + 1, dtype=np.int64)
    if values.dtype == object:
        for r in range(top + 1):
            if r:
                values = values * j
            sums.append(int(values.sum()))
        return sums
    limbs = [values]
    for r in range(top + 1):
        if r:
            if bound * length >= _INT64_SAFE:
                carry = 0  # at most (bound >> 31) + 3 <= 2^31 + 2 in magnitude
                for i, limb in enumerate(limbs):
                    limb = limb + carry
                    carry = limb >> 31
                    limbs[i] = limb & _MASK31
                limbs.append(carry)
                bound = _MASK31 + 3
            limbs = [limb * j for limb in limbs]
            bound *= length
        sums.append(sum(_exact_int64_sum(x, bound, length) << 31 * i for i, x in enumerate(limbs)))
    return sums


@lru_cache(maxsize=1 << 14)
def _power_sum_table(ks: Tuple[int, ...]) -> List[int]:
    """T_0, T_1, ... of the tuple ks as far as _power_sums has built them.
    A new entry is made only for a tuple the period budget admits: a
    refused one raises here, and lru_cache stores nothing for a call that
    raises, so it cannot evict a built table."""
    _row_bound(ks, math.lcm(*ks))
    return []


def _power_sums(t: ModulusTuple, top: int) -> List[int]:
    """T_r = sum_{j=1}^{k} j^r c_{k_1}(j) ... c_{k_n}(j) for r = 0..top at
    least: a literal sum over one period. A table short of top is rebuilt
    from one product row and one ladder in r; it is replaced only once the
    new one is complete."""
    table = _power_sum_table(t.ks)
    if len(table) <= top:
        values, bound = _product_row(t)
        table[:] = _weighted_power_sums(values, top, bound)
    return table


def orbicyclic_direct(t) -> int:
    """E by the defining average; must come out a non-negative integer."""
    t = _as_tuple(t)
    total = _power_sums(t, 0)[0]
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
    that lcm, and never 0. The lattice is folded one modulus at a time:
    each (lcm, coefficient) so far is multiplied by every (d, d mu(k_i/d))
    with mu(k_i/d) != 0, and the products are aggregated by lcm again.
    _weights reads it only for a tuple whose _weight_table entry, and so
    the lattice budget, admitted it.
    """
    terms = {1: 1}
    for k in t.ks:
        folded: Dict[int, int] = {}
        for d in divisors(k):
            w = d * mobius(k // d)
            if w:
                for lc, coef in terms.items():
                    key = math.lcm(lc, d)
                    folded[key] = folded.get(key, 0) + coef * w
        terms = {lc: coef for lc, coef in folded.items() if coef}
    return tuple(sorted(terms.items()))


@lru_cache(maxsize=1 << 14)
def _weight_table(ks: Tuple[int, ...]) -> List[int]:
    """k g_0 = k E, g_1, g_2, ... of the tuple ks as far as _weights has
    extended them. A new entry is made only for a tuple whose divisor
    lattice holds at most DIVISOR_TUPLE_BUDGET tuples: a refused one raises
    here, and lru_cache stores nothing for a call that raises, so it cannot
    evict a built table."""
    budget = math.prod(len(divisors(k)) for k in ks)
    if budget > DIVISOR_TUPLE_BUDGET:
        raise BudgetError(f"divisor-tuple count {budget} for {ks} exceeds {DIVISOR_TUPLE_BUDGET}")
    return []


def _weights(t: ModulusTuple, top: int) -> List[int]:
    """k g_0 and g_1..g_top at least, from one divisor lattice: each missing
    weight is a sum over the lattice terms, never over the product row. The
    table is extended only once every missing weight is computed."""
    table = _weight_table(t.ks)
    if len(table) <= top:
        terms = _divisor_terms(t)
        table += [
            sum(coef * (t.lcm_value // lc if m == 0 else lc ** (2 * m - 1)) for lc, coef in terms)
            for m in range(len(table), top + 1)
        ]
    return table


def _divisor_e(t: ModulusTuple, weights: Sequence[int]) -> int:
    """E = (k g_0) / k from a weight table; integrality is asserted."""
    if weights[0] % t.lcm_value:
        raise RuntimeError(f"divisor form of E{t.ks} is non-integral")
    return weights[0] // t.lcm_value


def orbicyclic_divisor(t) -> int:
    """E by the divisor-lattice representation; integrality is asserted."""
    t = _as_tuple(t)
    return _divisor_e(t, _weights(t, 0))


def g_m(t, m: int) -> Fraction:
    """Divisor sum with weight lcm(d_1..d_n)^(2m-1); g_0 recovers E.

    No integrality is asserted: the value is reported as an exact
    rational and callers decide what to expect of it.
    """
    t = _as_tuple(t)
    if m < 0:
        raise ValueError(f"g_m requires m >= 0, got {m}")
    weight = _weights(t, m)[m]
    return Fraction(weight, t.lcm_value) if m == 0 else Fraction(weight)


# --- the multivariable weighted average -------------------------------------


def s_r_multi_direct_batch(t, rs: Sequence[int]) -> List[Fraction]:
    """S_r(k_1..k_n) for every r in rs, from the defining sum over one
    period: T_r read from the tuple's power-sum table."""
    t = _as_tuple(t)
    for r in rs:
        if r < 1:
            raise ValueError(f"s_r_multi_direct_batch requires r >= 1, got {r}")
    totals = _power_sums(t, max(rs, default=0))
    return [Fraction(totals[r], t.lcm_value ** (r + 1)) for r in rs]


def s_r_multi_direct(t, r: int) -> Fraction:
    """S_r(k_1..k_n) from the defining sum over one period."""
    return s_r_multi_direct_batch(t, (r,))[0]


def s_r_multi_closed_batch(t, rs: Sequence[int]) -> List[Fraction]:
    """S_r(k_1..k_n) for every r in rs by exact.power_sum_closed, with
    integer weights E = g_0 and g_m read from the tuple's weight table:

        prod_i phi(k_i) / (2k) + 1/(r+1) * sum_{m=0}^{floor(r/2)}
            C(r+1, 2m) (B_{2m} / k^(2m)) g_m(k_1..k_n).
    """
    t = _as_tuple(t)
    for r in rs:
        if r < 1:
            raise ValueError(f"s_r_multi_closed_batch requires r >= 1, got {r}")
    table = _weights(t, max(rs, default=0) // 2)
    weights = [_divisor_e(t, table), *table[1:]]
    lead = math.prod(euler_phi(ki) for ki in t.ks)
    return [power_sum_closed(t.lcm_value, r, lead, weights[: r // 2 + 1]) for r in rs]


def s_r_multi_closed(t, r: int) -> Fraction:
    """S_r(k_1..k_n) by its closed form; see s_r_multi_closed_batch."""
    return s_r_multi_closed_batch(t, (r,))[0]


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
