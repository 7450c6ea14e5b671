"""Products of Ramanujan sums over several moduli: the orbicyclic average
E(k_1..k_n), the auxiliary divisor sums g_m, and the multivariable power
weighted average with its closed form over one denominator.

    E(k_1..k_n)   = (1/k) sum_{j=1}^{k} c_{k_1}(j) ... c_{k_n}(j)
                  = sum over divisor tuples of
                        prod_i d_i mu(k_i/d_i) / lcm(d_1..d_n)
    g_m(k_1..k_n) = same divisor sum with lcm(d_1..d_n)^(2m-1) instead
    S_r(k_1..k_n) = (1/k^(r+1)) sum_{j=1}^{k} j^r c_{k_1}(j) ... c_{k_n}(j)

with k = lcm(k_1..k_n) throughout. The moduli are a plain sequence: each
public function checks them once with _moduli, which gives the tuple of
int moduli that the private functions, caches and tables take, and each
function that needs k computes it from that tuple.

Direct sums run over one period of at most ramanujan.ROW_BUDGET entries,
the budget of a single row c_k(0..k) too, so every modulus of a period
within it has its row. An object row (below) is charged
_OBJECT_ENTRY_BYTES per entry against the ROW_BUDGET * 8 bytes of the
largest int64 row. The divisor lattice is folded over at most
DIVISOR_TUPLE_BUDGET tuples. All three raise BudgetError (the one class of
ramanujan) before allocating anything.

Each side is built one way. The direct side is one period of the product
row, one ndarray multiplied by one period of c_{k_i} at a time: int64 when
its own first entry c(0) = prod_i c_{k_i}(0) bounds it below 2^62, object
(Python ints) otherwise; it reads no phi. The divisor side is built prime
by prime. Each summand prod_i d_i mu(k_i/d_i) is multiplicative in the
tuple, and lcm(d_i) is too, so k E and g_m are Euler products of local
factors, one per prime p of the moduli. At p, with a_i = v_p(k_i) and
A = max a_i, only b_i = v_p(d_i) in {a_i, a_i - 1} count, and the local
divisor sum has just two keys, max b_i = A and A - 1 (_local_weights).
The local factors are cached by p and the sorted exponents, so no divisor
lattice is enumerated, and any tuple that factorize accepts (moduli up
to 2^40) has a divisor side; E, g_m and the closed S_r read it.

The multiplicativity check alone still folds the lattice (_divisor_terms,
_lattice_weights): one modulus at a time, aggregating by lcm and dropping
zero coefficients after each step, never prime by prime. An E built from
local factors would satisfy E(ab) = E(a) E(b) by construction, so that
check would compare a value with itself; and the product tuples' periods
are too long for the direct side.

Each tuple's product row and weights are built once per sweep in catalog
order, where each identity asks for its largest r first; a later request
for a larger r rebuilds the row. Two per-tuple tables, keyed by ks and
bounded by lru_cache at 1 << 14 tuples, hold only bigints:

    _power_sum_table   T_r = sum_{j=1}^{k} j^r prod_i c_{k_i}(j), r = 0..top,
                       from one product row and one ladder in r (carried
                       31-bit int64 limbs, linear in r, or plain Python
                       ints on an object row), and rebuilt to a larger top
                       when a caller asks for one;
    _weight_table      k E, g_1, g_2, ... as products of the local factors
                       of _local_table, extended on demand like them.

E (from T_0 and from k E), S_r and g_m read them. The S_r of a tuple (k,)
is the direct side of averages' power weight (s_r_direct, prop1), and
averages' Bernoulli weight (prop6) reads the table of (k,). The tables hold
k E, not E, so both integrality checks run at every read and their
RuntimeError is never cached. A refusal (a BudgetError, or factorize's
ValueError past 2^40) is raised before anything is stored, so a table is
either empty or complete up to its top; a tuple that is refused gets no
table at all (the table's lookup applies the check), so it evicts none. A
table of top R holds R + 1 integers of at most log2(prod phi(k_i)) +
(R + 1) log2(k) + 1 bits. verify --all fills 13,300 power-sum tables (the
12,340 tuples of the multivariable grid and the moduli 41..1000 of prop1),
about 5.4 MB by sys.getsizeof, and 12,340 weight tables, about 2.9 MB, from
110 local tables of at most 3 factors, about 32 kB, keys included. No sweep
re-reads a product row, so _product_row keeps one: at most
ROW_BUDGET entries, 80 MB as int64, where its earlier 64 rows could
take 5.1 GB. An object row holds one Python int per entry, and each rung of
its ladder makes another: E with S_1 and S_2 peaked at 56-80 bytes per
entry over one period of 10^6 entries, so it is admitted up to
ROW_BUDGET / 10 entries.

Single-component tuples go through exactly the same code paths as n >= 2;
their agreement with the single-variable closed forms is asserted by
tests, not assumed here.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .arith import divisors, euler_phi, factorize, mobius
from .exact import power_sum_closed
from .ramanujan import ROW_BUDGET, BudgetError, ramanujan_row

__all__ = [
    "BudgetError",
    "DIVISOR_TUPLE_BUDGET",
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
# Peak bytes per entry of an object row's E, S_1 and S_2, measured by RSS.
_OBJECT_ENTRY_BYTES = 80

_INT64_SAFE = 1 << 62
_MASK31 = (1 << 31) - 1


def _modulus(k) -> int:
    """k as an int: bool and non-integral values are refused, numpy integers pass."""
    if isinstance(k, bool):
        raise ValueError(f"moduli must be integers, got {k!r}")
    try:
        return operator.index(k)
    except TypeError:
        raise ValueError(f"moduli must be integers, got {k!r}") from None


def _moduli(ks: Sequence[int]) -> Tuple[int, ...]:
    """ks as a non-empty tuple of positive int moduli, each checked by
    _modulus. Every public function checks its moduli here once; the
    private ones take the tuple it returns."""
    ks = tuple(map(_modulus, ks))
    if not ks:
        raise ValueError("moduli must hold at least one modulus")
    if any(k < 1 for k in ks):
        raise ValueError(f"moduli must be positive, got {ks}")
    return ks


# --- direct side: one period of the product row ----------------------------


def _row_bound(ks: Tuple[int, ...], length: int) -> int:
    """The element bound of the product row of the moduli ks, of period
    length = lcm(ks): its own c(0) = prod_i c_{k_i}(0), read from the rows
    of c_{k_i}, once the period budget admits the row. A period past
    ROW_BUDGET entries (the default grids peak at 57,720), or an object row
    (a bound past int64) past ROW_BUDGET * 8 bytes, raises BudgetError
    first."""
    if length > ROW_BUDGET:
        raise BudgetError(f"period lcm{ks} = {length} exceeds {ROW_BUDGET}")
    bound = math.prod(ramanujan_row(k)[0] for k in ks)
    if bound >= _INT64_SAFE and length * _OBJECT_ENTRY_BYTES > ROW_BUDGET * 8:
        raise BudgetError(
            f"object row lcm{ks} = {length} entries at {_OBJECT_ENTRY_BYTES} bytes each"
            f" exceeds {ROW_BUDGET * 8} bytes"
        )
    return bound


@lru_cache(maxsize=1)
def _product_row(ks: Tuple[int, ...]):
    """(values, element_bound) for c_{k_1}(j) ... c_{k_n}(j), j = 1..lcm(ks).

    The element bound is _row_bound's, which budgets the row before it is
    allocated. Values are one ndarray, multiplied one period of c_{k_i} at
    a time: int64 when the bound provably fits, otherwise object (Python
    ints).
    """
    length = math.lcm(*ks)
    bound = _row_bound(ks, length)
    bases = [ramanujan_row(k) for k in ks]  # base[0] == base[k] == c_k(0)
    row = np.ones(length, dtype=np.int64 if bound < _INT64_SAFE else object)
    for k, base in zip(ks, bases):
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


def _power_sums(ks: Tuple[int, ...], top: int) -> List[int]:
    """T_r = sum_{j=1}^{k} j^r c_{k_1}(j) ... c_{k_n}(j) for r = 0..top at
    least: a literal sum over one period. A table short of top is rebuilt
    from one product row and one ladder in r; it is replaced only once the
    new one is complete."""
    table = _power_sum_table(ks)
    if len(table) <= top:
        values, bound = _product_row(ks)
        table[:] = _weighted_power_sums(values, top, bound)
    return table


def orbicyclic_direct(ks: Sequence[int]) -> int:
    """E by the defining average; must come out a non-negative integer."""
    ks = _moduli(ks)
    k = math.lcm(*ks)
    total = _power_sums(ks, 0)[0]
    if total % k:
        raise RuntimeError(f"E{ks} is non-integral: {total}/{k}")
    result = total // k
    if result < 0:
        raise RuntimeError(f"E{ks} is negative: {result}")
    return result


# --- divisor side: local terms prime by prime ------------------------------


@lru_cache(maxsize=1 << 14)
def _local_table(p: int, exps: Tuple[int, ...]) -> List[int]:
    """The local factors at the prime p of k g_0 = k E, g_1, g_2, ... for a
    tuple whose exponents of p are exps (ascending, each at least 1), as far
    as _local_weights has extended them."""
    return []


def _local_weights(p: int, exps: Tuple[int, ...], top: int) -> List[int]:
    """The local factors at p of k g_0 and g_1..g_top at least.

    At p only b_i in {a_i, a_i - 1} have mu(p^(a_i - b_i)) != 0, so with
    A = max a_i the local divisor sum has two keys, max b_i = A and A - 1:
    c_(A-1) = prod_{a_i = A} (-p^(A-1)) prod_{a_i < A} phi(p^(a_i)), and
    c_A = prod_i phi(p^(a_i)) - c_(A-1). Its local k E is c_A + c_(A-1) p,
    and its local g_m (m >= 1) is (c_A p^(2m-1) + c_(A-1)) p^((2m-1)(A-1)).
    The table is extended only once every missing factor is computed.
    """
    table = _local_table(p, exps)
    if len(table) <= top:
        high = exps[-1]
        c_low = math.prod(-(p ** (a - 1)) if a == high else p**a - p ** (a - 1) for a in exps)
        c_high = math.prod(p**a - p ** (a - 1) for a in exps) - c_low
        table += [
            c_high + c_low * p
            if m == 0
            else (c_high * p ** (2 * m - 1) + c_low) * p ** ((2 * m - 1) * (high - 1))
            for m in range(len(table), top + 1)
        ]
    return table


@lru_cache(maxsize=1 << 14)
def _weight_table(ks: Tuple[int, ...]) -> List[int]:
    """k g_0 = k E, g_1, g_2, ... of the tuple ks as far as _weights has
    extended them. A new entry is made only for a tuple whose moduli
    factorize admits: a refused one raises here, and lru_cache stores
    nothing for a call that raises, so it cannot evict a built table."""
    for k in ks:
        factorize(k)
    return []


def _euler_products(ks: Tuple[int, ...], low: int, top: int) -> List[int]:
    """k g_0 (when low is 0) and g_low..g_top as products over the primes
    of ks of their local factors."""
    exponents: Dict[int, List[int]] = {}
    for k in ks:
        for p, a in factorize(k):
            exponents.setdefault(p, []).append(a)
    factors = [_local_weights(p, tuple(sorted(a)), top) for p, a in exponents.items()]
    return [math.prod(local[m] for local in factors) for m in range(low, top + 1)]


def _weights(ks: Tuple[int, ...], top: int) -> List[int]:
    """k g_0 and g_1..g_top at least, prime by prime: each missing weight
    is a product of local factors, never a sum over the product row or the
    divisor lattice. The table is extended only once every missing weight
    is computed."""
    table = _weight_table(ks)
    if len(table) <= top:
        table += _euler_products(ks, len(table), top)
    return table


# --- the divisor lattice, folded for the multiplicativity check -------------


@lru_cache(maxsize=256)
def _divisor_terms(ks: Tuple[int, ...]) -> Tuple[Tuple[int, int], ...]:
    """Divisor-lattice terms aggregated by lcm: pairs (lcm(d_i), coefficient)
    with coefficient = sum of prod_i d_i mu(k_i/d_i) over tuples sharing
    that lcm, and never 0. The lattice is folded one modulus at a time:
    each (lcm, coefficient) so far is multiplied by every (d, d mu(k_i/d))
    with mu(k_i/d) != 0, and the products are aggregated by lcm again.
    _lattice_weights reads it only once the lattice budget admits the tuple.
    """
    terms = {1: 1}
    for k in ks:
        folded: Dict[int, int] = {}
        for d in divisors(k):
            w = d * mobius(k // d)
            if w:
                for lc, coef in terms.items():
                    key = math.lcm(lc, d)
                    folded[key] = folded.get(key, 0) + coef * w
        terms = {lc: coef for lc, coef in folded.items() if coef}
    return tuple(sorted(terms.items()))


def _lattice_weights(ks: Tuple[int, ...], top: int) -> List[int]:
    """k g_0 and g_1..g_top by folding the divisor lattice, which never
    factors prime by prime: each weight is a sum over the lattice terms.
    A lattice of more than DIVISOR_TUPLE_BUDGET tuples raises BudgetError
    before it is folded."""
    budget = math.prod(len(divisors(k)) for k in ks)
    if budget > DIVISOR_TUPLE_BUDGET:
        raise BudgetError(f"divisor-tuple count {budget} for {ks} exceeds {DIVISOR_TUPLE_BUDGET}")
    terms = _divisor_terms(ks)
    k = math.lcm(*ks)
    return [
        sum(coef * (k // lc if m == 0 else lc ** (2 * m - 1)) for lc, coef in terms)
        for m in range(top + 1)
    ]


def _divisor_e(ks: Tuple[int, ...], weights: Sequence[int]) -> int:
    """E = (k g_0) / k from a weight table; integrality is asserted."""
    k = math.lcm(*ks)
    if weights[0] % k:
        raise RuntimeError(f"divisor form of E{ks} is non-integral")
    return weights[0] // k


def orbicyclic_divisor(ks: Sequence[int]) -> int:
    """E by the divisor representation, prime by prime; integrality is
    asserted."""
    ks = _moduli(ks)
    return _divisor_e(ks, _weights(ks, 0))


def g_m(ks: Sequence[int], m: int) -> Fraction:
    """Divisor sum with weight lcm(d_1..d_n)^(2m-1); g_0 recovers E.

    No integrality is asserted: the value is reported as an exact
    rational and callers decide what to expect of it.
    """
    ks = _moduli(ks)
    if m < 0:
        raise ValueError(f"g_m requires m >= 0, got {m}")
    weight = _weights(ks, m)[m]
    return Fraction(weight, math.lcm(*ks)) if m == 0 else Fraction(weight)


# --- the multivariable weighted average -------------------------------------


def s_r_multi_direct_batch(ks: Sequence[int], rs: Sequence[int]) -> List[Fraction]:
    """S_r(k_1..k_n) for every r in rs, from the defining sum over one
    period: T_r read from the tuple's power-sum table."""
    ks = _moduli(ks)
    for r in rs:
        if r < 1:
            raise ValueError(f"s_r_multi_direct_batch requires r >= 1, got {r}")
    totals = _power_sums(ks, max(rs, default=0))
    k = math.lcm(*ks)
    return [Fraction(totals[r], k ** (r + 1)) for r in rs]


def s_r_multi_direct(ks: Sequence[int], r: int) -> Fraction:
    """S_r(k_1..k_n) from the defining sum over one period."""
    return s_r_multi_direct_batch(ks, (r,))[0]


def s_r_multi_closed_batch(ks: Sequence[int], rs: Sequence[int]) -> List[Fraction]:
    """S_r(k_1..k_n) for every r in rs by exact.power_sum_closed, with
    integer weights E = g_0 and g_m read from the tuple's weight table:

        prod_i phi(k_i) / (2k) + 1/(r+1) * sum_{m=0}^{floor(r/2)}
            C(r+1, 2m) (B_{2m} / k^(2m)) g_m(k_1..k_n).
    """
    ks = _moduli(ks)
    for r in rs:
        if r < 1:
            raise ValueError(f"s_r_multi_closed_batch requires r >= 1, got {r}")
    table = _weights(ks, max(rs, default=0) // 2)
    weights = [_divisor_e(ks, table), *table[1:]]
    lead = math.prod(euler_phi(ki) for ki in ks)
    k = math.lcm(*ks)
    return [power_sum_closed(k, r, lead, weights[: r // 2 + 1]) for r in rs]


def s_r_multi_closed(ks: Sequence[int], r: int) -> Fraction:
    """S_r(k_1..k_n) by its closed form; see s_r_multi_closed_batch."""
    return s_r_multi_closed_batch(ks, (r,))[0]


def multiplicativity_sides(a: Sequence[int], b: Sequence[int]) -> Tuple[int, int]:
    """(E(a_1 b_1, ..., a_n b_n), E(a) E(b)) for coprime tuples.

    Requires equal arity and gcd(prod a_i, prod b_i) = 1. Each E is folded
    from its divisor lattice (_lattice_weights), which never factors prime
    by prime: an E built from local factors would make the two sides equal
    by construction, and the product tuples' periods are too long for the
    direct side.
    """
    a = _moduli(a)
    b = _moduli(b)
    if len(a) != len(b):
        raise ValueError(f"arity mismatch: {a} vs {b}")
    if math.gcd(math.prod(a), math.prod(b)) != 1:
        raise ValueError(f"tuples {a} and {b} are not coprime")
    combined = tuple(x * y for x, y in zip(a, b))
    e_ab, e_a, e_b = (_divisor_e(ks, _lattice_weights(ks, 0)) for ks in (combined, a, b))
    return e_ab, e_a * e_b
