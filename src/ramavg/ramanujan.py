"""Ramanujan sums c_k(j), evaluated three independent ways.

    divisor formula   c_k(j) = sum_{d | gcd(k, j)} d mu(k/d)
    Holder form       c_k(j) = phi(k) mu(k/g) / phi(k/g),  g = gcd(k, j)
    definition        c_k(j) = sum over m coprime to k of exp(2 pi i m j / k)

The first two are exact integer arithmetic and are what the identity
evaluators consume. The float definitional sum exists purely as a test
oracle and is never used inside an identity evaluation path. It is
computed as one inverse FFT per modulus of the indicator of the residues
coprime to k, which gives the definitional sum at every j mod k at once;
it reads no divisors, Mobius values or phi, so it stays independent of
the other two.

Each evaluator has a batch form over the js of one modulus,
(k, js) -> values, and its scalar name is the batch of one case. The two
exact forms depend on j only through g = gcd(k, j), so their batches
evaluate the same formula once per gcd class; the float batch reads the
FFT row of k once.

A row c_k(0..k) is refused with BudgetError before it is allocated when
k exceeds ROW_BUDGET.

j is an arbitrary integer everywhere: every batch reduces each j itself
(to gcd(k, j), or to j mod k for the FFT row), and j = 0 falls under
gcd(k, 0) = k, giving c_k(0) = phi(k). That convention matters because
two of the weighted averages sum from j = 0.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import repeat
from typing import List, Sequence, Tuple

import numpy as np

from .arith import divisors, euler_phi, mobius

__all__ = [
    "ramanujan_sum",
    "ramanujan_sum_batch",
    "ramanujan_sum_holder",
    "ramanujan_sum_holder_batch",
    "ramanujan_sum_float",
    "ramanujan_sum_float_batch",
    "ramanujan_row",
    "FLOAT_EVAL_LIMIT",
    "ROW_BUDGET",
    "BudgetError",
]

# Beyond this k the definitional float sum accumulates too much error to
# be a trustworthy oracle.
FLOAT_EVAL_LIMIT = 10**5
# Largest k of a row c_k(0..k). Not below multivar.PERIOD_BUDGET, so every
# modulus of a product row within that budget has its row. A k past it is
# refused here, or, for the S_r direct side of (k,) (averages.s_r_direct,
# verify's prop1), by the period budget of multivar._row_bound first, which
# multivar._power_sum_table applies before any row is read.
ROW_BUDGET = 10**7


class BudgetError(RuntimeError):
    """A row, a period row or a divisor-tuple enumeration would exceed its budget."""


def _gcd_classes(k: int, js: Sequence[int]) -> List[int]:
    """g = gcd(k, j mod k) for each j: math.gcd reduces j itself, any
    integer j, and gcd(k, 0) = k."""
    return list(map(math.gcd, repeat(k), js))


def ramanujan_sum_batch(k: int, js: Sequence[int]) -> List[int]:
    """c_k(j) by the divisor formula for every j in js, evaluated once per
    gcd class g = gcd(k, j)."""
    if k < 1:
        raise ValueError(f"ramanujan_sum_batch requires k >= 1, got {k}")
    gs = _gcd_classes(k, js)
    value = {g: sum(d * mobius(k // d) for d in divisors(g)) for g in set(gs)}
    return list(map(value.__getitem__, gs))


def ramanujan_sum(k: int, j: int) -> int:
    """c_k(j) by the divisor formula; one case of ramanujan_sum_batch."""
    return ramanujan_sum_batch(k, (j,))[0]


def ramanujan_sum_holder_batch(k: int, js: Sequence[int]) -> List[int]:
    """c_k(j) by the Holder closed form for every j in js, evaluated once
    per gcd class g = gcd(k, j); each division must be exact."""
    if k < 1:
        raise ValueError(f"ramanujan_sum_holder_batch requires k >= 1, got {k}")
    gs = _gcd_classes(k, js)
    phi = euler_phi(k)
    value = {}
    for g in dict.fromkeys(gs):  # in order of first j, so an error names the first j
        num = phi * mobius(k // g)
        den = euler_phi(k // g)
        if num % den:
            raise RuntimeError(f"Holder division not exact for k={k}, j={js[gs.index(g)]}")
        value[g] = num // den
    return list(map(value.__getitem__, gs))


def ramanujan_sum_holder(k: int, j: int) -> int:
    """c_k(j) by the Holder closed form; one case of ramanujan_sum_holder_batch."""
    return ramanujan_sum_holder_batch(k, (j,))[0]


def _float_row(k: int) -> np.ndarray:
    """sum over m in 0..k-1 with gcd(m, k) = 1 of exp(2 pi i m j / k), for
    j = 0..k-1: the unnormalised inverse FFT of the coprime indicator."""
    coprime = (np.gcd(np.arange(k), k) == 1).astype(np.float64)
    return np.fft.ifft(coprime, norm="forward")


def ramanujan_sum_float_batch(k: int, js: Sequence[int]) -> List[float]:
    """c_k(j) from the definitional sum of roots of unity, as floats, for
    every j in js.

    Each sum is entry j mod k of the per-modulus FFT _float_row(k), read
    once for the batch. The imaginary part of every entry read must cancel
    to below 1e-6 * k; the error names the first j whose part does not.
    """
    if k < 1:
        raise ValueError(f"ramanujan_sum_float_batch requires k >= 1, got {k}")
    if k > FLOAT_EVAL_LIMIT:
        raise ValueError(f"k={k} exceeds the float evaluation bound {FLOAT_EVAL_LIMIT}")
    z = _float_row(k)[[j % k for j in js]]
    large = np.abs(z.imag) >= 1e-6 * k
    if large.any():
        i = int(large.argmax())
        raise RuntimeError(f"imaginary part {z.imag[i]} too large for k={k}, j={js[i]}")
    return z.real.tolist()


def ramanujan_sum_float(k: int, j: int) -> float:
    """c_k(j) from the definitional sum, as a float; one case of
    ramanujan_sum_float_batch."""
    return ramanujan_sum_float_batch(k, (j,))[0]


@lru_cache(maxsize=4096)
def ramanujan_row(k: int) -> Tuple[int, ...]:
    """The row (c_k(0), ..., c_k(k)), in one pass over the divisors of k;
    its ends are c_k(0) = c_k(k) = phi(k).

    Each divisor d of k contributes d*mu(k/d) to every index j it divides,
    so the row costs O(k tau(k)) with no per-index gcd. The row is checked
    over its full period (c_k(1) + ... + c_k(k) is 1 for k = 1, else 0)
    before it is returned, so the cache keeps no row that failed.
    """
    if k < 1:
        raise ValueError(f"ramanujan_row requires k >= 1, got {k}")
    if k > ROW_BUDGET:
        raise BudgetError(f"row c_k(0..k) for k={k} exceeds the row budget {ROW_BUDGET}")
    divs = divisors(k)
    row = [0] * (k + 1)
    for d in divs:
        v = d * mobius(k // d)
        if v:
            for j in range(0, k + 1, d):
                row[j] += v
    checksum = sum(row[1:])
    if checksum != (1 if k == 1 else 0):
        raise ValueError(f"row checksum failed for k={k}: {checksum}")
    return tuple(row)
