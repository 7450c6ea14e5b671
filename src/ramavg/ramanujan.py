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

A row c_k(0..k) is refused with BudgetError before it is allocated when
k exceeds ROW_BUDGET.

j is an arbitrary integer everywhere: it is reduced mod k up front, and
j = 0 falls under gcd(k, 0) = k, giving c_k(0) = phi(k). That convention
matters because two of the weighted averages sum from j = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from .arith import divisors, euler_phi, mobius

__all__ = [
    "RamanujanRow",
    "ramanujan_sum",
    "ramanujan_sum_holder",
    "ramanujan_sum_float",
    "ramanujan_row",
    "FLOAT_EVAL_LIMIT",
    "ROW_BUDGET",
    "BudgetError",
]

# Beyond this k the definitional float sum accumulates too much error to
# be a trustworthy oracle.
FLOAT_EVAL_LIMIT = 10**5
# Largest k of a row c_k(0..k). Not below multivar.PERIOD_BUDGET, so every
# modulus of a product row within that budget has its row.
ROW_BUDGET = 10**7


class BudgetError(RuntimeError):
    """A row, a period row or a divisor-tuple enumeration would exceed its budget."""


@dataclass(frozen=True)
class RamanujanRow:
    """One full row c_k(0), ..., c_k(k); values[0] = values[k] = phi(k)."""

    k: int
    values: Tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.k + 1:
            raise ValueError("row must hold indices 0..k")
        checksum = sum(self.values[1:])
        expected = 1 if self.k == 1 else 0
        if checksum != expected:
            raise ValueError(f"row checksum failed for k={self.k}: {checksum}")


def ramanujan_sum(k: int, j: int) -> int:
    """c_k(j) by the divisor formula."""
    if k < 1:
        raise ValueError(f"ramanujan_sum requires k >= 1, got {k}")
    g = math.gcd(k, j % k)
    return sum(d * mobius(k // d) for d in divisors(g))


def ramanujan_sum_holder(k: int, j: int) -> int:
    """c_k(j) by the Holder closed form; the division is exact."""
    if k < 1:
        raise ValueError(f"ramanujan_sum_holder requires k >= 1, got {k}")
    g = math.gcd(k, j % k)
    num = euler_phi(k) * mobius(k // g)
    den = euler_phi(k // g)
    if num % den:
        raise RuntimeError(f"Holder division not exact for k={k}, j={j}")
    return num // den


@lru_cache(maxsize=256)
def _float_row(k: int) -> np.ndarray:
    """sum over m in 0..k-1 with gcd(m, k) = 1 of exp(2 pi i m j / k), for
    j = 0..k-1: the unnormalised inverse FFT of the coprime indicator."""
    coprime = (np.gcd(np.arange(k), k) == 1).astype(np.float64)
    return np.fft.ifft(coprime, norm="forward")


def ramanujan_sum_float(k: int, j: int) -> float:
    """c_k(j) from the definitional sum of roots of unity, as a float.

    The sum is entry j mod k of the per-modulus FFT _float_row(k). The
    imaginary part must cancel to below 1e-6 * k.
    """
    if k < 1:
        raise ValueError(f"ramanujan_sum_float requires k >= 1, got {k}")
    if k > FLOAT_EVAL_LIMIT:
        raise ValueError(f"k={k} exceeds the float evaluation bound {FLOAT_EVAL_LIMIT}")
    z = _float_row(k)[j % k]
    if abs(z.imag) >= 1e-6 * k:
        raise RuntimeError(f"imaginary part {z.imag} too large for k={k}, j={j}")
    return float(z.real)


@lru_cache(maxsize=4096)
def ramanujan_row(k: int) -> RamanujanRow:
    """All of c_k(0..k) in one pass over the divisors of k.

    Each divisor d of k contributes d*mu(k/d) to every index j it divides,
    so the row costs O(k tau(k)) with no per-index gcd.
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
    return RamanujanRow(k, tuple(row))
