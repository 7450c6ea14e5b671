"""Exact rational arithmetic: Bernoulli numbers and polynomials (with one
cached table of the coefficients of D B_m(x)), and power_sum_closed, the
one closed form of S_r(k), S_r(k_1..k_n), power_sum, coprime_power_sum
and half_sum_check; each supplies its own weights.

Convention note (important): B_1 = -1/2 throughout. The power-sum closed
form used here,

    sum_{j=1}^{n} j^r = n^r/2 + 1/(r+1) * sum_{m=0}^{floor(r/2)}
                        C(r+1, 2m) B_{2m} n^{r+1-2m},

absorbs the odd m = 1 term as the explicit +n^r/2, which only works with
B_1 = -1/2. Swapping in the B_1 = +1/2 convention silently breaks every
identity downstream, so the recurrence below is pinned to it.

All values are fractions.Fraction (arbitrary-precision, always reduced,
positive denominator), which is exactly the rational value type the rest
of the package builds on.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import List, Sequence, Tuple

from .arith import Rational, factorize

__all__ = [
    "DEGREE_CAP",
    "bernoulli_number",
    "bernoulli_polynomial",
    "bernoulli_polynomial_coefficients",
    "power_sum_closed",
    "power_sum",
    "coprime_power_sum",
    "half_sum_check",
]

# The largest degree (r, m) verify and the CLI accept: the coefficients of
# D B_m(x) took 0.2 s at m = 400 and 1.6 s at m = 800 (Python 3.11, Xeon).
DEGREE_CAP = 400


# Memoized Bernoulli numbers B_0, B_1, ..., extended on demand.
_bernoulli_table: List[Fraction] = [Fraction(1)]


def bernoulli_number(m: int) -> Fraction:
    """Bernoulli number B_m with B_1 = -1/2.

    Defined by B_0 = 1 and sum_{j=0}^{m} C(m+1, j) B_j = 0 for m >= 1.
    """
    if m < 0:
        raise ValueError(f"bernoulli_number requires m >= 0, got {m}")
    while m >= len(_bernoulli_table):
        mm = len(_bernoulli_table)
        if mm % 2 == 1 and mm >= 3:
            _bernoulli_table.append(Fraction(0))
            continue
        acc = sum(comb(mm + 1, j) * _bernoulli_table[j] for j in range(mm))
        _bernoulli_table.append(Fraction(-acc, mm + 1))
    return _bernoulli_table[m]


def bernoulli_polynomial(m: int, x: Rational) -> Fraction:
    """B_m(x) = sum_{k=0}^{m} C(m, k) B_k x^(m-k), exactly."""
    if m < 0:
        raise ValueError(f"bernoulli_polynomial requires m >= 0, got {m}")
    x = Fraction(x)
    bernoulli_number(m)  # fill the table once up front
    total = Fraction(0)
    xpow = Fraction(1)
    for k in range(m, -1, -1):
        total += comb(m, k) * _bernoulli_table[k] * xpow
        xpow *= x
    return total


# Every degree up to the cap, read as m = r + 1, stays cached: a sweep that
# walks more degrees than the cache holds would evict each before its reuse.
@lru_cache(maxsize=DEGREE_CAP + 2)
def bernoulli_polynomial_coefficients(m: int) -> Tuple[Tuple[int, ...], int]:
    """(c_0..c_m, D) with D * B_m(x) = sum_t c_t x^(m-t), D the lcm of theirs."""
    coeffs = [comb(m, t) * bernoulli_number(t) for t in range(m + 1)]
    d = math.lcm(*(c.denominator for c in coeffs))
    return tuple(c.numerator * (d // c.denominator) for c in coeffs), d


def power_sum_closed(k: int, r: int, lead: int, weights: Sequence[int]) -> Fraction:
    """lead/(2k) + 1/(r+1) sum_{m=0}^{M} C(r+1, 2m) B_{2m} X_m / k^(2m), with
    X_m = weights[m] and M = floor(r/2). C(r+1, 2m) B_{2m} = c_{2m} / D are
    the even coefficients of D B_{r+1}(x), so the sum goes over the one
    denominator 2k (r+1) D k^(2M): integer weights keep it in integers.
    """
    coeffs, d = bernoulli_polynomial_coefficients(r + 1)
    k2 = k * k
    total = 0
    for c, x in zip(coeffs[: r + 1 : 2], weights, strict=True):  # Horner in k^2
        total = total * k2 + c * x
    scale = (r + 1) * d * k2 ** (r // 2)
    return Fraction(lead * scale + 2 * k * total, 2 * k * scale)


def power_sum(n: int, r: int) -> int:
    """sum_{j=1}^{n} j^r via the closed form; the result must be integral."""
    if n < 1 or r < 1:
        raise ValueError("power_sum requires n >= 1 and r >= 1")
    acc = n ** (r + 1) * power_sum_closed(n, r, 1, [1] * (r // 2 + 1))
    if acc.denominator != 1:
        raise RuntimeError(f"power_sum({n}, {r}) is non-integral: {acc}")
    return acc.numerator


def coprime_power_sum(n: int, r: int) -> int:
    """sum of j^r over 1 <= j <= n with gcd(j, n) = 1, via

        n^(r+1)/(r+1) * sum_{m=0}^{floor(r/2)} C(r+1, 2m) B_{2m} / n^(2m)
                        * prod_{p|n} (1 - p^(2m-1)),

    which is stated for n > 1 only. The product is phi(n)/n at m = 0, so the
    weights are scaled by n: (n / rad n) prod_{p|n} (p - p^(2m)). The result
    must be integral.
    """
    if n < 2:
        raise ValueError("coprime_power_sum requires n >= 2")
    if r < 1:
        raise ValueError("coprime_power_sum requires r >= 1")
    primes = [p for p, _ in factorize(n)]
    cofactor = n // math.prod(primes)
    weights = [cofactor * math.prod(p - p ** (2 * m) for p in primes) for m in range(r // 2 + 1)]
    acc = n**r * power_sum_closed(n, r, 0, weights)
    if acc.denominator != 1:
        raise RuntimeError(f"coprime_power_sum({n}, {r}) is non-integral: {acc}")
    return acc.numerator


def half_sum_check(r: int) -> Fraction:
    """sum_{m=0}^{floor(r/2)} C(r+1, 2m) B_{2m}; equals (r+1)/2 for r >= 1.

    This is the identity that removes the even/odd case split from the
    power-sum manipulations. It needs the B_1 term of the full binomial
    sum to exist, so it starts at r = 1; at r = 0 the sum is just B_0 = 1.
    """
    if r < 0:
        raise ValueError(f"half_sum_check requires r >= 0, got {r}")
    return (r + 1) * power_sum_closed(1, r, 0, [1] * (r // 2 + 1))
