"""Weighted averages of Ramanujan sums: direct and closed-form evaluators.

Every identity comes as a pair evaluator returning its two sides only, as
a plain (lhs, rhs) tuple; a batch form over the cases of one k returns the
side columns (lhs, rhs), a row per case (inverse_dft_batch's as float64
arrays). Nothing here compares them: the verify engine does, as they come,
by the identity's mode and tolerance.

Summation bounds are part of the contract and differ per identity:

    identity                      index range
    ------------------------------------------
    power weight (s_r_*)          j = 1 .. k
    log weight                    j = 1 .. k
    gcd weight                    j = 1 .. k
    log-Gamma weight              j = 1 .. k
    binomial weight               j = 0 .. k
    Bernoulli polynomial weight   j = 0 .. k-1
    inverse DFT                   j = 1 .. k

An off-by-one here breaks exact checks silently, hence the table.

Four direct sides are literal sums over j that are regrouped so that the
work shared by many cases of one modulus is done once per k:

    gcd weight                    gcd-class totals W_d = sum over
                                  gcd(j, k) = d of c_k(j), once per k;
                                  gcd_weighted_batch reads them, the
                                  divisors, mu(k/d) and phi(k) once for
                                  every f of a run
    power and Bernoulli weights   power sums T_e = sum_{j=1}^{k} j^e c_k(j)
                                  for every e, read from multivar's table
                                  of the tuple (k,), one ladder in e per k:
                                  the power weight is multivar's S_r of
                                  (k,) (s_r_direct, and verify's prop1)
    inverse DFT                   one inverse FFT of c_k(0..k-1) gives the
                                  sum at every n mod k, once per k

The gcd classes collect the terms by gcd(j, k); the power sums split a
summand that is a polynomial in j (j^r, or k^m D B_m(j/k)) into its powers
of j; the FFT evaluates the sum over j for every n together. Each still
adds c_k(j) over every j of the row c_k(0..k). None uses the closed side's
arithmetic (phi, the Mobius convolution, Jordan totients, gcd(k, n)); the
Bernoulli weight reads Bernoulli numbers only through
exact's table of the coefficients of B_m(x). So a closed side that is
wrong still disagrees with them: the check is not a tautology. The guard
in tests/test_sensitivity.py enforces it for every identity of verify.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from hashlib import blake2b
from itertools import cycle, repeat
from math import comb
from operator import add, mul, truediv
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from . import multivar
from .arith import (
    Rational,
    divisor_count_and_sum,
    divisors,
    euler_phi,
    factorize,
    jordan_totient,
    mobius,
    von_mangoldt,
)
from .exact import bernoulli_number, bernoulli_polynomial_coefficients, power_sum_closed
from .ramanujan import EvaluationError, ramanujan_row

__all__ = [
    "DEFAULT_SEED",
    "COSINE_LIMIT",
    "BINOMIAL_EXACT_LIMIT",
    "DFT_LIMIT",
    "NAMED_FUNCTIONS",
    "random_function",
    "log_factorial",
    "cos_pi",
    "s_r_direct",
    "s_r_closed",
    "s_r_closed_batch",
    "log_weighted_pair",
    "gcd_weighted_pair",
    "gcd_weighted_batch",
    "gamma_weighted_pair",
    "gamma_product_check",
    "mobius_log_check",
    "binomial_weighted_exact",
    "binomial_weighted_cosine",
    "bernoulli_weighted_pair",
    "bernoulli_weighted_batch",
    "inverse_dft_check",
    "inverse_dft_batch",
]

DEFAULT_SEED = 123456789
COSINE_LIMIT = 1000  # cos^k underflows past this; reject rather than mislead
# binomial_weighted_exact's sides have 4,216 digits at this k and pass the
# interpreter's 4,300-digit limit on int to str from about k = 14,280, so
# a report could not render them.
BINOMIAL_EXACT_LIMIT = 14_000
DFT_LIMIT = 10**5

# A map from positive integers to exact rationals.
ArithFn = Callable[[int], Rational]


NAMED_FUNCTIONS: Dict[str, ArithFn] = {
    "id": lambda n: n,
    "tau": lambda n: divisor_count_and_sum(n)[0],
    "sigma": lambda n: divisor_count_and_sum(n)[1],
    "mu": mobius,
    "phi": euler_phi,
}


@lru_cache(maxsize=1 << 8)
def random_function(index: int, seed: int = DEFAULT_SEED) -> ArithFn:
    """Seeded integer-valued test function, values in [-32768, 32767].

    Hash-derived rather than drawn from a stateful RNG so that the value
    at n never depends on evaluation order. One function per (index,
    seed) is kept, and it memoizes its values by n (up to 2^12 of them),
    so a sweep hashes each (index, n) once; a memoized value is the same
    pure hash of (seed, index, n).
    """
    prefix = f"{seed}:{index}:"

    @lru_cache(maxsize=1 << 12)
    def fn(n: int) -> int:
        digest = blake2b(f"{prefix}{n}".encode(), digest_size=2).digest()
        return int.from_bytes(digest, "big") - (1 << 15)

    return fn


# --- power weight ---------------------------------------------------------


def s_r_direct(k: int, r: int) -> Fraction:
    """S_r(k) = (1/k^(r+1)) sum_{j=1}^{k} j^r c_k(j) from the definition:
    multivar's S_r of the tuple (k,)."""
    return multivar.s_r_multi_direct((k,), r)


def s_r_closed_batch(k: int, rs: Sequence[int]) -> List[Fraction]:
    """S_r(k) by the closed form

        phi(k)/(2k) + 1/(r+1) * sum_{m=0}^{floor(r/2)}
            C(r+1, 2m) B_{2m} J_{2m}(k) / k^(2m),

    for every r in rs, where J_{2m}(k)/k^(2m) is the product of
    (1 - p^(-2m)) over p | k: exact.power_sum_closed with lead phi(k) and
    weights J_{2m}(k), read once for the batch up to the largest r.
    """
    if k < 1 or any(r < 1 for r in rs):
        raise ValueError("s_r_closed_batch requires k >= 1 and r >= 1")
    weights = [jordan_totient(2 * m, k) for m in range(max(rs, default=0) // 2 + 1)]
    phi = euler_phi(k)
    return [power_sum_closed(k, r, phi, weights[: r // 2 + 1]) for r in rs]


def s_r_closed(k: int, r: int) -> Fraction:
    """S_r(k) by the closed form; one r of s_r_closed_batch."""
    return s_r_closed_batch(k, (r,))[0]


# --- log weight -----------------------------------------------------------

_LOG_FACT_TABLE_LIMIT = 10**5
_log_fact_table = [0.0, 0.0]  # log(0!), log(1!)
_log_fact_comp = 0.0  # Kahan compensation carried across extensions


def log_factorial(d: int) -> float:
    """log(d!) by compensated summation of log m (lgamma past the table)."""
    global _log_fact_comp
    if d < 0:
        raise ValueError(f"log_factorial requires d >= 0, got {d}")
    if d > _LOG_FACT_TABLE_LIMIT:
        return math.lgamma(d + 1)
    if d >= len(_log_fact_table):
        total = _log_fact_table[-1]
        comp = _log_fact_comp
        for m in range(len(_log_fact_table), d + 1):
            y = math.log(m) - comp
            t = total + y
            comp = (t - total) - y
            total = t
            _log_fact_table.append(total)
        _log_fact_comp = comp
    return _log_fact_table[d]


def log_weighted_pair(k: int) -> Tuple[float, float]:
    """(1/k) sum_{j=1}^{k} log(j) c_k(j)  vs  Lambda(k) + sum_{d|k} (mu(d)/d) log(d!).

    The direct side's terms log(j) c_k(j), j >= 2 (log 1 = 0), are summed
    through map, in order, with no Python frame per term."""
    if k < 1:
        raise ValueError(f"log_weighted_pair requires k >= 1, got {k}")
    row = ramanujan_row(k)
    lhs = sum(map(mul, map(math.log, range(2, k + 1)), row[2:])) / k
    rhs = von_mangoldt(k)
    for d in divisors(k):
        mu_d = mobius(d)
        if mu_d:
            rhs += mu_d * log_factorial(d) / d
    return lhs, rhs


# --- gcd weight -----------------------------------------------------------


@lru_cache(maxsize=1 << 12)
def _gcd_class_totals(k: int) -> Tuple[int, ...]:
    """W_d for the divisors d of k, in the order of divisors(k), where W_d
    is the sum of c_k(j) over 1 <= j <= k with gcd(j, k) = d: one pass over
    the row per modulus."""
    row = ramanujan_row(k)
    totals = dict.fromkeys(divisors(k), 0)  # gcd(j, k) is always a divisor
    gcd = math.gcd
    for j in range(1, k + 1):
        totals[gcd(j, k)] += row[j]
    return tuple(totals.values())


def gcd_weighted_batch(
    k: int, fs: Sequence[ArithFn]
) -> Tuple[List[Rational], List[Rational]]:
    """sum_{j=1}^{k} f(gcd(j, k)) c_k(j)  vs  phi(k) (mu * f)(k), exactly,
    for every f in fs, as the columns (lhs, rhs) with a row per f.

    The left side groups the j by d = gcd(j, k): sum_{d|k} f(d) W_d, over
    the class totals W_d of the row. The right side is
    phi(k) sum_{d|k} mu(k/d) f(d) and never reads the row. The divisors,
    W_d, mu(k/d) and phi(k) are read once for the batch, and each f is
    evaluated once per divisor. An integer-valued f gives int sides, a
    rational one Fractions.
    """
    if k < 1:
        raise ValueError(f"gcd_weighted_batch requires k >= 1, got {k}")
    ds = divisors(k)
    totals = _gcd_class_totals(k)
    mus = [mobius(k // d) for d in ds]
    phi = euler_phi(k)
    lhs, rhs = [], []
    for f in fs:
        fval = list(map(f, ds))
        lhs.append(sum(map(mul, fval, totals)))
        rhs.append(phi * sum(map(mul, fval, mus)))
    return lhs, rhs


def gcd_weighted_pair(k: int, f: ArithFn) -> Tuple[Rational, Rational]:
    """One f of gcd_weighted_batch, as a pair."""
    (lhs,), (rhs,) = gcd_weighted_batch(k, (f,))
    return lhs, rhs


# --- log-Gamma weight -----------------------------------------------------


def gamma_weighted_pair(k: int) -> Tuple[float, float]:
    """(1/phi(k)) sum_{j=1}^{k} log Gamma(j/k) c_k(j)
    vs  (1/2) sum_{p|k} log(p)/(p-1) - log(2 pi)/2, for k > 1.

    The direct side divides by the row's own c_k(0) = phi(k) and reads no
    phi. math.lgamma is well within the 1e-12 relative error the comparison
    budget assumes. Its terms lgamma(j/k) c_k(j) are summed through map, in
    order, with no Python frame per term.
    """
    if k < 2:
        raise ValueError(f"gamma_weighted_pair requires k >= 2, got {k}")
    row = ramanujan_row(k)
    terms = map(mul, map(math.lgamma, map(truediv, range(1, k + 1), repeat(k))), row[1:])
    lhs = sum(terms) / row[0]
    rhs = 0.5 * sum(math.log(p) / (p - 1) for p, _ in factorize(k))
    rhs -= 0.5 * math.log(2 * math.pi)
    return lhs, rhs


def gamma_product_check(n: int) -> Tuple[float, float]:
    """log of prod_{k=1}^{n} Gamma(k/n)  vs  ((n-1)/2) log(2 pi) - (1/2) log n,
    the terms lgamma(k/n) summed through map, in order."""
    if n < 1:
        raise ValueError(f"gamma_product_check requires n >= 1, got {n}")
    lhs = sum(map(math.lgamma, map(truediv, range(1, n + 1), repeat(n))))
    rhs = (n - 1) / 2 * math.log(2 * math.pi) - 0.5 * math.log(n)
    return lhs, rhs


def mobius_log_check(k: int) -> Tuple[float, float]:
    """sum_{d|k} (mu(d)/d) log d  vs  -(phi(k)/k) sum_{p|k} log(p)/(p-1)."""
    if k < 1:
        raise ValueError(f"mobius_log_check requires k >= 1, got {k}")
    lhs = 0.0
    for d in divisors(k):
        mu_d = mobius(d)
        if mu_d and d > 1:
            lhs += mu_d * math.log(d) / d
    rhs = -euler_phi(k) / k * sum(math.log(p) / (p - 1) for p, _ in factorize(k))
    return lhs, rhs


# --- binomial weight ------------------------------------------------------


def _binomial_row_sum(k: int) -> int:
    """sum_{j=0}^{k} C(k, j) c_k(j), the left side of both binomial weights,
    with C(k, j) walked along Pascal's row, C(k, j + 1) = C(k, j) (k - j) /
    (j + 1), one exact step per j; a zero c_k(j) adds nothing. It reads no
    comb: this module's comb is the closed side's binding."""
    total = 0
    choose = 1  # C(k, 0)
    for j, c in enumerate(ramanujan_row(k)):
        if c:
            total += choose * c
        choose = choose * (k - j) // (j + 1)
    return total


def binomial_weighted_exact(k: int) -> Tuple[int, int]:
    """sum_{j=0}^{k} C(k, j) c_k(j)  vs  the divisor-side big integer

        sum_{d|k} d mu(k/d) sum_{m=0}^{k/d} C(k, d m).
    """
    if k < 1:
        raise ValueError(f"binomial_weighted_exact requires k >= 1, got {k}")
    lhs = _binomial_row_sum(k)
    rhs = 0
    for d in divisors(k):
        mu_kd = mobius(k // d)
        if mu_kd:
            rhs += d * mu_kd * sum(comb(k, d * m) for m in range(k // d + 1))
    return lhs, rhs


def cos_pi(num: int, den: int) -> float:
    """cos(num * pi / den) with the argument reduced mod 2*den first.

    Reduction keeps the lattice points exact: the result is exactly
    1.0, 0.0 or -1.0 whenever the angle is a multiple of pi/2.
    """
    t = num % (2 * den)
    if t > den:
        t = 2 * den - t
    if t == 0:
        return 1.0
    if t == den:
        return -1.0
    if 2 * t == den:
        return 0.0
    return math.cos(math.pi * t / den)


def binomial_weighted_cosine(k: int) -> Tuple[float, float]:
    """(1/2^k) sum_{j=0}^{k} C(k, j) c_k(j)  vs  the cosine double sum

        sum_{d|k} mu(k/d) sum_{l=1}^{d} (-1)^(l k/d) cos^k(l pi / d).

    The inner sum over l is formed once per divisor, through map and a
    left fold from 0.0: each term cos_pi(l, d)^k, times -1.0 for odd l when
    k/d is odd (times 1.0, which changes no float, otherwise).
    """
    if k < 1:
        raise ValueError(f"binomial_weighted_cosine requires k >= 1, got {k}")
    if k > COSINE_LIMIT:
        raise ValueError(f"k={k} exceeds the cosine evaluation bound {COSINE_LIMIT}")
    lhs = float(Fraction(_binomial_row_sum(k), 2**k))
    rhs = 0.0
    for d in divisors(k):
        mu_kd = mobius(k // d)
        if mu_kd:
            terms = map(pow, map(cos_pi, range(1, d + 1), repeat(d)), repeat(k))
            if (k // d) % 2:
                terms = map(mul, cycle((-1.0, 1.0)), terms)
            rhs += mu_kd * reduce(add, terms, 0.0)
    return lhs, rhs


# --- Bernoulli polynomial weight ------------------------------------------


def bernoulli_weighted_batch(
    k: int, ms: Sequence[int]
) -> Tuple[List[Fraction], List[Fraction]]:
    """sum_{j=0}^{k-1} B_m(j/k) c_k(j)  vs  (B_m / k^(m-1)) J_m(k), exactly,
    for every m in ms, as the columns (lhs, rhs) with a row per m.

    k^m * D * B_m(j/k) = sum_t (c_t k^t) j^(m-t) is an integer polynomial
    in j (D clears the Bernoulli denominators), so sum_t c_t k^t T_{m-t},
    over the power sums T_e of (k,) read once for the batch, sums it over
    j = 1..k. There j = k stands in for j = 0, as c_k(k) = c_k(0); the two
    terms differ only at m = 1, by c_k(0) D k (B_1(1) - B_1(0) = 1), which is
    subtracted before the one division. Zero coefficients need no T.
    """
    if k < 1 or any(m < 1 for m in ms):
        raise ValueError("bernoulli_weighted_batch requires k >= 1 and m >= 1")
    first = ramanujan_row(k)[0]  # read first: a k past ROW_BUDGET is refused here
    totals = multivar._power_sums((k,), max(ms, default=0))
    lhs, rhs = [], []
    for m in ms:
        base, d = bernoulli_polynomial_coefficients(m)
        total = sum(c * k**t * totals[m - t] for t, c in enumerate(base) if c)
        if m == 1:
            total -= first * d * k
        lhs.append(Fraction(total, d * k**m))
        b = bernoulli_number(m)
        rhs.append(Fraction(b.numerator * jordan_totient(m, k), b.denominator * k ** (m - 1)))
    return lhs, rhs


def bernoulli_weighted_pair(k: int, m: int) -> Tuple[Fraction, Fraction]:
    """One m of bernoulli_weighted_batch, as a pair."""
    (lhs,), (rhs,) = bernoulli_weighted_batch(k, (m,))
    return lhs, rhs


# --- inverse DFT ----------------------------------------------------------


def _dft_values(k: int) -> np.ndarray:
    """(1/k) sum_{j=1}^{k} exp(2 pi i j n / k) c_k(j) for n = 0..k-1: the
    inverse FFT of c_k(0..k-1), whose j = 0 entry stands for j = k."""
    return np.fft.ifft(np.array(ramanujan_row(k)[:k], dtype=np.float64))


def inverse_dft_batch(k: int, ns: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """(1/k) sum_{j=1}^{k} exp(2 pi i j n / k) c_k(j)  vs  [gcd(k, n) = 1],
    for every n in ns, as the float64 array columns (lhs, rhs) with a row
    per n.

    The left column gathers entry n mod k of the per-modulus FFT
    _dft_values(k), computed once for the batch, and the right one tests
    gcd(k, n mod k) = gcd(k, n), both with numpy. n mod k is taken in
    Python, so n may be any size. The imaginary part of each entry read
    must cancel to below 1e-8 (1e-8 * k on the sum); the error names the
    first n whose part does not.
    """
    if k < 1 or min(ns, default=1) < 1:
        raise ValueError("inverse_dft_batch requires k >= 1 and n >= 1")
    if k > DFT_LIMIT:
        raise ValueError(f"k={k} exceeds the DFT evaluation bound {DFT_LIMIT}")
    residues = np.fromiter(map(k.__rmod__, ns), np.int64, len(ns))
    values = _dft_values(k)[residues]
    large = np.abs(values.imag) > 1e-8
    if large.any():
        i = int(large.argmax())
        raise EvaluationError(
            f"imaginary part {float(values.imag[i])} of the mean too large for k={k}, n={ns[i]}"
        )
    return values.real, (np.gcd(residues, k) == 1).astype(np.float64)


def inverse_dft_check(k: int, n: int) -> Tuple[float, float]:
    """One case of inverse_dft_batch, as a pair of floats."""
    (lhs,), (rhs,) = inverse_dft_batch(k, (n,))
    return float(lhs), float(rhs)
