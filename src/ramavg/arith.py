"""Integer factorization and the classical arithmetic functions.

Everything here is exact integer arithmetic. factorize(n) returns the
plain tuple of pairs (p, e), the primes ascending, and finds them by trial
division against a cached prime table, which grows on demand: it holds the
primes below a power of two from 2**10 up to 2**20, sieved again only when
an input needs primes past its bound. The full table covers inputs up to
2**40; larger inputs are rejected rather than silently slow.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from typing import Callable, Tuple, Union

__all__ = [
    "FACTOR_LIMIT",
    "factorize",
    "is_prime",
    "mobius",
    "euler_phi",
    "jordan_totient",
    "divisors",
    "divisor_count_and_sum",
    "von_mangoldt",
    "dirichlet_convolve",
]

# Trial division by primes < 2**20 fully factors anything up to 2**40.
_PRIME_TABLE_MIN = 1 << 10
_PRIME_TABLE_BOUND = 1 << 20
FACTOR_LIMIT = 1 << 40

# (bound, the primes below bound), replaced in one assignment so that no
# reader sees a bound without its primes.
_table: Tuple[int, Tuple[int, ...]] = (0, ())


def _sieve(bound: int) -> Tuple[int, ...]:
    """The primes below bound, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * bound
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, bound, p)))
    return tuple(compress(range(bound), sieve))


def _prime_table(limit: int) -> Tuple[int, ...]:
    """The prime table, grown on demand to hold every prime below limit
    (below 2**20 at most). Its bound is a power of two from 2**10 to 2**20,
    and it is sieved again only when limit passes that bound."""
    global _table
    bound, primes = _table
    limit = min(limit, _PRIME_TABLE_BOUND)
    if limit > bound:
        bound = max(1 << (limit - 1).bit_length(), _PRIME_TABLE_MIN)
        primes = _sieve(bound)
        _table = (bound, primes)
    return primes


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the witness set is exact below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=1 << 15)
def factorize(n: int) -> Tuple[Tuple[int, int], ...]:
    """Factor n by trial division: the pairs (p, e) of n = prod p**e, the
    primes strictly increasing. Accepts 1 <= n <= 2**40."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    if n > FACTOR_LIMIT:
        raise ValueError(f"n={n} exceeds the supported range (2**40)")
    m = n
    out = []
    for p in _prime_table(math.isqrt(n) + 1):
        if p * p > m:
            break
        if m % p == 0:
            e = 1
            m //= p
            while m % p == 0:
                e += 1
                m //= p
            out.append((p, e))
    if m > 1:
        # m is prime: every prime below the table bound was tried (or the
        # loop stopped at p * p > m), that bound is greater than isqrt(n)
        # (or is 2**20 = isqrt(2**40), not a prime), and m <= n.
        out.append((m, 1))
    if math.prod(p**e for p, e in out) != n:
        raise ValueError(f"factors do not multiply back to {n}")
    if any(p >= q for (p, _), (q, _) in zip(out, out[1:])):
        raise ValueError("primes must be strictly increasing")
    return tuple(out)


@lru_cache(maxsize=1 << 15)
def mobius(n: int) -> int:
    """Mobius mu: 0 on non-squarefree n, else (-1)**(number of prime factors)."""
    fac = factorize(n)
    if any(e >= 2 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


@lru_cache(maxsize=1 << 15)
def euler_phi(n: int) -> int:
    """Euler totient: count of 1 <= m <= n with gcd(m, n) = 1."""
    result = 1
    for p, e in factorize(n):
        result *= p ** (e - 1) * (p - 1)
    return result


def jordan_totient(m: int, n: int) -> int:
    """Jordan totient J_m(n) = n**m * prod_{p|n} (1 - p**-m), exactly.

    J_0(n) is 1 when n = 1 and 0 otherwise (the empty product convention),
    and J_1 is the Euler totient.
    """
    if n < 1:
        raise ValueError(f"jordan_totient requires n >= 1, got {n}")
    if m < 0:
        raise ValueError(f"jordan_totient requires m >= 0, got {m}")
    fac = factorize(n)
    if m == 0:
        return 1 if n == 1 else 0
    result = 1
    for p, e in fac:
        result *= p ** (m * e) - p ** (m * (e - 1))
    return result


@lru_cache(maxsize=1 << 14)
def divisors(n: int) -> Tuple[int, ...]:
    """All divisors of n, ascending, generated from the factorization."""
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p**i for d in ds for i in range(e + 1)]
    return tuple(sorted(ds))


def divisor_count_and_sum(n: int) -> Tuple[int, int]:
    """(tau(n), sigma(n)): the number and the sum of the divisors."""
    tau = 1
    sigma = 1
    for p, e in factorize(n):
        tau *= e + 1
        sigma *= (p ** (e + 1) - 1) // (p - 1)
    return tau, sigma


def von_mangoldt(n: int) -> float:
    """Lambda(n): log(p) when n = p**a with a >= 1, else 0.0."""
    if n < 1:
        raise ValueError(f"von_mangoldt requires n >= 1, got {n}")
    factors = factorize(n)
    return math.log(factors[0][0]) if len(factors) == 1 else 0.0


Rational = Union[int, Fraction]


def dirichlet_convolve(
    f: Callable[[int], Rational], g: Callable[[int], Rational], n: int
) -> Fraction:
    """(f * g)(n) = sum_{d|n} f(d) g(n/d).

    The terms are summed as the ints or Fractions f and g return, and the
    total is converted once.
    """
    return Fraction(sum(f(d) * g(n // d) for d in divisors(n)))
