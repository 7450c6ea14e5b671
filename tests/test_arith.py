import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from ramavg import arith
from ramavg.arith import (
    FACTOR_LIMIT,
    divisor_count_and_sum,
    divisors,
    dirichlet_convolve,
    euler_phi,
    factorize,
    is_prime,
    jordan_totient,
    mobius,
    von_mangoldt,
)


def trial_division(n):
    """Independent factorization oracle."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def phi_brute(n):
    return sum(1 for m in range(1, n + 1) if math.gcd(m, n) == 1)


class TestFactorize:
    def test_one_is_empty(self):
        assert factorize(1) == ()

    def test_twelve(self):
        assert factorize(12) == ((2, 2), (3, 1))

    def test_prime_9973(self):
        assert factorize(9973) == trial_division(9973) == ((9973, 1),)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_rejects_past_range_limit(self):
        with pytest.raises(ValueError):
            factorize(FACTOR_LIMIT + 1)

    def test_limit_itself_is_accepted(self):
        assert factorize(FACTOR_LIMIT) == ((2, 40),)

    def test_primes_out_of_order_are_refused(self, monkeypatch):
        # A prime table out of order makes trial division find 3 before 2.
        monkeypatch.setattr(arith, "_prime_table", lambda limit: (3, 2, 5, 7))
        factorize.cache_clear()
        try:
            with pytest.raises(ValueError, match="primes must be strictly increasing"):
                factorize(12)
        finally:
            factorize.cache_clear()

    def test_listed_primes_are_prime(self):
        for n in (2, 97, 360360, 2**20 + 7, 10**12 + 39):
            for p, _ in factorize(n):
                assert is_prime(p)

    def test_round_trip_to_one_million(self):
        for n in range(1, 10**6 + 1):
            prod = 1
            for p, e in factorize(n):
                prod *= p**e
            assert prod == n

    @given(st.integers(min_value=1, max_value=FACTOR_LIMIT))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_anywhere_in_range(self, n):
        fac = factorize(n)
        prod = 1
        last = 0
        for p, e in fac:
            assert p > last and e >= 1
            last = p
            prod *= p**e
        assert prod == n


class TestPrimeTable:
    """The prime table grows on demand from 2**10 to 2**20."""

    @pytest.fixture(autouse=True)
    def sieved(self, monkeypatch):
        """An empty table and an empty factorize cache; the bound of each sieve."""
        bounds, real = [], arith._sieve
        monkeypatch.setattr(arith, "_table", (0, ()))
        monkeypatch.setattr(arith, "_sieve", lambda bound: bounds.append(bound) or real(bound))
        factorize.cache_clear()
        yield bounds
        factorize.cache_clear()

    def test_small_inputs_keep_the_first_bound(self, sieved):
        for n in range(1, 10**4 + 1):
            assert factorize(n) == trial_division(n)
        assert sieved == [2**10] and arith._table[0] == 2**10
        assert arith._table[1] == tuple(p for p in range(2**10) if is_prime(p))

    def test_a_prime_square_just_under_the_first_bound(self, sieved):
        assert factorize(1021**2) == ((1021, 2),)
        assert sieved == [2**10]

    def test_two_primes_just_above_the_first_bound(self, sieved):
        assert factorize(12) == ((2, 2), (3, 1))
        assert factorize(1031 * 1033) == ((1031, 1), (1033, 1))
        assert sieved == [2**10, 2**11]

    def test_the_largest_table_is_sieved_once(self, sieved):
        # 1048573 is the largest prime below 2**20, and its square is
        # within FACTOR_LIMIT.
        assert 1048573**2 <= FACTOR_LIMIT
        factorize(2)
        assert factorize(1048573**2) == ((1048573, 2),)
        assert sieved == [2**10, 2**20] and len(arith._table[1]) == 82_025
        assert factorize(FACTOR_LIMIT) == ((2, 40),)
        assert factorize(FACTOR_LIMIT - 1) == (
            (3, 1), (5, 2), (11, 1), (17, 1), (31, 1), (41, 1), (61681, 1)
        )
        for n in range(1, 1000):
            factorize(n)
        assert sieved == [2**10, 2**20] and arith._table[0] == 2**20

    def test_a_later_small_input_does_not_sieve_again(self, sieved):
        factorize(1031 * 1033)
        table = arith._table
        for n in (2, 1021**2, 2**21 - 1, 2047**2):
            factorize(n)
        assert sieved == [2**11] and arith._table is table


class TestClassicalFunctions:
    @pytest.mark.parametrize("n,expected", [(1, 1), (6, 1), (12, 0), (30, -1), (49, 0)])
    def test_mobius_examples(self, n, expected):
        assert mobius(n) == expected

    @pytest.mark.parametrize("n", [1, 6, 100])
    def test_phi_matches_gcd_count(self, n):
        assert euler_phi(n) == phi_brute(n)

    def test_phi_100_frozen(self):
        assert phi_brute(100) == 40
        assert euler_phi(100) == 40

    def test_jordan_examples(self):
        assert jordan_totient(2, 2) == 3  # 4 * (1 - 1/4)
        assert jordan_totient(1, 6) == euler_phi(6) == 2
        assert jordan_totient(0, 5) == 0
        assert jordan_totient(0, 1) == 1

    def test_jordan_matches_product_form(self):
        from fractions import Fraction

        for n in range(1, 200):
            for m in range(1, 4):
                expected = Fraction(n**m)
                for p, _ in factorize(n):
                    expected *= 1 - Fraction(1, p**m)
                assert jordan_totient(m, n) == expected

    def test_divisors_examples(self):
        assert divisors(1) == (1,)
        assert divisors(6) == (1, 2, 3, 6)
        brute = tuple(d for d in range(1, 37) if 36 % d == 0)
        assert divisors(36) == brute
        assert len(brute) == 9 and brute[-1] == 36

    def test_divisor_count_and_sum(self):
        assert divisor_count_and_sum(1) == (1, 1)
        assert divisor_count_and_sum(6) == (4, 12)
        ds = [d for d in range(1, 29) if 28 % d == 0]
        assert divisor_count_and_sum(28) == (len(ds), sum(ds)) == (6, 56)

    def test_von_mangoldt(self):
        assert von_mangoldt(1) == 0.0
        assert von_mangoldt(8) == math.log(2)
        assert von_mangoldt(12) == 0.0
        assert von_mangoldt(7) == math.log(7)
        assert von_mangoldt(2**40) == math.log(2)
        assert all(type(von_mangoldt(n)) is float for n in range(1, 50))

    @pytest.mark.parametrize("fn", [mobius, euler_phi, divisors, von_mangoldt])
    def test_rejects_zero(self, fn):
        with pytest.raises(ValueError):
            fn(0)


class TestMultiplicativity:
    def coprime_pairs(self, bound):
        for a in range(1, bound + 1):
            for b in range(a, bound + 1):
                if math.gcd(a, b) == 1:
                    yield a, b

    def test_all_coprime_pairs_to_100(self):
        fns = [
            mobius,
            euler_phi,
            lambda n: jordan_totient(2, n),
            lambda n: divisor_count_and_sum(n)[0],
            lambda n: divisor_count_and_sum(n)[1],
        ]
        for a, b in self.coprime_pairs(100):
            for f in fns:
                assert f(a * b) == f(a) * f(b)


class TestDivisorSumIdentities:
    def test_phi_sums_to_n(self):
        for n in range(1, 10_001):
            assert sum(euler_phi(d) for d in divisors(n)) == n

    def test_mobius_sums_to_indicator(self):
        for n in range(1, 10_001):
            assert sum(mobius(d) for d in divisors(n)) == (1 if n == 1 else 0)

    def test_jordan_sums_to_power(self):
        for n in range(1, 1_001):
            for m in range(0, 5):
                assert sum(jordan_totient(m, d) for d in divisors(n)) == n**m


class TestDirichletConvolve:
    def test_mobius_star_one(self):
        assert dirichlet_convolve(mobius, lambda n: 1, 6) == 0
        assert dirichlet_convolve(mobius, lambda n: 1, 1) == 1

    def test_mobius_star_id_is_phi(self):
        assert dirichlet_convolve(mobius, lambda n: n, 6) == 2
        for n in range(1, 200):
            assert dirichlet_convolve(mobius, lambda n: n, n) == euler_phi(n)

    def test_one_star_one_is_tau(self):
        assert dirichlet_convolve(lambda n: 1, lambda n: 1, 12) == 6

    @given(st.integers(min_value=1, max_value=5000))
    @settings(max_examples=100)
    def test_convolution_is_commutative(self, n):
        f = lambda m: m + 1
        g = mobius
        assert dirichlet_convolve(f, g, n) == dirichlet_convolve(g, f, n)
