import math
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from ramavg.exact import (
    DEGREE_CAP,
    bernoulli_number,
    bernoulli_polynomial,
    bernoulli_polynomial_coefficients,
    coprime_power_sum,
    half_sum_check,
    power_sum,
)


class TestBernoulliNumbers:
    def test_first_values(self):
        assert bernoulli_number(0) == 1
        assert bernoulli_number(1) == Fraction(-1, 2)
        assert bernoulli_number(2) == Fraction(1, 6)
        assert bernoulli_number(4) == Fraction(-1, 30)
        assert bernoulli_number(12) == Fraction(-691, 2730)

    def test_odd_values_vanish(self):
        for m in range(3, 41, 2):
            assert bernoulli_number(m) == 0

    def test_defining_recurrence(self):
        # sum_{j=0}^{m} C(m+1, j) B_j = 0 for m >= 1 is the oracle.
        for m in range(1, 41):
            acc = sum(math.comb(m + 1, j) * bernoulli_number(j) for j in range(m + 1))
            assert acc == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bernoulli_number(-1)


class TestBernoulliPolynomials:
    def test_examples(self):
        assert bernoulli_polynomial(1, Fraction(1, 2)) == 0
        assert bernoulli_polynomial(2, Fraction(1, 2)) == Fraction(-1, 12)
        for m in range(0, 12):
            assert bernoulli_polynomial(m, 0) == bernoulli_number(m)

    def test_difference_at_endpoints(self):
        assert bernoulli_polynomial(1, 1) - bernoulli_polynomial(1, 0) == 1
        for m in range(2, 12):
            assert bernoulli_polynomial(m, 1) == bernoulli_polynomial(m, 0)

    @given(
        st.integers(1, 8),
        st.fractions(min_value=-4, max_value=4, max_denominator=40),
    )
    def test_forward_difference_is_derivative_kernel(self, m, x):
        # B_m(x+1) - B_m(x) = m x^(m-1), the Appell forward difference.
        assert bernoulli_polynomial(m, x + 1) - bernoulli_polynomial(m, x) == m * x ** (m - 1)

    def test_multiplication_lemma(self):
        # sum_{j=0}^{k-1} B_m(j/k) = B_m / k^(m-1)
        for k in range(1, 61):
            for m in range(1, 9):
                total = sum(bernoulli_polynomial(m, Fraction(j, k)) for j in range(k))
                assert total == bernoulli_number(m) / k ** (m - 1)

    def test_the_coefficient_cache_holds_every_degree_up_to_the_cap(self):
        # A sweep reads its degrees in order once per leading value, up to
        # m = r + 1 = DEGREE_CAP + 1. Past 256 degrees, a cache smaller than
        # that would evict each degree before its next read: the second
        # pass would miss every one again.
        bernoulli_polynomial_coefficients.cache_clear()
        degrees = range(1, DEGREE_CAP + 2)
        for _ in range(2):
            for m in degrees:
                bernoulli_polynomial_coefficients(m)
        assert bernoulli_polynomial_coefficients.cache_info().misses == len(degrees)


class TestPowerSum:
    def test_examples(self):
        assert power_sum(3, 2) == 14
        for r in range(1, 8):
            assert power_sum(1, r) == 1
        assert power_sum(100, 5) == sum(j**5 for j in range(1, 101))

    def test_brute_force_grid(self):
        for n in range(1, 201):
            for r in range(1, 11):
                assert power_sum(n, r) == sum(j**r for j in range(1, n + 1))

    @given(st.integers(1, 300), st.integers(1, 8))
    @settings(max_examples=60)
    def test_brute_force_random(self, n, r):
        assert power_sum(n, r) == sum(j**r for j in range(1, n + 1))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            power_sum(0, 2)
        with pytest.raises(ValueError):
            power_sum(3, 0)


class TestCoprimePowerSum:
    @staticmethod
    def brute(n, r):
        return sum(j**r for j in range(1, n + 1) if math.gcd(j, n) == 1)

    def test_examples(self):
        assert coprime_power_sum(4, 1) == self.brute(4, 1) == 4
        assert coprime_power_sum(6, 1) == self.brute(6, 1) == 6
        assert coprime_power_sum(10, 3) == self.brute(10, 3)

    def test_brute_force_grid(self):
        for n in range(2, 201):
            for r in range(1, 9):
                assert coprime_power_sum(n, r) == self.brute(n, r)

    def test_rejects_n_equal_one(self):
        with pytest.raises(ValueError):
            coprime_power_sum(1, 2)


class TestHalfSum:
    def test_examples(self):
        assert half_sum_check(1) == 1
        assert half_sum_check(10) == Fraction(11, 2)

    def test_equals_half_of_r_plus_one(self):
        for r in range(1, 41):
            assert half_sum_check(r) == Fraction(r + 1, 2)

    def test_r_zero_is_the_lone_exception(self):
        # At r = 0 the sum is the single term B_0 = 1; the (r+1)/2 closed
        # value needs the m = 1 binomial term, which first exists at r = 1.
        assert half_sum_check(0) == 1
