import math
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from ramavg.arith import euler_phi
from ramavg.averages import (
    COSINE_LIMIT,
    NAMED_FUNCTIONS,
    ArithmeticFunction,
    FloatPair,
    bernoulli_weighted_pair,
    binomial_weighted_cosine,
    binomial_weighted_exact,
    cos_pi,
    gamma_product_check,
    gamma_weighted_pair,
    gcd_weighted_pair,
    inverse_dft_check,
    log_factorial,
    log_weighted_pair,
    mobius_log_check,
    random_function,
    s_r_closed,
    s_r_direct,
)
from ramavg.exact import bernoulli_number, bernoulli_polynomial, binomial
from ramavg.ramanujan import ramanujan_row


class TestPowerWeight:
    def test_examples(self):
        for r in range(1, 6):
            assert s_r_direct(1, r) == 1
            assert s_r_closed(1, r) == 1
        assert s_r_direct(2, 1) == Fraction(1, 4)
        assert s_r_closed(2, 1) == Fraction(1, 4)
        assert s_r_direct(2, 2) == Fraction(3, 8)
        assert s_r_closed(2, 2) == Fraction(3, 8)

    def test_direct_equals_closed_small_grid(self):
        for k in range(1, 121):
            for r in range(1, 7):
                assert s_r_direct(k, r) == s_r_closed(k, r)

    @given(st.integers(1, 400), st.integers(1, 10))
    @settings(max_examples=80, deadline=None)
    def test_direct_equals_closed_random(self, k, r):
        assert s_r_direct(k, r) == s_r_closed(k, r)

    def test_r1_collapses_to_phi_over_2k(self):
        # For k > 1 the m = 0 term carries J_0(k) = 0, leaving phi(k)/(2k).
        for k in range(2, 2001):
            assert s_r_closed(k, 1) == Fraction(euler_phi(k), 2 * k)
        for k in range(2, 301):
            assert s_r_direct(k, 1) == Fraction(euler_phi(k), 2 * k)


class TestLogWeight:
    def test_k1_is_exactly_zero(self):
        pair = log_weighted_pair(1)
        assert pair.lhs == 0.0 and pair.rhs == 0.0

    def test_k2_both_sides_are_half_log_two(self):
        pair = log_weighted_pair(2)
        assert abs(pair.lhs - math.log(2) / 2) < 1e-12
        assert abs(pair.rhs - math.log(2) / 2) < 1e-12

    def test_k30(self):
        assert log_weighted_pair(30).abs_error <= 1e-9

    def test_sweep(self):
        for k in range(1, 301):
            assert log_weighted_pair(k).ok

    def test_log_factorial_agrees_with_lgamma(self):
        for d in (0, 1, 2, 50, 1000, 10**5, 10**5 + 1, 10**6):
            assert abs(log_factorial(d) - math.lgamma(d + 1)) <= 1e-9 * (1 + abs(log_factorial(d)))


class TestGcdWeight:
    def test_corollary_examples(self):
        pair = gcd_weighted_pair(6, NAMED_FUNCTIONS["id"])
        assert pair.lhs == pair.rhs == euler_phi(6) ** 2 == 4
        pair = gcd_weighted_pair(6, NAMED_FUNCTIONS["tau"])
        assert pair.lhs == pair.rhs == euler_phi(6) == 2
        pair = gcd_weighted_pair(6, NAMED_FUNCTIONS["sigma"])
        assert pair.lhs == pair.rhs == 6 * euler_phi(6) == 12

    def test_named_functions_small_sweep(self):
        for k in range(1, 121):
            for f in NAMED_FUNCTIONS.values():
                assert gcd_weighted_pair(k, f).ok

    def test_seeded_random_functions(self):
        for i in range(5):
            f = random_function(i)
            for k in range(1, 80):
                assert gcd_weighted_pair(k, f).ok

    def test_random_function_is_deterministic(self):
        f1 = random_function(3, seed=42)
        f2 = random_function(3, seed=42)
        g = random_function(3, seed=43)
        values1 = [f1(n) for n in range(1, 50)]
        assert values1 == [f2(n) for n in range(1, 50)]
        assert values1 != [g(n) for n in range(1, 50)]

    @given(st.integers(1, 200), st.lists(st.integers(-500, 500), min_size=200, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_integer_functions(self, k, values):
        f = ArithmeticFunction("table", lambda n: values[(n - 1) % len(values)])
        assert gcd_weighted_pair(k, f).ok

    def test_rational_valued_function(self):
        f = ArithmeticFunction("half", lambda n: Fraction(n, 2))
        pair = gcd_weighted_pair(12, f)
        assert pair.ok
        assert pair.rhs == Fraction(euler_phi(12) * euler_phi(12), 2)


class TestGammaWeight:
    def test_k2_is_minus_half_log_pi(self):
        pair = gamma_weighted_pair(2)
        assert abs(pair.lhs + math.log(math.pi) / 2) < 1e-12
        assert abs(pair.rhs + math.log(math.pi) / 2) < 1e-12

    def test_k3(self):
        assert gamma_weighted_pair(3).abs_error <= 1e-9

    def test_rejects_k1(self):
        with pytest.raises(ValueError):
            gamma_weighted_pair(1)

    def test_sweep(self):
        for k in range(2, 301):
            assert gamma_weighted_pair(k).ok


class TestGammaProduct:
    def test_n1(self):
        pair = gamma_product_check(1)
        assert pair.lhs == 0.0 and pair.rhs == 0.0

    def test_n2_is_half_log_pi(self):
        # Gamma(1/2) Gamma(1) = sqrt(pi); (1/2)log(2 pi) - (1/2)log 2 agrees.
        pair = gamma_product_check(2)
        expected = 0.5 * math.log(math.pi)
        assert abs(pair.lhs - expected) < 1e-12
        assert abs(pair.rhs - expected) < 1e-12

    def test_n24(self):
        assert gamma_product_check(24).abs_error <= 1e-9

    def test_sweep(self):
        for n in range(1, 301):
            assert gamma_product_check(n).ok


class TestMobiusLog:
    def test_examples(self):
        pair = mobius_log_check(1)
        assert pair.lhs == 0.0 and pair.rhs == 0.0
        pair = mobius_log_check(2)
        assert abs(pair.lhs + math.log(2) / 2) < 1e-12
        assert abs(pair.rhs + math.log(2) / 2) < 1e-12
        assert mobius_log_check(360).abs_error <= 1e-9

    def test_sweep(self):
        for k in range(1, 501):
            assert mobius_log_check(k).ok


class TestBinomialWeight:
    def test_exact_examples(self):
        pair = binomial_weighted_exact(1)
        assert pair.lhs == pair.rhs == 2
        pair = binomial_weighted_exact(2)
        assert pair.lhs == pair.rhs == 0
        assert binomial_weighted_exact(12).ok

    def test_exact_sweep(self):
        for k in range(1, 101):
            assert binomial_weighted_exact(k).ok

    def test_cosine_examples(self):
        pair = binomial_weighted_cosine(1)
        assert pair.lhs == 1.0 and abs(pair.rhs - 1.0) < 1e-12
        pair = binomial_weighted_cosine(2)
        assert pair.lhs == 0.0 and abs(pair.rhs) < 1e-12
        assert binomial_weighted_cosine(9).abs_error <= 1e-9

    def test_cosine_sweep(self):
        for k in range(1, 101):
            assert binomial_weighted_cosine(k).ok

    def test_cosine_rejects_oversized_k(self):
        with pytest.raises(ValueError):
            binomial_weighted_cosine(COSINE_LIMIT + 1)

    def test_term_symmetry(self):
        # C(k, j) c_k(j) = C(k, k-j) c_k(k-j) for 0 <= j <= k.
        for k in range(1, 201):
            row = ramanujan_row(k).values
            for j in range(0, k + 1):
                assert binomial(k, j) * row[j] == binomial(k, k - j) * row[k - j]


class TestCosPi:
    def test_lattice_points_are_exact(self):
        assert cos_pi(0, 5) == 1.0
        assert cos_pi(5, 5) == -1.0
        assert cos_pi(10, 5) == 1.0
        assert cos_pi(1, 2) == 0.0
        assert cos_pi(3, 2) == 0.0
        assert cos_pi(15, 10) == 0.0

    @given(st.integers(-100, 100), st.integers(1, 60))
    def test_matches_library_cosine(self, num, den):
        assert cos_pi(num, den) == pytest.approx(math.cos(math.pi * num / den), abs=1e-12)


class TestBernoulliWeight:
    def test_examples(self):
        for m in range(1, 9):
            pair = bernoulli_weighted_pair(1, m)
            assert pair.lhs == pair.rhs == bernoulli_number(m)
        pair = bernoulli_weighted_pair(2, 2)
        assert pair.lhs == pair.rhs == Fraction(1, 4)
        assert bernoulli_weighted_pair(12, 4).ok

    def test_small_sweep(self):
        for k in range(1, 61):
            for m in range(1, 7):
                assert bernoulli_weighted_pair(k, m).ok

    def test_scaled_horner_matches_naive_polynomial_sum(self):
        # The pair evaluator sums cached integer power moments; check it
        # against per-term bernoulli_polynomial evaluation.
        for k in range(1, 26):
            row = ramanujan_row(k).values
            for m in range(1, 6):
                naive = sum(
                    bernoulli_polynomial(m, Fraction(j, k)) * row[j] for j in range(k)
                )
                assert bernoulli_weighted_pair(k, m).lhs == naive


class TestInverseDft:
    def test_examples(self):
        pair = inverse_dft_check(1, 7)
        assert pair.ok and pair.rhs == 1.0
        pair = inverse_dft_check(4, 2)
        assert pair.ok and pair.rhs == 0.0 and abs(pair.lhs) <= 1e-9
        pair = inverse_dft_check(4, 1)
        assert pair.ok and pair.rhs == 1.0 and abs(pair.lhs - 1.0) <= 1e-9

    def test_small_grid(self):
        for k in range(1, 61):
            for n in range(1, 61):
                pair = inverse_dft_check(k, n)
                assert pair.ok
                assert pair.rhs == (1.0 if math.gcd(k, n) == 1 else 0.0)

    def test_rejects_oversized_k(self):
        with pytest.raises(ValueError):
            inverse_dft_check(10**5 + 1, 1)


class TestFloatPair:
    def test_error_is_stored_and_the_rule_is_mixed(self):
        pair = FloatPair(1.0, 1.5)
        assert pair.abs_error == 0.5 and not pair.ok
        # |lhs - rhs| <= tol * (1 + max|side|): loose for large sides, absolute near 0.
        assert FloatPair(1e9, 1e9 + 5.0).ok
        assert FloatPair(0.0, 5e-9).ok
        assert not FloatPair(0.0, 2e-8).ok
