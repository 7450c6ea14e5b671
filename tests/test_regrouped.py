"""Each regrouped direct side equals the literal per-j sum it replaces.

The evaluators of the power, gcd and Bernoulli weights group the terms
of their left sides (by gcd class, by power moment), and every
power-weighted closed side sits over one integer denominator
(exact.power_sum_closed). The sums below are written out term by term,
with chained Fractions, as the definitions read.
"""

import math
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings

from ramavg.arith import dirichlet_convolve, divisors, euler_phi, jordan_totient, mobius
from ramavg.averages import (
    NAMED_FUNCTIONS,
    ArithmeticFunction,
    bernoulli_weighted_pair,
    gcd_weighted_pair,
    random_function,
    s_r_closed,
    s_r_direct,
)
from ramavg.arith import factorize
from ramavg.exact import (
    bernoulli_number,
    bernoulli_polynomial,
    binomial,
    coprime_power_sum,
    half_sum_check,
    power_sum,
)
from ramavg.multivar import g_m, s_r_multi_closed
from ramavg.ramanujan import ramanujan_row
from ramavg.verify import run_identity

K = st.integers(1, 200)


def literal_gcd_lhs(k, f):
    row = ramanujan_row(k).values
    return sum(f(math.gcd(j, k)) * row[j] for j in range(1, k + 1))


def literal_gcd_rhs(k, f):
    return euler_phi(k) * sum(Fraction(mobius(d)) * f(k // d) for d in divisors(k))


RATIONAL_F = ArithmeticFunction("rational", lambda n: Fraction(n * n + 1, n + 2))


class TestGcdClasses:
    @given(K, st.sampled_from(sorted(NAMED_FUNCTIONS)))
    @settings(max_examples=60, deadline=None)
    def test_named_functions(self, k, name):
        f = NAMED_FUNCTIONS[name]
        pair = gcd_weighted_pair(k, f)
        assert pair.lhs == literal_gcd_lhs(k, f)
        assert pair.rhs == literal_gcd_rhs(k, f)

    @given(K, st.integers(0, 19), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_random_functions(self, k, index, seed):
        f = random_function(index, seed)
        pair = gcd_weighted_pair(k, f)
        assert pair.lhs == literal_gcd_lhs(k, f)
        assert pair.rhs == literal_gcd_rhs(k, f)

    @given(K)
    @settings(max_examples=40, deadline=None)
    def test_rational_valued_function(self, k):
        pair = gcd_weighted_pair(k, RATIONAL_F)
        assert pair.lhs == literal_gcd_lhs(k, RATIONAL_F)
        assert pair.rhs == literal_gcd_rhs(k, RATIONAL_F)
        assert pair.ok

    @given(K)
    @settings(max_examples=40, deadline=None)
    def test_dirichlet_convolve_with_fractions(self, n):
        g = lambda m: Fraction(1, m + 1)  # noqa: E731
        expected = sum(Fraction(RATIONAL_F(d)) * Fraction(g(n // d)) for d in divisors(n))
        result = dirichlet_convolve(RATIONAL_F, g, n)
        assert isinstance(result, Fraction) and result == expected
        assert dirichlet_convolve(mobius, euler_phi, n) == sum(
            Fraction(mobius(d) * euler_phi(n // d)) for d in divisors(n)
        )


class TestPowerMoments:
    @given(K, st.integers(1, 10))
    @settings(max_examples=80, deadline=None)
    def test_s_r_direct(self, k, r):
        row = ramanujan_row(k).values
        literal = Fraction(sum(j**r * row[j] for j in range(1, k + 1)), k ** (r + 1))
        assert s_r_direct(k, r) == literal

    @given(K, st.integers(1, 10))
    @settings(max_examples=80, deadline=None)
    def test_s_r_closed_against_chained_fractions(self, k, r):
        chained = Fraction(euler_phi(k), 2 * k)
        for m in range(r // 2 + 1):
            chained += (
                Fraction(binomial(r + 1, 2 * m), r + 1)
                * bernoulli_number(2 * m)
                * Fraction(jordan_totient(2 * m, k), k ** (2 * m))
            )
        assert s_r_closed(k, r) == chained

    @given(st.lists(st.integers(1, 30), min_size=1, max_size=3), st.integers(1, 10))
    @settings(max_examples=80, deadline=None)
    def test_s_r_multi_closed_against_chained_fractions(self, ks, r):
        k = math.lcm(*ks)
        chained = Fraction(math.prod(euler_phi(ki) for ki in ks), 2 * k)
        for m in range(r // 2 + 1):
            chained += (
                Fraction(binomial(r + 1, 2 * m), r + 1)
                * bernoulli_number(2 * m)
                * g_m(ks, m)
                / k ** (2 * m)
            )
        assert s_r_multi_closed(ks, r) == chained

    @given(K, st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_bernoulli_weight(self, k, m):
        row = ramanujan_row(k).values
        pair = bernoulli_weighted_pair(k, m)
        assert pair.lhs == sum(bernoulli_polynomial(m, Fraction(j, k)) * row[j] for j in range(k))
        assert pair.rhs == bernoulli_number(m) * Fraction(jordan_totient(m, k), k ** (m - 1))


class TestBernoulliPolySum:
    @given(st.integers(1, 120), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_direct_side(self, k, m):
        literal = sum(bernoulli_polynomial(m, Fraction(j, k)) for j in range(k))
        case = run_identity("bernoulli-poly-sum", (k, m))
        assert case.passed
        assert Fraction(case.lhs) == literal


class TestFaulhaberClosedForms:
    """The exact closed forms against the chained-Fraction loops they replace."""

    @given(st.integers(1, 300), st.integers(1, 16))
    @settings(max_examples=80, deadline=None)
    def test_power_sum(self, n, r):
        acc = Fraction(n**r, 2)
        for m in range(r // 2 + 1):
            term = Fraction(binomial(r + 1, 2 * m) * n ** (r + 1 - 2 * m), r + 1)
            acc += term * bernoulli_number(2 * m)
        assert power_sum(n, r) == acc

    @given(st.integers(2, 300), st.integers(1, 16))
    @settings(max_examples=80, deadline=None)
    def test_coprime_power_sum(self, n, r):
        acc = Fraction(0)
        for m in range(r // 2 + 1):
            term = Fraction(binomial(r + 1, 2 * m)) * bernoulli_number(2 * m) / n ** (2 * m)
            for p in factorize(n).primes:
                term *= 1 - Fraction(p) ** (2 * m - 1)
            acc += term
        acc *= Fraction(n ** (r + 1), r + 1)
        assert coprime_power_sum(n, r) == acc

    @given(st.integers(0, 60))
    @settings(max_examples=40, deadline=None)
    def test_half_sum(self, r):
        chained = Fraction(
            sum(binomial(r + 1, 2 * m) * bernoulli_number(2 * m) for m in range(r // 2 + 1))
        )
        assert half_sum_check(r) == chained
