"""Each regrouped direct side equals the literal per-j sum it replaces.

The evaluators of the power, gcd and Bernoulli weights group the terms
of their left sides (by gcd class, by power moment), and every
power-weighted closed side sits over one integer denominator
(exact.power_sum_closed). The sums below are written out term by term,
with chained Fractions, as the definitions read. The two float Fourier
sums (the inverse DFT and the definitional c_k(j)) read one cached FFT per
modulus; they are pinned to the per-case numpy sums they replace. The
batches of the three c_k evaluators, two of them once per gcd class, are
pinned to each evaluator's formula written out at every j.
"""

import math
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

import ramavg.averages as averages
import ramavg.ramanujan as ramanujan

from ramavg.arith import dirichlet_convolve, divisors, euler_phi, jordan_totient, mobius
from ramavg.averages import (
    NAMED_FUNCTIONS,
    bernoulli_weighted_pair,
    gcd_weighted_batch,
    gcd_weighted_pair,
    inverse_dft_check,
    random_function,
    s_r_closed,
    s_r_direct,
)
from ramavg.arith import factorize
from ramavg.exact import (
    bernoulli_number,
    bernoulli_polynomial,
    coprime_power_sum,
    half_sum_check,
    power_sum,
)
from ramavg.multivar import g_m, s_r_multi_closed
from ramavg.ramanujan import (
    FLOAT_EVAL_LIMIT,
    EvaluationError,
    ramanujan_row,
    ramanujan_sum_batch,
    ramanujan_sum_float,
    ramanujan_sum_float_batch,
    ramanujan_sum_holder_batch,
)
from ramavg.verify import run_identity

K = st.integers(1, 200)


def literal_gcd_lhs(k, f):
    row = ramanujan_row(k)
    return sum(f(math.gcd(j, k)) * row[j] for j in range(1, k + 1))


def literal_gcd_rhs(k, f):
    return euler_phi(k) * sum(Fraction(mobius(d)) * f(k // d) for d in divisors(k))


def rational_f(n):
    return Fraction(n * n + 1, n + 2)


MIXED_F = st.one_of(
    st.sampled_from(sorted(NAMED_FUNCTIONS)).map(NAMED_FUNCTIONS.__getitem__),
    st.builds(random_function, st.integers(0, 19), st.integers(0, 2**32)),
    st.just(rational_f),
)


class TestGcdClasses:
    @given(K, st.sampled_from(sorted(NAMED_FUNCTIONS)))
    @settings(max_examples=60, deadline=None)
    def test_named_functions(self, k, name):
        f = NAMED_FUNCTIONS[name]
        assert gcd_weighted_pair(k, f) == (literal_gcd_lhs(k, f), literal_gcd_rhs(k, f))

    @given(K, st.integers(0, 19), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_random_functions(self, k, index, seed):
        f = random_function(index, seed)
        assert gcd_weighted_pair(k, f) == (literal_gcd_lhs(k, f), literal_gcd_rhs(k, f))

    @given(K)
    @settings(max_examples=40, deadline=None)
    def test_rational_valued_function(self, k):
        lhs, rhs = gcd_weighted_pair(k, rational_f)
        assert lhs == literal_gcd_lhs(k, rational_f)
        assert rhs == literal_gcd_rhs(k, rational_f)
        assert lhs == rhs

    @given(st.integers(1, 60), st.lists(MIXED_F, max_size=8))
    @example(1, [NAMED_FUNCTIONS["sigma"], random_function(3, 7), rational_f])
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_its_pairs(self, k, fs):
        # One read of the per-modulus data serves every f of the batch,
        # and each f keeps its own pair: no value leaks between them.
        lhs_column, rhs_column = gcd_weighted_batch(k, fs)
        assert list(zip(lhs_column, rhs_column)) == [gcd_weighted_pair(k, f) for f in fs]
        assert len(lhs_column) == len(rhs_column) == len(fs)
        for lhs, rhs, f in zip(lhs_column, rhs_column, fs):
            # Integer-valued functions keep int sides; a rational one gives
            # Fractions.
            assert type(lhs) is type(rhs) is (Fraction if f is rational_f else int)
            assert lhs == literal_gcd_lhs(k, f)
            assert rhs == literal_gcd_rhs(k, f)

    @given(K)
    @settings(max_examples=40, deadline=None)
    def test_dirichlet_convolve_with_fractions(self, n):
        g = lambda m: Fraction(1, m + 1)  # noqa: E731
        expected = sum(Fraction(rational_f(d)) * Fraction(g(n // d)) for d in divisors(n))
        result = dirichlet_convolve(rational_f, g, n)
        assert isinstance(result, Fraction) and result == expected
        assert dirichlet_convolve(mobius, euler_phi, n) == sum(
            Fraction(mobius(d) * euler_phi(n // d)) for d in divisors(n)
        )


class TestPowerMoments:
    @given(K, st.integers(1, 10))
    @settings(max_examples=80, deadline=None)
    def test_s_r_direct(self, k, r):
        row = ramanujan_row(k)
        literal = Fraction(sum(j**r * row[j] for j in range(1, k + 1)), k ** (r + 1))
        assert s_r_direct(k, r) == literal

    @given(K, st.integers(1, 10))
    @settings(max_examples=80, deadline=None)
    def test_s_r_closed_against_chained_fractions(self, k, r):
        chained = Fraction(euler_phi(k), 2 * k)
        for m in range(r // 2 + 1):
            chained += (
                Fraction(math.comb(r + 1, 2 * m), r + 1)
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
                Fraction(math.comb(r + 1, 2 * m), r + 1)
                * bernoulli_number(2 * m)
                * g_m(ks, m)
                / k ** (2 * m)
            )
        assert s_r_multi_closed(ks, r) == chained

    @given(K, st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_bernoulli_weight(self, k, m):
        row = ramanujan_row(k)
        lhs, rhs = bernoulli_weighted_pair(k, m)
        assert lhs == sum(bernoulli_polynomial(m, Fraction(j, k)) * row[j] for j in range(k))
        assert rhs == bernoulli_number(m) * Fraction(jordan_totient(m, k), k ** (m - 1))


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
            term = Fraction(math.comb(r + 1, 2 * m) * n ** (r + 1 - 2 * m), r + 1)
            acc += term * bernoulli_number(2 * m)
        assert power_sum(n, r) == acc

    @given(st.integers(2, 300), st.integers(1, 16))
    @settings(max_examples=80, deadline=None)
    def test_coprime_power_sum(self, n, r):
        acc = Fraction(0)
        for m in range(r // 2 + 1):
            term = Fraction(math.comb(r + 1, 2 * m)) * bernoulli_number(2 * m) / n ** (2 * m)
            for p, _ in factorize(n):
                term *= 1 - Fraction(p) ** (2 * m - 1)
            acc += term
        acc *= Fraction(n ** (r + 1), r + 1)
        assert coprime_power_sum(n, r) == acc

    @given(st.integers(0, 60))
    @settings(max_examples=40, deadline=None)
    def test_half_sum(self, r):
        chained = Fraction(
            sum(math.comb(r + 1, 2 * m) * bernoulli_number(2 * m) for m in range(r // 2 + 1))
        )
        assert half_sum_check(r) == chained


def numpy_dft_mean(k, n):
    """(1/k) sum_{j=1}^{k} exp(2 pi i j n / k) c_k(j), one case at a time."""
    roots = np.exp(2j * np.pi * np.arange(k) / k)
    row = np.array(ramanujan_row(k)[1:], dtype=np.float64)
    jarr = np.arange(1, k + 1, dtype=np.int64)
    return float((row * roots[(jarr * n) % k]).sum().real) / k


def numpy_root_sum(k, j):
    """sum over m coprime to k of exp(2 pi i m j / k), one case at a time."""
    roots = np.exp(2j * np.pi * np.arange(k) / k)
    coprime = np.array([m for m in range(1, k + 1) if math.gcd(m, k) == 1], dtype=np.int64)
    return float(roots[(coprime * j) % k].sum().real)


class TestFourierSums:
    """One FFT per modulus against the per-case numpy sums it replaces."""

    @given(st.integers(1, 300), st.integers(1, 900))
    @settings(max_examples=120, deadline=None)
    def test_inverse_dft(self, k, n):
        for m in (n, k * (n % 4 + 1)):  # any n, and n = 0 (mod k)
            assert abs(inverse_dft_check(k, m)[0] - numpy_dft_mean(k, m)) <= 1e-9 * k

    @given(st.integers(1, 300), st.integers(-900, 900))
    @settings(max_examples=120, deadline=None)
    def test_float_oracle(self, k, j):
        for i in (j, k * (j % 4)):  # any j, negative ones too, and j = 0 (mod k)
            assert abs(ramanujan_sum_float(k, i) - numpy_root_sum(k, i)) <= 1e-9 * k

    def test_k_one(self):
        for i in (-2, 0, 1, 5):
            assert ramanujan_sum_float(1, i) == numpy_root_sum(1, i) == 1.0
        for n in (1, 2, 7):
            assert inverse_dft_check(1, n)[0] == numpy_dft_mean(1, n) == 1.0

    def test_at_the_evaluation_limits(self):
        k = FLOAT_EVAL_LIMIT
        for j in (0, 1, 12345, -40000, k):
            assert abs(ramanujan_sum_float(k, j) - numpy_root_sum(k, j)) <= 1e-9 * k
        k = averages.DFT_LIMIT
        for n in (1, 2, 12345, k, 3 * k + 7):
            assert abs(inverse_dft_check(k, n)[0] - numpy_dft_mean(k, n)) <= 1e-9 * k

    def test_imaginary_part_guards(self, monkeypatch):
        # The inverse DFT allows |Im| <= 1e-8 on the mean; the float oracle
        # |Im| < 1e-6 k on the sum. Values on both sides of each bound.
        k = 7
        monkeypatch.setattr(averages, "_dft_values", lambda k: np.full(k, 1 + 0.9e-8j))
        assert inverse_dft_check(k, 3)[0] == 1.0
        monkeypatch.setattr(averages, "_dft_values", lambda k: np.full(k, 1 + 1.1e-8j))
        with pytest.raises(EvaluationError, match="imaginary"):
            inverse_dft_check(k, 3)
        monkeypatch.setattr(ramanujan, "_float_row", lambda k: np.full(k, 1 + 0.9e-6j * k))
        assert ramanujan_sum_float(k, 3) == 1.0
        monkeypatch.setattr(ramanujan, "_float_row", lambda k: np.full(k, 1 + 1.1e-6j * k))
        with pytest.raises(EvaluationError, match="imaginary"):
            ramanujan_sum_float(k, 3)


class TestRamanujanBatches:
    """Each batch of c_k against its evaluator's formula, one j at a time,
    for every j in [-2k, 2k]: j = 0, j = k and negative j among them."""

    @given(st.integers(1, 300))
    @settings(max_examples=30, deadline=None)
    @example(1)
    @example(300)
    def test_each_batch_is_its_formula_at_every_j(self, k):
        js = list(range(-2 * k, 2 * k + 1))
        divisor = ramanujan_sum_batch(k, js)
        holder = ramanujan_sum_holder_batch(k, js)
        floats = ramanujan_sum_float_batch(k, js)
        assert len(divisor) == len(holder) == len(floats) == len(js)
        for j, a, b, f in zip(js, divisor, holder, floats):
            g = math.gcd(k, j % k)
            assert a == sum(d * mobius(k // d) for d in divisors(g))
            assert b == Fraction(euler_phi(k) * mobius(k // g), euler_phi(k // g))
            assert type(a) is int and type(b) is int and type(f) is float
            assert abs(f - numpy_root_sum(k, j)) <= 1e-9 * k

    def test_a_batch_of_none_is_empty(self):
        for batch in (ramanujan_sum_batch, ramanujan_sum_holder_batch, ramanujan_sum_float_batch):
            assert batch(6, []) == []

    def test_errors_name_the_batch_and_the_first_failing_j(self, monkeypatch):
        for batch in (ramanujan_sum_batch, ramanujan_sum_holder_batch, ramanujan_sum_float_batch):
            with pytest.raises(ValueError, match=f"{batch.__name__} requires k >= 1"):
                batch(0, [1])
        # Entries 3 and 5 of the row of 7 have a large imaginary part: 12 is
        # the first j of the batch that reads one (12 = 5 mod 7).
        row = np.ones(7, dtype=complex)
        row[[3, 5]] += 1j
        monkeypatch.setattr(ramanujan, "_float_row", lambda k: row)
        with pytest.raises(EvaluationError, match="too large for k=7, j=12$"):
            ramanujan_sum_float_batch(7, [1, 12, 10, 3])
        # An inexact Holder division in the class g = 3 of k = 6 (phi(2)
        # read as 7): 9 is the first j of that class.
        real_phi = ramanujan.euler_phi
        monkeypatch.setattr(ramanujan, "euler_phi", lambda n: 7 if n == 2 else real_phi(n))
        with pytest.raises(EvaluationError, match="not exact for k=6, j=9$"):
            ramanujan_sum_holder_batch(6, [1, 2, 9, 3, -3])
