import itertools
import math
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import ramavg.averages as averages
import ramavg.multivar as multivar
from ramavg.arith import divisors, euler_phi, mobius
from ramavg.averages import (
    COSINE_LIMIT,
    NAMED_FUNCTIONS,
    bernoulli_weighted_batch,
    bernoulli_weighted_pair,
    binomial_weighted_cosine,
    binomial_weighted_exact,
    cos_pi,
    gamma_product_check,
    gamma_weighted_pair,
    gcd_weighted_batch,
    gcd_weighted_pair,
    inverse_dft_batch,
    inverse_dft_check,
    log_factorial,
    log_weighted_pair,
    mobius_log_check,
    random_function,
    s_r_closed,
    s_r_closed_batch,
    s_r_direct,
)
from ramavg.arith import jordan_totient
from ramavg.exact import bernoulli_number, bernoulli_polynomial, coprime_power_sum, half_sum_check
from ramavg.ramanujan import ramanujan_row
from ramavg.verify import DEFAULT_TOLERANCE, IdentityDef, Param, _compare, within_tolerance


@pytest.mark.parametrize("batch, args, message", [
    # prop1's direct side: multivar's S_r of the one-modulus tuple (k,).
    (multivar.s_r_multi_direct_batch, ((3,), [1, 0]), "r >= 1, got 0"),
    (gcd_weighted_batch, (0, [NAMED_FUNCTIONS["id"]]), "k >= 1, got 0"),
    (bernoulli_weighted_batch, (3, [1, 0]), "k >= 1 and m >= 1"),
    (inverse_dft_batch, (3, [1, 0]), "k >= 1 and n >= 1"),
    (s_r_closed_batch, (3, [1, 0]), "k >= 1 and r >= 1"),
])
def test_a_batch_names_itself_in_its_error(batch, args, message):
    with pytest.raises(ValueError, match=rf"^{batch.__name__} requires {message}$"):
        batch(*args)


@pytest.mark.parametrize("fn, args, message", [
    (jordan_totient, (2, 0), "n >= 1, got 0"),
    (jordan_totient, (-1, 5), "m >= 0, got -1"),
    (log_factorial, (-1,), "d >= 0, got -1"),
    (log_weighted_pair, (0,), "k >= 1, got 0"),
    (mobius_log_check, (0,), "k >= 1, got 0"),
    (binomial_weighted_exact, (0,), "k >= 1, got 0"),
    (binomial_weighted_cosine, (0,), "k >= 1, got 0"),
    (gamma_product_check, (0,), "n >= 1, got 0"),
    (bernoulli_polynomial, (-1, 0), "m >= 0, got -1"),
    (coprime_power_sum, (5, 0), "r >= 1"),
    (half_sum_check, (-1,), "r >= 0, got -1"),
], ids=lambda v: v.__name__ if callable(v) else None)
def test_a_value_outside_the_domain_is_refused(fn, args, message):
    # No case that verify's schema admits reaches these, so inside a sweep
    # this ValueError is a program bug.
    with pytest.raises(ValueError, match=rf"^{fn.__name__} requires {message}$"):
        fn(*args)


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

    def test_a_closed_batch_reads_each_jordan_totient_once(self, monkeypatch):
        # rs in any order, repeats included: each r is its own closed form,
        # from J_0(k)..J_10(k) read once for the batch.
        rs = [3, 10, 1, 4, 10, 7]
        calls = []
        real = averages.jordan_totient
        monkeypatch.setattr(averages, "jordan_totient", lambda m, n: calls.append(m) or real(m, n))
        for k in (1, 12, 97, 360):
            calls.clear()
            batch = s_r_closed_batch(k, rs)
            assert calls == [0, 2, 4, 6, 8, 10]
            assert batch == [s_r_closed(k, r) for r in rs] == [s_r_direct(k, r) for r in rs]
        assert s_r_closed_batch(5, []) == []

    def test_r1_collapses_to_phi_over_2k(self):
        # For k > 1 the m = 0 term carries J_0(k) = 0, leaving phi(k)/(2k).
        for k in range(2, 2001):
            assert s_r_closed(k, 1) == Fraction(euler_phi(k), 2 * k)
        for k in range(2, 301):
            assert s_r_direct(k, 1) == Fraction(euler_phi(k), 2 * k)


class TestLogWeight:
    def test_k1_is_exactly_zero(self):
        assert log_weighted_pair(1) == (0.0, 0.0)

    def test_k2_both_sides_are_half_log_two(self):
        lhs, rhs = log_weighted_pair(2)
        assert abs(lhs - math.log(2) / 2) < 1e-12
        assert abs(rhs - math.log(2) / 2) < 1e-12

    def test_k30(self):
        lhs, rhs = log_weighted_pair(30)
        assert abs(lhs - rhs) <= 1e-9

    def test_sweep(self):
        for k in range(1, 301):
            assert within_tolerance(*log_weighted_pair(k), DEFAULT_TOLERANCE)

    def test_log_factorial_agrees_with_lgamma(self):
        for d in (0, 1, 2, 50, 1000, 10**5, 10**5 + 1, 10**6):
            assert abs(log_factorial(d) - math.lgamma(d + 1)) <= 1e-9 * (1 + abs(log_factorial(d)))

    def test_log_factorial_is_within_5e_16_of_the_fsum_of_the_logs(self):
        # Compensated summation stays within 1.8e-16 of math.fsum's correctly
        # rounded sum of the same logs for d <= 3,000; plain summation
        # drifts to 1.8e-15.
        logs = [math.log(m) for m in range(1, 3001)]
        assert log_factorial(0) == log_factorial(1) == 0.0
        for d in range(2, 3001):
            exact = math.fsum(logs[:d])
            assert abs(log_factorial(d) - exact) <= 5e-16 * exact, d

    def test_log_factorial_past_the_table_is_lgamma(self):
        for d in (averages._LOG_FACT_TABLE_LIMIT + 1, 10**6, 10**9):
            assert log_factorial(d) == math.lgamma(d + 1)

    def test_a_table_extended_in_steps_equals_one_built_at_once(self, monkeypatch):
        # The compensation is carried across extensions, so the steps at
        # which the table grows do not change a single float.
        def table(steps):
            monkeypatch.setattr(averages, "_log_fact_table", [0.0, 0.0])
            monkeypatch.setattr(averages, "_log_fact_comp", 0.0)
            for d in steps:
                log_factorial(d)
            return averages._log_fact_table

        at_once = table([3000])
        assert len(at_once) == 3001
        assert table([2, 3, 17, 500, 501, 1234, 2999, 3000]) == at_once


class TestGcdWeight:
    def test_corollary_examples(self):
        lhs, rhs = gcd_weighted_pair(6, NAMED_FUNCTIONS["id"])
        assert lhs == rhs == euler_phi(6) ** 2 == 4
        lhs, rhs = gcd_weighted_pair(6, NAMED_FUNCTIONS["tau"])
        assert lhs == rhs == euler_phi(6) == 2
        lhs, rhs = gcd_weighted_pair(6, NAMED_FUNCTIONS["sigma"])
        assert lhs == rhs == 6 * euler_phi(6) == 12

    def test_named_functions_small_sweep(self):
        for k in range(1, 121):
            for f in NAMED_FUNCTIONS.values():
                lhs, rhs = gcd_weighted_pair(k, f)
                assert lhs == rhs

    def test_seeded_random_functions(self):
        for i in range(5):
            f = random_function(i)
            for k in range(1, 80):
                lhs, rhs = gcd_weighted_pair(k, f)
                assert lhs == rhs

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
        lhs, rhs = gcd_weighted_pair(k, lambda n: values[(n - 1) % len(values)])
        assert lhs == rhs

    def test_rational_valued_function(self):
        lhs, rhs = gcd_weighted_pair(12, lambda n: Fraction(n, 2))
        assert lhs == rhs == Fraction(euler_phi(12) * euler_phi(12), 2)


class TestGammaWeight:
    def test_k2_is_minus_half_log_pi(self):
        lhs, rhs = gamma_weighted_pair(2)
        assert abs(lhs + math.log(math.pi) / 2) < 1e-12
        assert abs(rhs + math.log(math.pi) / 2) < 1e-12

    def test_k3(self):
        lhs, rhs = gamma_weighted_pair(3)
        assert abs(lhs - rhs) <= 1e-9

    def test_rejects_k1(self):
        with pytest.raises(ValueError):
            gamma_weighted_pair(1)

    def test_sweep(self):
        for k in range(2, 301):
            assert within_tolerance(*gamma_weighted_pair(k), DEFAULT_TOLERANCE)

    def test_direct_side_reads_no_phi(self, monkeypatch):
        # The direct side divides by the row's c_k(0), an int equal to
        # phi(k): every float is unchanged and phi, a closed-side
        # primitive, is never read.
        expected = [gamma_weighted_pair(k) for k in range(2, 61)]

        def refuse_phi(n):
            raise AssertionError(f"gamma_weighted_pair read phi({n})")

        monkeypatch.setattr(averages, "euler_phi", refuse_phi)
        assert [gamma_weighted_pair(k) for k in range(2, 61)] == expected


class TestGammaProduct:
    def test_n1(self):
        assert gamma_product_check(1) == (0.0, 0.0)

    def test_n2_is_half_log_pi(self):
        # Gamma(1/2) Gamma(1) = sqrt(pi); (1/2)log(2 pi) - (1/2)log 2 agrees.
        lhs, rhs = gamma_product_check(2)
        expected = 0.5 * math.log(math.pi)
        assert abs(lhs - expected) < 1e-12
        assert abs(rhs - expected) < 1e-12

    def test_n24(self):
        lhs, rhs = gamma_product_check(24)
        assert abs(lhs - rhs) <= 1e-9

    def test_sweep(self):
        for n in range(1, 301):
            assert within_tolerance(*gamma_product_check(n), DEFAULT_TOLERANCE)


class TestMobiusLog:
    def test_examples(self):
        assert mobius_log_check(1) == (0.0, 0.0)
        lhs, rhs = mobius_log_check(2)
        assert abs(lhs + math.log(2) / 2) < 1e-12
        assert abs(rhs + math.log(2) / 2) < 1e-12
        lhs, rhs = mobius_log_check(360)
        assert abs(lhs - rhs) <= 1e-9

    def test_sweep(self):
        for k in range(1, 501):
            assert within_tolerance(*mobius_log_check(k), DEFAULT_TOLERANCE)


class TestBinomialWeight:
    def test_exact_examples(self):
        assert binomial_weighted_exact(1) == (2, 2)
        assert binomial_weighted_exact(2) == (0, 0)
        lhs, rhs = binomial_weighted_exact(12)
        assert lhs == rhs

    def test_exact_sweep(self):
        for k in range(1, 101):
            lhs, rhs = binomial_weighted_exact(k)
            assert lhs == rhs

    def test_cosine_examples(self):
        lhs, rhs = binomial_weighted_cosine(1)
        assert lhs == 1.0 and abs(rhs - 1.0) < 1e-12
        lhs, rhs = binomial_weighted_cosine(2)
        assert lhs == 0.0 and abs(rhs) < 1e-12
        lhs, rhs = binomial_weighted_cosine(9)
        assert abs(lhs - rhs) <= 1e-9

    def test_cosine_sweep(self):
        for k in range(1, 101):
            assert within_tolerance(*binomial_weighted_cosine(k), DEFAULT_TOLERANCE)

    def test_cosine_rejects_oversized_k(self):
        with pytest.raises(ValueError):
            binomial_weighted_cosine(COSINE_LIMIT + 1)

    def test_term_symmetry(self):
        # C(k, j) c_k(j) = C(k, k-j) c_k(k-j) for 0 <= j <= k.
        for k in range(1, 201):
            row = ramanujan_row(k)
            for j in range(0, k + 1):
                assert math.comb(k, j) * row[j] == math.comb(k, k - j) * row[k - j]


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
            lhs, rhs = bernoulli_weighted_pair(1, m)
            assert lhs == rhs == bernoulli_number(m)
        lhs, rhs = bernoulli_weighted_pair(2, 2)
        assert lhs == rhs == Fraction(1, 4)
        lhs, rhs = bernoulli_weighted_pair(12, 4)
        assert lhs == rhs

    def test_small_sweep(self):
        for k in range(1, 61):
            for m in range(1, 7):
                lhs, rhs = bernoulli_weighted_pair(k, m)
                assert lhs == rhs

    def test_scaled_horner_matches_naive_polynomial_sum(self):
        # The pair evaluator sums the power sums T_e over j = 1..k, with
        # the j = k term standing in for j = 0 (which differs at m = 1);
        # check it against per-term bernoulli_polynomial evaluation over
        # j = 0..k-1.
        for k in range(1, 26):
            row = ramanujan_row(k)
            for m in range(1, 6):
                naive = sum(
                    bernoulli_polynomial(m, Fraction(j, k)) * row[j] for j in range(k)
                )
                assert bernoulli_weighted_pair(k, m)[0] == naive


class TestInverseDft:
    def test_examples(self):
        lhs, rhs = inverse_dft_check(1, 7)
        assert within_tolerance(lhs, rhs, DEFAULT_TOLERANCE) and rhs == 1.0
        lhs, rhs = inverse_dft_check(4, 2)
        assert within_tolerance(lhs, rhs, DEFAULT_TOLERANCE) and rhs == 0.0 and abs(lhs) <= 1e-9
        lhs, rhs = inverse_dft_check(4, 1)
        assert within_tolerance(lhs, rhs, DEFAULT_TOLERANCE) and rhs == 1.0
        assert abs(lhs - 1.0) <= 1e-9

    def test_small_grid(self):
        for k in range(1, 61):
            for n in range(1, 61):
                lhs, rhs = inverse_dft_check(k, n)
                assert within_tolerance(lhs, rhs, DEFAULT_TOLERANCE)
                assert rhs == (1.0 if math.gcd(k, n) == 1 else 0.0)

    def test_rejects_oversized_k(self):
        with pytest.raises(ValueError):
            inverse_dft_check(10**5 + 1, 1)


class TestLiteralSidesAsTheOldTerms:
    """The literal sides summed through map, the binomial row walked along
    Pascal's row, the cosine sum folded once per divisor and the inverse
    DFT gathered with numpy equal, bit for bit, the expressions they
    replaced, which are kept here as oracles."""

    def test_the_binomial_row_sum_is_the_comb_sum(self):
        for k in range(1, 301):
            row = ramanujan_row(k)
            oracle = sum(math.comb(k, j) * c for j, c in enumerate(row) if c)
            assert averages._binomial_row_sum(k) == oracle, k

    def test_the_float_sides_are_their_per_term_forms(self):
        for k in range(1, 301):
            row = ramanujan_row(k)
            lhs = sum(math.log(j) * row[j] for j in range(2, k + 1)) / k
            assert log_weighted_pair(k)[0].hex() == lhs.hex(), k
            if k >= 2:
                lhs = sum(math.lgamma(j / k) * row[j] for j in range(1, k + 1)) / row[0]
                assert gamma_weighted_pair(k)[0].hex() == lhs.hex(), k
            # gamma-product's parameter n, over the same range.
            lhs = sum(math.lgamma(m / k) for m in range(1, k + 1))
            assert gamma_product_check(k)[0].hex() == lhs.hex(), k

    def test_the_cosine_pair_is_its_per_term_form(self):
        for k in range(1, 301):
            row = ramanujan_row(k)
            lhs = float(Fraction(sum(math.comb(k, j) * c for j, c in enumerate(row) if c), 2**k))
            rhs = 0.0
            for d in divisors(k):
                mu_kd = mobius(k // d)
                if not mu_kd:
                    continue
                inner = 0.0
                for ell in range(1, d + 1):
                    sign = -1.0 if (ell * (k // d)) % 2 else 1.0
                    inner += sign * cos_pi(ell, d) ** k
                rhs += mu_kd * inner
            got = binomial_weighted_cosine(k)
            assert (got[0].hex(), got[1].hex()) == (lhs.hex(), rhs.hex()), k

    def test_the_inverse_dft_columns_are_the_per_n_loop(self):
        # 10^30 + 7 is past int64: n mod k is taken before numpy sees it.
        ns = [*range(1, 61), 10**30 + 7, 3, 1]
        for k in range(1, 61):
            values = averages._dft_values(k)
            real, imag = values.real.tolist(), values.imag.tolist()
            lhs, rhs = inverse_dft_batch(k, ns)
            assert all(abs(imag[n % k]) <= 1e-8 for n in ns)
            assert [x.hex() for x in lhs] == [real[n % k].hex() for n in ns], k
            assert [x.hex() for x in rhs] == [
                (1.0 if math.gcd(k, n) == 1 else 0.0).hex() for n in ns
            ], k
            assert [inverse_dft_check(k, n) for n in ns] == list(zip(lhs, rhs))


class TestWithinTolerance:
    def test_the_column_form_is_the_rule_case_by_case(self):
        tiny = 5e-324  # the smallest subnormal
        values = [
            0.0, -0.0, 1.0, -1.0, 1.0 + 1e-9, 1e-8, tiny, -tiny, 2.2250738585072014e-308 / 3,
            1e308, -1e308, math.inf, -math.inf, math.nan,
        ]
        lhs, rhs = (list(side) for side in zip(*itertools.product(values, repeat=2)))
        # A tolerance identity whose one run holds every pair of values.
        ident = IdentityDef(
            "grid", "tolerance", (Param("k"), Param("n")), lambda lead, ns, seed: (lhs, rhs), {}
        )

        def passed(tolerance):
            ((_, columns),) = _compare(ident, 1, list(range(len(lhs))), tolerance, 0)
            return columns.passed

        for tolerance in (DEFAULT_TOLERANCE, 1e-16, tiny):
            columns = passed(tolerance)
            assert columns == [within_tolerance(a, b, tolerance) for a, b in zip(lhs, rhs)]
            # The rule as written before it took columns.
            assert columns == [
                abs(a - b) <= tolerance * (1 + max(abs(a), abs(b))) for a, b in zip(lhs, rhs)
            ]
            assert all(type(ok) is bool for ok in columns)
        ok = dict(zip(zip(lhs, rhs), passed(DEFAULT_TOLERANCE)))
        assert ok[math.inf, math.inf] is False and ok[math.inf, 1.0] is True
        assert ok[0.0, -0.0] is True and ok[tiny, -tiny] is True
        # 1e308 - (-1e308) overflows to inf, past the finite bound.
        assert ok[1e308, 1e308] is True and ok[1e308, -1e308] is False
        assert not any(v for (a, b), v in ok.items() if math.isnan(a) or math.isnan(b))

    def test_the_rule_is_mixed(self):
        assert not within_tolerance(1.0, 1.5, DEFAULT_TOLERANCE)
        # |lhs - rhs| <= tol * (1 + max|side|): loose for large sides, absolute near 0.
        assert within_tolerance(1e9, 1e9 + 5.0, DEFAULT_TOLERANCE)
        assert within_tolerance(0.0, 5e-9, DEFAULT_TOLERANCE)
        assert not within_tolerance(0.0, 2e-8, DEFAULT_TOLERANCE)
