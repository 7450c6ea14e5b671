"""Differential checks against sympy, an independent implementation.

The integer-denominator kernels of the power and Bernoulli weights are
built from these values (Bernoulli numbers and polynomial coefficients,
totients, Mobius, divisors, factorizations), so each is compared with
sympy's. Skipped when sympy is not installed.
"""

from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings
import pytest

from ramavg.arith import divisors, euler_phi, factorize, mobius
from ramavg.exact import bernoulli_number, bernoulli_polynomial, bernoulli_polynomial_coefficients

sympy = pytest.importorskip("sympy")


def to_fraction(value) -> Fraction:
    value = sympy.Rational(value)
    return Fraction(int(value.p), int(value.q))


class TestBernoulli:
    def test_b1_sign_convention(self):
        # sympy 1.14 uses B_1 = +1/2; this package pins B_1 = -1/2. The two
        # agree on every other index, and B_m(0) = B_m holds for ours only.
        assert to_fraction(sympy.bernoulli(1)) == Fraction(1, 2)
        assert bernoulli_number(1) == Fraction(-1, 2)
        assert bernoulli_number(1) == -to_fraction(sympy.bernoulli(1))
        assert bernoulli_polynomial(1, 0) == bernoulli_number(1)

    @pytest.mark.parametrize("m", [0] + list(range(2, 41)))
    def test_numbers(self, m):
        assert bernoulli_number(m) == to_fraction(sympy.bernoulli(m))

    @given(st.integers(0, 12), st.fractions(min_value=-3, max_value=3, max_denominator=50))
    @settings(max_examples=60, deadline=None)
    def test_polynomial_values(self, m, x):
        expected = sympy.bernoulli(m, sympy.Rational(x.numerator, x.denominator))
        assert bernoulli_polynomial(m, x) == to_fraction(expected)

    @pytest.mark.parametrize("m", range(0, 13))
    def test_scaled_polynomial_coefficients(self, m):
        # D * B_m(x) = sum_t c_t x^(m-t): the coefficients of both kernels.
        coeffs, d = bernoulli_polynomial_coefficients(m)
        x = sympy.Symbol("x")
        expected = sympy.Poly(sympy.bernoulli(m, x), x).all_coeffs()
        assert [Fraction(c, d) for c in coeffs] == [to_fraction(c) for c in expected]


class TestArithmetic:
    @given(st.integers(1, 10**9))
    @settings(max_examples=200, deadline=None)
    def test_totient_and_mobius(self, n):
        assert euler_phi(n) == int(sympy.totient(n))
        assert mobius(n) == int(sympy.mobius(n))

    @given(st.integers(1, 10**7))
    @settings(max_examples=200, deadline=None)
    def test_divisors(self, n):
        assert list(divisors(n)) == [int(d) for d in sympy.divisors(n)]

    @given(st.integers(1, 2**40))
    @settings(max_examples=100, deadline=None)
    def test_factorint(self, n):
        expected = sorted((int(p), int(e)) for p, e in sympy.factorint(n).items())
        assert list(factorize(n)) == expected
