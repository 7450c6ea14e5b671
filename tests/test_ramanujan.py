import cmath
import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import ramavg.multivar as multivar
import ramavg.ramanujan as ramanujan
from ramavg.arith import euler_phi, mobius
from ramavg.averages import s_r_direct
from ramavg.ramanujan import (
    FLOAT_EVAL_LIMIT,
    ROW_BUDGET,
    BudgetError,
    RamanujanRow,
    ramanujan_row,
    ramanujan_sum,
    ramanujan_sum_float,
    ramanujan_sum_holder,
)


def c_oracle(k, j):
    """Definitional root-of-unity sum, rounded; independent of the package."""
    z = sum(cmath.exp(2j * cmath.pi * m * j / k) for m in range(1, k + 1) if math.gcd(m, k) == 1)
    assert abs(z.imag) < 1e-6 * k
    return round(z.real)


class TestDivisorFormula:
    def test_examples(self):
        assert ramanujan_sum(1, 5) == 1
        assert ramanujan_sum(4, 2) == -2  # 1*mu(4) + 2*mu(2)
        assert ramanujan_sum(6, 6) == euler_phi(6) == 2

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            ramanujan_sum(0, 3)

    @given(st.integers(1, 150), st.integers(-400, 400))
    def test_periodic_in_j(self, k, j):
        assert ramanujan_sum(k, j) == ramanujan_sum(k, j % k) == ramanujan_sum(k, j + k)

    def test_depends_only_on_gcd(self):
        for k in range(1, 201):
            for j in range(0, k + 1):
                assert ramanujan_sum(k, j) == ramanujan_sum(k, math.gcd(j, k))

    def test_edge_values(self):
        for k in range(1, 2001):
            assert ramanujan_sum(k, 1) == mobius(k)
            assert ramanujan_sum(k, k) == euler_phi(k)

    def test_multiplicative_in_k(self):
        for a in range(1, 61):
            for b in range(a, 61):
                if math.gcd(a, b) != 1:
                    continue
                for j in (0, 1, 7, 30):
                    assert ramanujan_sum(a * b, j) == ramanujan_sum(a, j) * ramanujan_sum(b, j)


class TestHolderForm:
    def test_examples(self):
        assert ramanujan_sum_holder(6, 1) == mobius(6) == 1
        assert ramanujan_sum_holder(4, 2) == ramanujan_sum(4, 2) == -2
        assert ramanujan_sum_holder(9, 3) == c_oracle(9, 3) == -3

    def test_agrees_with_divisor_formula(self):
        for k in range(1, 121):
            for j in range(0, k + 1):
                assert ramanujan_sum_holder(k, j) == ramanujan_sum(k, j)


class TestFloatDefinition:
    def test_examples(self):
        assert abs(ramanujan_sum_float(2, 1) + 1.0) < 1e-9
        assert abs(ramanujan_sum_float(5, 5) - 4.0) < 1e-9
        assert abs(ramanujan_sum_float(12, 8) - ramanujan_sum(12, 8)) < 1e-6 * 12

    def test_rejects_oversized_k(self):
        with pytest.raises(ValueError):
            ramanujan_sum_float(FLOAT_EVAL_LIMIT + 1, 0)

    def test_three_way_agreement(self):
        for k in range(1, 61):
            for j in range(0, k + 1):
                exact = ramanujan_sum(k, j)
                assert ramanujan_sum_holder(k, j) == exact
                f = ramanujan_sum_float(k, j)
                assert round(f) == exact
                assert abs(f - exact) <= 1e-6 * k

    def test_matches_per_term_oracle(self):
        for k, j in [(7, 3), (9, 3), (30, 12), (36, 8)]:
            assert round(ramanujan_sum_float(k, j)) == c_oracle(k, j)


class TestRows:
    def test_small_rows(self):
        assert ramanujan_row(1).values == (1, 1)
        assert ramanujan_row(2).values == (1, -1, 1)
        assert ramanujan_row(6).values == (2, 1, -1, -2, -1, 1, 2)

    def test_row_matches_per_value_evaluator(self):
        for k in list(range(1, 80)) + [96, 120, 210]:
            row = ramanujan_row(k)
            for j in range(0, k + 1):
                assert row.values[j] == ramanujan_sum(k, j)

    def test_endpoints_are_phi(self):
        for k in range(1, 500):
            row = ramanujan_row(k).values
            assert row[0] == row[k] == euler_phi(k)

    def test_checksum_over_full_period(self):
        for k in range(1, 2001):
            row = ramanujan_row(k).values
            assert sum(row[1:]) == (1 if k == 1 else 0)

    def test_row_constructor_rejects_corruption(self):
        with pytest.raises(ValueError):
            RamanujanRow(2, (1, 1, 1))
        with pytest.raises(ValueError):
            RamanujanRow(2, (1, -1))

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            ramanujan_row(0)

    def test_row_budget_rejection(self, monkeypatch):
        # The row is allocated after divisors(k); with divisors gone, a
        # missing check fails before it allocates ROW_BUDGET entries.
        k = ROW_BUDGET + 1
        monkeypatch.setattr(ramanujan, "divisors", None)
        with pytest.raises(BudgetError, match="row budget"):
            ramanujan_row(k)
        with pytest.raises(BudgetError, match="row budget"):
            s_r_direct(k, 1)
        assert multivar.BudgetError is BudgetError
