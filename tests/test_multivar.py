import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import ramavg.multivar as multivar
from ramavg.arith import divisors, mobius
from ramavg.averages import s_r_closed, s_r_direct
from ramavg.multivar import (
    PERIOD_BUDGET,
    BudgetError,
    ModulusTuple,
    _divisor_terms,
    _power_sums,
    _product_row,
    _weighted_power_sums,
    g_m,
    multiplicativity_sides,
    orbicyclic_direct,
    orbicyclic_divisor,
    s_r_multi_closed,
    s_r_multi_closed_batch,
    s_r_multi_direct,
    s_r_multi_direct_batch,
)
from ramavg.ramanujan import ramanujan_sum


def _weighted_power_sum(values, r, bound):
    return _weighted_power_sums(values, r, bound)[r]


def e_brute(ks):
    """Independent oracle: per-value Ramanujan sums over one lcm period."""
    length = math.lcm(*ks)
    total = sum(math.prod(ramanujan_sum(k, j) for k in ks) for j in range(1, length + 1))
    value = Fraction(total, length)
    assert value.denominator == 1
    return int(value)


def s_r_brute(ks, r):
    length = math.lcm(*ks)
    total = sum(
        j**r * math.prod(ramanujan_sum(k, j) for k in ks) for j in range(1, length + 1)
    )
    return Fraction(total, length ** (r + 1))


class TestModulusTuple:
    def test_lcm_and_arity(self):
        t = ModulusTuple((4, 6, 10))
        assert t.lcm_value == 60 and t.n == 3

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            ModulusTuple(())
        with pytest.raises(ValueError):
            ModulusTuple((3, 0))

    @pytest.mark.parametrize(
        "bad", [True, False, np.True_, 2.5, 2.9, 2.0, Fraction(4, 2), "3", None]
    )
    def test_rejects_bool_and_non_integral_moduli(self, bad):
        with pytest.raises(ValueError, match="integers"):
            ModulusTuple((bad, 3))

    def test_non_integral_moduli_are_not_truncated(self):
        with pytest.raises(ValueError):
            orbicyclic_direct((2.5, 3))
        with pytest.raises(ValueError):
            orbicyclic_divisor((2.5, 3))
        with pytest.raises(ValueError):
            g_m((2.9,), 1)
        with pytest.raises(ValueError):
            s_r_multi_direct((3, 2.5), 1)

    def test_accepts_numpy_integers(self):
        t = ModulusTuple((np.int64(4), np.uint8(6), np.int32(10)))
        assert t.ks == (4, 6, 10) and all(type(k) is int for k in t.ks)
        assert t.lcm_value == 60
        assert orbicyclic_direct((np.int64(2), np.int16(2))) == 1


class TestWeightedPowerSum:
    @given(
        st.lists(st.integers(-15552, 15552), min_size=1, max_size=300),
        st.integers(0, 6),
    )
    @settings(max_examples=150, deadline=None)
    def test_int64_staging_matches_brute_force(self, values, r):
        bound = max(abs(v) for v in values)
        arr = np.array(values, dtype=np.int64)
        expected = sum((j + 1) ** r * v for j, v in enumerate(values))
        assert _weighted_power_sum(arr, r, bound) == expected

    @given(
        st.lists(st.integers(-(2**52), 2**52), min_size=1, max_size=60),
        st.integers(0, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_large_magnitudes_force_every_split(self, values, r):
        bound = max(abs(v) for v in values)
        arr = np.array(values, dtype=np.int64)
        expected = sum((j + 1) ** r * v for j, v in enumerate(values))
        assert _weighted_power_sum(arr, r, bound) == expected

    def test_list_fallback_path(self):
        # An object row (Python ints) is summed plainly, with no limbs.
        values = [3, -7, 11, 0, 5]
        expected = sum((j + 1) ** 4 * v for j, v in enumerate(values))
        assert _weighted_power_sum(np.array(values, dtype=object), 4, 11) == expected

    def test_matches_plain_ints_on_random_ladders(self):
        # Every rung up to r = 400, bounds up to 2^62 - 1, so the ladder
        # carries many times and the column sums split.
        rng = random.Random(2013)
        for _ in range(24):
            length = rng.randint(1, rng.choice([40, 400]))
            bound = rng.choice([1, 2**31, rng.randint(1, 2**62 - 1), 2**62 - 1])
            values = [rng.randint(-bound, bound) for _ in range(length)]
            top = rng.randint(0, 400 if length <= 40 else 60)
            expected = []
            staged = values
            for _ in range(top + 1):
                expected.append(sum(staged))
                staged = [v * j for j, v in enumerate(staged, start=1)]
            arr = np.array(values, dtype=np.int64)
            assert _weighted_power_sums(arr, top, bound) == expected


class TestLadderGrowth:
    """The int64 ladder's limbs grow linearly in r, so its array
    multiplications stay below a sum of linear per-rung bounds. The count
    raises as soon as it passes that sum, so a ladder whose pieces grow
    exponentially in r fails at once instead of hanging."""

    @staticmethod
    def counting_array(limit):
        class Counting(np.ndarray):
            multiplications = 0

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.multiply:
                    Counting.multiplications += 1
                    if Counting.multiplications > limit:
                        raise AssertionError(f"more than {limit} array multiplications")
                plain = [x.view(np.ndarray) if isinstance(x, Counting) else x for x in inputs]
                out = getattr(ufunc, method)(*plain, **kwargs)
                return out.view(Counting) if isinstance(out, np.ndarray) else out

        return Counting

    def test_multiplications_stay_linear_per_rung(self):
        t = ModulusTuple((40,))
        values, bound = _product_row(t)
        top = 120
        # At most 2 + r log2(L) / 20 limbs at rung r, one multiplication
        # each: a limb holds 31 bits and a rung adds log2(L) = 5.3 bits.
        limit = sum(2 + r * math.log2(len(values)) / 20 for r in range(top))
        counting = self.counting_array(limit)
        sums = _weighted_power_sums(values.view(counting), top, bound)
        assert 0 < counting.multiplications <= limit
        assert sums == [
            sum(j**r * ramanujan_sum(40, j) for j in range(1, 41)) for r in range(top + 1)
        ]


class TestOrbicyclic:
    def test_examples(self):
        assert orbicyclic_direct((1, 1, 1)) == 1
        assert orbicyclic_direct((2, 2)) == 1  # (1 + 1)/2
        assert orbicyclic_direct((2, 3)) == 0  # six-term sum cancels
        assert orbicyclic_divisor((2, 2)) == 1
        assert orbicyclic_divisor((3, 3)) == e_brute((3, 3)) == 2
        assert orbicyclic_divisor((6, 6)) == 2  # E(2,2) * E(3,3)

    def test_direct_equals_divisor_and_brute(self):
        for a in range(1, 13):
            for b in range(a, 13):
                t = (a, b)
                direct = orbicyclic_direct(t)
                assert direct == orbicyclic_divisor(t) == e_brute(t)

    def test_triples_smoke(self):
        for t in [(2, 3, 4), (6, 10, 15), (8, 8, 8), (5, 7, 9)]:
            assert orbicyclic_direct(t) == orbicyclic_divisor(t) == e_brute(t)

    def test_symmetric_under_permutation(self):
        for t in [(2, 3, 4), (4, 6, 10), (3, 5, 15)]:
            reference = orbicyclic_direct(t)
            for perm in permutations(t):
                assert orbicyclic_direct(perm) == reference
                assert orbicyclic_divisor(perm) == reference

    def test_budget_rejection(self):
        # tau(720720) = 240, so three copies enumerate 240^3 > 10^7 tuples.
        with pytest.raises(BudgetError):
            orbicyclic_divisor((720720, 720720, 720720))

    def test_period_budget_rejection(self, monkeypatch):
        # lcm(10007, 1009) = 10,097,063 is just past the budget, so a missing
        # check would cost about 80 MB; np.ones is gone to catch it earlier.
        t = (10007, 1009)
        assert math.lcm(*t) > PERIOD_BUDGET
        monkeypatch.setattr(np, "ones", None)
        with pytest.raises(BudgetError, match="period"):
            orbicyclic_direct(t)
        with pytest.raises(BudgetError, match="period"):
            s_r_multi_direct(t, 1)
        assert orbicyclic_divisor(t) == 0  # the divisor side needs no row


class TestARefusedTupleGetsNoTable:
    """Each budget refuses a tuple before the tuple's table is stored: a
    refused call leaves the table cache as it was, so it evicts no built
    table, and a later call the budget admits still fills its table. The
    budgets are patched down, so no call comes near the real ones."""

    def test_the_period_budget(self, monkeypatch):
        monkeypatch.setattr(multivar, "PERIOD_BUDGET", 20)
        assert s_r_multi_direct((4, 6), 1) == s_r_multi_closed((4, 6), 1)  # lcm 12
        cache = multivar._power_sum_table.cache_info
        size = cache().currsize
        for ks in ((21,), (22,), (4, 7)):  # lcm 21, 22 and 28
            with pytest.raises(BudgetError, match="period"):
                s_r_multi_direct(ks, 1)
            with pytest.raises(BudgetError, match="period"):
                orbicyclic_direct(ks)
            with pytest.raises(BudgetError, match="period"):
                s_r_direct(math.lcm(*ks), 2)
        assert cache().currsize == size
        assert s_r_multi_direct((5,), 2) == s_r_multi_closed((5,), 2)
        assert cache().currsize == size + 1
        assert multivar._power_sum_table((5,)) == [s_r_brute((5,), r) * 5 ** (r + 1) for r in range(3)]

    def test_the_object_row_budget(self, monkeypatch):
        # Ten copies of 97 make an object row of 97 entries at
        # _OBJECT_ENTRY_BYTES each: past the bytes of `edge - 1` int64 entries.
        ks = (97,) * 10
        edge = -(-97 * multivar._OBJECT_ENTRY_BYTES // 8)
        monkeypatch.setattr(multivar, "PERIOD_BUDGET", edge - 1)
        size = multivar._power_sum_table.cache_info().currsize
        with pytest.raises(BudgetError, match="97 entries at .* bytes each exceeds"):
            orbicyclic_direct(ks)
        assert multivar._power_sum_table.cache_info().currsize == size
        monkeypatch.setattr(multivar, "PERIOD_BUDGET", edge)
        assert orbicyclic_direct(ks) == 685394470094330976
        assert len(multivar._power_sum_table(ks)) == 1
        assert multivar._power_sum_table.cache_info().currsize == size + 1

    def test_the_divisor_tuple_budget(self, monkeypatch):
        # tau(4) tau(6) = 12 tuples, tau(2) tau(3) = 4.
        monkeypatch.setattr(multivar, "DIVISOR_TUPLE_BUDGET", 10)
        cache = multivar._weight_table.cache_info
        size = cache().currsize
        refused = (orbicyclic_divisor, lambda t: g_m(t, 1), lambda t: s_r_multi_closed(t, 1))
        for call in refused:
            with pytest.raises(BudgetError, match=r"divisor-tuple count 12 for \(4, 6\)"):
                call((4, 6))
        assert cache().currsize == size
        assert orbicyclic_divisor((2, 3)) == e_brute((2, 3)) == 0
        assert g_m((2, 3), 1) == g_m((3, 2), 1)
        assert cache().currsize == size + 2
        assert len(multivar._weight_table((2, 3))) == 2


def divisor_terms_by_tuples(ks):
    """The divisor lattice by the cartesian enumeration of its tuples, every
    prod_i d_i mu(k_i/d_i) aggregated by lcm(d_i), zero sums kept."""
    per_component = [[(d, d * mobius(k // d)) for d in divisors(k) if mobius(k // d)] for k in ks]
    agg = {}
    for combo in product(*per_component):
        coef = 1
        lc = 1
        for d, w in combo:
            coef *= w
            lc = lc * d // math.gcd(lc, d)
        agg[lc] = agg.get(lc, 0) + coef
    return tuple(sorted(agg.items()))


class TestDivisorFold:
    """The lattice folded one modulus at a time is the enumeration of its
    tuples, without the lcms whose terms cancel."""

    TUPLES = [
        *(ks for n in (1, 2, 3) for ks in combinations_with_replacement(range(1, 13), n)),
        (2, 3, 4, 6),
        (6, 10, 15, 30),
        (2, 2, 2, 2, 2),
        (4, 6, 8, 9, 10, 12),
        (97,) * 10,
    ]

    def test_the_fold_is_the_tuple_enumeration_without_zeros(self):
        dropped = 0
        for ks in self.TUPLES:
            reference = divisor_terms_by_tuples(ks)
            terms = _divisor_terms(ModulusTuple(ks))
            assert terms == tuple((lc, coef) for lc, coef in reference if coef), ks
            assert all(coef for _, coef in terms), ks
            dropped += len(reference) - len(terms)
        assert dropped > 0  # the enumeration keeps cancelled lcms; the fold must not


class TestBigintRow:
    """Ten copies of 97: prod phi(k_i) = 96^10 >= 2^62, so the product row
    holds Python ints and its power sums take the plain ladder."""

    KS = (97,) * 10

    def test_the_row_holds_python_ints(self):
        values, bound = _product_row(ModulusTuple(self.KS))
        assert values.dtype == object and bound == 96**10 >= 2**62

    def test_e_from_both_sides(self):
        expected = 685394470094330976
        assert expected * 97 == 96**10 + 96
        assert orbicyclic_direct(self.KS) == orbicyclic_divisor(self.KS) == expected

    def test_power_sums_match_brute_force(self):
        brute = [sum(j**r * ramanujan_sum(97, j) ** 10 for j in range(1, 98)) for r in range(4)]
        assert _power_sums(ModulusTuple(self.KS), 3)[:4] == brute
        rs = [1, 2, 3]
        assert s_r_multi_direct_batch(self.KS, rs) == s_r_multi_closed_batch(self.KS, rs)

    def test_the_row_is_budgeted_by_its_bytes(self, monkeypatch):
        # 97 entries at _OBJECT_ENTRY_BYTES each fill the 8-byte entries
        # of an int64 row of `edge` entries, far more than 97.
        edge = -(-97 * multivar._OBJECT_ENTRY_BYTES // 8)
        monkeypatch.setattr(multivar, "PERIOD_BUDGET", edge - 1)
        with pytest.raises(BudgetError, match="97 entries at .* bytes each exceeds"):
            orbicyclic_direct(self.KS)
        monkeypatch.setattr(multivar, "PERIOD_BUDGET", edge)
        assert orbicyclic_direct(self.KS) == 685394470094330976

    def test_an_int64_row_is_budgeted_by_its_entries(self, monkeypatch):
        monkeypatch.setattr(multivar, "PERIOD_BUDGET", 60)
        assert orbicyclic_direct((4, 6, 10)) == orbicyclic_divisor((4, 6, 10))


def refuse_phi(n):
    raise AssertionError(f"a direct side read phi({n})")


class TestDirectSideReadsNoPhi:
    """The product row's bound is its own c(0), so no direct side reads
    phi, the closed side's primitive: with euler_phi patched to raise, each
    direct side gives its unpatched value."""

    @pytest.mark.parametrize("ks", [(4, 6, 10), (97,) * 10])
    def test_multivariable_direct_sides(self, monkeypatch, clear_run_caches, ks):
        rs = [1, 2, 3]
        expected = orbicyclic_direct(ks), s_r_multi_direct_batch(ks, rs)
        clear_run_caches()
        monkeypatch.setattr(multivar, "euler_phi", refuse_phi)
        assert (orbicyclic_direct(ks), s_r_multi_direct_batch(ks, rs)) == expected

    def test_single_variable_direct_side(self, monkeypatch, clear_run_caches):
        expected = [s_r_direct(12, r) for r in (1, 2)]
        clear_run_caches()
        monkeypatch.setattr(multivar, "euler_phi", refuse_phi)
        assert [s_r_direct(12, r) for r in (1, 2)] == expected


class TestGm:
    def test_g0_recovers_e(self):
        for t in [(1,), (2, 2), (2, 3), (4, 6), (6, 10, 15)]:
            assert g_m(t, 0) == orbicyclic_divisor(t)

    def test_all_ones_tuple(self):
        for m in range(0, 6):
            assert g_m((1, 1, 1, 1), m) == 1

    def test_g1_of_2_2_by_hand(self):
        # divisor tuples of (2,2): coefficients 1, -2, -2, 4 at lcm 1,2,2,2.
        assert g_m((2, 2), 1) == 1 * 1 + (-2 - 2 + 4) * 2

    def test_g1_cross_checked_through_closed_form_at_r2(self):
        # S_2 = phi*phi/(2k) + (1/3)(g_0 + 3 B_2 g_1 / k^2); solve for g_1.
        t = ModulusTuple((2, 2))
        s2 = s_r_brute((2, 2), 2)
        g0 = g_m(t, 0)
        phi_term = Fraction(1, 4)
        g1 = (s2 - phi_term - Fraction(g0, 3)) * 3 / (3 * Fraction(1, 6)) * 4
        assert g_m(t, 1) == g1

    def test_rejects_negative_m(self):
        with pytest.raises(ValueError):
            g_m((2, 2), -1)


class TestMultivariableAverage:
    @pytest.mark.parametrize("batch", [s_r_multi_direct_batch, s_r_multi_closed_batch])
    def test_a_batch_names_itself_in_its_error(self, batch):
        with pytest.raises(ValueError, match=rf"^{batch.__name__} requires r >= 1, got 0$"):
            batch((2, 3), [1, 0])

    def test_examples(self):
        for r in range(1, 6):
            assert s_r_multi_direct((1,), r) == 1
        assert s_r_multi_direct((2, 2), 1) == Fraction(3, 4)
        assert s_r_multi_closed((2, 2), 1) == Fraction(3, 4)
        assert s_r_multi_direct((2, 3), 1) == s_r_brute((2, 3), 1)
        assert s_r_multi_closed((2, 3), 2) == s_r_multi_direct((2, 3), 2)

    def test_direct_matches_brute(self):
        for t in [(2,), (2, 3), (4, 6), (2, 3, 4), (6, 4)]:
            for r in range(1, 5):
                assert s_r_multi_direct(t, r) == s_r_brute(t, r)

    def test_direct_equals_closed_small_grid(self):
        for a in range(1, 13):
            for b in range(a, 13):
                for r in range(1, 5):
                    assert s_r_multi_direct((a, b), r) == s_r_multi_closed((a, b), r)

    def test_single_component_reduces_to_single_variable_closed_form(self):
        for k in range(1, 61):
            for r in range(1, 6):
                assert s_r_multi_closed((k,), r) == s_r_closed(k, r)

    def test_corollary_r1(self):
        import ramavg.arith as arith

        for t in [(2, 2), (2, 3), (4, 6), (3, 5, 15), (2, 3, 4)]:
            mt = ModulusTuple(t)
            phi_term = Fraction(
                math.prod(arith.euler_phi(k) for k in t), 2 * mt.lcm_value
            )
            assert s_r_multi_direct(mt, 1) == phi_term + Fraction(orbicyclic_divisor(mt), 2)

    def test_rejects_r_zero(self):
        with pytest.raises(ValueError):
            s_r_multi_direct((2, 3), 0)
        with pytest.raises(ValueError):
            s_r_multi_closed((2, 3), 0)

    @given(
        st.lists(st.integers(1, 15), min_size=1, max_size=3),
        st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_closed_form_property(self, ks, r):
        t = tuple(ks)
        assert s_r_multi_direct(t, r) == s_r_multi_closed(t, r)


class TestMultiplicativity:
    def test_examples(self):
        assert multiplicativity_sides((2, 2), (3, 3)) == (2, 2)
        assert orbicyclic_divisor((6, 6)) == 1 * 2
        for a, b in (((1, 1), (5, 9)), ((2, 3), (5, 7))):
            lhs, rhs = multiplicativity_sides(a, b)
            assert lhs == rhs

    def test_rejects_arity_mismatch(self):
        with pytest.raises(ValueError):
            multiplicativity_sides((2, 3), (5,))

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            multiplicativity_sides((2, 3), (4, 5))
