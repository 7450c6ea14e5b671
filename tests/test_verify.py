import csv
import inspect
import io
import json
import math
import weakref
from fractions import Fraction
from itertools import product as iter_product
from typing import List, NamedTuple

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import ramavg.arith as arith
import ramavg.averages as averages
import ramavg.exact as exact
import ramavg.multivar as multivar
import ramavg.ramanujan as ramanujan
import ramavg.verify as verify
from ramavg.verify import (
    ConfigError,
    IDENTITY_TAGS,
    IdentityCase,
    Param,
    ParamError,
    SuiteConfig,
    VerificationReport,
    cases_to_csv,
    report_to_json,
    run_identity,
    run_suite,
)

EXPECTED_TAGS = {
    "prop1", "prop2", "prop3", "prop3-corollary", "prop4", "gamma-product",
    "mobius-log", "prop5-exact", "prop5-cosine", "prop6", "inverse-dft",
    "prop7", "prop7-corollary", "e-integrality", "e-multiplicativity",
    "cross-evaluator", "half-sum", "faulhaber", "coprime-power-sum",
    "bernoulli-poly-sum",
}

EXACT_TAGS = {
    "prop1", "prop3", "prop3-corollary", "prop5-exact", "prop6", "prop7",
    "prop7-corollary", "e-integrality", "e-multiplicativity",
    "cross-evaluator", "half-sum", "faulhaber", "coprime-power-sum",
    "bernoulli-poly-sum",
}


class TestCatalog:
    def test_closed_enumeration(self):
        assert set(IDENTITY_TAGS) == EXPECTED_TAGS

    def test_mode_assignment(self):
        for tag in IDENTITY_TAGS:
            expected = "exact" if tag in EXACT_TAGS else "tolerance"
            assert verify._lookup(tag).mode == expected

    def test_every_identity_has_default_grid_cases(self):
        # Catalog completeness: tiny bounds still yield at least one case.
        for tag in IDENTITY_TAGS:
            report = run_suite(
                SuiteConfig(identities=[tag], k_max=6, r_max=2, m_max=2, n_max=2)
            )
            assert report.total >= 1, tag

    def test_unknown_tag_rejected(self):
        with pytest.raises(ConfigError):
            verify._lookup("prop99")
        with pytest.raises(ConfigError):
            run_identity("prop99", (1,))


class TestRunIdentity:
    def test_prop1_case(self):
        case = run_identity("prop1", (2, 1))
        assert case.passed and case.mode == "exact"
        assert case.lhs == "1/4" and case.rhs == "1/4"
        assert case.abs_error is None

    def test_prop4_schema_violation(self):
        with pytest.raises(ParamError):
            run_identity("prop4", (1,))

    def test_inverse_dft_case(self):
        case = run_identity("inverse-dft", (4, 2))
        assert case.passed and case.mode == "tolerance"
        assert case.rhs == "0"
        assert case.abs_error is not None and case.abs_error <= 1e-9

    def test_wrong_arity_rejected(self):
        with pytest.raises(ParamError):
            run_identity("prop1", (2,))

    def test_budget_error_becomes_failed_case(self):
        case = run_identity("e-integrality", ((720720, 720720, 720720),))
        assert not case.passed
        assert case.error is not None and "budget" in case.error.lower() or "exceeds" in case.error

    def test_prop3_unknown_function(self):
        with pytest.raises(ParamError):
            run_identity("prop3", (6, "nosuch"))

    def test_prop3_named_and_random(self):
        assert run_identity("prop3", (30, "sigma")).passed
        assert run_identity("prop3", (30, "rand07")).passed
        for name in ("rand0", "rand" + "9" * 9):
            case = run_identity("prop3", (5, name))
            assert case.passed and case.params == f"k=5,f={name}"

    @pytest.mark.parametrize("name", [
        [1], "rand\u0663", "rand", "rand-1", b"rand07", 7,
        pytest.param("rand" + "9" * 10, id="rand-10-digits"),
        pytest.param("rand" + "9" * 5000, id="rand-5000-digits"),
    ])
    def test_prop3_function_must_be_a_name(self, name):
        # Only a named function or "rand" and one to nine ASCII digits: an
        # unhashable value raised TypeError, an Arabic-Indic digit passed
        # isdigit, and past 4,300 digits int() failed inside evaluation.
        with pytest.raises(ParamError, match="unknown arithmetic function"):
            run_identity("prop3", (5, name))

    def test_cross_evaluator_float_mismatch_has_a_reason(self, monkeypatch):
        import ramavg.verify as verify

        monkeypatch.setattr(verify, "ramanujan_sum_float_batch", lambda k, js: [0.25] * len(js))
        case = run_identity("cross-evaluator", (6, 1))
        assert not case.passed
        assert case.lhs == case.rhs == "1"
        assert case.error == "float oracle 0.25 disagrees with the exact value 1"

    def test_a_clean_cross_evaluator_run_has_no_reasons_column(self):
        ident = verify._lookup("cross-evaluator")
        for k in (1, 6, 30):
            columns = verify._compare(
                ident, k, [(j,) for j in range(-k, k + 1)], verify.DEFAULT_TOLERANCE, 0
            )
            assert columns.reasons is None and all(columns.passed), k

    def test_tolerance_may_only_tighten(self):
        for bad in (0.0, -1e-9, 2e-8, 1e-6):
            with pytest.raises(ConfigError):
                run_identity("prop2", (5,), tolerance=bad)
        assert run_identity("prop2", (5,), tolerance=1e-10).passed

    def test_half_sum_r0_reports_the_known_mismatch(self):
        case = run_identity("half-sum", (0,))
        assert not case.passed
        assert case.lhs == "1" and case.rhs == "1/2"


# Per tag: the smallest parameters the schema accepts, and variants with
# one value below its minimum (or, for e-multiplicativity, tuples that
# break the arity/coprimality constraint).
SCHEMA_EDGES = {
    "prop1": ((1, 1), [(0, 1), (1, 0)]),
    "prop2": ((1,), [(0,)]),
    "prop3": ((1, "id"), [(0, "id"), (1, "nosuch")]),
    "prop3-corollary": ((1, "tau"), [(0, "tau"), (1, "mu")]),
    "prop4": ((2,), [(1,)]),
    "gamma-product": ((1,), [(0,)]),
    "mobius-log": ((1,), [(0,)]),
    "prop5-exact": ((1,), [(0,)]),
    "prop5-cosine": ((1,), [(0,)]),
    "prop6": ((1, 1), [(0, 1), (1, 0)]),
    "inverse-dft": ((1, 1), [(0, 1), (1, 0)]),
    "prop7": (((1,), 1), [((0,), 1), ((), 1), ((1,), 0)]),
    "prop7-corollary": (((1,),), [((0,),), ((),)]),
    "e-integrality": (((1,),), [((0,),), ((),)]),
    "e-multiplicativity": (
        ((1,), (1,)),
        [((0,), (1,)), ((1,), ()), ((2,), (4,)), ((2,), (3, 5))],
    ),
    "cross-evaluator": ((1, 0), [(0, 0), (1, -1)]),
    "half-sum": ((0,), [(-1,)]),
    "faulhaber": ((1, 1), [(0, 1), (1, 0)]),
    "coprime-power-sum": ((2, 1), [(1, 1), (2, 0)]),
    "bernoulli-poly-sum": ((1, 1), [(0, 1), (1, 0)]),
}

# Tags with a cap: the largest accepted parameters and the smallest rejected.
SCHEMA_CAPS = {
    "prop5-cosine": ((averages.COSINE_LIMIT,), (averages.COSINE_LIMIT + 1,)),
    "inverse-dft": ((averages.DFT_LIMIT, 1), (averages.DFT_LIMIT + 1, 1)),
}


class TestParamSchema:
    def test_every_tag_is_covered(self):
        assert set(SCHEMA_EDGES) == set(IDENTITY_TAGS)

    @pytest.mark.parametrize("tag", sorted(EXPECTED_TAGS))
    def test_minimum_is_accepted(self, tag):
        params, _ = SCHEMA_EDGES[tag]
        assert run_identity(tag, params).identity == tag

    @pytest.mark.parametrize("tag", sorted(EXPECTED_TAGS))
    def test_below_minimum_rejected(self, tag):
        for params in SCHEMA_EDGES[tag][1]:
            with pytest.raises(ParamError):
                run_identity(tag, params)

    @pytest.mark.parametrize("tag", sorted(EXPECTED_TAGS))
    def test_wrong_arity_rejected(self, tag):
        params, _ = SCHEMA_EDGES[tag]
        for wrong in (params[:-1], params + (1,)):
            with pytest.raises(ParamError):
                run_identity(tag, wrong)

    @pytest.mark.parametrize("tag", sorted(EXPECTED_TAGS))
    def test_wrong_kind_rejected(self, tag):
        params, _ = SCHEMA_EDGES[tag]
        for value in ("x", 1.5, None):
            with pytest.raises(ParamError):
                run_identity(tag, (value,) + params[1:])

    @pytest.mark.parametrize("tag", sorted(SCHEMA_CAPS))
    def test_cap(self, tag):
        largest, too_large = SCHEMA_CAPS[tag]
        assert run_identity(tag, largest).passed
        with pytest.raises(ParamError):
            run_identity(tag, too_large)


# The degree parameter of each tag that has one, capped at exact.DEGREE_CAP.
DEGREE_PARAMS = {
    "prop1": "r", "prop6": "m", "prop7": "r", "faulhaber": "r",
    "coprime-power-sum": "r", "half-sum": "r", "bernoulli-poly-sum": "m",
}


def with_degree(tag, degree):
    """SCHEMA_EDGES' smallest parameters of tag, with the degree replaced."""
    params, _ = SCHEMA_EDGES[tag]
    i = verify._lookup(tag).param_names.index(DEGREE_PARAMS[tag])
    return params[:i] + (degree,) + params[i + 1 :]


def over_cap(tag):
    return rf"^{DEGREE_PARAMS[tag]} must be <= {exact.DEGREE_CAP}$"


class TestDegreeCap:
    def test_every_degree_is_capped_and_bounded(self):
        degrees = {
            tag: p.name for tag in IDENTITY_TAGS for p in verify._lookup(tag).params
            if p.name in ("r", "m")
        }
        assert degrees == DEGREE_PARAMS
        for tag, name in DEGREE_PARAMS.items():
            (p,) = [p for p in verify._lookup(tag).params if p.name == name]
            assert p.cap == exact.DEGREE_CAP and p.bound == f"{name}_max"

    @pytest.mark.parametrize("tag", sorted(DEGREE_PARAMS))
    def test_a_case_is_validated_up_to_the_cap(self, monkeypatch, tag):
        # Only the schema is checked: no table of degree 400 is built.
        ident = verify._lookup(tag)
        monkeypatch.setattr(verify, "_evaluate", None)
        params = with_degree(tag, exact.DEGREE_CAP)
        verify._validate(ident, params)
        with pytest.raises(ParamError, match=over_cap(tag)):
            run_identity(tag, with_degree(tag, exact.DEGREE_CAP + 1))

    @pytest.mark.parametrize("tag", sorted(DEGREE_PARAMS))
    def test_a_bound_above_the_cap_is_refused_before_the_grid(self, monkeypatch, tag):
        built = []
        params, _ = SCHEMA_EDGES[tag]
        monkeypatch.setattr(
            verify, "_grid", lambda ident, b, seed: built.append(b) or [(params[0], [params[1:]])]
        )
        bound = f"{DEGREE_PARAMS[tag]}_max"
        with pytest.raises(ParamError, match=over_cap(tag)):
            run_suite(SuiteConfig(identities=[tag], **{bound: exact.DEGREE_CAP + 1}))
        assert built == []
        # k_max = 10 keeps prop7's grid under GRID_BUDGET: at its default
        # k_max of 40 there are 12,340 tuples, 4,936,000 cases at r <= 400.
        report = run_suite(SuiteConfig(identities=[tag], k_max=10, **{bound: exact.DEGREE_CAP}))
        assert [b[bound] for b in built] == [exact.DEGREE_CAP] and report.total == 1


def small_bounds(tag):
    """Bounds of every shape a count must follow: empty, negative, one
    value, products where the bounds differ, and one bound empty while the
    others are not."""
    names = verify._lookup(tag).bounds
    sets = [{name: v for name in names} for v in (-1, 0, 1, 2, 5)]
    sets += [{name: 3 + 2 * i for i, name in enumerate(sorted(names))}]
    sets += [{**dict.fromkeys(names, 3), name: 0} for name in sorted(names)]
    return sets


def flat(runs):
    """The cases of a grid given as runs (leading value, trailing values),
    in order."""
    return [(lead, *rest) for lead, rests in runs for rest in rests]


def moduli_held(case):
    """A case counts once, or once per modulus of its moduli tuples."""
    return sum(len(v) for v in case if isinstance(v, tuple)) or 1


class TestGridBudget:
    """Counted only: no test builds a grid near GRID_BUDGET."""

    @pytest.mark.parametrize("tag", sorted(EXPECTED_TAGS))
    def test_the_count_is_the_grid_length(self, tag):
        # The tuple grids count the moduli their cases hold; e-multiplicativity
        # draws each arity from 1..n_max, so it counts n_max per side, and
        # each pair's b from the k_max candidates it filters. A count is 0
        # exactly when its grid is empty, which run_suite's refusal of an
        # empty selection reads.
        ident = verify._lookup(tag)
        for bounds in small_bounds(tag):
            size = verify._grid_size(ident, bounds)
            grid = flat(verify._grid(ident, bounds, 7))
            assert (size == 0) == (grid == []), bounds
            if tag == "e-multiplicativity":
                assert size == (2 * bounds["n_max"] + bounds["k_max"]) * len(grid), bounds
                assert size >= sum(map(moduli_held, grid)), bounds
            else:
                assert size == sum(map(moduli_held, grid)), bounds

    # Literal grids and counts of these identities: each must equal the
    # product of its schema's values and counts, element for element.
    SPELLED_OUT = {
        "prop3": (
            lambda b: [
                (k, name)
                for k in range(1, b["k_max"] + 1)
                for name in list(averages.NAMED_FUNCTIONS)
                + [f"rand{i:02d}" for i in range(b["rand_count"])]
            ],
            lambda b: max(b["k_max"], 0)
            * (len(averages.NAMED_FUNCTIONS) + max(b["rand_count"], 0)),
        ),
        "prop3-corollary": (
            lambda b: [
                (k, name) for k in range(1, b["k_max"] + 1) for name in ("id", "tau", "sigma")
            ],
            lambda b: max(b["k_max"], 0) * 3,
        ),
        "prop7": (
            lambda b: [
                (t, r)
                for t in verify._tuple_grid(b["k_max"], b["n_max"])
                for r in range(1, b["r_max"] + 1)
            ],
            lambda b: verify._multiset_moduli(b["k_max"], b["n_max"]) * max(b["r_max"], 0),
        ),
        "prop7-corollary": (
            lambda b: [(t,) for t in verify._tuple_grid(b["k_max"], b["n_max"])],
            lambda b: verify._multiset_moduli(b["k_max"], b["n_max"]),
        ),
        "e-integrality": (
            lambda b: [(t,) for t in verify._tuple_grid(b["k_max"], b["n_max"])],
            lambda b: verify._multiset_moduli(b["k_max"], b["n_max"]),
        ),
    }

    @pytest.mark.parametrize("tag", sorted(SPELLED_OUT))
    def test_a_derived_grid_is_the_one_it_replaces(self, tag):
        grid, size = self.SPELLED_OUT[tag]
        ident = verify._lookup(tag)
        for bounds in small_bounds(tag):
            assert flat(verify._grid(ident, bounds, 7)) == grid(bounds), bounds
            assert verify._grid_size(ident, bounds) == size(bounds), bounds

    @pytest.mark.parametrize("tag", sorted(EXPECTED_TAGS))
    def test_a_product_grid_is_runs_that_share_one_trailing_list(self, tag):
        # No run is empty. Leading values do not repeat, except in
        # e-multiplicativity's grid, a run per drawn pair, whose a may
        # repeat. The runs of a product grid share the one list of its
        # trailing product.
        ident = verify._lookup(tag)
        for bounds in small_bounds(tag):
            runs = verify._grid(ident, bounds, 7)
            leads = [lead for lead, _ in runs]
            assert all(rests for _, rests in runs), bounds
            if tag == "e-multiplicativity":
                assert all(len(rests) == 1 for _, rests in runs), bounds
            else:
                assert len(set(leads)) == len(leads), bounds
            if ident.grid is None and runs:
                trailing = list(iter_product(*(p.values(bounds) for p in ident.params[1:])))
                assert runs[0][1] == trailing, bounds
                assert all(rests is runs[0][1] for _, rests in runs), bounds

    @pytest.mark.parametrize("tag", sorted(
        tag for tag in EXPECTED_TAGS
        if verify._lookup(tag).grid is None
        and any(p.kind == "int" for p in verify._lookup(tag).params[1:])
    ))
    def test_an_empty_trailing_parameter_gives_no_runs(self, tag):
        ident = verify._lookup(tag)
        bounds = {name: 3 for name in ident.bounds}
        assert verify._grid(ident, bounds, 7)
        for p in ident.params[1:]:
            if p.kind == "int":
                empty = dict(bounds, **{p.bound: p.minimum - 1})
                assert verify._grid(ident, empty, 7) == [], p.name

    def test_only_grids_of_another_shape_are_spelled_out(self):
        spelled = {tag for tag, ident in verify._CATALOG.items() if ident.grid or ident.size}
        assert spelled == {"cross-evaluator", "e-multiplicativity", "half-sum"}

    def test_the_multiset_count_is_the_sum_of_its_arities(self):
        # Exact up to the budget, and over it past it.
        for k in range(0, 30):
            for n in range(0, 30):
                by_arity = sum(math.comb(k + i - 1, i) for i in range(1, n + 1))
                count = verify._multiset_count(k, n)
                if by_arity <= verify.GRID_BUDGET:
                    assert count == by_arity, (k, n)
                else:
                    assert count > verify.GRID_BUDGET, (k, n)

    def test_the_moduli_count_is_the_sum_of_its_arities(self):
        for k in range(0, 30):
            for n in range(0, 30):
                by_arity = sum(i * math.comb(k + i - 1, i) for i in range(1, n + 1))
                count = verify._multiset_moduli(k, n)
                if verify._multiset_count(k, n) <= verify.GRID_BUDGET:
                    assert count == by_arity == (k * math.comb(k + n, n - 1) if n else 0), (k, n)
                else:
                    assert count > verify.GRID_BUDGET, (k, n)
        # 10^6 cases, within the budget as cases, but about 5 * 10^11 moduli.
        assert verify._multiset_count(1, 10**6) == 10**6 == verify.GRID_BUDGET
        assert verify._multiset_moduli(1, 10**6) == 10**6 * (10**6 + 1) // 2

    def test_a_count_past_the_budget_stays_past_it(self):
        # The smaller of k and n is held to GRID_BUDGET's bit length, so no
        # huge binomial is computed, and the count stays over the budget.
        for k, n in [(10**8, 10**8), (10**8, 21), (21, 10**8), (1, 10**8), (2, 10**8)]:
            assert verify._multiset_count(k, n) > verify.GRID_BUDGET
        assert verify._multiset_count(1, verify.GRID_BUDGET) == verify.GRID_BUDGET

    def test_the_default_grids_are_within_the_budget(self):
        sizes = {
            ident.tag: verify._grid_size(ident, ident.bounds)
            for ident in map(verify._lookup, IDENTITY_TAGS)
        }
        assert max(sizes.values()) == sizes["inverse-dft"] == 250_000
        # 40 * C(43, 2) moduli in the multiset grids, 5 r each for prop7.
        assert sizes["prop7"] == 5 * sizes["e-integrality"] == 5 * 36_120
        assert sizes["e-multiplicativity"] == 200 * (2 * 3 + 30)
        assert sum(sizes.values()) == 604_001 <= verify.GRID_BUDGET
        # The largest k_max e-multiplicativity accepts alone is 4,994.
        ident = verify._lookup("e-multiplicativity")
        assert verify._grid_size(ident, dict(ident.bounds, k_max=4994)) == verify.GRID_BUDGET
        assert verify._grid_size(ident, dict(ident.bounds, k_max=4995)) > verify.GRID_BUDGET

    @pytest.mark.parametrize("tag, bounds, count", [
        ("prop1", dict(k_max=6, r_max=3), 18),
        ("prop7", dict(k_max=4, n_max=2, r_max=2), (4 + 2 * 10) * 2),
        ("cross-evaluator", dict(k_max=5), 2 + 3 + 4 + 5 + 6),
        ("e-multiplicativity", {}, 200 * (2 * 3 + 30)),
        ("prop7-corollary", dict(k_max=1, n_max=40), 40 * 41 // 2),
    ])
    def test_both_sides_of_the_budget(self, monkeypatch, tag, bounds, count):
        built, real = [], verify._grid
        monkeypatch.setattr(verify, "_grid", lambda *args: built.append(real(*args)) or built[-1])
        config = SuiteConfig(identities=[tag], **bounds)
        monkeypatch.setattr(verify, "GRID_BUDGET", count - 1)
        message = (
            rf"^grids exceed the budget of {count - 1} cases, a tuple case counted per modulus"
            r" and a coprime pair per candidate it filters$"
        )
        with pytest.raises(ParamError, match=message):
            run_suite(config)
        assert built == []
        monkeypatch.setattr(verify, "GRID_BUDGET", count)
        report = run_suite(config)
        [runs] = built
        grid = flat(runs)
        assert report.total == len(grid) and report.failed == 0
        if tag != "e-multiplicativity":  # which also counts the k_max candidates
            assert sum(map(moduli_held, grid)) == count

    def test_the_budget_holds_the_sum_of_the_selected_grids(self, monkeypatch):
        built, real = [], verify._grid
        monkeypatch.setattr(verify, "_grid", lambda *args: built.append(args[0].tag) or real(*args))
        config = SuiteConfig(identities=["prop1", "cross-evaluator"], k_max=5, r_max=3)
        monkeypatch.setattr(verify, "GRID_BUDGET", 15 + 20 - 1)
        with pytest.raises(ParamError, match="budget"):
            run_suite(config)
        assert built == []
        monkeypatch.setattr(verify, "GRID_BUDGET", 15 + 20)
        assert run_suite(config).total == 15 + 20
        assert built == ["prop1", "cross-evaluator"]
        # One empty grid is swept as empty; bounds that empty both count
        # no case, and the selection is refused before either is built.
        built.clear()
        tags = ["prop1", "cross-evaluator"]
        assert run_suite(SuiteConfig(identities=tags, k_max=5, r_max=0)).total == 20
        assert built == tags
        built.clear()
        with pytest.raises(ConfigError, match="empty grid"):
            run_suite(SuiteConfig(identities=tags, k_max=0, r_max=3))
        assert built == []

    def test_each_grid_is_built_when_the_sweep_reaches_it(self, monkeypatch):
        # A sink that raises on the first run ends the sweep with one grid
        # built. A whole sweep builds each grid once, in order, and no
        # longer holds a grid when it builds the next.
        refs, alive, real = [], [], verify._grid

        class Grid(list):
            """A built grid that a weak reference can watch."""

        def build(*args):
            alive.append([ref() is not None for ref in refs])
            grid = Grid(real(*args))
            refs.append(weakref.ref(grid))
            return grid

        class Stop(Exception):
            pass

        def stop(*run):
            raise Stop

        monkeypatch.setattr(verify, "_grid", build)
        config = SuiteConfig(identities=["prop1", "cross-evaluator", "half-sum"], k_max=5, r_max=3)
        with pytest.raises(Stop):
            run_suite(config, stop)
        assert len(refs) == 1
        refs.clear()
        alive.clear()
        assert run_suite(config).total == 15 + 20 + 3
        assert alive == [[], [False], [False, False]]

    @pytest.mark.parametrize("tag, bounds", [
        ("prop1", dict(k_max=10**8)),
        ("cross-evaluator", dict(k_max=10**5)),
        ("prop7", dict(k_max=10**8, n_max=10**8)),
        ("prop7-corollary", dict(k_max=1, n_max=10**8)),
        ("inverse-dft", dict(k_max=averages.DFT_LIMIT, n_max=11)),
        ("prop7-corollary", dict(k_max=1, n_max=10**6)),
        ("e-multiplicativity", dict(n_max=10**4)),
        ("e-multiplicativity", dict(k_max=10**5)),
    ])
    def test_a_large_grid_is_refused_before_it_is_built(self, monkeypatch, tag, bounds):
        built = []
        monkeypatch.setattr(verify, "_grid", lambda *args: built.append(args) or [])
        with pytest.raises(ParamError, match="^grids exceed the budget"):
            run_suite(SuiteConfig(identities=[tag], **bounds))
        assert built == []


class TestGridsPassTheSchema:
    """run_suite checks no case of the grids it builds: every one must pass
    the check run_identity makes."""

    @pytest.mark.parametrize("tag", sorted(EXPECTED_TAGS))
    def test_every_grid_case_passes_the_schema(self, tag):
        ident = verify._lookup(tag)
        seeds = [averages.DEFAULT_SEED]
        if tag == "e-multiplicativity":  # the one grid drawn from the seed
            seeds += [0, 7]
        for bounds in small_bounds(tag) + [dict(ident.bounds)]:
            for seed in seeds:
                grid = flat(verify._grid(ident, bounds, seed))
                for params in grid:
                    verify._validate(ident, params)
        assert grid  # the default grid


class TestVerdicts:
    @pytest.mark.parametrize("tolerance", [1e-8, 1e-16])
    def test_each_verdict_is_the_mode_criterion_on_the_rendered_sides(self, tolerance):
        config = SuiteConfig(k_max=12, n_max=3, r_max=3, m_max=3, tolerance=tolerance)
        report, cases, _ = sweep(config)
        assert {c.identity for c in cases} == set(IDENTITY_TAGS)
        for case in cases:
            if case.error is not None:
                expected = False
            elif case.mode == "exact":
                expected = case.lhs == case.rhs
            else:
                a, b = float(case.lhs), float(case.rhs)
                expected = abs(a - b) <= tolerance * (1 + max(abs(a), abs(b)))
            assert case.passed == expected, case
        dft_failures = [c for c in report.failures if c.identity == "inverse-dft"]
        assert bool(dft_failures) == (tolerance < 1e-8)

    def test_pairs_and_evaluators_take_no_tolerance(self):
        with pytest.raises(TypeError):
            averages.log_weighted_pair(5, 1.0)
        # Sides are plain (lhs, rhs) tuples, with nothing that compares them.
        assert type(averages.log_weighted_pair(5)) is tuple
        # The default and the criterion live in verify alone.
        assert [name for name in vars(averages) if "tolerance" in name.lower()] == []
        for module in (arith, exact, ramanujan, averages, multivar):
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn):
                    assert "tolerance" not in inspect.signature(fn).parameters, name
        for ident in verify._CATALOG.values():
            assert len(inspect.signature(ident.evaluate).parameters) == 3, ident.tag


class TestRunSuite:
    def test_prop1_small_grid_cardinality(self):
        report = run_suite(SuiteConfig(identities=["prop1"], k_max=10, r_max=3))
        assert report.total == 30 and report.passed == 30 and report.failed == 0

    def test_empty_grid_is_config_error(self):
        with pytest.raises(ConfigError):
            run_suite(SuiteConfig(identities=["prop4"], k_max=1))

    def test_empty_selection_is_config_error(self):
        with pytest.raises(ConfigError, match="no identity selected"):
            run_suite(SuiteConfig(identities=[]))

    def test_repeated_selection_is_config_error(self):
        for identities in (["prop1", "prop1"], ["prop2", "prop1", "prop2"]):
            with pytest.raises(ConfigError, match="more than once"):
                run_suite(SuiteConfig(identities=identities, k_max=3, r_max=1))

    def test_tolerance_may_only_tighten(self):
        with pytest.raises(ConfigError):
            run_suite(SuiteConfig(identities=["prop2"], k_max=5, tolerance=1e-6))
        report = run_suite(SuiteConfig(identities=["prop2"], k_max=5, tolerance=1e-10))
        assert report.failed == 0

    def test_corrupted_evaluator_produces_diagnostics(self, monkeypatch):
        real = averages.s_r_closed_batch
        monkeypatch.setattr(
            averages,
            "s_r_closed_batch",
            lambda k, rs: [v + (Fraction(1, 7) if k == 5 else 0) for v in real(k, rs)],
        )
        report = run_suite(SuiteConfig(identities=["prop1"], k_max=8, r_max=2))
        assert report.failed == 2
        assert report.passed == report.total - 2
        for case in report.failures:
            assert case.lhs and case.rhs and not case.passed
            assert "k=5" in case.params

    def test_failures_listed_in_parameter_order(self, monkeypatch):
        monkeypatch.setattr(averages, "s_r_closed_batch", lambda k, rs: [Fraction(999)] * len(rs))
        report = run_suite(SuiteConfig(identities=["prop1"], k_max=3, r_max=2))
        assert [c.params for c in report.failures] == [
            "k=1,r=1", "k=1,r=2", "k=2,r=1", "k=2,r=2", "k=3,r=1", "k=3,r=2",
        ]

    def test_reports_are_deterministic_and_thread_independent(self):
        config = dict(identities=["prop1", "prop2", "inverse-dft"], k_max=25, r_max=3, n_max=10)
        serial_1 = run_suite(SuiteConfig(**config))
        serial_2 = run_suite(SuiteConfig(**config))
        assert json.dumps(serial_1.body_dict(), indent=2) == json.dumps(
            serial_2.body_dict(), indent=2
        )

    def test_seed_changes_random_function_grid(self):
        a = run_suite(SuiteConfig(identities=["prop3"], k_max=12, seed=1))
        b = run_suite(SuiteConfig(identities=["prop3"], k_max=12, seed=2))
        assert a.failed == b.failed == 0
        # same grid shape, different functions behind the rand tags
        assert a.total == b.total

    @pytest.mark.parametrize("tag, bounds", [
        ("prop5-cosine", dict(k_max=averages.COSINE_LIMIT + 1)),
        ("inverse-dft", dict(k_max=averages.DFT_LIMIT + 1, n_max=1)),
    ])
    def test_bound_above_cap_is_refused_before_the_grid(self, monkeypatch, tag, bounds):
        built, evaluated = [], []
        monkeypatch.setattr(verify, "_grid", lambda *args: built.append(args) or [])
        for name in ("binomial_weighted_cosine", "inverse_dft_batch"):
            monkeypatch.setattr(averages, name, lambda *args: evaluated.append(args))
        with pytest.raises(ParamError, match=r"^k must be <= \d+$"):
            run_suite(SuiteConfig(identities=["prop1", tag], r_max=1, **bounds))
        assert built == [] and evaluated == []

    def test_bound_at_cap_is_swept(self, monkeypatch):
        built = []
        monkeypatch.setattr(verify, "_grid", lambda ident, b, seed: built.append(b) or [(1, [()])])
        report = run_suite(SuiteConfig(identities=["prop5-cosine"], k_max=averages.COSINE_LIMIT))
        assert built == [{"k_max": averages.COSINE_LIMIT}] and report.total == 1

    def test_worst_errors_only_for_tolerance_identities(self):
        report = run_suite(
            SuiteConfig(identities=["prop1", "prop2"], k_max=20, r_max=2)
        )
        assert set(report.worst_errors) == {"prop2"}
        assert report.worst_errors["prop2"] >= 0.0


class TestSerialization:
    def test_json_key_order(self):
        report = run_suite(SuiteConfig(identities=["half-sum"]))
        data = json.loads(report_to_json(report))
        assert list(data) == [
            "suite", "grid", "total", "passed", "failed",
            "worst_errors", "failures", "wall_time_seconds",
        ]

    def test_body_excludes_wall_time(self):
        report = run_suite(SuiteConfig(identities=["half-sum"]))
        body = report.body_dict()
        assert "wall_time_seconds" not in body
        assert body["total"] == body["passed"] == report.total

    def test_json_round_trip(self):
        report = run_suite(SuiteConfig(identities=["prop1"], k_max=5, r_max=2))
        text = report_to_json(report)
        assert json.dumps(json.loads(text), indent=2) == text

    def test_csv_cases(self):
        text = sweep(SuiteConfig(identities=["prop1"], k_max=4, r_max=2)).csv
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["identity", "params", "mode", "lhs", "rhs", "abs_error", "pass"]
        assert len(rows) == 1 + 8
        assert rows[1] == ["prop1", "k=1,r=1", "exact", "1", "1", "", "true"]

    def test_exact_sides_render_as_str(self):
        # str gives the text of the f-string rendering it replaced, for an
        # int and for a reduced Fraction alike.
        big = 10**299 + 7  # 300 digits
        for x in (0, -1, 12, -big, big, Fraction(0), Fraction(-3, 4), Fraction(6, 1),
                  Fraction(-5, 1), Fraction(big, 3), Fraction(-1, big)):
            old = str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
            assert verify._fmt_rational(x) == str(x) == old
        assert len(str(big)) == 300

    def test_csv_round_trip(self):
        # The CSV of every small grid of every tag, where cases pass and
        # where they fail: csv.reader reads each row back as 7 fields, a
        # row per case after the header, and csv.writer writes the same
        # bytes again, so cases_to_csv quotes what csv.writer would quote.
        failing = 0
        for tag, tolerance in iter_product(IDENTITY_TAGS, (verify.DEFAULT_TOLERANCE, 1e-16)):
            ident = verify._lookup(tag)
            for bounds in small_bounds(tag):
                runs = verify._grid(ident, bounds, averages.DEFAULT_SEED)
                text = verify.CSV_HEADER + "".join(
                    cases_to_csv(ident, lead, rests, verify._compare(
                        ident, lead, rests, tolerance, averages.DEFAULT_SEED
                    ))
                    for lead, rests in runs
                )
                rows = list(csv.reader(io.StringIO(text, newline="")))
                assert all(len(row) == 7 for row in rows), (tag, bounds)
                assert len(rows) == 1 + sum(len(rests) for _, rests in runs), (tag, bounds)
                buf = io.StringIO()
                csv.writer(buf, lineterminator="\n").writerows(rows)
                assert buf.getvalue() == text, (tag, bounds)
                failing += sum(row[6] == "false" for row in rows)
        assert failing > 0  # float cases fail at 1e-16


class _Subclass(int):
    pass


# No catalog identity has a capped or a plain moduli trailing parameter.
_SYNTHETIC = verify.IdentityDef("synthetic", "exact", (Param("k"), Param("n", cap=5)), None, {})
_SYNTHETIC_MODULI = verify.IdentityDef(
    "synthetic-moduli", "exact", (Param("k"), Param("ks", "moduli")), None, {}
)
_NON_COPRIME = "tuples (2,) and (4,) are not coprime"
_NOT_MODULI = "ks must be a non-empty tuple of positive integers, got "
# (identity, leading value, [(trailing value, the ParamError text of the
# case (leading value, trailing value), or None if it passes)]).
COLUMNS = {
    "bool": ("inverse-dft", 5, [
        (1, None), (True, "n must be a positive integer, got True"), (3, None),
    ]),
    "float": ("cross-evaluator", 5, [
        (0, None), (2.0, "j must be a non-negative integer, got 2.0"), (1, None),
    ]),
    "below minimum, positive": ("inverse-dft", 5, [
        (1, None), (0, "n must be a positive integer, got 0"), (3, None),
    ]),
    "below minimum, non-negative": ("cross-evaluator", 5, [
        (0, None), (-1, "j must be a non-negative integer, got -1"), (1, None),
    ]),
    "above the cap": (_SYNTHETIC, 1, [(4, None), (6, "n must be <= 5"), (5, None)]),
    "at the cap": (_SYNTHETIC, 1, [(4, None), (5, None)]),
    "int subclass": (_SYNTHETIC, 1, [(1, None), (_Subclass(2), None), (3, None)]),
    "unknown function": ("prop3", 6, [
        ("id", None), ("nosuch", "unknown arithmetic function 'nosuch'"), ("tau", None),
    ]),
    "unhashable function": ("prop3", 6, [
        ("id", None), ([1], "unknown arithmetic function [1]"), ("tau", None),
    ]),
    "non-ASCII digit": ("prop3", 6, [
        ("rand01", None), ("rand\u0663", "unknown arithmetic function 'rand\u0663'"),
        ("rand02", None),
    ]),
    "functions": ("prop3", 6, [("id", None), ("rand07", None), ("phi", None)]),
    "choice": ("prop3-corollary", 6, [
        ("id", None), ("mu", "f must be one of id/tau/sigma, got 'mu'"), ("tau", None),
    ]),
    "choices": ("prop3-corollary", 6, [("id", None), ("sigma", None), ("tau", None)]),
    "not coprime": ("e-multiplicativity", (2,), [
        ((3,), None), ((4,), _NON_COPRIME), ((5,), None),
    ]),
    "unequal arity": ("e-multiplicativity", (2,), [
        ((3,), None), ((3, 5), "tuples must have equal arity"), ((5,), None),
    ]),
    "bad modulus before a non-coprime one": ("e-multiplicativity", (2,), [
        ((4,), _NON_COPRIME),
        ((0,), "b must be a non-empty tuple of positive integers, got (0,)"),
    ]),
    "coprime": ("e-multiplicativity", (2, 3), [((5, 7), None), ((1, 1), None)]),
    "empty tuple": (_SYNTHETIC_MODULI, 1, [
        ((1, 2), None), ((), _NOT_MODULI + "()"), ((3,), None),
    ]),
    "zero modulus": (_SYNTHETIC_MODULI, 1, [
        ((1, 2), None), ((2, 0), _NOT_MODULI + "(2, 0)"), ((3,), None),
    ]),
    "bool modulus": (_SYNTHETIC_MODULI, 1, [
        ((1, 2), None), ((True, 2), _NOT_MODULI + "(True, 2)"), ((3,), None),
    ]),
    "list of moduli": (_SYNTHETIC_MODULI, 1, [
        ((1, 2), None), ([2], _NOT_MODULI + "[2]"), ((3,), None),
    ]),
    "moduli": (_SYNTHETIC_MODULI, 1, [((1, 2), None), ((2,), None), ((3, 3, 3), None)]),
}


class TestColumnValidation:
    """Each value of a COLUMNS entry is checked alone, as one case: through
    run_identity for a catalog tag, through _validate for a synthetic one."""

    @pytest.mark.parametrize("name", COLUMNS)
    def test_a_column_raises_what_its_first_bad_value_raises(self, name):
        ident, lead, values = COLUMNS[name]
        if isinstance(ident, str):
            check = lambda params: run_identity(ident, params)
        else:
            check = lambda params: verify._validate(ident, params)
        for value, error in values:
            if error is None:
                check((lead, value))
            else:
                with pytest.raises(ParamError) as raised:
                    check((lead, value))
                assert str(raised.value) == error, value


class Swept(NamedTuple):
    """A sweep's report and every case it compared, in sweep order."""

    report: VerificationReport
    cases: List[IdentityCase]  # each run rendered by _render
    csv: str  # the CLI's CSV: the header, then cases_to_csv of each run

    @classmethod
    def of(cls, report, runs):
        cases = [case for ident, lead, rests, columns in runs
                 for case in verify._render(ident, lead, rests, *columns)]
        return cls(report, cases, verify.CSV_HEADER + "".join(cases_to_csv(*r) for r in runs))


def sweep(config):
    """run_suite(config), with a sink that collects each run as it is
    compared."""
    runs = []
    report = run_suite(config, lambda *run: runs.append(run))
    return Swept.of(report, runs)


def csv_by_attributes(cases):
    """cases_to_csv as it was written for the dataclass record."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["identity", "params", "mode", "lhs", "rhs", "abs_error", "pass"])
    for c in cases:
        writer.writerow(
            [
                c.identity,
                c.params,
                c.mode,
                c.lhs,
                c.rhs,
                "" if c.abs_error is None else f"{c.abs_error:.17g}",
                "true" if c.passed else "false",
            ]
        )
    return buf.getvalue()


class TestIdentityCase:
    FIELDS = ("identity", "params", "mode", "lhs", "rhs", "passed", "abs_error", "error")

    def test_fields_and_defaults(self):
        assert IdentityCase._fields == self.FIELDS
        case = IdentityCase("prop1", "k=1,r=1", "exact", "1", "1", True)
        assert case.abs_error is None and case.error is None
        assert case == ("prop1", "k=1,r=1", "exact", "1", "1", True, None, None)

    def test_immutable(self):
        case = IdentityCase("prop1", "k=1,r=1", "exact", "1", "1", True)
        for name in self.FIELDS:
            with pytest.raises(AttributeError):
                setattr(case, name, None)

    def test_as_dict_key_order(self):
        case = IdentityCase("prop2", "k=3", "tolerance", "0.5", "0.5", False, 1e-3, "why")
        assert case.as_dict() == {
            "identity": "prop2", "params": "k=3", "mode": "tolerance", "lhs": "0.5",
            "rhs": "0.5", "abs_error": 1e-3, "pass": False, "error": "why",
        }
        assert list(case.as_dict()) == [
            "identity", "params", "mode", "lhs", "rhs", "abs_error", "pass", "error",
        ]

    def test_csv_equals_the_attribute_rendering(self):
        # Runs of each shape a sweep gives its sink: exact ints and
        # Fractions, float sides with their abs_error, a raised case in each
        # mode (empty sides, no abs_error), failed cases, and params holding
        # tuples and commas, which the CSV quotes as csv.writer does.
        columns, lookup = verify._Columns, verify._lookup
        runs = [
            (lookup("prop1"), 2, [(1,), (2,)],
             columns([Fraction(1, 4), 5], [Fraction(1, 4), Fraction(-6, 7)], None,
                     [True, False], None)),
            (lookup("prop2"), 5, [()],
             columns([0.1], [0.10000000000000001], None, [True], [1.3877787807814457e-17])),
            (lookup("inverse-dft"), 7, [(1,), (2,)],
             columns([2.5, None], [3.0, None], [None, "budget: refused"], [False, False],
                     [0.5, None])),
            (lookup("e-integrality"), (720720, 720720), [()],
             columns([None], [None], ["budget: the lattice exceeds 10 terms"], [False], None)),
            (lookup("e-multiplicativity"), (2, 3), [((5, 7),)],
             columns([1], [1], None, [True], None)),
            (lookup("gamma-product"), 3, [()], columns([1.0], [1.0], None, [True], [0.0])),
            (lookup("prop7"), (1, 2), [(1,)],
             columns([Fraction(1, 3)], [Fraction(-2, 3)], None, [False], None)),
        ]
        _, cases, text = Swept.of(None, runs)
        assert len(cases) == 9
        assert cases[-1][3:5] == ("1/3", "-2/3")
        assert cases_to_csv(*runs[-1]) == 'prop7,"ks=1|2,r=1",exact,1/3,-2/3,,false\n'
        assert text == csv_by_attributes(cases)
        assert Swept.of(None, []).csv == verify.CSV_HEADER == csv_by_attributes([])


def rows_by_attributes(cases):
    """csv_by_attributes without its header: the rows of cases_to_csv."""
    return csv_by_attributes(cases)[len(verify.CSV_HEADER):]


class TestCsvQuoting:
    """cases_to_csv quotes one field, a params field with trailing values,
    which holds the template's comma; it writes every other field as it
    is, so no other text the catalog renders may hold a special
    character."""

    SPECIAL = (",", '"', "\r", "\n")

    def test_no_catalog_text_needs_quotes(self):
        # Tags, modes and parameter names, the fixed choices and the named
        # functions. The rest of a row is str of ints and Fractions, "|"
        # between moduli and "{:.17g}" of floats, none of them special;
        # test_csv_round_trip reads back what every grid gives.
        texts = list(averages.NAMED_FUNCTIONS)
        for ident in map(verify._lookup, IDENTITY_TAGS):
            texts += [ident.tag, ident.mode, *ident.param_names]
            for p in ident.params:
                texts += p.choices
        for text in texts:
            assert not any(c in text for c in self.SPECIAL), repr(text)

    @given(st.from_regex(verify._RANDOM_NAME, fullmatch=True))
    def test_no_random_function_name_needs_quotes(self, name):
        assert not any(c in name for c in self.SPECIAL), repr(name)
        for c in self.SPECIAL:
            assert not verify._is_function_name(name + c), repr(name + c)

    def test_the_trailing_text_of_a_shared_list_never_goes_stale(self, monkeypatch):
        # _grid renders a product grid's trailing text once, onto the one
        # list its runs share, and a sweep renders it no more. prop1 runs
        # over two such lists interleaved (A, B, A), and prop7, whose
        # template is prop1's, over A; a hand-built list of B's length
        # without text (C) is rendered on each call. Each run is written
        # as from a plain copy of its list.
        rendered, real = [], verify._trailing_text

        def counting(ident, rests):
            if getattr(rests, "text", None) is None:
                rendered.append((ident.tag, rests))
            return real(ident, rests)

        monkeypatch.setattr(verify, "_trailing_text", counting)
        sweep(SuiteConfig(identities=["prop1", "prop7", "inverse-dft"], k_max=4, n_max=3, r_max=2))
        assert [(tag, type(rests)) for tag, rests in rendered] == [
            (tag, verify._Trailing) for tag in ("prop1", "prop7", "inverse-dft")
        ]

        prop1, prop7 = verify._lookup("prop1"), verify._lookup("prop7")
        assert prop1.trailing == prop7.trailing == ",r={}"
        ((_, a),) = verify._grid(prop1, {"k_max": 1, "r_max": 2}, 0)
        ((_, b),) = verify._grid(prop1, {"k_max": 1, "r_max": 3}, 0)
        c = verify._Trailing([(4,), (5,), (6,)])
        assert type(a) is type(b) is verify._Trailing and len(b) == len(c)
        texts = [a.text, b.text]
        assert texts == [real(prop1, list(a)), real(prop1, list(b))]
        calls = [(prop1, 2, a), (prop1, 3, b), (prop1, 2, a), (prop7, (1, 2), c),
                 (prop1, 3, b), (prop7, (1, 2), a), (prop1, 2, c)]
        rendered.clear()
        for ident, lead, rests in calls:
            cols = verify._compare(ident, lead, rests, verify.DEFAULT_TOLERANCE, 0)
            fresh = verify._render(ident, lead, list(rests), *cols)
            prefix = f"{ident.param_names[0]}={verify._fmt_value(lead)}"
            assert [case.params for case in fresh] == [f"{prefix},r={r}" for (r,) in rests]
            assert cases_to_csv(ident, lead, rests, cols) == rows_by_attributes(fresh)
            assert verify._render(ident, lead, rests, *cols) == fresh
        # A and B keep the text _grid gave them and are not rendered again;
        # C, never given one, is rendered by each cases_to_csv and _render.
        assert a.text is texts[0] and b.text is texts[1] and not hasattr(c, "text")
        shared = [rests for _, rests in rendered if type(rests) is verify._Trailing]
        assert len(shared) == 4 and all(rests is c for rests in shared)


class TestDefaultBounds:
    def test_acceptance_grids_pinned(self):
        bounds = {tag: dict(verify._lookup(tag).bounds) for tag in IDENTITY_TAGS}
        assert bounds["prop1"] == {"k_max": 1000, "r_max": 10}
        assert bounds["cross-evaluator"] == {"k_max": 300}
        assert bounds["prop3"] == {"k_max": 1000, "rand_count": 20}
        assert bounds["prop6"] == {"k_max": 500, "m_max": 8}
        assert bounds["prop5-exact"] == {"k_max": 200}
        assert bounds["inverse-dft"] == {"k_max": 500, "n_max": 500}
        assert bounds["prop7"] == {"k_max": 40, "n_max": 3, "r_max": 5}
        assert bounds["e-multiplicativity"] == {"k_max": 30, "n_max": 3, "pairs": 200}
        assert bounds["half-sum"] == {"r_max": 40}
        assert bounds["faulhaber"] == {"n_max": 200, "r_max": 10}
        assert bounds["coprime-power-sum"] == {"n_max": 200, "r_max": 8}
        assert bounds["bernoulli-poly-sum"] == {"k_max": 60, "m_max": 8}


# A tolerance side: any float, NaN, +-inf, +-0.0 and subnormals among
# them, or an int below 2^53, which float64 holds exactly.
TOLERANCE_SIDE = st.floats() | st.integers(-(2**53) + 1, 2**53 - 1)


class TestColumnCriterion:
    """The tolerance columns that _compare gives a run, over float64
    arrays, are the scalar rule verify.within_tolerance case by case, and
    abs_error is the Python float abs(a - b)."""

    @given(
        st.lists(st.tuples(TOLERANCE_SIDE, TOLERANCE_SIDE), min_size=1, max_size=300),
        st.sampled_from([verify.DEFAULT_TOLERANCE, 1e-16, 5e-324])
        | st.floats(5e-324, verify.DEFAULT_TOLERANCE),
    )
    @example([(math.inf, math.inf), (1e308, -1e308), (math.nan, 1.0), (5e-324, -0.0)], 1e-8)
    @example([(2**53 - 1, -2), (3, 3.0)], 1e-16)
    @settings(max_examples=200, deadline=None)
    @pytest.mark.filterwarnings("error")  # inf - inf and overflow stay silent
    def test_the_columns_are_the_rule_case_by_case(self, pairs, tolerance):
        lhs, rhs = (list(column) for column in zip(*pairs))
        ident = verify.IdentityDef(
            "drawn", "tolerance", (Param("k"), Param("n")), lambda lead, rests, seed: (lhs, rhs), {}
        )
        columns = verify._compare(ident, 1, [(n,) for n in range(len(pairs))], tolerance, 0)
        expected = [verify.within_tolerance(a, b, tolerance) for a, b in pairs]
        assert type(columns.passed) is list and all(type(ok) is bool for ok in columns.passed)
        assert columns.passed == expected
        assert [e.hex() for e in columns.errors] == [float(abs(a - b)).hex() for a, b in pairs]
        assert columns.reasons is None
