import csv
import io
import json
from fractions import Fraction

import pytest

import ramavg.averages as averages
from ramavg.verify import (
    ConfigError,
    IDENTITY_TAGS,
    ParamError,
    SuiteConfig,
    cases_to_csv,
    default_bounds,
    identity_mode,
    report_body_json,
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
            assert identity_mode(tag) == expected

    def test_every_identity_has_default_grid_cases(self):
        # Catalog completeness: tiny bounds still yield at least one case.
        for tag in IDENTITY_TAGS:
            report = run_suite(
                SuiteConfig(identities=[tag], k_max=6, r_max=2, m_max=2, n_max=2)
            )
            assert report.total >= 1, tag

    def test_unknown_tag_rejected(self):
        with pytest.raises(ConfigError):
            identity_mode("prop99")
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

    def test_cross_evaluator_float_mismatch_has_a_reason(self, monkeypatch):
        import ramavg.verify as verify

        monkeypatch.setattr(verify, "ramanujan_sum_float", lambda k, j: 0.25)
        case = run_identity("cross-evaluator", (6, 1))
        assert not case.passed
        assert case.lhs == case.rhs == "1"
        assert case.error == "float oracle 0.25 disagrees with the exact value 1"

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
        real = averages.s_r_closed
        monkeypatch.setattr(
            averages,
            "s_r_closed",
            lambda k, r: real(k, r) + (Fraction(1, 7) if k == 5 else 0),
        )
        report = run_suite(SuiteConfig(identities=["prop1"], k_max=8, r_max=2))
        assert report.failed == 2
        assert report.passed == report.total - 2
        for case in report.failures:
            assert case.lhs and case.rhs and not case.passed
            assert "k=5" in case.params

    def test_failures_listed_in_parameter_order(self, monkeypatch):
        monkeypatch.setattr(averages, "s_r_closed", lambda k, r: Fraction(999))
        report = run_suite(SuiteConfig(identities=["prop1"], k_max=3, r_max=2))
        assert [c.params for c in report.failures] == [
            "k=1,r=1", "k=1,r=2", "k=2,r=1", "k=2,r=2", "k=3,r=1", "k=3,r=2",
        ]

    def test_reports_are_deterministic_and_thread_independent(self):
        config = dict(identities=["prop1", "prop2", "inverse-dft"], k_max=25, r_max=3, n_max=10)
        serial_1 = run_suite(SuiteConfig(**config))
        serial_2 = run_suite(SuiteConfig(**config))
        assert report_body_json(serial_1) == report_body_json(serial_2)

    def test_seed_changes_random_function_grid(self):
        a = run_suite(SuiteConfig(identities=["prop3"], k_max=12, seed=1))
        b = run_suite(SuiteConfig(identities=["prop3"], k_max=12, seed=2))
        assert a.failed == b.failed == 0
        # same grid shape, different functions behind the rand tags
        assert a.total == b.total

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
        body = json.loads(report_body_json(report))
        assert "wall_time_seconds" not in body
        assert body["total"] == body["passed"] == report.total

    def test_json_round_trip(self):
        report = run_suite(SuiteConfig(identities=["prop1"], k_max=5, r_max=2))
        text = report_to_json(report)
        assert json.dumps(json.loads(text), indent=2) == text

    def test_csv_cases(self):
        report = run_suite(
            SuiteConfig(identities=["prop1"], k_max=4, r_max=2, keep_cases=True)
        )
        text = cases_to_csv(report.cases)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["identity", "params", "mode", "lhs", "rhs", "abs_error", "pass"]
        assert len(rows) == 1 + 8
        assert rows[1] == ["prop1", "k=1,r=1", "exact", "1", "1", "", "true"]

    def test_csv_round_trip(self):
        report = run_suite(
            SuiteConfig(identities=["prop2"], k_max=6, keep_cases=True)
        )
        text = cases_to_csv(report.cases)
        rows = list(csv.reader(io.StringIO(text)))
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        assert buf.getvalue() == text


class TestDefaultBounds:
    def test_acceptance_grids_pinned(self):
        assert default_bounds("prop1") == {"k_max": 1000, "r_max": 10}
        assert default_bounds("cross-evaluator") == {"k_max": 300}
        assert default_bounds("prop3") == {"k_max": 1000, "rand_count": 20}
        assert default_bounds("prop6") == {"k_max": 500, "m_max": 8}
        assert default_bounds("prop5-exact") == {"k_max": 200}
        assert default_bounds("inverse-dft") == {"k_max": 500, "n_max": 500}
        assert default_bounds("prop7") == {"k_max": 40, "n_max": 3, "r_max": 5}
        assert default_bounds("e-multiplicativity") == {"k_max": 30, "n_max": 3, "pairs": 200}
        assert default_bounds("half-sum") == {"r_max": 40}
        assert default_bounds("faulhaber") == {"n_max": 200, "r_max": 10}
        assert default_bounds("coprime-power-sum") == {"n_max": 200, "r_max": 8}
        assert default_bounds("bernoulli-poly-sum") == {"k_max": 60, "m_max": 8}
