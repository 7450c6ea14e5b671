import csv
import inspect
import io
import json
from fractions import Fraction

import pytest

import ramavg.averages as averages
import ramavg.exact as exact
import ramavg.verify as verify
from ramavg.verify import (
    ConfigError,
    IDENTITY_TAGS,
    IdentityCase,
    Param,
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
        verify._validate(ident, params[0], [params[1:]])
        with pytest.raises(ParamError, match=over_cap(tag)):
            run_identity(tag, with_degree(tag, exact.DEGREE_CAP + 1))

    @pytest.mark.parametrize("tag", sorted(DEGREE_PARAMS))
    def test_a_bound_above_the_cap_is_refused_before_the_grid(self, monkeypatch, tag):
        built = []
        params, _ = SCHEMA_EDGES[tag]
        monkeypatch.setattr(verify, "_grid", lambda ident, b, seed: built.append(b) or [params])
        bound = f"{DEGREE_PARAMS[tag]}_max"
        with pytest.raises(ParamError, match=over_cap(tag)):
            run_suite(SuiteConfig(identities=[tag], **{bound: exact.DEGREE_CAP + 1}))
        assert built == []
        report = run_suite(SuiteConfig(identities=[tag], **{bound: exact.DEGREE_CAP}))
        assert [b[bound] for b in built] == [exact.DEGREE_CAP] and report.total == 1


class TestVerdicts:
    @pytest.mark.parametrize("tolerance", [1e-8, 1e-16])
    def test_each_verdict_is_the_mode_criterion_on_the_rendered_sides(self, tolerance):
        config = SuiteConfig(
            k_max=12, n_max=3, r_max=3, m_max=3, tolerance=tolerance, keep_cases=True
        )
        report = run_suite(config)
        assert {c.identity for c in report.cases} == set(IDENTITY_TAGS)
        for case in report.cases:
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
            averages.FloatPair(0.0, 2e-8, 1.0)
        with pytest.raises(TypeError):
            averages.log_weighted_pair(5, 1.0)
        assert averages.FloatPair._fields == averages.ExactPair._fields == ("lhs", "rhs")
        # The criterion itself is the one function that reads a tolerance.
        for name in averages.__all__:
            fn = getattr(averages, name)
            if inspect.isfunction(fn) and fn is not averages.within_tolerance:
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
        monkeypatch.setattr(verify, "_grid", lambda ident, b, seed: built.append(b) or [(1,)])
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


def validate_case_by_case(ident, lead, rests):
    """The per-value check: each case in order, each value alone."""
    verify._check_param(ident.params[0], lead)
    for rest in rests:
        for p, v in zip(ident.params[1:], rest):
            verify._check_param(p, v, lead)


def param_error(validate, *args):
    try:
        validate(*args)
    except ParamError as exc:
        return str(exc)
    return None


class _Subclass(int):
    pass


# No catalog identity has a capped or a plain moduli trailing parameter.
_SYNTHETIC = verify.IdentityDef("synthetic", "exact", (Param("k"), Param("n", cap=5)), None, {})
_SYNTHETIC_MODULI = verify.IdentityDef(
    "synthetic-moduli", "exact", (Param("k"), Param("ks", "moduli")), None, {}
)
# (identity, leading value, trailing column) with the bad value, if any,
# in the middle of the run.
COLUMNS = {
    "bool": ("inverse-dft", 5, [1, True, 3]),
    "float": ("cross-evaluator", 5, [0, 2.0, 1]),
    "below minimum, positive": ("inverse-dft", 5, [1, 0, 3]),
    "below minimum, non-negative": ("cross-evaluator", 5, [0, -1, 1]),
    "above the cap": (_SYNTHETIC, 1, [4, 6, 5]),
    "at the cap": (_SYNTHETIC, 1, [4, 5, 5]),
    "int subclass": (_SYNTHETIC, 1, [1, _Subclass(2), 3]),
    "unknown function": ("prop3", 6, ["id", "nosuch", "tau"]),
    "unhashable function": ("prop3", 6, ["id", [1], "tau"]),
    "non-ASCII digit": ("prop3", 6, ["rand01", "rand\u0663", "rand02"]),
    "functions": ("prop3", 6, ["id", "rand07", "phi"]),
    "choice": ("prop3-corollary", 6, ["id", "mu", "tau"]),
    "choices": ("prop3-corollary", 6, ["id", "sigma", "tau"]),
    "not coprime": ("e-multiplicativity", (2,), [(3,), (4,), (5,)]),
    "unequal arity": ("e-multiplicativity", (2,), [(3,), (3, 5), (5,)]),
    "bad modulus before a non-coprime one": ("e-multiplicativity", (2,), [(4,), (0,)]),
    "coprime": ("e-multiplicativity", (2, 3), [(5, 7), (1, 1)]),
    "empty tuple": (_SYNTHETIC_MODULI, 1, [(1, 2), (), (3,)]),
    "zero modulus": (_SYNTHETIC_MODULI, 1, [(1, 2), (2, 0), (3,)]),
    "bool modulus": (_SYNTHETIC_MODULI, 1, [(1, 2), (True, 2), (3,)]),
    "list of moduli": (_SYNTHETIC_MODULI, 1, [(1, 2), [2], (3,)]),
    "moduli": (_SYNTHETIC_MODULI, 1, [(1, 2), (2,), (3, 3, 3)]),
}


class TestColumnValidation:
    def test_no_identity_has_two_trailing_parameters(self):
        # Column order is case order only while this holds.
        assert all(len(d.params) <= 2 for d in verify._CATALOG.values())

    @pytest.mark.parametrize("name", COLUMNS)
    def test_a_column_raises_what_its_first_bad_value_raises(self, name):
        ident, lead, column = COLUMNS[name]
        if isinstance(ident, str):
            ident = verify._lookup(ident)
        rests = [(v,) for v in column]
        expected = param_error(validate_case_by_case, ident, lead, rests)
        assert param_error(verify._validate, ident, lead, rests) == expected
        bad = [v for v in column if param_error(validate_case_by_case, ident, lead, [(v,)])]
        if bad:
            assert expected == param_error(validate_case_by_case, ident, lead, [(bad[0],)])
        else:
            assert expected is None

    def test_the_error_names_the_middle_value(self):
        ident = verify._lookup("inverse-dft")
        with pytest.raises(ParamError, match=r"^n must be a positive integer, got True$"):
            verify._validate(ident, 5, [(1,), (True,), (3,)])
        with pytest.raises(ParamError, match=r"^n must be <= 5$"):
            verify._validate(_SYNTHETIC, 1, [(4,), (6,), (7,)])


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
        cases = [
            IdentityCase("prop1", "k=2,r=1", "exact", "1/4", "1/4", True),
            IdentityCase("prop2", "k=5", "tolerance", "0.1", "0.10000000000000001", True,
                         1.3877787807814457e-17),
            IdentityCase("prop4", "k=7", "tolerance", "2.5", "3", False, 0.5),
            IdentityCase("e-integrality", "ks=720720|720720", "exact", "", "", False,
                         None, "budget: the lattice exceeds 10 terms"),
            IdentityCase("prop7", "ks=1|2,r=1", "exact", '"q"', "1,2", False),
            IdentityCase("gamma-product", "n=3", "tolerance", "1", "1", True, None),
        ]
        assert cases_to_csv(cases) == csv_by_attributes(cases)
        assert cases_to_csv([]) == csv_by_attributes([])


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
