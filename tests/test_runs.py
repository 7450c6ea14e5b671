"""The sweep engine evaluates each grid in runs of cases that share their
leading parameter (k, or the tuple ks). A run must report exactly what its
cases report one at a time through run_identity, and a failure inside a
run must stay with the cases that cause it.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

import ramavg.averages as averages
import ramavg.exact as exact
import ramavg.multivar as multivar
import ramavg.verify as verify
from ramavg.ramanujan import ramanujan_sum, ramanujan_sum_holder
from ramavg.verify import IDENTITY_TAGS, ParamError, SuiteConfig, run_identity, run_suite
from test_verify import SCHEMA_EDGES, Swept, csv_by_attributes, flat, sweep

MULTIVAR_TAGS = {"prop7", "prop7-corollary", "e-integrality", "e-multiplicativity"}


def small_config(tag, *more, **override):
    if tag in MULTIVAR_TAGS:
        bounds = dict(k_max=8, n_max=3, r_max=4)
    else:
        bounds = dict(k_max=12, n_max=12, r_max=4, m_max=4)
    return SuiteConfig(identities=[tag, *more], **{**bounds, **override})


def runs_of(config, tag=None):
    ident = verify._lookup(tag or config.identities[0])
    return verify._grid(ident, verify._effective_bounds(ident, config), config.seed)


def grid_of(config, tag=None):
    return flat(runs_of(config, tag))


@pytest.mark.parametrize(
    "tags", [(tag,) for tag in IDENTITY_TAGS] + [("prop6", "prop1")], ids=",".join
)
def test_a_run_equals_its_batches_of_one(tags, clear_run_caches):
    # Singles must rebuild what a run shares: power-sum tables grow from
    # the first r or m, product rows, FFTs and tuple tables are recomputed.
    # prop6 fills each table of (k,) to m = 4 and prop1 then grows it to
    # r = 5.
    config = small_config(*tags, r_max=5) if len(tags) > 1 else small_config(*tags)
    grid = [(tag, params) for tag in tags for params in grid_of(config, tag)]
    clear_run_caches()
    batched = sweep(config).cases
    clear_run_caches()
    singles = [run_identity(tag, params) for tag, params in grid]
    assert len(batched) == len(singles) == len(grid)
    for a, b in zip(batched, singles):
        assert a.as_dict() == b.as_dict()
    assert all(c.passed for c in batched)


def test_runs_of_one_leading_value_each():
    # prop1 over k <= 3, r <= 2: three runs of two cases, one per k.
    cases = sweep(SuiteConfig(identities=["prop1"], k_max=3, r_max=2)).cases
    assert [c.params for c in cases] == [
        "k=1,r=1", "k=1,r=2", "k=2,r=1", "k=2,r=2", "k=3,r=1", "k=3,r=2",
    ]


def test_the_evaluator_runs_once_per_run(monkeypatch):
    real, calls = multivar.s_r_multi_direct_batch, []

    def batch(ks, rs):
        calls.append((ks, tuple(rs)))
        return real(ks, rs)

    monkeypatch.setattr(multivar, "s_r_multi_direct_batch", batch)
    report = run_suite(SuiteConfig(identities=["prop7"], k_max=3, n_max=2, r_max=3))
    tuples = verify._tuple_grid(3, 2)
    assert len(tuples) == 9 and report.total == 9 * 3 and report.failed == 0
    assert calls == [(ks, (1, 2, 3)) for ks in tuples]


def test_timings_hold_each_identity_once_in_catalog_order():
    config = SuiteConfig(k_max=6, n_max=2, r_max=3, m_max=2)
    report = run_suite(config)
    assert list(report.timings) == list(IDENTITY_TAGS)
    for tag, (cases, seconds) in report.timings.items():
        ident = verify._lookup(tag)
        bounds = verify._effective_bounds(ident, config)
        assert cases == len(flat(verify._grid(ident, bounds, config.seed))) and seconds >= 0
    assert sum(cases for cases, _ in report.timings.values()) == report.total
    assert sum(seconds for _, seconds in report.timings.values()) <= report.wall_time_seconds
    assert "timings" not in report.body_dict()


def assert_reports_agree(config):
    """The sweep of `config` with a sink that collects every run, and the
    same sweep without a sink, which renders only the failing cases, have
    the same body, and their failures are the collected failing cases in
    order. Returns the sweep with the sink."""
    swept = sweep(config)
    bare = run_suite(config)
    assert bare.body_dict() == swept.report.body_dict()
    assert bare.failures == swept.report.failures == [c for c in swept.cases if not c.passed]
    return swept


def assert_only_these_fail(config, failing, raised=True):
    """Exactly the cases in `failing` fail, each as its batch of one does,
    with an error when `raised` and without one otherwise; every other case
    of the grid, its run neighbours included, passes. The sweep reports
    alike whether a sink collects every case or not."""
    cases = assert_reports_agree(config).cases
    grid = grid_of(config)
    assert len(cases) == len(grid)
    failed = {params for case, params in zip(cases, grid) if not case.passed}
    assert failed == set(failing)
    for case, params in zip(cases, grid):
        if params in failing:
            alone = run_identity(config.identities[0], params)
            assert case == alone and not alone.passed
            assert bool(case.error) == raised
        else:
            assert case.passed and case.error is None


def test_signed_zeros_render_as_their_cases(monkeypatch):
    # 0.0 == -0.0, but a side renders as "0" or "-0", so the lhs column of
    # k = 6 renders each case as its own value: -0.0 at n = 1 and n = 2,
    # 0.0 at n = 4 and n = 5. Where the rhs is 1 (n = 1, 5) the case fails.
    real = averages.inverse_dft_batch
    zeros = {1: -0.0, 2: -0.0, 4: 0.0, 5: 0.0}

    def signed(k, ns):
        lhs, rhs = real(k, ns)
        if k == 6:
            lhs = [zeros.get(n, v) for n, v in zip(ns, lhs)]
        return lhs, rhs

    monkeypatch.setattr(averages, "inverse_dft_batch", signed)
    config = small_config("inverse-dft")
    assert_only_these_fail(config, {(6, 1), (6, 5)}, raised=False)
    rows = sweep(config).csv.splitlines()
    for row in (
        'inverse-dft,"k=6,n=1",tolerance,-0,1,1,false',
        'inverse-dft,"k=6,n=2",tolerance,-0,0,0,true',
        'inverse-dft,"k=6,n=4",tolerance,0,0,0,true',
        'inverse-dft,"k=6,n=5",tolerance,0,1,1,false',
    ):
        assert row in rows

    # At 1e-16 the k = 11 run fails too, and a sweep without a sink
    # renders the failing rows alone: each reads as its case alone.
    strict = small_config("inverse-dft", tolerance=1e-16)
    cases = assert_reports_agree(strict).cases
    failing = [(case, params) for case, params in zip(cases, grid_of(strict)) if not case.passed]
    assert {(6, 1), (6, 5), (11, 2)} <= {params for _, params in failing}
    for case, params in failing:
        assert case == run_identity("inverse-dft", params, tolerance=1e-16)
    assert [case.lhs for case, params in failing if params in {(6, 1), (6, 5)}] == ["-0", "0"]


def test_imaginary_part_fails_only_its_own_cases(monkeypatch):
    real = averages._dft_values

    def skewed(k):
        values = real(k).copy()
        if k == 6:
            values[2] += 2e-8j
        return values

    monkeypatch.setattr(averages, "_dft_values", skewed)
    # Entry 2 of k = 6 is read by n = 2 and n = 8; the rest of the k = 6
    # run and the k = 5 and k = 7 runs must pass.
    assert_only_these_fail(small_config("inverse-dft"), {(6, 2), (6, 8)})
    assert run_identity("inverse-dft", (6, 2)).error == (
        "imaginary part 2e-08 of the mean too large for k=6, n=2"
    )


def test_budget_refusal_fails_only_its_tuple(monkeypatch):
    real = multivar._product_row

    def refusing(ks):
        if ks == (2, 3):
            raise multivar.BudgetError(f"period lcm{ks} refused")
        return real(ks)

    monkeypatch.setattr(multivar, "_product_row", refusing)
    config = SuiteConfig(identities=["prop7"], k_max=4, n_max=2, r_max=4)
    assert_only_these_fail(config, {((2, 3), r) for r in range(1, 5)})


@pytest.mark.parametrize("tag", ["prop3", "prop3-corollary"])
def test_a_raising_function_fails_only_its_own_cases(monkeypatch, tag):
    real = averages.NAMED_FUNCTIONS["sigma"]

    def sigma(n):
        if n == 6:
            raise ValueError("sigma refused 6")
        return real(n)

    monkeypatch.setitem(averages.NAMED_FUNCTIONS, "sigma", sigma)
    # sigma is read at 6 by the divisors of k = 6 and k = 12 only; the other
    # functions of those runs must pass.
    assert_only_these_fail(small_config(tag), {(6, "sigma"), (12, "sigma")})
    assert run_identity(tag, (12, "sigma")).error == "sigma refused 6"


def test_each_random_value_is_hashed_once_per_sweep(monkeypatch):
    real, hashed = averages.blake2b, []

    def counting(data, **kwargs):
        hashed.append(data.decode())
        return real(data, **kwargs)

    monkeypatch.setattr(averages, "blake2b", counting)
    report = run_suite(SuiteConfig(identities=["prop3"], k_max=30, seed=7))
    assert report.total == 30 * 25 and report.failed == 0
    # Every n <= 30 divides some k <= 30, so each of the 20 functions is
    # read at each n: 600 hashes, none repeated.
    assert len(hashed) == 600
    assert set(hashed) == {f"7:{i}:{n}" for i in range(20) for n in range(1, 31)}


def test_wrong_float_oracle_fails_only_its_case(monkeypatch):
    real = verify.ramanujan_sum_float_batch
    monkeypatch.setattr(
        verify, "ramanujan_sum_float_batch",
        lambda k, js: [f + (0.5 if (k, j) == (6, 4) else 0) for f, j in zip(real(k, js), js)],
    )
    config = small_config("cross-evaluator")
    assert_only_these_fail(config, {(6, 4)})
    assert run_identity("cross-evaluator", (6, 4)).error == (
        "float oracle -0.5 disagrees with the exact value -1"
    )
    assert_csv_is_the_attribute_rendering(sweep(config))


@pytest.mark.parametrize("value, message", [
    (math.nan, "cannot convert float NaN to integer"),
    (math.inf, "cannot convert float infinity to integer"),
    (-math.inf, "cannot convert float infinity to integer"),
])
def test_a_non_finite_float_oracle_fails_only_its_case(monkeypatch, value, message):
    # round raises on the oracle, so the run is evaluated case by case and
    # only (6, 4) fails, with round's message and no sides.
    real = verify.ramanujan_sum_float_batch
    monkeypatch.setattr(
        verify, "ramanujan_sum_float_batch",
        lambda k, js: [value if (k, j) == (6, 4) else f for f, j in zip(real(k, js), js)],
    )
    config = small_config("cross-evaluator", k_max=7)
    assert len(grid_of(config)) == 35
    assert_only_these_fail(config, {(6, 4)})
    case = run_identity("cross-evaluator", (6, 4))
    assert (case.lhs, case.rhs, case.error) == ("", "", message)


def _with_fault(real, target, fault):
    """real, with its result passed through fault for the case target."""
    def faulty(*args):
        value = real(*args)
        return fault(*args, value) if args[:len(target)] == target else value
    return faulty


_E_FAULTS = {
    # E(2, 4) = 0: its direct total and its weight k g_0 are both 0.
    "direct-non-integral": ("_power_sums", lambda ks, top, t: [t[0] + 1, *t[1:]],
                            "E(2, 4) is non-integral: 1/4"),
    "direct-negative": ("_power_sums", lambda ks, top, t: [t[0] - 4, *t[1:]],
                        "E(2, 4) is negative: -1"),
    "divisor-non-integral": ("_weights", lambda ks, top, t: [t[0] + 1, *t[1:]],
                             "divisor form of E(2, 4) is non-integral"),
}


@pytest.mark.parametrize("fault", _E_FAULTS)
def test_an_e_self_check_fails_only_its_case(monkeypatch, fault):
    name, change, message = _E_FAULTS[fault]
    monkeypatch.setattr(multivar, name, _with_fault(getattr(multivar, name), ((2, 4),), change))
    config = small_config("e-integrality")
    assert ((2, 4),) in grid_of(config)
    assert_only_these_fail(config, {((2, 4),)})
    assert run_identity("e-integrality", ((2, 4),)).error == message


@pytest.mark.parametrize("tag, message", [
    ("faulhaber", "power_sum(3, 2) is non-integral: 29/2"),  # 14 + 1/2
    ("coprime-power-sum", "coprime_power_sum(3, 2) is non-integral: 31/6"),  # 5 + 1/6
])
def test_a_power_sum_self_check_fails_only_its_case(monkeypatch, tag, message):
    # The closed form of (n, r) = (3, 2) is off by 1 / (2 n^(r+1)).
    def off(n, r, lead, weights, value):
        return value + Fraction(1, 2 * n ** (r + 1))

    monkeypatch.setattr(exact, "power_sum_closed", _with_fault(exact.power_sum_closed, (3, 2), off))
    assert_only_these_fail(small_config(tag), {(3, 2)})
    assert run_identity(tag, (3, 2)).error == message


# --- the CSV is written from each run's columns -----------------------------


def assert_csv_is_the_attribute_rendering(swept):
    """cases_to_csv, which writes each run from its columns, gives the
    bytes of the CSV written field by field from the rendered cases."""
    assert len(swept.cases) == swept.report.total > 0
    assert swept.csv == csv_by_attributes(swept.cases)


@pytest.mark.parametrize("tolerance", [verify.DEFAULT_TOLERANCE, 1e-16])
@pytest.mark.parametrize("tag", IDENTITY_TAGS)
def test_the_csv_of_each_small_grid_is_the_attribute_rendering(tag, tolerance):
    assert_csv_is_the_attribute_rendering(sweep(small_config(tag, tolerance=tolerance)))


def test_the_csv_of_a_refused_case_has_empty_sides(monkeypatch):
    real = averages.inverse_dft_batch

    def refusing(k, ns):
        if k == 6 and 3 in ns:
            raise multivar.BudgetError("dft refused 6, 3")
        return real(k, ns)

    monkeypatch.setattr(averages, "inverse_dft_batch", refusing)
    config = small_config("inverse-dft")
    assert_only_these_fail(config, {(6, 3)})
    swept = sweep(config)
    [refused] = swept.report.failures
    assert (refused.lhs, refused.rhs, refused.abs_error) == ("", "", None)
    assert_csv_is_the_attribute_rendering(swept)


# --- a one-parameter grid is one run; float columns stay arrays ------------


def test_a_one_parameter_case_that_raises_fails_alone(monkeypatch):
    # prop2's grid is one run of every k: the run raises, so each case is
    # evaluated alone and only k = 7 fails, with its own message.
    real = averages.log_weighted_pair

    def raising(k):
        if k == 7:
            raise RuntimeError("log weight refused at k=7")
        return real(k)

    monkeypatch.setattr(averages, "log_weighted_pair", raising)
    config = small_config("prop2")
    assert runs_of(config) == [(None, [(k,) for k in range(1, 13)])]
    assert_only_these_fail(config, {(7,)})
    assert run_identity("prop2", (7,)).error == "log weight refused at k=7"


def collect_columns(config):
    """run_suite(config) and the _Columns of each run, in sweep order."""
    columns = []
    report = run_suite(config, lambda ident, lead, rests, cols: columns.append(cols))
    return report, columns


@pytest.mark.parametrize("tolerance", [verify.DEFAULT_TOLERANCE, 1e-16])
def test_inverse_dft_columns_as_lists_report_as_arrays(monkeypatch, tolerance):
    # The evaluator returns float64 arrays; the same values as lists must
    # give the same columns, bit for bit, the same CSV and the same JSON.
    config = small_config("inverse-dft", tolerance=tolerance)
    report, arrays = collect_columns(config)
    csv = sweep(config).csv
    real = averages.inverse_dft_batch
    monkeypatch.setattr(averages, "inverse_dft_batch", lambda k, ns: tuple(
        column.tolist() for column in real(k, ns)
    ))
    listed_report, lists = collect_columns(config)
    assert len(arrays) == len(lists) == 12
    for a, b in zip(arrays, lists):
        for x, y in zip(a, b):
            if x is None or y is None:
                assert x is y is None
            else:
                x, y = np.asarray(x), np.asarray(y)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    assert sweep(config).csv == csv
    assert json.dumps(listed_report.body_dict()) == json.dumps(report.body_dict())
    assert (report.failed > 0) == (tolerance < verify.DEFAULT_TOLERANCE)


def test_abs_errors_and_worst_errors_are_plain_floats():
    # At 1e-16 some rows of every tolerance identity's small grid fail;
    # the abs_error of each, read from an array column, is a float.
    tags = [tag for tag in IDENTITY_TAGS if verify._lookup(tag).mode == "tolerance"]
    report = run_suite(small_config(*tags, tolerance=1e-16))
    failing = [case for case in report.failures if case.identity == "inverse-dft"]
    assert failing and report.failures
    assert all(type(case.abs_error) is float for case in report.failures)
    assert list(report.worst_errors) == tags
    assert all(type(value) is float for value in report.worst_errors.values())
    case = run_identity("inverse-dft", (11, 2), tolerance=1e-16)
    assert not case.passed and type(case.abs_error) is float


# --- bool is not an integer -------------------------------------------------

# Per tag, the smallest accepted parameters.
MINIMAL = {tag: params for tag, (params, _) in SCHEMA_EDGES.items()}


INT_TAGS = [t for t in IDENTITY_TAGS if any(type(v) is int for v in MINIMAL[t])]
MODULI_TAGS = [t for t in IDENTITY_TAGS if any(type(v) is tuple for v in MINIMAL[t])]


@pytest.mark.parametrize("tag", INT_TAGS)
def test_bool_is_not_an_int_parameter(tag):
    params = MINIMAL[tag]
    for i, v in enumerate(params):
        if type(v) is int:
            for flag in (True, False):
                with pytest.raises(ParamError, match="integer"):
                    run_identity(tag, params[:i] + (flag,) + params[i + 1 :])


@pytest.mark.parametrize("tag", MODULI_TAGS)
def test_bool_is_not_a_modulus(tag):
    params = MINIMAL[tag]
    for i, v in enumerate(params):
        if type(v) is tuple:
            with pytest.raises(ParamError, match="positive integers"):
                run_identity(tag, params[:i] + ((True, 2),) + params[i + 1 :])


def test_bool_rendering_example_is_refused():
    with pytest.raises(ParamError):
        run_identity("prop1", (True, 1))
    with pytest.raises(ParamError):
        run_identity("prop7", ((True, 2), 1))
    assert run_identity("prop1", (1, 1)).params == "k=1,r=1"
    assert run_identity("prop7", ((1, 2), 1)).params == "ks=1|2,r=1"


def test_tuple_values_render_joined_in_any_position():
    assert run_identity("e-multiplicativity", ((2, 3), (5, 7))).params == "a=2|3,b=5|7"
    config = SuiteConfig(identities=["e-multiplicativity"], k_max=8, n_max=3)

    def joined(t):
        return "|".join(map(str, t))

    assert [c.params for c in sweep(config).cases] == [
        f"a={joined(a)},b={joined(b)}" for a, b in grid_of(config)
    ]


# --- per-tuple tables shared by the tuple identities ------------------------

TUPLE_TAGS = ["prop7", "prop7-corollary", "e-integrality"]


def tuple_config(tags, **bounds):
    return SuiteConfig(identities=tags, **{"k_max": 8, "n_max": 3, **bounds})


def test_one_product_row_and_one_weight_build_per_tuple(monkeypatch):
    rows, builds = [], []
    real_row, real_build = multivar._product_row, multivar._euler_products

    def row(ks):
        rows.append(ks)
        return real_row(ks)

    def build(ks, low, top):
        builds.append(ks)
        return real_build(ks, low, top)

    monkeypatch.setattr(multivar, "_product_row", row)
    monkeypatch.setattr(multivar, "_euler_products", build)
    report = run_suite(tuple_config(TUPLE_TAGS, r_max=5))
    tuples = verify._tuple_grid(8, 3)
    assert report.total == 7 * len(tuples) and report.failed == 0
    assert rows == builds == tuples


def test_only_e_multiplicativity_folds_the_divisor_lattice(monkeypatch):
    folded, real = [], multivar._divisor_terms

    def terms(ks):
        folded.append(ks)
        return real(ks)

    monkeypatch.setattr(multivar, "_divisor_terms", terms)
    assert run_suite(tuple_config(TUPLE_TAGS, r_max=5)).failed == 0
    assert folded == []
    assert run_suite(small_config("e-multiplicativity")).failed == 0
    assert folded


def test_a_growing_power_table_gives_the_cases_of_fresh_singles(clear_run_caches):
    # e-integrality fills each table to r = 0; prop7 rebuilds it to r = 5.
    config = tuple_config(["e-integrality", "prop7"], r_max=5)
    swept = [c.as_dict() for c in sweep(config).cases]
    assert len(multivar._power_sum_table((2, 3))) == 6
    singles = []
    for tag in config.identities:
        clear_run_caches()
        singles += [run_identity(tag, params).as_dict() for params in grid_of(config, tag)]
    assert swept == singles
    assert all(case["pass"] for case in swept)


def test_a_refused_row_fails_its_tuple_everywhere_and_stores_nothing(monkeypatch):
    real = multivar._product_row

    def refusing(ks):
        if ks == (2, 3):
            raise multivar.BudgetError(f"period lcm{ks} refused")
        return real(ks)

    monkeypatch.setattr(multivar, "_product_row", refusing)
    config = tuple_config(TUPLE_TAGS, k_max=4, n_max=2, r_max=4)
    cases = sweep(config).cases
    failed = {(c.identity, c.params) for c in cases if not c.passed}
    assert failed == {
        *(("prop7", f"ks=2|3,r={r}") for r in range(1, 5)),
        ("prop7-corollary", "ks=2|3"),
        ("e-integrality", "ks=2|3"),
    }
    assert {c.error for c in cases if not c.passed} == {"period lcm(2, 3) refused"}
    assert multivar._power_sum_table((2, 3)) == []
    assert len(multivar._power_sum_table((2, 4))) == 5

    monkeypatch.setattr(multivar, "_product_row", real)
    assert run_suite(config).failed == 0
    assert multivar._power_sum_table((2, 3)) == [
        sum(j**r * ramanujan_sum(2, j) * ramanujan_sum(3, j) for j in range(1, 7))
        for r in range(5)
    ]


# --- the power-sum table of (k,), shared by prop1 and prop6 ----------------


def test_one_product_row_per_modulus_for_prop1_and_prop6(monkeypatch):
    rows, real = [], multivar._product_row

    def row(ks):
        rows.append(ks)
        return real(ks)

    monkeypatch.setattr(multivar, "_product_row", row)
    report = run_suite(SuiteConfig(identities=["prop1", "prop6"], k_max=12, r_max=6, m_max=6))
    assert report.total == 2 * 12 * 6 and report.failed == 0
    assert rows == [(k,) for k in range(1, 13)]


def test_a_refused_one_modulus_row_fails_only_its_k(monkeypatch):
    real = multivar._product_row

    def refusing(ks):
        if ks == (6,):
            raise multivar.BudgetError(f"period lcm{ks} refused")
        return real(ks)

    monkeypatch.setattr(multivar, "_product_row", refusing)
    config = small_config("prop1", "prop6")
    cases = sweep(config).cases
    failed = {(c.identity, c.params) for c in cases if not c.passed}
    assert failed == {
        *(("prop1", f"k=6,r={r}") for r in range(1, 5)),
        *(("prop6", f"k=6,m={m}") for m in range(1, 5)),
    }
    assert {c.error for c in cases if not c.passed} == {"period lcm(6,) refused"}
    assert multivar._power_sum_table((6,)) == []
    assert len(multivar._power_sum_table((5,))) == 5


# --- every outcome in one run, in each comparison mode ---------------------


def test_mixed_runs_in_each_mode(monkeypatch):
    """One run of an exact tag and one of a tolerance tag each hold a
    passing case, a failing case and a case with a reason, the tolerance
    run also a NaN lhs; one run of each raises, so its cases are evaluated
    alone and only the raising one is recorded as raised."""
    real_divisor, real_holder = ramanujan_sum, ramanujan_sum_holder
    real_divisors, real_holders, real_oracles = (
        verify.ramanujan_sum_batch, verify.ramanujan_sum_holder_batch,
        verify.ramanujan_sum_float_batch,
    )

    def divisor(k, js):
        if k == 7 and 3 in js:
            raise ValueError("divisor refused 7, 3")
        return real_divisors(k, js)

    def holder(k, js):
        return [b + ((k, j) == (6, 2)) for b, j in zip(real_holders(k, js), js)]

    def oracle(k, js):
        return [f + 0.5 * ((k, j) == (6, 4)) for f, j in zip(real_oracles(k, js), js)]

    monkeypatch.setattr(verify, "ramanujan_sum_batch", divisor)
    monkeypatch.setattr(verify, "ramanujan_sum_holder_batch", holder)
    monkeypatch.setattr(verify, "ramanujan_sum_float_batch", oracle)

    real_dft, dft_calls = averages.inverse_dft_batch, []

    def dft(k, ns):
        dft_calls.append((k, list(ns)))
        if k == 7 and 3 in ns:
            raise RuntimeError("dft refused 7, 3")
        lhs, rhs = real_dft(k, ns)
        if k != 6:
            return lhs, rhs
        # The side columns as rows (lhs, rhs, reason), faulted, and back.
        faults = {
            1: lambda lhs, rhs: (float("nan"), rhs, None),
            3: lambda lhs, rhs: (lhs, rhs + 0.25, None),
            4: lambda lhs, rhs: (lhs, rhs, "reason at 6, 4"),
            5: lambda lhs, rhs: (lhs, rhs + 0.125, None),
        }
        rows = [faults[n](a, b) if n in faults else (a, b, None) for n, a, b in zip(ns, lhs, rhs)]
        return tuple(map(list, zip(*rows)))

    monkeypatch.setattr(averages, "inverse_dft_batch", dft)
    config = SuiteConfig(identities=["cross-evaluator", "inverse-dft"], k_max=7, n_max=5)
    report, cases, text = sweep(config)

    def exact(k, j, **fields):
        a = real_divisor(k, j)
        case = dict(
            identity="cross-evaluator", params=f"k={k},j={j}", mode="exact", lhs=str(a),
            rhs=str(a), passed=True, abs_error=None, error=None,
        )
        return {**case, **fields}

    def tolerance(k, n, **fields):
        (lhs,), (rhs,) = real_dft(k, [n])
        case = dict(
            identity="inverse-dft", params=f"k={k},n={n}", mode="tolerance",
            lhs=f"{lhs:.17g}", rhs=f"{rhs:.17g}", passed=True, abs_error=abs(lhs - rhs),
            error=None,
        )
        return {**case, **fields}

    (lhs63,), (rhs63,) = real_dft(6, [3])
    (lhs65,), (rhs65,) = real_dft(6, [5])
    expected = {
        ("cross-evaluator", "k=6,j=2"): exact(6, 2, rhs=str(real_holder(6, 2) + 1), passed=False),
        ("cross-evaluator", "k=6,j=4"): exact(
            6, 4, passed=False, error="float oracle -0.5 disagrees with the exact value -1"
        ),
        ("cross-evaluator", "k=7,j=3"): exact(
            7, 3, lhs="", rhs="", passed=False, error="divisor refused 7, 3"
        ),
        ("inverse-dft", "k=6,n=1"): tolerance(
            6, 1, lhs="nan", passed=False, abs_error=float("nan")
        ),
        ("inverse-dft", "k=6,n=3"): tolerance(
            6, 3, rhs=f"{rhs63 + 0.25:.17g}", passed=False, abs_error=abs(lhs63 - rhs63 - 0.25)
        ),
        ("inverse-dft", "k=6,n=4"): tolerance(6, 4, passed=False, error="reason at 6, 4"),
        ("inverse-dft", "k=6,n=5"): tolerance(
            6, 5, rhs=f"{rhs65 + 0.125:.17g}", passed=False, abs_error=abs(lhs65 - rhs65 - 0.125)
        ),
        ("inverse-dft", "k=7,n=3"): tolerance(
            7, 3, lhs="", rhs="", passed=False, abs_error=None, error="dft refused 7, 3"
        ),
    }
    grid = [("cross-evaluator", f"k={k},j={j}") for k in range(1, 8) for j in range(k + 1)]
    grid += [("inverse-dft", f"k={k},n={n}") for k in range(1, 8) for n in range(1, 6)]
    assert [(c.identity, c.params) for c in cases] == grid
    for case in cases:
        assert type(case) is verify.IdentityCase
        got = case._asdict()
        want = expected.get((case.identity, case.params))
        if want is None:
            identity, params = case.identity, case.params
            k, v = (int(part.split("=")[1]) for part in params.split(","))
            want = exact(k, v) if identity == "cross-evaluator" else tolerance(k, v)
        if case.params == "k=6,n=1":  # nan != nan
            assert math.isnan(got.pop("abs_error")) and math.isnan(want.pop("abs_error"))
        assert got == want

    failing = [key for key in grid if key in expected]
    assert [(c.identity, c.params) for c in report.failures] == failing
    assert report.failures == [c for c in cases if not c.passed]
    assert (report.total, report.passed, report.failed) == (len(grid), len(grid) - 8, 8)

    # worst_errors is the left fold of max from 0.0 over each case in order,
    # so the NaN of k=6, n=1 never enters it; exact tags have no entry.
    fold = 0.0
    for case in cases:
        if case.abs_error is not None:
            fold = max(fold, case.abs_error)
    assert report.worst_errors == {"inverse-dft": fold}
    assert fold == abs(lhs63 - rhs63 - 0.25) and not math.isnan(fold)
    # The k = 7 run raised, so each of its cases was evaluated alone.
    assert [call for call in dft_calls if call[0] == 7] == [
        (7, [1, 2, 3, 4, 5]), (7, [1]), (7, [2]), (7, [3]), (7, [4]), (7, [5]),
    ]
    for identity, params in expected:
        k, v = (int(part.split("=")[1]) for part in params.split(","))
        alone = run_identity(identity, (k, v))
        swept = next(c for c in cases if (c.identity, c.params) == (identity, params))
        assert alone.lhs == swept.lhs and alone.error == swept.error and not alone.passed

    # Without a sink the same sweep renders only its failing cases, the
    # raised ones and the NaN lhs among them, and reports alike. Two NaNs
    # are never ==, so the cases are compared by repr and the body as JSON.
    bare = run_suite(config)
    assert list(map(repr, bare.failures)) == list(map(repr, report.failures))
    assert json.dumps(bare.body_dict(), indent=2) == json.dumps(report.body_dict(), indent=2)
    assert text == csv_by_attributes(cases)


# --- a report renders only the cases it keeps -------------------------------


def test_a_passing_sweep_that_keeps_no_case_renders_nothing(monkeypatch):
    calls = {"rational": 0, "float": 0}

    def counting(name, real):
        def fmt(x):
            calls[name] += 1
            return real(x)

        return fmt

    monkeypatch.setattr(verify, "_fmt_rational", counting("rational", verify._fmt_rational))
    monkeypatch.setattr(verify, "_fmt_float", counting("float", verify._fmt_float))
    config = SuiteConfig(
        identities=["prop1", "prop3", "inverse-dft", "prop7"], k_max=8, n_max=2, r_max=3
    )
    report = run_suite(config)
    assert report.total > 0 and report.failed == 0 and report.failures == []
    assert "inverse-dft" in report.worst_errors
    assert calls == {"rational": 0, "float": 0}

    # The same sweep with a sink that collects every run renders nothing
    # either, until its runs are rendered: then both sides of each case for
    # the cases, and both sides and each abs_error for the CSV. A float
    # column is formatted once per distinct float64 bit pattern, a column of
    # one value once.
    runs = []
    kept = run_suite(config, lambda *run: runs.append(run))
    assert calls == {"rational": 0, "float": 0}
    exact = sum(c.mode == "exact" for c in Swept.of(kept, runs).cases)

    def patterns(column):
        return len(set(np.array(column, np.float64).view(np.int64).tolist()))

    floats = sum(
        2 * patterns(columns.lhs) + 2 * patterns(columns.rhs) + patterns(columns.errors)
        for ident, _, _, columns in runs if ident.mode == "tolerance"
    )
    assert calls == {"rational": 4 * exact, "float": floats}
    assert kept.body_dict() == report.body_dict()
