"""Tests of the benchmark itself, on a smoke grid of a few thousand cases.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

SMOKE = {
    "calls": [
        run._verify(["prop1", "prop3", "prop7-corollary", "e-integrality", "inverse-dft"],
                    "--k-max", "4", "--format", "json"),
        run._verify(["cross-evaluator", "prop2"], "--k-max", "5", "--format", "csv"),
    ],
    "cases": 2233,
}
SEED = 3


@pytest.fixture(scope="module")
def digests():
    calls = run.with_seed(SMOKE["calls"], SEED)
    result = run.run_sweep(calls, SMOKE["cases"], "none", time.monotonic() + 60, digest_pass=True)
    assert result["failed"] == 0 and not result["problems"]
    return result["digests"]


def _declared(kind):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


@pytest.mark.parametrize("trace, kind", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(digests, trace, kind):
    result, _ = run.run_workload(SMOKE, SEED, 0, trace, digests)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= SMOKE["cases"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == _declared(kind)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_tampered_digest_fails_the_cases_of_its_identity(digests):
    tampered = dict(digests, prop3="0" * 16)
    result, lines = run.run_workload(SMOKE, SEED, 0, False, tampered)
    assert not result["correct"]
    assert result["failed"] == 4 * 25  # k <= 4, 25 functions
    assert result["metrics"]["passed_share"]["value"] < 1
    assert any("digest mismatch for prop3" in line for line in lines)
