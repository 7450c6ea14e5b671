"""Benchmark of `ramavg verify`, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`, nothing is installed. Each sweep is one closed-loop caller: a
fresh interpreter (perfbench/sweep.py) runs the workload's verify calls
and waits for the reports, as a CLI user would, and the next sweep starts
when it has ended.

--trace 0 runs a warm-up sweep, then repeats sweeps for S seconds and
reports the end-to-end metrics (medians over the timed sweeps; peak RSS
is the largest sweep's). Times are scaled to the reference speed REF_S:
each sweep's times are multiplied by REF_S / (its reference kernel time),
which takes out most of the drift of a shared machine's speed.
--trace 1 runs one untraced sweep, one sweep timing each identity, one
sweep with spans around every layer and one untraced sweep of the same
calls on min(2, os.cpu_count()) worker threads (the only sweep that starts
threads), and reports the per-layer metrics. Every sweep checks its reports; the first
of a run also checks the stored digests (perfbench/digests.json).

Human-readable lines come first; the last line is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import sweep
import tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.join(ROOT, "perfbench")
DIGESTS = os.path.join(HERE, "digests.json")

# --seed picks one of these many program seeds (ramavg --seed), which vary
# the random test functions of prop3 and the coprime pairs of
# e-multiplicativity; digests.json holds the digests of each.
VARIANTS = 8
WORKERS = min(2, os.cpu_count() or 1)
TIME_LIMIT_S = 170

# Seconds of sweep.reference_s() on the 2-vCPU Xeon host the baseline was
# measured on. A fixed constant: end-to-end times are reported as if every
# sweep had run at the speed at which the reference kernel takes REF_S.
REF_S = 0.2

# Serial per-case cost of the acceptance grids, from the ROADMAP baseline
# (2 CPUs, Python 3.11.7, about +-15% noise). The workload grids are
# smaller, so a per-case cost may differ for that reason alone.
BASELINE_US = {
    "prop7": 152, "inverse-dft": 26, "prop3": 229, "prop7-corollary": 169,
    "e-integrality": 155, "prop1": 176, "cross-evaluator": 26, "bernoulli-poly-sum": 2360,
}
BASELINE_NOISE = 0.15

# Each workload is a list of CLI calls made in one interpreter, and the
# number of cases they must report. The grids are the acceptance grids
# shrunk to a sweep of about 1.5-3 s on 2 CPUs. exact-rows needs two calls
# because one --k-max applies to every identity of a call, and
# bernoulli-poly-sum costs O(k^2) per k.
EXACT = ["prop1", "prop3", "prop3-corollary", "prop6"]
MULTIVAR = ["prop7", "prop7-corollary", "e-integrality", "e-multiplicativity"]
DENSE = ["inverse-dft", "cross-evaluator", "prop2", "prop4", "gamma-product",
         "mobius-log", "prop5-cosine"]


def _verify(tags, *args):
    return ["verify", "--identity", ",".join(tags), *args]


WORKLOADS = {
    "exact-rows": {
        "calls": [
            _verify(EXACT, "--k-max", "300", "--format", "json"),
            _verify(["bernoulli-poly-sum"], "--k-max", "30", "--format", "json"),
        ],
        "cases": 14040,
    },
    "multivar-lattice": {
        "calls": [_verify(MULTIVAR, "--k-max", "20", "--format", "json")],
        "cases": 12590,
    },
    "dense-float": {
        "calls": [_verify(DENSE, "--k-max", "250", "--n-max", "250", "--format", "csv")],
        "cases": 95374,
    },
}

IDENTITY_TAGS = EXACT + ["bernoulli-poly-sum"] + MULTIVAR + DENSE
REPORT_SPANS = ("verify.report_to_json", "verify.cases_to_csv")

END_TO_END = (
    ("cases_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("passed_share", "ratio"),
)


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    names = [("verify.engine_self_s", "s")]
    names += [(f"verify.identity_us_per_case.{t}", "us") for t in IDENTITY_TAGS]
    names += [("verify.report_s", "s"), ("verify.report_bytes", "bytes"),
              ("verify.workers", "count"), ("verify.parallel_efficiency", "ratio"),
              ("cli.self_s", "s")]
    for mod in ("averages", "multivar", "ramanujan", "exact"):
        names += [(f"{mod}.{fn}.self_s", "s") for fn in tracer.FULL[mod]]
    names += [(f"{name}.hit_rate", "ratio") for name, _, _ in sweep.CACHES]
    names += [("arith.self_s", "s"), ("arith.sieve_s", "s"),
              ("trace.cases_per_s_untraced", "1/s"), ("trace.cases_per_s_traced", "1/s"),
              ("trace.slowdown", "ratio")]
    return names


class BenchError(RuntimeError):
    """A sweep could not run; no result is printed."""


def with_seed(calls, seed):
    return [argv + ["--seed", str(1000 + seed % VARIANTS)] for argv in calls]


def threaded(calls):
    return [argv + ["--threads", str(WORKERS)] for argv in calls]


def run_sweep(calls, cases, trace, deadline, digest_pass=False, digests=None):
    """Run one sweep in a fresh interpreter and return its result dict."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    spec = {"calls": calls, "cases": cases, "trace": trace,
            "digest_pass": digest_pass, "digests": digests}
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "sweep.py")],
            input=json.dumps(spec), capture_output=True, text=True, cwd=ROOT, env=env,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("sweep did not finish within the time limit") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"sweep exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail(values, higher_is_better):
    """(percentile, value) of the highest percentile with ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values, reverse=higher_is_better)
    return 100 * (n - 10) / n, ordered[n - 11]


def end_to_end(workload, sweeps, attempted, failed):
    # The host's speed drifts by tens of percent over seconds to minutes;
    # the reference kernel timed next to each sweep moves with it.
    scales = [REF_S / s["reference_s"] for s in sweeps]
    wall_rates = [workload["cases"] / s["sweep_s"] for s in sweeps]
    rates = [r / k for r, k in zip(wall_rates, scales)]
    setups = [(s["import_s"] + s["sieve_s"]) * k for s, k in zip(sweeps, scales)]
    values = {
        "cases_per_s": statistics.median(rates),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(s["peak_rss_mb"] for s in sweeps),
        "passed_share": 1 - failed / attempted,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    lines = []
    for label, samples, higher in (("cases_per_s", rates, True), ("setup_s", setups, False)):
        t = tail(samples, higher)
        spread = "no tail percentile (fewer than 11 sweeps)" if t is None else (
            f"p{t[0]:.0f} {t[1]:.6g}")
        best = max(samples) if higher else min(samples)
        lines.append(f"{label}: median {statistics.median(samples):.6g} over {len(samples)} "
                     f"sweeps, {spread}, best {best:.6g}")
    lines.append(f"wall-clock cases_per_s: median {statistics.median(wall_rates):.6g}; "
                 f"reference kernel: median {statistics.median(s['reference_s'] for s in sweeps):.6g} s, "
                 f"REF_S {REF_S:g} s")
    lines.append(f"failed_share: {failed}/{attempted} = {failed / attempted:.6g}")
    return metrics, lines


def layer_metrics(workload, base, ident, full, par):
    """Per-layer metrics from the untraced, per-identity, full-trace and
    threaded sweeps (no threaded sweep on a single CPU)."""
    spans = full["spans"]

    def total(prefix, field="self_s", exclude=()):
        return sum(v[field] for k, v in spans.items() if k.startswith(prefix) and k not in exclude)

    untraced = workload["cases"] / base["sweep_s"]
    traced = workload["cases"] / full["sweep_s"]
    workers = WORKERS if par else 1
    values = {
        "verify.engine_self_s": total("verify.", exclude=REPORT_SPANS),
        "verify.report_s": sum(spans.get(k, {}).get("incl_s", 0.0) for k in REPORT_SPANS),
        "verify.report_bytes": base["report_bytes"],
        "verify.workers": workers,
        "verify.parallel_efficiency": (
            base["sweep_s"] / (workers * par["sweep_s"]) if par else 1.0),
        "cli.self_s": total("cli.main"),
        "arith.self_s": total("arith."),
        "arith.sieve_s": statistics.median(s["sieve_s"] for s in (base, ident, full)),
        "trace.cases_per_s_untraced": untraced,
        "trace.cases_per_s_traced": traced,
        "trace.slowdown": untraced / traced,
    }
    for tag in IDENTITY_TAGS:
        s = ident["spans"].get(f"{tracer.PER_TAG}:{tag}")
        values[f"verify.identity_us_per_case.{tag}"] = 1e6 * s["incl_s"] / s["count"] if s else 0.0
    for mod in ("averages", "multivar", "ramanujan", "exact"):
        for fn in tracer.FULL[mod]:
            values[f"{mod}.{fn}.self_s"] = spans.get(f"{mod}.{fn}", {}).get("self_s", 0.0)
    for name, rate in full["hit_rates"].items():
        values[f"{name}.hit_rate"] = rate
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}


def baseline_lines(metrics):
    lines = ["identity        us/case  baseline  ratio"]
    for tag in IDENTITY_TAGS:
        us = metrics[f"verify.identity_us_per_case.{tag}"]["value"]
        if not us:
            continue
        base = BASELINE_US.get(tag)
        if base is None:
            lines.append(f"{tag:20s} {us:9.1f}         -      -")
            continue
        ratio = us / base
        flag = "  DIFFERS by more than 15%" if abs(ratio - 1) > BASELINE_NOISE else ""
        lines.append(f"{tag:20s} {us:9.1f} {base:9d} {ratio:6.2f}{flag}")
    return lines


def run_workload(workload, seed, seconds, trace, digests):
    """Run one benchmark invocation; returns (result dict, human-readable lines)."""
    deadline = time.monotonic() + TIME_LIMIT_S
    loadavg = os.getloadavg()[0]
    calls = with_seed(workload["calls"], seed)
    cases = workload["cases"]
    if trace:
        base = run_sweep(calls, cases, "none", deadline, True, digests)
        ident = run_sweep(calls, cases, "identity", deadline)
        full = run_sweep(calls, cases, "full", deadline)
        par = run_sweep(threaded(calls), cases, "none", deadline) if WORKERS > 1 else None
        sweeps = [s for s in (base, ident, full, par) if s]
    else:
        # The first sweep warms the machine and checks the digests; its
        # reports are checked like every other, its timings are not used.
        sweeps = [run_sweep(calls, cases, "none", deadline, True, digests)]
        start = time.monotonic()
        while len(sweeps) < 2 or time.monotonic() - start < seconds:
            sweeps.append(run_sweep(calls, cases, "none", deadline))
    attempted = cases * len(sweeps)
    failed = sum(s["failed"] for s in sweeps)
    if trace:
        metrics = layer_metrics(workload, base, ident, full, par)
        lines = baseline_lines(metrics)
        lines.append(f"tracing overhead: {metrics['trace.slowdown']['value']:.3f}x "
                     f"({metrics['trace.cases_per_s_untraced']['value']:.6g} untraced vs "
                     f"{metrics['trace.cases_per_s_traced']['value']:.6g} traced cases/s)")
    else:
        metrics, lines = end_to_end(workload, sweeps[1:], attempted, failed)
    problems = [p for s in sweeps for p in s["problems"]]
    stamp = {
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "python": sweeps[0]["python"],
        "numpy": sweeps[0]["numpy"],
        "cpu_count": os.cpu_count(),
        "loadavg_1m": loadavg,
        "workers": WORKERS if trace else 1,
    }
    lines = [f"stamp: {json.dumps(stamp)}"] + lines + [f"problem: {p}" for p in problems]
    for name, m in metrics.items():
        lines.append(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def _commit():
    """HEAD of the git repository rooted here, or "unknown" outside one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "ramavg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()[:16]


def load_digests(name, seed):
    with open(DIGESTS) as f:
        return json.load(f)[name][str(seed % VARIANTS)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ramavg", "cli.py")):
        print(f"error: no ramavg sources under {SRC}", file=sys.stderr)
        return 2
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    try:
        result, lines = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                                     bool(args.trace), load_digests(args.workload, args.seed))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
