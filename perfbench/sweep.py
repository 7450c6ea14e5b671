"""One `ramavg verify` sweep in a fresh interpreter, started by run.py.

Reads a JSON spec on stdin:

    {"calls": [[cli args], ...], "cases": planned case count,
     "trace": "none" | "identity" | "full",
     "digest_pass": whether to hash the exact-mode cases,
     "digests": {tag: hex} to check the hashes against, or null}

Set-up (import plus the first `factorize`, which sieves the prime table)
is timed apart from the sweep. A fixed reference kernel that uses no
ramavg code is timed right before and right after the sweep; run.py
divides by its time to take out the drift of the machine's speed. The sweep is every call in order through
`ramavg.cli.main`, each rendering its report to memory. After the timed
part the rendered reports are checked: the case count must equal the
planned grid and no case may fail. When digests are given, the exact-mode
lhs/rhs strings of every case are hashed per identity and compared, and
every tolerance-mode case is checked against the tolerance from its own
lhs/rhs. Prints one JSON result line on stdout.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import platform
import resource
import sys
import time
from fractions import Fraction

TOLERANCE = 1e-8  # the CLI default; no workload passes --tolerance

# (name, cache owner module, attribute) for the lru_cache hit rates.
CACHES = (
    ("arith.factorize", "arith", "factorize"),
    ("arith.divisors", "arith", "divisors"),
    ("arith.mobius", "arith", "mobius"),
    ("arith.euler_phi", "arith", "euler_phi"),
    ("ramanujan.ramanujan_row", "ramanujan", "ramanujan_row"),
    ("multivar.product_row", "multivar", "_product_row"),
    ("multivar.divisor_terms", "multivar", "_divisor_terms"),
)


def _format_of(argv):
    return argv[argv.index("--format") + 1]


def _as_csv(argv):
    out = list(argv)
    out[out.index("--format") + 1] = "csv"
    return out


def _csv_rows(text):
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != ["identity", "params", "mode", "lhs", "rhs", "abs_error", "pass"]:
        raise ValueError(f"unexpected CSV header {header}")
    return list(reader)


def _within_tolerance(lhs: str, rhs: str) -> bool:
    a, b = float(lhs), float(rhs)
    return abs(a - b) <= TOLERANCE * (1 + max(abs(a), abs(b)))


def check_reports(reports, planned, digest_rows=None, digests=None):
    """Check rendered reports; returns (cases, failed keys, problems, digests seen).

    `reports` is [(argv, exit code, output)]. A failed case is keyed by
    (identity, params). `digest_rows` are the CSV rows of every case when
    the digest pass ran. When `digests` is given, a mismatch fails every
    case of its identity, whatever the case's own verdict or error field
    says.
    """
    cases = 0
    bad = set()
    problems = []
    for argv, code, text in reports:
        if code not in (0, 1):
            problems.append(f"exit code {code} for {argv}")
            continue
        if _format_of(argv) == "csv":
            rows = _csv_rows(text)
            cases += len(rows)
            bad.update((r[0], r[1]) for r in rows if r[6] != "true")
        else:
            body = json.loads(text)
            cases += body["total"]
            bad.update((c["identity"], c["params"]) for c in body["failures"])
            consistent = body["failed"] == len(body["failures"]) == body["total"] - body["passed"]
            if not consistent:
                problems.append(f"inconsistent totals in report of {argv}")
    if cases != planned:
        problems.append(f"{cases} cases reported, {planned} planned")
    seen = {}
    if digest_rows is not None:
        hashes = {}
        by_tag = {}
        for tag, params, mode, lhs, rhs, _, _ in digest_rows:
            by_tag.setdefault(tag, []).append(params)
            if mode == "exact":
                hashes.setdefault(tag, hashlib.sha256()).update(f"{params}|{lhs}|{rhs}\n".encode())
            elif not _within_tolerance(lhs, rhs):
                bad.add((tag, params))
        seen = {tag: h.hexdigest()[:16] for tag, h in hashes.items()}
        if digests is not None:
            for tag in sorted(set(seen) | set(digests)):
                if seen.get(tag) != digests.get(tag):
                    problems.append(f"digest mismatch for {tag}")
                    bad.update((tag, p) for p in by_tag.get(tag, ()))
    return cases, bad, problems, seen


def _reference_kernel(np):
    """A fixed mix of the work ramavg does (gcds, dicts, Fractions, small
    numpy reductions) written without ramavg, so no change to it moves this."""
    acc = Fraction(0)
    sums = {}
    for i in range(1, 3000):
        g = math.gcd(i, 360360)
        sums[g] = sums.get(g, 0) + i * i
        if i % 40 == 0:
            acc += Fraction(i, g + 1)
    a = np.arange(1, 2001, dtype=np.int64)
    total = sum(int((a % k).sum()) for k in range(1, 40))
    return acc, total, sorted(str(v) for v in sums.values())


def reference_s(np, reps=120):
    """Seconds for `reps` runs of the reference kernel, after one untimed."""
    _reference_kernel(np)
    start = time.perf_counter()
    for _ in range(reps):
        _reference_kernel(np)
    return time.perf_counter() - start


def _hit_rates(caches):
    rates = {}
    for name, cached in caches.items():
        info = cached.cache_info()
        calls = info.hits + info.misses
        rates[name] = info.hits / calls if calls else 0.0
    return rates


def main() -> int:
    spec = json.load(sys.stdin)
    t0 = time.perf_counter()
    import numpy
    import ramavg  # noqa: F401  (the import a CLI user pays for)
    from ramavg import arith, cli, multivar, ramanujan

    t1 = time.perf_counter()
    arith.factorize(2)
    t2 = time.perf_counter()
    # Taken before tracing replaces the module attributes with wrappers.
    modules = {"arith": arith, "ramanujan": ramanujan, "multivar": multivar}
    caches = {name: getattr(modules[mod], attr) for name, mod, attr in CACHES}

    tracer = None
    if spec["trace"] != "none":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install(tracing.FULL if spec["trace"] == "full" else tracing.IDENTITY)

    ref_before = reference_s(numpy)
    reports = []
    start = time.perf_counter()
    for argv in spec["calls"]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        reports.append((argv, code, buf.getvalue()))
    sweep_s = time.perf_counter() - start
    ref_after = reference_s(numpy)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "import_s": t1 - t0,
        "sieve_s": t2 - t1,
        "sweep_s": sweep_s,
        "reference_s": (ref_before + ref_after) / 2,
        "peak_rss_mb": peak_rss_mb,
        "report_bytes": sum(len(text.encode()) for _, _, text in reports),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["spans"] = tracer.summary()
        result["hit_rates"] = _hit_rates(caches)

    digest_rows = None
    if spec["digest_pass"]:
        digest_rows = []
        for argv, _, text in reports:
            if _format_of(argv) != "csv":
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    cli.main(_as_csv(argv))
                text = buf.getvalue()
            digest_rows.extend(_csv_rows(text))
    cases, bad, problems, seen = check_reports(
        reports, spec["cases"], digest_rows, spec["digests"]
    )
    result.update(
        cases=cases,
        failed=len(bad) + abs(spec["cases"] - cases),
        problems=problems + [f"failed case {t}({p})" for t, p in sorted(bad)[:5]],
        digests=seen,
    )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
