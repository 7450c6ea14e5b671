"""Regenerate perfbench/digests.json from the sources in src/.

    python3 perfbench/make_digests.py

The digests are the reference every later run is checked against, so
regenerate them only on a commit whose reports are known to be right
(every case passes); the script refuses to write otherwise.
"""

import json
import sys
import time

import run


def main() -> int:
    out = {}
    for name, workload in run.WORKLOADS.items():
        out[name] = {}
        for variant in range(run.VARIANTS):
            calls = run.with_seed(workload["calls"], variant)
            result = run.run_sweep(calls, workload["cases"], "none",
                                   time.monotonic() + run.TIME_LIMIT_S, digest_pass=True)
            if result["failed"] or result["problems"]:
                print(f"{name} variant {variant}: {result['problems']}", file=sys.stderr)
                return 1
            out[name][str(variant)] = result["digests"]
            print(name, variant, result["digests"])
    with open(run.DIGESTS, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
