"""Spans around the public functions of ramavg's layers, recorded from outside.

The package is not edited: `Tracer.install` replaces each listed function,
in every ramavg module namespace that binds it, with a wrapper that
records a span (name, parent, start, end). Spans stay in memory in
compact per-thread arrays; `Tracer.summary` turns them into per-name
counts, inclusive time and self time. A span's self time is its duration
minus the time covered by its child spans. A span opened on a worker
thread with nothing open on that thread is a child of the innermost span
open on the main thread (the `run_suite` call that started the pool), so
overlapping worker spans are merged before they are subtracted.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from array import array
from collections import defaultdict

# Functions wrapped in a full trace. arith is wrapped whole because its
# metric is the module's total self time; the other modules list the
# functions that have a metric of their own. Helpers that are not listed
# count towards the self time of their caller.
FULL = {
    "arith": (
        "factorize", "divisors", "mobius", "euler_phi", "jordan_totient",
        "divisor_count_and_sum", "dirichlet_convolve", "von_mangoldt", "is_prime",
    ),
    "exact": (
        "bernoulli_number", "bernoulli_polynomial", "power_sum",
        "coprime_power_sum", "half_sum_check",
    ),
    "ramanujan": (
        "ramanujan_row", "ramanujan_sum", "ramanujan_sum_holder", "ramanujan_sum_float",
    ),
    "averages": (
        "s_r_direct", "s_r_closed", "gcd_weighted_pair", "bernoulli_weighted_pair",
        "inverse_dft_check", "log_weighted_pair", "gamma_weighted_pair",
        "gamma_product_check", "mobius_log_check", "binomial_weighted_cosine",
    ),
    "multivar": (
        "s_r_multi_direct", "s_r_multi_closed", "orbicyclic_direct",
        "orbicyclic_divisor", "g_m",
    ),
    "verify": ("run_suite", "run_identity", "report_to_json", "cases_to_csv"),
    "cli": ("main",),
}

# Only the per-case engine entry: per-identity timing at almost no cost.
IDENTITY = {"verify": ("run_identity",)}

# Spans of run_identity are named per identity tag (its first argument).
PER_TAG = "verify.run_identity"


class _Buffer:
    __slots__ = ("ids", "names", "parents", "starts", "ends", "stack")

    def __init__(self):
        self.ids = array("q")
        self.names = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = []


class Tracer:
    def __init__(self):
        self._names = []
        self._name_ids = {}
        self._counter = itertools.count()
        self._local = threading.local()
        self._buffers = []
        self._lock = threading.Lock()
        self._main = self._buffer()

    def _intern(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self._names)
                self._names.append(name)
            return self._name_ids[name]

    def _buffer(self) -> _Buffer:
        buf = _Buffer()
        self._local.buf = buf
        with self._lock:
            self._buffers.append(buf)
        return buf

    def _wrap(self, name, fn):
        local = self._local
        main_stack = self._main.stack
        counter = self._counter
        clock = time.perf_counter
        fixed = None if name == PER_TAG else self._intern(name)
        tag_ids = {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                buf = local.buf
            except AttributeError:
                buf = self._buffer()
            stack = buf.stack
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else -1)
            nid = fixed
            if nid is None:
                nid = tag_ids.get(args[0])
                if nid is None:
                    nid = tag_ids[args[0]] = self._intern(f"{name}:{args[0]}")
            idx = next(counter)
            pos = len(buf.ids)
            buf.ids.append(idx)
            buf.names.append(nid)
            buf.parents.append(parent)
            buf.ends.append(0.0)
            stack.append(idx)
            buf.starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.ends[pos] = clock()
                stack.pop()

        return wrapper

    def install(self, layers) -> None:
        """Wrap `layers` ({module: function names}) in every ramavg namespace."""
        modules = [m for n, m in sys.modules.items() if n == "ramavg" or n.startswith("ramavg.")]
        for mod_name, fn_names in layers.items():
            module = sys.modules[f"ramavg.{mod_name}"]
            for fn_name in fn_names:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def summary(self) -> dict:
        """{span name: {"count", "incl_s", "self_s"}} over every closed span."""
        n = sum(len(b.ids) for b in self._buffers)
        name = array("i", bytes(4 * n))
        parent = array("q", bytes(8 * n))
        thread = array("i", bytes(4 * n))
        dur = array("d", bytes(8 * n))
        start = array("d", bytes(8 * n))
        for t, buf in enumerate(self._buffers):
            for i, nm, p, s, e in zip(buf.ids, buf.names, buf.parents, buf.starts, buf.ends):
                name[i], parent[i], thread[i], start[i], dur[i] = nm, p, t, s, e - s
        covered = array("d", bytes(8 * n))
        mixed = set()
        for i in range(n):
            p = parent[i]
            if p < 0:
                continue
            if thread[p] == thread[i]:
                covered[p] += dur[i]
            else:
                mixed.add(p)
        if mixed:
            kids = defaultdict(list)
            for i in range(n):
                if parent[i] in mixed:
                    kids[parent[i]].append((start[i], start[i] + dur[i]))
            for p, intervals in kids.items():
                covered[p] = _union_length(intervals)
        out = {}
        for i in range(n):
            entry = out.setdefault(self._names[name[i]], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += dur[i]
            entry[2] += dur[i] - covered[i]
        return {k: {"count": c, "incl_s": t, "self_s": s} for k, (c, t, s) in out.items()}


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total
