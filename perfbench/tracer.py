"""Spans around every public function of the hlmlab modules, from outside.

Tracer.install() wraps each public function (and each public method of a
public class) defined in the traced modules, and rebinds the wrapper
wherever the original is bound in an hlmlab module namespace. That catches
from-imports such as `counting.singular_series` and calls inside the
defining module. The acceptance items are wrapped where
acceptance.CRITERIA holds them.

Per function the tracer keeps calls, total (inclusive) time and self time
(total minus the time of traced calls made inside it). Spans nest per
thread: a public function called from a worker thread is a root span of
that thread, so its time is not subtracted from the caller's self time.
Each wrapped call costs about a microsecond, which matters only for the
per-element functions (`nilseq.shift` runs 10^6 times in A9); the traced
run reports the total as trace.overhead_s.

A few functions also record small facts about their arguments and result,
from which layer_metrics() computes work counts. Those counts are computed
by the benchmark from the call arguments, not counted inside the program.
"""

import functools
import importlib
import inspect
import math
import sys
import threading
import time

import numpy as np

MODULES = ("arith", "fourier", "linsys", "counting", "gowers", "nilseq",
           "obstruction", "cli", "acceptance")

# name -> (bound arguments, result) -> the facts the work counts need
RECORDED = {
    "arith.build_table": lambda a, r: a["N"],
    "arith.dump_table": lambda a, r: a["table"].limit,
    "arith.load_table": lambda a, r: r.limit,
    "counting.count_ap_primes": lambda a, r: (a["N"], r),
    "counting.weighted_ap_average": lambda a, r: (a["N"], a["k"]),
    "counting.generic_count": lambda a, r: (
        a["N"] ** (a["system"].t - a["system"].s) if a["mode"] == "exact" else a["samples"],
        r.observed),
    "obstruction.count_aps": lambda a, r: (a["membership"].size, a["k"]),
    "linsys.singular_series": lambda a, r: a["P0"],
    "fourier.sup_exp_sum": lambda a, r: (np.asarray(a["weights"]).size, a["oversample"]),
    "nilseq.orbit_array": lambda a, r: a["n_max"],
}


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.records = {}  # name -> [facts per call]
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []  # per open span: time of traced calls inside it
            local.depth = {}  # name -> open spans of that name
        return local

    def wrap(self, name: str, fn):
        extract = RECORDED.get(name)
        signature = inspect.signature(fn) if extract else None
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = self._thread_state()
            stack, depth = local.stack, local.depth
            frame = [0.0]
            stack.append(frame)
            outer = depth.get(name, 0) == 0
            depth[name] = depth.get(name, 0) + 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                depth[name] -= 1
                if stack:
                    stack[-1][0] += dt
                with self._lock:
                    stats[0] += 1
                    stats[2] += dt - frame[0]
                    if outer:  # a recursive call is already inside its caller's total
                        stats[1] += dt
            if extract is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                try:
                    facts = extract(bound.arguments, result)
                except (KeyError, AttributeError, TypeError):
                    pass  # a changed signature drops this count; it then reads 0
                else:
                    self.records.setdefault(name, []).append(facts)
            return result

        return traced

    def install(self):
        mods = {m: importlib.import_module(f"hlmlab.{m}") for m in MODULES}
        wrapped = {}  # id(original) -> wrapper
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self.wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(short, obj)
        for modname, mod in list(sys.modules.items()):
            if mod is None or modname.split(".")[0] != "hlmlab":
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])
        criteria = mods["acceptance"].CRITERIA
        original = list(criteria)
        criteria[:] = [(cid, title, tags, self.wrap(f"acceptance.{cid}", fn))
                       for cid, title, tags, fn in original]
        self._undo.append(lambda: criteria.__setitem__(slice(None), original))

    def _wrap_methods(self, short, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                self._set(cls, attr, self.wrap(name, obj))
            elif isinstance(obj, classmethod):
                self._set(cls, attr, classmethod(self.wrap(name, obj.__func__)))

    def _set(self, owner, attr, value):
        old = vars(owner)[attr]
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def total(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]


def _prime_counts(limit: int) -> np.ndarray:
    """pi(n) for n = 0..limit, by the benchmark's own sieve."""
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.cumsum(is_prime)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, names: list, out_bytes: int, probe_s: float,
                  overhead_s: float) -> dict:
    """Values of the named per-layer metrics from one traced pass; layers a
    workload does not exercise read 0.

    "<function>.s" is the function's total (inclusive) time,
    "<function>.self_s" its self time and "<function>.calls" its call count;
    the other metrics are work counts computed here from recorded arguments.
    """
    rec = tr.records
    values = {}
    for name in names:
        if name.endswith(".self_s"):
            values[name] = tr.self_time(name[: -len(".self_s")])
        elif name.endswith(".s"):
            values[name] = tr.total(name[: -len(".s")])
        elif name.endswith(".calls"):
            values[name] = tr.calls(name[: -len(".calls")])
    values["linsys.closed_form.s"] = tr.total("linsys.closed_form_S3") + tr.total("linsys.closed_form_S4")

    builds, dumps, loads = (rec.get(f"arith.{f}", []) for f in ("build_table", "dump_table", "load_table"))
    values["arith.build_table.n"] = sum(builds)
    values["arith.table_bytes_written"] = sum(12 + 10 * n for n in dumps)  # HLM1 layout
    values["arith.table_bytes_read"] = sum(12 + 10 * n for n in loads)
    values["arith.cache_hit_ratio"] = _ratio(len(loads), len(loads) + len(builds))

    aps = rec.get("counting.count_ap_primes", [])
    singular = rec.get("linsys.singular_series", [])
    pi = _prime_counts(max([n for n, _ in aps] + singular + [2]))
    # odd-prime pairs p1 < p3 <= N, the pairs the prime-pair counter walks
    pairs = sum(math.comb(max(int(pi[n]) - 1, 0), 2) for n, _ in aps)
    values["counting.count_ap_primes.prime_pairs"] = pairs
    values["counting.count_ap_primes.hit_ratio"] = _ratio(sum(r for _, r in aps), pairs)
    weighted = rec.get("counting.weighted_ap_average", [])
    values["counting.weighted_ap_average.fft_len"] = sum(
        1 << max(1, math.ceil(math.log2(2 * n + 1))) for n, k in weighted if k == 3)
    values["counting.weighted_ap_average.d_steps"] = sum((n - 1) // 3 for n, k in weighted if k == 4)
    generic = rec.get("counting.generic_count", [])
    cells = sum(c for c, _ in generic)
    values["counting.generic_count.cells"] = cells
    values["counting.generic_count.hit_ratio"] = _ratio(sum(o for _, o in generic), cells)

    def ap_cells(n, k):  # #{(x, d): d >= 1, x + (k-1)d <= n}
        d = (n - 1) // (k - 1)
        return d * n - (k - 1) * d * (d + 1) // 2

    values["obstruction.count_aps.ap_cells"] = sum(
        ap_cells(n, k) for n, k in rec.get("obstruction.count_aps", []))
    values["linsys.singular_series.primes"] = sum(int(pi[p0]) for p0 in singular)
    values["fourier.sup_exp_sum.fft_len"] = sum(
        1 << max(1, math.ceil(math.log2(max(2, s * n)))) for n, s in rec.get("fourier.sup_exp_sum", []))
    values["nilseq.orbit_array.points"] = sum(rec.get("nilseq.orbit_array", []))
    values["cli.out_bytes"] = out_bytes
    values["machine.probe_s"] = probe_s
    values["trace.overhead_s"] = overhead_s
    return values
