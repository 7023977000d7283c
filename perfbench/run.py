"""Outside-in benchmark of the `hlmlab` command line.

    python3 perfbench/run.py --workload ap-count --seed 1 --seconds 38 --trace 0

Run from the repository root. Workloads are defined in workloads.json:
each is a fixed list of `hlmlab` operations run in a closed loop (one
client, one child process at a time, BLAS and OpenMP capped at the core
count). A pass runs the whole list once; the run makes as many passes as
come closest to --seconds, and every time reported is the median over
passes.

--trace 0 (timed run) reports the end-to-end metrics:
  setup_s      median time for a fresh interpreter to `import hlmlab.cli`,
               sampled before every operation and at both ends of the run
  wall_s       summed median wall time of the workload's operations
  peak_rss_mb  largest peak RSS of any one operation (its own rusage)
--trace 1 (traced run) runs the same operations in-process through
hlmlab.cli.main(argv), once untraced and once with every public function
of the hlmlab modules wrapped in a span (tracer.py), and reports the
per-layer metrics. BENCHMARK.json names every metric, with its unit.

Every operation's output is checked against reference.json, recorded by
record.py at the commit that defined the benchmark, and by range and oracle
checks that hold for any seed. Human-readable lines come first; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time

# Thread caps must be in place before numpy loads; children inherit them.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(os.cpu_count() or 1)

import json  # noqa: E402
import shutil  # noqa: E402

import numpy as np  # noqa: E402

import ops  # noqa: E402
import tracer  # noqa: E402

# metric names, units and bounds, and the run length
SPEC = json.loads((ops.ROOT / "BENCHMARK.json").read_text())
SETUP_EDGE_SAMPLES = 3  # set-up samples before and after the loop
PROBE_FFT_REPS = 20
RUN_LIMIT_S = 170.0  # every run ends well inside 180 s


def probe() -> float:
    """Host-speed probe: a fixed numpy FFT loop. Context only; it never
    rescales another number."""
    x = np.random.default_rng(0).standard_normal(1 << 20)
    t0 = time.perf_counter()
    for _ in range(PROBE_FFT_REPS):
        np.fft.rfft(x)
    return time.perf_counter() - t0


def setup_sample() -> float:
    """Time for a fresh interpreter to finish `import hlmlab.cli`."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import hlmlab.cli"], env=ops.child_env(),
                   cwd=ops.ROOT, check=True)
    return time.perf_counter() - t0


def timed_run(name: str, wl: dict, inputs: dict, seed: int, seconds: float,
              reference, started: float, setup_samples: list) -> list:
    """Closed loop over the operation list, as child processes: one result
    dict per operation per pass. The first pass fixes how many passes make
    up about `seconds`.

    A set-up sample is taken before every operation, so the reported median
    spans the same stretch of host speed as the operations do.
    """
    passes, durations = [], []
    while True:
        env = ops.child_env(ops.fresh_data_dir() if wl["data_dir"] else None)
        t_pass = time.perf_counter()
        results = {}
        for op in wl["ops"]:
            setup_samples.append(setup_sample())
            timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - started))
            res = ops.run_child(ops.argv_of(op, inputs), env, timeout)
            res["problems"] = ops.check(name, op, inputs, res, seed, reference)
            del res["stdout"], res["stderr"]
            results[op["id"]] = res
        durations.append(time.perf_counter() - t_pass)
        passes.append(results)
        if len(passes) == 1:
            planned = max(1, round(seconds / durations[0]))
        if len(passes) >= planned:
            break
        if time.perf_counter() - started + max(durations) > RUN_LIMIT_S - 20:
            break
    return passes


def traced_run(name: str, wl: dict, inputs: dict, seed: int, reference) -> dict:
    """The same operations in-process, each run once untraced and once traced.

    Pairing per operation, and alternating which of the pair runs first,
    keeps host-speed drift and warm-up out of the overhead estimate. The two
    sequences use separate table caches, so each sees the cache misses and
    hits of a timed pass.
    """
    sys.path.insert(0, str(ops.SRC))
    dirs = {False: None, True: None}
    if wl["data_dir"]:
        dirs = {False: ops.fresh_data_dir("plain"), True: ops.fresh_data_dir("traced")}
    tr = tracer.Tracer()
    wall = {False: {}, True: {}}
    out_bytes, problems = 0, []
    for i, op in enumerate(wl["ops"]):
        argv = ops.argv_of(op, inputs)
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tr.install()
            try:
                res = ops.run_inprocess(argv, dirs[traced])
            finally:
                tr.uninstall()
            wall[traced][op["id"]] = res["wall_s"]
            problems.append(ops.check(name, op, inputs, res, seed, reference))
            if traced and not problems[-1]:
                out_bytes += ops.out_bytes(op, inputs, res)
    return {"tracer": tr, "untraced": wall[False], "traced": wall[True],
            "out_bytes": out_bytes, "problems": problems}


def summarize_timed(wl: dict, passes: list, setup_s: float):
    """End-to-end metric values of a timed run; per-operation lines on stdout."""
    med = {op["id"]: {k: statistics.median(p[op["id"]][k] for p in passes)
                      for k in ("wall_s", "rss_mb")} for op in wl["ops"]}
    print(f"  {len(passes)} passes; per operation, median over passes:")
    for op in wl["ops"]:
        m = med[op["id"]]
        print(f"    {op['id']:<20} {m['wall_s']:9.4f} s {m['rss_mb']:9.1f} MB")
    groups = {}
    for op in wl["ops"]:
        if "group" in op:
            groups[op["group"]] = groups.get(op["group"], 0.0) + med[op["id"]]["wall_s"]
    for group, value in groups.items():
        print(f"  {group:<40} {value:.6g} s")
    values = {
        "wall_s": sum(m["wall_s"] for m in med.values()),
        "setup_s": setup_s,
        "peak_rss_mb": max(m["rss_mb"] for m in med.values()),
    }
    return values, [r["problems"] for results in passes for r in results.values()]


def summarize_traced(wl: dict, out: dict, probe_s: float):
    """Per-layer metric values of a traced run; per-operation lines on stdout."""
    untraced, traced = sum(out["untraced"].values()), sum(out["traced"].values())
    print("  in-process wall per operation, untraced and traced:")
    for op in wl["ops"]:
        print(f"    {op['id']:<20} {out['untraced'][op['id']]:9.4f} s {out['traced'][op['id']]:9.4f} s")
    print(f"    {'total':<20} {untraced:9.4f} s {traced:9.4f} s")
    names = [m["name"] for m in SPEC["per_layer"]]
    values = tracer.layer_metrics(out["tracer"], names, out["out_bytes"], probe_s, traced - untraced)
    return values, out["problems"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(ops.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not (ops.SRC / "hlmlab" / "cli.py").is_file():
        print(f"error: no hlmlab sources under {ops.SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    wl = ops.WORKLOADS[args.workload]
    reference = json.loads(ops.REFERENCE_PATH.read_text())
    try:
        probe_start = probe()
        inputs = ops.make_inputs(args.seed)
        if args.trace:
            out = traced_run(args.workload, wl, inputs, args.seed, reference)
        else:
            setup_sample()  # writes the bytecode cache; not a sample
            samples = [setup_sample() for _ in range(SETUP_EDGE_SAMPLES)]
            out = timed_run(args.workload, wl, inputs, args.seed, args.seconds,
                            reference, started, samples)
            samples += [setup_sample() for _ in range(SETUP_EDGE_SAMPLES)]
            setup_s = statistics.median(samples)
        probe_end = probe()
    finally:
        shutil.rmtree(ops.WORK, ignore_errors=True)
    probe_s = (probe_start + probe_end) / 2

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  machine.probe_s: start {probe_start:.4f} s, end {probe_end:.4f} s")
    if args.trace:
        values, problem_sets = summarize_traced(wl, out, probe_s)
    else:
        values, problem_sets = summarize_timed(wl, out, setup_s)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    attempted = len(problem_sets)
    failed = sum(1 for ps in problem_sets if ps)
    for ps in problem_sets:
        for problem in ps[:3]:
            print(f"  MISMATCH {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':<40} {failed / attempted:.6g} ratio ({failed} of {attempted} failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
