"""Workload operations: seeded inputs, running one `hlmlab` operation, and
checking its output.

An operation is one `hlmlab` CLI invocation from workloads.json. It runs
either as a child process (`python -m hlmlab.cli`, PYTHONPATH=src), which is
what the timed runs measure, or in-process through `hlmlab.cli.main(argv)`,
which is what the traced run measures. Both paths produce the same
observation (the report minus its timestamp), which is compared with the
values recorded in reference.json and with range or oracle checks that hold
for every seed.
"""

import contextlib
import csv
import fnmatch
import hashlib
import io
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = json.loads((BENCH_DIR / "workloads.json").read_text())
REFERENCE_PATH = BENCH_DIR / "reference.json"

NILSEQ_ORACLE_ROWS = 200  # rows of the nilseq CSV checked against exact arithmetic


def child_env(data_dir=None) -> dict:
    """This process's environment (thread caps included), PYTHONPATH=src and
    HLM_DATA_DIR only when the workload uses the table cache. No --threads
    flag is ever passed, so children run with the program's own default.
    Bytecode caching stays on, as for a user, so no child recompiles."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("HLM_DATA_DIR", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(SRC)
    if data_dir is not None:
        env["HLM_DATA_DIR"] = str(data_dir)
    return env


def make_inputs(seed: int) -> dict:
    """Write the seeded inputs into a fresh work directory.

    The seed fixes the two Gowers input columns and the nilseq element g;
    operations whose inputs do not depend on it are identical on every seed.
    """
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    rng = np.random.default_rng(seed)
    inputs = {}
    for name, size in (("gowers3_csv", 4096), ("gowers4_csv", 256)):
        path = WORK / f"{name}.csv"
        path.write_text("".join(f"{v!r}\n" for v in rng.uniform(-1.0, 1.0, size).tolist()))
        inputs[name] = str(path)
    for name, v in zip(("alpha_g", "beta_g", "gamma_g"), rng.uniform(-2.0, 2.0, 3).tolist()):
        inputs[name] = repr(v)
    inputs["nilseq_csv"] = str(WORK / "nilseq.csv")
    inputs["acceptance_json"] = str(WORK / "acceptance.json")
    return inputs


def fresh_data_dir(name: str = "data") -> Path:
    """An empty HLM_DATA_DIR for workloads that use the table cache."""
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir()
    return path


def argv_of(op: dict, inputs: dict) -> list:
    return [a.format(**inputs) for a in op["argv"]]


def run_child(argv: list, env: dict, timeout: float) -> dict:
    """Run one operation as `python -m hlmlab.cli`: its wall time, its own
    peak RSS (os.wait4 on its pid, in launch.py) and its exit code."""
    out_path, err_path = WORK / "stdout.txt", WORK / "stderr.txt"
    cmd = [sys.executable, "-I", "-S", str(BENCH_DIR / "launch.py"), str(timeout),
           str(out_path), str(err_path), sys.executable, "-m", "hlmlab.cli", *argv]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            start_new_session=True)
    try:
        report, _ = proc.communicate(timeout=timeout + 10)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"launcher failed with exit {proc.returncode}")
    res = json.loads(report)
    return {
        "wall_s": res["wall_s"],
        "rss_mb": res["rss_kb"] / 1024.0,  # ru_maxrss is in KiB on Linux
        "exit": res["exit"],
        "stdout": out_path.read_text(),
        "stderr": err_path.read_text(),
    }


def run_inprocess(argv: list, data_dir) -> dict:
    """Run one operation through hlmlab.cli.main(argv) in this process."""
    from hlmlab import cli

    if data_dir is None:
        os.environ.pop("HLM_DATA_DIR", None)
    else:
        os.environ["HLM_DATA_DIR"] = str(data_dir)
    buf, err = io.StringIO(), ""
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback in a child process: exit 1, counted as failed
            code, err = 1, traceback.format_exc()
    wall = time.perf_counter() - t0
    os.environ.pop("HLM_DATA_DIR", None)
    return {"wall_s": wall, "exit": code, "stdout": buf.getvalue(), "stderr": err}


def out_bytes(op: dict, inputs: dict, result: dict) -> int:
    """Bytes the operation wrote: its stdout plus any --out file."""
    n = len(result["stdout"].encode())
    if "--out" in op["argv"]:
        n += os.path.getsize(argv_of(op, inputs)[op["argv"].index("--out") + 1])
    return n


# ---------------------------------------------------------------- observing


def observe(op: dict, inputs: dict, stdout: str):
    """The comparable content of an operation's output (no timestamp)."""
    kind = op.get("check", "json")
    if kind == "acceptance":
        with open(inputs["acceptance_json"]) as fh:
            report = json.load(fh)
        return {
            "summary": stdout.strip().splitlines()[-1],
            "results": [{k: r[k] for k in ("id", "title", "passed", "measured")}
                        for r in report["results"]],
        }
    if kind == "nilseq_csv":
        with open(inputs["nilseq_csv"], newline="") as fh:
            rows = list(csv.reader(fh))
        step = max(1, (len(rows) - 1) // NILSEQ_ORACLE_ROWS)
        return {
            "header": rows[0],
            "rows": len(rows) - 1,
            "sample": [[int(r[0])] + [float(v) for v in r[1:]] for r in rows[1::step]],
        }
    env = json.loads(stdout)
    env.pop("timestamp", None)
    if kind == "singular":
        # ~18k exact rational factors: compared as a digest, since integers
        # must match exactly anyway
        factors = env["results"].pop("factors")
        env["results"]["factors"] = {
            "count": len(factors),
            "sha256": hashlib.sha256(json.dumps(factors).encode()).hexdigest(),
        }
    return env


# ---------------------------------------------------------------- checking


def _rule(path: str, tol: dict):
    for pattern, rule in tol.items():
        if fnmatch.fnmatchcase(path, pattern):
            return rule
    return None


def compare(got, want, tol: dict, path: str = "") -> list:
    """Mismatches between an observation and its reference.

    Integers, booleans and strings must match exactly; floats within the
    rule the tolerance table states for their path (default: relative 1e-9).
    Objects must hold every recorded key; extra keys are allowed.
    Rules: "exact", ["rel", r], ["abs", a], ["mod1", a] (distance on the
    circle R/Z) and ["max", m] (0 <= got <= m).
    """
    rule = _rule(path, tol)
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{path}: {got!r} is not an object"]
        if set(want) - set(got):  # a report may gain fields, never lose them
            return [f"{path}: missing {sorted(set(want) - set(got))}"]
        return [m for k in want for m in compare(got[k], want[k], tol, f"{path}.{k}".lstrip("."))]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length {len(got) if isinstance(got, list) else got!r} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in compare(g, w, tol, f"{path}.{i}".lstrip("."))]
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if rule == "exact":
            ok = got == want
        elif rule and rule[0] == "max":
            ok = 0.0 <= got <= rule[1]
        elif rule and rule[0] == "mod1":
            ok = _mod1_gap(got, want) <= rule[1]
        elif rule and rule[0] == "abs":
            ok = abs(got - want) <= rule[1]
        else:
            r = rule[1] if rule else 1e-9
            ok = abs(got - want) <= r * abs(want) + 1e-15
        return [] if ok else [f"{path}: {got!r} != {want!r} ({rule or ['rel', 1e-9]})"]
    if isinstance(want, int) and not isinstance(want, bool) and isinstance(got, float):
        return [] if got == want else [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


def orbit_tolerance(n: int) -> float:
    """Allowed orbit error at step n. The y coordinate carries a term of size
    ~n^2 |alpha gamma| before its reduction mod 1, so double-precision
    rounding grows like n^2 * 2^-52 (about 5e-7 is seen at n = 2e5)."""
    return 1e-9 + 2.0 * n * n * 2.0**-52


def _mod1_gap(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def oracle_checks(op: dict, inputs: dict, obs) -> list:
    """Checks that hold for every seed, computed by the benchmark itself."""
    kind = op.get("check", "json")
    problems = []
    if kind == "gowers_input":
        f = np.loadtxt(inputs[op["input"]], delimiter=",", dtype=np.float64)
        value = obs["results"]["value"]
        # ||f||_{U^2} <= ||f||_{U^k} <= max|f| for k >= 2
        u2 = float(np.sum(np.abs(np.fft.fft(f) / f.size) ** 4)) ** 0.25
        if not u2 - 1e-9 <= value <= float(np.max(np.abs(f))) + 1e-9:
            problems.append(f"U^k value {value!r} outside [U^2 = {u2!r}, max|f|]")
        if obs["results"]["M"] != f.size:
            problems.append(f"M {obs['results']['M']} != {f.size}")
    elif kind == "nilseq_csv":
        n_max = int(op["argv"][op["argv"].index("--n") + 1])
        if obs["rows"] != n_max:
            problems.append(f"{obs['rows']} rows, expected {n_max}")
        a, b, c = (Fraction(float(inputs[k])) for k in ("alpha_g", "beta_g", "gamma_g"))
        half = Fraction(1, 2)
        for n, x, y, z, re_f, im_f in obs["sample"]:
            # T_g^n(origin) = (n a, n b + n(n-1)/2 a c, n c), reduced exactly
            xr, zr = n * a, n * c
            zint = math.ceil(zr - half)
            z_exact = float(zr - zint)
            if abs(z_exact) > 0.5 - 1e-6:
                continue  # on the z-wrap boundary either side is a valid reduction
            y_exact = float((n * b + Fraction(n * (n - 1), 2) * a * c - zint * xr) % 1)
            gaps = (_mod1_gap(x, float(xr % 1)), _mod1_gap(y, y_exact), abs(z - z_exact))
            mag = math.hypot(re_f, im_f)
            if max(gaps) > orbit_tolerance(n) or mag > 1.0 + 1e-12:
                problems.append(f"row {n}: gaps {gaps}, |F| = {mag}")
            elif mag > 1e-6:
                # vertical character: F = e(y) * bump(z) with bump(z) > 0
                phase = complex(re_f, im_f) / mag
                if abs(phase - complex(math.cos(2 * math.pi * y), math.sin(2 * math.pi * y))) > 1e-9:
                    problems.append(f"row {n}: F phase disagrees with e(y)")
    return problems


def check(workload: str, op: dict, inputs: dict, result: dict, seed: int, reference) -> list:
    """Every problem with one operation's result; empty means correct."""
    want_exit = op.get("exit", 0)
    if result["exit"] != want_exit:
        tail = result["stderr"].strip().splitlines()[-1:] or [""]
        return [f"exit {result['exit']} != {want_exit}: {tail[0]}"]
    try:
        obs = observe(op, inputs, result["stdout"])
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]
    problems = oracle_checks(op, inputs, obs)
    if seed == reference["seed"] or not op.get("seeded"):
        want = reference["ops"].get(f"{workload}/{op['id']}")
        if want is None:
            problems.append("no reference recorded")
        else:
            problems += compare(obs, want, op.get("tol", {}))
    return problems
