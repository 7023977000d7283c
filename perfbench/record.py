"""Record reference.json: every operation's output at the recorded seed.

    python3 perfbench/record.py

Run once, at the commit that defines the benchmark. A later change is
checked against these values, so it cannot get faster by computing
something else; re-recording belongs to a change that alters the
benchmark, never to one that claims a gain.
"""

import json
import sys

import ops
from run import RUN_LIMIT_S

SEED = 1


def main() -> int:
    inputs = ops.make_inputs(SEED)
    recorded = {}
    try:
        for name, wl in ops.WORKLOADS.items():
            env = ops.child_env(ops.fresh_data_dir() if wl["data_dir"] else None)
            for op in wl["ops"]:
                res = ops.run_child(ops.argv_of(op, inputs), env, RUN_LIMIT_S)
                if res["exit"] != op.get("exit", 0):
                    print(f"{name}/{op['id']}: exit {res['exit']}\n{res['stderr']}", file=sys.stderr)
                    return 1
                obs = ops.observe(op, inputs, res["stdout"])
                problems = ops.oracle_checks(op, inputs, obs)
                if problems:
                    print(f"{name}/{op['id']}: {problems}", file=sys.stderr)
                    return 1
                recorded[f"{name}/{op['id']}"] = obs
                print(f"{name}/{op['id']}: {res['wall_s']:.2f} s", flush=True)
    finally:
        ops.shutil.rmtree(ops.WORK, ignore_errors=True)
    with open(ops.REFERENCE_PATH, "w") as fh:
        json.dump({"seed": SEED, "ops": recorded}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
