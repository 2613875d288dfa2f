"""Benchmark of the cellspan command line, one workload per call.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports cellspan from
./src and writes only under ./.perfbench-out.  Set-up runs in a fresh
process that imports cellspan and writes the seeded inputs, three times
before the measured rounds and twice after them; setup_s is the median
of the five.  One fresh worker process runs whole rounds of the
workload's CLI calls until S seconds have passed (at least one round)
and checks every output.  Every time reported is scaled to a reference
machine speed, sampled while the work runs (speed.py), because the
shared host's own speed drifts by more than the bounds allow.  With
--trace 0 the last line of stdout carries the end-to-end metrics; with --trace 1 it carries the per-layer
metrics of the traced rounds, and the spans of the last traced round go
to ./.perfbench-out/spans-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

# Set-up runs before the measured rounds (the worker needs their inputs)
# and after them, so that their median spans the run.
SETUPS_BEFORE, SETUPS_AFTER = 3, 2
TIME_LIMIT_S = 170


def child(mode: str, args, root: str, inputs: str, deadline: float, *extra) -> dict:
    """Run worker.py in a fresh interpreter and return its last stdout
    line as JSON.  Exits when the worker fails or runs past the deadline
    (subprocess.run kills and reaps it)."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--inputs", inputs, "--root", root, *extra]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit(f"{mode} of {args.workload} ran past {TIME_LIMIT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{mode} of {args.workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills and reaps the running
    # worker, and the finally clause removes the inputs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + TIME_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cellspan", "__init__.py")):
        print("error: run from the root of a cellspan checkout "
              "(src/cellspan not found)", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".perfbench-out")
    inputs = os.path.join(out_dir, f"inputs-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setups = [child("setup", args, root, inputs, deadline)
                  for _ in range(SETUPS_BEFORE)]
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            extra += ["--spans", os.path.join(out_dir, f"spans-{args.workload}.jsonl")]
        res = child("run", args, root, inputs, deadline, *extra)
        if not args.trace:
            setups += [child("setup", args, root, inputs, deadline)
                       for _ in range(SETUPS_AFTER)]
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    metrics = res["metrics"]
    if not args.trace:
        metrics["setup_s"] = {
            "value": statistics.median(s["setup_ref_s"] for s in setups),
            "unit": "s"}
    print(f"{args.workload} seed {args.seed}: rounds of "
          + " ".join(f"{w:.2f}" for w in res["round_walls"]) + " s, scaled "
          + " ".join(f"{w:.2f}" for w in res["round_refs"]) + " s; set-ups of "
          + " ".join(f"{s['import_s'] + s['generate_s']:.3f}" for s in setups)
          + " s, scaled " + " ".join(f"{s['setup_ref_s']:.3f}" for s in setups)
          + " s", file=sys.stderr)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
