"""One fresh Python process: either the set-up or the measured rounds.

    worker.py setup --workload W --seed N --inputs DIR
        imports cellspan, writes the seeded inputs into DIR and prints
        {"import_s": ..., "generate_s": ..., "setup_ref_s": ...}.
    worker.py run --workload W --seed N --inputs DIR --seconds S --trace T [--spans FILE]
        runs whole rounds of the workload's CLI calls until S seconds
        have passed and prints one JSON result line.

Both sample the machine's speed while they run (speed.py) and report
their times also scaled to the reference speed.

run.py starts these; PYTHONPATH must name the checkout's src directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

import workloads


def import_cellspan(root: str):
    t0 = time.perf_counter()
    import cellspan
    import cellspan.cli
    dt = time.perf_counter() - t0
    want = os.path.realpath(os.path.join(root, "src", "cellspan"))
    got = os.path.realpath(os.path.dirname(cellspan.__file__))
    if got != want:
        raise SystemExit(f"cellspan imported from {got}, not from {want}")
    return cellspan.cli.main, dt


def call_cli(main, argv) -> tuple:
    """Run the cellspan command in-process, as the console script does,
    with its output captured.  Returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
    return code, out.getvalue()


class Round:
    """Outcome of one pass over the workload's jobs."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.wall_ref = 0.0   # wall and cpu at the reference speed
        self.cpu_ref = 0.0
        self.factor = 1.0     # reference speed over the sampled speed
        self.attempted = 0
        self.failed = 0
        self.errors: list = []


def run_round(workload: str, seed: int, inputs: str, main, tracer=None,
              sampler=None) -> Round:
    """Every job once, timed from the start of the first to the end of
    the last; the outputs are checked afterwards, outside that interval
    and with tracing paused.  With a running sampler the round's times
    are also scaled to the reference speed."""
    jobs = workloads.jobs(workload, seed, inputs)
    results = []
    rnd = Round()
    if tracer is not None:
        tracer.enabled = True
    mark = sampler.mark() if sampler is not None else None
    c0, t0 = time.process_time(), time.perf_counter()
    for job in jobs:
        if tracer is not None:
            with tracer.span(f"cli.{job.group}"):
                results.append(call_cli(main, job.argv))
        else:
            results.append(call_cli(main, job.argv))
    rnd.wall = time.perf_counter() - t0
    rnd.cpu = time.process_time() - c0
    if sampler is not None:
        (rnd.wall_ref, rnd.cpu_ref), rnd.factor = sampler.scaled(mark, rnd.wall,
                                                                 rnd.cpu)
    if tracer is not None:
        tracer.enabled = False
    outputs = {}
    for job, (code, text) in zip(jobs, results):
        rnd.attempted += 1
        if code != 0:
            rnd.failed += 1
            print(f"failed: {' '.join(job.argv)}: exit code {code}", file=sys.stderr)
        try:
            outputs[job.key] = json.loads(text)
        except ValueError:
            if code == 0:
                rnd.errors.append(f"{' '.join(job.argv)}: output is not JSON")
    rnd.errors += workloads.check_round(workload, outputs, inputs,
                                        lambda argv: call_cli(main, argv))
    return rnd


def unit_of(key: str) -> str:
    if key.endswith((".s", ".self_s")) or key == "trace_overhead_s":
        return "s"
    return "rows" if key.endswith(".side_max") else "count"


def cmd_setup(args) -> None:
    # The import is timed before the sampler exists (the probe needs
    # numpy, which importing cellspan loads) and scaled by the speed
    # sampled during the generation that follows it.
    _main, import_s = import_cellspan(args.root)
    import inputs
    import speed
    sampler = speed.Sampler()
    sampler.start()
    mark = sampler.mark()
    t0 = time.perf_counter()
    inputs.make_inputs(args.workload, args.seed, args.inputs)
    generate_s = time.perf_counter() - t0
    sampler.stop()
    (setup_ref_s,), _ = sampler.scaled(mark, import_s + generate_s)
    print(json.dumps({"import_s": import_s, "generate_s": generate_s,
                      "setup_ref_s": setup_ref_s}))


def cmd_run(args) -> None:
    main, _ = import_cellspan(args.root)
    import speed
    sampler = speed.Sampler()
    sampler.start()
    try:
        rounds, metrics = measure(args, main, sampler)
    finally:
        sampler.stop()
    errors = [e for r in rounds for e in r.errors]
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "round_walls": [r.wall for r in rounds],
        "round_refs": [r.wall_ref for r in rounds],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def measure(args, main, sampler) -> tuple:
    """Whole rounds until args.seconds have passed; (rounds, metrics)."""
    rounds: list = []
    start = time.perf_counter()
    if not args.trace:
        while not rounds or time.perf_counter() - start < args.seconds:
            rounds.append(run_round(args.workload, args.seed, args.inputs, main,
                                    sampler=sampler))
        metrics = {
            "wall_ref_s": (statistics.median(r.wall_ref for r in rounds), "s"),
            "cpu_ref_s": (statistics.median(r.cpu_ref for r in rounds), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
        }
    else:
        import spans
        rounds.append(run_round(args.workload, args.seed, args.inputs, main,
                                sampler=sampler))
        tracer = spans.Tracer()
        tracer.install()
        per_round = []
        while len(rounds) < 2 or time.perf_counter() - start < args.seconds:
            tracer.reset()
            rounds.append(run_round(args.workload, args.seed, args.inputs, main,
                                    tracer, sampler))
            # Span times scaled by the round's speed, like the round.
            per_round.append({k: v * rounds[-1].factor if unit_of(k) == "s" else v
                              for k, v in tracer.metrics().items()})
        tracer.uninstall()
        if args.spans:
            tracer.write(args.spans)
        metrics = {}
        for key in per_round[0]:
            metrics[key] = (statistics.median(m[key] for m in per_round),
                            unit_of(key))
        for group in workloads.job_groups():
            metrics.setdefault(f"cli.{group}.s", (0.0, "s"))
        traced = statistics.median(r.wall_ref for r in rounds[1:])
        metrics["trace_overhead_s"] = (traced - rounds[0].wall_ref, "s")
    return rounds, metrics


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("mode", choices=("setup", "run"))
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--root", default=os.getcwd())
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans")
    args = p.parse_args(argv)
    if args.mode == "setup":
        cmd_setup(args)
    else:
        cmd_run(args)


if __name__ == "__main__":
    main()
