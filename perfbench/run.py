"""Benchmark of bglab's three projects: cover replicas, matching, top-K.

    python3 perfbench/run.py --workload cover_small --seed 1 --seconds 20 \\
        --trace 0

runs one workload in this process: set-up and a warm-up round, then
set-up and a round of the same operations, again and again until
`--seconds` have passed, with every round's outputs checked against
references computed apart from bglab, and every set-up's parsed instances
checked against the inputs they were made from. The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. With `--trace 0` the metrics are the end-to-end ones (setup_s,
ops_per_s, peak_rss_mb); with `--trace 1` bglab's layers are wrapped in
spans and the per-layer metrics are reported instead, and the spans are
written to perfbench/results/. Metric names and units are those
BENCHMARK.json declares. `--workload all` runs every workload in a fresh
process of its own, one after the other.

Exit status: 0 when a result is printed, 2 when the benchmark cannot run
(no bglab sources in this checkout, or a reference file that does not
match the generated instances).
"""

from __future__ import annotations

import os

# One thread per process: the BLAS and OpenMP pools read these at import.
# The child process that computes references inherits them, and writes no
# bytecode either.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "PYTHONDONTWRITEBYTECODE"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

from locate import HERE, ROOT, Refused, import_bglab

RESULTS = os.path.join(HERE, "results")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="cover_small, cover_orlib, matching_steiner, "
                             "topk_movies or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def declared_metrics(kind: str) -> dict[str, str]:
    """Metric name -> unit for `end_to_end` or `per_layer`, as
    BENCHMARK.json declares them."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            return {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    except (OSError, ValueError, KeyError) as exc:
        raise Refused(f"cannot read the {kind} metrics of {path}: {exc}")


class StepTimer:
    """Times each call made through it, by label."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}

    def __call__(self, label: str, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        self.samples.setdefault(label, []).append(elapsed)
        return result

    def typical_total(self) -> float:
        """Sum over labels of the upper quartile of the call times.

        A shared host runs at a base speed with faster spells of a few
        seconds. How much of a run the spells cover varies from run to run
        and moves the median; the upper quartile stays nearer the base
        speed.
        """
        return sum(statistics.quantiles(v, n=4, method="inclusive")[2]
                   if len(v) > 1 else v[0] for v in self.samples.values())


def measure(workload, seed: int, seconds: float, recorder) -> dict:
    """One run: set-up and warm-up, then set-up and a round until
    `seconds` have passed; checks on every round's outputs."""
    import checks

    problems: list[str] = []

    def checked(step, *args):
        try:
            step(*args)
        except checks.CheckFailure as exc:
            problems.append(str(exc))

    def phase(name: str) -> None:
        if recorder is not None:
            recorder.phase = name

    def setup(timer):
        gc.collect()
        phase("setup")
        return workload.setup(inputs, timer)

    # Set-up is repeated once before every round, so that its samples
    # span the run as the round samples do and a slow spell of the host
    # weighs on both alike.
    inputs = workload.inputs(seed)
    setup_timer = StepTimer()
    ready = setup(setup_timer)
    phase("check")
    refs = workload.references(inputs, ready)
    checked(workload.check_setup, refs, ready)

    phase("warmup")
    first = workload.round(ready, StepTimer())
    phase("check")
    checked(workload.check, ready, refs, first)
    ops_per_round, _ = workload.count(refs, first)

    round_timer = StepTimer()
    rounds = attempted = failed = 0
    began = time.perf_counter()
    while not rounds or time.perf_counter() - began < seconds:
        ready = None  # never hold two copies of the ready data
        ready = setup(setup_timer)
        phase("check")
        checked(workload.check_setup, refs, ready)
        gc.collect()
        phase("round")
        outputs = workload.round(ready, round_timer)
        phase("check")
        checked(workload.check, ready, refs, outputs)
        if outputs != first:
            problems.append("a round's outputs differ from the warm-up's")
        ops, bad = workload.count(refs, outputs)
        rounds += 1
        attempted += ops
        failed += bad
        outputs = None
    checked(workload.replay, ready, refs, first)
    return {"problems": problems, "setups": rounds + 1,
            "setup_s": setup_timer.typical_total(), "rounds": rounds,
            "round_s": round_timer.typical_total(),
            "ops_per_round": ops_per_round,
            "attempted": attempted, "failed": failed}


def run_one(args) -> int:
    import_bglab()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise Refused(f"unknown workload {args.workload!r}; known: "
                      f"{', '.join(WORKLOADS)}, all")
    units = declared_metrics("per_layer" if args.trace else "end_to_end")
    workdir = os.path.join(RESULTS, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    recorder = None
    if args.trace:
        from spans import Recorder

        recorder = Recorder()
        recorder.install()
    try:
        workload = WORKLOADS[args.workload](workdir)
        run = measure(workload, args.seed, args.seconds, recorder)
    finally:
        if recorder is not None:
            recorder.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    setup_s = run["setup_s"]
    ops_per_s = run["ops_per_round"] / run["round_s"]
    if recorder is None:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {"setup_s": setup_s, "ops_per_s": ops_per_s,
                  "peak_rss_mb": peak_kb / 1024.0}
    else:
        values = recorder.layer_metrics(units, {"setup": run["setups"],
                                                "round": run["rounds"]})
        values["trace.setup_s"] = setup_s
        values["trace.ops_per_s"] = ops_per_s
        trace_path = os.path.join(
            RESULTS, f"trace-{args.workload}-seed{args.seed}.csv")
        recorder.write(trace_path)
        print(f"spans written to {os.path.relpath(trace_path)}")

    metrics = {name: (values[name], unit) for name, unit in units.items()}
    for problem in dict.fromkeys(run["problems"]):
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"{args.workload}: {run['setups']} set-ups, {run['rounds']} "
          f"rounds of {run['ops_per_round']} operations; upper-quartile step "
          f"times sum to {setup_s:.4f} s per set-up and "
          f"{run['round_s']:.4f} s per round")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not run["problems"],
        "attempted": run["attempted"], "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process; a combined result line last."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with status {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.workload == "all":
            import_bglab()
            return run_all(args)
        return run_one(args)
    except Refused as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
