#!/usr/bin/env python3
"""Pipeline benchmark for ckmsched, driven from outside the program.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds T] [--trace 0|1]
    python3 perfbench/run.py --update-reference

Run from the root of a checkout; the program is imported from `src/`.
Workloads, metrics and bounds are listed in BENCHMARK.json. Every
repetition runs in a fresh interpreter (perfbench/worker.py) with BLAS
pinned to one thread, so caches and the RSS high-water mark start cold.

--trace 0 measures the end-to-end metrics with tracing off:
  setup_s         median of SETUP_REPS (more when quick) cold
                  build_scenario + build_ckm + calibrate_noise runs, each in
                  its own process;
  trials_per_s    completed trials over the wall time of the timed phase
                  (closed loop, one client); on map_sweep the timed phase is
                  build-ckm + inspect-ckm + run, repeated in fresh processes
                  until --seconds have passed;
  trial_ms_p50/90 per-run_trial wall time;
  peak_rss_mb     largest RSS high-water mark of a timed-phase process;
  map_file_mb     size of the map file: the one build-ckm writes on
                  map_sweep, the workload's base map saved by set-up elsewhere;
  completed_frac  completed trials over attempted trials.
--trace 1 runs the workload's fixed unit once untraced and twice traced
(perfbench/tracer.py) and reports the per-layer metrics of the first traced
run, trace.overhead_frac, and fails unless both traced runs give the same
counts.

Times are reference seconds, not raw wall seconds: each worker times a
fixed probe loop every 0.2 s and rescales wall time by the probe's speed
(RefClock in worker.py), because the host's vCPUs change speed by up to
1.6x for minutes at a time. Raw wall times are kept in the run record.

Every run passes each completed trial through the correctness gate in
worker.py; a mismatch prints the result with "correct": false and exits 1.
The last line of standard output is the result as one JSON object. Run
records, with the traceback of every failed trial, and span files are
written to perfbench/_runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
RUNS = os.path.join(HERE, "_runs")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

SETUP_REPS = 3
# Quick set-ups (desk_oracle's takes 0.1 s) repeat until they add up to
# SETUP_MIN_S, up to 3 * SETUP_REPS processes, for a steadier median.
SETUP_MIN_S = 1.0
# A run must end within 180 s; leave room to print and clean up.
DEADLINE_S = 170.0
TIME_STATS = ("busy_s", "self_s", "us_p50")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


class Children:
    """Starts worker processes one at a time under a shared deadline."""

    def __init__(self, workload: str, seed: int):
        self.base = ["--workload", workload, "--seed", str(seed)]
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = child_env()

    def run(self, mode: str, *extra: str) -> dict:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"out of time before worker {mode}")
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, mode, *self.base, *extra],
                stdout=subprocess.PIPE, text=True, env=self.env, cwd=ROOT,
                timeout=left,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            raise BenchError(f"worker {mode} did not finish within the deadline")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker {mode} exited with code {proc.returncode}")
        return json.loads(lines[-1])


def quantile(values: list[float], q: int) -> float:
    """q-th percentile, linear between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(kids: Children, workload: str, seconds: int) -> tuple:
    map_out = os.path.join(RUNS, f"map-{os.getpid()}.ckm")
    setups = [kids.run("setup", "--map-out", map_out)]
    while len(setups) < SETUP_REPS or (len(setups) < 3 * SETUP_REPS and
                                       sum(s["setup_s"] for s in setups) < SETUP_MIN_S):
        setups.append(kids.run("setup"))
    measures = []
    started = time.monotonic()
    while not measures or (workload == "map_sweep"
                           and time.monotonic() - started < seconds):
        measures.append(kids.run("measure", "--seconds", str(seconds), "--workdir", RUNS))
    trial_ms = [t for m in measures for t in m["trial_ms"]]
    attempted = sum(m["attempted"] for m in measures)
    failed = sum(m["failed"] for m in measures)
    if not trial_ms:
        raise BenchError("no trial was attempted")
    map_bytes = (measures if workload == "map_sweep" else setups)[0]["map_file_bytes"]
    metrics = {
        "trials_per_s": (attempted - failed) / sum(m["wall_s"] for m in measures),
        "trial_ms_p50": statistics.median(trial_ms),
        "trial_ms_p90": quantile(trial_ms, 90),
        "peak_rss_mb": max(m["peak_rss_mb"] for m in measures),
        "map_file_mb": map_bytes / 1e6,
        "completed_frac": (attempted - failed) / attempted,
        "setup_s": statistics.median(s["setup_s"] for s in setups),
    }
    raw = {
        "trials_per_s": (attempted - failed) / sum(m["wall_s_raw"] for m in measures),
        "setup_s": statistics.median(s["setup_s_raw"] for s in setups),
    }
    record = {"setups": setups, "measures": measures, "env": measures[0]["env"],
              "trials": len(trial_ms), "raw_wall": raw}
    for m in measures:
        del m["trial_ms"]
    return metrics, attempted, failed, record


def traced(kids: Children, workload: str, seed: int, names: list[str]) -> tuple:
    spans = os.path.join(RUNS, f"{workload}-seed{seed}-spans.jsonl")
    base = kids.run("unit", "--trace", "0", "--workdir", RUNS)
    first = kids.run("unit", "--trace", "1", "--workdir", RUNS, "--spans", spans)
    second = kids.run("unit", "--trace", "1", "--workdir", RUNS)

    def counts(run):
        return {k: v for k, v in run["layers"].items()
                if k.rsplit(".", 1)[-1] not in TIME_STATS}

    a, b = counts(first), counts(second)
    first["mismatches"] += [f"count {k} differs between two traced runs"
                            for k in sorted(a.keys() | b.keys()) if a.get(k) != b.get(k)]
    layers = dict(first["layers"], **{"trace.overhead_frac": first["wall_s"] / base["wall_s"] - 1})
    metrics = {name: layers.get(name, 0) for name in names}
    record = {"units": [base, first, second], "spans": os.path.relpath(spans, ROOT),
              "all_layers": layers}
    return metrics, first["attempted"], first["failed"], record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true",
                        help="rewrite perfbench/reference/ from seed 0 of every workload")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "ckmsched")):
        print(f"error: no ckmsched sources under {SRC}", file=sys.stderr)
        return 2
    with open(SPEC) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    os.makedirs(RUNS, exist_ok=True)

    if args.update_reference:
        for workload in workloads:
            Children(workload, 0).run("unit", "--workdir", RUNS, "--write-reference")
            print(f"wrote reference for {workload}", file=sys.stderr)
        return 0
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {workloads}")

    kids = Children(args.workload, args.seed)
    try:
        if args.trace:
            metric_spec = spec["per_layer"]
            metrics, attempted, failed, record = traced(
                kids, args.workload, args.seed, [m["name"] for m in metric_spec])
            runs = record["units"]
        else:
            metric_spec = spec["end_to_end"]
            metrics, attempted, failed, record = end_to_end(
                kids, args.workload, args.seconds)
            runs = record["setups"] + record["measures"]
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    mismatches = [m for run in runs for m in run.get("mismatches", [])]
    result = {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in metric_spec},
    }
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, result=result, mismatches=mismatches)
    path = os.path.join(RUNS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    for m in metric_spec:
        print(f"{args.workload:16s} {m['name']:48s} {metrics[m['name']]:14.6g} {m['unit']}",
              file=sys.stderr)
    for m in mismatches[:20]:
        print(f"correctness gate: {m}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
