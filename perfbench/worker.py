"""One benchmark process: a cold set-up, a timed phase, or a fixed unit of work.

`run.py` starts this file in a fresh interpreter for every repetition, with
the checkout's `src/` on PYTHONPATH and BLAS pinned to one thread, so the
lru caches in `ckmsched.experiments` and the RSS high-water mark start
cold. The last line of standard output is one JSON object.

    python3 worker.py setup   --workload W --seed S [--map-out FILE]
    python3 worker.py measure --workload W --seed S --seconds T --workdir DIR
    python3 worker.py unit    --workload W --seed S --trace 0|1 --workdir DIR
                              [--spans FILE] [--write-reference]

Every call into the program goes through a module attribute
(`experiments.run_trial`, `cli.main`, ...) so that the tracer's patches
are seen.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import signal
import sys
import time
import traceback
from dataclasses import replace

import numpy as np
import scipy

import ckmsched
from ckmsched import ckm, cli, evaluation, experiments, geometry

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
REFERENCE_DIR = os.path.join(HERE, "reference")
DIGESTS = os.path.join(REFERENCE_DIR, "digests.json")
SWEEP_CSV = os.path.join(REFERENCE_DIR, "map_sweep_seed0.csv")

# The digest and CSV references hold for this workload seed only.
DEFAULT_SEED = 0
# Trial seeds of workload seed s start at s * SEED_STRIDE.
SEED_STRIDE = 100_000

# Mirrors table_scale_config() in tests/test_acceptance.py: 3 cells x 50
# users, 32 antennas, 1279 grids. Copied so the benchmark's inputs stay
# fixed when the tests change.
TABLE = dict(
    n_cells=3, users_per_cell=50, kbar=5, kprime=20, n_h=4, n_v=4,
    cell_radius_m=120.0, grid_edge_m=10.0, samples_per_grid=9, alpha=0.30,
    eta=0.7, target_snr_db=30.0, dynamic_grid_fraction=0.3, rng_seed=11,
    dynamic_gain=0.9, dynamic_clusters_per_grid=2, static_clusters_per_cell=18,
    scatter_range_m=30.0, scatter_falloff=3.0, phase_length_m=200.0,
    path_loss_exponent=2.0, bs_height_m=60.0, shadowing_std_db=1.0,
    placement="clustered", hotspots_per_cell=2,
)
# Mirrors desk_config() in tests/conftest.py: 2 cells x 5 users, 8 antennas.
DESK = dict(
    n_cells=2, users_per_cell=5, kbar=2, kprime=4, n_h=2, n_v=2,
    cell_radius_m=60.0, grid_edge_m=15.0, samples_per_grid=5, alpha=0.5,
    eta=0.7, target_snr_db=20.0, dynamic_grid_fraction=0.25, rng_seed=7,
    static_clusters_per_cell=6, scatter_range_m=30.0, scatter_falloff=2.0,
    phase_length_m=120.0,
)

# Workloads driven through experiments.run_trial, seed-major: every
# algorithm runs on trial seed t before any runs on t + 1. trace_groups is
# the number of trial seeds in the fixed unit used by traced runs and by
# the digest reference.
GROUP_WORKLOADS = {
    "table_mix": dict(
        config=TABLE,
        algorithms=("greedy", "robust_gis", "robust_aes", "two_stage_aes", "sus",
                    "random"),
        trace_groups=3,
    ),
    "desk_oracle": dict(
        config=DESK,
        algorithms=("brute_force", "greedy", "random", "sus", "two_stage_aes",
                    "two_stage_gis", "robust_aes", "robust_gis"),
        trace_groups=20,
    ),
    "dense_two_stage": dict(
        config=dict(TABLE, users_per_cell=200, kprime=40, placement="uniform"),
        algorithms=("two_stage_aes", "two_stage_gis", "robust_aes", "robust_gis"),
        trace_groups=3,
    ),
}

# map_sweep drives cli.main: build-ckm, inspect-ckm --config, then run.
# `run` numbers its trials from 0, so the workload seed offsets rng_seed.
SWEEP_SNR = (0, 10, 20, 30)
SWEEP_ALGORITHMS = ("two_stage_aes", "robust_aes", "robust_gis")
SWEEP_TRIALS = 20
WORKLOADS = (*GROUP_WORKLOADS, "map_sweep")


# Reference time. The vCPUs this benchmark was built on change speed by up
# to 1.6x for minutes at a time (other tenants of the host; no steal time
# shows), which moved raw wall-time medians by 30 % between runs of the same
# code. Every process therefore times a fixed probe loop, unrelated to
# ckmsched, from a SIGALRM handler every PROBE_EVERY_S, and rescales wall
# time by PROBE_REF_MS over the probe's current time. A reported second is a
# second at the speed at which the probe takes PROBE_REF_MS, the quiet-state
# speed of that 2-vCPU Xeon KVM guest; the probes' own time is left out.
# Raw wall times are kept in the run record.
PROBE_EVERY_S = 0.2
PROBE_REF_MS = 0.35
_PROBE_RNG = np.random.default_rng(1)
_PROBE_A = _PROBE_RNG.standard_normal((32, 32)) + 1j * _PROBE_RNG.standard_normal((32, 32))
_PROBE_B = _PROBE_A[:, :5].copy()


def _probe_ms() -> float:
    """Interpreter loop plus small complex solves, like a trial's mix."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2000):
        acc += i * i
    for _ in range(10):
        np.linalg.solve(_PROBE_A, _PROBE_B)
    return (time.perf_counter() - t0) * 1e3


class RefClock:
    """Maps wall-clock instants of this process to reference seconds.

    Probes run from a SIGALRM handler, so they also land inside long calls
    into the program; Python runs the handler between bytecodes. The alarm
    is re-armed after each probe, so probes never overlap.
    """

    def __init__(self):
        self.knots: list[tuple[float, float, float]] = []  # (start, end, speed)
        self.probe()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)

    def _on_alarm(self, signum, frame):
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)

    def probe(self):
        start = time.perf_counter()
        p = min(_probe_ms() for _ in range(3))
        self.knots.append((start, time.perf_counter(), PROBE_REF_MS / p))

    def durations(self, spans) -> list[float]:
        """Stops the probes; returns the reference seconds of each (start,
        end) wall interval. Between two probes the speed is their mean."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.probe()
        wall, ref = [], []
        for i, (start, end, speed) in enumerate(self.knots):
            if i:
                gap = start - self.knots[i - 1][1]
                ref.append(ref[-1] + gap * (speed + self.knots[i - 1][2]) / 2)
            else:
                ref.append(0.0)
            wall += [start, end]
            ref.append(ref[-1])
        starts, ends = zip(*spans)
        return (np.interp(ends, wall, ref) - np.interp(starts, wall, ref)).tolist()

    def summary(self) -> dict:
        speed = [k[2] for k in self.knots]
        return {"probes": len(speed), "speed_min": min(speed),
                "speed_median": float(np.median(speed)), "speed_max": max(speed)}


def base_config(workload: str, seed: int) -> geometry.ScenarioConfig:
    if workload == "map_sweep":
        return geometry.ScenarioConfig(**dict(TABLE, rng_seed=TABLE["rng_seed"] + seed))
    return geometry.ScenarioConfig(**GROUP_WORKLOADS[workload]["config"])


class Trials:
    """Outcome and wall interval of every attempted trial, in run order."""

    def __init__(self, clock: RefClock):
        self.clock = clock
        self.records: list[tuple] = []   # (config, algorithm, trial_seed, result)
        self.spans: list[tuple[float, float]] = []
        self.failures: list[dict] = []

    def attempt(self, config, algorithm, trial_seed, call):
        t0 = time.perf_counter()
        try:
            result = call(config, algorithm, trial_seed)
        except Exception as e:
            self.failures.append({
                "algorithm": algorithm, "seed": trial_seed,
                "snr_db": config.target_snr_db, "type": type(e).__name__,
                "traceback": traceback.format_exc(),
            })
            self.records.append((config, algorithm, trial_seed, None))
            raise
        finally:
            self.spans.append((t0, time.perf_counter()))
        self.records.append((config, algorithm, trial_seed, result))
        return result


def run_groups(workload: str, seed: int, trials: Trials, stop) -> tuple[float, float]:
    """Run trial seeds in order until stop(groups_done, elapsed_s); returns
    the wall interval."""
    spec = GROUP_WORKLOADS[workload]
    config = base_config(workload, seed)
    t0 = time.perf_counter()
    done = 0
    while not stop(done, time.perf_counter() - t0):
        trial_seed = seed * SEED_STRIDE + done
        for algorithm in spec["algorithms"]:
            with contextlib.suppress(Exception):  # recorded as a failure
                trials.attempt(config, algorithm, trial_seed, experiments.run_trial)
        done += 1
    return t0, time.perf_counter()


def write_plan(path: str, seed: int):
    lines = [f"{k} = {v}" for k, v in TABLE.items() if k != "rng_seed"]
    lines += [
        f"rng_seed = {TABLE['rng_seed'] + seed}",
        "sweep.snr = " + ", ".join(str(s) for s in SWEEP_SNR),
        "algorithms = " + ", ".join(SWEEP_ALGORITHMS),
        f"trials = {SWEEP_TRIALS}",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def run_sweep(seed: int, workdir: str, trials: Trials) -> dict:
    """build-ckm, inspect-ckm and run of the sweep plan, timed together."""
    plan, map_path, csv_path = (os.path.join(workdir, f"sweep-{os.getpid()}.{ext}")
                                for ext in ("plan", "ckm", "csv"))
    write_plan(plan, seed)
    inner = cli.run_trial
    cli.run_trial = lambda c, a, s: trials.attempt(c, a, s, inner)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            codes = [
                cli.main(["build-ckm", "--config", plan, "--out", map_path]),
                cli.main(["inspect-ckm", map_path, "--config", plan]),
                cli.main(["run", "--config", plan, "--out", csv_path, "--threads", "1"]),
            ]
            span = (t0, time.perf_counter())
    finally:
        cli.run_trial = inner
    csv_bytes = b""
    if os.path.exists(csv_path):
        with open(csv_path, "rb") as fh:
            csv_bytes = fh.read()
    map_bytes = os.path.getsize(map_path) if os.path.exists(map_path) else 0
    for path in (plan, map_path, csv_path):
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    return {"span": span, "codes": codes, "csv": csv_bytes, "map_file_bytes": map_bytes}


def _members(group) -> dict[int, list[int]]:
    return {int(c): [int(u) for u in group.members[c]] for c in sorted(group.members)}


def record_key(config, algorithm, trial_seed) -> str:
    return f"{algorithm}/{trial_seed}/{config.target_snr_db:g}"


def record_digest(config, algorithm, trial_seed, result) -> str:
    item = (algorithm, trial_seed, config.target_snr_db, repr(result.sum_rate),
            _members(result.group))
    return hashlib.sha256(repr(item).encode()).hexdigest()[:16]


def check(workload: str, trials: Trials, reference: bool) -> list[str]:
    """Correctness gate on every completed trial; returns the mismatches."""
    bad: list[str] = []
    scenarios: dict = {}
    cells: dict = {}
    for config, algorithm, trial_seed, result in trials.records:
        if result is None:
            continue
        key = record_key(config, algorithm, trial_seed)
        if not math.isfinite(result.sum_rate):
            bad.append(f"{key}: sum rate {result.sum_rate!r} is not finite")
        geo = replace(config, target_snr_db=0.0)
        if geo not in scenarios:
            scenarios[geo] = geometry.build_scenario(config)
        if (geo, trial_seed) not in cells:
            users = experiments.place_users(scenarios[geo], trial_seed)
            cells[(geo, trial_seed)] = {u.id: u.cell for u in users}
        cell_of = cells[(geo, trial_seed)]
        members = _members(result.group)
        flat = [u for ids in members.values() for u in ids]
        if sorted(members) != list(range(config.n_cells)):
            bad.append(f"{key}: group covers cells {sorted(members)}")
        if len(set(flat)) != len(flat):
            bad.append(f"{key}: a user is scheduled twice")
        for cell, ids in members.items():
            if len(ids) != config.kbar:
                bad.append(f"{key}: cell {cell} has {len(ids)} users, kbar={config.kbar}")
            if any(cell_of.get(u) != cell for u in ids):
                bad.append(f"{key}: cell {cell} serves a user of another cell")
    if workload == "desk_oracle":
        best: dict[int, float] = {}
        for _, algorithm, trial_seed, result in trials.records:
            if result is not None and algorithm == "brute_force":
                best[trial_seed] = result.sum_rate
        for _, algorithm, trial_seed, result in trials.records:
            if result is None or trial_seed not in best:
                continue
            if result.sum_rate > best[trial_seed]:
                bad.append(f"{algorithm}/{trial_seed}: rate {result.sum_rate!r} "
                           f"beats brute_force {best[trial_seed]!r}")
    if reference:
        with open(DIGESTS) as fh:
            expected = json.load(fh)[workload]
        for config, algorithm, trial_seed, result in trials.records:
            key = record_key(config, algorithm, trial_seed)
            if result is not None and key in expected:
                if record_digest(config, algorithm, trial_seed, result) != expected[key]:
                    bad.append(f"{key}: digest differs from the reference")
    return bad


def check_sweep(sweep: dict, reference: bool) -> tuple[list[str], int]:
    """Gate on the CLI return codes, the CSV row count and, at the default
    seed, the reference CSV bytes; also returns the count of nan rows."""
    bad = [f"cli command {i} returned {c}" for i, c in enumerate(sweep["codes"]) if c]
    rows = sweep["csv"].decode().splitlines()[1:]
    expected = len(SWEEP_SNR) * len(SWEEP_ALGORITHMS) * SWEEP_TRIALS
    if len(rows) != expected:
        bad.append(f"CSV has {len(rows)} rows, expected {expected}")
    nan_rows = sum(1 for r in rows if r.split(",")[9] == "nan")
    if reference:
        with open(SWEEP_CSV, "rb") as fh:
            if fh.read() != sweep["csv"]:
                bad.append("CSV differs from the reference bytes")
    return bad, nan_rows


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError) as e:  # show_config differs across numpy versions
        vendor = f"unknown ({type(e).__name__})"
    return {
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": vendor,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def cmd_setup(args) -> dict:
    config = base_config(args.workload, args.seed)
    clock = RefClock()
    t0 = time.perf_counter()
    scenario = geometry.build_scenario(config)
    built = ckm.build_ckm(scenario)
    evaluation.calibrate_noise(scenario, config.target_snr_db)
    span = (t0, time.perf_counter())
    out = {"setup_s": clock.durations([span])[0], "setup_s_raw": span[1] - span[0],
           "clock": clock.summary()}
    if args.map_out:
        built.save(args.map_out)
        out["map_file_bytes"] = os.path.getsize(args.map_out)
        os.remove(args.map_out)
    return out


def _outcome(args, trials: Trials, span, sweep: dict | None) -> dict:
    """Reference and raw wall time, per-trial reference times, attempt and
    failure counts, and the correctness gate's verdict."""
    ref = trials.clock.durations([span, *trials.spans])
    reference = args.seed == DEFAULT_SEED and not args.write_reference
    bad = check(args.workload, trials, reference)
    failed = len(trials.failures)
    if sweep is not None:
        sweep_bad, nan_rows = check_sweep(sweep, reference)
        bad += sweep_bad
        failed = max(failed, nan_rows)
    return {
        "wall_s": ref[0],
        "wall_s_raw": span[1] - span[0],
        "attempted": len(trials.records),
        "failed": failed,
        "trial_ms": [x * 1e3 for x in ref[1:]],
        "clock": trials.clock.summary(),
        "mismatches": bad,
        "failures": trials.failures,
    }


def _run(args, trials: Trials, stop) -> tuple:
    """Runs the workload on trials; returns (wall interval, sweep or None)."""
    if args.workload == "map_sweep":
        sweep = run_sweep(args.seed, args.workdir, trials)
        return sweep["span"], sweep
    return run_groups(args.workload, args.seed, trials, stop), None


def cmd_measure(args) -> dict:
    trials = Trials(RefClock())
    if args.workload != "map_sweep":
        # Warm-up: fill the scenario, map and noise caches and run every
        # algorithm once, untimed and unchecked.
        run_groups(args.workload, args.seed, Trials(trials.clock), lambda done, _: done >= 1)
    span, sweep = _run(args, trials, lambda done, elapsed: elapsed >= args.seconds)
    rss = peak_rss_mb()
    out = _outcome(args, trials, span, sweep)
    out["peak_rss_mb"] = rss
    if sweep is not None:
        out["map_file_bytes"] = sweep["map_file_bytes"]
    out["env"] = environment()
    return out


def cmd_unit(args) -> dict:
    """The fixed unit of work, cold, with or without the tracer."""
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    trials = Trials(RefClock())
    groups = GROUP_WORKLOADS.get(args.workload, {}).get("trace_groups")
    span, sweep = _run(args, trials, lambda done, _: done >= groups)
    # Read the layers and spans before the gate, whose calls would be traced too.
    layers = None
    if tracer is not None:
        layers = tracer.layer_metrics()
        if args.spans:
            tracer.write(args.spans)
    out = _outcome(args, trials, span, sweep)
    del out["trial_ms"]
    if layers is not None:
        out["layers"] = layers
    if args.write_reference:
        write_reference(args.workload, trials, sweep)
    return out


def write_reference(workload: str, trials: Trials, sweep: dict | None):
    digests = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as fh:
            digests = json.load(fh)
    digests[workload] = {
        record_key(c, a, s): record_digest(c, a, s, r)
        for c, a, s, r in trials.records if r is not None
    }
    with open(DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if sweep is not None:
        with open(SWEEP_CSV, "wb") as fh:
            fh.write(sweep["csv"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "unit"))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", default=None)
    parser.add_argument("--map-out", default=None)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.abspath(ckmsched.__file__).startswith(SRC + os.sep):
        print(f"ckmsched was imported from {ckmsched.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    if args.write_reference and args.seed != DEFAULT_SEED:
        parser.error(f"references are written for --seed {DEFAULT_SEED} only")
    run = {"setup": cmd_setup, "measure": cmd_measure, "unit": cmd_unit}[args.mode]
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
