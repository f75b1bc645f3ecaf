"""Command-line front end: run experiment sweeps, build and inspect maps.

Config files are flat key=value text; keys match ScenarioConfig field
names plus the plan keys algorithms, trials, output, and up to two
sweep.<dim> lists.
"""

from __future__ import annotations

import argparse
import csv
import sys
import traceback
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from itertools import product

import numpy as np

from .ckm import UsCkm
from .errors import ConfigError
from .evaluation import BRUTE_FORCE_BUDGET, combination_count
from .experiments import ALGORITHMS, cached_ckm, cached_scenario, run_trial
from .geometry import CONFIG_HINTS as _HINTS
from .geometry import INT_FIELDS as _INT_FIELDS
from .geometry import ScenarioConfig

SWEEP_DIMS = {
    "snr": "target_snr_db",
    "alpha": "alpha",
    "kprime": "kprime",
    "kbar": "kbar",
    "eta": "eta",
    "grid_edge": "grid_edge_m",
    "samples": "samples_per_grid",
}

_STR_FIELDS = {name for name, kind in _HINTS.items() if kind is str}
_OPTIONAL_FIELDS = {
    name for name, kind in _HINTS.items() if type(None) in typing.get_args(kind)
}

CSV_HEADER = [
    "algorithm", "snr_db", "kbar", "kprime", "alpha", "eta", "grid_edge",
    "samples", "seed", "sum_rate", "csi_acq", "info_exch", "mults", "wall_ms",
]

DEFAULT_ALGORITHMS = tuple(a for a in ALGORITHMS if a != "brute_force")


@dataclass
class ExperimentPlan:
    base_config: ScenarioConfig
    algorithms: tuple[str, ...] = DEFAULT_ALGORITHMS
    trials: int = 10
    output: str | None = None
    sweeps: tuple[tuple[str, tuple[float, ...]], ...] = ()

    def sweep_points(self) -> list[dict[str, float]]:
        if not self.sweeps:
            return [{}]
        dims = [d for d, _ in self.sweeps]
        return [dict(zip(dims, combo)) for combo in product(*(v for _, v in self.sweeps))]

    def config_at(self, point: dict[str, float]) -> ScenarioConfig:
        kw = {}
        for dim, value in point.items():
            name = SWEEP_DIMS[dim]
            if name in _INT_FIELDS and not float(value).is_integer():
                raise ConfigError(f"sweep {dim!r} needs integers, got {value!r}")
            kw[name] = int(value) if name in _INT_FIELDS else float(value)
        if "eta" in kw and self.base_config.delta is not None:
            kw["delta"] = None
        return replace(self.base_config, **kw) if kw else self.base_config

    def validate(self, source: str) -> None:
        """Reject unknown algorithms, an invalid config at any sweep point
        and a brute-force enumeration beyond BRUTE_FORCE_BUDGET; source
        prefixes the error messages."""
        bad = [a for a in self.algorithms if a not in ALGORITHMS]
        if bad:
            raise ConfigError(f"{source}: unknown algorithms {bad}")
        for point in self.sweep_points():
            cfg = self.config_at(point)  # re-validates every swept config
            if "brute_force" in self.algorithms:
                combos = combination_count([cfg.users_per_cell] * cfg.n_cells, cfg.kbar)
                if combos > BRUTE_FORCE_BUDGET:
                    raise ConfigError(
                        f"{source}: brute_force would enumerate {combos} combinations "
                        f"(budget {BRUTE_FORCE_BUDGET}); shrink the scenario"
                    )


def _coerce(key: str, raw: str, line_no: int, path: str):
    low = raw.strip()
    if key in _OPTIONAL_FIELDS and low.lower() in ("none", ""):
        return None
    integral = key in _INT_FIELDS or key == "trials"
    try:
        if integral:
            return int(low)
        if key in _STR_FIELDS:
            return low
        return float(low)
    except ValueError:
        kind = "an integer" if integral else "a number"
        raise ConfigError(f"{path}:{line_no}: key {key!r} needs {kind}, got {raw!r}")


def parse_config(path: str) -> ExperimentPlan:
    """Parse a flat key=value experiment file into a validated plan."""
    field_names = {f.name for f in fields(ScenarioConfig)}
    scenario_kw: dict = {}
    algorithms = DEFAULT_ALGORITHMS
    trials = 10
    output = None
    sweeps: list[tuple[str, tuple[float, ...]]] = []
    try:
        lines = open(path).read().splitlines()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    for ln, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{ln}: expected key = value, got {line!r}")
        key, raw = (part.strip() for part in text.split("=", 1))
        if key == "algorithms":
            algorithms = tuple(a.strip() for a in raw.split(",") if a.strip())
        elif key == "trials":
            trials = _coerce("trials", raw, ln, path)
            if trials < 1:
                raise ConfigError(f"{path}:{ln}: trials must be >= 1")
        elif key == "output":
            output = raw
        elif key.startswith("sweep."):
            dim = key[len("sweep."):]
            if dim not in SWEEP_DIMS:
                raise ConfigError(
                    f"{path}:{ln}: unknown sweep dimension {dim!r}; "
                    f"choose from {sorted(SWEEP_DIMS)}"
                )
            try:
                values = tuple(float(v) for v in raw.split(",") if v.strip())
            except ValueError:
                raise ConfigError(f"{path}:{ln}: sweep {dim!r} needs numeric values")
            if not values:
                raise ConfigError(f"{path}:{ln}: sweep {dim!r} is empty")
            sweeps.append((dim, values))
        elif key in field_names:
            scenario_kw[key] = _coerce(key, raw, ln, path)
        else:
            raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
    if len(sweeps) > 2:
        raise ConfigError(f"{path}: at most 2 sweep dimensions, got {len(sweeps)}")
    try:
        base = ScenarioConfig(**scenario_kw)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}")
    plan = ExperimentPlan(
        base_config=base,
        algorithms=algorithms,
        trials=trials,
        output=output,
        sweeps=tuple(sweeps),
    )
    plan.validate(path)
    return plan


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.10g}"


def _job(args):
    """One trial as a CSV-ready tuple; the last field is None, or for a
    failed trial its one-line message and formatted traceback."""
    config, algorithm, trial_seed = args
    try:
        r = run_trial(config, algorithm, trial_seed)
        return (r.sum_rate, r.csi_acquisitions, r.info_exchange,
                r.multiplication_estimate, r.wall_ms, None)
    except Exception as e:  # report and keep the sweep going
        return (float("nan"), 0, 0, 0, 0.0,
                (f"{type(e).__name__}: {e}", traceback.format_exc()))


def cmd_run(plan: ExperimentPlan, out_path: str, threads: int = 1,
            timing: bool = False, stream=None) -> int:
    """Execute the plan, appending one CSV row per (point, algorithm, trial).

    Returns nonzero iff any trial errored; rows for failed trials carry
    nan sum_rate so the row count stays |algorithms| x |grid| x trials.
    """
    stream = stream or sys.stdout
    jobs = []
    for point in plan.sweep_points():
        cfg = plan.config_at(point)
        for algorithm in plan.algorithms:
            for t in range(plan.trials):
                jobs.append((cfg, algorithm, t))
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_job, jobs, chunksize=max(1, plan.trials)))
    else:
        results = [_job(j) for j in jobs]

    errors = 0
    sums: dict[str, list[float]] = {}
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for (cfg, algorithm, t), res in zip(jobs, results):
            rate, csi, info, mults, wall, err = res
            if err is not None:
                errors += 1
                message, trace = err
                print(f"error: {algorithm} seed={t}: {message}", file=stream)
                print(trace, end="", file=stream)
            else:
                sums.setdefault(algorithm, []).append(rate)
            writer.writerow(
                [
                    algorithm,
                    _fmt(cfg.target_snr_db), _fmt(cfg.kbar), _fmt(cfg.kprime),
                    _fmt(cfg.alpha), _fmt(cfg.eta), _fmt(cfg.grid_edge_m),
                    _fmt(cfg.samples_per_grid), _fmt(t),
                    _fmt(rate), _fmt(csi), _fmt(info), _fmt(mults),
                    _fmt(wall if timing else 0.0),
                ]
            )
            fh.flush()
    print(f"wrote {len(jobs)} rows to {out_path}", file=stream)
    print(f"{'algorithm':>14s} {'mean_rate':>12s} {'trials':>7s}", file=stream)
    for algorithm in plan.algorithms:
        vals = sums.get(algorithm, [])
        mean = float(np.mean(vals)) if vals else float("nan")
        print(f"{algorithm:>14s} {mean:12.4f} {len(vals):7d}", file=stream)
    if errors:
        print(f"{errors} trial(s) errored", file=stream)
    return 1 if errors else 0


def cmd_build_ckm(config_path: str, out_path: str, export_csv: bool = False,
                  stream=None) -> int:
    """Build the map for the config's scenario and serialize it."""
    import os

    stream = stream or sys.stdout
    plan = parse_config(config_path)
    ckm = cached_ckm(plan.base_config)
    ckm.save(out_path)
    print(f"wrote {out_path}: {ckm.n_cells} BSs x {ckm.n_grids} grids, "
          f"realized eta {ckm.realized_eta():.4f}", file=stream)
    if export_csv:
        directory = os.path.dirname(os.path.abspath(out_path))
        ckm.export_csv(directory)
        ckm.scenario.export_csv(os.path.join(directory, "scenario.csv"))
        print(f"exported gain/correlation/scenario CSVs to {directory}", file=stream)
    return 0


def cmd_inspect_ckm(map_path: str, config_path: str | None = None,
                    stream=None) -> int:
    """Print grid counts, realized reliability, and table percentiles."""
    stream = stream or sys.stdout
    scenario = None
    if config_path is not None:
        scenario = cached_scenario(parse_config(config_path).base_config)
    ckm = UsCkm.load(map_path, scenario=scenario)
    sig = ckm.sigma.ravel()
    eps = ckm.epsilon.ravel()
    print(f"map {map_path}", file=stream)
    print(f"  observing BSs      {ckm.n_cells}", file=stream)
    print(f"  grids              {ckm.n_grids}", file=stream)
    print(f"  samples per grid   {ckm.samples_per_grid}", file=stream)
    print(f"  delta              {ckm.delta:.6e}", file=stream)
    print(f"  realized eta       {ckm.realized_eta():.4f}", file=stream)
    for name, v in (("sigma", sig), ("epsilon", eps)):
        q = np.percentile(v, [0, 25, 50, 75, 100])
        print(
            f"  {name:8s} min {q[0]:.3e}  p25 {q[1]:.3e}  median {q[2]:.3e}  "
            f"p75 {q[3]:.3e}  max {q[4]:.3e}",
            file=stream,
        )
    for l in range(ckm.n_cells):
        frac = float(np.mean(ckm.reliable[l]))
        print(f"  reliable fraction at BS {l}: {frac:.4f}", file=stream)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ckmsched",
        description="Multi-cell uplink scheduling on a grid channel knowledge map",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment plan")
    p_run.add_argument("--config", required=True, help="flat key=value plan file")
    p_run.add_argument("--out", default=None, help="results CSV path")
    p_run.add_argument("--seed", type=int, default=None, help="override rng_seed")
    p_run.add_argument("--threads", type=int, default=1, help="worker processes")
    p_run.add_argument("--algorithms", default=None,
                       help="comma list overriding the plan's algorithms")
    p_run.add_argument("--timing", action="store_true",
                       help="record measured wall_ms (output no longer byte-stable)")

    p_build = sub.add_parser("build-ckm", help="build and serialize a map")
    p_build.add_argument("--config", required=True)
    p_build.add_argument("--out", default="ckm.bin")
    p_build.add_argument("--csv", action="store_true", help="also export CSV tables")

    p_ins = sub.add_parser("inspect-ckm", help="summarize a serialized map")
    p_ins.add_argument("map", help="map file written by build-ckm")
    p_ins.add_argument("--config", default=None,
                       help="verify the map matches this config's scenario")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            plan = parse_config(args.config)
            if args.seed is not None:
                plan.base_config = replace(plan.base_config, rng_seed=args.seed)
            if args.algorithms:
                plan.algorithms = tuple(a.strip() for a in args.algorithms.split(","))
            plan.validate(args.config)
            out = args.out or plan.output or "results.csv"
            return cmd_run(plan, out, threads=args.threads, timing=args.timing)
        if args.command == "build-ckm":
            return cmd_build_ckm(args.config, args.out, export_csv=args.csv)
        return cmd_inspect_ckm(args.map, config_path=args.config)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
