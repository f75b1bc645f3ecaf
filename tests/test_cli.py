"""Config parsing, experiment runner, map build/inspect commands."""

import gc
import io
import multiprocessing
import os
import types
import warnings

import pytest

from ckmsched import UsCkm, build_ckm, build_scenario, cli, experiments, geometry
from ckmsched.cli import (
    _INT_FIELDS,
    _OPTIONAL_FIELDS,
    _STR_FIELDS,
    CSV_HEADER,
    DEFAULT_ALGORITHMS,
    SWEEP_DIMS,
    ExperimentPlan,
    cmd_run,
    main,
    parse_config,
)
from ckmsched.errors import ConfigError
from ckmsched.geometry import ScenarioConfig

from conftest import clear_caches, desk_config, save_map_of_shape, save_with_header

DESK_CFG = """\
n_cells = 2
users_per_cell = 5
kbar = 2
kprime = 4
n_h = 2
n_v = 2
cell_radius_m = 60
grid_edge_m = 15
samples_per_grid = 5
alpha = 0.5
eta = 0.7
target_snr_db = 20
dynamic_grid_fraction = 0.25
rng_seed = 7
static_clusters_per_cell = 6
scatter_range_m = 30
scatter_falloff = 2
phase_length_m = 120
"""


def write_cfg(tmp_path, text, name="plan.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# -- config parsing ------------------------------------------------------


def test_empty_config_yields_stock_defaults(tmp_path):
    plan = parse_config(write_cfg(tmp_path, "# nothing but a comment\n\n"))
    cfg = plan.base_config
    assert cfg == ScenarioConfig()
    assert cfg.n_cells == 3
    assert cfg.users_per_cell == 50
    assert cfg.n_antennas == 32
    assert cfg.kprime == 20
    assert cfg.bs_height_m == 25.0
    assert cfg.user_height_m == 1.5
    assert plan.algorithms == DEFAULT_ALGORITHMS
    assert plan.trials == 10
    assert plan.sweeps == ()


def test_full_config_round_trip(tmp_path):
    text = DESK_CFG + (
        "algorithms = greedy, random\n"
        "trials = 4\n"
        "output = out.csv\n"
        "sweep.snr = 0, 10, 20\n"
        "sweep.alpha = 0.3, 0.5\n"
    )
    plan = parse_config(write_cfg(tmp_path, text))
    assert plan.base_config.n_cells == 2
    assert plan.base_config.eta == 0.7
    assert plan.algorithms == ("greedy", "random")
    assert plan.trials == 4
    assert plan.output == "out.csv"
    assert plan.sweeps == (("snr", (0.0, 10.0, 20.0)), ("alpha", (0.3, 0.5)))
    assert len(plan.sweep_points()) == 6


def test_parse_config_closes_the_plan_file(tmp_path):
    path = write_cfg(tmp_path, DESK_CFG)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        parse_config(path)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_config_infeasible_group_size_is_rejected(tmp_path):
    path = write_cfg(tmp_path, "kbar = 40\nkprime = 40\n")
    with pytest.raises(ConfigError, match="antennas"):
        parse_config(path)


def test_three_sweep_dimensions_are_rejected(tmp_path):
    text = DESK_CFG + "sweep.snr = 0\nsweep.alpha = 0.5\nsweep.kbar = 2\n"
    with pytest.raises(ConfigError, match="at most 2 sweep dimensions"):
        parse_config(write_cfg(tmp_path, text))


def test_parse_errors_carry_path_and_line(tmp_path):
    path = write_cfg(tmp_path, "n_cells = 2\n\nbogus = 1\n")
    with pytest.raises(ConfigError, match=r"plan\.cfg:3: unknown key 'bogus'"):
        parse_config(path)
    path = write_cfg(tmp_path, "n_cells = two\n")
    with pytest.raises(ConfigError, match=r"plan\.cfg:1: key 'n_cells' needs an integer"):
        parse_config(path)
    path = write_cfg(tmp_path, "just some words\n")
    with pytest.raises(ConfigError, match="expected key = value"):
        parse_config(path)


def test_parse_rejects_bad_plan_values(tmp_path):
    with pytest.raises(ConfigError, match="unknown algorithms"):
        parse_config(write_cfg(tmp_path, "algorithms = greedy, oracle\n"))
    with pytest.raises(ConfigError, match="trials must be >= 1"):
        parse_config(write_cfg(tmp_path, "trials = 0\n"))
    with pytest.raises(ConfigError, match="unknown sweep dimension"):
        parse_config(write_cfg(tmp_path, "sweep.power = 1, 2\n"))
    with pytest.raises(ConfigError, match="needs numeric values"):
        parse_config(write_cfg(tmp_path, "sweep.snr = high, low\n"))
    with pytest.raises(ConfigError, match="is empty"):
        parse_config(write_cfg(tmp_path, "sweep.snr = ,\n"))
    with pytest.raises(ConfigError, match="cannot read config"):
        parse_config(str(tmp_path / "missing.cfg"))


@pytest.mark.parametrize("key, first, second", [
    ("kbar", "2", "1"), ("trials", "2", "3"), ("algorithms", "random", "sus"),
    ("sweep.snr", "0, 10", "20, 30"),
])
def test_parse_rejects_repeated_keys(tmp_path, capsys, key, first, second):
    text = f"{key} = {first}\n# a comment line\n{key} = {second}\n"
    path = write_cfg(tmp_path, text)
    with pytest.raises(ConfigError, match=rf"plan\.cfg:3: key '{key}' repeats line 1"):
        parse_config(path)
    out = tmp_path / "x.csv"
    assert main(["run", "--config", path, "--out", str(out)]) == 2
    assert "repeats line 1" in capsys.readouterr().err
    assert not out.exists()


def test_brute_force_guard_blocks_large_scenarios(tmp_path):
    path = write_cfg(tmp_path, "algorithms = brute_force\n")
    with pytest.raises(ConfigError, match="shrink the scenario"):
        parse_config(path)


def test_optional_fields_accept_none(tmp_path):
    plan = parse_config(write_cfg(tmp_path, DESK_CFG + "delta = none\n"))
    assert plan.base_config.delta is None
    assert plan.base_config.eta == 0.7


def test_eta_sweep_clears_a_configured_delta(tmp_path):
    text = DESK_CFG.replace("eta = 0.7\n", "delta = 0.001\n") + "sweep.eta = 0.2, 0.9\n"
    plan = parse_config(write_cfg(tmp_path, text))
    cfg = plan.config_at({"eta": 0.9})
    assert cfg.delta is None
    assert cfg.eta == 0.9


def test_integer_sweeps_coerce_to_int(tmp_path):
    plan = parse_config(write_cfg(tmp_path, DESK_CFG + "sweep.kbar = 1, 2\n"))
    cfg = plan.config_at({"kbar": 2.0})
    assert cfg.kbar == 2
    assert isinstance(cfg.kbar, int)


def test_parse_rejects_non_integral_counts(tmp_path):
    with pytest.raises(ConfigError, match=r"plan\.cfg:\d+: key 'trials' needs an integer"):
        parse_config(write_cfg(tmp_path, DESK_CFG + "trials = 2.5\n"))
    with pytest.raises(ConfigError, match="key 'kbar' needs an integer"):
        parse_config(write_cfg(tmp_path, DESK_CFG.replace("kbar = 2\n", "kbar = 1.5\n")))
    for dim in ("kprime", "kbar", "samples"):
        text = DESK_CFG + f"sweep.{dim} = 3.9, 4\n"
        with pytest.raises(ConfigError, match=f"sweep '{dim}' needs integers, got 3.9"):
            parse_config(write_cfg(tmp_path, text))
    plan = ExperimentPlan(base_config=desk_config(), sweeps=(("kprime", (4.5,)),))
    with pytest.raises(ConfigError, match="needs integers, got 4.5"):
        plan.config_at({"kprime": 4.5})


def test_field_kinds_follow_the_config_annotations():
    assert _INT_FIELDS == {
        "n_cells", "users_per_cell", "kbar", "kprime", "n_h", "n_v",
        "samples_per_grid", "rng_seed", "static_clusters_per_cell",
        "dynamic_clusters_per_grid", "hotspots_per_cell",
    }
    assert _STR_FIELDS == {"placement"}
    assert _OPTIONAL_FIELDS == {"delta", "eta", "inter_site_distance_m"}
    assert {SWEEP_DIMS[d] for d in ("kprime", "kbar", "samples")} <= _INT_FIELDS


# -- run command -----------------------------------------------------------


def run_plan(tmp_path, text, out_name="rows.csv", **kw):
    plan = parse_config(write_cfg(tmp_path, text))
    out = tmp_path / out_name
    stream = io.StringIO()
    code = cmd_run(plan, str(out), stream=stream, **kw)
    return code, out, stream.getvalue()


def test_run_writes_one_row_per_trial(tmp_path):
    code, out, log = run_plan(
        tmp_path, DESK_CFG + "algorithms = random\ntrials = 3\n"
    )
    lines = out.read_text().splitlines()
    assert code == 0
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 1 + 3
    assert "wrote 3 rows" in log
    assert all(row.startswith("random,") for row in lines[1:])


def test_run_row_count_covers_the_full_sweep_grid(tmp_path):
    text = DESK_CFG + (
        "algorithms = random, sus\ntrials = 2\n"
        "sweep.snr = 0, 20\nsweep.kbar = 1, 2\n"
    )
    code, out, _ = run_plan(tmp_path, text)
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2 * 2 * 2


def test_rerun_is_byte_identical_without_timing(tmp_path):
    text = DESK_CFG + "algorithms = random, two_stage_aes\ntrials = 2\n"
    _, out1, _ = run_plan(tmp_path, text, out_name="a.csv")
    _, out2, _ = run_plan(tmp_path, text, out_name="b.csv")
    assert out1.read_bytes() == out2.read_bytes()
    wall = [row.rsplit(",", 1)[1] for row in out1.read_text().splitlines()[1:]]
    assert set(wall) == {"0"}


def test_run_is_seed_major_and_writes_rows_in_plan_order(tmp_path, monkeypatch, empty_memo):
    # The points of one scenario key run seed -> algorithm -> point, so the
    # points of an SNR sweep share a seed's users, which both maps' fusions
    # share too, its fusion on each map, and each scheduler's decision on
    # it; robust_gis reuses robust_aes's fusion on config's map. The rows
    # still come out point by point, algorithm-major.
    calls, decisions, trials, placed = [], [], [], []
    fuse, two_stage, run, place = (experiments.fuse_effective_csi,
                                   experiments.robust_two_stage, cli.run_trial,
                                   experiments.place_users)

    def counted_fusion(ckm, chans):
        calls.append(ckm.realized_eta())
        return fuse(ckm, chans)

    def counted_decision(csi, *args, first_stage):
        decisions.append(first_stage)
        return two_stage(csi, *args, first_stage=first_stage)

    def logged_trial(config, algorithm, trial_seed):
        trials.append((config.target_snr_db, algorithm, trial_seed))
        return run(config, algorithm, trial_seed)

    def counted_placement(scenario, trial_seed):
        placed.append(trial_seed)
        return place(scenario, trial_seed)

    monkeypatch.setattr(experiments, "fuse_effective_csi", counted_fusion)
    monkeypatch.setattr(experiments, "robust_two_stage", counted_decision)
    monkeypatch.setattr(experiments, "place_users", counted_placement)
    monkeypatch.setattr(cli, "run_trial", logged_trial)
    algorithms = ("two_stage_aes", "robust_aes", "robust_gis")
    text = DESK_CFG + f"algorithms = {', '.join(algorithms)}\ntrials = 3\nsweep.snr = 10, 20\n"
    code, out, _ = run_plan(tmp_path, text)
    assert code == 0
    assert trials == [(snr, a, t) for t in range(3) for a in algorithms for snr in (10, 20)]
    assert calls == [1.0, 0.7] * 3
    assert placed == [0, 1, 2]
    assert decisions == ["aes", "aes", "gis"] * 3
    rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
    assert [(float(r[1]), r[0], int(r[8])) for r in rows] == [
        (snr, a, t) for snr in (10, 20) for a in algorithms for t in range(3)]


def test_a_seed_runs_its_two_stage_schedulers_map_by_map(tmp_path, monkeypatch, empty_memo):
    # A plan that alternates the all-reliable map and config's own still
    # fuses once per (seed, map): a seed runs the schedulers of one map
    # together, in plan order, maps in order of first use, and every other
    # scheduler where it stands. The rows come out in plan order, each
    # algorithm's equal to those of the plan written map by map.
    maps, trials = [], []
    fuse, run = experiments.fuse_effective_csi, cli.run_trial

    def counted(ckm, chans):
        maps.append(ckm.realized_eta())
        return fuse(ckm, chans)

    def logged_trial(config, algorithm, trial_seed):
        trials.append((algorithm, trial_seed))
        return run(config, algorithm, trial_seed)

    monkeypatch.setattr(experiments, "fuse_effective_csi", counted)
    monkeypatch.setattr(cli, "run_trial", logged_trial)
    interleaved = ("two_stage_aes", "robust_aes", "random", "two_stage_gis", "robust_gis")
    ran = ("two_stage_aes", "two_stage_gis", "robust_aes", "robust_gis", "random")
    code, out, _ = run_plan(
        tmp_path, DESK_CFG + f"algorithms = {', '.join(interleaved)}\ntrials = 5\n")
    assert code == 0
    assert maps == [1.0, 0.7] * 5
    assert trials == [(a, t) for t in range(5) for a in ran]
    rows = out.read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [a for a in interleaved for _ in range(5)]
    empty_memo()
    code, grouped, _ = run_plan(
        tmp_path, DESK_CFG + f"algorithms = {', '.join(ran)}\ntrials = 5\n",
        out_name="grouped.csv")
    assert code == 0
    for algorithm in interleaved:
        mine = [row for row in rows if row.startswith(f"{algorithm},")]
        assert mine == [row for row in grouped.read_text().splitlines()
                        if row.startswith(f"{algorithm},")]


def plan_at(point) -> str:
    """DESK_CFG with the fields of a sweep point set to its values."""
    fields = {SWEEP_DIMS[dim]: value for dim, value in point.items()}
    lines = [line for line in DESK_CFG.splitlines() if line.split(" = ")[0] not in fields]
    return "\n".join(lines + [f"{name} = {value:g}" for name, value in fields.items()]) + "\n"


@pytest.mark.parametrize("sweep, fusions", [
    # One threshold: one fusion per (seed, map) for all four points.
    ("sweep.kbar = 1, 2\nsweep.alpha = 0.3, 0.9\n", 2 * 2),
    # Each eta is its own threshold, but at eta = 1 config's map is the
    # all-reliable one: one fusion per (seed, map), three maps.
    ("sweep.eta = 0, 0.5, 1\n", 2 * 3),
    # Two scenario keys of two maps each: one per (key, seed, map).
    ("sweep.grid_edge = 12, 15\nsweep.eta = 0.5, 1\n", 2 * 2 * 2),
    # SNR reads neither the placement nor the map: every point shares one
    # fusion per (seed, map), and each decision and its scored group's
    # noise-independent state are scored again at the other noise.
    ("sweep.snr = 10, 20\n", 2 * 2),
    ("sweep.snr = 10, 20\nsweep.kbar = 1, 2\n", 2 * 2),
], ids=["kbar-alpha", "eta", "grid_edge-eta", "snr", "snr-kbar"])
def test_each_sweep_point_writes_the_rows_of_its_own_plan(tmp_path, monkeypatch, empty_memo,
                                                          sweep, fusions):
    # The points of the sweep share trials, fusions and decisions where they
    # can; each point's rows must still be those of a plan of that point
    # alone, run on an empty memo.
    calls = []
    fuse = experiments.fuse_effective_csi

    def counted(ckm, chans):
        calls.append(ckm.realized_eta())
        return fuse(ckm, chans)

    monkeypatch.setattr(experiments, "fuse_effective_csi", counted)
    head = f"algorithms = {', '.join(experiments.MAP_ALGORITHMS)}\ntrials = 2\n"
    code, out, _ = run_plan(tmp_path, DESK_CFG + head + sweep, out_name="sweep.csv")
    assert code == 0
    assert len(calls) == fusions
    rows = out.read_text().splitlines()[1:]
    points = parse_config(write_cfg(tmp_path, DESK_CFG + sweep)).sweep_points()
    width = len(experiments.MAP_ALGORITHMS) * 2
    for i, point in enumerate(points):
        empty_memo()
        code, alone, _ = run_plan(tmp_path, plan_at(point) + head, out_name="alone.csv")
        assert code == 0
        assert rows[i * width:(i + 1) * width] == alone.read_text().splitlines()[1:], point


@pytest.mark.parametrize("sweep, keys", [
    ("", 1),
    ("sweep.snr = 10, 20\n", 1),
    ("sweep.eta = 0.5, 1\n", 1),
    ("sweep.grid_edge = 15, 20\n", 2),
    ("sweep.grid_edge = 15, 20\nsweep.eta = 0.5, 1\n", 2),
], ids=["one-point", "snr", "eta", "grid_edge", "grid_edge-eta"])
def test_chunks_run_every_job_once(tmp_path, sweep, keys):
    # Over one or two scenario keys, one or two thresholds, and map and
    # non-map algorithms interleaved: every row of the plan is one job of
    # one chunk, each chunk is one (scenario key, seed), and a chunk's jobs
    # on one map, or of one non-map algorithm, run back to back.
    algorithms = "two_stage_aes, sus, robust_aes, random, robust_gis, greedy, two_stage_gis"
    plan = parse_config(write_cfg(tmp_path, DESK_CFG + f"algorithms = {algorithms}\n"
                                  f"trials = 3\n{sweep}"))
    configs = [plan.config_at(point) for point in plan.sweep_points()]
    A, T = len(plan.algorithms), plan.trials
    chunks = list(cli._chunks(plan, configs))
    assert len(chunks) == keys * T
    rows = []
    for chunk in chunks:
        assert len({(geometry.scenario_key(cfg), t) for _, (cfg, _, t) in chunk}) == 1
        for row, job in chunk:
            i, a, t = row // (A * T), row // T % A, row % T
            assert job == (configs[i], plan.algorithms[a], t)
            rows.append(row)
        runs = [experiments.fusion_key(cfg, alg) or alg for _, (cfg, alg, _) in chunk]
        starts = [run for at, run in enumerate(runs) if at == 0 or runs[at - 1] != run]
        assert len(starts) == len(set(runs))
    assert sorted(rows) == list(range(len(configs) * A * T))


@pytest.mark.parametrize("sweep, threads, workers", [
    ("", 64, 2),
    ("sweep.grid_edge = 15, 20\n", 3, 3),
    ("sweep.grid_edge = 15, 20\n", 64, 4),
], ids=["one-key", "two-keys-3", "two-keys-64"])
def test_the_worker_pool_has_no_more_workers_than_chunks(tmp_path, monkeypatch, sweep,
                                                         threads, workers):
    # A pool forks all its workers at once, so it is sized to the plan's
    # (scenario key, seed) chunks. A stand-in pool records its size and
    # runs the chunks here, so no process starts.
    import concurrent.futures

    sizes = []

    class SerialPool:
        def __init__(self, max_workers, mp_context):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, items):
            return map(fn, items)

    text = DESK_CFG + f"algorithms = random, robust_aes\ntrials = 2\n{sweep}"
    _, serial, _ = run_plan(tmp_path, text, out_name="serial.csv")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    code, pooled, _ = run_plan(tmp_path, text, out_name="pooled.csv", threads=threads)
    assert code == 0
    assert sizes == [workers]
    assert pooled.read_bytes() == serial.read_bytes()
    assert multiprocessing.active_children() == []


def test_timing_mode_records_nonzero_wall_times(tmp_path):
    text = DESK_CFG + "algorithms = sus\ntrials = 1\n"
    _, out, _ = run_plan(tmp_path, text, timing=True)
    wall = out.read_text().splitlines()[1].rsplit(",", 1)[1]
    assert wall not in ("", "0")


def test_failed_trials_keep_rows_and_set_exit_code(tmp_path):
    # 15 m grids cannot host 50 users per cell: every trial errors out.
    text = DESK_CFG.replace("users_per_cell = 5\n", "users_per_cell = 50\n").replace(
        "kprime = 4\n", "kprime = 20\n"
    )
    code, out, log = run_plan(tmp_path, text + "algorithms = random\ntrials = 2\n")
    lines = out.read_text().splitlines()
    assert code == 1
    assert len(lines) == 1 + 2
    assert all(",nan," in row for row in lines[1:])
    assert "2 trial(s) errored" in log


def test_failed_trial_prints_its_traceback(tmp_path, monkeypatch):
    def broken_trial(config, algorithm, trial_seed):
        raise RuntimeError(f"injected failure {trial_seed}")

    text = DESK_CFG + "algorithms = random\ntrials = 1\n"
    _, good, _ = run_plan(tmp_path, text, out_name="good.csv")
    monkeypatch.setattr("ckmsched.cli.run_trial", broken_trial)
    code, out, log = run_plan(tmp_path, text)
    assert code == 1
    lines = log.splitlines()
    at = lines.index("error: random seed=0: RuntimeError: injected failure 0")
    assert lines[at + 1] == "Traceback (most recent call last):"
    assert any("broken_trial" in line for line in lines[at:])
    assert "RuntimeError: injected failure 0" in lines[at + 2:]
    # the row keeps its place and format; only the rate and counters are blanked
    row = good.read_text().splitlines()[1].split(",")
    failed = out.read_text().splitlines()[1].split(",")
    assert failed == row[:9] + ["nan", "0", "0", "0", "0"]


def test_a_failed_trial_of_a_sweep_names_its_point(tmp_path, monkeypatch):
    # One seed fails at one point only: the error line names the point's
    # value of each sweep dimension, in the plan's order.
    run = cli.run_trial

    def broken_at(config, algorithm, trial_seed):
        if config.samples_per_grid == 9 and config.target_snr_db == 20.0:
            raise RuntimeError("injected failure")
        return run(config, algorithm, trial_seed)

    monkeypatch.setattr(cli, "run_trial", broken_at)
    text = DESK_CFG + ("algorithms = robust_aes\ntrials = 1\n"
                       "sweep.samples = 5, 9\nsweep.snr = 10, 20\n")
    code, _, log = run_plan(tmp_path, text)
    assert code == 1
    errors = [line for line in log.splitlines() if line.startswith("error: ")]
    assert errors == ["error: robust_aes samples=9 snr=20 seed=0: RuntimeError: injected failure"]


def test_run_prints_per_algorithm_summary(tmp_path):
    _, _, log = run_plan(tmp_path, DESK_CFG + "algorithms = random\ntrials = 2\n")
    assert "algorithm" in log and "mean_rate" in log
    assert any(line.strip().startswith("random") for line in log.splitlines())


# -- end-to-end entry point ---------------------------------------------------


def test_main_run_honors_out_and_algorithm_overrides(tmp_path, capsys):
    cfg = write_cfg(tmp_path, DESK_CFG + "trials = 2\n")
    out = tmp_path / "cli.csv"
    code = main(["run", "--config", cfg, "--out", str(out), "--algorithms", "random"])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert all(r.startswith("random,") for r in lines[1:])


def test_main_run_with_two_worker_processes_writes_the_serial_bytes(tmp_path, capsys):
    # --threads > 1 hands the trials to a process pool of that many workers.
    text = DESK_CFG + (
        "algorithms = greedy, random, sus, two_stage_gis, robust_aes, brute_force\n"
        "trials = 2\nsweep.snr = 10, 20\n"
    )
    cfg = write_cfg(tmp_path, text)
    serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
    assert main(["run", "--config", cfg, "--out", str(serial)]) == 0
    assert main(["run", "--config", cfg, "--out", str(pooled), "--threads", "2"]) == 0
    capsys.readouterr()
    assert pooled.read_bytes() == serial.read_bytes()


@pytest.fixture
def survey_pids(tmp_path, monkeypatch):
    """The pid of every map survey run_trial starts, read back from a file
    that forked workers append to as well."""
    log = tmp_path / "surveys.txt"
    survey = experiments.build_ckm

    def logged(scenario, *args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return survey(scenario, *args, **kwargs)

    monkeypatch.setattr(experiments, "build_ckm", logged)
    clear_caches()
    return lambda: log.read_text().split() if log.exists() else []


def test_worker_pool_surveys_a_shared_map_once_in_the_parent(tmp_path, survey_pids):
    # An SNR sweep keeps one scenario key, and so does a samples sweep, of
    # one survey per sample count: forked workers inherit the surveys the
    # parent made before the pool, so no worker surveys again.
    for sweep, surveys in (("sweep.snr = 10, 20", 1), ("sweep.samples = 4, 5", 2)):
        clear_caches()
        seen = len(survey_pids())
        text = DESK_CFG + f"algorithms = robust_gis, greedy\ntrials = 3\n{sweep}\n"
        code, out, _ = run_plan(tmp_path, text, threads=2)
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + 2 * 2 * 3
        assert survey_pids()[seen:] == [str(os.getpid())] * surveys


def test_worker_pool_leaves_maps_of_several_keys_to_the_workers(tmp_path, survey_pids):
    # grid_edge_m is part of the scenario key: the parent builds nothing,
    # and the workers survey each key themselves.
    text = DESK_CFG + "algorithms = robust_gis, robust_aes\ntrials = 2\nsweep.grid_edge = 12, 15\n"
    serial_code, serial, _ = run_plan(tmp_path, text, out_name="serial.csv")
    serial_surveys = len(survey_pids())
    clear_caches()
    pooled_code, pooled, _ = run_plan(tmp_path, text, out_name="pooled.csv", threads=2)
    assert serial_code == pooled_code == 0
    assert pooled.read_bytes() == serial.read_bytes()
    pooled_pids = survey_pids()[serial_surveys:]
    assert serial_surveys == 2 and len(pooled_pids) >= 2
    assert str(os.getpid()) not in pooled_pids


def test_a_sweep_over_several_keys_surveys_each_key_once(tmp_path, survey_pids):
    # Five scenario keys interleaved in plan order: a seed-major order over
    # all ten points would cycle more maps and configs through the 8-entry
    # scenario and map caches than they hold, evict each key's survey and
    # build it again. The points of one key run together, so each key is
    # surveyed once, and the rows still follow plan order.
    edges = (10, 12, 15, 18, 20)
    text = DESK_CFG + ("algorithms = robust_aes, sus\ntrials = 2\nsweep.snr = 10, 20\n"
                       f"sweep.grid_edge = {', '.join(map(str, edges))}\n")
    code, out, _ = run_plan(tmp_path, text)
    assert code == 0
    assert len(survey_pids()) == len(edges)
    rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
    assert [(float(r[1]), float(r[6]), r[0], int(r[8])) for r in rows] == [
        (snr, edge, a, t) for snr in (10, 20) for edge in edges
        for a in ("robust_aes", "sus") for t in range(2)]


@pytest.mark.parametrize("algorithms, trials, sweeps, counts", [
    # One scenario, one survey per sample count; greedy places its users on
    # every call, the two-stage schedulers once per seed.
    ("greedy, two_stage_aes, two_stage_gis, robust_aes, robust_gis", 2,
     "sweep.samples = 3, 5, 9, 15\n", (1, 4, 4 * 2 + 2)),
    # Six surveys, each thresholded at two etas and with every grid
    # reliable: more maps than the 8-entry map cache holds, which evicts no
    # survey.
    ("two_stage_aes, two_stage_gis, robust_aes, robust_gis", 5,
     "sweep.samples = 3, 4, 5, 6, 9, 15\nsweep.eta = 0.5, 0.7\n", (1, 6, 5)),
], ids=["samples", "samples-x-eta"])
def test_a_samples_sweep_builds_one_scenario_and_one_survey_per_count(
        tmp_path, survey_pids, monkeypatch, empty_memo, algorithms, trials, sweeps, counts):
    built, placed = [], []
    build, place = experiments.build_scenario, experiments.place_users

    def counted(calls, inner):
        def wrapper(*args):
            calls.append(args[-1])
            return inner(*args)
        return wrapper

    monkeypatch.setattr(experiments, "build_scenario", counted(built, build))
    monkeypatch.setattr(experiments, "place_users", counted(placed, place))
    text = DESK_CFG + f"algorithms = {algorithms}\ntrials = {trials}\n{sweeps}"
    code, _, _ = run_plan(tmp_path, text)
    assert code == 0
    assert (len(built), len(survey_pids()), len(placed)) == counts


def test_a_sweep_of_more_points_than_the_caches_hold_thresholds_once(
        tmp_path, survey_pids, monkeypatch, empty_memo):
    # Ten SNR points of one key and threshold run seed -> algorithm -> point,
    # so every (seed, algorithm) visits ten configs, more than the 8-entry
    # scenario and map caches hold. Maps are cached per (key, delta, eta)
    # and each config's key is memoized apart, so the survey is built once,
    # thresholded once at config's eta and once with every grid reliable,
    # and each config's key derived once; each seed places one trial for
    # all 30 of its trials, on either map.
    reclassified, keyed, placed = [], [], []
    reclassify, key, place = UsCkm.reclassify, experiments.scenario_key, experiments.place_users

    def counted(calls, inner):
        def wrapper(*args):
            calls.append(args[-1])
            return inner(*args)
        return wrapper

    monkeypatch.setattr(UsCkm, "reclassify", counted(reclassified, reclassify))
    monkeypatch.setattr(experiments, "scenario_key", counted(keyed, key))
    monkeypatch.setattr(experiments, "place_users", counted(placed, place))
    snrs = range(0, 50, 5)
    text = DESK_CFG + ("algorithms = two_stage_aes, robust_aes, robust_gis\ntrials = 5\n"
                       f"sweep.snr = {', '.join(map(str, snrs))}\n")
    code, out, _ = run_plan(tmp_path, text)
    assert code == 0
    assert len(out.read_text().splitlines()) == 1 + 10 * 3 * 5
    assert len(survey_pids()) == 1
    assert reclassified == [1.0, 0.7]
    assert len(keyed) == len(snrs)
    assert placed == list(range(5))


def test_worker_pool_builds_nothing_in_the_parent_without_fork(tmp_path, survey_pids, monkeypatch):
    # Spawned workers start from a fresh import and could not inherit a map
    # built here, so the parent does not survey; the bytes stay the serial ones.
    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(cli, "multiprocessing", types.SimpleNamespace(get_context=lambda: spawn))
    text = DESK_CFG + "algorithms = robust_gis\ntrials = 2\nsweep.snr = 10, 20\n"
    pooled_code, pooled, _ = run_plan(tmp_path, text, out_name="pooled.csv", threads=2)
    assert survey_pids() == []
    serial_code, serial, _ = run_plan(tmp_path, text, out_name="serial.csv")
    assert serial_code == pooled_code == 0
    assert pooled.read_bytes() == serial.read_bytes()


@pytest.mark.parametrize("text, failed", [
    # 60 m grids leave too few grids per cell for 5 users: that point's
    # trials fail in the workers and keep their rows.
    (DESK_CFG + "sweep.grid_edge = 15, 60\n", 4),
    # The one shared key cannot be built: the parent's attempt fails
    # quietly, and every trial fails in the workers.
    (DESK_CFG.replace("grid_edge_m = 15", "grid_edge_m = 60") + "sweep.snr = 10, 20\n", 8),
])
def test_worker_pool_reports_a_point_that_cannot_be_built_like_the_serial_run(
        tmp_path, text, failed):
    text += "algorithms = robust_aes, sus\ntrials = 2\n"
    serial_code, serial, serial_log = run_plan(tmp_path, text, out_name="serial.csv")
    pooled_code, pooled, pooled_log = run_plan(tmp_path, text, out_name="pooled.csv", threads=2)
    assert serial_code == pooled_code == 1
    assert f"{failed} trial(s) errored" in serial_log
    assert f"{failed} trial(s) errored" in pooled_log
    assert pooled.read_bytes() == serial.read_bytes()


def test_main_seed_override_changes_the_draws(tmp_path, capsys):
    cfg = write_cfg(tmp_path, DESK_CFG + "algorithms = random\ntrials = 2\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--config", cfg, "--out", str(a), "--seed", "1"]) == 0
    assert main(["run", "--config", cfg, "--out", str(b), "--seed", "2"]) == 0
    capsys.readouterr()
    assert a.read_text() != b.read_text()


def test_main_rejects_unknown_algorithm_override(tmp_path, capsys):
    cfg = write_cfg(tmp_path, DESK_CFG)
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv"),
                 "--algorithms", "oracle"])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_main_splits_an_algorithm_override_like_the_plan_file(tmp_path, capsys):
    # A trailing comma leaves an empty item, which both the plan line and
    # --algorithms drop.
    cfg = write_cfg(tmp_path, DESK_CFG + "trials = 2\n")
    plain, comma = tmp_path / "plain.csv", tmp_path / "comma.csv"
    assert main(["run", "--config", cfg, "--out", str(plain), "--algorithms", "greedy"]) == 0
    assert main(["run", "--config", cfg, "--out", str(comma), "--algorithms", "greedy,"]) == 0
    capsys.readouterr()
    assert comma.read_bytes() == plain.read_bytes()
    listed = write_cfg(tmp_path, DESK_CFG + "algorithms = greedy,\ntrials = 2\n", "listed.cfg")
    assert parse_config(listed).algorithms == ("greedy",)


def test_parse_rejects_a_repeated_algorithm(tmp_path):
    text = DESK_CFG + "algorithms = robust_aes, greedy, robust_aes\ntrials = 2\n"
    with pytest.raises(ConfigError, match=r"repeated algorithms \['robust_aes'\]"):
        parse_config(write_cfg(tmp_path, text))


def test_main_rejects_a_repeated_algorithm_override(tmp_path, capsys):
    cfg = write_cfg(tmp_path, DESK_CFG + "trials = 2\n")
    out = tmp_path / "x.csv"
    code = main(["run", "--config", cfg, "--out", str(out),
                 "--algorithms", "robust_aes, robust_aes"])
    assert code == 2
    assert "repeated algorithms ['robust_aes']" in capsys.readouterr().err
    assert not out.exists()


def test_parse_rejects_an_empty_algorithm_list(tmp_path):
    for line in ("algorithms =\n", "algorithms = , ,\n"):
        with pytest.raises(ConfigError, match="no algorithms to run"):
            parse_config(write_cfg(tmp_path, DESK_CFG + line))


@pytest.mark.parametrize("names", ["", " , "])
def test_main_rejects_an_empty_algorithm_override(tmp_path, capsys, names):
    cfg = write_cfg(tmp_path, DESK_CFG + "trials = 2\n")
    out = tmp_path / "x.csv"
    code = main(["run", "--config", cfg, "--out", str(out), "--algorithms", names])
    assert code == 2
    assert "no algorithms to run" in capsys.readouterr().err
    assert not out.exists()


def test_main_applies_the_brute_force_budget_to_an_algorithm_override(
    tmp_path, capsys
):
    text = ("n_cells = 2\nusers_per_cell = 30\nkbar = 6\nkprime = 6\n"
            "n_h = 4\nn_v = 4\ngrid_edge_m = 5\ntrials = 2\n")
    out = tmp_path / "x.csv"
    code = main(["run", "--config", write_cfg(tmp_path, text), "--out", str(out),
                 "--algorithms", "brute_force"])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_main_run_fails_before_any_trial_on_an_unwritable_out(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("ckmsched.cli.run_trial", lambda *args: calls.append(args))
    cfg = write_cfg(tmp_path, DESK_CFG + "algorithms = random\ntrials = 3\n")
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "missing" / "x.csv")])
    assert code == 2
    assert "No such file or directory" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_main_rejects_threads_below_one(tmp_path, capsys, threads):
    cfg = write_cfg(tmp_path, DESK_CFG + "algorithms = random\ntrials = 1\n")
    out = tmp_path / "x.csv"
    assert main(["run", "--config", cfg, "--out", str(out), "--threads", threads]) == 2
    assert f"threads must be >= 1, got {threads}" in capsys.readouterr().err
    assert not out.exists()


def test_main_reports_config_errors_with_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "bogus = 1\n")
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["fc_hz", "path_loss_offset_db", "dynamic_jitter_scale"])
def test_main_rejects_a_removed_scenario_key_with_exit_2(tmp_path, capsys, key):
    # These scaled every channel alike, which the SNR calibration cancels,
    # so they were removed; a plan that still sets one fails loudly.
    cfg = write_cfg(tmp_path, DESK_CFG + f"{key} = 1\n")
    line = len(DESK_CFG.splitlines()) + 1
    out = tmp_path / "x.csv"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert f"plan.cfg:{line}: unknown key '{key}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line", ["target_snr_db = nan", "sweep.snr = 10, nan"])
def test_main_rejects_a_nan_snr_plan_with_exit_2(tmp_path, capsys, line):
    text = DESK_CFG.replace("target_snr_db = 20\n", "")
    cfg = write_cfg(tmp_path, text + f"algorithms = random\n{line}\n")
    out = tmp_path / "x.csv"
    code = main(["run", "--config", cfg, "--out", str(out)])
    assert code == 2
    assert "target_snr_db must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_main_requires_a_subcommand(capsys):
    with pytest.raises(SystemExit):
        main([])
    capsys.readouterr()


# -- map build / inspect -------------------------------------------------------


STATIC_CFG = DESK_CFG.replace("eta = 0.7\n", "delta = 1.0\n").replace(
    "dynamic_grid_fraction = 0.25\n", "dynamic_grid_fraction = 0\n"
)


def test_build_and_inspect_round_trip(tmp_path, capsys):
    cfg = write_cfg(tmp_path, STATIC_CFG)
    map_path = tmp_path / "map.ckm"
    assert main(["build-ckm", "--config", cfg, "--out", str(map_path)]) == 0
    build_log = capsys.readouterr().out
    assert "2 BSs" in build_log
    assert map_path.exists()

    assert main(["inspect-ckm", str(map_path), "--config", cfg]) == 0
    log = capsys.readouterr().out
    # Every grid is static and the threshold covers all variances.
    assert "realized eta       1.0000" in log
    assert "reliable fraction at BS 0: 1.0000" in log
    assert "reliable fraction at BS 1: 1.0000" in log
    assert "sigma" in log and "epsilon" in log


def test_build_ckm_csv_export(tmp_path, capsys):
    cfg = write_cfg(tmp_path, STATIC_CFG)
    map_path = tmp_path / "map.ckm"
    assert main(["build-ckm", "--config", cfg, "--out", str(map_path), "--csv"]) == 0
    capsys.readouterr()
    assert (tmp_path / "gains_bs0.csv").exists()
    assert (tmp_path / "corr_bs1.csv").exists()
    assert (tmp_path / "scenario.csv").exists()


def test_inspect_rejects_mismatched_scenario(tmp_path, capsys):
    cfg = write_cfg(tmp_path, STATIC_CFG)
    map_path = tmp_path / "map.ckm"
    assert main(["build-ckm", "--config", cfg, "--out", str(map_path)]) == 0
    other = write_cfg(tmp_path, STATIC_CFG.replace("rng_seed = 7\n", "rng_seed = 9\n"),
                      name="other.cfg")
    code = main(["inspect-ckm", str(map_path), "--config", other])
    err = capsys.readouterr().err
    assert code == 2
    assert "different scenario" in err


def test_a_map_serves_every_snr_of_its_scenario(tmp_path, capsys):
    # The SNR target calibrates noise and does not enter the map, so the
    # map of one plan is byte-identical at any SNR and loads for all.
    maps = []
    for snr in ("20", "30"):
        cfg = write_cfg(tmp_path, STATIC_CFG.replace("target_snr_db = 20\n",
                                                     f"target_snr_db = {snr}\n"),
                        name=f"snr{snr}.cfg")
        maps.append(tmp_path / f"snr{snr}.ckm")
        assert main(["build-ckm", "--config", cfg, "--out", str(maps[-1])]) == 0
    assert maps[0].read_bytes() == maps[1].read_bytes()
    assert main(["inspect-ckm", str(maps[0]), "--config", str(tmp_path / "snr30.cfg")]) == 0
    assert "realized eta" in capsys.readouterr().out


def test_inspect_with_a_config_builds_no_scenario(tmp_path, capsys, monkeypatch):
    # A key no other test uses, so no cache holds its scenario.
    text = STATIC_CFG.replace("rng_seed = 7\n", "rng_seed = 4242\n")
    cfg = write_cfg(tmp_path, text)
    map_path = tmp_path / "map.ckm"
    build_ckm(build_scenario(parse_config(cfg).base_config)).save(map_path)
    built = []

    def counted(config):
        built.append(config)
        return build_scenario(config)

    monkeypatch.setattr(geometry, "build_scenario", counted)
    monkeypatch.setattr(experiments, "build_scenario", counted)
    assert main(["inspect-ckm", str(map_path), "--config", cfg]) == 0
    assert "realized eta" in capsys.readouterr().out
    assert built == []


def test_inspect_rejects_non_map_files(tmp_path, capsys):
    junk = tmp_path / "junk.ckm"
    junk.write_bytes(b"nope")
    code = main(["inspect-ckm", str(junk)])
    assert code == 2
    assert "not a channel map" in capsys.readouterr().err


def test_inspect_rejects_a_map_header_without_delta(tmp_path, capsys, small_ckm):
    path = tmp_path / "map.ckm"
    save_with_header(small_ckm, path, delta=None)
    assert main(["inspect-ckm", str(path)]) == 2
    assert f"{path}: delta None is not a number" in capsys.readouterr().err


@pytest.mark.parametrize("damage, message", [
    (lambda data: data[:5] + (1).to_bytes(2, "little") + data[7:], "map format v1 "),
    (lambda data: data[:5] + (2).to_bytes(2, "little") + data[7:], "map format v2 "),
    (lambda data: data[:-1] + bytes([data[-1] ^ 1]), "payload does not match its checksum"),
], ids=["v1", "v2", "tampered"])
def test_inspect_rejects_old_and_tampered_maps(tmp_path, capsys, small_ckm, damage, message):
    path = tmp_path / "map.ckm"
    small_ckm.save(path)
    path.write_bytes(damage(path.read_bytes()))
    assert main(["inspect-ckm", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: {message}" in err
    assert "Traceback" not in err


def test_inspect_rejects_a_map_cut_inside_its_fixed_header(tmp_path, capsys, small_ckm):
    # Magic, version and header length fill the first 15 bytes: a file cut
    # among them holds no version to judge.
    path = tmp_path / "map.ckm"
    small_ckm.save(path)
    data = path.read_bytes()
    for cut in range(5, 15):
        path.write_bytes(data[:cut])
        assert main(["inspect-ckm", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: truncated header" in err
        assert "Traceback" not in err


def test_inspect_rejects_a_map_without_grids(tmp_path, capsys):
    path = tmp_path / "map.ckm"
    save_map_of_shape(path, (2, 0, 8))
    assert main(["inspect-ckm", str(path)]) == 2
    assert "do not describe a map" in capsys.readouterr().err


def test_inspect_rejects_a_map_with_values_no_survey_writes(tmp_path, capsys, small_ckm):
    epsilon = small_ckm.epsilon.copy()
    epsilon[0, 0] = -1.0
    path = tmp_path / "map.ckm"
    UsCkm(small_ckm.scenario_hash, small_ckm.samples_per_grid, small_ckm.delta,
          small_ckm.h_bar, epsilon, small_ckm.sigma).save(path)
    assert main(["inspect-ckm", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: epsilon holds a negative or non-finite value" in err
    assert "Traceback" not in err


def test_plan_dataclass_sweep_grid_is_the_cartesian_product():
    plan = ExperimentPlan(
        base_config=ScenarioConfig(),
        sweeps=(("snr", (0.0, 10.0)), ("kbar", (1.0, 2.0, 3.0))),
    )
    points = plan.sweep_points()
    assert len(points) == 6
    assert {(p["snr"], p["kbar"]) for p in points} == {
        (s, k) for s in (0.0, 10.0) for k in (1.0, 2.0, 3.0)
    }
