"""Config parsing, experiment runner, map build/inspect commands."""

import io

import pytest

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

from conftest import desk_config

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
    assert cfg.fc_hz == 6.7e9
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
        parse_config(write_cfg(tmp_path, DESK_CFG + "kbar = 1.5\n"))
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
    assert _OPTIONAL_FIELDS == {
        "delta", "eta", "inter_site_distance_m", "path_loss_offset_db"
    }
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


def test_main_reports_config_errors_with_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "bogus = 1\n")
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["target_snr_db = nan", "sweep.snr = 10, nan"])
def test_main_rejects_a_nan_snr_plan_with_exit_2(tmp_path, capsys, line):
    cfg = write_cfg(tmp_path, DESK_CFG + f"algorithms = random\n{line}\n")
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
    other = write_cfg(tmp_path, STATIC_CFG + "rng_seed = 9\n", name="other.cfg")
    code = main(["inspect-ckm", str(map_path), "--config", other])
    err = capsys.readouterr().err
    assert code == 2
    assert "different scenario" in err


def test_inspect_rejects_non_map_files(tmp_path, capsys):
    junk = tmp_path / "junk.ckm"
    junk.write_bytes(b"nope")
    code = main(["inspect-ckm", str(junk)])
    assert code == 2
    assert "not a channel map" in capsys.readouterr().err


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
