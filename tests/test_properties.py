"""Properties over small desk-sized scenarios, drawn by Hypothesis: user i is
row i of the trial, the robust schedulers meet their eta extremes, a map
survives a save/load round trip, the rate of a group does not depend on
member order, brute force is at least every scheduler, a trial's result
does not depend on what ran before it, and the noise
calibration's median is np.median's and inspect-ckm's percentiles are
np.percentile's."""

import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ckmsched.ckm import UsCkm
from ckmsched.cli import _percentiles
from ckmsched.evaluation import _median, brute_force_optimum, calibrate_noise, evaluate_group
from ckmsched.experiments import (
    _SCHEDULERS,
    ALGORITHMS,
    cached_ckm,
    cached_scenario,
    place_users,
    run_trial,
    trial_channels,
    validate_group,
)
from ckmsched.groups import UserGroup
from ckmsched.geometry import channel_rows
from ckmsched.scheduling import fuse_effective_csi

from conftest import desk_config


def desk_configs(**fixed):
    return st.builds(
        desk_config,
        placement=st.sampled_from(["uniform", "clustered"]),
        dynamic_grid_fraction=st.sampled_from([0.0, 0.25, 1.0]),
        **{k: st.just(v) for k, v in fixed.items()},
    )


trial_seeds = st.integers(0, 10_000)


def trial(cfg, seed):
    scenario = cached_scenario(cfg)
    users = place_users(scenario, seed)
    return scenario, users, trial_channels(scenario, users, seed + 1)


@given(cfg=desk_configs(), seed=trial_seeds)
@settings(max_examples=20, deadline=None)
def test_users_are_numbered_in_row_order(cfg, seed):
    scenario, users, chans = trial(cfg, seed)
    n = cfg.n_cells * cfg.users_per_cell
    assert [u.id for u in users] == list(range(n))
    assert chans.cell_of.tolist() == [u.cell for u in users]
    assert chans.grid.tolist() == [u.grid for u in users]
    for u in users:
        # one position at a time, so each row is checked on its own
        h = channel_rows(scenario, np.array([(u.x, u.y)]), seed + 1)[:, 0]
        assert h.tobytes() == chans.h[:, u.id].tobytes()


@given(cfg=desk_configs(eta=1.0), seed=trial_seeds)
@settings(max_examples=20, deadline=None)
def test_robust_on_an_all_reliable_map_is_the_map_only_scheduler(cfg, seed):
    for first_stage in ("aes", "gis"):
        robust = run_trial(cfg, f"robust_{first_stage}", seed)
        baseline = run_trial(cfg, f"two_stage_{first_stage}", seed)
        assert robust.group.members == baseline.group.members
        assert robust.group.meta == baseline.group.meta
        assert repr(robust.sum_rate) == repr(baseline.sum_rate)
        assert robust.csi_acquisitions == 0


@given(cfg=desk_configs(eta=0.0), seed=trial_seeds)
@settings(max_examples=20, deadline=None)
def test_fusion_on_an_all_unreliable_map_acquires_every_user(cfg, seed):
    _, _, chans = trial(cfg, seed)
    n = cfg.n_cells * cfg.users_per_cell
    csi = fuse_effective_csi(cached_ckm(cfg), chans)
    assert csi.acquired == list(range(n))
    assert np.all(csi.source == 0)
    for algorithm in ("robust_aes", "robust_gis"):
        assert run_trial(cfg, algorithm, seed).csi_acquisitions == cfg.n_cells * n


@given(cfg=desk_configs(eta=None), threshold=st.one_of(
    st.builds(dict, eta=st.sampled_from([0.0, 0.3, 0.7, 1.0])),
    st.builds(dict, delta=st.sampled_from([0.0, 1e-4, 1.0])),
))
@settings(max_examples=20, deadline=None)
def test_maps_survive_a_save_load_round_trip(cfg, threshold):
    cfg = replace(cfg, **threshold)
    ckm = cached_ckm(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "map.ckm"
        ckm.save(path)
        back = UsCkm.load(path, config=cfg)
        again = Path(tmp) / "again.ckm"
        back.save(again)
        assert again.read_bytes() == path.read_bytes()
    assert back.samples_per_grid == ckm.samples_per_grid
    assert repr(back.delta) == repr(ckm.delta)
    for name in ("h_bar", "epsilon", "sigma", "reliable"):
        assert getattr(back, name).tobytes() == getattr(ckm, name).tobytes()


@given(cfg=desk_configs(), seed=trial_seeds, data=st.data())
@settings(max_examples=20, deadline=None)
def test_the_rate_does_not_depend_on_member_order(cfg, seed, data):
    scenario, _, chans = trial(cfg, seed)
    noise = calibrate_noise(scenario, cfg.target_snr_db)
    members = {l: data.draw(st.permutations(ids))[:cfg.kbar]
               for l, ids in chans.ids_by_cell().items()}
    cells = data.draw(st.permutations(sorted(members)))
    shuffled = {l: data.draw(st.permutations(members[l])) for l in cells}
    rate, gammas = evaluate_group(UserGroup(members=members), chans, noise)
    again, regammas = evaluate_group(UserGroup(members=shuffled), chans, noise)
    assert repr(again) == repr(rate)
    assert list(regammas.items()) == list(gammas.items())


@given(cfg=desk_configs(), seed=trial_seeds)
@settings(max_examples=10, deadline=None)
def test_brute_force_is_at_least_every_scheduler_on_the_same_instance(cfg, seed):
    scenario, _, chans = trial(cfg, seed)
    noise = calibrate_noise(scenario, cfg.target_snr_db)
    _, best, _ = brute_force_optimum(chans, cfg.kbar, noise)
    for name, schedule in _SCHEDULERS.items():
        group, _, _ = schedule(cfg, seed, chans, noise)
        validate_group(group, chans, cfg.kbar)
        rate, _ = evaluate_group(group, chans, noise)
        assert math.isfinite(rate) and rate <= best, name


# The values a job takes: desk configs that vary what run_trial's memo is
# keyed on (the scenario key through grid_edge_m, the map's survey through
# samples_per_grid and its threshold eta, a decision's kbar and alpha) and
# the noise calibration (target SNR), every algorithm and four seeds.
JOB_AXES = {
    "target_snr_db": [10.0, 20.0],
    "eta": [0.5, 0.7, 1.0],
    "kbar": [1, 2],
    "alpha": [0.3, 0.6],
    "grid_edge_m": [15.0, 20.0],
    "samples_per_grid": [4, 5],
    "algorithm": list(ALGORITHMS),
    "seed": [0, 1, 2, 3],
}


@st.composite
def trial_jobs(draw):
    """(config, algorithm, seed) jobs, each of which draws one axis of the
    last one anew, so that neighbours often differ in one memo key field
    alone."""
    job = {axis: draw(st.sampled_from(values)) for axis, values in JOB_AXES.items()}
    jobs = []
    for _ in range(draw(st.integers(1, 30))):
        axis = draw(st.sampled_from(sorted(JOB_AXES)))
        job[axis] = draw(st.sampled_from(JOB_AXES[axis]))
        fields = {k: v for k, v in job.items() if k not in ("algorithm", "seed")}
        jobs.append((desk_config(**fields), job["algorithm"], job["seed"]))
    return jobs


@given(jobs=trial_jobs())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_a_trial_does_not_depend_on_what_ran_before_it(jobs, empty_memo):
    # Each sequence starts on an emptied memo, so a failure replays.
    empty_memo()
    results = [run_trial(*job) for job in jobs]
    for job, result in zip(jobs, results):
        empty_memo()
        assert run_trial(*job) == result, job


# Few distinct values, so ties are common; bounded so no mean of two overflows.
median_values = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5, 3.0]),
              st.floats(-1e300, 1e300, allow_nan=False)),
    min_size=1, max_size=40,
)


@given(values=median_values)
@example(values=[7.0])
@example(values=[1.0, 2.0])
@example(values=[2.0, 2.0, 1.0, 2.0])
@settings(max_examples=300, deadline=None)
def test_calibration_median_equals_np_median(values):
    arr = np.array(values)
    assert np.float64(_median(arr)).tobytes() == np.median(arr).tobytes()


# Ties and both signed zeros are common; bounded so no difference of two
# overflows.
percentile_values = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
              st.floats(-1e300, 1e300, allow_nan=False)),
    min_size=1, max_size=50,
)


@given(values=percentile_values)
@example(values=[-0.0])
@example(values=[0.0, -0.0])
@example(values=[-0.0, 0.0, -0.0, 1.0, -0.0])
@settings(max_examples=300, deadline=None)
def test_inspect_percentiles_equal_np_percentile(values):
    arr = np.array(values)
    qs = [0, 25, 50, 75, 100]
    got = np.array(_percentiles(arr, qs))
    assert got.tobytes() == np.percentile(arr, qs).tobytes()
