"""MMSE combining, rate evaluation, exhaustive oracle, overhead accounting."""

import math

import numpy as np
import pytest

from ckmsched import UsCkm, build_scenario, evaluation, experiments
from ckmsched.errors import EnumerationGuardError, ScheduleError
from ckmsched.evaluation import (
    OverheadModel,
    ScheduleResult,
    brute_force_optimum,
    calibrate_noise,
    evaluate_group,
    mmse_receiver,
    overhead_counts,
    sinr,
)
from ckmsched.experiments import (
    ALGORITHMS,
    MAP_ALGORITHMS,
    cached_ckm,
    fusion_key,
    place_users,
    run_trial,
    trial_channels,
)
from ckmsched.geometry import channel_rows
from ckmsched.groups import UserGroup
from ckmsched.scheduling import greedy_schedule

from conftest import clear_caches, desk_config, synthetic_chans
from reference import channel_rows_reference
from test_acceptance import table_scale_config


def collinear(a, b):
    return abs(np.vdot(a, b)) == pytest.approx(
        np.linalg.norm(a) * np.linalg.norm(b), rel=1e-12
    )


# -- MMSE receiver -------------------------------------------------------


def test_mmse_without_interference_matches_the_desired_direction():
    d = np.array([1.0 + 1.0j, 2.0, -0.5j])
    w = mmse_receiver(d, [], noise_power=0.3).weights
    assert collinear(w, d)


def test_mmse_ignores_orthogonal_interference():
    d = np.array([1.0, 0.0], dtype=complex)
    w = mmse_receiver(d, [np.array([0.0, 5.0])], noise_power=0.1).weights
    assert collinear(w, d)


def test_mmse_against_identical_interferer_caps_sinr_at_one():
    d = np.array([2.0, 1.0j])
    for noise in (1.0, 1e-2, 1e-6):
        w = mmse_receiver(d, [d], noise_power=noise).weights
        assert sinr(w, d, [d], [], noise) <= 1.0 + 1e-12


def test_mmse_rejects_degenerate_inputs():
    d = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(ValueError):
        mmse_receiver(d, [], noise_power=0.0)
    with pytest.raises(ValueError):
        mmse_receiver(np.zeros(2, dtype=complex), [], noise_power=1.0)
    with pytest.raises(ValueError):
        mmse_receiver(np.array([np.nan, 0.0]), [], noise_power=1.0)


# -- SINR ------------------------------------------------------------------


def test_sinr_known_value():
    w = np.array([1.0, 0.0], dtype=complex)
    d = np.array([math.sqrt(10.0), 0.0])
    assert sinr(w, d, [], [], noise_power=1.0) == pytest.approx(10.0)


def test_sinr_is_invariant_to_combiner_scale():
    rng = np.random.default_rng(1)
    w = rng.normal(size=3) + 1j * rng.normal(size=3)
    d = rng.normal(size=3) + 1j * rng.normal(size=3)
    i1 = rng.normal(size=3) + 1j * rng.normal(size=3)
    base = sinr(w, d, [i1], [], 0.4)
    assert sinr(7.0 * w, d, [i1], [], 0.4) == pytest.approx(base)
    assert sinr(w * np.exp(1.3j), d, [i1], [], 0.4) == pytest.approx(base)


def test_sinr_collinear_equal_power_interferer_tends_to_one():
    d = np.array([1.0, 0.0], dtype=complex)
    w = d.copy()
    gammas = [sinr(w, d, [d], [], n) for n in (1.0, 1e-3, 1e-9)]
    assert all(a < b for a, b in zip(gammas, gammas[1:]))
    assert gammas[-1] == pytest.approx(1.0, abs=1e-8)


def test_sinr_counts_inter_and_intra_interference_alike():
    d = np.array([1.0, 0.0], dtype=complex)
    other = np.array([0.6, 0.8], dtype=complex)
    g_intra = sinr(d, d, [other], [], 0.5)
    g_inter = sinr(d, d, [], [other], 0.5)
    assert g_intra == pytest.approx(g_inter)


def test_sinr_rejects_zero_combiner_and_bad_noise():
    d = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(ValueError):
        sinr(np.zeros(2), d, [], [], 1.0)
    with pytest.raises(ValueError):
        sinr(d, d, [], [], 0.0)


# -- group evaluation ---------------------------------------------------------


def one_cell_chans(vectors):
    """One-cell ChannelSet: user i has channel vectors[i]."""
    return synthetic_chans(np.asarray(vectors)[None], np.zeros(len(vectors)))


def test_unit_gain_single_user_at_unit_noise_rates_one_bit():
    chans = one_cell_chans([[1.0, 0.0]])
    group = UserGroup(members={0: [0]})
    rate, gammas = evaluate_group(group, chans, noise_power=1.0)
    assert gammas[0] == pytest.approx(1.0)
    assert rate == pytest.approx(1.0)


def test_orthogonal_pair_doubles_the_single_user_rate():
    chans = one_cell_chans([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    solo = evaluate_group(UserGroup(members={0: [0]}), chans, 0.7)[0]
    pair = evaluate_group(UserGroup(members={0: [0, 1]}), chans, 0.7)[0]
    assert pair == pytest.approx(2.0 * solo)


def test_evaluation_rejects_ids_without_a_channel_row():
    # User i is row i: -1 must not wrap to the last row.
    chans = one_cell_chans([[1.0, 0.0], [0.0, 1.0]])
    for uid in (-1, 2):
        with pytest.raises(ValueError, match=f"user {uid} has no channel row"):
            evaluate_group(UserGroup(members={0: [0, uid]}), chans, 1.0)


@pytest.mark.parametrize("cell", [-1, 2])
def test_evaluation_refuses_a_cell_that_is_not_a_bs(cell):
    # Cell -1 must not be scored at the last BS, nor cell L fail as a bare
    # IndexError.
    rng = np.random.default_rng(3)
    h = rng.normal(size=(2, 4, 3)) + 1j * rng.normal(size=(2, 4, 3))
    chans = synthetic_chans(h, [0, 0, 1, 1])
    with pytest.raises(ValueError, match=f"cell {cell} is not a BS of 2"):
        evaluate_group(UserGroup(members={cell: [2]}), chans, 0.5)


def test_empty_group_has_zero_rate():
    chans = one_cell_chans([[1.0, 0.0]])
    assert evaluate_group(UserGroup(members={}), chans, 1.0)[0] == 0.0
    assert evaluate_group(UserGroup(members={0: []}), chans, 1.0)[0] == 0.0


def test_rate_equals_log_sum_of_reported_sinrs():
    rng = np.random.default_rng(5)
    h = rng.normal(size=(2, 6, 4)) + 1j * rng.normal(size=(2, 6, 4))
    chans = synthetic_chans(h, [0, 0, 0, 1, 1, 1])
    group = UserGroup(members={0: [0, 2], 1: [4, 5]})
    rate, gammas = evaluate_group(group, chans, 0.3)
    assert set(gammas) == {0, 2, 4, 5}
    assert rate == pytest.approx(sum(math.log2(1.0 + g) for g in gammas.values()))


@pytest.mark.parametrize("members", [{0: [1, 1]}, {0: [1], 1: [1]}],
                         ids=["same_cell", "two_cells"])
def test_evaluation_refuses_a_user_scheduled_twice(members):
    # Counted twice, the user would add its log2(1 + gamma) to the rate
    # twice while gammas held it once.
    rng = np.random.default_rng(3)
    h = rng.normal(size=(2, 4, 3)) + 1j * rng.normal(size=(2, 4, 3))
    chans = synthetic_chans(h, [0, 0, 1, 1])
    with pytest.raises(ValueError, match="user 1 is scheduled twice"):
        evaluate_group(UserGroup(members=members), chans, 0.5)


def test_rate_is_bit_identical_under_member_reordering():
    rng = np.random.default_rng(11)
    h = rng.normal(size=(2, 6, 4)) + 1j * rng.normal(size=(2, 6, 4))
    chans = synthetic_chans(h, [0, 0, 0, 1, 1, 1])
    a = evaluate_group(UserGroup(members={0: [2, 0], 1: [5, 3]}), chans, 0.3)[0]
    b = evaluate_group(UserGroup(members={0: [0, 2], 1: [3, 5]}), chans, 0.3)[0]
    assert a == b


def test_cross_cell_interference_lowers_rates():
    h = np.zeros((2, 2, 2), dtype=complex)
    h[0, 0] = [2.0, 0.0]   # user 0 at its BS
    h[1, 1] = [2.0, 0.0]   # user 1 at its BS
    quiet = synthetic_chans(h.copy(), [0, 1])
    loud = h.copy()
    loud[0, 1] = [1.5, 0.0]  # user 1 leaks into BS 0
    noisy = synthetic_chans(loud, [0, 1])
    group = UserGroup(members={0: [0], 1: [1]})
    assert evaluate_group(group, noisy, 0.5)[0] < evaluate_group(group, quiet, 0.5)[0]


# -- exhaustive oracle -----------------------------------------------------------


def test_brute_force_with_kbar_equal_to_pool_is_the_full_group():
    chans = one_cell_chans([[1.0, 0.0], [0.0, 2.0]])
    group, rate, _ = brute_force_optimum(chans, kbar=2, noise_power=1.0)
    assert group.members == {0: [0, 1]}
    assert rate == pytest.approx(
        evaluate_group(UserGroup(members={0: [0, 1]}), chans, 1.0)[0]
    )


def test_brute_force_singleton_picks_the_better_user():
    chans = one_cell_chans([[1.0, 0.0], [0.0, 3.0]])
    group, _, _ = brute_force_optimum(chans, kbar=1, noise_power=1.0)
    assert group.members == {0: [1]}


def test_brute_force_beats_greedy_on_a_crafted_instance():
    # Greedy grabs the largest-norm user first and gets stuck with a
    # correlated pair; the optimum is the orthogonal pair.
    chans = one_cell_chans([[1.5, 1.5], [2.0, 0.0], [0.0, 2.0]])
    noise = 1.0
    best, best_rate, _ = brute_force_optimum(chans, kbar=2, noise_power=noise)
    greedy, _, _ = greedy_schedule(chans, kbar=2, noise_power=noise)
    greedy_rate = evaluate_group(greedy, chans, noise)[0]
    assert best.members == {0: [1, 2]}
    assert 0 in greedy.members[0]
    assert best_rate > greedy_rate + 0.1


def test_brute_force_enumeration_guard():
    # C(30, 15) = 155117520 subsets: the guard fires before any is listed.
    chans = one_cell_chans([[float(i), 1.0] for i in range(1, 31)])
    with pytest.raises(EnumerationGuardError, match="155117520 combinations exceed"):
        brute_force_optimum(chans, kbar=15, noise_power=1.0)


def test_brute_force_rejects_undersized_cells():
    chans = one_cell_chans([[1.0, 0.0]])
    with pytest.raises(ScheduleError, match="cell 0 has 1 < kbar=2 users"):
        brute_force_optimum(chans, kbar=2, noise_power=1.0)


# -- overhead accounting -----------------------------------------------------------


def table_model(algorithm, eta=None):
    return OverheadModel(
        algorithm=algorithm, n_cells=3, users_per_cell=50, kbar=10,
        kprime=20, n_antennas=32, eta=eta,
    )


def test_overhead_known_cells():
    assert overhead_counts(table_model("sus")) == {
        "mults": 48_000, "csi_acquisitions": 150, "info_exchange": 0,
    }
    assert overhead_counts(table_model("two_stage_aes"))["mults"] == 87_000
    assert overhead_counts(table_model("greedy"))["csi_acquisitions"] == 450
    assert overhead_counts(table_model("brute_force")) == {
        "mults": math.comb(50, 10) ** 3 * 3 * 10 * 32**3,
        "csi_acquisitions": 450,
        "info_exchange": 450 * 32,
    }


def test_overhead_covers_every_algorithm():
    for algorithm in ALGORITHMS:
        eta = 0.5 if algorithm.startswith("robust") else None
        counts = overhead_counts(table_model(algorithm, eta=eta))
        assert set(counts) == {"mults", "csi_acquisitions", "info_exchange"}


def test_overhead_robust_requires_eta():
    with pytest.raises(ValueError, match="eta"):
        overhead_counts(table_model("robust_aes"))


def test_overhead_rejects_unknown_algorithm():
    with pytest.raises(ValueError, match="overhead model"):
        overhead_counts(table_model("exhaustive"))


def test_overhead_robust_interpolates_between_extremes():
    # eta=1 leaves the map-only cost, whatever eta the map-only model is
    # given; smaller eta only adds work.
    for stage in ("aes", "gis"):
        base = overhead_counts(table_model(f"two_stage_{stage}"))
        at1 = overhead_counts(table_model(f"robust_{stage}", eta=1.0))
        at0 = overhead_counts(table_model(f"robust_{stage}", eta=0.0))
        assert at1 == base == overhead_counts(table_model(f"two_stage_{stage}", eta=0.3))
        assert base["csi_acquisitions"] == 0
        assert base["info_exchange"] == 3 * 20
        assert at0["mults"] > at1["mults"]
        assert at0["csi_acquisitions"] == 3**2 * 50


# -- noise calibration ---------------------------------------------------------------


def test_calibrated_noise_puts_median_matched_filter_snr_on_target():
    # At 0 dB the noise is the median gain of one user at every grid center
    # toward its serving BS, at realization 0: the per-row reference's rows,
    # one batch per serving BS, give it bit for bit.
    for cfg in (desk_config(), desk_config(dynamic_grid_fraction=0.0), table_scale_config()):
        scenario = build_scenario(cfg)
        gains = []
        for l in range(cfg.n_cells):
            centers = scenario.grid_centers[scenario.grid_serving == l]
            rows = channel_rows_reference(scenario, l, centers, 0)
            gains.append(np.sum(np.abs(rows) ** 2, axis=1))
        assert calibrate_noise(scenario, 0.0) == float(np.median(np.concatenate(gains)))


def test_calibrated_noise_scales_with_target(static_scenario):
    n0 = calibrate_noise(static_scenario, 0.0)
    n10 = calibrate_noise(static_scenario, 10.0)
    assert n10 == pytest.approx(n0 / 10.0)


def test_noise_calibration_synthesizes_the_grid_centers_once_per_scenario(monkeypatch):
    # A fresh scenario object, so no cached median applies to it yet.
    scenario = build_scenario(desk_config(rng_seed=4343))
    snrs = (0.0, 10.0, 20.0, 30.0)
    calls = []

    def counted(scenario, positions, realizations):
        calls.append(len(positions))
        return channel_rows(scenario, positions, realizations)

    monkeypatch.setattr(evaluation, "channel_rows", counted)
    noise = [calibrate_noise(scenario, snr) for snr in snrs]
    # One call per cell, over its grid centers, for the first target only.
    assert calls == [len(grids) for grids in scenario.grids_of_cell]
    assert noise == [noise[0] / 10.0 ** (snr / 10.0) for snr in snrs]


# -- trial runner ------------------------------------------------------------------------


def test_schedule_result_equality_ignores_wall_time():
    group = UserGroup(members={0: [1]})
    a = ScheduleResult("sus", 1.0, {1: 1.0}, 0, 0, 10, group, wall_ms=5.0)
    b = ScheduleResult("sus", 1.0, {1: 1.0}, 0, 0, 10, group, wall_ms=99.0)
    assert a == b


def test_run_trial_is_reproducible():
    cfg = desk_config()
    a = run_trial(cfg, "robust_aes", trial_seed=3)
    b = run_trial(cfg, "robust_aes", trial_seed=3)
    assert a == b
    assert sum(map(len, a.group.members.values())) == cfg.n_cells * cfg.kbar


def test_run_trial_validates_inputs():
    cfg = desk_config()
    with pytest.raises(ValueError, match="unknown algorithm"):
        run_trial(cfg, "magic", trial_seed=0)
    with pytest.raises(ValueError, match="trial_seed"):
        run_trial(cfg, "sus", trial_seed=-1)


@pytest.mark.parametrize("seed", [1.7, 1.0, True, np.bool_(True), "1", None])
def test_run_trial_rejects_seeds_that_are_not_integers(seed):
    with pytest.raises(ValueError, match="trial_seed must be an integer"):
        run_trial(desk_config(), "sus", seed)


def test_run_trial_accepts_numpy_integer_seeds():
    cfg = desk_config()
    assert run_trial(cfg, "sus", np.int64(1)) == run_trial(cfg, "sus", 1)


def test_run_trial_rejects_seeds_whose_realization_overflows_int64():
    # Trial seed s draws its channels at realization s + 1, an int64.
    cfg = desk_config()
    for algorithm in ("greedy", "robust_aes"):
        assert math.isfinite(run_trial(cfg, algorithm, 2**63 - 2).sum_rate)
        for seed in (2**63 - 1, 2**64):
            with pytest.raises(ValueError, match=str(2**63 - 2)):
                run_trial(cfg, algorithm, seed)


def test_trial_channels_require_users_numbered_in_row_order(small_scenario):
    users = place_users(small_scenario, 0)
    for bad in (users[1:], [users[1], users[0]] + users[2:], users + [users[0]]):
        with pytest.raises(ValueError, match="numbered 0..n-1 in order"):
            trial_channels(small_scenario, bad, 1)


def test_algorithms_keep_their_order():
    # The CLI's default CSV rows follow this order.
    assert ALGORITHMS == (
        "greedy", "random", "sus", "two_stage_aes", "two_stage_gis",
        "robust_aes", "robust_gis", "brute_force",
    )


def test_map_algorithms_are_the_schedulers_that_read_the_map(monkeypatch, empty_memo):
    # run --threads builds the map ahead of the pool only for these, and
    # run orders a seed's jobs by the map fusion_key names: the cached map
    # of that key is the one the scheduler fuses on. At eta = 1 config's map
    # is the all-reliable one, so robust_* share the key of two_stage_*.
    readers, fused = set(), []
    fuse = experiments.fuse_effective_csi
    monkeypatch.setattr(experiments, "cached_ckm", lambda config, threshold=None:
                        readers.add(algorithm) or cached_ckm(config, threshold))
    monkeypatch.setattr(experiments, "fuse_effective_csi",
                        lambda ckm, chans: fused.append(ckm) or fuse(ckm, chans))
    for eta in (0.7, 1.0):
        cfg = desk_config(eta=eta)
        readers.clear()
        for algorithm in ALGORITHMS:
            empty_memo()
            fused.clear()
            run_trial(cfg, algorithm, 0)
            key = fusion_key(cfg, algorithm)
            assert (key is None) == (algorithm not in readers), algorithm
            if key is not None:
                assert fused == [experiments._map(*key)], algorithm
        assert set(MAP_ALGORITHMS) == readers
        shared = fusion_key(cfg, "two_stage_aes") == fusion_key(cfg, "robust_aes")
        assert shared == (eta == 1.0)
        assert fusion_key(cfg, "robust_aes") == fusion_key(cfg, "robust_gis")
        assert fusion_key(cfg, "two_stage_aes") == fusion_key(cfg, "two_stage_gis")
    assert MAP_ALGORITHMS == ("two_stage_aes", "two_stage_gis", "robust_aes", "robust_gis")


def trial_model(cfg, algorithm, eta=None):
    return OverheadModel(
        algorithm=algorithm, n_cells=cfg.n_cells, users_per_cell=cfg.users_per_cell,
        kbar=cfg.kbar, kprime=cfg.kprime, n_antennas=cfg.n_antennas, eta=eta,
    )


def test_run_trial_counters_match_the_closed_forms():
    cfg = desk_config()
    for algorithm in ("greedy", "sus", "random", "brute_force"):
        closed = overhead_counts(trial_model(cfg, algorithm))
        for seed in range(5):
            r = run_trial(cfg, algorithm, seed)
            assert r.csi_acquisitions == closed["csi_acquisitions"]
            assert r.info_exchange == closed["info_exchange"]
            assert r.multiplication_estimate == closed["mults"]


def test_run_trial_models_robust_mults_at_the_realized_eta():
    cfg = desk_config(eta=None)
    r = run_trial(cfg, "robust_aes", 0)
    eta = cached_ckm(cfg).realized_eta()
    assert r.multiplication_estimate == overhead_counts(
        trial_model(cfg, "robust_aes", eta))["mults"]


def test_map_only_trials_threshold_the_survey_with_every_grid_reliable(monkeypatch):
    # two_stage_* fuse on the all-reliable map and model their overheads
    # at its eta, so they never threshold the survey at config's delta.
    thresholds = []
    reclassify = UsCkm.reclassify

    def counted(self, delta, eta):
        thresholds.append((delta, eta))
        return reclassify(self, delta, eta)

    clear_caches()
    monkeypatch.setattr(UsCkm, "reclassify", counted)
    cfg = desk_config(eta=None, delta=1e-4)
    for algorithm in ("two_stage_aes", "two_stage_gis"):
        r = run_trial(cfg, algorithm, 0)
        assert r.multiplication_estimate == overhead_counts(
            trial_model(cfg, algorithm))["mults"]
    assert thresholds == [(None, 1.0)]


@pytest.mark.parametrize("corrupt, match", [
    (lambda m: m[0].__setitem__(1, m[0][0]), "twice"),
    (lambda m: m[0].__setitem__(1, m[1][0]), "not served by cell 0"),
    (lambda m: m[1].pop(), "cell 1 has 1 users"),
    # desk_config has users 0..9; neither end may wrap to a real row.
    (lambda m: m[0].__setitem__(1, -1), "user -1 is not served by cell 0"),
    (lambda m: m[0].__setitem__(1, 10), "user 10 is not served by cell 0"),
])
def test_run_trial_rejects_invalid_groups(monkeypatch, corrupt, match):
    import ckmsched.experiments as experiments

    schedule = experiments.random_schedule

    def broken(*args):
        group = schedule(*args)
        corrupt(group.members)
        return group

    monkeypatch.setattr(experiments, "random_schedule", broken)
    with pytest.raises(ScheduleError, match=match):
        run_trial(desk_config(), "random", 0)


def test_run_trial_counters_follow_the_algorithm():
    cfg = desk_config()
    L, K, N = cfg.n_cells, cfg.users_per_cell, cfg.n_antennas
    greedy = run_trial(cfg, "greedy", 0)
    assert greedy.csi_acquisitions == L * L * K
    assert greedy.info_exchange == L * L * K * N
    sus = run_trial(cfg, "sus", 0)
    assert sus.csi_acquisitions == L * K
    assert sus.info_exchange == 0
    ts = run_trial(cfg, "two_stage_gis", 0)
    assert ts.csi_acquisitions == 0
    assert ts.info_exchange == L * cfg.kprime
    rb = run_trial(cfg, "robust_gis", 0)
    assert rb.csi_acquisitions % L == 0


def test_greedy_mean_rate_beats_random():
    cfg = desk_config()
    wins = 0
    n = 60
    g_rates, r_rates = [], []
    for seed in range(n):
        g = run_trial(cfg, "greedy", seed).sum_rate
        r = run_trial(cfg, "random", seed).sum_rate
        g_rates.append(g)
        r_rates.append(r)
        wins += g > r
    assert np.mean(g_rates) > np.mean(r_rates)
    assert wins / n > 0.75


def test_rates_do_not_decrease_with_snr():
    seeds = range(6)
    means = []
    for snr in (0.0, 10.0, 20.0, 30.0):
        cfg = desk_config(target_snr_db=snr)
        means.append(np.mean([run_trial(cfg, "two_stage_aes", s).sum_rate
                              for s in seeds]))
    assert all(a <= b + 1e-12 for a, b in zip(means, means[1:]))
