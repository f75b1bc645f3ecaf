"""Fast paths against the slow references in tests/reference.py.

greedy_schedule ranks candidates in closed form and confirms picks whose
score band holds more than one candidate on the exact MMSE kernel;
brute_force_optimum scores every combination on that kernel and sums its
band exactly. These tests require the same members, the same
repr(sum_rate) and, for every confirmed pick, the same selection metric as
scoring every candidate exactly. Scenario construction, build_ckm,
place_users, multi-BS channel_rows, CSI fusion, AES, ICCS and SUS are
batched array code; they must equal the per-square, per-cluster, per-grid,
per-user and per-position paths bit for bit, the batch-seeded random
streams must equal one SeedSequence per key, the survey in grid blocks
must equal the one-shot survey, the bulk correlation CSV must equal one
csv.writer row per pair, a two-stage trial on run_trial's shared fusion
must equal one on a fresh fusion, whatever ran before it, and channel rows
synthesized on demand must equal one call over every user.
"""

import dataclasses
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckmsched import build_ckm, build_scenario, evaluation, experiments, scheduling
from ckmsched import ckm as ckm_module
from ckmsched.errors import OutOfClusterError
from ckmsched.evaluation import (
    PartialGroup,
    brute_force_optimum,
    calibrate_noise,
    candidate_rates,
    combination_count,
    evaluate_group,
    first_best,
)
from ckmsched.experiments import (
    cached_ckm,
    cached_scenario,
    place_users,
    run_trial,
    trial_channels,
)
from ckmsched.geometry import _TAG_JITTER, _seed_words, _seeded, _streams, channel_rows
from ckmsched.groups import UserGroup
from ckmsched.scheduling import (
    aes_select,
    fuse_effective_csi,
    gis_select,
    greedy_schedule,
    iccs_schedule,
    residual_metric,
    robust_two_stage,
    sus_schedule,
)

from conftest import csi_from_tables, desk_config, synthetic_chans
from reference import (
    aes_reference,
    brute_force_reference,
    channel_rows_reference,
    corr_csv_reference,
    dynamic_clusters_reference,
    evaluate_group_reference,
    fuse_reference,
    gis_reference,
    greedy_reference,
    iccs_reference,
    lattice_reference,
    locate_reference,
    map_survey_reference,
    one_shot_survey_reference,
    place_users_reference,
    sinr_reference,
    steering_mix_reference,
    sus_reference,
)
from test_acceptance import table_scale_config


def trial_instance(cfg, seed):
    """The channels and noise power run_trial uses for (cfg, seed)."""
    scenario = cached_scenario(cfg)
    users = place_users(scenario, seed)
    return trial_channels(scenario, users, seed + 1), calibrate_noise(scenario, cfg.target_snr_db)


def assert_same_greedy(chans, kbar, noise):
    fast, rate, gammas = greedy_schedule(chans, kbar, noise)
    slow = greedy_reference(chans, kbar, noise)
    assert fast.members == slow.members
    assert_exact_evaluation(fast, rate, gammas, chans, noise)
    assert [(m.user, m.cell, m.slot) for m in fast.meta] == [
        (m.user, m.cell, m.slot) for m in slow.meta
    ]
    # A pick confirmed exactly records the reference's exact rate; a pick
    # alone in its score band records the closed-form score that decided it.
    partial = PartialGroup(chans, noise)
    for pick, ref in zip(fast.meta, slow.meta):
        pool = [u for u in chans.ids_by_cell()[pick.cell]
                if u not in partial.members[pick.cell]]
        scores = candidate_rates(partial, pick.cell, pool)
        if scores is None or len(evaluation.score_band(scores, len(pool))) > 1:
            assert repr(pick.metric) == repr(ref.metric)
        else:
            assert repr(pick.metric) == repr(float(scores[pool.index(pick.user)]))
            assert math.isclose(pick.metric, ref.metric, rel_tol=1e-6, abs_tol=0.0)
        partial.add(pick.cell, pick.user)
    assert (repr(evaluate_group(fast, chans, noise)[0])
            == repr(evaluate_group(slow, chans, noise)[0]))
    return fast


def assert_same_brute_force(chans, kbar, noise):
    group, rate, gammas = brute_force_optimum(chans, kbar, noise)
    ref_group, ref_rate = brute_force_reference(chans, kbar, noise)
    assert group.members == ref_group.members
    assert repr(rate) == repr(ref_rate)
    assert_exact_evaluation(group, rate, gammas, chans, noise)
    return group


def assert_exact_evaluation(group, rate, gammas, chans, noise):
    # What a scheduler hands back is evaluate_group's result for its group.
    fresh_rate, fresh_gammas = evaluate_group(group, chans, noise)
    assert repr(rate) == repr(fresh_rate)
    assert list(gammas.items()) == list(fresh_gammas.items())


def random_chans(rng, users_per_cell, n_cells, n_antennas):
    n = users_per_cell * n_cells
    h = rng.normal(size=(n_cells, n, n_antennas)) + 1j * rng.normal(
        size=(n_cells, n, n_antennas)
    )
    return synthetic_chans(h, np.repeat(np.arange(n_cells), users_per_cell))


@pytest.fixture
def kernel_calls(monkeypatch):
    """Record the systems that every call of the exact MMSE kernel's
    noise-independent half prepares (_mmse_prepare), which evaluate_group,
    brute force and greedy's band confirmation all solve on: each call is a
    list of its systems, (BS, scheduled users in canonical order).
    evaluate_group prepares a group once per table.

    The references and assert_same_* score through evaluate_group too, so a
    test reads the list right after the fast scheduler returns and clears it
    before comparing against a reference."""
    calls = []
    prepare = evaluation._mmse_prepare

    def counted(h, bss, users, first, k):
        calls.append(list(zip(np.asarray(bss).tolist(), map(tuple, users.tolist()))))
        return prepare(h, bss, users, first, k)

    monkeypatch.setattr(evaluation, "_mmse_prepare", counted)
    return calls


def systems(calls):
    return [system for call in calls for system in call]


def canonical(group):
    return tuple(u for cell in sorted(group.members) for u in sorted(group.members[cell]))


@pytest.fixture
def gis_bands(monkeypatch):
    """Sizes of the row bands gis_select sums exactly (bands of two or more
    rows; a one-row band is the pick without a sum)."""
    sizes = []
    confirm = scheduling._gis_confirm

    def counted(m, band, alive):
        sizes.append(len(band))
        return confirm(m, band, alive)

    monkeypatch.setattr(scheduling, "_gis_confirm", counted)
    return sizes


# -- identical picks on the acceptance instances ------------------------------


def test_greedy_and_brute_force_match_the_references_on_desk_seeds():
    cfg = desk_config()
    for seed in range(200):
        chans, noise = trial_instance(cfg, seed)
        assert_same_greedy(chans, cfg.kbar, noise)
        assert_same_brute_force(chans, cfg.kbar, noise)


def test_greedy_matches_the_reference_at_table_scale():
    cfg = table_scale_config()
    for seed in range(10):
        chans, noise = trial_instance(cfg, seed)
        assert_same_greedy(chans, cfg.kbar, noise)


@pytest.mark.parametrize("snr_db", [50.0, 70.0])
def test_greedy_matches_the_reference_at_high_snr(snr_db):
    # Here a rank-one inverse update keeps the fewest correct digits, and
    # brute force ranks the largest gammas with np.log2.
    cfg = table_scale_config(target_snr_db=snr_db)
    for seed in range(3):
        chans, noise = trial_instance(cfg, seed)
        assert_same_greedy(chans, cfg.kbar, noise)
    cfg = desk_config(target_snr_db=snr_db)
    for seed in range(40):
        chans, noise = trial_instance(cfg, seed)
        assert_same_greedy(chans, cfg.kbar, noise)
        assert_same_brute_force(chans, cfg.kbar, noise)


def assert_same_group(fast, slow, chans, noise):
    assert fast.members == slow.members
    assert [(m.user, m.cell, m.slot, repr(m.metric), m.source) for m in fast.meta] == [
        (m.user, m.cell, m.slot, repr(m.metric), m.source) for m in slow.meta
    ]
    assert (repr(evaluate_group(fast, chans, noise)[0])
            == repr(evaluate_group(slow, chans, noise)[0]))


def assert_same_fusion(fast, slow):
    """Fused CSI equal to the per-user reference byte for byte: user i's
    gain, source and row of corr equal its entries of the full tables of
    its serving BS."""
    for name in ("gain", "corr", "source"):
        assert getattr(fast, name).shape == getattr(slow, name).shape, name
        assert getattr(fast, name).tobytes() == getattr(slow, name).tobytes(), name
    assert (fast.cells, fast.acquired) == (slow.cells, slow.acquired)


def test_one_user_cells_fuse_like_the_full_tables():
    # a one-row block would go through gemv and round differently
    cfg = desk_config(users_per_cell=1, kbar=1, kprime=1)
    for seed in range(10):
        chans, _ = trial_instance(cfg, seed)
        assert_same_fusion(fuse_effective_csi(cached_ckm(cfg), chans),
                           fuse_reference(cached_ckm(cfg), chans))


def two_stage_fallbacks(cfg, ckm, chans, noise):
    """Check fusion (on ckm and on its all-reliable thresholding), AES, GIS
    and ICCS on AES and GIS sets against the per-user references on one
    trial; returns the number of AES fallback users."""
    cells = range(cfg.n_cells)
    ids = [np.flatnonzero(chans.cell_of == l).tolist() for l in cells]
    aes_fallbacks = 0
    for m in (ckm, ckm.reclassify(None, 1.0)):
        fast = fuse_effective_csi(m, chans)
        slow = fuse_reference(m, chans)
        assert_same_fusion(fast, slow)
        aes = [aes_select(fast, l, cfg.kprime, cfg.alpha) for l in cells]
        for l, a in zip(cells, aes):
            ref = aes_reference(ids[l], slow, l, cfg.kprime, cfg.alpha)
            assert (a.cell, a.members, a.fallback) == (ref.cell, ref.members, ref.fallback)
            aes_fallbacks += len(a.fallback)
        gis = [gis_select(fast, l, cfg.kprime) for l in cells]
        for l, g in zip(cells, gis):
            assert g.members == gis_reference(ids[l], slow, l, cfg.kprime).members
        for sets in (aes, gis):
            assert_same_group(iccs_schedule(sets, fast, cfg.kbar),
                              iccs_reference(sets, slow, cfg.kbar), chans, noise)
    return aes_fallbacks


def two_stage_and_sus_fallbacks(cfg, seed):
    """two_stage_fallbacks on the trial of (cfg, seed), and SUS against its
    reference; returns the number of AES fallback users and SUS fallback
    picks."""
    chans, noise = trial_instance(cfg, seed)
    aes_fallbacks = two_stage_fallbacks(cfg, cached_ckm(cfg), chans, noise)
    sus = sus_schedule(chans, cfg.kbar, cfg.alpha)
    assert_same_group(sus, sus_reference(chans, cfg.kbar, cfg.alpha), chans, noise)
    return aes_fallbacks, sum(m.source == "fallback" for m in sus.meta)


@pytest.mark.parametrize("cfg, seeds, sus_refills", [
    (desk_config(), range(100), True),
    (table_scale_config(alpha=0.30), range(10), True),
    (table_scale_config(alpha=0.05), range(10), True),
    (table_scale_config(users_per_cell=200, kprime=40, placement="uniform"), range(3),
     False),
], ids=["desk", "table_alpha030", "table_alpha005", "dense_uniform"])
def test_two_stage_and_sus_match_the_per_user_references(
    cfg, seeds, sus_refills, gis_bands, cell_blocks
):
    aes, sus = np.sum([two_stage_and_sus_fallbacks(cfg, seed) for seed in seeds], axis=0)
    # every block the first stages read is a view of the fused table
    assert cell_blocks and all(cell_blocks)
    # the instances take the AES (and, but for dense, the SUS) refill path
    assert aes > 0
    assert (sus > 0) == sus_refills
    # users sharing a grid tie in GIS, so some bands hold several rows
    assert gis_bands and min(gis_bands) > 1


@pytest.fixture
def cell_blocks(monkeypatch):
    """For each in-cell block the first stages read, whether it shares
    memory with the fused table."""
    views = []
    block = scheduling._cell_block

    def recorded(csi, bs, need):
        ids, m = block(csi, bs, need)
        views.append(np.may_share_memory(m, csi.corr))
        return ids, m

    monkeypatch.setattr(scheduling, "_cell_block", recorded)
    return views


def test_channel_sets_refuse_users_not_numbered_cell_by_cell():
    # Fusion and the stages read each cell as one slice of ids, so a table
    # that numbers users otherwise is refused before any row is synthesized.
    def refused(ids):
        raise AssertionError(f"synthesized rows {ids.tolist()}")

    cfg = desk_config()
    chans, _ = trial_instance(cfg, 0)
    perm = np.arange(len(chans.cell_of)).reshape(cfg.n_cells, -1).T.ravel()
    beyond, negative = chans.cell_of.copy(), chans.cell_of.copy()
    beyond[-1] = cfg.n_cells
    negative[0] = -1
    for cell_of in (chans.cell_of[perm], beyond, negative):
        with pytest.raises(ValueError, match="numbered cell by cell"):
            dataclasses.replace(chans, cell_of=cell_of, synthesize=refused)


@pytest.mark.parametrize("cfg", [
    desk_config(), desk_config(placement="clustered"), table_scale_config(),
    table_scale_config(users_per_cell=200, kprime=40, placement="uniform"),
], ids=["desk_uniform", "desk_clustered", "table", "dense"])
def test_place_users_numbers_users_cell_by_cell(cfg):
    layout = np.repeat(np.arange(cfg.n_cells), cfg.users_per_cell).tolist()
    scenario = cached_scenario(cfg)
    for seed in range(200):
        assert [u.cell for u in place_users(scenario, seed)] == layout


def test_iccs_records_the_residual_metric_of_each_pick():
    # At dense scale up to 14 users are placed, so the load sums take
    # numpy's unrolled pairwise path, which depends on the block's layout.
    dense = table_scale_config(users_per_cell=200, kprime=40, placement="uniform")
    for cfg, seeds in ((desk_config(), range(10)), (dense, range(1))):
        for seed in seeds:
            chans, _ = trial_instance(cfg, seed)
            cells = range(cfg.n_cells)
            for m in (cached_ckm(cfg), cached_ckm(cfg).reclassify(None, 1.0)):
                csi = fuse_effective_csi(m, chans)
                for sets in ([aes_select(csi, l, cfg.kprime, cfg.alpha) for l in cells],
                             [gis_select(csi, l, cfg.kprime) for l in cells]):
                    assert_residual_metric_picks(iccs_schedule(sets, csi, cfg.kbar), sets, csi)


def assert_residual_metric_picks(group, sets, csi):
    """Each pick is the first maximum, in ascending id order, of
    residual_metric over its cell's candidates left, against every user
    placed before it, and records that score."""
    left = {a.cell: sorted(a.members) for a in sets}
    placed = []
    for pick in group.meta:
        pool = left[pick.cell]
        # np.ix_ gathers the (pool, placed) block C-contiguous.
        mu = residual_metric(csi.gain[pool], csi.corr[np.ix_(pool, placed)])
        assert pick.user == pool[int(np.argmax(mu))]
        assert repr(pick.metric) == repr(float(mu[pool.index(pick.user)]))
        pool.remove(pick.user)
        placed.append(pick.user)


def tied_table(rng, n, pairs, jitter):
    """Symmetric unit-diagonal correlation table in which each pair (i, j)
    shares its row exactly (rho_ij = 1), then every off-diagonal entry moved
    by up to jitter: near ties far inside gis_select's band."""
    m = np.triu(rng.uniform(0.0, 0.6, size=(n, n)), 1)
    m += m.T
    np.fill_diagonal(m, 1.0)
    for i, j in pairs:
        m[j] = m[i]
        m[:, j] = m[:, i]
    e = np.triu(rng.uniform(-jitter, jitter, size=(n, n)), 1)
    return np.clip(m + e + e.T, 0.0, 1.0)


@pytest.mark.parametrize("jitter", [0.0, 1e-13], ids=["exact_duplicates", "near_ties"])
def test_gis_band_confirmation_matches_the_reference_on_ties(gis_bands, jitter):
    rng = np.random.default_rng(5)
    n = 30
    ids = list(range(n))
    for _ in range(40):
        pairs = rng.choice(n, size=(6, 2), replace=False)
        table = tied_table(rng, n, pairs, jitter)
        csi = csi_from_tables([np.ones(n)], [table])
        for kprime in (1, 5, 12):
            assert (gis_select(csi, 0, kprime).members
                    == gis_reference(ids, csi, 0, kprime).members)
    assert gis_bands and min(gis_bands) > 1


# -- exact ties and the guard ---------------------------------------------------


def duplicated_chans():
    # Users 1 and 2 share every channel row and are the strongest in cell 0,
    # so every score involving one of them ties exactly with the other.
    rng = np.random.default_rng(8)
    h = rng.normal(size=(2, 6, 3)) + 1j * rng.normal(size=(2, 6, 3))
    h[:, 1] *= 3.0
    h[:, 2] = h[:, 1]
    return synthetic_chans(h, [0, 0, 0, 1, 1, 1])


def test_greedy_breaks_exact_ties_by_lowest_id(kernel_calls):
    chans = duplicated_chans()
    group, _, _ = greedy_schedule(chans, 2, 0.5)
    # the first pick was confirmed by scoring both tied candidates exactly
    assert kernel_calls[0] == [(0, (1,)), (0, (2,))]
    kernel_calls.clear()
    assert assert_same_greedy(chans, 2, 0.5).members == group.members
    first = group.meta[0]
    assert (first.cell, first.user) == (0, 1)
    assert 2 not in group.members[0]


def test_tie_free_greedy_evaluates_the_group_once(kernel_calls):
    # Every band of a table-scale seed-0 trial holds one candidate, so the
    # only exact evaluation is the whole group's, at the end: one system
    # per BS.
    cfg = table_scale_config()
    chans, noise = trial_instance(cfg, 0)
    group, rate, gammas = greedy_schedule(chans, cfg.kbar, noise)
    assert sorted(systems(kernel_calls)) == [(c, canonical(group)) for c in range(cfg.n_cells)]
    kernel_calls.clear()
    assert_exact_evaluation(group, rate, gammas, chans, noise)


def test_inverse_update_guard_inverts_again_at_high_snr(monkeypatch):
    reinverted = []
    invert = PartialGroup._invert

    def counted(self, bss):
        if any(self.members.values()):
            reinverted.append(len(bss))
        return invert(self, bss)

    monkeypatch.setattr(PartialGroup, "_invert", counted)
    cfg = table_scale_config(target_snr_db=70.0)
    chans, noise = trial_instance(cfg, 0)
    group, _, _ = greedy_schedule(chans, cfg.kbar, noise)
    assert reinverted
    assert group.members == greedy_reference(chans, cfg.kbar, noise).members


def partial_group(chans, members, noise):
    group = PartialGroup(chans, noise)
    for cell, served in members.items():
        for uid in served:
            group.add(cell, uid)
    return group


def test_partial_group_updates_match_a_fresh_inversion_and_evaluation():
    rng = np.random.default_rng(6)
    for noise in (0.05, 1.0):
        chans = random_chans(rng, 4, 3, 5)
        group = PartialGroup(chans, noise)
        for uid in (0, 5, 9, 1, 11):
            group.add(int(chans.cell_of[uid]), uid)
            placed = [u for served in group.members.values() for u in served]
            for c in range(3):
                s = chans.h[c, placed]
                fresh = np.linalg.inv(s.T @ s.conj() + noise * np.eye(5))
                assert np.allclose(group.r_inv[c], fresh, rtol=1e-12, atol=1e-12 / noise)
            _, gammas = evaluate_group(UserGroup(members=group.members), chans, noise)
            for c, served in group.members.items():
                want = [1.0 / (1.0 + gammas[u]) for u in served]
                assert np.allclose(group.resid[c], want, rtol=1e-12, atol=0.0)


def test_brute_force_breaks_exact_ties_by_lowest_selection(kernel_calls, monkeypatch):
    bands = []
    pick = evaluation.first_best

    def recorded(users, gammas, band):
        bands.append([tuple(users[i].tolist()) for i in band])
        return pick(users, gammas, band)

    monkeypatch.setattr(evaluation, "first_best", recorded)
    chans = duplicated_chans()
    group, rate, _ = brute_force_optimum(chans, 1, 0.5)
    # both tied groups reached the exact pick rule, and the winner was
    # solved once per BS
    winner = canonical(group)
    tied = tuple(2 if u == 1 else u for u in winner)
    assert {winner, tied} <= set(bands[0])
    assert [system for system in systems(kernel_calls) if system[1] == winner] == [
        (0, winner), (1, winner)]
    kernel_calls.clear()
    assert group.members[0] == [1]
    assert [m.metric for m in group.meta] == [
        evaluate_group(group, chans, 0.5)[1][m.user] for m in group.meta
    ]
    assert assert_same_brute_force(chans, 1, 0.5).members == group.members


def test_run_trial_reuses_the_exact_evaluation_of_greedy_and_brute_force(monkeypatch):
    # Both schedulers hand back evaluate_group's result for their group, so
    # run_trial does not evaluate it again; the other schedulers still do.
    cfg = desk_config()
    fresh = {}
    for algorithm in ("greedy", "brute_force"):
        for seed in range(5):
            fresh[algorithm, seed] = run_trial(cfg, algorithm, seed)
            chans, noise = trial_instance(cfg, seed)
            rate, gammas = evaluate_group(fresh[algorithm, seed].group, chans, noise)
            assert repr(fresh[algorithm, seed].sum_rate) == repr(rate)
            assert list(fresh[algorithm, seed].per_user_sinr.items()) == list(gammas.items())

    def refused(*args):
        raise AssertionError("evaluated again")

    monkeypatch.setattr(experiments, "evaluate_group", refused)
    for (algorithm, seed), result in fresh.items():
        assert run_trial(cfg, algorithm, seed) == result
    with pytest.raises(AssertionError, match="evaluated again"):
        run_trial(cfg, "sus", 0)


def all_reliable(cfg):
    """The survey of cfg's key with every grid reliable."""
    return cached_ckm(cfg).reclassify(None, 1.0)


# First stage and map of each two-stage algorithm.
TWO_STAGE = {
    "two_stage_aes": ("aes", all_reliable),
    "two_stage_gis": ("gis", all_reliable),
    "robust_aes": ("aes", cached_ckm),
    "robust_gis": ("gis", cached_ckm),
}
# 200 users per cell, as in the dense_two_stage benchmark workload.
DENSE = table_scale_config(users_per_cell=200, kprime=40, placement="uniform")


def assert_fresh_two_stage(result, cfg, seed):
    """result equals a fresh fusion and two-stage run on (cfg, seed): members,
    selection records, repr(sum_rate) and counters."""
    first_stage, map_of = TWO_STAGE[result.algorithm]
    chans, noise = trial_instance(cfg, seed)
    group, counters = robust_two_stage(
        fuse_effective_csi(map_of(cfg), chans),
        cfg.kprime, cfg.kbar, cfg.alpha, first_stage=first_stage,
    )
    assert_same_group(result.group, group, chans, noise)
    assert repr(result.sum_rate) == repr(evaluate_group(group, chans, noise)[0])
    assert (result.csi_acquisitions, result.info_exchange) == (
        counters["csi_acquisitions"], counters["info_exchange"])


@pytest.mark.parametrize("cfg", [
    desk_config(),
    table_scale_config(users_per_cell=200, kprime=40, placement="uniform"),
], ids=["desk", "dense"])
def test_two_stage_trials_equal_a_fresh_fusion_after_any_scheduler(cfg, empty_memo):
    seed = 2
    before = [None, *experiments.ALGORITHMS]
    if cfg.users_per_cell > 5:
        before.remove("brute_force")  # beyond its enumeration budget
    for algorithm in TWO_STAGE:
        for earlier in before:
            empty_memo()
            if earlier is not None:
                run_trial(cfg, earlier, seed)
            assert_fresh_two_stage(run_trial(cfg, algorithm, seed), cfg, seed)


@pytest.mark.parametrize("other", [dict(eta=0.0), dict(eta=None, delta=0.0)],
                         ids=["eta", "delta"])
def test_configs_that_differ_in_a_threshold_fuse_apart(other):
    cfg = desk_config(dynamic_grid_fraction=1.0)
    cfg2 = desk_config(dynamic_grid_fraction=1.0, **other)
    run_trial(cfg, "robust_aes", 0)
    first = experiments._map_trial[1].csi
    run_trial(cfg2, "robust_aes", 0)
    second = experiments._map_trial[1].csi
    assert first is not second
    assert first.acquired != second.acquired
    for c in (cfg, cfg2, cfg):
        assert_fresh_two_stage(run_trial(c, "robust_gis", 0), c, 0)


def test_memoized_fusion_is_read_only():
    run_trial(desk_config(), "robust_aes", 1)
    csi = experiments._map_trial[1].csi
    for arr in (csi.gain, csi.corr, csi.source):
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = arr[(0,) * arr.ndim]


def test_two_stage_schedulers_of_one_seed_share_a_fusion(monkeypatch, empty_memo):
    calls = []

    def counted(ckm, chans):
        calls.append(ckm.realized_eta())
        return fuse_effective_csi(ckm, chans)

    monkeypatch.setattr(experiments, "fuse_effective_csi", counted)
    cfg = desk_config()
    for algorithm in ("two_stage_aes", "two_stage_gis"):
        run_trial(cfg, algorithm, 4)
    assert calls == [1.0]
    for algorithm in ("robust_aes", "robust_gis", "two_stage_aes"):
        run_trial(cfg, algorithm, 4)
    run_trial(cfg, "two_stage_aes", 5)
    assert calls == [1.0, 0.7, 1.0, 1.0]


def test_points_that_differ_in_snr_share_a_decision_and_copy_its_group(monkeypatch,
                                                                       empty_memo):
    # Fusion reads no noise power, kbar, kprime or alpha, and the two stages
    # no noise power: the points of an SNR sweep share one fusion and one
    # robust_two_stage decision per seed, and each is evaluated at its own
    # noise power. Every result holds its own copy
    # of the group, so mutating one leaves the next point's a fresh run's.
    decisions = []
    two_stage = experiments.robust_two_stage

    def counted(csi, *args, first_stage):
        decisions.append(first_stage)
        return two_stage(csi, *args, first_stage=first_stage)

    monkeypatch.setattr(experiments, "robust_two_stage", counted)
    cfgs = [desk_config(target_snr_db=snr) for snr in (0.0, 10.0, 20.0)]
    other = dataclasses.replace(cfgs[0], kbar=1, kprime=3, alpha=0.9)
    run_trial(other, "robust_aes", 3)
    fusion = experiments._map_trial[1].csi
    for algorithm in ("robust_aes", "two_stage_gis"):
        results = []
        for cfg in cfgs:
            result = run_trial(cfg, algorithm, 3)
            assert_fresh_two_stage(result, cfg, 3)
            results.append(result)
            result.group.members[0].append(99)
            result.group.meta[0].user = -1
            result.group.meta.pop()
        assert len({repr(r.sum_rate) for r in results}) == len(cfgs)
        if algorithm == "robust_aes":
            assert experiments._map_trial[1].csi is fusion
    assert decisions == ["aes", "aes", "gis"]


def test_a_decision_hit_places_and_synthesizes_nothing(monkeypatch, empty_memo):
    # The first point of a seed evaluated the group on the trial's rows, so
    # a later point whose decision hits places no users and synthesizes no
    # row, and still equals a fresh run.
    calls = []

    def counted(name, inner):
        def wrapper(*args):
            calls.append(name)
            return inner(*args)
        return wrapper

    for name in ("place_users", "trial_channels", "channel_rows"):
        monkeypatch.setattr(experiments, name, counted(name, getattr(experiments, name)))
    for cfg in (desk_config(), DENSE):
        for algorithm in TWO_STAGE:
            first, later = (dataclasses.replace(cfg, target_snr_db=snr) for snr in (10.0, 25.0))
            assert_fresh_two_stage(run_trial(first, algorithm, 6), first, 6)
            calls.clear()
            result = run_trial(later, algorithm, 6)
            assert calls == []
            assert_fresh_two_stage(result, later, 6)


def test_the_memo_holds_at_most_one_trial(monkeypatch, empty_memo):
    # A new map-driven trial is placed only after the last one is released,
    # channels, fusion and decisions, so no two are held at once. Every
    # map-driven scheduler of a seed shares its trial, on either map. The
    # other schedulers place their own users beside it and leave it in place.
    held, alive = [], []
    place = experiments.place_users

    def checked(scenario, trial_seed):
        alive.append([ref() is not None for ref in held])
        return place(scenario, trial_seed)

    monkeypatch.setattr(experiments, "place_users", checked)
    cfg = desk_config()
    for algorithm, seed in (("robust_aes", 0), ("greedy", 0), ("robust_gis", 0),
                            ("two_stage_aes", 0), ("two_stage_aes", 1)):
        run_trial(cfg, algorithm, seed)
        chans = experiments._map_trial[1]
        if not any(ref() is chans for ref in held):
            held.append(weakref.ref(chans))
        del chans
    assert alive == [[], [True], [False]]


def test_a_scored_group_state_goes_with_its_trial(monkeypatch, empty_memo):
    # The memo's table keeps the noise-independent state of the groups
    # scored on it; once run_trial moves the memo to another seed, neither
    # the previous seed's table nor any state prepared on it is held.
    held = []
    prepare = evaluation._mmse_prepare

    def kept(*args):
        systems = prepare(*args)
        held.append(weakref.ref(systems[1]))
        return systems

    monkeypatch.setattr(evaluation, "_mmse_prepare", kept)
    cfg = desk_config()
    run_trial(cfg, "robust_aes", 0)
    run_trial(dataclasses.replace(cfg, target_snr_db=10.0), "robust_aes", 0)
    held.append(weakref.ref(experiments._map_trial[1]))
    assert len(held) == 2 and all(ref() is not None for ref in held)
    run_trial(cfg, "robust_aes", 1)
    assert all(ref() is None for ref in held[:2])


def test_a_two_stage_scheduler_decides_on_the_table_it_is_handed(empty_memo):
    # The memo holds seed 0's table; a table of the same users at another
    # realization, handed to the scheduler directly, carries its own fusion
    # and decision, those of a fresh run on it, and the memo's table keeps its own.
    cfg = desk_config(dynamic_grid_fraction=1.0)
    run_trial(cfg, "robust_aes", 0)
    memo = experiments._map_trial[1]
    scenario = cached_scenario(cfg)
    noise = calibrate_noise(scenario, cfg.target_snr_db)
    chans = trial_channels(scenario, place_users(scenario, 0), 5)
    group, counters, _ = experiments._SCHEDULERS["robust_aes"](cfg, 0, chans, noise)
    assert experiments._map_trial[1] is memo and chans is not memo
    fresh_chans = trial_channels(scenario, place_users(scenario, 0), 5)
    fresh = fuse_effective_csi(cached_ckm(cfg), fresh_chans)
    assert chans.fusion_key is cached_ckm(cfg)
    assert_same_fusion(chans.csi, fresh)
    assert chans.csi.acquired and memo.csi.gain.tobytes() != chans.csi.gain.tobytes()
    fresh_group, fresh_counters = robust_two_stage(fresh, cfg.kprime, cfg.kbar, cfg.alpha,
                                                   first_stage="aes")
    assert list(chans.decisions) == [("aes", cfg.kprime, cfg.kbar, cfg.alpha)]
    decided, decided_counters = chans.decisions["aes", cfg.kprime, cfg.kbar, cfg.alpha]
    for made in (group, decided):
        assert_same_group(made, fresh_group, fresh_chans, noise)
    assert counters == decided_counters == fresh_counters


def test_a_new_fusion_key_releases_the_old_fusion_first(monkeypatch, empty_memo):
    # A seed's trial holds one fusion: a change of map frees the old fusion,
    # and its decisions, before the new one is made.
    held, alive = [], []
    fuse = experiments.fuse_effective_csi

    def checked(ckm, chans):
        alive.append([ref() is not None for ref in held])
        csi = fuse(ckm, chans)
        held.append(weakref.ref(csi))
        return csi

    monkeypatch.setattr(experiments, "fuse_effective_csi", checked)
    cfg, other = desk_config(), desk_config(eta=0.0)
    for c, algorithm in ((cfg, "two_stage_aes"), (cfg, "robust_aes"), (cfg, "robust_gis"),
                         (other, "robust_gis"), (cfg, "two_stage_gis")):
        assert_fresh_two_stage(run_trial(c, algorithm, 0), c, 0)
    assert alive == [[], [False], [False, False], [False, False, False]]


@pytest.mark.parametrize("cfg", [desk_config(), DENSE], ids=["desk", "dense"])
def test_both_fusion_modes_of_a_seed_share_its_placement(cfg, monkeypatch, empty_memo):
    calls = []

    def counted(name, inner):
        def wrapper(*args):
            calls.append(name)
            return inner(*args)
        return wrapper

    for name in ("place_users", "trial_channels"):
        monkeypatch.setattr(experiments, name, counted(name, getattr(experiments, name)))
    assert_fresh_two_stage(run_trial(cfg, "two_stage_aes", 1), cfg, 1)
    assert calls == ["place_users", "trial_channels"]
    calls.clear()
    result = run_trial(cfg, "robust_aes", 1)
    assert calls == []
    assert_fresh_two_stage(result, cfg, 1)


def test_interleaved_fusion_modes_equal_fresh_runs(monkeypatch, empty_memo):
    # Each change of map fuses anew on the seed's one placement.
    maps = []
    fuse = experiments.fuse_effective_csi

    def counted(ckm, chans):
        maps.append(ckm.realized_eta())
        return fuse(ckm, chans)

    monkeypatch.setattr(experiments, "fuse_effective_csi", counted)
    cfg = desk_config(dynamic_grid_fraction=1.0)
    algorithms = ("two_stage_aes", "robust_aes", "two_stage_gis", "robust_gis")
    for algorithm in algorithms:
        assert_fresh_two_stage(run_trial(cfg, algorithm, 3), cfg, 3)
    assert maps == [TWO_STAGE[a][1](cfg).realized_eta() for a in algorithms] == [
        1.0, 0.7, 1.0, 0.7]


def test_robust_at_eta_one_shares_the_map_only_fusion(monkeypatch, empty_memo):
    # At eta = 1 config's own map is the all-reliable one, so robust_aes
    # finds two_stage_aes's fusion and decision and gives its result.
    maps = []
    fuse = experiments.fuse_effective_csi

    def counted(ckm, chans):
        maps.append(ckm)
        return fuse(ckm, chans)

    monkeypatch.setattr(experiments, "fuse_effective_csi", counted)
    cfg = desk_config(eta=1.0)
    baseline = run_trial(cfg, "two_stage_aes", 2)
    robust = run_trial(cfg, "robust_aes", 2)
    assert len(maps) == 1
    assert dataclasses.replace(robust, algorithm="two_stage_aes") == baseline
    assert_fresh_two_stage(robust, cfg, 2)


def test_high_sinr_falls_back_to_exact_scoring(kernel_calls):
    # At SINR ~1e9 the closed form's 1 - a loses too many digits to rank.
    chans = synthetic_chans(
        [[[1.0, 0.1], [0.2, 1.0], [0.7, 0.7], [1.0, -0.3]]], [0, 0, 0, 0]
    )
    noise = 1e-9
    assert candidate_rates(PartialGroup(chans, noise), 0, [0, 1, 2, 3]) is None
    group, _, _ = greedy_schedule(chans, 2, noise)
    # every candidate of both slots was scored exactly by the scheduler
    assert len(systems(kernel_calls)) >= 4 + 3
    kernel_calls.clear()
    assert assert_same_greedy(chans, 2, noise).members == group.members
    assert_same_brute_force(chans, 2, noise)


# -- the closed form against the public reference path --------------------------


def test_closed_form_sinr_matches_mmse_receiver_and_sinr():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n_ant = int(rng.integers(2, 6))
        chans = random_chans(rng, 4, 2, n_ant)
        noise = float(rng.uniform(0.05, 2.0))
        k = int(rng.integers(1, 4))
        group = UserGroup(members={0: [0, 1, 2, 3][:k], 1: [4, 5, 6, 7][:k]})
        ref = sinr_reference(group, chans, noise)
        _, gammas = evaluate_group(group, chans, noise)
        everyone = [u for cell in sorted(group.members) for u in group.members[cell]]
        for cell, served in group.members.items():
            s = chans.h[cell, everyone]
            r_inv = np.linalg.inv(s.T @ s.conj() + noise * np.eye(n_ant))
            for uid in served:
                h = chans.h[cell, uid]
                a = np.vdot(h, r_inv @ h).real
                assert a / (1.0 - a) == pytest.approx(ref[uid], rel=1e-9)
                assert gammas[uid] == pytest.approx(ref[uid], rel=1e-9)


@pytest.mark.parametrize("snr_db", [20.0, 30.0])
def test_greedy_scores_lie_inside_half_the_band_of_their_exact_rates(snr_db):
    # best_addition confirms only the band around the top score, which is safe
    # while every score errs by less than half the band's width.
    cfg = table_scale_config(target_snr_db=snr_db)
    for seed in range(3):
        chans, noise = trial_instance(cfg, seed)
        group, _, _ = greedy_schedule(chans, cfg.kbar, noise)
        partial = PartialGroup(chans, noise)
        for pick in group.meta:
            pool = [u for u in chans.ids_by_cell()[pick.cell]
                    if u not in partial.members[pick.cell]]
            score = candidate_rates(partial, pick.cell, pool)[pool.index(pick.user)]
            partial.add(pick.cell, pick.user)
            exact = evaluate_group(UserGroup(members=partial.members), chans, noise)[0]
            assert abs(score - exact) <= evaluation._SCORE_BAND / 2 * exact


def test_candidate_rates_match_exact_sum_rates():
    rng = np.random.default_rng(4)
    for _ in range(20):
        chans = random_chans(rng, 5, 3, 4)
        noise = float(rng.uniform(0.1, 1.0))
        members = {0: [0], 1: [5, 6], 2: []}
        cell = int(rng.integers(0, 3))
        pool = [u for u in range(5 * cell, 5 * cell + 5) if u not in members[cell]]
        fast = candidate_rates(partial_group(chans, members, noise), cell, pool)
        for score, uid in zip(fast, pool):
            trial = {c: list(v) for c, v in members.items()}
            trial[cell].append(uid)
            exact = evaluate_group(UserGroup(members=trial), chans, noise)[0]
            assert math.isclose(score, exact, rel_tol=1e-9)


# -- the batched exact evaluator against the per-BS loop ----------------------


def assorted_groups(rng, chans, kbar):
    """Full kbar groups, partial groups whose cells schedule unequal counts
    (none at all, or leave the members), one-cell groups and the empty
    group, members in random order."""
    bycell = chans.ids_by_cell()

    def pick(cell, k):
        return rng.permutation(bycell[cell])[:k].tolist()

    groups = [UserGroup(members={c: pick(c, kbar) for c in bycell}) for _ in range(3)]
    for _ in range(8):
        groups.append(UserGroup(members={
            c: pick(c, int(rng.integers(0, kbar + 2))) for c in bycell if rng.random() < 0.8}))
    groups += [UserGroup(members={c: pick(c, kbar)}) for c in bycell]
    groups.append(UserGroup(members={}))
    return groups


EVALUATION_CASES = {
    "desk": (desk_config(), 6),
    "table": (table_scale_config(), 2),
    "dense": (DENSE, 1),
    "one_user_cells": (desk_config(users_per_cell=1, kbar=1, kprime=1), 4),
    "desk_70db": (desk_config(target_snr_db=70.0), 4),
    "table_70db": (table_scale_config(target_snr_db=70.0), 1),
}


@pytest.mark.parametrize("name", sorted(EVALUATION_CASES))
def test_batched_evaluation_matches_the_per_bs_loop(name):
    # The groups span several (served, scheduled) shapes; each group's
    # (rate, gammas) must be the per-BS loop's, bit for bit.
    cfg, seeds = EVALUATION_CASES[name]
    rng = np.random.default_rng(17)
    for seed in range(seeds):
        chans, noise = trial_instance(cfg, seed)
        groups = assorted_groups(rng, chans, cfg.kbar)
        shapes = {(len(served), sum(map(len, g.members.values())))
                  for g in groups for served in g.members.values() if served}
        assert len(shapes) >= (2 if cfg.users_per_cell == 1 else 4)
        for group in groups:
            want = repr(evaluate_group_reference(group, chans, noise))
            assert repr(evaluate_group(group, chans, noise)) == want


def test_evaluation_solves_each_served_count_in_one_kernel_call(kernel_calls):
    # A full group is one call over every BS; a group whose cells serve
    # unequal counts is one call per distinct count, its BSs ascending.
    cfg = desk_config(n_cells=3, users_per_cell=4)
    chans, noise = trial_instance(cfg, 0)
    bycell = chans.ids_by_cell()
    full = UserGroup(members={c: ids[:cfg.kbar] for c, ids in bycell.items()})
    evaluate_group(full, chans, noise)
    assert kernel_calls == [[(c, canonical(full)) for c in range(cfg.n_cells)]]
    kernel_calls.clear()
    uneven = UserGroup(members={0: bycell[0][:1], 1: bycell[1][:3], 2: bycell[2][:1]})
    evaluate_group(uneven, chans, noise)
    users = canonical(uneven)
    assert kernel_calls == [[(0, users), (2, users)], [(1, users)]]


def assert_rescored_like_fresh_tables(kernel_calls, chans, fresh_chans, groups, noises):
    # Each group is scored at every noise in turn on one table: each
    # scoring equals a fresh table's at that noise, and only a group's
    # first scoring on the table prepares its systems.
    scored = set()
    for noise in noises:
        for group in groups:
            kernel_calls.clear()
            rate, gammas = evaluate_group(group, chans, noise)
            assert (kernel_calls == []) == (canonical_cells(group) in scored)
            scored.add(canonical_cells(group))
            kernel_calls.clear()
            fresh_rate, fresh_gammas = evaluate_group(group, fresh_chans(), noise)
            assert repr(rate) == repr(fresh_rate)
            assert list(gammas.items()) == list(fresh_gammas.items())


def canonical_cells(group):
    return tuple((c, tuple(sorted(group.members[c]))) for c in sorted(group.members))


def test_a_group_scored_again_on_its_table_equals_a_fresh_scoring(kernel_calls):
    # The table keeps each scored group's noise-independent state, so a
    # group scored at one noise and then another prepares nothing the
    # second time and equals a fresh table's scoring at the second noise:
    # a full group and one whose cells serve unequal counts.
    cfg = desk_config(n_cells=3, users_per_cell=4)
    chans, noise = trial_instance(cfg, 0)
    bycell = chans.ids_by_cell()
    groups = [UserGroup(members={c: ids[:cfg.kbar] for c, ids in bycell.items()}),
              UserGroup(members={0: bycell[0][:1], 1: bycell[1][:3], 2: bycell[2][:1]})]
    assert_rescored_like_fresh_tables(kernel_calls, chans, lambda: trial_instance(cfg, 0)[0],
                                      groups, [noise, 10.0 * noise, noise])


def test_the_same_ids_in_other_cells_are_other_groups(kernel_calls):
    # A group's state is kept under its cells and their members, not its
    # ids alone: users 0, 1 and 2 scheduled in other cells are other MMSE
    # systems, each scored like on a fresh table, also when scored again.
    chans = random_chans(np.random.default_rng(9), 2, 2, 3)

    def fresh():
        return synthetic_chans(chans.h, chans.cell_of)

    groups = [UserGroup(members={0: [0, 1], 1: [2]}),
              UserGroup(members={0: [0], 1: [1, 2]}),
              UserGroup(members={0: [1, 0], 1: [2]})]
    assert_rescored_like_fresh_tables(kernel_calls, chans, fresh, groups, [0.5, 0.05])
    one, other, _ = (evaluate_group(g, fresh(), 0.5) for g in groups)
    assert one[0] != other[0]


def test_first_best_keeps_the_first_strict_maximum_of_its_band():
    # log2(1 + gamma) sums: row rates 1, 3, 3, 2, 3 (user 10 adds 0).
    users = np.array([[2, 10], [4, 10], [5, 10], [7, 10], [9, 10]])
    gammas = np.array([[1.0, 0.0], [7.0, 0.0], [7.0, 0.0], [3.0, 0.0], [7.0, 0.0]])
    i, best = first_best(users, gammas, np.arange(5))
    assert (i, best) == (1, (3.0, {4: 7.0, 10: 0.0})) and type(i) is int
    assert first_best(users, gammas, np.array([0, 3])) == (3, (2.0, {7: 3.0, 10: 0.0}))
    assert first_best(users, gammas, range(2, 3)) == (2, (3.0, {5: 7.0, 10: 0.0}))
    # A later strict maximum wins over earlier ones.
    gammas[4, 0] = 15.0
    assert first_best(users, gammas, range(5)) == (4, (4.0, {9: 15.0, 10: 0.0}))


def test_brute_force_confirms_in_blocks(kernel_calls, monkeypatch):
    # The kernel scores every combination at every BS, also at 70 dB, and
    # blocks of 7 must find the default's pick.
    cfg = desk_config(target_snr_db=70.0)
    chans, noise = trial_instance(cfg, 0)
    group, rate, gammas = brute_force_optimum(chans, cfg.kbar, noise)
    n_combos = combination_count([cfg.users_per_cell] * cfg.n_cells, cfg.kbar)
    scored = systems(kernel_calls)
    assert len(set(scored)) == len(scored) == cfg.n_cells * n_combos
    assert n_combos % 7 and n_combos > 7
    kernel_calls.clear()
    monkeypatch.setattr(evaluation, "_BLOCK", 7)
    small = brute_force_optimum(chans, cfg.kbar, noise)
    assert sorted(systems(kernel_calls)) == sorted(scored)
    assert [len(call) for call in kernel_calls] == (
        [7] * (cfg.n_cells * (n_combos // 7)) + [n_combos % 7] * cfg.n_cells)
    kernel_calls.clear()
    assert small[0].members == group.members
    assert repr(small[1:]) == repr((rate, gammas))
    assert assert_same_brute_force(chans, cfg.kbar, noise).members == group.members


# -- batched scenario, map survey, channel synthesis and placement -----------


@pytest.mark.parametrize("cfg", [
    desk_config(),
    table_scale_config(),
    desk_config(dynamic_grid_fraction=1.0),
    desk_config(dynamic_grid_fraction=0.0),
    desk_config(n_cells=1, kbar=1, kprime=2),
    desk_config(n_cells=5, kbar=1, kprime=2),
], ids=["desk", "table", "desk_all_dynamic", "desk_static", "one_cell", "five_cells"])
def test_scenario_matches_the_per_square_and_per_cluster_references(cfg):
    scenario = build_scenario(cfg)
    centers, serving, lattice = lattice_reference(scenario)
    assert scenario.grid_centers.tobytes() == centers.tobytes()
    assert scenario.grid_serving.tobytes() == serving.tobytes()
    assert scenario._lattice.tobytes() == lattice.tobytes()
    assert scenario._lattice.shape == lattice.shape
    static_mix, dyn_mix = steering_mix_reference(scenario)
    assert scenario.static_mix.shape == static_mix.shape
    assert scenario.dyn_mix.shape == dyn_mix.shape
    assert scenario.static_mix.tobytes() == static_mix.tobytes()
    assert scenario.dyn_mix.tobytes() == dyn_mix.tobytes()


@pytest.mark.parametrize("cfg", [
    desk_config(),
    desk_config(dynamic_grid_fraction=1.0),
    table_scale_config(),
], ids=["desk", "desk_all_dynamic", "table"])
def test_map_survey_matches_the_per_grid_reference(cfg):
    scenario = build_scenario(cfg)
    ckm = build_ckm(scenario)
    h_bar, epsilon, sigma, reliable, delta = map_survey_reference(
        scenario, cfg.samples_per_grid, cfg.eta
    )
    assert ckm.h_bar.tobytes() == h_bar.tobytes()
    assert ckm.epsilon.tobytes() == epsilon.tobytes()
    assert ckm.sigma.tobytes() == sigma.tobytes()
    assert np.array_equal(ckm.reliable, reliable)
    assert repr(ckm.delta) == repr(delta)


@pytest.mark.parametrize("cfg, block", [
    (desk_config(), None), (desk_config(), 7), (desk_config(), 1),
    (table_scale_config(), None), (table_scale_config(), 100), (table_scale_config(), 1),
], ids=["desk", "desk_block7", "desk_block1", "table", "table_block100", "table_block1"])
def test_blocked_survey_matches_the_one_shot_survey(cfg, block, monkeypatch):
    if block is None:
        block = ckm_module.GRID_BLOCK
    monkeypatch.setattr(ckm_module, "GRID_BLOCK", block)
    scenario = build_scenario(cfg)
    # Blocks larger than one grid leave a short last block.
    assert block == 1 or scenario.n_grids % block
    ckm = build_ckm(scenario)
    h_bar, epsilon, sigma, reliable, delta = one_shot_survey_reference(
        scenario, cfg.samples_per_grid, cfg.eta
    )
    assert ckm.h_bar.tobytes() == h_bar.tobytes()
    assert ckm.epsilon.tobytes() == epsilon.tobytes()
    assert ckm.sigma.tobytes() == sigma.tobytes()
    assert ckm.reliable.tobytes() == reliable.tobytes()
    assert repr(ckm.delta) == repr(delta)


@pytest.mark.parametrize("block", [None, 7, 1], ids=["default", "block7", "block1"])
def test_export_csv_matches_the_per_pair_writer(block, small_scenario, small_ckm, tmp_path,
                                                monkeypatch):
    if block is not None:
        # A block size that does not divide the grid count leaves a short
        # last block; one-grid blocks take the one-row product path.
        assert block == 1 or small_ckm.n_grids % block
        monkeypatch.setattr(ckm_module, "GRID_BLOCK", block)
    small_ckm.export_csv(tmp_path, small_scenario)
    for l in range(small_ckm.n_cells):
        assert (tmp_path / f"corr_bs{l}.csv").read_bytes() == corr_csv_reference(small_ckm, l)


def test_table_scale_survey_memory_is_bounded():
    # The one-shot survey held every (BS, grid, sample) channel at once and
    # peaked at about 60 MB of traced allocations for a 2 MB map; surveyed
    # in grid blocks it peaked at 11.2 MB while channel_rows and the
    # statistics made full-size temporaries, and at 8.1 MB without them.
    scenario = build_scenario(table_scale_config())
    tracemalloc.start()
    try:
        ckm = build_ckm(scenario)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ckm.h_bar.nbytes > 1.9e6
    assert peak < 9.5e6


@pytest.mark.parametrize("bss", [1, [2, 0, 1]], ids=["one_bs", "three_bss"])
@pytest.mark.parametrize("cfg", [
    desk_config(n_cells=3, dynamic_grid_fraction=0.5),
    table_scale_config(),
], ids=["desk", "table"])
def test_channel_rows_of_one_position_equal_its_row_in_a_batch(cfg, bss):
    # A batch writes each BS's static-cluster product into the output rows
    # (np.matmul(..., out=)), one position takes the doubled-row product;
    # every row must be the same bytes either way, for one BS's slice of the
    # all-BS stack and for a reordered stack of BSs.
    scen = cached_scenario(cfg)
    rng = np.random.default_rng(5)
    gids = rng.integers(0, scen.n_grids, 24)
    pos = scen.grid_centers[gids] + (rng.random((24, 2)) - 0.5) * cfg.grid_edge_m
    reals = rng.integers(0, 3, 24)
    rows = channel_rows(scen, pos, reals)[bss]
    for i in range(len(pos)):
        one = channel_rows(scen, pos[i], reals[i])[bss]
        assert one.shape == rows[..., i:i + 1, :].shape
        assert one.tobytes() == rows[..., i:i + 1, :].tobytes()


def test_multi_bs_channel_rows_equal_per_position_channels():
    # One stacked call against the per-BS per-row reference, position pairs
    # and single positions, byte for byte.
    scen = build_scenario(desk_config(n_cells=3, dynamic_grid_fraction=0.5))
    rng = np.random.default_rng(3)
    # Every grid center plus random points around them, with repeated
    # realizations so that (grid, realization) pairs recur in the batch.
    gids = np.concatenate([np.arange(scen.n_grids), rng.integers(0, scen.n_grids, 60)])
    offs = (rng.random((len(gids), 2)) - 0.5) * scen.config.grid_edge_m
    offs[: scen.n_grids] = 0.0
    pos = scen.grid_centers[gids] + offs
    reals = rng.integers(0, 4, len(gids))
    rows = channel_rows(scen, pos, reals)
    assert rows.shape == (scen.config.n_cells, len(gids), scen.n_antennas)
    for l, rows_l in enumerate(rows):
        ref = channel_rows_reference(scen, l, pos, reals)
        assert ref.tobytes() == rows_l.tobytes()
    anchor = scen.grid_centers[0]
    for i in range(len(gids)):
        # numpy would hand a one-row static-cluster product to gemv, which
        # can differ from gemm in the last bit.
        pair = channel_rows(scen, [pos[i], anchor], [reals[i], 0])
        assert pair[:, 0].tobytes() == rows[:, i].tobytes()
        one = channel_rows(scen, pos[i], reals[i])[:, 0]
        assert one.tobytes() == rows[:, i].tobytes()


LAZY_CONFIGS = {"desk": desk_config(), "table": table_scale_config(), "dense": DENSE}


def lazy_instance(cfg, seed, realization):
    """trial_channels of (cfg, seed) with a log of every id it synthesizes,
    and the rows of one eager channel_rows call over all its users."""
    scenario = cached_scenario(cfg)
    users = place_users(scenario, seed)
    pos = np.array([[u.x, u.y] for u in users])
    eager = channel_rows(scenario, pos, realization)
    chans = trial_channels(scenario, users, realization)
    synthesized = []
    inner = chans.synthesize
    chans.synthesize = lambda ids: synthesized.extend(ids.tolist()) or inner(ids)
    return chans, eager, synthesized


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_rows_filled_on_demand_equal_one_eager_call(data):
    # Random subsets in random order, then every row at once: each request
    # returns the eager call's rows, and each row is synthesized once.
    cfg = LAZY_CONFIGS[data.draw(st.sampled_from(sorted(LAZY_CONFIGS)), label="config")]
    chans, eager, synthesized = lazy_instance(
        cfg, data.draw(st.integers(0, 3), label="seed"),
        data.draw(st.integers(0, 3), label="realization"))
    n = len(chans.cell_of)
    asked = set()
    for ids in data.draw(st.lists(st.lists(st.integers(0, n - 1), max_size=20), max_size=6),
                         label="requests"):
        assert chans.rows(ids).tobytes() == eager[:, ids].tobytes()
        asked.update(ids)
        assert sorted(synthesized) == sorted(asked)
    assert chans.h.tobytes() == eager.tobytes()
    assert sorted(synthesized) == list(range(n))


@pytest.mark.parametrize("name", sorted(LAZY_CONFIGS))
def test_rows_of_no_one_one_user_and_repeated_users_equal_one_eager_call(name):
    chans, eager, synthesized = lazy_instance(LAZY_CONFIGS[name], 1, 2)
    n = len(chans.cell_of)
    for ids in ([], [n - 1], [3, 3], [0, 5, 0, n - 1, 5]):
        assert chans.rows(ids).tobytes() == eager[:, ids].tobytes()
    assert synthesized == [n - 1, 3, 0, 5]
    # Unfilled rows sit behind the wrapped negative ids.
    for bad in ([-2], [n], [4, 1 - n], [2, n + 7], np.array([3, -1])):
        with pytest.raises(ValueError, match="has no channel row"):
            chans.rows(bad)
    assert chans.shape == eager.shape and chans.n_cells == len(eager)
    assert synthesized == [n - 1, 3, 0, 5]
    assert chans.h.tobytes() == eager.tobytes()
    assert sorted(synthesized) == list(range(n))


def test_each_algorithm_synthesizes_only_the_rows_it_reads(monkeypatch, empty_memo):
    # Seed-major on one dense seed: random synthesizes the scheduled users,
    # the full-CSI schedulers every user in one call. The map-driven ones
    # share the seed's one trial and count its rows: a scheduler first
    # synthesizes the users that a new fusion acquires (robust_aes's), then
    # the users its group adds, each only if no earlier scheduler of the
    # trial has.
    calls = []

    def counted(scenario, positions, realizations):
        calls.append(len(positions))
        return channel_rows(scenario, positions, realizations)

    monkeypatch.setattr(experiments, "channel_rows", counted)
    for cfg, algorithms in (
        (DENSE, ("two_stage_aes", "two_stage_gis", "robust_aes", "random", "robust_gis",
                 "sus", "greedy")),
        (desk_config(), ("brute_force",)),
    ):
        n = cfg.n_cells * cfg.users_per_cell
        scheduled = cfg.n_cells * cfg.kbar
        entry, filled = None, set()
        for algorithm in algorithms:
            calls.clear()
            users = set(run_trial(cfg, algorithm, 0).per_user_sinr)
            if algorithm in ("sus", "greedy", "brute_force"):
                assert calls == [n]
            elif algorithm == "random":
                assert calls == [scheduled]
            else:
                entry = entry or experiments._map_trial[1]
                assert experiments._map_trial[1] is entry
                fused = algorithm in ("two_stage_aes", "robust_aes")  # the first on a map
                acquired = set(entry.csi.acquired) - filled if fused else set()
                assert calls == [k for k in (len(acquired), len(users - filled - acquired)) if k]
                filled |= acquired | users


def test_locate_and_locate_many_match_the_scalar_lookup():
    scen = build_scenario(desk_config())
    edge = scen.config.grid_edge_m
    rng = np.random.default_rng(5)
    lo = scen.origin - edge
    hi = scen.grid_centers.max(axis=0) + 2 * edge
    random_pts = lo + rng.random((500, 2)) * (hi - lo)
    # Lattice edges: the corners and edge midpoints of every grid square.
    corners = (scen.grid_centers[:, None, :]
               + edge * np.array([[-0.5, -0.5], [0.5, 0.5], [-0.5, 0.0], [0.0, 0.5]]))
    pts = np.concatenate([random_pts, corners.reshape(-1, 2)])
    want = [locate_reference(scen, p) for p in pts]
    inside = [i for i, g in enumerate(want) if g is not None]
    outside = [i for i, g in enumerate(want) if g is None]
    assert len(inside) > 100 and len(outside) > 50
    assert scen.locate_many(pts[inside]).tolist() == [want[i] for i in inside]
    assert [scen.locate(pts[i]) for i in inside] == [want[i] for i in inside]
    for i in outside:
        p = pts[i]
        with pytest.raises(OutOfClusterError, match=f"{p[0]:.2f}, {p[1]:.2f}"):
            scen.locate_many(np.array([scen.grid_centers[0], p]))
        with pytest.raises(OutOfClusterError):
            scen.locate(p)
    with pytest.raises(OutOfClusterError):
        scen.locate_many(np.array([[np.nan, 0.0]]))


@pytest.mark.parametrize("cfg, seeds", [
    (desk_config(), range(100)),
    (table_scale_config(), range(100)),
    (table_scale_config(users_per_cell=200, kprime=40, placement="uniform"), range(30)),
    # An odd count per cell: a cell's last pick leaves the high half of its
    # word to the next cell's first pick.
    (table_scale_config(users_per_cell=51, placement="uniform"), range(30)),
    (desk_config(n_cells=1, users_per_cell=7, kbar=1), range(100)),
    # Two entropy words: SeedSequence seeds the placement stream.
    (desk_config(rng_seed=2**32), range(100)),
], ids=["desk", "table_clustered", "dense_uniform", "odd_uniform", "one_cell", "wide_seed"])
def test_place_users_matches_the_per_user_reference(cfg, seeds):
    scenario = cached_scenario(cfg)
    for seed in seeds:
        assert place_users(scenario, seed) == place_users_reference(scenario, seed)


def per_user_draws(rng, bounds):
    picks, offsets = [], []
    for bound in bounds:
        picks.append(rng.integers(bound))
        offsets.append(rng.random(2))
    return np.array(picks, dtype=np.int64), np.array(offsets).reshape(-1, 2)


@pytest.mark.parametrize("seed", range(40))
def test_uniform_draws_match_a_per_user_loop_near_two_to_the_32(seed):
    # Near 2**32 Lemire's rejection is common: at 3 * 2**30 one pick in four
    # is redrawn, at 2**31 + 1 about one in two. Bounds of 1 draw no bits.
    rng = np.random.default_rng(seed)
    bounds = rng.choice([1, 2, 3, 2**31, 2**31 + 1, 3 * 2**30, 2**32 - 1], rng.integers(0, 9))
    fast, slow = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
    picks, offsets = experiments._uniform_draws(fast, bounds)
    want_picks, want_offsets = per_user_draws(slow, bounds.tolist())
    assert picks.tobytes() == want_picks.tobytes()
    assert offsets.tobytes() == want_offsets.tobytes()
    # Both generators stand at the same word.
    assert fast.bit_generator.random_raw() == slow.bit_generator.random_raw()


class RawWords:
    """A generator that hands out raw words only: any per-user draw fails."""

    def __init__(self, rng):
        self.bit_generator = rng.bit_generator


def test_uniform_draws_fall_back_to_per_user_draws_only_on_a_rejection(monkeypatch):
    # At bounds up to 400 a rejection is rarer than one pick in 10**7, so
    # dense placements draw as one block and never reach the per-user loop.
    scenario = cached_scenario(table_scale_config(users_per_cell=200, kprime=40,
                                                  placement="uniform"))
    want = [place_users(scenario, seed) for seed in range(5)]
    seeded = experiments._seeded
    monkeypatch.setattr(experiments, "_seeded", lambda *key: RawWords(seeded(*key)))
    assert [place_users(scenario, seed) for seed in range(5)] == want
    with pytest.raises(AttributeError, match="integers"):
        experiments._uniform_draws(RawWords(np.random.default_rng(0)), np.full(8, 2**31 + 1))


# -- batch-seeded random streams ----------------------------------------------

# Entropy values at the SeedSequence word boundaries.
EDGE_VALUES = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1]


def seed_key_batches():
    """(seed, tag, keys) batches: single keys, duplicates, mixed word counts,
    three keys a row (more entropy words than the 4-word pool) and seeds
    beyond 64 bits."""
    rng = np.random.default_rng(11)
    wide = rng.integers(0, 2**62, (40, 2)) >> rng.integers(0, 62, (40, 2))
    edges = np.array([(a, b) for a in EDGE_VALUES for b in EDGE_VALUES])
    triples = np.array([(a, b, c) for a in EDGE_VALUES[:4] for b in EDGE_VALUES[2:]
                        for c in (0, 2**32 - 1, 2**32)])
    yield 0, 0, np.array([[0, 0]])
    yield 7, _TAG_JITTER, np.array([[3, 1]])
    yield 7, _TAG_JITTER, np.array([[3, 1], [5, 2], [3, 1], [3, 1]])
    yield 2**32 - 1, 17, np.array([4, 9, 4])
    yield 7, _TAG_JITTER, np.array([[3, 1, 4], [2**32 - 1, 0, 2**32 - 1]])
    for seed in (0, 2**32 - 1, 2**32, 2**64 + 3, 2**100 + 5):
        yield seed, _TAG_JITTER, wide
        yield seed, 2**32, edges
        yield seed, _TAG_JITTER, triples


def test_seed_words_and_streams_equal_one_seed_sequence_per_key():
    for seed, tag, keys in seed_key_batches():
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # uint32 scalar overflow warns
            words = _seed_words(seed, tag, keys)
            draws = [(g.standard_normal(5).tobytes(), g.random(3).tobytes())
                     for g in _streams(seed, tag, keys)]
        rows = np.asarray(keys).reshape(len(keys), -1).tolist()
        assert words.shape == (len(rows), 4) and words.dtype == np.uint64
        for row, got, drawn in zip(rows, words, draws, strict=True):
            key = [seed, tag, *row]
            want = np.random.SeedSequence(key).generate_state(4, np.uint64)
            assert got.tobytes() == want.tobytes(), key
            ref = _seeded(*key)
            assert drawn == (ref.standard_normal(5).tobytes(), ref.random(3).tobytes()), key


def words_of(batches):
    return [[np.random.SeedSequence([seed, tag, *row]).generate_state(4, np.uint64).tobytes()
             for row in keys.reshape(len(keys), -1).tolist()] for seed, tag, keys in batches]


def test_one_word_keys_are_hashed_without_a_seed_sequence(monkeypatch):
    # The scenario, the survey and the trials draw only keys, seeds and tags
    # below 2**32: such batches of three or more rows stay on the array
    # hash, and batches of one or two rows are seeded by SeedSequence, one
    # per row, which costs less there.
    small = np.array([(a, b) for a in EDGE_VALUES[:3] for b in EDGE_VALUES[:3]])
    batches = [(0, 0, np.array([[0, 0], [0, 0], [0, 1]])), (7, _TAG_JITTER, np.array([3, 9, 3])),
               (2**32 - 1, 2**32 - 1, small)]
    tiny = [(0, 0, np.array([[0, 0]])), (7, _TAG_JITTER, np.array([3, 9]))]
    want, want_tiny = words_of(batches), words_of(tiny)
    scen = build_scenario(desk_config(dynamic_grid_fraction=1.0))
    seeded = []

    def counted(entropy):
        seeded.append(entropy)
        return sequence(entropy)

    sequence = np.random.SeedSequence
    monkeypatch.setattr(np.random, "SeedSequence", counted)
    for (seed, tag, keys), rows in zip(tiny, want_tiny):
        assert [w.tobytes() for w in _seed_words(seed, tag, keys)] == rows
    assert len(seeded) == 3
    seeded.clear()
    for (seed, tag, keys), rows in zip(batches, want):
        assert [w.tobytes() for w in _seed_words(seed, tag, keys)] == rows
    channel_rows(scen, scen.grid_centers[:8], np.arange(1, 9))
    assert seeded == []


def test_streams_reject_negative_keys_like_seed_sequence():
    with pytest.raises(ValueError):
        np.random.SeedSequence([0, 19, -1])
    with pytest.raises(ValueError, match="non-negative"):
        _seed_words(0, 19, np.array([[3, -1]]))
    with pytest.raises(ValueError, match="non-negative"):
        _seed_words(-1, 19, np.array([[3, 1]]))


def test_empty_key_batches_give_no_streams():
    assert _seed_words(0, 19, np.zeros((0, 2), dtype=np.int64)).shape == (0, 4)
    assert list(_streams(0, 19, np.zeros(0, dtype=np.int64))) == []
    scen = build_scenario(desk_config(dynamic_grid_fraction=0.0))
    assert scen.scatterers.dynamic_positions.shape == (0, 2, 2)


def test_channel_rows_beyond_32_bit_realizations_match_the_reference():
    # Realizations at and past 2**32 take two entropy words each, so one
    # batch mixes keys of different lengths.
    scen = build_scenario(desk_config(dynamic_grid_fraction=1.0))
    gids = np.repeat(np.arange(scen.n_grids), 2)
    reals = np.resize([2**32 - 1, 2**32, 2**33 + 7, 2**62 + 1, 1, 2**32], len(gids))
    pos = scen.grid_centers[gids]
    rows = channel_rows(scen, pos, reals)
    for l, rows_l in enumerate(rows):
        ref = channel_rows_reference(scen, l, pos, reals)
        assert ref.tobytes() == rows_l.tobytes()


@pytest.mark.parametrize("cfg", [
    desk_config(),
    desk_config(dynamic_grid_fraction=1.0, rng_seed=2**40 + 1),
    desk_config(dynamic_clusters_per_grid=3, rng_seed=2**64 + 3),
    table_scale_config(),
], ids=["desk", "desk_all_dynamic_wide_seed", "three_clusters_wide_seed", "table"])
def test_dynamic_clusters_match_one_stream_per_grid(cfg):
    scenario = build_scenario(cfg)
    positions, gains = dynamic_clusters_reference(scenario)
    assert len(scenario.scatterers.dynamic_grid_ids) > 0
    assert scenario.scatterers.dynamic_positions.tobytes() == positions.tobytes()
    assert scenario.scatterers.dynamic_gains.tobytes() == gains.tobytes()
