"""First-stage selection, cross-cell scheduling, baselines, CSI fusion."""

import dataclasses
import math

import numpy as np
import pytest

from ckmsched import UsCkm, build_ckm
from ckmsched.ckm import _corr_rows
from ckmsched.errors import ScheduleError
from ckmsched.experiments import place_users, run_trial, trial_channels
from ckmsched.groups import ActiveSet
from ckmsched.scheduling import (
    aes_select,
    fuse_effective_csi,
    gis_select,
    greedy_schedule,
    iccs_schedule,
    random_schedule,
    residual_metric,
    robust_two_stage,
    sus_schedule,
)

from conftest import csi_from_tables, desk_config, synthetic_chans


def corr_from_pairs(n, pairs):
    """Symmetric unit-diagonal matrix from {(i, j): rho} index pairs."""
    m = np.eye(n)
    for (i, j), rho in pairs.items():
        m[i, j] = m[j, i] = rho
    return m


def csi_one_cell(gains, pairs):
    """One-BS fused CSI: user i has gain gains[i]."""
    return csi_from_tables([gains], [corr_from_pairs(len(gains), pairs)])


# -- residual metric -----------------------------------------------------


def test_residual_metric_with_no_selected_users_is_root_gain():
    assert residual_metric(9.0, []) == 3.0


def test_residual_metric_discounts_squared_correlations():
    assert residual_metric(100.0, [0.5]) == pytest.approx(math.sqrt(75.0))


def test_residual_metric_clamps_oversubscribed_interference_to_zero():
    assert residual_metric(100.0, [0.6, 0.8]) == 0.0
    assert residual_metric(5.0, [1.0, 1.0]) == 0.0


def test_residual_metric_rejects_negative_gain():
    with pytest.raises(ValueError):
        residual_metric(-1.0, [0.1])


# -- first stage: gain-ranked with pruning --------------------------------


def test_aes_prunes_correlated_candidate_then_takes_next():
    csi = csi_one_cell([9.0, 4.0, 1.0], {(0, 1): 0.9, (0, 2): 0.1, (1, 2): 0.2})
    out = aes_select(csi, 0, kprime=2, alpha=0.5)
    assert out.members == [0, 2]
    assert out.fallback == frozenset()


def test_aes_with_alpha_one_reduces_to_top_gain():
    csi = csi_one_cell([9.0, 4.0, 1.0], {(0, 1): 0.9, (0, 2): 1.0, (1, 2): 1.0})
    out = aes_select(csi, 0, kprime=2, alpha=1.0)
    assert out.members == [0, 1]


def test_aes_breaks_gain_ties_by_lowest_id():
    csi = csi_one_cell([5.0, 5.0, 1.0], {})
    out = aes_select(csi, 0, kprime=1, alpha=0.5)
    assert out.members == [0]


def test_aes_kprime_equal_to_pool_returns_everyone():
    csi = csi_one_cell([9.0, 4.0, 1.0], {(0, 1): 0.9})
    out = aes_select(csi, 0, kprime=3, alpha=0.5)
    assert sorted(out.members) == [0, 1, 2]


def test_aes_refills_from_pruned_users_and_flags_them():
    # Everyone conflicts with user 0; refill takes pruned users by gain.
    csi = csi_one_cell([9.0, 4.0, 5.0], {(0, 1): 0.9, (0, 2): 0.8, (1, 2): 0.9})
    out = aes_select(csi, 0, kprime=3, alpha=0.5)
    assert out.members == [0, 2, 1]
    assert out.fallback == frozenset({1, 2})


def test_aes_rejects_undersized_pool():
    csi = csi_one_cell([1.0, 2.0], {})
    with pytest.raises(ScheduleError, match="pool of 2 users cannot fill 3"):
        aes_select(csi, 0, kprime=3, alpha=0.5)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_aes_non_fallback_members_stay_below_alpha(seed):
    rng = np.random.default_rng(seed)
    n, alpha = 10, 0.4
    vecs = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    unit = vecs / np.linalg.norm(vecs, axis=1)[:, None]
    corr = np.abs(unit @ unit.conj().T)
    np.fill_diagonal(corr, 1.0)
    gains = rng.uniform(1.0, 10.0, size=n)
    csi = csi_from_tables([gains], [corr])
    out = aes_select(csi, 0, kprime=5, alpha=alpha)
    kept = [u for u in out.members if u not in out.fallback]
    for i, a in enumerate(kept):
        for b in kept[i + 1:]:
            assert csi.corr[a, b] <= alpha


# -- first stage: iterative deletion ---------------------------------------


def test_gis_deletes_the_highest_total_correlation_user():
    csi = csi_one_cell([1.0, 1.0, 1.0], {(0, 1): 0.8, (0, 2): 0.7, (1, 2): 0.1})
    out = gis_select(csi, 0, kprime=2)
    assert out.members == [1, 2]
    assert out.fallback == frozenset()


def test_gis_kprime_equal_to_pool_is_identity():
    csi = csi_one_cell([1.0, 2.0, 3.0], {(0, 1): 0.9})
    out = gis_select(csi, 0, kprime=3)
    assert out.members == [0, 1, 2]


def test_gis_uniform_correlations_keep_highest_ids():
    pairs = {(i, j): 0.5 for i in range(4) for j in range(i + 1, 4)}
    csi = csi_one_cell([1.0, 1.0, 1.0, 1.0], pairs)
    out = gis_select(csi, 0, kprime=2)
    assert out.members == [2, 3]


def test_gis_rejects_undersized_pool():
    csi = csi_one_cell([1.0], {})
    with pytest.raises(ScheduleError, match="pool of 1 users cannot fill 2"):
        gis_select(csi, 0, kprime=2)


# -- second stage: cross-cell residual scheduling ---------------------------


def test_iccs_first_pick_is_the_gain_argmax():
    csi = csi_one_cell([2.0, 7.0, 5.0], {(0, 1): 0.3, (1, 2): 0.2})
    group = iccs_schedule([ActiveSet(0, [0, 1, 2])], csi, kbar=1)
    assert group.members == {0: [1]}


def test_iccs_discount_overrides_raw_gain_across_cells():
    # Cell 1's stronger candidate is fully correlated with the user cell 0
    # already placed; the weaker orthogonal candidate must win the slot.
    gain = np.array([[4.0, 0.0, 0.0], [0.0, 9.0, 1.0]])
    corr = np.stack([
        corr_from_pairs(3, {}),
        corr_from_pairs(3, {(1, 0): 1.0, (2, 0): 0.0, (1, 2): 0.3}),
    ])
    csi = csi_from_tables(gain, corr, cell_of=[0, 1, 1])
    sets = [ActiveSet(cell=0, members=[0]), ActiveSet(cell=1, members=[1, 2])]
    group = iccs_schedule(sets, csi, kbar=1)
    assert group.members == {0: [0], 1: [2]}
    mu_c = [m.metric for m in group.meta if m.user == 2]
    assert mu_c == [pytest.approx(1.0)]


def test_iccs_zero_cross_correlation_reduces_to_per_cell_top_gain():
    gain = np.array([[3.0, 5.0, 4.0, 0.0, 0.0, 0.0],
                     [0.0, 0.0, 0.0, 1.0, 9.0, 2.0]])
    corr = np.stack([np.eye(6), np.eye(6)])
    csi = csi_from_tables(gain, corr, cell_of=[0, 0, 0, 1, 1, 1])
    sets = [ActiveSet(0, [0, 1, 2]), ActiveSet(1, [3, 4, 5])]
    group = iccs_schedule(sets, csi, kbar=2)
    assert group.members == {0: [1, 2], 1: [4, 5]}


def test_iccs_rejects_active_set_smaller_than_kbar():
    csi = csi_one_cell([1.0], {})
    with pytest.raises(ScheduleError, match="pool of 1 users cannot fill 2"):
        iccs_schedule([ActiveSet(0, [0])], csi, kbar=2)


def test_stages_reject_ids_their_bs_does_not_serve(small_scenario, small_ckm):
    # User i is row i of the fused table, so only BS l's slice of ids
    # tells whether it serves an id and may read its row; -1 and n must
    # not wrap.
    chans = trial_channels(small_scenario, place_users(small_scenario, 1), 2)
    csi = fuse_effective_csi(small_ckm.reclassify(None, 1.0), chans)
    bycell = chans.ids_by_cell()
    for stranger in (bycell[1][0], -1, len(chans.cell_of)):
        ids = bycell[0][1:] + [stranger]
        with pytest.raises(ScheduleError, match=f"BS 0 for user ids \\[{stranger}\\]"):
            iccs_schedule([ActiveSet(0, ids)], csi, kbar=2)


@pytest.mark.parametrize("stage", ["aes", "gis", "iccs"])
@pytest.mark.parametrize("bs", [-1, "L"])
def test_stages_refuse_a_bs_that_is_not_one(small_scenario, small_ckm, stage, bs):
    # BS -1 must not wrap around to the last cell's users, nor BS L fail
    # as a bare IndexError.
    chans = trial_channels(small_scenario, place_users(small_scenario, 0), 0)
    csi = fuse_effective_csi(small_ckm, chans)
    L = chans.n_cells
    bs = L if bs == "L" else bs
    bycell = chans.ids_by_cell()
    stages = {
        "aes": lambda: aes_select(csi, bs, 4, 0.5),
        "gis": lambda: gis_select(csi, bs, 4),
        "iccs": lambda: iccs_schedule(
            [ActiveSet(bs, bycell[L - 1][:2]), ActiveSet(0, bycell[0][:2])], csi, kbar=2),
    }
    with pytest.raises(ScheduleError, match=f"BS {bs} is not one of the {L} BSs"):
        stages[stage]()


def test_stages_reject_repeated_ids():
    csi = csi_one_cell([4.0, 3.0, 2.0, 1.0], {})
    with pytest.raises(ScheduleError, match=r"BS 0's pool repeats user ids \[3\]"):
        iccs_schedule([ActiveSet(0, [3, 1, 3])], csi, kbar=1)


def test_iccs_rejects_two_active_sets_for_one_cell():
    csi = csi_one_cell([4.0, 3.0, 2.0, 1.0], {})
    for sets in ([ActiveSet(0, [0, 1]), ActiveSet(0, [2, 3])],
                 [ActiveSet(0, [0, 1])] * 2):
        with pytest.raises(ScheduleError, match=r"more than one active set for cells \[0\]"):
            iccs_schedule(sets, csi, kbar=1)


def test_iccs_rejects_a_negative_pool_gain():
    csi = csi_one_cell([4.0, -1.0, 2.0], {})
    with pytest.raises(ValueError, match="gain must be >= 0"):
        iccs_schedule([ActiveSet(0, [0, 1, 2])], csi, kbar=2)


@pytest.mark.parametrize("gains, members", [
    ([9.0, 1.0, 4.0, 4.0], [0, 2, 3]),   # the tie follows the taken user
    ([1.0, 4.0, 9.0, 4.0], [2, 1, 3]),   # the taken user lies between the tie
])
def test_iccs_breaks_ties_by_lowest_id_with_taken_users_masked(gains, members):
    # The first pick is taken and masked; users of gain 4.0 then tie
    # exactly, and the lower id must still win.
    csi = csi_one_cell(gains, {})
    group = iccs_schedule([ActiveSet(0, [3, 2, 1, 0])], csi, kbar=3)
    assert group.members == {0: members}
    assert [m.metric for m in group.meta] == [3.0, 2.0, 2.0]


# -- baseline: semi-orthogonal selection -----------------------------------


def serving_chans(per_cell):
    """ChannelSet from {cell: [serving-BS channel of each user]}, users
    numbered cell by cell; the rows toward the other BSs are zero."""
    cell_of = [c for c in sorted(per_cell) for _ in per_cell[c]]
    vecs = [v for c in sorted(per_cell) for v in per_cell[c]]
    h = np.zeros((len(per_cell), len(vecs), len(vecs[0])), dtype=np.complex128)
    h[cell_of, np.arange(len(vecs))] = vecs
    return synthetic_chans(h, cell_of)


def test_sus_selects_all_mutually_orthogonal_users():
    chans = serving_chans({0: [[3.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]]})
    group = sus_schedule(chans, kbar=3, alpha=0.01)
    assert group.members == {0: [0, 1, 2]}


def test_sus_prunes_collinear_candidates():
    chans = serving_chans({0: [[2.0, 0.0], [1.0, 0.0], [0.0, 1.0]]})
    group = sus_schedule(chans, kbar=2, alpha=0.5)
    assert group.members == {0: [0, 2]}


def test_sus_first_pick_maximizes_channel_norm():
    chans = serving_chans({0: [[1.0, 0.0], [0.0, 5.0], [2.0, 0.0]]})
    group = sus_schedule(chans, kbar=1, alpha=0.5)
    assert group.members == {0: [1]}


def test_sus_falls_back_to_highest_norm_pruned_users():
    chans = serving_chans({0: [[3.0, 0.0], [2.0, 0.0], [1.0, 0.0]]})
    group = sus_schedule(chans, kbar=2, alpha=0.5)
    assert group.members == {0: [0, 1]}
    src = {m.user: m.source for m in group.meta}
    assert src[0] == "icsi"
    assert src[1] == "fallback"


def test_sus_prunes_at_exactly_alpha():
    # User 1 is collinear with the first pick: its correlation is exactly 1.0,
    # so alpha = 1 prunes it and it returns only as a fallback.
    chans = serving_chans({0: [[2.0, 0.0], [1.0, 0.0], [0.0, 0.5]]})
    group = sus_schedule(chans, kbar=3, alpha=1.0)
    assert group.members == {0: [0, 2, 1]}
    assert [m.source for m in group.meta] == ["icsi", "icsi", "fallback"]


def test_sus_rejects_undersized_cell():
    with pytest.raises(ScheduleError):
        sus_schedule(serving_chans({0: [[1.0, 0.0]]}), kbar=2, alpha=0.5)


def test_sus_handles_multiple_cells_independently():
    chans = serving_chans({
        0: [[2.0, 0.0], [0.0, 1.0]],
        1: [[0.0, 3.0], [1.0, 0.0]],
    })
    group = sus_schedule(chans, kbar=1, alpha=0.9)
    assert group.members == {0: [0], 1: [2]}


# -- baseline: exact greedy -------------------------------------------------


def test_greedy_single_slot_without_interference_takes_top_gain():
    chans = serving_chans({0: [[2.0, 0.0], [0.0, 1.0], [1.0, 0.0]]})
    group, _, _ = greedy_schedule(chans, kbar=1, noise_power=1.0)
    assert group.members == {0: [0]}


def test_greedy_fills_every_cell_with_kbar_distinct_users():
    rng = np.random.default_rng(3)
    n = 8
    cells = np.array([0] * 4 + [1] * 4)
    h = rng.normal(size=(2, n, 4)) + 1j * rng.normal(size=(2, n, 4))
    chans = synthetic_chans(h, cells)
    group, _, _ = greedy_schedule(chans, kbar=2, noise_power=0.5)
    assert sorted(group.members) == [0, 1]
    for cell, picks in group.members.items():
        assert len(picks) == 2
        assert len(set(picks)) == 2
        assert set(picks) <= set(np.flatnonzero(cells == cell).tolist())


def test_greedy_rejects_undersized_cell():
    chans = serving_chans({0: [[1.0, 0.0]]})
    with pytest.raises(ScheduleError):
        greedy_schedule(chans, kbar=2, noise_power=1.0)


# -- baseline: random --------------------------------------------------------


def test_random_with_kbar_equal_to_pool_returns_everyone():
    group = random_schedule({0: [3, 1, 2], 1: [6, 4, 5]}, kbar=3, seed=0)
    assert sorted(group.members[0]) == [1, 2, 3]
    assert sorted(group.members[1]) == [4, 5, 6]


def test_random_is_reproducible_per_seed():
    ids = {0: list(range(10))}
    a = random_schedule(ids, kbar=3, seed=123)
    b = random_schedule(ids, kbar=3, seed=123)
    assert a.members == b.members
    picks = {tuple(random_schedule(ids, kbar=3, seed=s).members[0]) for s in range(20)}
    assert len(picks) > 1


def test_random_rejects_undersized_pool():
    with pytest.raises(ScheduleError):
        random_schedule({0: [1, 2]}, kbar=3, seed=0)


def test_random_results_compare_equal_to_themselves():
    # No score decides a random pick, so its records hold no metric, and two
    # runs of one (config, seed) compare equal, as every algorithm's do.
    first = run_trial(desk_config(), "random", 0)
    assert first == run_trial(desk_config(), "random", 0)
    assert [m.metric for m in first.group.meta] == [None] * len(first.group.meta)


# -- CSI fusion ---------------------------------------------------------------


def test_fuse_keeps_map_statistics_when_every_grid_is_reliable(static_scenario):
    ckm = build_ckm(static_scenario).reclassify(1.0, None)
    users = place_users(static_scenario, 0)
    csi = fuse_effective_csi(ckm, trial_channels(static_scenario, users, 1))
    assert csi.acquired == []
    assert len(csi.cells) == ckm.n_cells
    assert csi.gain.shape == csi.source.shape == (len(users),)
    assert np.all(csi.source == 1)
    grids = [u.grid for u in users]
    # each user's gain at its serving BS
    assert np.array_equal(csi.gain, ckm.epsilon[[u.cell for u in users], grids])
    for l in range(ckm.n_cells):
        # the correlations of the map's mean channels at the users' grids
        served = [u.id for u in users if u.cell == l]
        assert np.array_equal(csi.corr[served], _corr_rows(ckm.h_bar[l, grids], served))


def test_fuse_substitutes_true_channels_on_unreliable_grids(small_scenario, small_ckm):
    ckm = small_ckm.reclassify(None, 0.0)
    users = place_users(small_scenario, 1)
    chans = trial_channels(small_scenario, users, realization=2)
    csi = fuse_effective_csi(ckm, chans)
    assert csi.acquired == list(range(len(users)))
    assert np.all(csi.source == 0)
    serving = chans.h[chans.cell_of, np.arange(len(users))]
    assert csi.gain == pytest.approx(np.sum(np.abs(serving) ** 2, axis=1))
    for l in range(ckm.n_cells):
        served = [u.id for u in users if u.cell == l]
        assert np.array_equal(csi.corr[served], _corr_rows(chans.h[l], served))


def test_fuse_keeps_the_serving_map_entries_of_users_acquired_for_another_bs(
    small_scenario, small_ckm
):
    # Every grid is reliable at BS 0 and unreliable at BS 1, so every user
    # is acquired, but only cell 1's users need their true channel at their
    # serving BS.
    sigma = np.zeros_like(small_ckm.sigma)
    sigma[1] = 1.0
    ckm = UsCkm(small_ckm.scenario_hash, small_ckm.samples_per_grid, 0.5,
                small_ckm.h_bar, small_ckm.epsilon, sigma)
    users = place_users(small_scenario, 3)
    chans = trial_channels(small_scenario, users, realization=4)
    csi = fuse_effective_csi(ckm, chans)
    assert csi.acquired == list(range(len(users)))
    grids = np.array([u.grid for u in users])
    cell0 = np.flatnonzero(chans.cell_of == 0)
    cell1 = np.flatnonzero(chans.cell_of == 1)
    assert len(cell0) and len(cell1)
    assert np.all(csi.source[cell0] == 1) and np.all(csi.source[cell1] == 0)
    assert np.array_equal(csi.gain[cell0], ckm.epsilon[0, grids[cell0]])
    assert csi.gain[cell1] == pytest.approx(np.sum(np.abs(chans.h[1, cell1]) ** 2, axis=1))
    # BS 0's rows see every user through the map, BS 1's rows every user
    # through its true channel
    assert np.array_equal(csi.corr[cell0], _corr_rows(ckm.h_bar[0, grids], cell0))
    assert np.array_equal(csi.corr[cell1], _corr_rows(chans.h[1], cell1))


def test_an_all_reliable_fusion_reads_no_channel_row(small_scenario, small_ckm):
    def refused(ids):
        raise AssertionError(f"read channel rows {ids.tolist()}")

    chans = trial_channels(small_scenario, place_users(small_scenario, 1), 2)
    chans = dataclasses.replace(chans, synthesize=refused)
    csi = fuse_effective_csi(small_ckm.reclassify(None, 1.0), chans)
    assert csi.acquired == []
    assert np.all(csi.source == 1)
    with pytest.raises(AssertionError, match="read channel rows"):
        fuse_effective_csi(small_ckm.reclassify(None, 0.0), chans)


def test_fuse_correlations_match_fused_vectors(small_scenario, small_ckm):
    users = place_users(small_scenario, 4)
    chans = trial_channels(small_scenario, users, realization=5)
    csi = fuse_effective_csi(small_ckm, chans)
    grids = [u.grid for u in users]
    # row i belongs to user i's serving BS
    assert csi.cells == chans.cells
    assert csi.corr.shape == (len(users), len(users))
    for l in range(small_ckm.n_cells):
        # map mean channels where BS l's grid is reliable, true channels elsewhere
        kept = small_ckm.reliable[l, grids] == 1
        fused = np.where(kept[:, None], small_ckm.h_bar[l, grids], chans.h[l])
        unit = fused / np.linalg.norm(fused, axis=1)[:, None]
        expect = np.abs(unit @ unit.conj().T)
        np.fill_diagonal(expect, 1.0)
        served = [u.id for u in users if u.cell == l]
        assert served == list(range(csi.cells[l].start, csi.cells[l].stop))
        assert np.allclose(csi.corr[served], expect[served])
    # source follows the serving BS's grid alone
    assert np.array_equal(csi.source == 0,
                          small_ckm.reliable[chans.cell_of, grids] == 0)
    assert csi.acquired == np.flatnonzero((small_ckm.reliable[:, grids] == 0).any(axis=0)).tolist()


def test_fuse_validates_provider_shape(small_scenario, small_ckm):
    ckm = small_ckm.reclassify(None, 0.0)
    users = place_users(small_scenario, 1)
    chans = trial_channels(small_scenario, users, realization=2)
    # Shapes that pass ChannelSet's layout check, so that fusion's own
    # check must fire.
    L, n, N = chans.shape
    for shape in ((L + 1, n, N), (L, n, 3), (n, N)):
        bad = dataclasses.replace(chans, shape=shape)
        for m in (ckm, small_ckm.reclassify(None, 1.0)):
            with pytest.raises(ValueError, match="one row per"):
                fuse_effective_csi(m, bad)


# -- fused two-stage pipeline --------------------------------------------------


def test_robust_on_fully_reliable_map_equals_map_only_pipeline(static_scenario):
    # Every grid reliable by delta, and by eta = 1 as the map-only
    # schedulers threshold it.
    ckm = build_ckm(static_scenario).reclassify(1.0, None)
    cfg = static_scenario.config
    chans = trial_channels(static_scenario, place_users(static_scenario, 3), 4)
    robust, rc = robust_two_stage(
        fuse_effective_csi(ckm, chans), cfg.kprime, cfg.kbar, cfg.alpha
    )
    baseline, bc = robust_two_stage(
        fuse_effective_csi(ckm.reclassify(None, 1.0), chans), cfg.kprime, cfg.kbar, cfg.alpha
    )
    assert robust.members == baseline.members
    assert rc == bc == {
        "csi_acquisitions": 0,
        "info_exchange": cfg.n_cells * cfg.kprime,
    }


def test_robust_on_fully_unreliable_map_acquires_everyone(small_scenario, small_ckm):
    ckm = small_ckm.reclassify(None, 0.0)
    cfg = small_scenario.config
    chans = trial_channels(small_scenario, place_users(small_scenario, 5), realization=6)
    group, counters = robust_two_stage(
        fuse_effective_csi(ckm, chans), cfg.kprime, cfg.kbar, cfg.alpha
    )
    L = cfg.n_cells
    total_users = L * cfg.users_per_cell
    candidates = L * cfg.kprime
    assert counters["csi_acquisitions"] == L * total_users
    assert counters["info_exchange"] == candidates + candidates * (1 + L**2)
    assert sum(map(len, group.members.values())) == L * cfg.kbar


def test_robust_pipeline_is_deterministic(small_scenario, small_ckm):
    cfg = small_scenario.config
    runs = []
    for _ in range(2):
        users = place_users(small_scenario, 7)
        chans = trial_channels(small_scenario, users, realization=8)
        group, _ = robust_two_stage(
            fuse_effective_csi(small_ckm, chans),
            cfg.kprime, cfg.kbar, cfg.alpha, first_stage="gis",
        )
        runs.append(group.members)
    assert runs[0] == runs[1]


def test_robust_rejects_unknown_first_stage(small_scenario, small_ckm):
    chans = trial_channels(small_scenario, place_users(small_scenario, 0), 1)
    with pytest.raises(ValueError, match="first stage"):
        robust_two_stage(fuse_effective_csi(small_ckm, chans), 4, 2, 0.5,
                         first_stage="best")
