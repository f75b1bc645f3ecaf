"""First-stage selection, cross-cell scheduling, baselines, CSI fusion."""

import math

import numpy as np
import pytest

from ckmsched import build_ckm
from ckmsched.errors import ScheduleError
from ckmsched.evaluation import ChannelSet
from ckmsched.experiments import place_users, trial_channels
from ckmsched.scheduling import (
    EffectiveCsi,
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


def corr_from_pairs(n, pairs):
    """Symmetric unit-diagonal matrix from {(i, j): rho} index pairs."""
    m = np.eye(n)
    for (i, j), rho in pairs.items():
        m[i, j] = m[j, i] = rho
    return m


def csi_one_cell(ids, gains, pairs):
    corr = corr_from_pairs(len(ids), pairs)
    return EffectiveCsi.from_tables(ids, [gains], [corr])


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
    csi = csi_one_cell([1, 2, 3], [9.0, 4.0, 1.0], {(0, 1): 0.9, (0, 2): 0.1, (1, 2): 0.2})
    out = aes_select([1, 2, 3], csi, 0, kprime=2, alpha=0.5)
    assert out.members == [1, 3]
    assert out.fallback == frozenset()


def test_aes_with_alpha_one_reduces_to_top_gain():
    csi = csi_one_cell([1, 2, 3], [9.0, 4.0, 1.0], {(0, 1): 0.9, (0, 2): 1.0, (1, 2): 1.0})
    out = aes_select([1, 2, 3], csi, 0, kprime=2, alpha=1.0)
    assert out.members == [1, 2]


def test_aes_breaks_gain_ties_by_lowest_id():
    csi = csi_one_cell([4, 7, 9], [5.0, 5.0, 1.0], {})
    out = aes_select([9, 7, 4], csi, 0, kprime=1, alpha=0.5)
    assert out.members == [4]


def test_aes_kprime_equal_to_pool_returns_everyone():
    csi = csi_one_cell([1, 2, 3], [9.0, 4.0, 1.0], {(0, 1): 0.9})
    out = aes_select([1, 2, 3], csi, 0, kprime=3, alpha=0.5)
    assert sorted(out.members) == [1, 2, 3]


def test_aes_refills_from_pruned_users_and_flags_them():
    # Everyone conflicts with user 1; refill takes pruned users by gain.
    csi = csi_one_cell(
        [1, 2, 3], [9.0, 4.0, 5.0], {(0, 1): 0.9, (0, 2): 0.8, (1, 2): 0.9}
    )
    out = aes_select([1, 2, 3], csi, 0, kprime=3, alpha=0.5)
    assert out.members == [1, 3, 2]
    assert out.fallback == frozenset({2, 3})


def test_aes_rejects_undersized_pool():
    csi = csi_one_cell([1, 2], [1.0, 2.0], {})
    with pytest.raises(ScheduleError):
        aes_select([1, 2], csi, 0, kprime=3, alpha=0.5)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_aes_non_fallback_members_stay_below_alpha(seed):
    rng = np.random.default_rng(seed)
    n, alpha = 10, 0.4
    vecs = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    unit = vecs / np.linalg.norm(vecs, axis=1)[:, None]
    corr = np.abs(unit @ unit.conj().T)
    np.fill_diagonal(corr, 1.0)
    gains = rng.uniform(1.0, 10.0, size=n)
    ids = list(range(1, n + 1))
    csi = EffectiveCsi.from_tables(ids, [gains], [corr])
    out = aes_select(ids, csi, 0, kprime=5, alpha=alpha)
    kept = [u for u in out.members if u not in out.fallback]
    for i, a in enumerate(kept):
        for b in kept[i + 1:]:
            ra, rb = csi.rows([a, b])
            assert csi.corr[0][ra, rb] <= alpha


# -- first stage: iterative deletion ---------------------------------------


def test_gis_deletes_the_highest_total_correlation_user():
    csi = csi_one_cell([1, 2, 3], [1.0, 1.0, 1.0], {(0, 1): 0.8, (0, 2): 0.7, (1, 2): 0.1})
    out = gis_select([1, 2, 3], csi, 0, kprime=2)
    assert out.members == [2, 3]
    assert out.fallback == frozenset()


def test_gis_kprime_equal_to_pool_is_identity():
    csi = csi_one_cell([3, 5, 8], [1.0, 2.0, 3.0], {(0, 1): 0.9})
    out = gis_select([8, 3, 5], csi, 0, kprime=3)
    assert out.members == [3, 5, 8]


def test_gis_uniform_correlations_keep_highest_ids():
    pairs = {(i, j): 0.5 for i in range(4) for j in range(i + 1, 4)}
    csi = csi_one_cell([10, 11, 12, 13], [1.0, 1.0, 1.0, 1.0], pairs)
    out = gis_select([10, 11, 12, 13], csi, 0, kprime=2)
    assert out.members == [12, 13]


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_gis_is_input_order_invariant(seed):
    rng = np.random.default_rng(seed)
    n = 8
    vecs = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    unit = vecs / np.linalg.norm(vecs, axis=1)[:, None]
    corr = np.abs(unit @ unit.conj().T)
    np.fill_diagonal(corr, 1.0)
    ids = list(range(n))
    csi = EffectiveCsi.from_tables(ids, [rng.uniform(1, 5, n)], [corr])
    ref = gis_select(ids, csi, 0, kprime=4).members
    shuffled = list(ids)
    rng.shuffle(shuffled)
    assert gis_select(shuffled, csi, 0, kprime=4).members == ref


def test_gis_rejects_undersized_pool():
    csi = csi_one_cell([1], [1.0], {})
    with pytest.raises(ScheduleError):
        gis_select([1], csi, 0, kprime=2)


# -- second stage: cross-cell residual scheduling ---------------------------


def test_iccs_first_pick_is_the_gain_argmax():
    csi = csi_one_cell([1, 2, 3], [2.0, 7.0, 5.0], {(0, 1): 0.3, (1, 2): 0.2})
    group = iccs_schedule([type("A", (), {"cell": 0, "members": [1, 2, 3]})()],
                          csi, kbar=1)
    assert group.members == {0: [2]}


def test_iccs_discount_overrides_raw_gain_across_cells():
    # Cell 1's stronger candidate is fully correlated with the user cell 0
    # already placed; the weaker orthogonal candidate must win the slot.
    ids = [1, 2, 3]
    gain = np.array([[4.0, 0.0, 0.0], [0.0, 9.0, 1.0]])
    corr = np.stack([
        corr_from_pairs(3, {}),
        corr_from_pairs(3, {(1, 0): 1.0, (2, 0): 0.0, (1, 2): 0.3}),
    ])
    csi = EffectiveCsi.from_tables(ids, gain, corr)
    from ckmsched.groups import ActiveSet

    sets = [ActiveSet(cell=0, members=[1]), ActiveSet(cell=1, members=[2, 3])]
    group = iccs_schedule(sets, csi, kbar=1)
    assert group.members == {0: [1], 1: [3]}
    mu_c = [m.metric for m in group.meta if m.user == 3]
    assert mu_c == [pytest.approx(1.0)]


def test_iccs_zero_cross_correlation_reduces_to_per_cell_top_gain():
    from ckmsched.groups import ActiveSet

    ids = [1, 2, 3, 4, 5, 6]
    gain = np.array([[3.0, 5.0, 4.0, 0.0, 0.0, 0.0],
                     [0.0, 0.0, 0.0, 1.0, 9.0, 2.0]])
    corr = np.stack([np.eye(6), np.eye(6)])
    csi = EffectiveCsi.from_tables(ids, gain, corr)
    sets = [ActiveSet(0, [1, 2, 3]), ActiveSet(1, [4, 5, 6])]
    group = iccs_schedule(sets, csi, kbar=2)
    assert group.members == {0: [2, 3], 1: [5, 6]}


def test_iccs_rejects_active_set_smaller_than_kbar():
    from ckmsched.groups import ActiveSet

    csi = csi_one_cell([1], [1.0], {})
    with pytest.raises(ScheduleError):
        iccs_schedule([ActiveSet(0, [1])], csi, kbar=2)


# -- baseline: semi-orthogonal selection -----------------------------------


def serving_chans(per_cell):
    """ChannelSet from {cell: {user id: serving-BS channel}}; the rows toward
    the other BSs are zero."""
    owner = {u: c for c, vecs in per_cell.items() for u in vecs}
    ids = np.array(sorted(owner), dtype=np.int64)
    nant = len(next(iter(per_cell[min(per_cell)].values())))
    h = np.zeros((len(per_cell), len(ids), nant), dtype=np.complex128)
    for i, u in enumerate(ids.tolist()):
        h[owner[u], i] = per_cell[owner[u]][u]
    return ChannelSet(ids=ids, cell_of=np.array([owner[u] for u in ids.tolist()]), h=h)


def test_sus_selects_all_mutually_orthogonal_users():
    chans = serving_chans(
        {0: {1: [3.0, 0.0, 0.0], 2: [0.0, 2.0, 0.0], 3: [0.0, 0.0, 1.0]}}
    )
    group = sus_schedule(chans, kbar=3, alpha=0.01)
    assert group.members == {0: [1, 2, 3]}


def test_sus_prunes_collinear_candidates():
    chans = serving_chans({0: {1: [2.0, 0.0], 2: [1.0, 0.0], 3: [0.0, 1.0]}})
    group = sus_schedule(chans, kbar=2, alpha=0.5)
    assert group.members == {0: [1, 3]}


def test_sus_first_pick_maximizes_channel_norm():
    chans = serving_chans({0: {1: [1.0, 0.0], 2: [0.0, 5.0], 3: [2.0, 0.0]}})
    group = sus_schedule(chans, kbar=1, alpha=0.5)
    assert group.members == {0: [2]}


def test_sus_falls_back_to_highest_norm_pruned_users():
    chans = serving_chans({0: {1: [3.0, 0.0], 2: [2.0, 0.0], 3: [1.0, 0.0]}})
    group = sus_schedule(chans, kbar=2, alpha=0.5)
    assert group.members == {0: [1, 2]}
    src = {m.user: m.source for m in group.meta}
    assert src[1] == "icsi"
    assert src[2] == "fallback"


def test_sus_prunes_at_exactly_alpha():
    # User 2 is collinear with the first pick: its correlation is exactly 1.0,
    # so alpha = 1 prunes it and it returns only as a fallback.
    chans = serving_chans({0: {1: [2.0, 0.0], 2: [1.0, 0.0], 3: [0.0, 0.5]}})
    group = sus_schedule(chans, kbar=3, alpha=1.0)
    assert group.members == {0: [1, 3, 2]}
    assert [m.source for m in group.meta] == ["icsi", "icsi", "fallback"]


def test_sus_rejects_undersized_cell():
    with pytest.raises(ScheduleError):
        sus_schedule(serving_chans({0: {1: [1.0, 0.0]}}), kbar=2, alpha=0.5)


def test_sus_handles_multiple_cells_independently():
    chans = serving_chans({
        0: {1: [2.0, 0.0], 2: [0.0, 1.0]},
        1: {3: [0.0, 3.0], 4: [1.0, 0.0]},
    })
    group = sus_schedule(chans, kbar=1, alpha=0.9)
    assert group.members == {0: [1], 1: [3]}


# -- baseline: exact greedy -------------------------------------------------


def one_cell_chans(vectors):
    ids = np.array(sorted(vectors), dtype=np.int64)
    h = np.stack([np.asarray(vectors[int(u)], dtype=np.complex128) for u in ids])
    return ChannelSet(ids=ids, cell_of=np.zeros(len(ids), dtype=np.int64),
                      h=h[None, :, :])


def test_greedy_single_slot_without_interference_takes_top_gain():
    chans = one_cell_chans({1: [2.0, 0.0], 2: [0.0, 1.0], 3: [1.0, 0.0]})
    group = greedy_schedule(chans, kbar=1, noise_power=1.0)
    assert group.members == {0: [1]}


def test_greedy_fills_every_cell_with_kbar_distinct_users():
    rng = np.random.default_rng(3)
    n = 8
    ids = np.arange(n)
    cells = np.array([0] * 4 + [1] * 4)
    h = rng.normal(size=(2, n, 4)) + 1j * rng.normal(size=(2, n, 4))
    chans = ChannelSet(ids=ids, cell_of=cells, h=h)
    group = greedy_schedule(chans, kbar=2, noise_power=0.5)
    assert sorted(group.members) == [0, 1]
    for cell, picks in group.members.items():
        assert len(picks) == 2
        assert len(set(picks)) == 2
        assert set(picks) <= set(ids[cells == cell].tolist())


def test_greedy_rejects_undersized_cell():
    chans = one_cell_chans({1: [1.0, 0.0]})
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


# -- CSI fusion ---------------------------------------------------------------


def test_fuse_keeps_map_statistics_when_every_grid_is_reliable(static_scenario):
    ckm = build_ckm(static_scenario, delta=1.0)
    users = place_users(static_scenario, 0)
    # No channels are passed: a user needing them would raise.
    csi = fuse_effective_csi(ckm, users, mode="auto")
    assert csi.acquired == []
    assert np.all(csi.source == 1)
    for i, u in enumerate(sorted(users, key=lambda x: x.id)):
        for l in range(ckm.n_cells):
            assert csi.gain[l, i] == ckm.epsilon[l, u.grid.g]
            assert np.array_equal(csi.vectors[l, i], ckm.h_bar[l, u.grid.g])


def test_fuse_substitutes_true_channels_on_unreliable_grids(small_scenario):
    ckm = build_ckm(small_scenario, eta=0.0)
    users = place_users(small_scenario, 1)
    chans = trial_channels(small_scenario, users, realization=2)
    csi = fuse_effective_csi(ckm, users, chans, mode="auto")
    assert csi.acquired == sorted(u.id for u in users)
    assert np.all(csi.source == 0)
    for i, uid in enumerate(csi.user_ids):
        for l in range(ckm.n_cells):
            h = chans.h[l, chans.index[int(uid)]]
            assert np.array_equal(csi.vectors[l, i], h)
            assert csi.gain[l, i] == pytest.approx(np.sum(np.abs(h) ** 2))


def test_fuse_scsi_mode_never_acquires(small_scenario):
    ckm = build_ckm(small_scenario, eta=0.0)
    users = place_users(small_scenario, 1)
    csi = fuse_effective_csi(ckm, users, mode="scsi")
    assert csi.acquired == []
    assert np.all(csi.source == 1)


def test_fuse_correlations_match_fused_vectors(small_scenario, small_ckm):
    users = place_users(small_scenario, 4)
    chans = trial_channels(small_scenario, users, realization=5)
    csi = fuse_effective_csi(small_ckm, users, chans, mode="auto")
    for l in range(small_ckm.n_cells):
        unit = csi.vectors[l] / np.linalg.norm(csi.vectors[l], axis=1)[:, None]
        expect = np.abs(unit @ unit.conj().T)
        np.fill_diagonal(expect, 1.0)
        # BS l holds the rows of the users it serves, against every user
        served = sorted(u.id for u in users if u.cell == l)
        assert csi.corr_ids[l].tolist() == served
        assert csi.corr[l].shape == (len(served), len(users))
        assert np.allclose(csi.corr[l], expect[csi.rows(served)])
    assert csi.source[0, csi.rows(csi.acquired[:1])[0]] == 0
    grids = [u.grid.g for u in sorted(users, key=lambda u: u.id)]
    assert np.array_equal(csi.source == 0, small_ckm.reliable[:, grids] == 0)


def test_fuse_requires_provider_for_unreliable_grids(small_scenario):
    ckm = build_ckm(small_scenario, eta=0.0)
    users = place_users(small_scenario, 1)
    with pytest.raises(ValueError, match="chans required"):
        fuse_effective_csi(ckm, users, mode="auto")


def test_fuse_validates_provider_shape(small_scenario):
    ckm = build_ckm(small_scenario, eta=0.0)
    users = place_users(small_scenario, 1)
    chans = trial_channels(small_scenario, users, realization=2)
    for h in (chans.h[:1], chans.h[..., :3], chans.h[0]):
        bad = ChannelSet(ids=chans.ids, cell_of=chans.cell_of, h=h)
        with pytest.raises(ValueError, match="one row per"):
            fuse_effective_csi(ckm, users, bad, mode="auto")


def test_fused_rows_follow_ascending_ids_and_reject_unknown_ids(small_scenario, small_ckm):
    users = place_users(small_scenario, 1)
    csi = fuse_effective_csi(small_ckm, users, mode="scsi")
    ids = csi.user_ids.tolist()
    assert ids == sorted(u.id for u in users)
    assert csi.rows(ids[::-1]).tolist() == list(range(len(ids)))[::-1]
    for unknown in ([max(ids) + 1], [-1], [ids[0], max(ids) + 5]):
        with pytest.raises(ScheduleError, match=str(unknown[-1])):
            csi.rows(unknown)
    with pytest.raises(ValueError, match="strictly ascending"):
        EffectiveCsi.from_tables([3, 1, 2], [[1.0, 2.0, 3.0]], [np.eye(3)])


def test_from_tables_rejects_tables_that_do_not_cover_every_user():
    ids, gain = [1, 2, 3], [[1.0, 2.0, 3.0]]
    for corr in ([np.eye(2)], np.eye(3), [np.eye(3)[:2]], [np.eye(3)] * 2):
        with pytest.raises(ValueError, match="corr"):
            EffectiveCsi.from_tables(ids, gain, corr)
    with pytest.raises(ValueError, match="gain"):
        EffectiveCsi.from_tables(ids, [1.0, 2.0, 3.0], [np.eye(3)])
    # gis_select's band bound needs correlations in [0, 1]
    for rho in (-0.1, 1.5):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            EffectiveCsi.from_tables(ids, gain, [corr_from_pairs(3, {(0, 1): rho})])
    csi = EffectiveCsi.from_tables(ids, gain, [np.eye(3)])
    assert csi.corr_rows(0, [3, 1]).tolist() == [2, 0]
    with pytest.raises(ScheduleError, match="BS 0"):
        csi.corr_rows(0, [4])


def test_fuse_rejects_duplicate_ids_and_bad_mode(static_scenario):
    ckm = build_ckm(static_scenario, delta=1.0)
    users = place_users(static_scenario, 0)
    with pytest.raises(ValueError, match="duplicate"):
        fuse_effective_csi(ckm, users + [users[0]], mode="scsi")
    with pytest.raises(ValueError, match="fusion mode"):
        fuse_effective_csi(ckm, users, mode="genie")


# -- fused two-stage pipeline --------------------------------------------------


def test_robust_on_fully_reliable_map_equals_map_only_pipeline(static_scenario):
    ckm = build_ckm(static_scenario, delta=1.0)
    cfg = static_scenario.config
    users = place_users(static_scenario, 3)
    robust, rc = robust_two_stage(
        ckm, users, cfg.kprime, cfg.kbar, cfg.alpha, csi_mode="auto"
    )
    baseline, bc = robust_two_stage(
        ckm, users, cfg.kprime, cfg.kbar, cfg.alpha, csi_mode="scsi"
    )
    assert robust.members == baseline.members
    assert rc == bc == {
        "csi_acquisitions": 0,
        "info_exchange": cfg.n_cells * cfg.kprime,
    }


def test_robust_on_fully_unreliable_map_acquires_everyone(small_scenario):
    ckm = build_ckm(small_scenario, eta=0.0)
    cfg = small_scenario.config
    users = place_users(small_scenario, 5)
    chans = trial_channels(small_scenario, users, realization=6)
    group, counters = robust_two_stage(
        ckm, users, cfg.kprime, cfg.kbar, cfg.alpha, chans=chans, csi_mode="auto"
    )
    L = cfg.n_cells
    total_users = L * cfg.users_per_cell
    candidates = L * cfg.kprime
    assert counters["csi_acquisitions"] == L * total_users
    assert counters["info_exchange"] == candidates + candidates * (1 + L**2)
    assert group.size() == L * cfg.kbar


def test_robust_pipeline_is_deterministic(small_scenario, small_ckm):
    cfg = small_scenario.config
    runs = []
    for _ in range(2):
        users = place_users(small_scenario, 7)
        chans = trial_channels(small_scenario, users, realization=8)
        group, _ = robust_two_stage(
            small_ckm, users, cfg.kprime, cfg.kbar, cfg.alpha,
            first_stage="gis", chans=chans, csi_mode="auto",
        )
        runs.append(group.members)
    assert runs[0] == runs[1]


def test_robust_rejects_unknown_first_stage(small_scenario, small_ckm):
    users = place_users(small_scenario, 0)
    with pytest.raises(ValueError, match="first stage"):
        robust_two_stage(small_ckm, users, 4, 2, 0.5, first_stage="best")


def test_group_export_lists_each_member_once(tmp_path, static_scenario):
    ckm = build_ckm(static_scenario, delta=1.0)
    cfg = static_scenario.config
    users = place_users(static_scenario, 3)
    group, _ = robust_two_stage(
        ckm, users, cfg.kprime, cfg.kbar, cfg.alpha, csi_mode="scsi"
    )
    out = tmp_path / "group.csv"
    group.export_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "cell,slot,user_id,metric,csi_source"
    assert len(lines) == 1 + group.size()
