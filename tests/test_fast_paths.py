"""Fast paths against the slow references in tests/reference.py.

greedy_schedule and brute_force_optimum rank candidates with the batched
closed form and confirm picks with evaluate_group; these tests require the
same members, the same selection metrics and the same repr(sum_rate) as
scoring every candidate exactly. Scenario construction, build_ckm,
place_users, multi-BS channel_rows, CSI fusion, AES, ICCS and SUS are
batched array code; they must equal the per-square, per-cluster, per-grid,
per-user and per-position paths bit for bit.
"""

import math

import numpy as np
import pytest

from ckmsched import build_ckm, build_scenario, evaluation, scheduling
from ckmsched.errors import OutOfClusterError
from ckmsched.evaluation import (
    brute_force_optimum,
    candidate_rates,
    evaluate_group,
    sum_rate,
)
from ckmsched.experiments import (
    cached_ckm,
    cached_noise,
    cached_scenario,
    place_users,
    trial_channels,
)
from ckmsched.geometry import channel_rows
from ckmsched.groups import UserGroup
from ckmsched.scheduling import (
    EffectiveCsi,
    aes_select,
    fuse_effective_csi,
    gis_select,
    greedy_schedule,
    iccs_schedule,
    sus_schedule,
)

from conftest import desk_config, synthetic_chans
from reference import (
    aes_reference,
    brute_force_reference,
    channel_rows_reference,
    fuse_reference,
    gis_reference,
    greedy_reference,
    iccs_reference,
    lattice_reference,
    locate_reference,
    map_survey_reference,
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
    return trial_channels(scenario, users, seed + 1), cached_noise(cfg)


def assert_same_greedy(chans, kbar, noise):
    fast = greedy_schedule(chans, kbar, noise)
    slow = greedy_reference(chans, kbar, noise)
    assert fast.members == slow.members
    assert [(m.user, m.cell, m.slot, m.metric) for m in fast.meta] == [
        (m.user, m.cell, m.slot, m.metric) for m in slow.meta
    ]
    assert repr(sum_rate(fast, chans, noise)) == repr(sum_rate(slow, chans, noise))
    return fast


def assert_same_brute_force(chans, kbar, noise):
    group, rate = brute_force_optimum(chans, kbar, noise)
    ref_group, ref_rate = brute_force_reference(chans, kbar, noise)
    assert group.members == ref_group.members
    assert repr(rate) == repr(ref_rate)
    return group


def random_chans(rng, users_per_cell, n_cells, n_antennas):
    n = users_per_cell * n_cells
    h = rng.normal(size=(n_cells, n, n_antennas)) + 1j * rng.normal(
        size=(n_cells, n, n_antennas)
    )
    return synthetic_chans(h, np.repeat(np.arange(n_cells), users_per_cell))


@pytest.fixture
def exact_calls(monkeypatch):
    """Count exact evaluate_group evaluations (sum_rate included).

    The references and assert_same_* score through evaluate_group too, so a
    test reads the list right after the fast scheduler returns and clears it
    before comparing against a reference."""
    calls = []
    exact = evaluation.evaluate_group

    def counted(group, chans, noise_power):
        calls.append(group)
        return exact(group, chans, noise_power)

    monkeypatch.setattr(evaluation, "evaluate_group", counted)
    return calls


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


def assert_same_group(fast, slow, chans, noise):
    assert fast.members == slow.members
    assert [(m.user, m.cell, m.slot, repr(m.metric), m.source) for m in fast.meta] == [
        (m.user, m.cell, m.slot, repr(m.metric), m.source) for m in slow.meta
    ]
    assert repr(sum_rate(fast, chans, noise)) == repr(sum_rate(slow, chans, noise))


def assert_same_fusion(fast, slow, ids_by_cell):
    """Fused CSI equal to the per-user reference byte for byte; each BS
    holds the rows of its own users, equal to the rows of the full table."""
    for name in ("vectors", "gain", "source"):
        assert getattr(fast, name).tobytes() == getattr(slow, name).tobytes(), name
    assert fast.acquired == slow.acquired
    for l, ids in enumerate(ids_by_cell):
        assert fast.corr_ids[l].tolist() == ids
        assert fast.corr[l].tobytes() == slow.corr[l][ids].tobytes()


def test_one_user_cells_fuse_like_the_full_tables():
    # a one-row block would go through gemv and round differently
    cfg = desk_config(users_per_cell=1, kbar=1, kprime=1)
    for seed in range(10):
        users = place_users(cached_scenario(cfg), seed)
        chans, _ = trial_instance(cfg, seed)
        ids = [[u.id for u in users if u.cell == l] for l in range(cfg.n_cells)]
        assert_same_fusion(fuse_effective_csi(cached_ckm(cfg), chans),
                           fuse_reference(cached_ckm(cfg), chans), ids)


def two_stage_and_sus_fallbacks(cfg, seed):
    """Check fusion (both modes), AES, GIS, ICCS on AES and GIS sets, and SUS
    against the per-user references on one trial; returns the number of AES
    fallback users and SUS fallback picks."""
    users = place_users(cached_scenario(cfg), seed)
    chans, noise = trial_instance(cfg, seed)
    cells = range(cfg.n_cells)
    ids = [[u.id for u in users if u.cell == l] for l in cells]
    aes_fallbacks = 0
    for mode in ("auto", "scsi"):
        fast = fuse_effective_csi(cached_ckm(cfg), chans, mode=mode)
        slow = fuse_reference(cached_ckm(cfg), chans, mode=mode)
        assert_same_fusion(fast, slow, ids)
        aes = [aes_select(ids[l], fast, l, cfg.kprime, cfg.alpha) for l in cells]
        for l, a in zip(cells, aes):
            ref = aes_reference(ids[l], slow, l, cfg.kprime, cfg.alpha)
            assert (a.cell, a.members, a.fallback) == (ref.cell, ref.members, ref.fallback)
            aes_fallbacks += len(a.fallback)
        gis = [gis_select(ids[l], fast, l, cfg.kprime) for l in cells]
        for l, g in zip(cells, gis):
            assert g.members == gis_reference(ids[l], slow, l, cfg.kprime).members
        for sets in (aes, gis):
            assert_same_group(iccs_schedule(sets, fast, cfg.kbar),
                              iccs_reference(sets, slow, cfg.kbar), chans, noise)
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
    cfg, seeds, sus_refills, gis_bands
):
    aes, sus = np.sum([two_stage_and_sus_fallbacks(cfg, seed) for seed in seeds], axis=0)
    # the instances take the AES (and, but for dense, the SUS) refill path
    assert aes > 0
    assert (sus > 0) == sus_refills
    # users sharing a grid tie in GIS, so some bands hold several rows
    assert gis_bands and min(gis_bands) > 1


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
        csi = EffectiveCsi.from_tables([np.ones(n)], [table])
        for kprime in (1, 5, 12):
            assert (gis_select(ids, csi, 0, kprime).members
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


def test_greedy_breaks_exact_ties_by_lowest_id(exact_calls):
    chans = duplicated_chans()
    group = greedy_schedule(chans, 2, 0.5)
    # the first pick was confirmed by re-scoring both tied candidates
    assert len(exact_calls) >= 2
    assert {exact_calls[0].members[0][0], exact_calls[1].members[0][0]} == {1, 2}
    exact_calls.clear()
    assert assert_same_greedy(chans, 2, 0.5).members == group.members
    first = group.meta[0]
    assert (first.cell, first.user) == (0, 1)
    assert 2 not in group.members[0]


def test_brute_force_breaks_exact_ties_by_lowest_selection(exact_calls):
    chans = duplicated_chans()
    group, rate = brute_force_optimum(chans, 1, 0.5)
    # the tied candidates were evaluated exactly, and the winner only once
    assert len(exact_calls) >= 2
    assert [g.members for g in exact_calls].count(group.members) == 1
    exact_calls.clear()
    assert group.members[0] == [1]
    assert [m.metric for m in group.meta] == [
        evaluate_group(group, chans, 0.5)[1][m.user] for m in group.meta
    ]
    assert assert_same_brute_force(chans, 1, 0.5).members == group.members


def test_high_sinr_falls_back_to_exact_scoring(exact_calls):
    # At SINR ~1e9 the closed form's 1 - a loses too many digits to rank.
    chans = synthetic_chans(
        [[[1.0, 0.1], [0.2, 1.0], [0.7, 0.7], [1.0, -0.3]]], [0, 0, 0, 0]
    )
    noise = 1e-9
    assert candidate_rates(chans, {0: []}, 0, [0, 1, 2, 3], noise) is None
    group = greedy_schedule(chans, 2, noise)
    # every candidate of both slots was scored exactly by the scheduler
    assert len(exact_calls) >= 4 + 3
    exact_calls.clear()
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
        everyone = group.all_users()
        for cell, served in group.members.items():
            s = chans.h[cell, everyone]
            r_inv = np.linalg.inv(s.T @ s.conj() + noise * np.eye(n_ant))
            for uid in served:
                h = chans.h[cell, uid]
                a = np.vdot(h, r_inv @ h).real
                assert a / (1.0 - a) == pytest.approx(ref[uid], rel=1e-9)
                assert gammas[uid] == pytest.approx(ref[uid], rel=1e-9)


def test_candidate_rates_match_exact_sum_rates():
    rng = np.random.default_rng(4)
    for _ in range(20):
        chans = random_chans(rng, 5, 3, 4)
        noise = float(rng.uniform(0.1, 1.0))
        members = {0: [0], 1: [5, 6], 2: []}
        cell = int(rng.integers(0, 3))
        pool = [u for u in range(5 * cell, 5 * cell + 5) if u not in members[cell]]
        fast = candidate_rates(chans, members, cell, pool, noise)
        for score, uid in zip(fast, pool):
            trial = {c: list(v) for c, v in members.items()}
            trial[cell].append(uid)
            exact = sum_rate(UserGroup(members=trial), chans, noise)
            assert math.isclose(score, exact, rel_tol=1e-9)


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


def test_multi_bs_channel_rows_equal_per_position_channels():
    # One stacked call against one call per BS, the per-BS per-row reference,
    # position pairs and single positions, byte for byte.
    scen = build_scenario(desk_config(n_cells=3, dynamic_grid_fraction=0.5))
    rng = np.random.default_rng(3)
    # Every grid center plus random points around them, with repeated
    # realizations so that (grid, realization) pairs recur in the batch.
    gids = np.concatenate([np.arange(scen.n_grids), rng.integers(0, scen.n_grids, 60)])
    offs = (rng.random((len(gids), 2)) - 0.5) * scen.config.grid_edge_m
    offs[: scen.n_grids] = 0.0
    pos = scen.grid_centers[gids] + offs
    reals = rng.integers(0, 4, len(gids))
    bss = [2, 0, 1, 0]
    rows = channel_rows(scen, bss, pos, reals)
    assert rows.shape == (len(bss), len(gids), scen.n_antennas)
    anchor = scen.grid_centers[0]
    for j, l in enumerate(bss):
        assert channel_rows(scen, l, pos, reals).tobytes() == rows[j].tobytes()
        ref = channel_rows_reference(scen, l, pos, reals)
        assert ref.tobytes() == rows[j].tobytes()
        for i in range(len(gids)):
            # numpy would hand a one-row static-cluster product to gemv,
            # which can differ from gemm in the last bit.
            pair = channel_rows(scen, l, [pos[i], anchor], [reals[i], 0])
            assert pair[0].tobytes() == rows[j, i].tobytes()
            one = channel_rows(scen, l, pos[i], reals[i])[0]
            assert one.tobytes() == rows[j, i].tobytes()


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
    assert [scen.locate(pts[i]).g for i in inside] == [want[i] for i in inside]
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
], ids=["desk", "table_clustered", "dense_uniform"])
def test_place_users_matches_the_per_user_reference(cfg, seeds):
    scenario = cached_scenario(cfg)
    for seed in seeds:
        assert place_users(scenario, seed) == place_users_reference(scenario, seed)
