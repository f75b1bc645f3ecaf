"""Slow reference implementations that the production fast paths are
checked against: one exact evaluate_group call per candidate group, the
per-BS MMSE loop of one group that evaluate_group batches,
per-user SINRs through the public mmse_receiver / sinr functions, the
per-grid map survey through one channel_rows call and scalar statistics
(np.vdot, the 1-D np.linalg.norm and np.var) per (BS, grid), the one-shot
map survey over every grid at once, one csv.writer row per exported
correlation pair, per-user placement, a scalar grid lookup, per-BS,
per-row channel synthesis, one SeedSequence-seeded stream per jitter
(grid, realization) pair and per dynamic grid's clusters, and the per-user
CSI fusion, first-stage, ICCS and SUS loops that read the fused table one
user at a time (user i is row i), and the scenario's nested per-square
grid lattice and per-cluster steering rows built from one scalar steering
vector at a time.
"""

import csv
import io
import math
from itertools import combinations, product

import numpy as np

from ckmsched import ckm as ckm_module
from ckmsched.ckm import (
    _corr_rows,
    grid_variance,
    reliability_indicator,
    statistical_channel,
    statistical_correlation,
    statistical_gain,
)
from ckmsched.evaluation import evaluate_group, mmse_receiver, sinr
from ckmsched.experiments import UserRecord
from ckmsched.geometry import (
    _TAG_DYNAMIC_PLACE,
    _TAG_JITTER,
    _TAG_USERS,
    _seeded,
    channel_rows,
    path_loss_db,
    sample_grid,
)
from ckmsched.groups import ActiveSet, SelectionRecord, UserGroup
from ckmsched.scheduling import EffectiveCsi

from conftest import csi_from_tables


def corr_matrix(vectors: np.ndarray) -> np.ndarray:
    """|normalized Gram matrix| of vectors (n, N) with unit diagonal,
    clipped to [0, 1]: every row of _corr_rows at once."""
    return _corr_rows(vectors, np.arange(len(vectors)))


def first_max(scores) -> int:
    """Index of the first strict maximum (the lowest-id tie-break)."""
    best = 0
    for i in range(1, len(scores)):
        if scores[i] > scores[best]:
            best = i
    return best


def greedy_reference(chans, kbar: int, noise_power: float) -> UserGroup:
    """Greedy sum-rate maximization scoring every candidate group exactly."""
    bycell = chans.ids_by_cell()
    cells = sorted(bycell)
    members = {l: [] for l in cells}
    remaining = {l: sorted(bycell[l]) for l in cells}
    meta = []
    for slot in range(kbar):
        for l in cells:
            rates = []
            for uid in remaining[l]:
                trial = {c: list(v) for c, v in members.items()}
                trial[l].append(uid)
                rates.append(evaluate_group(UserGroup(members=trial), chans, noise_power)[0])
            j = first_max(rates)
            uid = remaining[l].pop(j)
            members[l].append(uid)
            meta.append(SelectionRecord(uid, l, slot, rates[j], "icsi"))
    return UserGroup(members=members, meta=meta)


def brute_force_reference(chans, kbar: int, noise_power: float):
    """Exhaustive search scoring every combination exactly, in
    lexicographic order, keeping the first strict maximum."""
    bycell = chans.ids_by_cell()
    cells = sorted(bycell)
    best_rate = -1.0
    best = None
    for pick in product(*(combinations(bycell[l], kbar) for l in cells)):
        group = UserGroup(members={l: list(p) for l, p in zip(cells, pick)})
        rate = evaluate_group(group, chans, noise_power)[0]
        if rate > best_rate:
            best_rate, best = rate, group
    rate, _ = evaluate_group(best, chans, noise_power)
    return best, float(rate)


def evaluate_group_reference(group: UserGroup, chans, noise_power: float):
    """(rate, gammas) of one group with one MMSE solve per BS, cell by cell
    and ascending ids within a cell, and each user's SINR from numpy
    scalars: the loop evaluate_group stacks across its BSs."""
    cells = sorted(group.members)
    served_by = [sorted(group.members[cell]) for cell in cells]
    ids = [uid for served in served_by for uid in served]
    if not ids:
        return 0.0, {}
    seen = chans.rows(ids)  # (L, m, N), all scheduled users seen at each BS
    gammas = {}
    total = 0.0
    stop = 0
    for cell, served in zip(cells, served_by):
        start, stop = stop, stop + len(served)
        if not served:
            continue
        s = seen[cell]
        n = s.shape[1]
        cov = s.T @ s.conj() + noise_power * np.eye(n, dtype=np.complex128)
        d = s[start:stop].T  # (N, served)
        w = np.linalg.solve(cov, d)
        cross = w.conj().T @ s.T  # (served, m): cross[j, i] = w_j^H h_i
        p = np.abs(cross) ** 2
        wn2 = np.sum(np.abs(w) ** 2, axis=0)
        for j, uid in enumerate(served):
            num = p[j, start + j]
            den = p[j].sum() - num + noise_power * wn2[j]
            g = float(num / den)
            gammas[uid] = g
            total += math.log2(1.0 + g)
    return total, gammas


def sinr_reference(group: UserGroup, chans, noise_power: float) -> dict[int, float]:
    """Per-user SINR with one mmse_receiver solve per scheduled user."""
    everyone = [u for cell in sorted(group.members) for u in group.members[cell]]
    out = {}
    for cell, served in group.members.items():
        for uid in served:
            d = chans.h[cell, uid]
            others = [chans.h[cell, u] for u in everyone if u != uid]
            w = mmse_receiver(d, others, noise_power).weights
            out[uid] = sinr(w, d, others, [], noise_power)
    return out


def grid_statistics_reference(samples, center):
    """h_bar, epsilon and sigma of one (BS, grid) from its (s, N) sample rows
    and its center row: the sample mean and mean squared norm, one np.vdot,
    1-D np.linalg.norm and min per sample, then np.var of the
    sample-to-center correlations."""
    h_bar = samples.mean(axis=0)
    epsilon = float(np.mean(np.sum(np.abs(samples) ** 2, axis=1)))
    nc = np.linalg.norm(center)
    corrs = [min(abs(np.vdot(v, center)) / (np.linalg.norm(v) * nc), 1.0)
             for v in samples]
    return h_bar, epsilon, float(np.var(corrs))


def map_survey_reference(scenario, s: int, eta: float):
    """h_bar, epsilon, sigma, reliable and delta of build_ckm at a
    quantile threshold 0 < eta < 1, with one channel_rows call per grid
    (samples at realizations 1..s, the center at 0) and one set of scalar
    statistics per (BS, grid)."""
    L, G, N = scenario.config.n_cells, scenario.n_grids, scenario.n_antennas
    h_bar = np.zeros((L, G, N), dtype=np.complex128)
    epsilon = np.zeros((L, G))
    sigma = np.zeros((L, G))
    reals = list(range(1, s + 1)) + [0]
    for g in range(G):
        pos = np.vstack([scenario.grid_sample_positions(g, s), scenario.grid_centers[g]])
        for l, rows in enumerate(channel_rows(scenario, pos, reals)):
            h_bar[l, g], epsilon[l, g], sigma[l, g] = grid_statistics_reference(
                rows[:s], rows[s]
            )
    delta = float(np.quantile(sigma.ravel(), eta, method="lower"))
    reliable = np.array(
        [[1 if x <= delta else 0 for x in row] for row in sigma], dtype=np.uint8
    )
    return h_bar, epsilon, sigma, reliable, delta


def one_shot_survey_reference(scenario, s: int, eta: float):
    """h_bar, epsilon, sigma, reliable and delta of build_ckm at a quantile
    threshold 0 < eta < 1, from one sample_grid call over every grid (the
    survey before it ran in grid blocks)."""
    samples, centers = sample_grid(scenario, np.arange(scenario.n_grids), s)
    h_bar = statistical_channel(samples)
    epsilon = statistical_gain(samples)
    sigma = grid_variance(statistical_correlation(samples, centers[..., None, :]))
    delta = float(np.quantile(sigma.ravel(), eta, method="lower"))
    return h_bar, epsilon, sigma, reliability_indicator(sigma, delta), delta


def corr_csv_reference(ckm, l: int) -> bytes:
    """corr_bs{l}.csv of UsCkm.export_csv with one csv.writer row per grid
    pair, over the same blocks of ckm_module.GRID_BLOCK rows."""
    out = io.StringIO(newline="")
    w = csv.writer(out)
    w.writerow(["grid_a", "grid_b", "rho"])
    for start in range(0, ckm.n_grids, ckm_module.GRID_BLOCK):
        rows = np.arange(start, min(start + ckm_module.GRID_BLOCK, ckm.n_grids))
        corr = _corr_rows(ckm.h_bar[l], rows)
        for a, vals in zip(rows.tolist(), corr.tolist()):
            for b in range(a + 1, ckm.n_grids):
                w.writerow([a, b, f"{vals[b]:.12e}"])
    return out.getvalue().encode()


def place_users_reference(scenario, trial_seed: int) -> list[UserRecord]:
    """place_users with one rng.choice, one offset draw and one locate per
    user."""
    cfg = scenario.config
    rng = _seeded(cfg.rng_seed, _TAG_USERS, trial_seed)
    edge = cfg.grid_edge_m
    users = []
    uid = 0
    for cell in range(cfg.n_cells):
        grids = scenario.grids_of_cell[cell]
        if cfg.placement == "clustered":
            anchors = rng.choice(grids, size=min(cfg.hotspots_per_cell, len(grids)),
                                 replace=False)
            centers = scenario.grid_centers[grids]
            spread = 2.0 * edge
            weights = np.zeros(len(grids))
            for a in anchors:
                d2 = np.sum((centers - scenario.grid_centers[a]) ** 2, axis=1)
                weights += np.exp(-d2 / (2.0 * spread**2))
            weights /= weights.sum()
        else:
            weights = None
        for _ in range(cfg.users_per_cell):
            g = int(rng.choice(grids, p=weights))
            pos = scenario.grid_centers[g] + (rng.random(2) - 0.5) * edge
            grid = scenario.locate(pos)
            users.append(UserRecord(
                id=uid, cell=int(scenario.grid_serving[grid]), grid=grid,
                x=float(pos[0]), y=float(pos[1]),
            ))
            uid += 1
    return users


def locate_reference(scenario, position) -> int | None:
    """Grid id of a position, or None outside the cluster: floor it onto the
    lattice and find the grid whose center is that square's center."""
    edge = scenario.config.grid_edge_m
    x0, y0 = scenario.origin.tolist()
    squares = {
        (round((cx - x0) / edge - 0.5), round((cy - y0) / edge - 0.5)): g
        for g, (cx, cy) in enumerate(scenario.grid_centers.tolist())
    }
    ix = math.floor((float(position[0]) - x0) / edge)
    iy = math.floor((float(position[1]) - y0) / edge)
    return squares.get((ix, iy))


def lattice_reference(scenario):
    """grid_centers, grid_serving and the lattice from one np.hypot over the
    BSs per lattice square, in row-major lattice order."""
    cfg = scenario.config
    bs_xy = scenario.bs_xy
    edge, radius = cfg.grid_edge_m, cfg.cell_radius_m
    x0 = float(bs_xy[:, 0].min() - radius)
    y0 = float(bs_xy[:, 1].min() - radius)
    x1 = float(bs_xy[:, 0].max() + radius)
    y1 = float(bs_xy[:, 1].max() + radius)
    n_ix = max(1, math.ceil((x1 - x0) / edge - 1e-9))
    n_iy = max(1, math.ceil((y1 - y0) / edge - 1e-9))
    centers, serving = [], []
    lattice = np.full((n_iy, n_ix), -1, dtype=np.int64)
    for iy in range(n_iy):
        cy = y0 + (iy + 0.5) * edge
        for ix in range(n_ix):
            cx = x0 + (ix + 0.5) * edge
            d = np.hypot(bs_xy[:, 0] - cx, bs_xy[:, 1] - cy)
            best = int(np.argmin(d))
            if d[best] <= radius + 1e-9:
                lattice[iy, ix] = len(centers)
                centers.append((cx, cy))
                serving.append(best)
    return (np.array(centers, dtype=float), np.array(serving, dtype=np.int64), lattice)


def array_response_reference(n_h, n_v, azimuth: float, elevation: float,
                             polarization: int) -> np.ndarray:
    """One steering vector of the half-wavelength dual-polarized array from
    scalar math.sin / math.cos."""
    k = math.pi  # 2*pi * spacing / wavelength at half-wavelength spacing
    ph = k * np.arange(n_h) * math.sin(azimuth) * math.cos(elevation)
    pv = k * np.arange(n_v) * math.sin(elevation)
    block = np.exp(1j * (ph[:, None] + pv[None, :])).ravel() / math.sqrt(n_h * n_v)
    out = np.zeros(2 * n_h * n_v, dtype=np.complex128)
    size = n_h * n_v
    out[polarization * size : (polarization + 1) * size] = block
    return out


def steering_mix_reference(scenario):
    """static_mix and dyn_mix from two scalar steering vectors per (BS,
    cluster)."""
    cfg = scenario.config
    sf = scenario.scatterers

    def rows(l, positions, gains):
        out = np.zeros((len(positions), scenario.n_antennas), dtype=np.complex128)
        bs = scenario.bs_xy[l]
        for c, p in enumerate(positions):
            d2 = math.hypot(p[0] - bs[0], p[1] - bs[1])
            az = math.atan2(p[1] - bs[1], p[0] - bs[0])
            el = math.atan2(cfg.user_height_m - cfg.bs_height_m, max(d2, 1e-6))
            a0 = array_response_reference(cfg.n_h, cfg.n_v, az, el, 0)
            a1 = array_response_reference(cfg.n_h, cfg.n_v, az, el, 1)
            out[c] = gains[c, 0] * a0 + gains[c, 1] * a1
        return out

    L = cfg.n_cells
    static = np.stack([rows(l, sf.static_positions, sf.static_gains) for l in range(L)])
    dyn = np.zeros((L,) + sf.dynamic_positions.shape[:2] + (scenario.n_antennas,),
                   dtype=np.complex128)
    for l in range(L):
        for a in range(len(sf.dynamic_positions)):
            dyn[l, a] = rows(l, sf.dynamic_positions[a], sf.dynamic_gains[a])
    return static, dyn


def jitter_reference(scenario, gid: int, realization: int) -> np.ndarray:
    """One (grid, realization) pair's dynamic-cluster jitter from its own
    SeedSequence-seeded stream: D real parts, then D imaginary parts."""
    d = scenario.config.dynamic_clusters_per_grid
    rng = _seeded(scenario.config.rng_seed, _TAG_JITTER, int(gid), int(realization))
    return (rng.standard_normal(d) + 1j * rng.standard_normal(d)) / math.sqrt(2.0)


def dynamic_clusters_reference(scenario):
    """dynamic_positions and dynamic_gains with one SeedSequence-seeded
    stream per dynamic grid: its (D, 2) offsets, then the real and the
    imaginary (D, 2) gain parts."""
    cfg = scenario.config
    ids = scenario.scatterers.dynamic_grid_ids
    d = cfg.dynamic_clusters_per_grid
    dyn_pos = np.zeros((len(ids), d, 2))
    dyn_gain = np.zeros((len(ids), d, 2), dtype=np.complex128)
    for a, gid in enumerate(ids):
        grng = _seeded(cfg.rng_seed, _TAG_DYNAMIC_PLACE, int(gid))
        offs = (grng.random((d, 2)) - 0.5) * cfg.grid_edge_m
        dyn_pos[a] = scenario.grid_centers[gid] + offs
        dyn_gain[a] = (
            cfg.dynamic_gain
            * (grng.standard_normal((d, 2)) + 1j * grng.standard_normal((d, 2)))
            / math.sqrt(2.0)
        )
    return dyn_pos, dyn_gain


def channel_rows_reference(scenario, observing_bs: int, positions, realizations):
    """channel_rows for one BS: a locate, a path_loss_db call and, in a
    dynamic grid at a nonzero realization, a jitter draw per row."""
    cfg = scenario.config
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    real = np.broadcast_to(np.asarray(realizations, dtype=np.int64), (pos.shape[0],))
    gids = np.array([scenario.locate(p) for p in pos], dtype=np.int64)
    bs = scenario.bs_xy[observing_bs]
    d2 = np.hypot(pos[:, 0] - bs[0], pos[:, 1] - bs[1])
    d3 = np.hypot(d2, cfg.bs_height_m - cfg.user_height_m)
    pl = np.array([path_loss_db(d, exponent=cfg.path_loss_exponent) for d in d3])
    amp = 10.0 ** (-(pl + scenario.shadow_db[observing_bs, gids]) / 20.0)
    sp = scenario.scatterers.static_positions
    duc = np.hypot(pos[:, 0, None] - sp[None, :, 0], pos[:, 1, None] - sp[None, :, 1])
    w = np.exp(2j * math.pi * duc / cfg.phase_length_m) / (
        1.0 + duc / cfg.scatter_range_m
    ) ** cfg.scatter_falloff
    v = w @ scenario.static_mix[observing_bs]
    dyn_row = {int(g): a for a, g in enumerate(scenario.scatterers.dynamic_grid_ids)}
    for i, gid in enumerate(gids):
        a = dyn_row.get(int(gid))
        if a is None or real[i] == 0:
            continue
        zeta = jitter_reference(scenario, int(gid), int(real[i]))
        dp = scenario.scatterers.dynamic_positions[a]
        dud = np.hypot(pos[i, 0] - dp[:, 0], pos[i, 1] - dp[:, 1])
        dw = (
            np.exp(2j * math.pi * dud / cfg.phase_length_m)
            / (1.0 + dud / cfg.scatter_range_m) ** cfg.scatter_falloff
            * zeta
        )
        v[i] += dw @ scenario.dyn_mix[observing_bs, a]
    return v * (amp / np.linalg.norm(v, axis=1))[:, None]


def fuse_reference(ckm, chans) -> EffectiveCsi:
    """fuse_effective_csi with one pass per (user, BS): the user's true
    channel rows are fetched when any of its BSs sees an unreliable grid.
    Each BS's full tables are computed, and user i keeps its entries of its
    serving BS's tables."""
    L, n, nant = ckm.n_cells, len(chans.grid), ckm.h_bar.shape[2]
    vectors = np.zeros((L, n, nant), dtype=np.complex128)
    gain = np.zeros((L, n))
    source = np.ones((L, n), dtype=np.uint8)
    acquired = []
    for i in range(n):
        g = int(chans.grid[i])
        need = [not ckm.reliable[l, g] for l in range(L)]
        if any(need):
            icsi = chans.h[:, i, :]
            acquired.append(i)
        for l in range(L):
            if need[l]:
                vectors[l, i] = icsi[l]
                gain[l, i] = float(np.sum(np.abs(icsi[l]) ** 2))
                source[l, i] = 0
            else:
                vectors[l, i] = ckm.h_bar[l, g]
                gain[l, i] = float(ckm.epsilon[l, g])
    corr = np.zeros((L, n, n))
    for l in range(L):
        corr[l] = corr_matrix(vectors[l])
    csi = csi_from_tables(gain, corr, source, chans.cell_of)
    csi.acquired = acquired
    return csi


def aes_reference(cell_ids, csi, observing_bs: int, kprime: int, alpha: float):
    """aes_select over id lists: one gain lookup per pool member per pick and
    one correlation lookup per pool member per prune."""

    def gain(k):
        return float(csi.gain[k])

    pool = sorted(int(k) for k in cell_ids)
    pruned, selected = [], []
    while len(selected) < kprime and pool:
        pick = pool.pop(int(np.argmax([gain(k) for k in pool])))
        selected.append(pick)
        if len(selected) < kprime:
            drop = [k for k in pool
                    if float(csi.corr[k, pick]) > alpha]
            pruned.extend(drop)
            pool = [k for k in pool if k not in drop]
    fallback = []
    if len(selected) < kprime:
        fallback = sorted(pruned, key=lambda k: (-gain(k), k))[: kprime - len(selected)]
    return ActiveSet(cell=observing_bs, members=selected + fallback,
                     fallback=frozenset(fallback))


def gis_reference(cell_ids, csi, observing_bs: int, kprime: int) -> ActiveSet:
    """gis_select re-summing the whole alive sub-table for every deletion."""
    ids = sorted(int(k) for k in cell_ids)
    m = csi.corr[np.ix_(ids, ids)]
    active = list(range(len(ids)))
    while len(active) > kprime:
        z = m[np.ix_(active, active)].sum(axis=1) - 1.0
        del active[int(np.argmax(z))]
    return ActiveSet(cell=observing_bs, members=[ids[i] for i in active])


def iccs_reference(active_sets, csi, kbar: int) -> UserGroup:
    """iccs_schedule with a table lookup per candidate per slot."""
    sets = sorted(active_sets, key=lambda a: a.cell)
    pools = {a.cell: sorted(a.members) for a in sets}
    members = {a.cell: [] for a in sets}
    meta = []
    placed = []
    for slot in range(kbar):
        for a in sets:
            cell = a.cell
            rows = np.array(pools[cell])
            if placed:
                load = np.sum(csi.corr[np.ix_(rows, placed)] ** 2, axis=1)
            else:
                load = np.zeros(len(rows))
            mu = np.sqrt(csi.gain[rows] * np.clip(1.0 - load, 0.0, None))
            j = int(np.argmax(mu))
            uid = pools[cell].pop(j)
            members[cell].append(uid)
            placed.append(uid)
            source = "scsi" if csi.source[uid] else "icsi"
            meta.append(SelectionRecord(uid, cell, slot, float(mu[j]), source))
    return UserGroup(members=members, meta=meta)


def sus_reference(chans, kbar: int, alpha: float) -> UserGroup:
    """sus_schedule re-running Gram-Schmidt over the whole basis for every
    candidate in every round, with np.vdot and the 1-D np.linalg.norm."""
    members, meta = {}, []
    for cell, ids in sorted(chans.ids_by_cell().items()):
        h = {k: chans.h[cell, k] for k in ids}
        pool, pruned, basis, chosen = list(ids), [], [], []
        while len(chosen) < kbar and pool:
            residuals = []
            for k in pool:
                r = h[k].copy()
                for g in basis:
                    r -= (np.vdot(g, h[k]) / np.vdot(g, g)) * g
                residuals.append(r)
            norms = [float(np.linalg.norm(r)) for r in residuals]
            j = int(np.argmax(norms))
            uid = pool.pop(j)
            chosen.append(uid)
            basis.append(residuals[j])
            meta.append(SelectionRecord(uid, cell, len(chosen) - 1, norms[j], "icsi"))
            if len(chosen) < kbar:
                g = basis[-1]
                gn = np.linalg.norm(g)
                drop = [k for k in pool
                        if abs(np.vdot(h[k], g)) / (np.linalg.norm(h[k]) * gn) >= alpha]
                pruned.extend(drop)
                pool = [k for k in pool if k not in drop]
        order = sorted(pruned, key=lambda k: (-float(np.linalg.norm(h[k])), k))
        for uid in order[: kbar - len(chosen)]:
            chosen.append(uid)
            meta.append(SelectionRecord(uid, cell, len(chosen) - 1,
                                        float(np.linalg.norm(h[uid])), "fallback"))
        members[cell] = chosen
    return UserGroup(members=members, meta=meta)
