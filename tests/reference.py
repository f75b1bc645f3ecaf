"""Slow reference implementations that the production fast paths are
checked against: one exact evaluate_group call per candidate group,
per-user SINRs through the public mmse_receiver / sinr functions, the
per-grid map survey through one channel_rows call and scalar statistics
(np.vdot, the 1-D np.linalg.norm and np.var) per (BS, grid), per-user
placement, a scalar grid lookup, per-BS, per-row channel synthesis, and
the per-user CSI fusion, first-stage, ICCS and SUS loops that read the
fused full tables one user at a time (user i is row i), and the scenario's
nested per-square grid lattice and per-cluster steering rows built from
one scalar steering vector at a time.
"""

import math
from itertools import combinations, product

import numpy as np

from ckmsched.ckm import _corr_matrix
from ckmsched.evaluation import evaluate_group, mmse_receiver, sinr, sum_rate
from ckmsched.experiments import _TAG_USERS, _rng
from ckmsched.geometry import Position, _jitter, channel_rows, path_loss_db
from ckmsched.groups import ActiveSet, SelectionRecord, UserGroup, UserRecord
from ckmsched.scheduling import EffectiveCsi


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
                rates.append(sum_rate(UserGroup(members=trial), chans, noise_power))
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
        rate = sum_rate(group, chans, noise_power)
        if rate > best_rate:
            best_rate, best = rate, group
    rate, _ = evaluate_group(best, chans, noise_power)
    return best, float(rate)


def sinr_reference(group: UserGroup, chans, noise_power: float) -> dict[int, float]:
    """Per-user SINR with one mmse_receiver solve per scheduled user."""
    everyone = group.all_users()
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
    quantile threshold 0 < eta < 1, with one channel_rows call (samples at
    realizations 1..s, the center at 0) and one set of scalar statistics per
    (BS, grid)."""
    L, G, N = scenario.config.n_cells, scenario.n_grids, scenario.n_antennas
    h_bar = np.zeros((L, G, N), dtype=np.complex128)
    epsilon = np.zeros((L, G))
    sigma = np.zeros((L, G))
    reals = list(range(1, s + 1)) + [0]
    for l in range(L):
        for g in range(G):
            pos = np.vstack([scenario.grid_sample_positions(g, s),
                             scenario.grid_centers[g]])
            rows = channel_rows(scenario, l, pos, reals)
            h_bar[l, g], epsilon[l, g], sigma[l, g] = grid_statistics_reference(
                rows[:s], rows[s]
            )
    delta = float(np.quantile(sigma.ravel(), eta, method="lower"))
    reliable = np.array(
        [[1 if x <= delta else 0 for x in row] for row in sigma], dtype=np.uint8
    )
    return h_bar, epsilon, sigma, reliable, delta


def place_users_reference(scenario, trial_seed: int) -> list[UserRecord]:
    """place_users with one rng.choice, one offset draw and one locate per
    user."""
    cfg = scenario.config
    rng = _rng(cfg, _TAG_USERS, trial_seed)
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
                id=uid, cell=grid.cell,
                position=Position(float(pos[0]), float(pos[1])), grid=grid,
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
                             polarization: int, wavelength: float) -> np.ndarray:
    """One steering vector of the half-wavelength dual-polarized array from
    scalar math.sin / math.cos."""
    k = 2.0 * math.pi * (0.5 * wavelength) / wavelength
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
            a0 = array_response_reference(cfg.n_h, cfg.n_v, az, el, 0, scenario.wavelength)
            a1 = array_response_reference(cfg.n_h, cfg.n_v, az, el, 1, scenario.wavelength)
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


def channel_rows_reference(scenario, observing_bs: int, positions, realizations):
    """channel_rows for one BS: a locate, a path_loss_db call and, in a
    dynamic grid at a nonzero realization, a jitter draw per row."""
    cfg = scenario.config
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    real = np.broadcast_to(np.asarray(realizations, dtype=np.int64), (pos.shape[0],))
    gids = np.array([scenario.locate(p).g for p in pos], dtype=np.int64)
    bs = scenario.bs_xy[observing_bs]
    d2 = np.hypot(pos[:, 0] - bs[0], pos[:, 1] - bs[1])
    d3 = np.hypot(d2, cfg.bs_height_m - cfg.user_height_m)
    pl = np.array([
        path_loss_db(d, cfg.fc_hz, exponent=cfg.path_loss_exponent,
                     offset_db=cfg.path_loss_offset_db)
        for d in d3
    ])
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
        zeta = _jitter(scenario, int(gid), int(real[i]))
        dp = scenario.scatterers.dynamic_positions[a]
        dud = np.hypot(pos[i, 0] - dp[:, 0], pos[i, 1] - dp[:, 1])
        dw = (
            np.exp(2j * math.pi * dud / cfg.phase_length_m)
            / (1.0 + dud / cfg.scatter_range_m) ** cfg.scatter_falloff
            * zeta
        )
        v[i] += dw @ scenario.dyn_mix[observing_bs, a]
    return v * (amp / np.linalg.norm(v, axis=1))[:, None]


def fuse_reference(ckm, chans, mode: str = "auto") -> EffectiveCsi:
    """fuse_effective_csi with one pass per (user, BS): the user's true
    channel rows are fetched when any of its BSs sees an unreliable grid."""
    L, n, nant = ckm.n_cells, len(chans.grid), ckm.h_bar.shape[2]
    vectors = np.zeros((L, n, nant), dtype=np.complex128)
    gain = np.zeros((L, n))
    source = np.ones((L, n), dtype=np.uint8)
    acquired = []
    for i in range(n):
        g = int(chans.grid[i])
        need = [mode == "auto" and not ckm.reliable[l, g] for l in range(L)]
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
        corr[l] = _corr_matrix(vectors[l])
    csi = EffectiveCsi.from_tables(gain, corr, vectors, source)
    csi.acquired = acquired
    return csi


def aes_reference(cell_ids, csi, observing_bs: int, kprime: int, alpha: float):
    """aes_select over id lists: one gain lookup per pool member per pick and
    one correlation lookup per pool member per prune."""

    def gain(k):
        return float(csi.gain[observing_bs, k])

    pool = sorted(int(k) for k in cell_ids)
    pruned, selected = [], []
    while len(selected) < kprime and pool:
        pick = pool.pop(int(np.argmax([gain(k) for k in pool])))
        selected.append(pick)
        if len(selected) < kprime:
            drop = [k for k in pool
                    if float(csi.corr[observing_bs][k, pick]) > alpha]
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
    m = csi.corr[observing_bs][np.ix_(ids, ids)]
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
                load = np.sum(csi.corr[cell][np.ix_(rows, placed)] ** 2, axis=1)
            else:
                load = np.zeros(len(rows))
            mu = np.sqrt(csi.gain[cell, rows] * np.clip(1.0 - load, 0.0, None))
            j = int(np.argmax(mu))
            uid = pools[cell].pop(j)
            members[cell].append(uid)
            placed.append(uid)
            source = "scsi" if csi.source[cell, uid] else "icsi"
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
