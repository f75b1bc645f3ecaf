"""User-scheduling algorithms.

First stage (per cell, map-driven): gain-ranked selection with
correlation pruning (aes_select) or iterative deletion of the
highest-total-correlation user (gis_select). Second stage (cross-cell):
round-robin selection by the interference-discounted residual metric
(iccs_schedule). Baselines: semi-orthogonal selection on true channels
(sus_schedule), exact greedy rate maximization (greedy_schedule), and
random picks. fuse_effective_csi blends map statistics with acquired
true channels according to per-grid reliability.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import evaluation
from .ckm import UsCkm, _corr_rows, _dots, _row_norms
from .errors import ScheduleError
from .geometry import _TAG_RANDOM_GROUP, _seeded
from .groups import ActiveSet, SelectionRecord, UserGroup


@dataclass
class EffectiveCsi:
    """Fused gains/correlations consumed by the two-stage schedulers.

    Index i of every array is user i (row i of the trial's ChannelSet) as
    seen by its serving BS: its gain, its correlations against every user
    (row i of corr), and source 1 where the map statistics were kept, 0
    where its true channel was substituted. BS l serves the ids of the
    ChannelSet's slice cells[l], and L is len(cells).
    """

    gain: np.ndarray     # (n,)
    corr: np.ndarray     # (n, n)
    cells: tuple         # (L,) slices of ids, one per serving BS
    source: np.ndarray   # (n,) uint8
    acquired: list[int] = field(default_factory=list)


def _cell(csi: EffectiveCsi, bs: int) -> slice:
    """The slice of the ids BS bs serves; ScheduleError for a BS outside
    0..L-1, which must not wrap around to the last cells."""
    if not 0 <= bs < len(csi.cells):
        raise ScheduleError(f"BS {bs} is not one of the {len(csi.cells)} BSs")
    return csi.cells[bs]


def _served_ids(csi: EffectiveCsi, bs: int, ids, need: int) -> np.ndarray:
    """ids in ascending order; ScheduleError for a BS that is not one, an
    id that BS bs does not serve (-1 and n included), for a repeated id or
    for fewer than need."""
    ids = np.sort(np.asarray(ids, dtype=np.int64))
    cell = _cell(csi, bs)
    if ids.size and (ids[0] < cell.start or ids[-1] >= cell.stop):
        unknown = {k for k in ids.tolist() if not cell.start <= k < cell.stop}
        raise ScheduleError(f"no correlation row at BS {bs} for user ids {sorted(unknown)}")
    repeated = ids[1:][ids[1:] == ids[:-1]]
    if repeated.size:
        raise ScheduleError(f"BS {bs}'s pool repeats user ids {sorted(set(repeated.tolist()))}")
    if len(ids) < need:
        raise ScheduleError(f"BS {bs}'s pool of {len(ids)} users cannot fill {need} slots")
    return ids


def fuse_effective_csi(ckm: UsCkm, chans) -> EffectiveCsi:
    """Build the per-user effective CSI from the map and the trial's
    ChannelSet: map statistics at each user's grid, seen by its serving BS.

    The true channels of chans are substituted exactly where the user's
    grid is unreliable for an observing BS (for gain and source, its
    serving BS), and only those users' rows are read (chans.rows); on a map
    whose every grid is reliable no channel is read. Each BS computes the
    correlation rows of the users it serves (the slice chans.cells[l])
    against all users, one (n_l, N) @ (N, n) product written in place into
    that slice of corr's rows.
    """
    L, _, nant = ckm.h_bar.shape
    if len(chans.shape) != 3 or chans.shape[0] != L or chans.shape[2] != nant:
        raise ValueError(f"chans.h must hold one row per observing BS of {nant} antennas")
    cell_of = chans.cell_of
    vectors = ckm.h_bar[:, chans.grid]
    gain = ckm.epsilon[cell_of, chans.grid]
    need = ckm.reliable[:, chans.grid] == 0
    serving = need[cell_of, np.arange(len(cell_of))]
    acq = np.flatnonzero(need.any(axis=0))
    if len(acq):
        vectors[:, acq] = np.where(need[:, acq, None], chans.rows(acq), vectors[:, acq])
        own = np.flatnonzero(serving)
        gain[own] = np.sum(np.abs(vectors[cell_of[own], own]) ** 2, axis=-1)
    # The cells' slices cover every user, so every row is written.
    corr = np.empty((len(cell_of), len(cell_of)))
    for l, cell in enumerate(chans.cells):
        _corr_rows(vectors[l], np.arange(cell.start, cell.stop), out=corr[cell])
    source = (~serving).astype(np.uint8)
    # Read-only, as UsCkm's arrays are: schedulers of one trial share a
    # fusion.
    for arr in (gain, corr, source):
        arr.setflags(write=False)
    return EffectiveCsi(gain, corr, chans.cells, source, acq.tolist())


def residual_metric(gain, correlations):
    """Interference-discounted gain: sqrt(gain * max(0, 1 - sum rho^2)).

    correlations holds each candidate's correlations along the last axis,
    so a gain array (m,) with correlations (m, p) scores m candidates at
    once; a scalar gain with a sequence of correlations returns a float.
    For a unit channel against an orthonormal set of already-selected
    channels this equals the exact orthogonal-residual norm.
    """
    gain = np.asarray(gain, dtype=float)
    if gain.min(initial=0.0) < 0.0:
        raise ValueError("gain must be >= 0")
    load = np.square(np.asarray(correlations, dtype=float)).sum(axis=-1)
    mu = np.sqrt(gain * np.maximum(1.0 - load, 0.0))
    return mu if mu.ndim else float(mu)


def _cell_block(csi: EffectiveCsi, bs: int, need: int) -> tuple[np.ndarray, np.ndarray]:
    """The ascending ids of the K users BS bs serves and their (K, K) block
    of csi.corr, a view: the slice csi.cells[bs] of its rows and columns.
    ScheduleError for a BS that is not one, or when K is below need."""
    cell = _cell(csi, bs)
    ids = np.arange(cell.start, cell.stop)
    if len(ids) < need:
        raise ScheduleError(f"BS {bs}'s pool of {len(ids)} users cannot fill {need} slots")
    return ids, csi.corr[cell, cell]


def aes_select(csi: EffectiveCsi, observing_bs: int, kprime: int, alpha: float) -> ActiveSet:
    """Active-set selection among the users BS observing_bs serves, by
    descending gain with correlation pruning.

    After each pick, candidates whose correlation with any selected user
    exceeds alpha are pruned. If the pool empties early, the remaining
    slots are refilled with the highest-gain pruned users and flagged as
    fallback.
    """
    # Column j of m holds every candidate's correlation with candidate j.
    ids, m = _cell_block(csi, observing_bs, kprime)
    gain = csi.gain[ids]
    # Descending gain, ties to the lowest id: the next pick is always the
    # first user of this order still in the pool.
    order = np.lexsort((ids, -gain))
    pool = np.ones(len(ids), dtype=bool)
    pruned = np.zeros(len(ids), dtype=bool)
    selected: list[int] = []
    for pick in order.tolist():
        if len(selected) == kprime:
            break
        if not pool[pick]:
            continue
        pool[pick] = False
        selected.append(pick)
        drop = pool & (m[:, pick] > alpha)
        pruned |= drop
        pool ^= drop
        if not np.count_nonzero(pool):
            # The rest of order is out of the pool.
            break
    fallback = order[pruned[order]][: kprime - len(selected)]
    return ActiveSet(cell=observing_bs, members=ids[selected + fallback.tolist()].tolist(),
                     fallback=frozenset(ids[fallback].tolist()))


# Relative width of gis_select's band of candidate rows; see its docstring.
_GIS_BAND = 1e-9


def gis_select(csi: EffectiveCsi, observing_bs: int, kprime: int) -> ActiveSet:
    """Active-set selection among the users BS observing_bs serves, by
    deleting the highest-total-correlation user until kprime remain.
    Survivors are returned in ascending id order.

    Each deletion removes the first maximum, in ascending id order, of
    m[i][alive].sum() - 1.0 over the alive rows i of the cell's K x K
    correlation block m: the row sum minus the unit self-term.

    Running row sums find the candidates: each deletion subtracts the
    deleted column. Correlations lie in [0, 1], so no partial row sum
    exceeds S = max(1, largest row sum of m). A running sum and an exact
    sum each lie within about (K + log2 K) * 2**-53 * S of the true row
    sum, so they differ by less than _GIS_BAND * S / 4 for K below 10**6.
    Hence every row that can hold the exact maximum has a
    running sum within _GIS_BAND * S of the largest one (the band), and no
    row outside the band ties with it after the self-term is subtracted. A
    one-row band is the pick; a wider band is summed exactly
    (_gis_confirm). The picks therefore equal those of re-summing every
    alive row.

    Cost: per deletion, two argmax calls (the pick, then the runner-up
    with the pick masked to -inf) and one contiguous row subtracted, so
    O(K) per deletion and O(K^2) per cell; only when the runner-up lies
    inside the band are the band rows found and summed, O(K) per band row.
    Re-summing would cost O(K^2) per deletion. m is a view of csi.corr
    (_cell_block). The paper models this stage as L * K^3 multiplications
    (overhead_counts); that is the paper's figure, not this code's cost.
    """
    ids, m = _cell_block(csi, observing_bs, kprime)
    # Each row is one pairwise sum over contiguous entries.
    run = m.sum(axis=1)
    band = _GIS_BAND * max(1.0, float(run.max(initial=0.0)))
    alive = np.ones(len(ids), dtype=bool)
    # Row j of columns is column j of m, so each deletion reads one
    # contiguous row.
    columns = np.ascontiguousarray(m.T)
    for _ in range(len(ids) - kprime):
        worst = int(run.argmax())
        top = run.item(worst)
        run[worst] = -np.inf
        if run.item(run.argmax()) >= top - band:
            # The band holds a second row: sum its rows exactly.
            run[worst] = top
            worst = _gis_confirm(m, np.flatnonzero(run >= top - band), alive)
            run[worst] = -np.inf
        alive[worst] = False
        run -= columns[worst]
    return ActiveSet(cell=observing_bs, members=ids[alive].tolist())


def _gis_confirm(m: np.ndarray, band: np.ndarray, alive: np.ndarray) -> int:
    """The row to delete among the ascending band rows: the first maximum
    of the exact alive row sum minus the unit self-term."""
    # compress returns C-contiguous rows, each reduced by one pairwise sum
    # as in the alive sub-table; m[band][:, alive] comes back column-major
    # and sums in another order.
    z = m[band].compress(alive, axis=1).sum(axis=1) - 1.0
    return int(band[np.argmax(z)])


def iccs_schedule(
    active_sets: list[ActiveSet], csi: EffectiveCsi, kbar: int
) -> UserGroup:
    """Cross-cell round-robin selection by the residual metric.

    In every slot, each cell in turn picks the candidate maximizing
    sqrt(gain * (1 - sum of squared correlations to every user already
    scheduled anywhere)), with gains and correlations observed at the
    candidate's serving BS; ties go to the lowest id.

    Each cell's (pool, n) rows of csi.corr and its pool gains are gathered
    once per call. A pick takes the placed columns of those rows, scores
    every pool row with residual_metric, masks the rows already taken with
    -inf and keeps the first maximum: a fixed number of array calls per
    pick.
    """
    sets = sorted(active_sets, key=lambda a: a.cell)
    twice = sorted({a.cell for a, b in zip(sets, sets[1:]) if a.cell == b.cell})
    if twice:
        raise ScheduleError(f"more than one active set for cells {twice}")
    pools = {a.cell: _served_ids(csi, a.cell, a.members, kbar) for a in sets}
    rows = {cell: csi.corr.take(pool, axis=0) for cell, pool in pools.items()}
    gains = {cell: csi.gain[pool] for cell, pool in pools.items()}
    taken = {cell: np.zeros(len(pool), dtype=bool) for cell, pool in pools.items()}
    members: dict[int, list[int]] = {cell: [] for cell in pools}
    meta: list[SelectionRecord] = []
    placed: list[int] = []
    for slot in range(kbar):
        for cell, pool in pools.items():
            # The load against every placed user is recomputed in placement
            # order every slot: a running sum would round differently from
            # numpy's pairwise sum. Each row is summed alone, so the rows
            # already taken change no other row's score.
            mu = residual_metric(gains[cell], rows[cell].take(placed, axis=1))
            mu[taken[cell]] = -np.inf
            j = int(mu.argmax())
            taken[cell][j] = True
            uid = int(pool[j])
            members[cell].append(uid)
            placed.append(uid)
            source = "scsi" if csi.source[uid] else "icsi"
            meta.append(SelectionRecord(uid, cell, slot, float(mu[j]), source))
    return UserGroup(members=members, meta=meta)


def sus_schedule(chans, kbar: int, alpha: float) -> UserGroup:
    """Per-cell semi-orthogonal user selection on true serving-BS channels.

    Each pick maximizes the norm of the component orthogonal to the
    already-selected basis; candidates too aligned with the newest basis
    vector (correlation >= alpha) are pruned. Pool exhaustion falls back
    to the highest-norm pruned users.

    Every user keeps a running classical Gram-Schmidt residual; the dots
    are stacked (1, N) @ (N, 1) matmuls and the norms _row_norms, which
    equal np.vdot and the 1-D np.linalg.norm bit for bit.
    """
    members: dict[int, list[int]] = {}
    meta: list[SelectionRecord] = []
    for cell, served in chans.ids_by_cell(kbar).items():
        ids = np.array(served, dtype=np.int64)
        h = chans.h[cell, served]
        h_norm = _row_norms(h)
        resid = h.copy()
        pool = np.ones(len(ids), dtype=bool)
        pruned = np.zeros(len(ids), dtype=bool)
        chosen: list[int] = []
        while len(chosen) < kbar and pool.any():
            left = np.flatnonzero(pool)
            norms = _row_norms(resid[left])
            j = int(np.argmax(norms))
            pick = left[j]
            pool[pick] = False
            chosen.append(pick)
            meta.append(SelectionRecord(int(ids[pick]), cell, len(chosen) - 1,
                                        float(norms[j]), "icsi"))
            if len(chosen) < kbar:
                g = resid[pick].copy()
                proj = _dots(g, h) / _dots(g, g)
                resid -= proj[:, None] * g
                dots = _dots(h, g)
                c = np.hypot(dots.real, dots.imag) / (h_norm * _row_norms(g))
                drop = pool & (c >= alpha)
                pruned |= drop
                pool &= ~drop
        cut = np.flatnonzero(pruned)
        order = cut[np.lexsort((ids[cut], -h_norm[cut]))][: kbar - len(chosen)]
        for pick in order:
            chosen.append(pick)
            meta.append(SelectionRecord(int(ids[pick]), cell, len(chosen) - 1,
                                        float(h_norm[pick]), "fallback"))
        members[cell] = ids[chosen].tolist()
    return UserGroup(members=members, meta=meta)


def greedy_schedule(
    chans, kbar: int, noise_power: float
) -> tuple[UserGroup, float, dict[int, float]]:
    """Exact greedy sum-rate maximization with full true CSI.

    Cells take turns; each addition maximizes the genie-evaluated MMSE
    sum rate of the partial group. Candidates are ranked in closed form
    (evaluation.candidate_rates) on an evaluation.PartialGroup: one R_c^-1
    per BS, inverted once and then updated by a rank-one step per pick
    (inverted again where that step would lose too many digits). No
    inverse outlives the call. A pick whose evaluation.score_band holds
    one candidate is that candidate, and its SelectionRecord.metric is its
    closed-form score. A wider band, or scores the closed form refuses, is
    confirmed exactly: evaluation.best_addition scores the band's groups
    on the exact kernel and keeps the first strict maximum, so ties go to
    the lowest id, and the metric is the partial group's exact sum rate.
    Returns (group, rate, gammas) as evaluate_group gives them for the
    group: the last pick's exact evaluation, or one made at the end.
    """
    remaining = chans.ids_by_cell(kbar)
    partial = evaluation.PartialGroup(chans, noise_power)
    members = partial.members
    meta: list[SelectionRecord] = []
    best = None
    for slot in range(kbar):
        for l, pool in remaining.items():
            scores = evaluation.candidate_rates(partial, l, pool)
            band = evaluation.score_band(scores, len(pool))
            if scores is None or len(band) > 1:
                i, best = evaluation.best_addition(partial, l, [pool[j] for j in band])
                j, metric = int(band[i]), best[0]
            else:
                j, best = int(band[0]), None
                metric = float(scores[j])
            uid = pool.pop(j)
            meta.append(SelectionRecord(uid, l, slot, metric, "icsi"))
            partial.add(l, uid)
    if best is None:
        best = evaluation.evaluate_group(UserGroup(members=members), chans, noise_power)
    return UserGroup(members=members, meta=meta), *best


def random_schedule(ids_by_cell: dict, kbar: int, seed: int) -> UserGroup:
    """Uniform random kbar-subset per cell, deterministic in the seed."""
    rng = _seeded(seed, _TAG_RANDOM_GROUP)
    members: dict[int, list[int]] = {}
    meta: list[SelectionRecord] = []
    for cell in sorted(ids_by_cell):
        ids = sorted(int(u) for u in ids_by_cell[cell])
        if len(ids) < kbar:
            raise ScheduleError(f"cell {cell} has {len(ids)} < kbar={kbar} users")
        pick = rng.choice(len(ids), size=kbar, replace=False)
        members[cell] = [ids[i] for i in pick]
        meta.extend(
            SelectionRecord(ids[i], cell, slot, None, "none")
            for slot, i in enumerate(pick)
        )
    return UserGroup(members=members, meta=meta)


def robust_two_stage(
    csi: EffectiveCsi,
    kprime: int,
    kbar: int,
    alpha: float,
    first_stage: str = "aes",
) -> tuple[UserGroup, dict[str, int]]:
    """Two-stage pipeline on the trial's fused CSI (fuse_effective_csi),
    with overhead counters. Each BS's first stage selects among the users
    it serves; ICCS then schedules across the cells' active sets.

    On a map thresholded at the config's delta/eta it is the robust
    scheduler (true channels substituted in unreliable grids); with every
    grid reliable, the map-only two-stage baseline. Counters record actual events: L acquisitions per
    user whose grid needed true CSI; candidate locations plus, per
    unreliable candidate, one gain and L^2 correlation uploads.
    """
    if first_stage not in ("aes", "gis"):
        raise ValueError(f"unknown first stage {first_stage!r}")
    L = len(csi.cells)
    active_sets = [
        aes_select(csi, l, kprime, alpha) if first_stage == "aes"
        else gis_select(csi, l, kprime)
        for l in range(L)
    ]
    group = iccs_schedule(active_sets, csi, kbar)
    candidates = {k for a in active_sets for k in a.members}
    return group, {
        "csi_acquisitions": L * len(csi.acquired),
        "info_exchange": sum(len(a.members) for a in active_sets)
        + len(candidates & set(csi.acquired)) * (1 + L**2),
    }
