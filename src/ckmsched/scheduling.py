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

import math
from dataclasses import dataclass, field

import numpy as np

from . import evaluation
from .ckm import UsCkm, _corr_matrix
from .errors import ScheduleError
from .groups import ActiveSet, SelectionRecord, UserGroup, UserRecord

SOURCE_SCSI = 1
SOURCE_ICSI = 0


def _user_id(u) -> int:
    return int(getattr(u, "id", u))


@dataclass
class EffectiveCsi:
    """Fused gains/correlations consumed by the two-stage schedulers.

    Rows are ordered by ascending user id. source is 1 where the map
    statistics were kept and 0 where true channels were substituted.
    """

    user_ids: np.ndarray          # (n,)
    vectors: np.ndarray | None    # (L, n, N) fused channel vectors
    gain: np.ndarray              # (L, n)
    corr: np.ndarray              # (L, n, n)
    source: np.ndarray            # (L, n) uint8
    acquired: list[int] = field(default_factory=list)

    def __post_init__(self):
        self.index = {int(u): i for i, u in enumerate(self.user_ids)}

    def gain_of(self, observing_bs: int, user: int) -> float:
        return float(self.gain[observing_bs, self.index[int(user)]])

    def corr_of(self, observing_bs: int, user_a: int, user_b: int) -> float:
        return float(
            self.corr[observing_bs, self.index[int(user_a)], self.index[int(user_b)]]
        )

    def source_of(self, observing_bs: int, user: int) -> str:
        return "scsi" if self.source[observing_bs, self.index[int(user)]] else "icsi"

    @classmethod
    def from_tables(cls, user_ids, gain, corr, vectors=None, source=None):
        """Synthetic construction from explicit tables (tests, studies)."""
        ids = np.asarray(user_ids, dtype=np.int64)
        gain = np.asarray(gain, dtype=float)
        corr = np.asarray(corr, dtype=float)
        if source is None:
            source = np.ones(gain.shape, dtype=np.uint8)
        return cls(ids, vectors, gain, corr, np.asarray(source, dtype=np.uint8))


def fuse_effective_csi(
    ckm: UsCkm, users: list[UserRecord], icsi_provider=None, mode: str = "auto"
) -> EffectiveCsi:
    """Build the per-user effective CSI from the map and acquired channels.

    mode "auto" substitutes true channels exactly where the user's grid
    is unreliable (the provider is invoked once per such user and must
    return one channel row per observing BS); "scsi" keeps map
    statistics everywhere; "icsi" substitutes everywhere.
    """
    if mode not in ("auto", "scsi", "icsi"):
        raise ValueError(f"unknown fusion mode {mode!r}")
    ordered = sorted(users, key=lambda u: u.id)
    ids = np.array([u.id for u in ordered], dtype=np.int64)
    if len(set(ids.tolist())) != len(ids):
        raise ValueError("duplicate user ids")
    L = ckm.n_cells
    n = len(ordered)
    nant = ckm.h_bar.shape[2]
    vectors = np.zeros((L, n, nant), dtype=np.complex128)
    gain = np.zeros((L, n))
    source = np.ones((L, n), dtype=np.uint8)
    acquired: list[int] = []
    for i, u in enumerate(ordered):
        g = u.grid.g
        if mode == "icsi":
            need = [True] * L
        elif mode == "scsi":
            need = [False] * L
        else:
            need = [not ckm.reliable[l, g] for l in range(L)]
        if any(need):
            if u.icsi is None:
                if icsi_provider is None:
                    raise ValueError("icsi_provider required for unreliable grids")
                u.icsi = np.asarray(icsi_provider(u), dtype=np.complex128)
            if u.icsi.shape != (L, nant):
                raise ValueError("icsi must hold one row per observing BS")
            acquired.append(int(u.id))
        for l in range(L):
            if need[l]:
                vectors[l, i] = u.icsi[l]
                gain[l, i] = float(np.sum(np.abs(u.icsi[l]) ** 2))
                source[l, i] = SOURCE_ICSI
            else:
                vectors[l, i] = ckm.h_bar[l, g]
                gain[l, i] = float(ckm.epsilon[l, g])
    corr = np.zeros((L, n, n))
    for l in range(L):
        corr[l] = _corr_matrix(vectors[l])
    return EffectiveCsi(ids, vectors, gain, corr, source, acquired)


def residual_metric(gain: float, correlations) -> float:
    """Interference-discounted gain: sqrt(gain * max(0, 1 - sum rho^2)).

    For a unit channel against an orthonormal set of already-selected
    channels this equals the exact orthogonal-residual norm.
    """
    if gain < 0:
        raise ValueError("gain must be >= 0")
    s = float(np.sum(np.square(np.asarray(list(correlations), dtype=float))))
    return math.sqrt(gain * max(1.0 - s, 0.0))


def aes_select(
    cell_users, csi: EffectiveCsi, observing_bs: int, kprime: int, alpha: float
) -> ActiveSet:
    """Active-set selection by descending gain with correlation pruning.

    After each pick, candidates whose correlation with any selected user
    exceeds alpha are pruned. If the pool empties early, the remaining
    slots are refilled with the highest-gain pruned users and flagged as
    fallback.
    """
    ids = sorted(_user_id(u) for u in cell_users)
    if len(ids) < kprime:
        raise ScheduleError(f"cell pool of {len(ids)} users cannot fill kprime={kprime}")
    pool = list(ids)
    pruned: list[int] = []
    selected: list[int] = []
    while len(selected) < kprime and pool:
        gains = [csi.gain_of(observing_bs, k) for k in pool]
        pick = pool.pop(int(np.argmax(gains)))
        selected.append(pick)
        if len(selected) < kprime:
            drop = [k for k in pool if csi.corr_of(observing_bs, k, pick) > alpha]
            pruned.extend(drop)
            pool = [k for k in pool if k not in drop]
    fallback: list[int] = []
    if len(selected) < kprime:
        order = sorted(pruned, key=lambda k: (-csi.gain_of(observing_bs, k), k))
        fallback = order[: kprime - len(selected)]
    cell = int(getattr(cell_users[0], "cell", observing_bs))
    return ActiveSet(cell=cell, members=selected + fallback, fallback=frozenset(fallback))


def gis_select(cell_users, csi: EffectiveCsi, observing_bs: int, kprime: int) -> ActiveSet:
    """Active-set selection by deleting the highest-total-correlation user
    until kprime remain. Survivors are returned in ascending id order."""
    ids = sorted(_user_id(u) for u in cell_users)
    if len(ids) < kprime:
        raise ScheduleError(f"cell pool of {len(ids)} users cannot fill kprime={kprime}")
    rows = np.array([csi.index[k] for k in ids])
    m = csi.corr[observing_bs][np.ix_(rows, rows)]
    active = list(range(len(ids)))
    while len(active) > kprime:
        sub = m[np.ix_(active, active)]
        # Row sums minus the unit self-term; the self-term is constant
        # across candidates so dropping it never changes the argmax.
        z = sub.sum(axis=1) - 1.0
        worst = int(np.argmax(z))
        del active[worst]
    cell = int(getattr(cell_users[0], "cell", observing_bs))
    return ActiveSet(cell=cell, members=[ids[i] for i in active])


def iccs_schedule(
    active_sets: list[ActiveSet], csi: EffectiveCsi, kbar: int
) -> UserGroup:
    """Cross-cell round-robin selection by the residual metric.

    In every slot, each cell in turn picks the candidate maximizing
    sqrt(gain * (1 - sum of squared correlations to every user already
    scheduled anywhere)), with gains and correlations observed at the
    candidate's serving BS.
    """
    sets = sorted(active_sets, key=lambda a: a.cell)
    for a in sets:
        if len(a.members) < kbar:
            raise ScheduleError(
                f"active set of cell {a.cell} has {len(a.members)} < kbar={kbar} users"
            )
    pools = {a.cell: sorted(a.members) for a in sets}
    members: dict[int, list[int]] = {a.cell: [] for a in sets}
    meta: list[SelectionRecord] = []
    placed_rows: list[int] = []
    for slot in range(kbar):
        for a in sets:
            cell = a.cell
            rows = np.array([csi.index[k] for k in pools[cell]])
            if placed_rows:
                load = np.sum(csi.corr[cell][np.ix_(rows, placed_rows)] ** 2, axis=1)
            else:
                load = np.zeros(len(rows))
            mu = np.sqrt(csi.gain[cell, rows] * np.clip(1.0 - load, 0.0, None))
            j = int(np.argmax(mu))
            uid = pools[cell].pop(j)
            members[cell].append(uid)
            placed_rows.append(int(csi.index[uid]))
            meta.append(
                SelectionRecord(uid, cell, slot, float(mu[j]), csi.source_of(cell, uid))
            )
    return UserGroup(members=members, meta=meta)


def sus_schedule(channels_by_cell: dict, kbar: int, alpha: float) -> UserGroup:
    """Per-cell semi-orthogonal user selection on true serving-BS channels.

    Each pick maximizes the norm of the component orthogonal to the
    already-selected basis; candidates too aligned with the newest basis
    vector (correlation >= alpha) are pruned. Pool exhaustion falls back
    to the highest-norm pruned users.
    """
    members: dict[int, list[int]] = {}
    meta: list[SelectionRecord] = []
    for cell in sorted(channels_by_cell):
        chans = {int(k): np.asarray(v, dtype=np.complex128).ravel()
                 for k, v in channels_by_cell[cell].items()}
        ids = sorted(chans)
        if len(ids) < kbar:
            raise ScheduleError(f"cell {cell} has {len(ids)} < kbar={kbar} users")
        pool = list(ids)
        pruned: list[int] = []
        basis: list[np.ndarray] = []
        chosen: list[int] = []
        while len(chosen) < kbar and pool:
            residuals = []
            for k in pool:
                r = chans[k].copy()
                for g in basis:
                    r -= (np.vdot(g, chans[k]) / np.vdot(g, g)) * g
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
                drop = []
                for k in pool:
                    c = abs(np.vdot(chans[k], g)) / (np.linalg.norm(chans[k]) * gn)
                    if c >= alpha:
                        drop.append(k)
                pruned.extend(drop)
                pool = [k for k in pool if k not in drop]
        if len(chosen) < kbar:
            order = sorted(
                pruned, key=lambda k: (-float(np.linalg.norm(chans[k])), k)
            )
            for uid in order[: kbar - len(chosen)]:
                chosen.append(uid)
                meta.append(
                    SelectionRecord(
                        uid, cell, len(chosen) - 1, float(np.linalg.norm(chans[uid])),
                        "fallback",
                    )
                )
        members[cell] = chosen
    return UserGroup(members=members, meta=meta)


def greedy_schedule(chans, kbar: int, noise_power: float) -> UserGroup:
    """Exact greedy sum-rate maximization with full true CSI.

    Cells take turns; each addition maximizes the genie-evaluated MMSE
    sum rate of the partial group. Candidates are ranked in closed form and
    the pick is confirmed with the exact evaluator (evaluation.exact_pick),
    so ties go to the lowest id.
    """
    bycell = chans.ids_by_cell()
    cells = sorted(bycell)
    for l in cells:
        if len(bycell[l]) < kbar:
            raise ScheduleError(f"cell {l} has {len(bycell[l])} < kbar={kbar} users")
    members: dict[int, list[int]] = {l: [] for l in cells}
    remaining = {l: sorted(bycell[l]) for l in cells}
    meta: list[SelectionRecord] = []
    for slot in range(kbar):
        for l in cells:
            pool = remaining[l]

            def evaluate_with(j: int) -> tuple[float, dict[int, float]]:
                trial = {c: list(v) for c, v in members.items()}
                trial[l].append(pool[j])
                return evaluation.evaluate_group(
                    UserGroup(members=trial), chans, noise_power
                )

            scores = evaluation.candidate_rates(chans, members, l, pool, noise_power)
            j, (rate, _) = evaluation.exact_pick(scores, len(pool), evaluate_with)
            uid = pool.pop(j)
            members[l].append(uid)
            meta.append(SelectionRecord(uid, l, slot, rate, "icsi"))
    return UserGroup(members=members, meta=meta)


def random_schedule(ids_by_cell: dict, kbar: int, seed: int) -> UserGroup:
    """Uniform random kbar-subset per cell, deterministic in the seed."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 37]))
    members: dict[int, list[int]] = {}
    meta: list[SelectionRecord] = []
    for cell in sorted(ids_by_cell):
        ids = sorted(int(u) for u in ids_by_cell[cell])
        if len(ids) < kbar:
            raise ScheduleError(f"cell {cell} has {len(ids)} < kbar={kbar} users")
        pick = rng.choice(len(ids), size=kbar, replace=False)
        members[cell] = [ids[i] for i in pick]
        meta.extend(
            SelectionRecord(ids[i], cell, slot, float("nan"), "none")
            for slot, i in enumerate(pick)
        )
    return UserGroup(members=members, meta=meta)


def robust_two_stage(
    scenario,
    ckm: UsCkm,
    users: list[UserRecord],
    kprime: int,
    kbar: int,
    alpha: float,
    first_stage: str = "aes",
    icsi_provider=None,
    csi_mode: str = "auto",
) -> tuple[UserGroup, dict[str, int]]:
    """Fused-CSI two-stage pipeline with overhead counters.

    csi_mode "auto" is the robust scheduler (true channels substituted in
    unreliable grids), "scsi" the map-only two-stage baseline, "icsi" the
    full-CSI variant. Counters record actual events: L acquisitions per
    user whose grid needed true CSI; candidate locations plus, per
    unreliable candidate, one gain and L^2 correlation uploads.
    """
    if first_stage not in ("aes", "gis"):
        raise ValueError(f"unknown first stage {first_stage!r}")
    csi = fuse_effective_csi(ckm, users, icsi_provider, mode=csi_mode)
    cells = sorted({u.cell for u in users})
    active_sets = []
    for l in cells:
        cell_users = [u for u in users if u.cell == l]
        if first_stage == "aes":
            active_sets.append(aes_select(cell_users, csi, l, kprime, alpha))
        else:
            active_sets.append(gis_select(cell_users, csi, l, kprime))
    group = iccs_schedule(active_sets, csi, kbar)
    L = scenario.config.n_cells
    candidates = set()
    for a in active_sets:
        candidates.update(a.members)
    trigger_candidates = len(candidates & set(csi.acquired))
    counters = {
        "csi_acquisitions": L * len(csi.acquired),
        "info_exchange": sum(len(a.members) for a in active_sets)
        + trigger_candidates * (1 + L**2),
    }
    return group, counters

