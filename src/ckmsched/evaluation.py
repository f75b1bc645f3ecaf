"""Uplink MMSE evaluation, exhaustive oracle, and overhead accounting.

All rate evaluation is genie-aided: whatever information a scheduler
consumed, the resulting group is scored with the true channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, combinations

import numpy as np

from .errors import EnumerationGuardError
from .geometry import Scenario, channel_rows
from .groups import SelectionRecord, UserGroup

_RESIDUAL_TOL = 1e-10


@dataclass
class ChannelSet:
    """The trial's users: user i is row i of every array.

    cell_of[i] is user i's serving cell, grid[i] the map grid of its
    position, and h[l, i] its true channel toward BS l.
    """

    cell_of: np.ndarray   # (n,)
    grid: np.ndarray      # (n,)
    h: np.ndarray         # (L, n, N) complex

    @property
    def n_cells(self) -> int:
        return self.h.shape[0]

    def ids_by_cell(self) -> dict[int, list[int]]:
        return {l: np.flatnonzero(self.cell_of == l).tolist() for l in range(self.n_cells)}


def _require_rows(chans: ChannelSet, ids) -> None:
    """ValueError for a user id that is not a row of chans; a negative id
    must not wrap around to the last rows."""
    n = len(chans.cell_of)
    for uid in ids:
        if not 0 <= uid < n:
            raise ValueError(f"user {uid} has no channel row")


@dataclass
class ReceiveBeamformer:
    weights: np.ndarray


def _require_finite(name, arr):
    if not np.all(np.isfinite(np.asarray(arr).view(float))):
        raise ValueError(f"{name} contains non-finite entries")


def mmse_receiver(desired, interferers, noise_power: float) -> ReceiveBeamformer:
    """MMSE receive filter: solves (sum_i h_i h_i^H + d d^H + s2 I) w = d.

    The defining linear system is verified to a 1e-10 relative residual,
    with one step of iterative refinement before giving up.
    """
    d = np.asarray(desired, dtype=np.complex128)
    _require_finite("desired", d.view(np.float64))
    if noise_power <= 0 or not math.isfinite(noise_power):
        raise ValueError("noise_power must be positive and finite")
    n = d.shape[0]
    cov = noise_power * np.eye(n, dtype=np.complex128)
    cov += np.outer(d, d.conj())
    for h in interferers:
        hv = np.asarray(h, dtype=np.complex128)
        _require_finite("interferer", hv.view(np.float64))
        cov += np.outer(hv, hv.conj())
    w = np.linalg.solve(cov, d)
    dn = np.linalg.norm(d)
    if dn == 0.0:
        raise ValueError("desired channel must be nonzero")
    if np.linalg.norm(cov @ w - d) > _RESIDUAL_TOL * dn:
        w = w + np.linalg.solve(cov, d - cov @ w)
        if np.linalg.norm(cov @ w - d) > _RESIDUAL_TOL * dn:
            raise ArithmeticError("MMSE system residual exceeds tolerance")
    return ReceiveBeamformer(weights=w)


def sinr(w, desired, intra_interferers, inter_interferers, noise_power: float) -> float:
    """Post-combining SINR of one user."""
    wv = np.asarray(w, dtype=np.complex128)
    wn = np.linalg.norm(wv)
    if wn == 0.0:
        raise ValueError("combiner must be nonzero")
    if noise_power <= 0:
        raise ValueError("noise_power must be positive")
    num = abs(np.vdot(wv, np.asarray(desired, dtype=np.complex128))) ** 2
    den = noise_power * wn**2
    for h in list(intra_interferers) + list(inter_interferers):
        den += abs(np.vdot(wv, np.asarray(h, dtype=np.complex128))) ** 2
    return float(num / den)


def evaluate_group(
    group: UserGroup, chans: ChannelSet, noise_power: float
) -> tuple[float, dict[int, float]]:
    """Sum rate and per-user SINR of a group under per-cell MMSE combining.

    Every scheduled user (own cell and other cells) contributes
    interference at every BS; each BS solves one MMSE system per served
    user against the full scheduled set.
    """
    # Canonical (cell, id) order so the rate is bit-identical for any
    # member ordering of the same group.
    sched: list[tuple[int, int]] = []
    for cell in sorted(group.members):
        for uid in sorted(group.members[cell]):
            sched.append((cell, uid))
    if not sched:
        return 0.0, {}
    ids = [uid for _, uid in sched]
    _require_rows(chans, ids)
    rows = np.array(ids)
    gammas: dict[int, float] = {}
    total = 0.0
    for cell in sorted(group.members):
        served = sorted(group.members[cell])
        if not served:
            continue
        s = chans.h[cell][rows]  # (m, N), all scheduled users seen at this BS
        n = s.shape[1]
        cov = s.T @ s.conj() + noise_power * np.eye(n, dtype=np.complex128)
        local = [sched.index((cell, uid)) for uid in served]
        d = s[local].T  # (N, served)
        w = np.linalg.solve(cov, d)
        cross = w.conj().T @ s.T  # (served, m): cross[j, i] = w_j^H h_i
        p = np.abs(cross) ** 2
        wn2 = np.sum(np.abs(w) ** 2, axis=0)
        for j, uid in enumerate(served):
            num = p[j, local[j]]
            den = p[j].sum() - num + noise_power * wn2[j]
            g = float(num / den)
            gammas[uid] = g
            total += math.log2(1.0 + g)
    return total, gammas


def sum_rate(group: UserGroup, chans: ChannelSet, noise_power: float) -> float:
    """Sum of log2(1+SINR) over all scheduled users; empty group gives 0."""
    return evaluate_group(group, chans, noise_power)[0]


# Closed-form scores only rank candidates; every pick is confirmed with
# evaluate_group. _SCORE_BAND must exceed twice the scores' relative error;
# _MIN_RESIDUAL keeps that error far below it by refusing 1 - a_k terms
# that the subtraction leaves with too few correct digits.
_SCORE_BAND = 1e-9
_MIN_RESIDUAL = 1e-6
# Combinations scored per batched solve: bounds brute-force memory.
_BLOCK = 2048
# Default cap on the combinations brute_force_optimum enumerates.
BRUTE_FORCE_BUDGET = 1_000_000


def combination_count(cell_sizes, kbar: int) -> int:
    """Number of groups that pick kbar users in each cell of these sizes."""
    return math.prod(math.comb(k, kbar) for k in cell_sizes)


def _rate_terms(one_minus_a: np.ndarray) -> np.ndarray | None:
    """log2(1 + gamma_k) = -log2(1 - a_k), where a_k = h_k^H R^-1 h_k and R
    holds noise plus every scheduled user, so gamma_k = a_k / (1 - a_k).

    None when any 1 - a_k is non-finite or at most _MIN_RESIDUAL: there the
    subtraction loses too many digits to rank, and callers score exactly.
    """
    if not np.all(np.isfinite(one_minus_a)) or np.any(one_minus_a <= _MIN_RESIDUAL):
        return None
    return -np.log2(one_minus_a)


def candidate_rates(
    chans: ChannelSet,
    members: dict[int, list[int]],
    cell: int,
    candidates: list[int],
    noise_power: float,
) -> np.ndarray | None:
    """Closed-form sum rates of `members` with each candidate added to `cell`.

    At BS c, R_c = noise I + sum of h h^H over the partial group. Adding
    user u (Sherman-Morrison) lowers each served a_k by
    |h_k^H R_c^-1 h_u|^2 / (1 + b_u), b_u = h_u^H R_c^-1 h_u, and u itself
    gets gamma_u = b_u at its serving BS. None when the closed form cannot
    be trusted (see _rate_terms).
    """
    _require_rows(chans, chain(candidates, *members.values()))
    rows = {c: np.array(members[c], dtype=np.int64) for c in sorted(members)}
    placed = np.concatenate(list(rows.values()))
    cand = np.array(candidates, dtype=np.int64)
    eye = noise_power * np.eye(chans.h.shape[2])
    total = np.zeros(len(cand))
    for c, served in rows.items():
        if not served.size and c != cell:
            continue
        s = chans.h[c][placed]
        r_inv = np.linalg.inv(s.T @ s.conj() + eye)
        g = chans.h[c][cand]
        v = r_inv @ g.T                                   # (N, u): R_c^-1 h_u
        b = np.einsum("un,nu->u", g.conj(), v).real
        d = chans.h[c][served]
        a = np.einsum("kn,nk->k", d.conj(), r_inv @ d.T).real
        one_minus_a = (1.0 - a)[:, None] + np.abs(d.conj() @ v) ** 2 / (1.0 + b)
        if c == cell:
            one_minus_a = np.vstack([one_minus_a, 1.0 / (1.0 + b)])
        terms = _rate_terms(one_minus_a)
        if terms is None:
            return None
        total += terms.sum(axis=0)
    return total


def _block_rates(
    h: np.ndarray, rows: np.ndarray, serving: np.ndarray, noise_power: float
) -> np.ndarray | None:
    """Closed-form sum rates of a batch of groups: rows (B, M) index the
    users of each group, serving (M,) their serving BSs. One batched solve
    per BS; None when the closed form cannot be trusted (see _rate_terms).
    """
    eye = noise_power * np.eye(h.shape[2])
    total = np.zeros(len(rows))
    for c in np.unique(serving):
        s = h[c][rows]                                    # (B, M, N)
        d = s[:, serving == c]                            # (B, k, N)
        x = np.linalg.solve(s.transpose(0, 2, 1) @ s.conj() + eye,
                            d.transpose(0, 2, 1))         # (B, N, k): R^-1 h_k
        terms = _rate_terms(1.0 - np.einsum("bkn,bnk->bk", d.conj(), x).real)
        if terms is None:
            return None
        total += terms.sum(axis=1)
    return total


def exact_pick(scores: np.ndarray | None, count: int, evaluate) -> tuple[int, tuple]:
    """Index and exact evaluation of the best of `count` candidates.

    evaluate(index) returns (rate, gammas) as evaluate_group does.
    Candidates whose closed-form score lies within _SCORE_BAND (relative)
    of the best one, or all of them when scores is None, are evaluated.
    The first strict maximum of the rate wins, so the pick and its
    evaluation equal those of exact scoring with a lowest-index tie-break.
    """
    if scores is None:
        band = range(count)
    else:
        top = scores.max()
        band = np.flatnonzero(scores >= top - _SCORE_BAND * abs(top))
    best_i, best = -1, None
    for i in band:
        result = evaluate(int(i))
        if best is None or result[0] > best[0]:
            best_i, best = int(i), result
    return best_i, best


def brute_force_optimum(
    chans: ChannelSet,
    kbar: int,
    noise_power: float,
    max_combinations: int = BRUTE_FORCE_BUDGET,
) -> tuple[UserGroup, float]:
    """Exhaustive search over all per-cell kbar-subsets.

    Guarded by max_combinations on the product of per-cell subset
    counts. Combinations are ranked in closed form, _BLOCK at a time, and
    the pick is confirmed with evaluate_group (exact_pick), so ties keep the
    lexicographically lowest selection. The winner's exact evaluation also
    fills its SelectionRecords.
    """
    bycell = chans.ids_by_cell()
    cells = sorted(bycell)
    for l in cells:
        if len(bycell[l]) < kbar:
            raise ValueError(f"cell {l} has fewer than kbar={kbar} users")
    n_combos = combination_count([len(bycell[l]) for l in cells], kbar)
    if n_combos > max_combinations:
        raise EnumerationGuardError(
            f"{n_combos} combinations exceed the budget of {max_combinations}"
        )
    # User ids of every kbar-subset per cell, in lexicographic order;
    # combination i of the product is np.unravel_index(i, shape).
    picks = []
    for l in cells:
        n = math.comb(len(bycell[l]), kbar)
        flat = chain.from_iterable(combinations(bycell[l], kbar))
        picks.append(np.fromiter(flat, np.int64, n * kbar).reshape(n, kbar))
    shape = tuple(len(p) for p in picks)
    serving = np.repeat(cells, kbar)

    def group_at(i: int) -> UserGroup:
        idx = np.unravel_index(i, shape)
        return UserGroup(members={l: p[j].tolist() for l, p, j in zip(cells, picks, idx)})

    scores = np.empty(n_combos)
    for start in range(0, n_combos, _BLOCK):
        stop = min(start + _BLOCK, n_combos)
        idx = np.unravel_index(np.arange(start, stop), shape)
        rows = np.hstack([p[j] for p, j in zip(picks, idx)])
        block = _block_rates(chans.h, rows, serving, noise_power)
        if block is None:
            scores = None
            break
        scores[start:stop] = block
    i, (rate, gammas) = exact_pick(
        scores, n_combos, lambda i: evaluate_group(group_at(i), chans, noise_power)
    )
    best = group_at(i)
    best.meta = [
        SelectionRecord(uid, cell, slot, gammas[uid], "icsi")
        for cell in cells
        for slot, uid in enumerate(best.members[cell])
    ]
    return best, float(rate)


@dataclass
class OverheadModel:
    """Inputs of the closed-form complexity/overhead accounting."""

    algorithm: str
    n_cells: int
    users_per_cell: int
    kbar: int
    kprime: int
    n_antennas: int
    eta: float | None = None


def overhead_counts(model: OverheadModel) -> dict[str, int]:
    """Exact multiplication / CSI-acquisition / information-exchange counts.

    Evaluates the closed forms for the seven table algorithms and the
    exhaustive oracle; robust variants require eta.
    """
    algo = model.algorithm
    L = model.n_cells
    k = model.users_per_cell
    kb = model.kbar
    kp = model.kprime
    n = model.n_antennas
    full_csi = {"csi_acquisitions": L**2 * k, "info_exchange": L**2 * k * n}
    if algo == "greedy":
        return {"mults": L * k * kb**2 * (n**3 + k * n**2 + kb * n**2), **full_csi}
    if algo == "brute_force":
        # Not table-modeled: combinations times one MMSE solve per user.
        return {"mults": combination_count([k] * L, kb) * L * kb * n**3, **full_csi}
    if algo == "sus":
        return {"mults": L * k * kb * n, "csi_acquisitions": L * k, "info_exchange": 0}
    if algo == "random":
        return {"mults": 1, "csi_acquisitions": 0, "info_exchange": 0}
    stage2 = L**2 * kb**2 * kp + L**2 * kb**3
    aes = L * k * kp**2 + stage2
    gis = L * k**3 + stage2
    if algo == "two_stage_aes":
        return {"mults": aes, "csi_acquisitions": 0, "info_exchange": L * kp}
    if algo == "two_stage_gis":
        return {"mults": gis, "csi_acquisitions": 0, "info_exchange": L * kp}
    base = {"robust_aes": aes, "robust_gis": gis}.get(algo)
    if base is None:
        raise ValueError(f"no closed-form overhead model for {algo!r}")
    if model.eta is None:
        raise ValueError("robust overhead models require eta")
    miss = 1.0 - model.eta
    extra = L**2 * miss * k + L**3 * miss**2 * k**2
    return {
        "mults": int(round(base + extra)),
        "csi_acquisitions": int(round(L**2 * miss * k)),
        "info_exchange": int(round((2.0 - model.eta) * L * kp + L**3 * miss * kp)),
    }


def calibrate_noise(scenario: Scenario, target_snr_db: float) -> float:
    """Noise power making the median grid-center matched-filter SNR hit
    the target.

    The reference population is one interference-free user at every grid
    center toward its serving BS (realization 0), so the calibration is
    a deterministic function of the scenario.
    """
    gains = []
    for l in range(scenario.config.n_cells):
        grids = scenario.grids_of_cell[l]
        rows = channel_rows(
            scenario, l, scenario.grid_centers[grids], np.zeros(len(grids), dtype=int)
        )
        gains.append(np.sum(np.abs(rows) ** 2, axis=1))
    med = float(np.median(np.concatenate(gains)))
    return med / 10.0 ** (target_snr_db / 10.0)


@dataclass(slots=True)
class ScheduleResult:
    """Outcome of one scheduling trial. Wall time is diagnostic only and
    excluded from equality."""

    algorithm: str
    sum_rate: float
    per_user_sinr: dict[int, float]
    csi_acquisitions: int
    info_exchange: int
    multiplication_estimate: int
    group: UserGroup
    wall_ms: float = field(default=0.0, compare=False)
