"""Uplink MMSE evaluation, exhaustive oracle, and overhead accounting.

All rate evaluation is genie-aided: whatever information a scheduler
consumed, the resulting group is scored with the true channels.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import chain, combinations

import numpy as np

from .errors import EnumerationGuardError, ScheduleError
from .geometry import Scenario, channel_rows
from .groups import SelectionRecord, UserGroup

_RESIDUAL_TOL = 1e-10


@dataclass
class ChannelSet:
    """The trial's users: user i is row i of every array.

    cell_of[i] is user i's serving cell, grid[i] the map grid of its
    position, and h[l, i] its true channel toward BS l, an (L, n, N) =
    shape array whose rows are synthesized on demand: synthesize(ids)
    returns the (L, len(ids), N) rows of those users. rows(ids) synthesizes
    the missing rows among ids in one call and keeps them; reading h
    synthesizes every missing row in one call and returns the complete
    buffer, so no reader sees an unfilled row. shape, n_cells and cells
    never synthesize. Users are numbered cell by cell, as place_users
    numbers them: cells[l] is the slice of cell l's ids, which schedulers
    read; ValueError unless cell_of is non-decreasing within 0..L-1.

    All else a trial keeps lives on its set and goes with it:
    evaluate_group keeps each scored group's noise-independent MMSE state,
    and the two-stage schedulers keep one fusion slot, the fusion made
    from the set (csi, None until one fuses) on the map fusion_key, and
    the decisions made on that fusion.
    """

    cell_of: np.ndarray   # (n,)
    grid: np.ndarray      # (n,)
    shape: tuple          # (L, n, N)
    synthesize: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def __post_init__(self):
        bounds = np.searchsorted(self.cell_of, np.arange(self.n_cells + 1))
        if not np.array_equal(self.cell_of, np.repeat(np.arange(self.n_cells), np.diff(bounds))):
            raise ValueError(f"users must be numbered cell by cell, cells 0..{self.n_cells - 1}")
        self.cells = tuple(map(slice, bounds[:-1].tolist(), bounds[1:].tolist()))
        self._rows = np.empty(self.shape, dtype=np.complex128)
        self._missing = np.ones(len(self.cell_of), dtype=bool)
        self._complete = False
        self._scored: dict = {}
        self.fusion_key = None
        self.csi = None
        self.decisions: dict = {}

    @property
    def h(self) -> np.ndarray:
        if not self._complete:
            self._fill(np.flatnonzero(self._missing))
        return self._rows

    @property
    def n_cells(self) -> int:
        return self.shape[0]

    def ids_by_cell(self, need: int = 0) -> dict[int, list[int]]:
        """Each cell's user ids, ascending, cells in order; ScheduleError for
        a cell with fewer than need users (a scheduler's kbar)."""
        bycell = {l: list(range(cell.start, cell.stop)) for l, cell in enumerate(self.cells)}
        for l, ids in bycell.items():
            if len(ids) < need:
                raise ScheduleError(f"cell {l} has {len(ids)} < kbar={need} users")
        return bycell

    def rows(self, ids) -> np.ndarray:
        """(L, len(ids), N): the true channels of these users toward every
        BS. ValueError, with nothing synthesized, for an id that is not a
        row."""
        return self.filled(ids)[:, ids]

    def filled(self, ids) -> np.ndarray:
        """The (L, n, N) buffer of every row, those of ids synthesized (the
        others may not be yet). ValueError, with nothing synthesized, for
        an id that is not a row: a negative id must not wrap around to the
        last rows."""
        given = np.asarray(ids)
        bad = (given < 0) | (given >= len(self.cell_of))
        if bad.any():
            raise ValueError(f"user {given[bad][0]} has no channel row")
        if not self._complete:
            self._fill(ids)
        return self._rows

    def _fill(self, ids) -> None:
        # Each missing row once, however often ids repeats it.
        want = np.zeros_like(self._missing)
        want[ids] = True
        need = np.flatnonzero(want & self._missing)
        if need.size:
            self._rows[:, need] = self.synthesize(need)
            self._missing[need] = False
            self._complete = not self._missing.any()


@dataclass
class ReceiveBeamformer:
    weights: np.ndarray


def _check_noise(noise_power: float) -> None:
    if noise_power <= 0 or not math.isfinite(noise_power):
        raise ValueError("noise_power must be positive and finite")


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
    _check_noise(noise_power)
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
    user against the full scheduled set. The BSs that serve k of the m
    scheduled users are stacked and solved in one batched call per k, and
    each system's arithmetic is that of a batch of one. ValueError for a
    cell that is not a BS, a user scheduled twice or without a channel
    row, or a noise power that is not positive and finite.

    chans keeps the noise-independent half of a group's systems (row
    gathers and Grams, _mmse_prepare) under its canonical group, each cell
    with its sorted members, so scoring that group again on the same
    table, at any noise, runs only the solve (_mmse_solve).
    """
    _check_noise(noise_power)
    # Canonical order, cell by cell and ascending ids within a cell, so the
    # rate is bit-identical for any member ordering of the same group.
    key = tuple((cell, tuple(sorted(group.members[cell]))) for cell in sorted(group.members))
    ids = [uid for _, served in key for uid in served]
    stacks = chans._scored.get(key)
    if stacks is None:
        stacks = chans._scored[key] = _prepare_group(key, ids, chans)
    out = np.empty(len(ids))
    for at, systems in stacks:
        out[at] = _mmse_solve(systems, noise_power)
    gammas = out.tolist()
    return _sum_rate(gammas), dict(zip(ids, gammas))


def _prepare_group(key, ids, chans: ChannelSet) -> list:
    """[(at, systems)]: the prepared systems (_mmse_prepare) of a canonical
    group key, whose users are ids, one stack per served count k, each with
    the (B, k) slots of its gammas in ids. A served cell's users are the
    slice first:first + k of ids. Raises evaluate_group's ValueErrors."""
    if len(set(ids)) < len(ids):
        twice = next(u for i, u in enumerate(ids) if u in ids[:i])
        raise ValueError(f"user {twice} is scheduled twice")
    stacks: dict[int, list[tuple[int, int]]] = {}
    first = 0
    for cell, served in key:
        if not 0 <= cell < chans.n_cells:
            raise ValueError(f"cell {cell} is not a BS of {chans.n_cells}")
        if served:
            stacks.setdefault(len(served), []).append((cell, first))
        first += len(served)
    rows = chans.filled(ids)
    users = np.array([ids], dtype=np.int64)
    prepared = []
    for k, systems in stacks.items():
        bss, first = np.array(systems, dtype=np.int64).T
        prepared.append((first[:, None] + np.arange(k), _mmse_prepare(
            rows, bss, users.repeat(len(bss), axis=0), first, k)))
    return prepared


def _mmse_gammas(h, bss, users, first, k: int, noise_power: float) -> np.ndarray:
    """(B, k) SINRs of B MMSE systems, the one exact kernel: its
    noise-independent half (_mmse_prepare) and its noise half
    (_mmse_solve).

    System b is BS bss[b] against the m scheduled users[b] of a (B, m)
    array, in canonical order (cell by cell, ascending ids within a cell),
    and serves users[b, first[b]:first[b] + k]; first is (B,) or one
    offset for all. h is an (L, n, N) channel buffer holding those rows.
    """
    return _mmse_solve(_mmse_prepare(h, bss, users, first, k), noise_power)


def _mmse_prepare(h, bss, users, first, k: int) -> tuple:
    """The systems of _mmse_gammas up to the noise: (st, gram, d, served),
    the (B, N, m) scheduled rows st, their (B, N, N) Gram st s^*, the
    (B, N, k) served rows d, and served, the index of each served user's
    own term in a (B, k, m) cross product."""
    b = np.arange(len(users))[:, None]
    j = np.arange(k)
    cols = np.reshape(first, (-1, 1)) + j
    bs = np.reshape(bss, (-1, 1))
    s = h[bs, users]                                      # (B, m, N)
    d = h[bs, users[b, cols]]                             # (B, k, N)
    st = s.transpose(0, 2, 1)
    return st, st @ s.conj(), d.transpose(0, 2, 1), (b, j, cols)


def _mmse_solve(systems: tuple, noise_power: float) -> np.ndarray:
    """(B, k) SINRs of systems prepared by _mmse_prepare at this noise."""
    st, gram, d, served = systems
    eye = noise_power * np.eye(gram.shape[2], dtype=np.complex128)
    w = np.linalg.solve(gram + eye, d)                    # (B, N, k)
    # cross[b, j, i] = w_j^H h_i. Every product and reduction keeps the
    # shape and axis of one system's, so each result keeps its bits: k
    # rows, not k sliced from m (a one-row product runs as gemv), row sums
    # along the contiguous last axis, ||w||^2 over the antennas.
    p = np.abs(w.conj().transpose(0, 2, 1) @ st) ** 2     # (B, k, m)
    wn2 = np.sum(np.abs(w) ** 2, axis=1)                  # (B, k)
    num = p[served]
    return num / ((p.sum(axis=2) - num) + noise_power * wn2)


def _sum_rate(gammas) -> float:
    """The sum of log2(1 + gamma) over a group's gammas in canonical order,
    term by term with math.log2: the one order of every exact rate."""
    total = 0.0
    for g in gammas:
        total += math.log2(1.0 + g)
    return total


def _cell_gammas(h, parts, noise_power: float) -> tuple[np.ndarray, np.ndarray]:
    """(users, gammas), both (B, m), of B groups given cell by cell: parts[c]
    is a (B, k_c) array of the ids BS c serves, each row ascending, so each
    row of users lies in canonical order. One kernel call per serving BS."""
    users = np.hstack(parts)
    gammas = np.empty(users.shape)
    first = 0
    for c, part in enumerate(parts):
        k = part.shape[1]
        if k:
            gammas[:, first:first + k] = _mmse_gammas(
                h, np.full(len(users), c), users, first, k, noise_power)
        first += k
    return users, gammas


def first_best(users, gammas, band) -> tuple[int, tuple[float, dict[int, float]]]:
    """The pick rule of both searches: the row of the ascending band whose
    exact rate (_sum_rate of its gammas) is the first strict maximum, with
    its (rate, gammas) as evaluate_group gives them. So ties go to the
    lowest row."""
    rates = {int(i): _sum_rate(gammas[i].tolist()) for i in band}
    i = max(rates, key=rates.__getitem__)
    return i, (rates[i], dict(zip(users[i].tolist(), gammas[i].tolist())))


# Scores only rank: greedy's closed form (candidate_rates) and brute force's
# np.log2 sums of exact gammas (math.log2 may differ in the last bit).
# score_band keeps every candidate within _SCORE_BAND (relative) of the top
# score, which holds the exact pick while every score errs by less than half
# the band; first_best sums a band of two or more exactly. The closed form
# errs by below 3e-14 at the workloads' 20-30 dB (greedy's picks, table
# scale, seeds 0-2) but by 1e-7 at 50 dB (desk seed 1): above 30 dB,
# test_greedy_matches_the_reference_at_high_snr guards picks.
# _MIN_RESIDUAL refuses 1 - a_k terms too small to keep correct digits.
_SCORE_BAND = 1e-9
_MIN_RESIDUAL = 1e-6
# Combinations scored per kernel call: bounds brute-force memory.
_BLOCK = 2048
# Default cap on the combinations brute_force_optimum enumerates.
BRUTE_FORCE_BUDGET = 1_000_000


def combination_count(cell_sizes, kbar: int) -> int:
    """Number of groups that pick kbar users in each cell of these sizes."""
    return math.prod(math.comb(k, kbar) for k in cell_sizes)


def _rate_terms(one_minus_a: np.ndarray) -> np.ndarray | None:
    """log2(1 + gamma_k) = -log2(1 - a_k), where a_k = h_k^H R^-1 h_k and R
    holds noise plus every scheduled user, so gamma_k = a_k / (1 - a_k).

    None when any 1 - a_k is non-finite or at most _MIN_RESIDUAL: there too
    few of its digits are correct to rank, and callers score exactly.
    """
    if not np.all(np.isfinite(one_minus_a)) or np.any(one_minus_a <= _MIN_RESIDUAL):
        return None
    return -np.log2(one_minus_a)


class PartialGroup:
    """A group that users join one at a time, with its MMSE state at every
    BS, for scoring the next addition in closed form (candidate_rates).

    members[c] lists BS c's users in the order they joined. At BS c,
    R_c = noise I + the sum of h h^H over every member's channel toward c;
    r_inv[c] is R_c^-1 and resid[c] holds 1 - a_k of members[c], where
    a_k = h_k^H R_c^-1 h_k and gamma_k = a_k / (1 - a_k). add and
    candidate_rates take ids that are rows of chans, as greedy's from
    ids_by_cell are, and do not check them. ValueError for a noise power
    that is not positive and finite.
    """

    def __init__(self, chans: ChannelSet, noise_power: float):
        _check_noise(noise_power)
        self.chans = chans
        self.noise_power = noise_power
        self.members: dict[int, list[int]] = {c: [] for c in range(chans.n_cells)}
        self.resid = {c: np.empty(0) for c in self.members}
        self.r_inv = self._invert(list(self.members))

    def _invert(self, bss) -> np.ndarray:
        """(len(bss), N, N): R_c^-1 at each BS c of bss, inverted from the
        members' rows."""
        placed = list(chain.from_iterable(self.members.values()))
        s = self.chans.h[:, placed][bss]                 # (B, m, N)
        eye = self.noise_power * np.eye(self.chans.shape[2])
        return np.linalg.inv(s.transpose(0, 2, 1) @ s.conj() + eye)

    def add(self, cell: int, uid: int) -> None:
        """User uid joins cell's members.

        At each BS c (Sherman-Morrison), v = R_c^-1 h_u and b = h_u^H v:
        every member's 1 - a_k gains |h_k^H v|^2 / (1 + b), a sum of
        positive terms that keeps its digits; u's own is 1 / (1 + b); and
        R_c^-1 loses v v^H / (1 + b). That step shrinks R_c^-1 by 1 + b
        along h_u, so where 1 / (1 + b) is at most _MIN_RESIDUAL, the cut
        below which _rate_terms refuses to score, R_c^-1 is inverted again
        from the members' rows instead.
        """
        rows = self.chans.h
        h = rows[:, uid]                                 # (L, N)
        v = self.r_inv @ h[:, :, None]                   # (L, N, 1)
        keep = 1.0 / (1.0 + np.einsum("ln,ln->l", h.conj(), v[:, :, 0]).real)
        for c, served in self.members.items():
            if served:
                cross = rows[c][served].conj() @ v[c, :, 0]
                self.resid[c] = self.resid[c] + np.abs(cross) ** 2 * keep[c]
        self.members[cell].append(uid)
        self.resid[cell] = np.append(self.resid[cell], keep[cell])
        self.r_inv -= (v * keep[:, None, None]) @ v.conj().transpose(0, 2, 1)
        lost = np.flatnonzero(~(keep > _MIN_RESIDUAL))
        if lost.size:
            self.r_inv[lost] = self._invert(lost)


def candidate_rates(
    group: PartialGroup, cell: int, candidates: list[int]
) -> np.ndarray | None:
    """Closed-form sum rates of `group` with each candidate added to `cell`.

    Adding user u at BS c (Sherman-Morrison) raises each served 1 - a_k by
    |h_k^H R_c^-1 h_u|^2 / (1 + b_u), b_u = h_u^H R_c^-1 h_u, and u itself
    gets gamma_u = b_u at its serving BS; group holds R_c^-1 and every
    1 - a_k. None when the closed form cannot be trusted (see _rate_terms).
    """
    rows = group.chans.h
    g = rows[:, candidates]                               # (L, u, N)
    v = group.r_inv @ g.transpose(0, 2, 1)                # (L, N, u): R_c^-1 h_u
    b = np.einsum("lun,lnu->lu", g.conj(), v).real
    one_minus_a = [1.0 / (1.0 + b[cell:cell + 1])]        # u's own, (1, u)
    for c, served in group.members.items():
        if served:
            cross = rows[c][served].conj() @ v[c]         # (k, u): h_k^H R_c^-1 h_u
            one_minus_a.append(group.resid[c][:, None] + np.abs(cross) ** 2 / (1.0 + b[c]))
    terms = _rate_terms(np.vstack(one_minus_a))
    return None if terms is None else terms.sum(axis=0)


def score_band(scores: np.ndarray | None, count: int) -> np.ndarray | range:
    """Indices of the candidates that may hold the best of `count`: those
    whose score lies within _SCORE_BAND (relative) of the top score, or all
    of them when scores is None."""
    if scores is None:
        return range(count)
    top = scores.max()
    return np.flatnonzero(scores >= top - _SCORE_BAND * abs(top))


def best_addition(
    group: PartialGroup, cell: int, candidates
) -> tuple[int, tuple[float, dict[int, float]]]:
    """Index into candidates and exact (rate, gammas) of the best group of
    `group` with one candidate added to cell (first_best): row b holds
    candidates[b] sorted into cell's ids, and every row is scored on the
    exact kernel."""
    parts = [np.tile(np.array(sorted(served), dtype=np.int64), (len(candidates), 1))
             for served in group.members.values()]
    parts[cell] = np.sort(np.column_stack([parts[cell], candidates]), axis=1)
    users, gammas = _cell_gammas(group.chans.h, parts, group.noise_power)
    return first_best(users, gammas, range(len(users)))


def brute_force_optimum(
    chans: ChannelSet, kbar: int, noise_power: float
) -> tuple[UserGroup, float, dict[int, float]]:
    """Exhaustive search over all per-cell kbar-subsets.

    ValueError for a noise power that is not positive and finite,
    ScheduleError for a cell with fewer than kbar users, and
    EnumerationGuardError when the product of per-cell subset counts
    exceeds BRUTE_FORCE_BUDGET. Every combination is scored on the exact
    kernel, _BLOCK at a time: its gammas at every BS rank it by their
    np.log2 sum, and each block's score_band is summed exactly
    (first_best). The first strict maximum across blocks wins, so ties keep
    the lexicographically lowest selection. Its gammas also fill its
    SelectionRecords. Returns (group, rate, gammas) as evaluate_group gives
    them for the group.
    """
    _check_noise(noise_power)
    bycell = chans.ids_by_cell(kbar)
    n_combos = combination_count(map(len, bycell.values()), kbar)
    if n_combos > BRUTE_FORCE_BUDGET:
        raise EnumerationGuardError(
            f"{n_combos} combinations exceed the budget of {BRUTE_FORCE_BUDGET}"
        )
    # User ids of every kbar-subset per cell, in lexicographic order;
    # combination i of the product is np.unravel_index(i, shape), and its
    # row of the block lies in canonical order.
    picks = []
    for ids in bycell.values():
        n = math.comb(len(ids), kbar)
        flat = chain.from_iterable(combinations(ids, kbar))
        picks.append(np.fromiter(flat, np.int64, n * kbar).reshape(n, kbar))
    shape = tuple(len(p) for p in picks)
    best = None
    for start in range(0, n_combos, _BLOCK):
        idx = np.unravel_index(np.arange(start, min(start + _BLOCK, n_combos)), shape)
        users, gammas = _cell_gammas(chans.h, [p[j] for p, j in zip(picks, idx)], noise_power)
        band = score_band(np.log2(1.0 + gammas).sum(axis=1), len(users))
        i, pick = first_best(users, gammas, band)
        if best is None or pick[0] > best[1][0]:
            best = users[i].tolist(), pick
    row, (rate, gammas) = best
    group = UserGroup(members={l: row[l * kbar:(l + 1) * kbar] for l in bycell})
    group.meta = [
        SelectionRecord(uid, l, slot, gammas[uid], "icsi")
        for l, served in group.members.items()
        for slot, uid in enumerate(served)
    ]
    return group, rate, gammas


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
    # The map-only schedulers are the robust ones with every grid reliable.
    bases = {"two_stage_aes": (aes, 1.0), "two_stage_gis": (gis, 1.0),
             "robust_aes": (aes, model.eta), "robust_gis": (gis, model.eta)}
    if algo not in bases:
        raise ValueError(f"no closed-form overhead model for {algo!r}")
    base, eta = bases[algo]
    if eta is None:
        raise ValueError("robust overhead models require eta")
    miss = 1.0 - eta
    extra = L**2 * miss * k + L**3 * miss**2 * k**2
    return {
        "mults": int(round(base + extra)),
        "csi_acquisitions": int(round(L**2 * miss * k)),
        "info_exchange": int(round((2.0 - eta) * L * kp + L**3 * miss * kp)),
    }


def calibrate_noise(scenario: Scenario, target_snr_db: float) -> float:
    """Noise power making the median grid-center matched-filter SNR hit
    the target.

    The reference population is one interference-free user at every grid
    center toward its serving BS (realization 0), so the calibration is
    a deterministic function of the scenario.
    """
    return _median_center_gain(scenario) / 10.0 ** (target_snr_db / 10.0)


# Each live scenario object's median grid-center gain (Scenario hashes by
# identity); an entry goes with its scenario.
_center_gains: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _median_center_gain(scenario: Scenario) -> float:
    """Median grid-center gain of calibrate_noise, once per scenario object,
    so an SNR sweep synthesizes it once."""
    gain = _center_gains.get(scenario)
    if gain is None:
        gains = []
        for l, grids in enumerate(scenario.grids_of_cell):
            # One call per cell, over its grid centers: one batch of every
            # center would change each product's shape, and on some BLAS
            # kernels its last bits.
            rows = channel_rows(scenario, scenario.grid_centers[grids], 0)[l]
            gains.append(np.sum(np.abs(rows) ** 2, axis=1))
        gain = _center_gains[scenario] = _median(np.concatenate(gains))
    return gain


def _median(values: np.ndarray) -> float:
    """np.median of finite values, bit for bit: the mean of the middle
    order statistics of the partition np.median makes (the last kth, -1,
    is its NaN check's). That NaN check imports numpy.ma on its first call
    in a process; this does not."""
    half = len(values) // 2
    middle = [half] if len(values) % 2 else [half - 1, half]
    part = np.partition(values, [*middle, -1])
    return float(np.mean(part[middle[0]:half + 1]))


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
