"""Seeded Monte-Carlo trials tying geometry, map, schedulers, and
evaluation together."""

from __future__ import annotations

import time
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .ckm import UsCkm, build_ckm
from .errors import ScheduleError
from .evaluation import (
    ChannelSet,
    OverheadModel,
    ScheduleResult,
    brute_force_optimum,
    calibrate_noise,
    evaluate_group,
    overhead_counts,
)
from .geometry import (_TAG_RANDOM_PICK, _TAG_USERS, Scenario, ScenarioConfig, _seeded,
                       build_scenario, channel_rows, scenario_key)
from .groups import UserGroup
from .scheduling import (
    fuse_effective_csi,
    greedy_schedule,
    random_schedule,
    robust_two_stage,
    sus_schedule,
)

@lru_cache(maxsize=256)
def _scenario_key(config: ScenarioConfig) -> ScenarioConfig:
    """scenario_key(config), memoized: its validating replace() costs
    13-15 us, and the points of a sweep look their key up on every trial.
    Configs are small, so this memo holds far more of them than the
    scenario and map caches hold scenarios and maps."""
    return scenario_key(config)


@lru_cache(maxsize=8)
def _scenario(key: ScenarioConfig) -> Scenario:
    return build_scenario(key)


def cached_scenario(config: ScenarioConfig) -> Scenario:
    """The one scenario of scenario_key(config), shared by every config of
    that key."""
    return _scenario(_scenario_key(config))


# Surveys have an LRU apart from _map's, so that thresholded maps do not evict them.
@lru_cache(maxsize=8)
def _survey(key: ScenarioConfig, samples_per_grid: int) -> UsCkm:
    return build_ckm(_scenario(key), samples_per_grid)


@lru_cache(maxsize=8)
def _map(key: ScenarioConfig, s: int, delta: float | None, eta: float | None) -> UsCkm:
    return _survey(key, s).reclassify(delta, eta)


def _map_key(config: ScenarioConfig, threshold: tuple | None) -> tuple:
    """(scenario key, samples_per_grid, delta, eta): config's survey key, in
    two parts, and threshold (delta, eta), by default config's own."""
    delta, eta = threshold or (config.delta, config.eta)
    return _scenario_key(config), config.samples_per_grid, delta, eta


def cached_ckm(config: ScenarioConfig, threshold: tuple | None = None) -> UsCkm:
    """The map of config: the survey of survey_key(config), built once and
    shared read-only by every config of that key, thresholded at threshold
    (delta, eta), by default config's. Maps are cached per (survey key,
    delta, eta), one object per threshold however many points a sweep has.
    At config's threshold its arrays equal build_ckm(build_scenario(config))'s."""
    return _map(*_map_key(config, threshold))


class UserRecord(NamedTuple):
    """One placed user: id, serving cell, map grid and position."""

    id: int
    cell: int
    grid: int
    x: float
    y: float


# Generator.random's double: the top 53 bits of a 64-bit word times 2**-53.
_DOUBLE_SCALE = 2.0**-53
_LOW32 = np.uint64(0xFFFFFFFF)
# The shifts to the low and the high 32-bit half of a word.
_HALVES = np.array([0, 32], dtype=np.uint64)


def _uniform_draws(rng: np.random.Generator, bounds) -> tuple[np.ndarray, np.ndarray]:
    """(picks (m,), offsets (m, 2)): what one rng.integers(b) and one
    rng.random(2) per bound b of bounds, in turn, draw, taken from one
    rng.bit_generator.random_raw block. rng is a PCG64 Generator holding no
    buffered 32-bit half (a fresh one); bounds lie in [1, 2**32).

    A bound b > 1 draws as Generator.integers does, by Lemire's
    multiply-shift: a 32-bit value x gives (x * b) >> 32, unless its
    leftover (x * b) mod 2**32 falls below (2**32 - b) mod b, which asks
    for another 32-bit value. PCG64 hands out the low half of a fresh 64-bit word
    and keeps its high half for the next 32-bit request, which random()
    neither reads nor clears; so picks alternate between the low half of
    a fresh word, drawn just before that user's offsets, and the kept high
    half of the last one, also across cells. A bound of 1 draws nothing.
    random() takes one word w per value, (w >> 11) * 2**-53.

    A rejection (probability below b / 2**32 per pick) shifts every later
    draw, so then rng is rewound to where it started and the draws are
    made one user at a time. Either way rng ends where that loop leaves
    it, up to the kept high half.

    Generator.integers' method and PCG64's buffering are numpy internals
    that NEP 19 does not freeze, so these bits are those of the loop only
    at the numpy the CI workflow pins (2.4.6); the per-user reference
    tests in tests/test_fast_paths.py check them.
    """
    bounds = np.asarray(bounds, dtype=np.uint64)
    takes = bounds > 1
    drawn = np.flatnonzero(takes)
    half = np.cumsum(takes) - takes  # 32-bit halves drawn before each user
    # Each user's first word: two offset words per earlier user, plus the
    # fresh words of the earlier halves, one per two rounded up.
    first = np.arange(0, 2 * len(bounds), 2) + (half + 1) // 2
    words = rng.bit_generator.random_raw(2 * len(bounds) + (len(drawn) + 1) // 2)
    # Picks 2i and 2i + 1 take the low and the high half of the word that
    # pick 2i draws fresh.
    x = (words[first[drawn[::2]], None] >> _HALVES).ravel()[:len(drawn)] & _LOW32
    b = bounds[drawn]
    scaled = x * b
    if ((scaled & _LOW32) < (2**32 - b) % b).any():
        rng.bit_generator.advance(2**128 - len(words))
        picks, offsets = np.empty(len(bounds), dtype=np.int64), np.empty((len(bounds), 2))
        for k, bound in enumerate(bounds.tolist()):
            picks[k] = rng.integers(bound)
            offsets[k] = rng.random(2)
        return picks, offsets
    picks = np.zeros(len(bounds), dtype=np.int64)
    picks[drawn] = scaled >> 32
    at = first + (takes & (half % 2 == 0))  # after a fresh pick word
    return picks, (words[at[:, None] + [0, 1]] >> 11) * _DOUBLE_SCALE


def place_users(scenario: Scenario, trial_seed: int) -> list[UserRecord]:
    """Draw users_per_cell positions per cell inside its coverage grids,
    one row per user, numbered 0..n-1 cell by cell: each cell's users are
    one block of ids, the cells in order, the layout ChannelSet requires.
    Each offset keeps its position inside the square of the grid drawn for
    it, so a user's serving cell is the cell it was drawn for
    (tests/test_fast_paths.py checks the layout over seeds).

    "uniform" picks a grid uniformly: per user, cell by cell, one
    rng.integers(len(grids)) pick and one rng.random(2) offset, which
    _uniform_draws takes for every user from one block of raw words.
    "clustered" concentrates picks around a few per-cell hotspot grids.
    """
    cfg = scenario.config
    rng = _seeded(cfg.rng_seed, _TAG_USERS, trial_seed)
    edge = cfg.grid_edge_m
    K = cfg.users_per_cell
    if cfg.placement == "clustered":
        picks, offsets = [], []
        for grids in scenario.grids_of_cell:
            anchors = rng.choice(grids, size=min(cfg.hotspots_per_cell, len(grids)),
                                 replace=False)
            centers = scenario.grid_centers[grids]
            spread = 2.0 * edge
            weights = np.zeros(len(grids))
            for a in anchors:
                d2 = np.sum((centers - scenario.grid_centers[a]) ** 2, axis=1)
                weights += np.exp(-d2 / (2.0 * spread**2))
            weights /= weights.sum()
            # rng.choice(grids, p=weights) draws one random() per pick and
            # inverts this cdf, so one (K, 3) draw of pick uniform plus 2-D
            # offset per user reproduces the per-user stream.
            cdf = weights.cumsum()
            cdf /= cdf[-1]
            u = rng.random((K, 3))
            picks.append(grids[cdf.searchsorted(u[:, 0], side="right")])
            offsets.append(u[:, 1:])
        gids, offsets = np.concatenate(picks), np.concatenate(offsets)
    else:
        # rng.choice(grids) is one rng.integers(len(grids)) draw.
        coverage = scenario.grids_of_cell
        picks, offsets = _uniform_draws(rng, np.repeat([len(grids) for grids in coverage], K))
        gids = np.concatenate([grids[p] for grids, p in zip(coverage, picks.reshape(-1, K))])
    pos = scenario.grid_centers[gids] + (offsets - 0.5) * edge
    located = scenario.locate_many(pos)
    cells = scenario.grid_serving[located]
    xs, ys = pos.T.tolist()
    return list(map(UserRecord, range(len(pos)), cells.tolist(), located.tolist(), xs, ys))


def trial_channels(
    scenario: Scenario, users: list[UserRecord], realization: int
) -> ChannelSet:
    """The trial table: serving cell, grid and true channels toward every BS
    at one realization of users numbered 0..n-1 in order (user i is row i).

    No channel is synthesized here: the set synthesizes the rows a reader
    asks for (ChannelSet.rows, or all of them on reading h), each request
    in one channel_rows call over those users' positions. channel_rows is
    per position, so every row equals that of one call over all users.
    """
    ids, cells, grids, xs, ys = zip(*users)
    if ids != tuple(range(len(ids))):
        raise ValueError("users must be numbered 0..n-1 in order")
    pos = np.array([xs, ys]).T

    def synthesize(rows: np.ndarray) -> np.ndarray:
        return channel_rows(scenario, pos[rows], realization)

    return ChannelSet(
        cell_of=np.array(cells, dtype=np.int64), grid=np.array(grids, dtype=np.int64),
        shape=(scenario.config.n_cells, len(pos), scenario.n_antennas), synthesize=synthesize,
    )


def validate_group(group: UserGroup, chans: ChannelSet, kbar: int) -> None:
    """Raise ScheduleError unless every cell schedules exactly kbar users,
    no user appears twice, and each user is in its serving cell."""
    cells = range(chans.n_cells)
    if sorted(group.members) != list(cells):
        raise ScheduleError(f"group covers cells {sorted(group.members)}, not {list(cells)}")
    seen: set[int] = set()
    for cell in cells:
        served = group.members[cell]
        if len(served) != kbar:
            raise ScheduleError(f"cell {cell} has {len(served)} users, not kbar={kbar}")
        for uid in served:
            if uid in seen:
                raise ScheduleError(f"user {uid} is scheduled twice")
            seen.add(uid)
            if not 0 <= uid < len(chans.cell_of) or chans.cell_of[uid] != cell:
                raise ScheduleError(f"user {uid} is not served by cell {cell}")


# Every scheduler takes (config, trial_seed, chans, noise) and returns
# (group, counters, evaluation): the map-driven ones return the event
# counters of robust_two_stage, the others None, and their counters come from
# the closed forms of overhead_counts. evaluation is the (rate, gammas) of
# evaluate_group on the group when the scheduler has computed it exactly,
# else None. Entries look the schedulers up as module globals at call time,
# so a wrapper installed on this module sees every call.
def _greedy(config, trial_seed, chans, noise):
    group, rate, gammas = greedy_schedule(chans, config.kbar, noise)
    return group, None, (rate, gammas)


def _random(config, trial_seed, chans, noise):
    seed = int(_seeded(config.rng_seed, _TAG_RANDOM_PICK, trial_seed).integers(2**63))
    return random_schedule(chans.ids_by_cell(), config.kbar, seed), None, None


def _sus(config, trial_seed, chans, noise):
    return sus_schedule(chans, config.kbar, config.alpha), None, None


# The table of the map-driven trial last run, (key, chans); at most one is
# held. Its key, the scenario key and the trial seed, fixes the placement
# and every channel row, so every map-driven scheduler of a seed shares one
# table, at any threshold, as do configs that differ only in what the
# schedulers, the noise calibration or the survey read (SNR or samples sweeps).
_map_trial: tuple[tuple, ChannelSet] | None = None


def _two_stage(first_stage: str, threshold: tuple | None):
    """robust_two_stage at first_stage on the map of threshold, fused and
    decided on the table it is handed. The table keeps one fusion (csi) on
    one map (fusion_key: all else fusion reads, so robust_* at eta = 1 share
    two_stage_*'s) and the decisions on it per (first stage, kprime, kbar,
    alpha), all else robust_two_stage reads."""
    def schedule(config, trial_seed, chans, noise):
        ckm = cached_ckm(config, threshold)
        if chans.fusion_key is not ckm:
            # Release the old fusion and its decisions before fusing anew,
            # so that no two fusions are ever held at once.
            chans.fusion_key, chans.csi, chans.decisions = None, None, {}
            chans.csi = fuse_effective_csi(ckm, chans)
            chans.fusion_key = ckm
        key = (first_stage, config.kprime, config.kbar, config.alpha)
        if key not in chans.decisions:
            chans.decisions[key] = robust_two_stage(
                chans.csi, config.kprime, config.kbar, config.alpha,
                first_stage=first_stage,
            )
        group, counters = chans.decisions[key]
        # A copy, so that no two results share a group.
        return group.copy(), counters, None

    schedule.threshold = threshold
    return schedule


def _brute_force(config, trial_seed, chans, noise):
    group, rate, gammas = brute_force_optimum(chans, config.kbar, noise)
    return group, None, (rate, gammas)


_SCHEDULERS = {
    "greedy": _greedy,
    "random": _random,
    "sus": _sus,
    # The map-only schedulers are the robust ones with every grid reliable.
    "two_stage_aes": _two_stage("aes", (None, 1.0)),
    "two_stage_gis": _two_stage("gis", (None, 1.0)),
    "robust_aes": _two_stage("aes", None),
    "robust_gis": _two_stage("gis", None),
    "brute_force": _brute_force,
}
ALGORITHMS = tuple(_SCHEDULERS)
# The schedulers that read the map: the two-stage entries, each tagged with
# the threshold of the map it fuses on (None: config's own).
MAP_ALGORITHMS = tuple(a for a, f in _SCHEDULERS.items() if hasattr(f, "threshold"))


def fusion_key(config: ScenarioConfig, algorithm: str) -> tuple | None:
    """The key (scenario key, samples_per_grid, delta, eta) of the map that
    algorithm fuses on at config, or None for a scheduler that reads no
    map. Two jobs of one trial seed with one key share the trial's one
    fusion."""
    if algorithm not in MAP_ALGORITHMS:
        return None
    return _map_key(config, _SCHEDULERS[algorithm].threshold)


# The channels of trial seed s are realization s + 1, an int64 in
# channel_rows.
MAX_TRIAL_SEED = 2**63 - 2


def run_trial(config: ScenarioConfig, algorithm: str, trial_seed: int) -> ScheduleResult:
    """One seeded scheduling trial, genie-evaluated with true channels.

    Identical (config, algorithm, trial_seed) invocations reproduce the
    result exactly; wall_ms is diagnostic and times the scheduler call
    alone. A two-stage scheduler is handed the last map-driven trial's
    table when it was made on the same scenario key and seed, and reuses
    its users and channel rows, placing no users and synthesizing only the
    rows still missing; it reuses the table's fusion when that was made on
    the same map (config's threshold for robust_*, all grids reliable for
    two_stage_*), and its own decision on that fusion when kprime, kbar and
    alpha match too. wall_ms then leaves that work out, so over the points
    of a sweep that share them, the per-seed cost is the first point's
    wall_ms. The group is evaluated on this trial's channels at this
    config's noise power either way. The other schedulers place users and
    synthesize channels anew on every call.
    """
    global _map_trial
    if algorithm not in _SCHEDULERS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if isinstance(trial_seed, bool) or not isinstance(trial_seed, (int, np.integer)):
        raise ValueError(f"trial_seed must be an integer, got {trial_seed!r}")
    if not 0 <= trial_seed <= MAX_TRIAL_SEED:
        raise ValueError(f"trial_seed must lie in [0, {MAX_TRIAL_SEED}]")
    schedule = _SCHEDULERS[algorithm]
    scenario = cached_scenario(config)
    noise = calibrate_noise(scenario, config.target_snr_db)

    def place() -> ChannelSet:
        return trial_channels(scenario, place_users(scenario, trial_seed),
                              int(trial_seed) + 1)

    key = (_scenario_key(config), int(trial_seed)) if algorithm in MAP_ALGORITHMS else None
    if key is None:
        chans = place()
    elif _map_trial is not None and _map_trial[0] == key:
        chans = _map_trial[1]
    else:
        # Release the old table, with its fusion and decisions, before
        # placing the new one, so that no two are ever held at once.
        _map_trial = None
        chans = place()
        _map_trial = key, chans

    t0 = time.perf_counter()
    group, counters, evaluation = schedule(config, trial_seed, chans, noise)
    wall_ms = (time.perf_counter() - t0) * 1e3

    validate_group(group, chans, config.kbar)
    # evaluate_group is order-canonical, so the evaluation greedy and brute
    # force hand back equals a fresh one.
    rate, gammas = evaluation or evaluate_group(group, chans, noise)
    eta = config.eta
    if eta is None and counters is not None:
        # Only map-driven schedulers report counters; overheads are modeled at
        # the reliable share of the map they fused on (two_stage_*: not config's).
        eta = cached_ckm(config, schedule.threshold).realized_eta()
    closed = overhead_counts(OverheadModel(
        algorithm=algorithm,
        n_cells=config.n_cells,
        users_per_cell=config.users_per_cell,
        kbar=config.kbar,
        kprime=config.kprime,
        n_antennas=config.n_antennas,
        eta=eta,
    ))
    if counters is None:
        counters = closed
    return ScheduleResult(
        algorithm=algorithm,
        sum_rate=float(rate),
        per_user_sinr=gammas,
        csi_acquisitions=int(counters["csi_acquisitions"]),
        info_exchange=int(counters["info_exchange"]),
        multiplication_estimate=int(closed["mults"]),
        group=group,
        wall_ms=wall_ms,
    )
