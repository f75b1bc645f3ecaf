"""Multi-cell scenario geometry and the clustered geometric channel model.

A scenario is a set of base stations with dual-polarized uniform planar
arrays, a square-grid partition of the joint coverage area, a field of
static scatterer clusters (deterministic per seed, so channels are
spatially consistent), and optional dynamic clusters that add seeded
per-realization jitter inside the grids they are attached to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import get_args, get_type_hints

import numpy as np

from .errors import ConfigError, GeometryError, OutOfClusterError, ZeroNormError

SPEED_OF_LIGHT = 299792458.0
# Carrier frequency. It enters only the free-space loss at 1 m, a factor
# common to every channel, which the target-SNR noise calibration divides
# out of every SINR; so it is a constant and not a config field.
FC_HZ = 6.7e9
# Free-space loss at 1 m for that carrier, in dB: path_loss_db's anchor.
_LOSS_1M_DB = 20.0 * math.log10(4.0 * math.pi * FC_HZ / SPEED_OF_LIGHT)

# Seed-stream tags, one per random ingredient of the scenario and of a
# trial, so each draws from its own SeedSequence (_seeded) and stays
# independent of the others.
_TAG_STATIC = 11
_TAG_DYNAMIC_PICK = 13
_TAG_DYNAMIC_PLACE = 17
_TAG_JITTER = 19
_TAG_SHADOW = 23
_TAG_SAMPLES = 29
_TAG_USERS = 31
_TAG_RANDOM_GROUP = 37
_TAG_RANDOM_PICK = 41


@lru_cache(maxsize=16)
def _halton_prefix(count: int) -> np.ndarray:
    """First `count` points of the unscrambled 2-D Halton sequence (bases 2
    and 3, starting at the origin), as a read-only (count, 2) array.

    Digits are summed in the same order as scipy.stats.qmc.Halton(d=2,
    scramble=False), so the points are bit-identical to it.
    """
    pts = np.zeros((count, 2))
    for col, base in enumerate((2, 3)):
        index = np.arange(count)
        scale = 1.0 / base
        while index.any():
            pts[:, col] += (index % base) * scale
            scale /= base
            index //= base
    pts.flags.writeable = False
    return pts


def check_thresholds(delta: float | None, eta: float | None) -> None:
    """Raise ConfigError unless delta >= 0, 0 <= eta <= 1 and at most one of
    the two reliability thresholds is set (None means unset)."""
    if delta is not None and delta < 0.0:
        raise ConfigError("delta must be >= 0")
    if eta is not None and not (0.0 <= eta <= 1.0):
        raise ConfigError("eta must lie in [0, 1]")
    if delta is not None and eta is not None:
        raise ConfigError("set at most one of delta / eta")


@dataclass(frozen=True)
class ScenarioConfig:
    """Scenario parameters. Defaults follow the reference three-cell setup.

    kbar is the number of users scheduled per cell, kprime the active-set
    size produced by the first selection stage, alpha the correlation
    threshold used by that stage. delta is an absolute reliability
    threshold on the per-grid correlation variance; eta instead derives
    delta as a quantile so that roughly that fraction of (BS, grid)
    entries is classified reliable. Set at most one of delta / eta.
    """

    n_cells: int = 3
    users_per_cell: int = 50
    kbar: int = 10
    kprime: int = 20
    n_h: int = 4
    n_v: int = 4
    bs_height_m: float = 25.0
    user_height_m: float = 1.5
    cell_radius_m: float = 250.0
    grid_edge_m: float = 25.0
    samples_per_grid: int = 9
    alpha: float = 0.5
    delta: float | None = None
    eta: float | None = None
    target_snr_db: float = 20.0
    dynamic_grid_fraction: float = 0.0
    rng_seed: int = 0
    # Propagation / scatterer model knobs.
    inter_site_distance_m: float | None = None
    path_loss_exponent: float = 3.0
    shadowing_std_db: float = 4.0
    static_clusters_per_cell: int = 12
    dynamic_clusters_per_grid: int = 2
    dynamic_gain: float = 0.35
    phase_length_m: float = 60.0
    scatter_range_m: float = 80.0
    scatter_falloff: float = 2.0
    placement: str = "uniform"
    hotspots_per_cell: int = 2

    def __post_init__(self):
        # Rejected, not coerced: scenario_hash is sha256(repr(config)).
        for name in sorted(INT_FIELDS):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in sorted(FLOAT_FIELDS):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.n_cells < 1:
            raise ConfigError("n_cells must be >= 1")
        if not (1 <= self.kbar <= self.kprime <= self.users_per_cell):
            raise ConfigError(
                "need 1 <= kbar <= kprime <= users_per_cell, got "
                f"kbar={self.kbar} kprime={self.kprime} K={self.users_per_cell}"
            )
        if self.n_h < 1 or self.n_v < 1:
            raise ConfigError("array dimensions must be >= 1")
        if self.n_cells * self.kbar > self.n_antennas:
            raise ConfigError(
                f"n_cells*kbar = {self.n_cells * self.kbar} exceeds the "
                f"{self.n_antennas} receive antennas"
            )
        if self.grid_edge_m <= 0:
            raise ConfigError("grid_edge_m must be positive")
        if self.grid_edge_m > 2.0 * self.cell_radius_m:
            raise ConfigError("grid_edge_m exceeds the cell diameter")
        if self.samples_per_grid < 1:
            raise ConfigError("samples_per_grid must be >= 1")
        if not (0.0 < self.alpha <= 1.0):
            raise ConfigError("alpha must lie in (0, 1]")
        check_thresholds(self.delta, self.eta)
        if not (0.0 <= self.dynamic_grid_fraction <= 1.0):
            raise ConfigError("dynamic_grid_fraction must lie in [0, 1]")
        if self.cell_radius_m <= 0:
            raise ConfigError("cell_radius_m must be positive")
        if self.bs_height_m <= 0 or self.user_height_m <= 0:
            raise ConfigError("antenna heights must be positive")
        if self.rng_seed < 0:
            raise ConfigError("rng_seed must be a non-negative integer")
        if self.placement not in ("uniform", "clustered"):
            raise ConfigError(f"unknown placement mode {self.placement!r}")
        if self.static_clusters_per_cell < 1:
            raise ConfigError("static_clusters_per_cell must be >= 1")
        if self.dynamic_clusters_per_grid < 1:
            raise ConfigError("dynamic_clusters_per_grid must be >= 1")
        if self.phase_length_m <= 0 or self.scatter_range_m <= 0:
            raise ConfigError("phase_length_m and scatter_range_m must be positive")
        if self.scatter_falloff <= 0:
            raise ConfigError("scatter_falloff must be positive")
        if self.hotspots_per_cell < 1:
            raise ConfigError("hotspots_per_cell must be >= 1")
        if self.shadowing_std_db < 0:
            raise ConfigError("shadowing_std_db must be >= 0")
        if self.inter_site_distance_m is not None and self.inter_site_distance_m <= 0:
            raise ConfigError("inter_site_distance_m must be positive")

    @property
    def n_antennas(self) -> int:
        return 2 * self.n_h * self.n_v

    @property
    def isd_m(self) -> float:
        if self.inter_site_distance_m is not None:
            return self.inter_site_distance_m
        return math.sqrt(3.0) * self.cell_radius_m


def scenario_key(config: ScenarioConfig) -> ScenarioConfig:
    """config with the fields that only the schedulers, the noise
    calibration, the reliability threshold and the map survey read reset to
    fixed valid values. Scenario, place_users and a trial's channel rows
    read none of them, so configs of one key share one scenario."""
    return replace(config, target_snr_db=0.0, kbar=1, kprime=1, alpha=1.0,
                   delta=None, eta=None, samples_per_grid=1)


def survey_key(config: ScenarioConfig, samples_per_grid: int | None = None) -> ScenarioConfig:
    """scenario_key(config) at samples_per_grid, by default config's: all the
    map survey reads, so configs of one survey key share one survey."""
    s = config.samples_per_grid if samples_per_grid is None else samples_per_grid
    return replace(scenario_key(config), samples_per_grid=s)


# Each field's type is stated once, in ScenarioConfig's annotations.
CONFIG_HINTS = get_type_hints(ScenarioConfig)
INT_FIELDS = frozenset(name for name, kind in CONFIG_HINTS.items() if kind is int)
FLOAT_FIELDS = frozenset(
    name for name, kind in CONFIG_HINTS.items() if float in (kind, *get_args(kind))
)


@dataclass
class ScattererField:
    """Static clusters plus per-grid dynamic clusters."""

    static_positions: np.ndarray   # (C, 2)
    static_gains: np.ndarray       # (C, 2) complex, one column per polarization
    dynamic_grid_ids: np.ndarray   # (A,) sorted grid ids
    dynamic_positions: np.ndarray  # (A, D, 2)
    dynamic_gains: np.ndarray      # (A, D, 2) complex


def _seeded(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, tags)]))


# numpy.random.SeedSequence's entropy hash (numpy/random/bit_generator.pyx),
# which NumPy's stream-compatibility policy (NEP 19) keeps fixed. _seed_words
# runs it over a whole batch of keys as a few uint32 array operations in
# place of one Python-level SeedSequence per key; uint32 arrays wrap
# silently where uint32 scalars would warn.
_MASK32 = 0xFFFFFFFF
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """(count, 1) uint32: init * mult**i mod 2**32, the running multiplier of
    one SeedSequence hash after i steps."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


# The pool hash takes 4 steps to fill the 4-word pool and 12 to mix it.
_POOL_CONST = _hash_constants(0x43B0D7E5, 0x931E8875, 17)
# Mixing round src takes one step for each other pool word, in order. The
# rows below hold every pool word's step; row src's is a placeholder whose
# result the round discards.
_ROUND_STEPS = [np.array([4 + 3 * src + d - (d >= src) for d in range(4)]) for src in range(4)]
_ROUND_CONST = [(_POOL_CONST[s], _POOL_CONST[s + 1]) for s in _ROUND_STEPS]
# generate_state(4, np.uint64) hashes 8 words, cycling over the pool, with
# a second multiplier.
_OUT_CONST = _hash_constants(0x8B51F9DD, 0x58F38DED, 9)
_OUT_WORDS = np.tile(np.arange(4), 2)


def _hashmix(value, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    out = (value ^ xor) * mul
    return out ^ (out >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_L - y * _MIX_R
    return out ^ (out >> _SHIFT)


def _seed_words(seed: int, tag: int, keys) -> np.ndarray:
    """(m, 4) uint64: SeedSequence([seed, tag, *keys[i]]).generate_state(4,
    np.uint64) for every row of keys, an (m, k) array of non-negative
    integers below 2**63 (an (m,) array is m one-integer keys).

    When seed, tag and every key are one 32-bit word each and there are at
    most 4 of them, the entropy fits the pool, and SeedSequence hashes a
    zero word for each missing one; such rows are hashed as one batch when
    there are more than two of them. Every other row is seeded by
    SeedSequence itself, which is the cheaper of the two for one or two
    rows (the batch hash is ~30 small array operations whatever m is)."""
    seed, tag = int(seed), int(tag)
    keys = np.asarray(keys, dtype=np.int64)
    if keys.ndim == 1:
        keys = keys[:, None]
    if seed < 0 or tag < 0 or (keys < 0).any():
        raise ValueError("seed keys must be non-negative")
    m, k = keys.shape
    if seed <= _MASK32 and tag <= _MASK32 and k <= 2 and m > 2:
        # Keys above 32 bits wrap in this cast; their rows are redone below.
        words = np.zeros((4, m), dtype=np.uint32)
        words[0], words[1], words[2:2 + k] = seed, tag, keys.T
        pool = _hashmix(words, _POOL_CONST[:4], _POOL_CONST[1:5])
        for src, (xor, mul) in enumerate(_ROUND_CONST):
            mixed = _mix(pool, _hashmix(pool[src], xor, mul))
            mixed[src] = pool[src]
            pool = mixed
        out = _hashmix(pool[_OUT_WORDS], _OUT_CONST[:8], _OUT_CONST[1:])  # (8, m)
        # Consecutive little-endian word pairs are the uint64 state words.
        out = np.ascontiguousarray(out.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)
        wide = np.flatnonzero((keys > _MASK32).any(axis=1))
    else:
        out = np.empty((m, 4), dtype=np.uint64)
        wide = range(m)
    for i in wide:
        entropy = np.random.SeedSequence([seed, tag, *keys[i].tolist()])
        out[i] = entropy.generate_state(4, np.uint64)
    return out


class _StateWords(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands a bit generator precomputed
    generate_state(4, np.uint64) words; PCG64 asks for exactly those."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("only the 4 uint64 words of PCG64 are precomputed")
        return self.words


def _streams(seed: int, tag: int, keys):
    """One Generator per row of keys (as in _seed_words) that draws exactly
    what _seeded(seed, tag, *row) draws: PCG64 seeds itself from the row's
    precomputed words."""
    for words in _seed_words(seed, tag, keys):
        yield np.random.Generator(np.random.PCG64(_StateWords(words)))


def array_response(n_h: int, n_v: int, azimuth, elevation, polarization: int) -> np.ndarray:
    """Steering vectors of a dual-polarized n_h x n_v planar array with
    elements half a wavelength apart.

    azimuth and elevation are scalars or arrays of one broadcast shape B;
    the result has shape B + (2*n_h*n_v,). Each vector is unit-norm and its
    active half is the block of the requested polarization. Boresight
    (azimuth=elevation=0) gives co-phased entries.
    """
    if polarization not in (0, 1):
        raise ValueError("polarization must be 0 or 1")
    az, el = np.broadcast_arrays(np.asarray(azimuth, dtype=float),
                                 np.asarray(elevation, dtype=float))
    # The phase step 2*pi*spacing/wavelength is pi at half-wavelength spacing.
    ph = math.pi * np.arange(n_h) * np.sin(az)[..., None] * np.cos(el)[..., None]
    pv = math.pi * np.arange(n_v) * np.sin(el)[..., None]
    size = n_h * n_v
    block = np.exp(1j * (ph[..., :, None] + pv[..., None, :])).reshape(
        az.shape + (size,)
    ) / math.sqrt(size)
    out = np.zeros(az.shape + (2 * size,), dtype=np.complex128)
    out[..., polarization * size : (polarization + 1) * size] = block
    return out


def path_loss_db(distance_3d, exponent: float = 3.0):
    """Single-slope log-distance path loss in dB of a scalar or an array
    of 3-D distances (a float or an array of the same shape), anchored at
    the free-space loss at 1 m for the carrier FC_HZ. Each logarithm is a
    scalar math.log10, which is not always bit-identical to np.log10.
    """
    d = np.asarray(distance_3d, dtype=float)
    if not np.all(d > 0):
        raise ValueError("distance_3d must be positive")
    logs = np.fromiter(map(math.log10, d.ravel().tolist()), float, d.size)
    pl = _LOSS_1M_DB + 10.0 * exponent * logs.reshape(d.shape)
    return pl if d.ndim else float(pl)


class Scenario:
    """Immutable output of build_scenario; all arrays are precomputed."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.n_antennas = config.n_antennas
        self.bs_xy = _bs_layout(config)
        self._build_grids()
        self._build_scatterers()
        rng = _seeded(config.rng_seed, _TAG_SHADOW)
        self.shadow_db = rng.normal(
            0.0, config.shadowing_std_db, size=(config.n_cells, self.n_grids)
        )
        rng = _seeded(config.rng_seed, _TAG_SAMPLES)
        self.halton_shift = rng.random(size=(self.n_grids, 2))
        self._freeze()

    # -- construction -------------------------------------------------

    def _build_grids(self):
        cfg = self.config
        edge = cfg.grid_edge_m
        radius = cfg.cell_radius_m
        x0 = float(self.bs_xy[:, 0].min() - radius)
        y0 = float(self.bs_xy[:, 1].min() - radius)
        x1 = float(self.bs_xy[:, 0].max() + radius)
        y1 = float(self.bs_xy[:, 1].max() + radius)
        n_ix = max(1, math.ceil((x1 - x0) / edge - 1e-9))
        n_iy = max(1, math.ceil((y1 - y0) / edge - 1e-9))
        cx = x0 + (np.arange(n_ix) + 0.5) * edge
        cy = y0 + (np.arange(n_iy) + 0.5) * edge
        # d[l, iy, ix] is BS l's distance to the center of lattice square (ix, iy).
        bx, by = self.bs_xy[:, 0, None, None], self.bs_xy[:, 1, None, None]
        d = np.hypot(bx - cx, by - cy[:, None])
        best = np.argmin(d, axis=0)  # argmin keeps the lowest BS id on ties
        iy, ix = np.nonzero(d.min(axis=0) <= radius + 1e-9)
        # lattice[iy, ix] is the grid id of lattice square (ix, iy), -1 outside;
        # grid ids run in row-major lattice order.
        lattice = np.full((n_iy, n_ix), -1, dtype=np.int64)
        lattice[iy, ix] = np.arange(len(iy))
        centers = np.stack([cx[ix], cy[iy]], axis=1)
        if not len(iy):
            raise GeometryError("no grid center falls inside any cell")
        self.origin = np.array([x0, y0])
        self.grid_centers = centers
        self.grid_serving = best[iy, ix]
        self.n_grids = len(centers)
        self._lattice = lattice
        self.grids_of_cell = [
            np.flatnonzero(self.grid_serving == l) for l in range(cfg.n_cells)
        ]
        for l, grids in enumerate(self.grids_of_cell):
            if len(grids) < cfg.users_per_cell:
                raise GeometryError(
                    f"cell {l} has {len(grids)} grids, fewer than "
                    f"users_per_cell={cfg.users_per_cell}; shrink grid_edge_m"
                )

    def _build_scatterers(self):
        cfg = self.config
        rng = _seeded(cfg.rng_seed, _TAG_STATIC)
        pos = []
        for l in range(cfg.n_cells):
            # Uniform over the cell disc, keeping clusters off the mast.
            r = cfg.cell_radius_m * np.sqrt(
                rng.uniform(0.01, 1.0, cfg.static_clusters_per_cell)
            )
            th = rng.uniform(0.0, 2.0 * math.pi, cfg.static_clusters_per_cell)
            pos.append(self.bs_xy[l] + np.stack([r * np.cos(th), r * np.sin(th)], axis=1))
        static_positions = np.concatenate(pos, axis=0)
        n_static = static_positions.shape[0]
        static_gains = (
            rng.standard_normal((n_static, 2)) + 1j * rng.standard_normal((n_static, 2))
        ) / math.sqrt(2.0)

        n_dyn = int(round(cfg.dynamic_grid_fraction * self.n_grids))
        pick = _seeded(cfg.rng_seed, _TAG_DYNAMIC_PICK)
        dyn_ids = np.sort(pick.choice(self.n_grids, size=n_dyn, replace=False))
        d = cfg.dynamic_clusters_per_grid
        # Each dynamic grid's own stream draws its (d, 2) offsets, then the
        # real and the imaginary (d, 2) gain parts.
        u = np.empty((n_dyn, d, 2))
        z = np.empty((n_dyn, 2, d, 2))
        for a, grng in enumerate(_streams(cfg.rng_seed, _TAG_DYNAMIC_PLACE, dyn_ids)):
            grng.random(out=u[a])
            grng.standard_normal(out=z[a])
        dyn_pos = self.grid_centers[dyn_ids][:, None, :] + (u - 0.5) * cfg.grid_edge_m
        dyn_gain = cfg.dynamic_gain * (z[:, 0] + 1j * z[:, 1]) / math.sqrt(2.0)
        self.scatterers = ScattererField(
            static_positions=static_positions,
            static_gains=static_gains,
            dynamic_grid_ids=dyn_ids,
            dynamic_positions=dyn_pos,
            dynamic_gains=dyn_gain,
        )
        # _dyn_row[g] is grid g's row in the dynamic-cluster arrays, -1 if static.
        self._dyn_row = np.full(self.n_grids, -1, dtype=np.int64)
        self._dyn_row[dyn_ids] = np.arange(n_dyn)
        # Per-BS mixed steering rows: row c of static_mix[l] is the
        # polarization-weighted array response toward static cluster c,
        # dyn_mix[l, a] the rows toward the clusters of dynamic row a.
        L, N = cfg.n_cells, self.n_antennas
        mix = self._mix_rows(
            np.concatenate([static_positions, dyn_pos.reshape(-1, 2)]),
            np.concatenate([static_gains, dyn_gain.reshape(-1, 2)]),
        )
        self.static_mix = np.ascontiguousarray(mix[:, :n_static])
        self.dyn_mix = np.ascontiguousarray(mix[:, n_static:]).reshape(L, n_dyn, d, N)

    def _mix_rows(self, positions: np.ndarray, gains: np.ndarray) -> np.ndarray:
        """(L, C, N): gain-weighted dual-polarized steering rows from every BS
        toward each of C clusters. Angles go through math.atan2 and
        math.hypot, which np.arctan2 and np.hypot do not always match bit
        for bit."""
        cfg = self.config
        dh = cfg.user_height_m - cfg.bs_height_m
        angles = [
            (math.atan2(y - by, x - bx), math.atan2(dh, max(math.hypot(x - bx, y - by), 1e-6)))
            for bx, by in self.bs_xy.tolist()
            for x, y in positions.tolist()
        ]
        ang = np.array(angles).reshape(cfg.n_cells, len(positions), 2)
        a0 = array_response(cfg.n_h, cfg.n_v, ang[..., 0], ang[..., 1], 0)
        a1 = array_response(cfg.n_h, cfg.n_v, ang[..., 0], ang[..., 1], 1)
        return gains[:, 0, None] * a0 + gains[:, 1, None] * a1

    def _freeze(self):
        for arr in (
            self.bs_xy,
            self.grid_centers,
            self.grid_serving,
            self.shadow_db,
            self.halton_shift,
            self.static_mix,
            self.dyn_mix,
            self._lattice,
            self._dyn_row,
        ):
            arr.setflags(write=False)

    # -- queries ------------------------------------------------------

    def locate(self, position) -> int:
        """Grid id of a position (half-open square convention); its serving
        cell is grid_serving[g]."""
        return int(self.locate_many([position[0], position[1]])[0])

    def locate_many(self, positions) -> np.ndarray:
        """Grid ids of an (n, 2) batch of positions (half-open squares).

        Raises OutOfClusterError for the first position outside the
        cluster (a non-finite coordinate counts as outside).
        """
        pos = np.asarray(positions, dtype=float).reshape(-1, 2)
        idx = np.floor((pos - self.origin) / self.config.grid_edge_m)
        n_iy, n_ix = self._lattice.shape
        inside = ((idx[:, 0] >= 0) & (idx[:, 0] < n_ix)
                  & (idx[:, 1] >= 0) & (idx[:, 1] < n_iy))
        gids = np.full(len(pos), -1, dtype=np.int64)
        ix, iy = idx[inside].astype(np.int64).T
        gids[inside] = self._lattice[iy, ix]
        bad = np.flatnonzero(gids < 0)
        if bad.size:
            x, y = pos[bad[0]]
            raise OutOfClusterError(f"position ({x:.2f}, {y:.2f}) is outside the cluster")
        return gids

    def grid_sample_positions(self, g, count: int) -> np.ndarray:
        """First `count` low-discrepancy positions inside grid g.

        The layout is a fixed Halton sequence with a per-grid seeded
        toroidal shift, so the S-point set is a prefix of the 2S-point
        set and every point stays strictly inside the grid square. An
        array of grid ids gives one (count, 2) block per grid.
        """
        pts = np.mod(_halton_prefix(count) + self.halton_shift[g][..., None, :], 1.0)
        return self.grid_centers[g][..., None, :] + (pts - 0.5) * self.config.grid_edge_m

    def export_csv(self, path):
        import csv

        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["grid_id", "center_x", "center_y", "serving_bs", "dynamic"])
            for g in range(self.n_grids):
                w.writerow(
                    [
                        g,
                        f"{self.grid_centers[g, 0]:.6f}",
                        f"{self.grid_centers[g, 1]:.6f}",
                        int(self.grid_serving[g]),
                        int(self._dyn_row[g] >= 0),
                    ]
                )


def _bs_layout(cfg: ScenarioConfig) -> np.ndarray:
    """BS coordinates: origin for L=1, else a ring with adjacent sites
    spaced by the inter-site distance (an equilateral triangle for L=3)."""
    L = cfg.n_cells
    if L == 1:
        return np.zeros((1, 2))
    circum = cfg.isd_m / (2.0 * math.sin(math.pi / L))
    ang = math.pi / 2.0 + 2.0 * math.pi * np.arange(L) / L
    return circum * np.stack([np.cos(ang), np.sin(ang)], axis=1)


def build_scenario(config: ScenarioConfig) -> Scenario:
    """Construct the deterministic scenario for a config (pure in the seed)."""
    return Scenario(config)


def _jitter(scenario: Scenario, pairs) -> np.ndarray:
    """(m, D) unit-variance complex jitter of the dynamic clusters of each
    (grid, nonzero realization) pair of an (m, 2) array (realization 0 is
    the jitter-free reference state); dynamic_gain already scales the
    clusters it multiplies. Each pair draws its real then its imaginary
    parts from its own stream, so its jitter is the same in any batch."""
    d = scenario.config.dynamic_clusters_per_grid
    z = np.empty((len(pairs), 2 * d))
    for row, rng in zip(z, _streams(scenario.config.rng_seed, _TAG_JITTER, pairs)):
        rng.standard_normal(out=row)
    return (z[:, :d] + 1j * z[:, d:]) / math.sqrt(2.0)


def _row_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a 2-D a, each row equal byte for byte to the same row in a
    larger batch: numpy hands a one-row product to gemv, whose last bits can
    differ from gemm's, so one row is computed as a doubled pair."""
    if len(a) == 1:
        return (a[[0, 0]] @ b)[:1]
    return a @ b


def channel_rows(
    scenario: Scenario,
    positions: np.ndarray,
    realizations: np.ndarray,
) -> np.ndarray:
    """Channels from a batch of positions toward every BS: an (L, n, N)
    array, row i of BS l's slice being position i as BS l sees it.

    The small-scale direction is the attenuation/phase-weighted sum over
    static clusters (plus jittered dynamic clusters when the position's
    grid is dynamic and the realization is nonzero); the row norm equals
    the path-loss plus shadowing amplitude exactly. The jitter of a
    (grid, realization) pair is drawn once and shared by every BS.
    """
    cfg = scenario.config
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    real = np.broadcast_to(np.asarray(realizations, dtype=np.int64), (pos.shape[0],))
    gids = scenario.locate_many(pos)

    bs = scenario.bs_xy
    d2 = np.hypot(pos[None, :, 0] - bs[:, 0, None], pos[None, :, 1] - bs[:, 1, None])
    d3 = np.hypot(d2, cfg.bs_height_m - cfg.user_height_m)
    pl = path_loss_db(d3, cfg.path_loss_exponent)
    amp = 10.0 ** (-(pl + scenario.shadow_db[:, gids]) / 20.0)

    sp = scenario.scatterers.static_positions
    duc = np.hypot(pos[:, 0, None] - sp[None, :, 0], pos[:, 1, None] - sp[None, :, 1])
    # exp(2j*pi*duc/L) / (1 + duc/R)**f computed into one complex array: the
    # phase is rounded as numpy's complex multiply by 2j*pi and its division
    # by L + 0j round it (real part 0.0), and the falloff overwrites duc.
    w = np.zeros(duc.shape, dtype=np.complex128)
    np.multiply(duc, 2.0 * math.pi, out=w.imag)
    w.imag *= 1.0 / cfg.phase_length_m
    np.exp(w, out=w)
    duc /= cfg.scatter_range_m
    duc += 1.0
    duc **= cfg.scatter_falloff
    w /= duc
    del duc
    v = np.empty((cfg.n_cells, len(pos), scenario.n_antennas), dtype=np.complex128)
    for vl, mix in zip(v, scenario.static_mix):
        if len(w) == 1:
            vl[:] = _row_product(w, mix)
        else:
            np.matmul(w, mix, out=vl)
    del w

    rows = scenario._dyn_row[gids]
    hit = np.flatnonzero((rows >= 0) & (real != 0))
    if hit.size:
        pairs = list(zip(gids[hit].tolist(), real[hit].tolist()))
        unique = list(set(pairs))
        row_of = {pair: i for i, pair in enumerate(unique)}
        zeta = _jitter(scenario, np.array(unique))[[row_of[p] for p in pairs]]  # (m, D)
        a = rows[hit]
        dp = scenario.scatterers.dynamic_positions[a]                # (m, D, 2)
        dud = np.hypot(pos[hit, 0, None] - dp[:, :, 0], pos[hit, 1, None] - dp[:, :, 1])
        dw = (
            np.exp(2j * math.pi * dud / cfg.phase_length_m)
            / (1.0 + dud / cfg.scatter_range_m) ** cfg.scatter_falloff
            * zeta
        )[:, None, :]                                                # (m, 1, D)
        for vl, mix in zip(v, scenario.dyn_mix):
            vl[hit] += (dw @ mix[a])[:, 0]

    # np.linalg.norm(v, axis=-1), one BS at a time: the square roots of the
    # row sums of (conj(v) * v).real.
    norms = np.empty(v.shape[:2])
    scratch = np.empty(v.shape[1:], dtype=np.complex128)
    for j, vj in enumerate(v):
        np.multiply(np.conjugate(vj, out=scratch), vj, out=scratch)
        np.sqrt(scratch.real.sum(axis=-1), out=norms[j])
    del scratch
    if np.any(norms < 1e-250):
        raise ZeroNormError("degenerate small-scale channel (zero cluster sum)")
    v *= (amp / norms)[..., None]  # in place: a survey block's v is ~4 MB
    return v


def sample_grid(scenario: Scenario, grids, s: int) -> tuple[np.ndarray, np.ndarray]:
    """The map survey of grids from every BS: s sampled channels inside each
    grid plus the grid-center channel, from one channel_rows call.

    grids is one grid id or an array, as in grid_sample_positions. Returns
    samples (L, ..., s, N) and centers (L, ..., N), the axes after the
    first being the shape of grids. Sample i is synthesized at realization
    i+1, so the spread of sample-to-center correlations reflects temporal
    jitter in dynamic grids; the center uses the stable realization 0.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    g = np.asarray(grids, dtype=np.int64)
    bad = g[(g < 0) | (g >= scenario.n_grids)]
    if bad.size:
        raise ValueError(f"grid {int(bad[0])} out of range")
    pts = scenario.grid_sample_positions(g, s)                       # (..., s, 2)
    pos = np.concatenate([pts, scenario.grid_centers[g][..., None, :]], axis=-2)
    reals = np.tile(np.append(np.arange(1, s + 1), 0), g.size)
    rows = channel_rows(scenario, pos.reshape(-1, 2), reals)
    rows = rows.reshape((len(rows),) + g.shape + (s + 1, scenario.n_antennas))
    return rows[..., :s, :], rows[..., s, :]
