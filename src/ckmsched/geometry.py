"""Multi-cell scenario geometry and the clustered geometric channel model.

A scenario is a set of base stations with dual-polarized uniform planar
arrays, a square-grid partition of the joint coverage area, a field of
static scatterer clusters (deterministic per seed, so channels are
spatially consistent), and optional dynamic clusters that add seeded
per-realization jitter inside the grids they are attached to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, get_args, get_type_hints

import numpy as np

from .errors import ConfigError, GeometryError, OutOfClusterError, ZeroNormError

SPEED_OF_LIGHT = 299792458.0

# Seed-stream tags so every random ingredient draws from its own
# SeedSequence and stays independent of the others.
_TAG_STATIC = 11
_TAG_DYNAMIC_PICK = 13
_TAG_DYNAMIC_PLACE = 17
_TAG_JITTER = 19
_TAG_SHADOW = 23
_TAG_SAMPLES = 29


class Position(NamedTuple):
    x: float
    y: float


class GridIndex(NamedTuple):
    """A coverage grid: serving cell plus cluster-wide grid id."""

    cell: int
    g: int


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
    fc_hz: float = 6.7e9
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
    path_loss_offset_db: float | None = None
    shadowing_std_db: float = 4.0
    static_clusters_per_cell: int = 12
    dynamic_clusters_per_grid: int = 2
    dynamic_gain: float = 0.35
    dynamic_jitter_scale: float = 1.0
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
        if self.fc_hz <= 0 or self.cell_radius_m <= 0:
            raise ConfigError("fc_hz and cell_radius_m must be positive")
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
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.fc_hz

    @property
    def isd_m(self) -> float:
        if self.inter_site_distance_m is not None:
            return self.inter_site_distance_m
        return math.sqrt(3.0) * self.cell_radius_m


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
    static_delays: np.ndarray      # (C,) seconds, cluster to its home BS
    dynamic_grid_ids: np.ndarray   # (A,) sorted grid ids
    dynamic_positions: np.ndarray  # (A, D, 2)
    dynamic_gains: np.ndarray      # (A, D, 2) complex
    jitter_scale: float
    affected_grids: frozenset = field(default_factory=frozenset)


def _seeded(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, tags)]))


def array_response(
    n_h: int,
    n_v: int,
    azimuth,
    elevation,
    polarization: int,
    wavelength: float,
) -> np.ndarray:
    """Steering vectors of a dual-polarized n_h x n_v planar array with
    elements half a wavelength apart.

    azimuth and elevation are scalars or arrays of one broadcast shape B;
    the result has shape B + (2*n_h*n_v,). Each vector is unit-norm and its
    active half is the block of the requested polarization. Boresight
    (azimuth=elevation=0) gives co-phased entries.
    """
    if polarization not in (0, 1):
        raise ValueError("polarization must be 0 or 1")
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    az, el = np.broadcast_arrays(np.asarray(azimuth, dtype=float),
                                 np.asarray(elevation, dtype=float))
    k = 2.0 * math.pi * (0.5 * wavelength) / wavelength
    ph = k * np.arange(n_h) * np.sin(az)[..., None] * np.cos(el)[..., None]
    pv = k * np.arange(n_v) * np.sin(el)[..., None]
    size = n_h * n_v
    block = np.exp(1j * (ph[..., :, None] + pv[..., None, :])).reshape(
        az.shape + (size,)
    ) / math.sqrt(size)
    out = np.zeros(az.shape + (2 * size,), dtype=np.complex128)
    out[..., polarization * size : (polarization + 1) * size] = block
    return out


def path_loss_db(
    distance_3d,
    fc: float,
    exponent: float = 3.0,
    offset_db: float | None = None,
):
    """Single-slope log-distance path loss in dB of a scalar or an array
    of 3-D distances (a float or an array of the same shape).

    offset_db defaults to the free-space loss at 1 m for the given carrier.
    Each logarithm is a scalar math.log10, which is not always
    bit-identical to np.log10.
    """
    d = np.asarray(distance_3d, dtype=float)
    if not np.all(d > 0):
        raise ValueError("distance_3d must be positive")
    if fc <= 0:
        raise ValueError("fc must be positive")
    if offset_db is None:
        offset_db = 20.0 * math.log10(4.0 * math.pi * fc / SPEED_OF_LIGHT)
    logs = np.fromiter(map(math.log10, d.ravel().tolist()), float, d.size)
    pl = offset_db + 10.0 * exponent * logs.reshape(d.shape)
    return pl if d.ndim else float(pl)


class Scenario:
    """Immutable output of build_scenario; all arrays are precomputed."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.n_antennas = config.n_antennas
        self.wavelength = config.wavelength_m
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
        home = np.repeat(np.arange(cfg.n_cells), cfg.static_clusters_per_cell)
        static_delays = (
            np.hypot(
                static_positions[:, 0] - self.bs_xy[home, 0],
                static_positions[:, 1] - self.bs_xy[home, 1],
            )
            / SPEED_OF_LIGHT
        )

        n_dyn = int(round(cfg.dynamic_grid_fraction * self.n_grids))
        pick = _seeded(cfg.rng_seed, _TAG_DYNAMIC_PICK)
        dyn_ids = np.sort(pick.choice(self.n_grids, size=n_dyn, replace=False))
        d = cfg.dynamic_clusters_per_grid
        dyn_pos = np.zeros((n_dyn, d, 2))
        dyn_gain = np.zeros((n_dyn, d, 2), dtype=np.complex128)
        for a, gid in enumerate(dyn_ids):
            grng = _seeded(cfg.rng_seed, _TAG_DYNAMIC_PLACE, int(gid))
            offs = (grng.random((d, 2)) - 0.5) * cfg.grid_edge_m
            dyn_pos[a] = self.grid_centers[gid] + offs
            dyn_gain[a] = (
                cfg.dynamic_gain
                * (grng.standard_normal((d, 2)) + 1j * grng.standard_normal((d, 2)))
                / math.sqrt(2.0)
            )
        self.scatterers = ScattererField(
            static_positions=static_positions,
            static_gains=static_gains,
            static_delays=static_delays,
            dynamic_grid_ids=dyn_ids,
            dynamic_positions=dyn_pos,
            dynamic_gains=dyn_gain,
            jitter_scale=cfg.dynamic_jitter_scale,
            affected_grids=frozenset(int(g) for g in dyn_ids),
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
        a0 = array_response(cfg.n_h, cfg.n_v, ang[..., 0], ang[..., 1], 0, self.wavelength)
        a1 = array_response(cfg.n_h, cfg.n_v, ang[..., 0], ang[..., 1], 1, self.wavelength)
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

    def locate(self, position) -> GridIndex:
        """Map a position to its grid (half-open square convention)."""
        g = int(self.locate_many([position[0], position[1]])[0])
        return GridIndex(cell=int(self.grid_serving[g]), g=g)

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
                        int(g in self.scatterers.affected_grids),
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


def _jitter(scenario: Scenario, gid: int, realization: int) -> np.ndarray:
    """Complex jitter for the dynamic clusters of a grid at a nonzero
    realization (realization 0 is the jitter-free reference state)."""
    d = scenario.config.dynamic_clusters_per_grid
    rng = _seeded(scenario.config.rng_seed, _TAG_JITTER, int(gid), int(realization))
    z = (rng.standard_normal(d) + 1j * rng.standard_normal(d)) / math.sqrt(2.0)
    return scenario.scatterers.jitter_scale * z


def _row_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a 2-D a, each row equal byte for byte to the same row in a
    larger batch: numpy hands a one-row product to gemv, whose last bits can
    differ from gemm's, so one row is computed as a doubled pair."""
    if len(a) == 1:
        return (a[[0, 0]] @ b)[:1]
    return a @ b


def channel_rows(
    scenario: Scenario,
    observing_bs,
    positions: np.ndarray,
    realizations: np.ndarray,
) -> np.ndarray:
    """Channels from a batch of positions, one row per position.

    observing_bs is one BS id, giving an (n, N) array, or a sequence of
    BS ids, giving (len(observing_bs), n, N). The small-scale direction
    is the attenuation/phase-weighted sum over static clusters (plus
    jittered dynamic clusters when the position's grid is dynamic and the
    realization is nonzero); the row norm equals the path-loss plus
    shadowing amplitude exactly. The jitter of a (grid, realization) pair
    is drawn once and shared by every requested BS.
    """
    cfg = scenario.config
    bss = np.atleast_1d(np.asarray(observing_bs, dtype=np.int64))
    for l in bss:
        if not (0 <= l < cfg.n_cells):
            raise ValueError(f"observing_bs {l} out of range")
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    real = np.broadcast_to(np.asarray(realizations, dtype=np.int64), (pos.shape[0],))
    gids = scenario.locate_many(pos)

    bs = scenario.bs_xy[bss]
    d2 = np.hypot(pos[None, :, 0] - bs[:, 0, None], pos[None, :, 1] - bs[:, 1, None])
    d3 = np.hypot(d2, cfg.bs_height_m - cfg.user_height_m)
    pl = path_loss_db(d3, cfg.fc_hz, cfg.path_loss_exponent, cfg.path_loss_offset_db)
    amp = 10.0 ** (-(pl + scenario.shadow_db[bss[:, None], gids]) / 20.0)

    sp = scenario.scatterers.static_positions
    duc = np.hypot(pos[:, 0, None] - sp[None, :, 0], pos[:, 1, None] - sp[None, :, 1])
    w = np.exp(2j * math.pi * duc / cfg.phase_length_m) / (
        1.0 + duc / cfg.scatter_range_m
    ) ** cfg.scatter_falloff
    v = np.stack([_row_product(w, scenario.static_mix[l]) for l in bss])

    rows = scenario._dyn_row[gids]
    hit = np.flatnonzero((rows >= 0) & (real != 0))
    if hit.size:
        pairs = list(zip(gids[hit].tolist(), real[hit].tolist()))
        drawn = {pair: _jitter(scenario, *pair) for pair in set(pairs)}
        zeta = np.array([drawn[pair] for pair in pairs])             # (m, D)
        a = rows[hit]
        dp = scenario.scatterers.dynamic_positions[a]                # (m, D, 2)
        dud = np.hypot(pos[hit, 0, None] - dp[:, :, 0], pos[hit, 1, None] - dp[:, :, 1])
        dw = (
            np.exp(2j * math.pi * dud / cfg.phase_length_m)
            / (1.0 + dud / cfg.scatter_range_m) ** cfg.scatter_falloff
            * zeta
        )[:, None, :]                                                # (m, 1, D)
        for j, l in enumerate(bss):
            v[j, hit] += (dw @ scenario.dyn_mix[l, a])[:, 0]

    norms = np.linalg.norm(v, axis=-1)
    if np.any(norms < 1e-250):
        raise ZeroNormError("degenerate small-scale channel (zero cluster sum)")
    v *= (amp / norms)[..., None]  # in place: a map survey's v is ~20 MB
    return v[0] if np.ndim(observing_bs) == 0 else v


def sample_grid(scenario: Scenario, observing_bs, grids,
                s: int) -> tuple[np.ndarray, np.ndarray]:
    """The map survey of grids: s sampled channels inside each grid plus the
    grid-center channel, from one channel_rows call.

    observing_bs is one BS id or a sequence, as in channel_rows; grids is one
    grid id or an array, as in grid_sample_positions. Returns samples
    (..., s, N) and centers (..., N), the leading axes being the BSs (for a
    sequence) then the shape of grids. Sample i is synthesized at realization
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
    rows = channel_rows(scenario, observing_bs, pos.reshape(-1, 2), reals)
    rows = rows.reshape(rows.shape[:-2] + g.shape + (s + 1, scenario.n_antennas))
    return rows[..., :s, :], rows[..., s, :]
