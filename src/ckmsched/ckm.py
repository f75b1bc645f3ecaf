"""Grid channel knowledge map: statistical gains, cross-grid statistical
correlations, and per-grid reliability classification.

For every observing BS and every coverage grid the map stores the mean
sampled channel, the mean channel gain and the variance of the
sample-to-center correlations, plus one threshold on that variance. The
reliability flag (variance at or below the threshold) and the cross-grid
correlations (normalized inner products of the mean channels) are computed
from these, not stored.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .errors import ZeroNormError
from .geometry import (Scenario, ScenarioConfig, _row_product, check_thresholds,
                       sample_grid, survey_key)

# Grids per block of the build_ckm survey and of the UsCkm.export_csv
# correlation rows, so their transient arrays do not grow with the grid
# count: a table-scale survey block (3 BSs x 256 grids x 10 points) is
# 3.9 MB of samples, a correlation block (256 x 1279 grids) 5 MB.
GRID_BLOCK = 256

_FORMAT_MAGIC = b"CKMAP"
_FORMAT_VERSION = 3
# Stored arrays in file order, with their dtypes.
_FORMAT_ARRAYS = (
    ("h_bar", np.complex128),
    ("epsilon", np.float64),
    ("sigma", np.float64),
)


def statistical_channel(samples) -> np.ndarray:
    """Mean of the sampled channel vectors: samples (..., S, N) -> (..., N)."""
    rows = np.asarray(samples, dtype=np.complex128)
    if rows.ndim < 2 or rows.shape[-2] < 1:
        raise ValueError("need at least one sample")
    return rows.mean(axis=-2)


def statistical_gain(samples):
    """Mean squared norm of the sampled channel vectors: (..., S, N) -> (...).

    By Jensen's inequality this is never below the squared norm of the
    mean channel.
    """
    rows = np.asarray(samples, dtype=np.complex128)
    if rows.ndim < 2 or rows.shape[-2] < 1:
        raise ValueError("need at least one sample")
    return np.mean(np.sum(np.abs(rows) ** 2, axis=-1), axis=-1)


def statistical_correlation(a, b):
    """Normalized inner-product magnitude |a^H b| / (|a| |b|) in [0, 1] of
    vectors along the last axis, broadcasting over the leading axes.

    The dot products are stacked (1, N) @ (N, 1) matmuls and the norms
    _row_norms: these reach the same BLAS dot kernels as np.vdot and the
    1-D np.linalg.norm, so a stacked call is bit-identical to one call per
    pair (einsum or norm(axis=...) are not).
    """
    va = np.asarray(a, dtype=np.complex128)
    vb = np.asarray(b, dtype=np.complex128)
    na, nb = _row_norms(va), _row_norms(vb)
    if np.any(na == 0.0) or np.any(nb == 0.0):
        raise ZeroNormError("correlation undefined for a zero-norm vector")
    dot = _dots(va, vb)
    return np.minimum(np.hypot(dot.real, dot.imag) / (na * nb), 1.0)[()]


def grid_variance(correlations):
    """Population variance of the sample-to-center correlations along the
    last axis."""
    vals = np.asarray(correlations, dtype=float)
    if vals.ndim < 1 or vals.shape[-1] < 1:
        raise ValueError("need at least one correlation value")
    return np.var(vals, axis=-1)


def reliability_indicator(sigma, delta):
    """1 (uint8) where the correlation variance stays within the threshold."""
    sigma = np.asarray(sigma)
    if np.any(sigma < 0.0):
        raise ValueError("sigma must be >= 0")
    return (sigma <= delta).astype(np.uint8)[()]


def _corr_rows(vectors: np.ndarray, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rows `rows` of the |normalized Gram matrix| of vectors (n, N),
    clipped to [0, 1], with unit self entries: (len(rows), n), written
    into out when it is given.

    The block is one (len(rows), N) @ (N, n) product (_row_product) against
    the same operand the full table uses; on OpenBLAS such row blocks equal
    the rows of the full table byte for byte (tests/test_fast_paths.py
    checks this). Square sub-blocks need not match.
    """
    norms = np.linalg.norm(vectors, axis=1)
    if np.any(norms == 0.0):
        raise ZeroNormError("zero-norm mean channel in correlation table")
    unit = vectors / norms[:, None]
    rows = np.asarray(rows, dtype=np.int64)
    corr = np.abs(_row_product(unit[rows], unit.conj().T), out=out)
    np.minimum(corr, 1.0, out=corr)
    corr[np.arange(len(rows)), rows] = 1.0
    return corr


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row along the last axis, summed as the 1-D
    np.linalg.norm sums it (real and imaginary dot products)."""
    re, im = rows.real[..., None, :], rows.imag[..., None, :]
    sq = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
    return np.sqrt(sq[..., 0, 0])


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^H b along the last axis, broadcasting over the leading axes, as
    stacked (1, N) @ (N, 1) matmuls (bit-identical to one np.vdot each)."""
    return np.matmul(a.conj()[..., None, :], b[..., :, None])[..., 0, 0]


class UsCkm:
    """Channel knowledge map over a scenario's grid partition, identified
    by the scenario_hash of the config it was surveyed under. Its
    reliability flag is derived from sigma and delta, so it always agrees
    with them."""

    def __init__(self, scenario_hash, s, delta, h_bar, epsilon, sigma):
        self.scenario_hash = scenario_hash
        self.samples_per_grid = int(s)
        self.delta = float(delta)
        self.h_bar = h_bar        # (L, G, N) complex
        self.epsilon = epsilon    # (L, G)
        self.sigma = sigma        # (L, G)
        self.reliable = reliability_indicator(sigma, self.delta)  # (L, G) uint8
        for arr in (h_bar, epsilon, sigma, self.reliable):
            arr.setflags(write=False)

    @property
    def n_grids(self) -> int:
        return self.h_bar.shape[1]

    @property
    def n_cells(self) -> int:
        return self.h_bar.shape[0]

    def realized_eta(self) -> float:
        """Fraction of (BS, grid) entries classified reliable."""
        return float(np.mean(self.reliable))

    def reclassify(self, delta: float | None, eta: float | None) -> "UsCkm":
        """This map's survey arrays, shared and not copied, thresholded at
        delta/eta as build_ckm thresholds them at its config's delta/eta;
        with neither set, at eta=0.7."""
        return _classify(self.scenario_hash, self.samples_per_grid, self.h_bar,
                         self.epsilon, self.sigma, delta, eta)

    # -- serialization ------------------------------------------------

    def save(self, path):
        header = {
            "version": _FORMAT_VERSION,
            "scenario_hash": self.scenario_hash,
            "samples_per_grid": self.samples_per_grid,
            "delta": self.delta,
            "arrays": [],
        }
        payload = []
        digest = hashlib.sha256()
        for name, _ in _FORMAT_ARRAYS:
            arr = np.ascontiguousarray(getattr(self, name))
            header["arrays"].append(
                {"name": name, "dtype": str(arr.dtype), "shape": list(arr.shape)}
            )
            payload.append(arr.tobytes())
            digest.update(payload[-1])
        header["payload_sha256"] = digest.hexdigest()
        blob = json.dumps(header, sort_keys=True).encode()
        with open(path, "wb") as fh:
            fh.write(_FORMAT_MAGIC)
            fh.write(_FORMAT_VERSION.to_bytes(2, "little"))
            fh.write(len(blob).to_bytes(8, "little"))
            fh.write(blob)
            for chunk in payload:
                fh.write(chunk)

    @classmethod
    def load(cls, path, config: ScenarioConfig | None = None) -> "UsCkm":
        """Read a map file, rejecting other formats, a header whose arrays
        do not describe a map, a payload of the wrong length, with another
        checksum or with values no survey writes and, when a config is
        given, a map surveyed under another survey key."""
        with open(path, "rb") as fh:
            data = fh.read()
        head = len(_FORMAT_MAGIC) + 10
        if data[: len(_FORMAT_MAGIC)] != _FORMAT_MAGIC:
            raise ValueError(f"{path}: not a channel map file")
        if len(data) < head:
            raise ValueError(f"{path}: truncated header")
        version = int.from_bytes(data[len(_FORMAT_MAGIC) : head - 8], "little")
        if version < _FORMAT_VERSION:
            raise ValueError(
                f"{path}: map format v{version} predates v{_FORMAT_VERSION}; "
                "rebuild the map with `ckmsched build-ckm`"
            )
        if version != _FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported format version {version}")
        start = head + int.from_bytes(data[head - 8 : head], "little")
        if len(data) < start:
            raise ValueError(f"{path}: truncated header")
        header = _parse_header(path, data[head:start])
        if config is not None and header["scenario_hash"] != scenario_hash(config):
            raise ValueError(f"{path}: map was built for a different scenario")
        payload_start = start
        arrays = {}
        for desc, (name, dtype) in zip(header["arrays"], _FORMAT_ARRAYS):
            shape = tuple(desc["shape"])
            stop = start + math.prod(shape) * np.dtype(dtype).itemsize
            if stop > len(data):
                raise ValueError(
                    f"{path}: truncated payload: {name} ends at byte {stop} "
                    f"of a {len(data)}-byte file"
                )
            arrays[name] = np.frombuffer(
                data, dtype, math.prod(shape), offset=start).reshape(shape).copy()
            start = stop
        if start != len(data):
            raise ValueError(f"{path}: {len(data) - start} trailing bytes after the payload")
        digest = hashlib.sha256(memoryview(data)[payload_start:]).hexdigest()
        if digest != header["payload_sha256"]:
            raise ValueError(f"{path}: payload does not match its checksum")
        _check_payload(path, arrays)
        return cls(
            header["scenario_hash"],
            header["samples_per_grid"],
            header["delta"],
            arrays["h_bar"],
            arrays["epsilon"],
            arrays["sigma"],
        )

    def export_csv(self, directory, scenario: Scenario):
        """Per-BS gains.csv, with the grid centers of scenario, plus the
        upper triangle of each corr table. ValueError unless scenario has
        this map's scenario key."""
        import csv
        import os

        if scenario_hash(scenario.config, self.samples_per_grid) != self.scenario_hash:
            raise ValueError("export_csv needs a scenario of the map's scenario key")
        centers = scenario.grid_centers
        for l in range(self.n_cells):
            with open(os.path.join(directory, f"gains_bs{l}.csv"), "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(
                    ["grid_id", "center_x", "center_y", "epsilon", "sigma", "reliable"]
                )
                for g in range(self.n_grids):
                    w.writerow(
                        [
                            g,
                            f"{centers[g, 0]:.6f}",
                            f"{centers[g, 1]:.6f}",
                            f"{self.epsilon[l, g]:.12e}",
                            f"{self.sigma[l, g]:.12e}",
                            int(self.reliable[l, g]),
                        ]
                    )
            with open(os.path.join(directory, f"corr_bs{l}.csv"), "w", newline="") as fh:
                # The lines csv.writer would write, one write per block.
                fh.write("grid_a,grid_b,rho\r\n")
                for start in range(0, self.n_grids, GRID_BLOCK):
                    rows = np.arange(start, min(start + GRID_BLOCK, self.n_grids))
                    corr = _corr_rows(self.h_bar[l], rows)
                    fh.write("".join(
                        f"{a},{b},{v:.12e}\r\n"
                        for a, vals in zip(rows.tolist(), corr.tolist())
                        for b, v in enumerate(vals[a + 1:], a + 1)
                    ))


def _parse_header(path, blob: bytes) -> dict:
    """Decode a v3 header and check that its arrays are h_bar (L, G, N) and
    epsilon, sigma (L, G), in file order with the stored dtypes."""
    try:
        header = json.loads(blob.decode())
        got = [(d["name"], np.dtype(d["dtype"]), tuple(d["shape"]))
               for d in header["arrays"]]
    except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed map header ({exc!r})") from None
    missing = ({"scenario_hash", "samples_per_grid", "delta", "payload_sha256"}
               - header.keys())
    if missing:
        raise ValueError(f"{path}: map header lacks {sorted(missing)}")
    s, delta = header["samples_per_grid"], header["delta"]
    if type(s) is not int or s < 1:
        raise ValueError(f"{path}: samples_per_grid {s!r} is not a positive int")
    # delta is -inf for an eta=0 map, so only NaN is out of range.
    if type(delta) not in (int, float) or math.isnan(delta):
        raise ValueError(f"{path}: delta {delta!r} is not a number")
    if not isinstance(header["scenario_hash"], str):
        raise ValueError(f"{path}: scenario_hash {header['scenario_hash']!r} is not a string")
    shape = got[0][2] if got else ()
    want = [(name, np.dtype(dtype), shape if name == "h_bar" else shape[:2])
            for name, dtype in _FORMAT_ARRAYS]
    if (got != want or len(shape) != 3
            or not all(isinstance(n, int) and n >= 1 for n in shape)):
        raise ValueError(f"{path}: header arrays {got} do not describe a map")
    return header


def _check_payload(path, arrays: dict) -> None:
    """Reject a non-finite h_bar and a negative or non-finite epsilon or
    sigma. The reliability flag is derived from sigma and delta on load, so
    a map may be re-thresholded by rewriting delta."""
    if not np.isfinite(arrays["h_bar"]).all():
        raise ValueError(f"{path}: h_bar holds a non-finite value")
    for name in ("epsilon", "sigma"):
        values = arrays[name]
        if not (np.isfinite(values) & (values >= 0)).all():
            raise ValueError(f"{path}: {name} holds a negative or non-finite value")


def scenario_hash(config: ScenarioConfig, samples_per_grid: int | None = None) -> str:
    """Stable digest of survey_key(config, samples_per_grid): a map loads
    for every config of the survey key it was surveyed under."""
    return hashlib.sha256(repr(survey_key(config, samples_per_grid)).encode()).hexdigest()


def build_ckm(scenario: Scenario, samples_per_grid: int | None = None) -> UsCkm:
    """Survey every (observing BS, grid) pair at samples_per_grid, by
    default the config's, and assemble the map.

    The reliability threshold is the config's absolute delta or, when its
    eta is set, the eta-quantile of all correlation variances (eta=0 and
    eta=1 force all-unreliable / all-reliable classifications); with
    neither set, eta=0.7. UsCkm.reclassify applies any other threshold.

    The survey runs over blocks of GRID_BLOCK grids, so its transient
    channel samples stay bounded whatever the grid count; every per-grid
    statistic is a row reduction, taken on one BS slice of a block at a
    time, so the slices and blocks concatenate to the one-shot survey byte
    for byte.
    """
    cfg = scenario.config
    s = cfg.samples_per_grid if samples_per_grid is None else samples_per_grid
    blocks = []
    for start in range(0, scenario.n_grids, GRID_BLOCK):
        grids = np.arange(start, min(start + GRID_BLOCK, scenario.n_grids))
        samples, centers = sample_grid(scenario, grids, s)
        # One BS slice at a time, so each statistic's temporaries span one
        # BS's share of the block.
        stats = [(statistical_channel(x), statistical_gain(x),
                  grid_variance(statistical_correlation(x, c[:, None, :])))
                 for x, c in zip(samples, centers)]
        blocks.append([np.stack(parts) for parts in zip(*stats)])
        del samples, centers, stats
    h_bar, epsilon, sigma = (np.concatenate(parts, axis=1) for parts in zip(*blocks))
    return _classify(scenario_hash(cfg, s), s, h_bar, epsilon, sigma, cfg.delta, cfg.eta)


def _classify(key_hash, s, h_bar, epsilon, sigma, delta, eta) -> UsCkm:
    """The threshold step of build_ckm: the map of survey arrays with the
    scenario hash key_hash, thresholded at delta, or at the eta-quantile
    (eta=0.7 when neither is set); ConfigError unless they are valid."""
    if delta is None and eta is None:
        eta = 0.7
    check_thresholds(delta, eta)
    if eta is not None:
        if eta <= 0.0:
            delta = -np.inf
        elif eta >= 1.0:
            delta = float(sigma.max())
        else:
            delta = float(np.quantile(sigma.ravel(), eta, method="lower"))
    return UsCkm(key_hash, s, delta, h_bar, epsilon, sigma)
