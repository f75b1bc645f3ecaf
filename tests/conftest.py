"""Shared fixtures: small scenarios and maps reused across test modules."""

import hashlib
import json

import numpy as np
import pytest

from ckmsched import ScenarioConfig, UsCkm, build_ckm, build_scenario, experiments
from ckmsched.ckm import _FORMAT_ARRAYS
from ckmsched.evaluation import ChannelSet
from ckmsched.scheduling import EffectiveCsi


def desk_config(**overrides):
    """Small two-cell scenario that keeps map builds fast."""
    base = dict(
        n_cells=2,
        users_per_cell=5,
        kbar=2,
        kprime=4,
        n_h=2,
        n_v=2,
        cell_radius_m=60.0,
        grid_edge_m=15.0,
        samples_per_grid=5,
        alpha=0.5,
        eta=0.7,
        target_snr_db=20.0,
        dynamic_grid_fraction=0.25,
        rng_seed=7,
        static_clusters_per_cell=6,
        scatter_range_m=30.0,
        scatter_falloff=2.0,
        phase_length_m=120.0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def synthetic_chans(h, cell_of):
    """ChannelSet of channels h (L, n, N): user i is row i, serves in
    cell_of[i] and stands in grid 0."""
    cell_of = np.asarray(cell_of, dtype=np.int64)
    h = np.asarray(h, dtype=np.complex128)
    return ChannelSet(cell_of=cell_of, grid=np.zeros(len(cell_of), dtype=np.int64),
                      shape=h.shape, synthesize=lambda ids: h[:, ids])


def csi_from_tables(gain, corr, source=None, cell_of=None):
    """EffectiveCsi of per-BS tables, gain (L, n), corr (L, n, n) and source
    (L, n): user i serves at BS cell_of[i] (BS 0 by default; numbered cell
    by cell, as ChannelSet requires) and keeps its entries of that BS's
    tables; source defaults to map statistics everywhere."""
    gain = np.asarray(gain, dtype=float)
    L, n = gain.shape
    if source is None:
        source = np.ones((L, n), dtype=np.uint8)
    cell_of = np.zeros(n, dtype=np.int64) if cell_of is None else np.asarray(cell_of, np.int64)
    cells = synthetic_chans(np.zeros((L, n, 1)), cell_of).cells
    users = np.arange(n)
    corr = np.asarray(corr, dtype=float)[cell_of, users]
    source = np.asarray(source, dtype=np.uint8)[cell_of, users]
    return EffectiveCsi(gain[cell_of, users], corr, cells, source)


def clear_caches():
    """Empty the scenario-key, scenario, survey and map caches of
    experiments, so that the next trial builds its scenario and surveys its
    map again."""
    for cache in (experiments._scenario_key, experiments._scenario, experiments._survey,
                  experiments._map):
        cache.cache_clear()


@pytest.fixture
def empty_memo(monkeypatch):
    """Empties run_trial's memo of the last map-driven trial
    (experiments.MapTrial: a seed's users and channel rows, with the one
    fusion and the decisions made on them) now, and again on each call of
    the returned function; the memo is restored when the test ends."""
    def empty():
        monkeypatch.setattr(experiments, "_map_trial", None)

    empty()
    return empty


@pytest.fixture(scope="session")
def small_scenario():
    return build_scenario(desk_config())

@pytest.fixture(scope="session")
def small_ckm(small_scenario):
    return build_ckm(small_scenario)


@pytest.fixture(scope="session")
def static_scenario():
    return build_scenario(desk_config(dynamic_grid_fraction=0.0))


def save_with_header(ckm, path, **changes):
    """Save ckm to path with these header keys replaced."""
    ckm.save(path)
    data = path.read_bytes()
    hlen = int.from_bytes(data[7:15], "little")
    header = json.loads(data[15:15 + hlen])
    header.update(changes)
    blob = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(data[:7] + len(blob).to_bytes(8, "little") + blob + data[15 + hlen:])


def save_with_arrays(ckm, path, **arrays):
    """Save ckm to path with these stored arrays replaced by arrays of the
    same shape and dtype, under the checksum of the new payload, so that
    load's value checks, not its checksum, judge them."""
    payload = b"".join(np.ascontiguousarray(arrays.get(name, getattr(ckm, name))).tobytes()
                       for name, _ in _FORMAT_ARRAYS)
    save_with_header(ckm, path, payload_sha256=hashlib.sha256(payload).hexdigest())
    data = path.read_bytes()
    path.write_bytes(data[:len(data) - len(payload)] + payload)


def save_map_of_shape(path, shape):
    """Save a zero map whose h_bar has this (L, G, N) shape."""
    L, G, _ = shape
    UsCkm("0" * 64, 1, 0.0, np.zeros(shape, dtype=np.complex128), np.zeros((L, G)),
          np.zeros((L, G))).save(path)


def rng(seed=0):
    return np.random.default_rng(seed)
