"""Statistical map ops, map assembly, reliability classification, serialization."""

import csv
import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ckmsched import UsCkm, build_ckm, build_scenario
from ckmsched import ckm as ckm_module
from ckmsched.ckm import (
    grid_variance,
    reliability_indicator,
    scenario_hash,
    statistical_channel,
    statistical_correlation,
    statistical_gain,
)
from ckmsched.errors import ConfigError, ZeroNormError
from ckmsched.geometry import sample_grid

from conftest import desk_config, save_map_of_shape, save_with_arrays, save_with_header
from reference import corr_matrix


def complex_vectors(n, count):
    return hnp.arrays(
        np.complex128,
        (count, n),
        elements=st.complex_numbers(
            min_magnitude=0.0, max_magnitude=10.0, allow_nan=False, allow_infinity=False
        ),
    )


# -- statistical operators ---------------------------------------------


def test_statistical_channel_of_opposed_vectors_is_zero():
    v = np.array([1.0 + 2.0j, -0.5j, 3.0])
    out = statistical_channel([v, -v])
    assert np.array_equal(out, np.zeros(3))


def test_statistical_channel_averages_componentwise():
    out = statistical_channel([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    assert np.array_equal(out, np.array([0.5, 0.5]))


def test_statistical_gain_averages_squared_norms():
    assert statistical_gain([np.array([2.0, 0.0]), np.array([0.0, 0.0])]) == 2.0


def test_statistical_gain_requires_samples():
    with pytest.raises(ValueError):
        statistical_gain([])


def test_statistical_correlation_known_pair():
    got = statistical_correlation(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
    assert got == pytest.approx(1.0 / math.sqrt(2.0))


def test_statistical_correlation_rejects_zero_norm():
    with pytest.raises(ZeroNormError):
        statistical_correlation(np.zeros(2), np.array([1.0, 0.0]))
    with pytest.raises(ZeroNormError):
        statistical_correlation(np.array([1.0, 0.0]), np.zeros(2))


def test_statistical_correlation_is_phase_and_scale_invariant():
    a = np.array([1.0 + 1.0j, 2.0, -0.5j])
    b = np.array([0.3, 1.0j, 2.0])
    base = statistical_correlation(a, b)
    assert statistical_correlation(3.0 * a, b) == pytest.approx(base)
    assert statistical_correlation(a * np.exp(0.7j), b) == pytest.approx(base)


def test_grid_variance_known_values():
    assert grid_variance([0.9, 0.7]) == pytest.approx(0.01)
    assert grid_variance([1.0, 0.0]) == pytest.approx(0.25)
    assert grid_variance([0.42]) == 0.0


def test_grid_variance_requires_values():
    with pytest.raises(ValueError):
        grid_variance([])


def test_reliability_indicator_boundary_is_inclusive():
    assert reliability_indicator(0.05, 0.05) == 1
    assert reliability_indicator(np.nextafter(0.05, 1.0), 0.05) == 0
    assert reliability_indicator(0.0, 0.0) == 1
    with pytest.raises(ValueError):
        reliability_indicator(-1e-9, 0.05)


def test_statistics_of_stacked_rows_equal_one_call_per_row():
    # (BS, grid, sample, antenna) rows, as build_ckm reduces them.
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(2, 3, 5, 4)) + 1j * rng.normal(size=(2, 3, 5, 4))
    center = rows[..., 0, :]
    corr = statistical_correlation(rows, center[..., None, :])
    sigma = grid_variance(corr)
    assert corr.shape == sigma.shape + (5,) == (2, 3, 5)
    for idx in np.ndindex(2, 3):
        r = rows[idx]
        assert statistical_channel(r).tobytes() == statistical_channel(rows)[idx].tobytes()
        assert statistical_gain(r) == statistical_gain(rows)[idx]
        per_row = [statistical_correlation(v, center[idx]) for v in r]
        assert np.array(per_row).tobytes() == corr[idx].tobytes()
        assert grid_variance(per_row) == sigma[idx]
    delta = float(np.median(sigma))
    flags = reliability_indicator(sigma, delta)
    assert flags.dtype == np.uint8
    assert flags.tolist() == [[reliability_indicator(x, delta) for x in row]
                              for row in sigma]
    with pytest.raises(ValueError):
        reliability_indicator(np.array([0.1, -1e-9]), 0.05)
    with pytest.raises(ZeroNormError):
        statistical_correlation(rows, np.zeros(4))


@given(complex_vectors(4, 6))
@settings(max_examples=100, deadline=None)
def test_gain_dominates_mean_channel_energy(rows):
    # Jensen: average of squared norms >= squared norm of the average.
    gain = statistical_gain(list(rows))
    mean = statistical_channel(list(rows))
    assert gain >= np.linalg.norm(mean) ** 2 - 1e-9 * max(gain, 1.0)


def test_gain_matches_mean_energy_only_for_identical_samples():
    v = np.array([1.0 + 0.5j, -2.0j])
    gain = statistical_gain([v, v, v])
    mean = statistical_channel([v, v, v])
    assert gain == pytest.approx(np.linalg.norm(mean) ** 2)


@given(
    vals=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=12),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=100, deadline=None)
def test_grid_variance_is_permutation_invariant(vals, seed):
    arr = np.array(vals)
    shuffled = np.random.default_rng(seed).permutation(arr)
    assert grid_variance(shuffled) == pytest.approx(grid_variance(arr), abs=1e-12)


@given(complex_vectors(3, 2))
@settings(max_examples=100, deadline=None)
def test_correlation_symmetric_and_bounded(rows):
    a, b = rows
    if np.linalg.norm(a) == 0.0 or np.linalg.norm(b) == 0.0:
        return
    r = statistical_correlation(a, b)
    assert 0.0 <= r <= 1.0
    assert statistical_correlation(b, a) == pytest.approx(r)
    assert statistical_correlation(a, a) == pytest.approx(1.0)


# -- map assembly -------------------------------------------------------


def test_map_shapes_and_dtypes(small_scenario, small_ckm):
    L, G, N = small_ckm.n_cells, small_ckm.n_grids, small_scenario.n_antennas
    assert small_ckm.h_bar.shape == (L, G, N)
    assert small_ckm.epsilon.shape == (L, G)
    assert small_ckm.sigma.shape == (L, G)
    assert small_ckm.reliable.shape == (L, G)
    assert not hasattr(small_ckm, "corr")
    assert small_ckm.reliable.dtype == np.uint8
    assert small_ckm.samples_per_grid == small_scenario.config.samples_per_grid


def test_map_arrays_are_read_only(small_ckm):
    for arr in (small_ckm.h_bar, small_ckm.epsilon, small_ckm.sigma,
                small_ckm.reliable):
        with pytest.raises(ValueError):
            arr.flat[0] = arr.flat[0]


def test_corr_tables_are_symmetric_unit_diagonal(small_ckm):
    for l in range(small_ckm.n_cells):
        c = corr_matrix(small_ckm.h_bar[l])
        assert c.shape == (small_ckm.n_grids, small_ckm.n_grids)
        assert np.array_equal(c, c.T)
        assert np.all(np.diag(c) == 1.0)
        assert np.all((c >= 0.0) & (c <= 1.0))


def test_map_entries_respect_jensen_bound(small_ckm):
    mean_energy = np.sum(np.abs(small_ckm.h_bar) ** 2, axis=2)
    assert np.all(small_ckm.epsilon >= mean_energy - 1e-12)


def test_reliability_consistent_with_sigma_and_delta(small_ckm):
    expect = (small_ckm.sigma <= small_ckm.delta).astype(np.uint8)
    assert np.array_equal(small_ckm.reliable, expect)


def test_dynamic_grids_show_higher_variance_than_static(small_scenario, small_ckm):
    # Tails can overlap at this scale; compare the bulk of each population.
    dyn = np.array(sorted(small_scenario.scatterers.dynamic_grid_ids))
    static = np.setdiff1d(np.arange(small_ckm.n_grids), dyn)
    serving = small_scenario.grid_serving
    sig_dyn = small_ckm.sigma[serving[dyn], dyn]
    sig_static = small_ckm.sigma[serving[static], static]
    assert np.median(sig_dyn) > 10.0 * np.median(sig_static)


def test_single_grid_map_is_degenerate():
    cfg = desk_config(
        n_cells=1, users_per_cell=1, kbar=1, kprime=1,
        cell_radius_m=60.0, grid_edge_m=120.0, dynamic_grid_fraction=0.0,
    )
    ckm = build_ckm(build_scenario(cfg))
    assert ckm.n_grids == 1
    assert corr_matrix(ckm.h_bar[0]).tolist() == [[1.0]]


def test_build_ckm_rejects_an_empty_survey(small_scenario):
    # build_ckm surveys at the config's samples_per_grid, which the config
    # keeps >= 1; the survey itself refuses zero samples too.
    with pytest.raises(ConfigError, match="samples_per_grid must be >= 1"):
        replace(small_scenario.config, samples_per_grid=0)
    with pytest.raises(ValueError, match="s must be >= 1"):
        sample_grid(small_scenario, [0], 0)


def test_doubling_samples_reuses_the_shorter_prefix(small_scenario):
    # Halton draws are prefix-stable, so the first s samples agree and
    # statistics change only through the extra draws.
    a = build_ckm(build_scenario(desk_config(samples_per_grid=4)))
    b = build_ckm(build_scenario(desk_config(samples_per_grid=8)))
    assert a.samples_per_grid == 4 and b.samples_per_grid == 8
    pts_a = small_scenario.grid_sample_positions(2, 4)
    pts_b = small_scenario.grid_sample_positions(2, 8)
    assert np.array_equal(pts_a, pts_b[:4])
    assert not np.allclose(a.epsilon, b.epsilon, rtol=1e-6, atol=0.0)
    mean_energy = np.sum(np.abs(b.h_bar) ** 2, axis=2)
    assert np.all(b.epsilon >= mean_energy - 1e-12)


# -- reliability thresholds ---------------------------------------------


def test_build_rejects_both_thresholds(small_scenario, small_ckm):
    with pytest.raises(ConfigError, match="at most one"):
        replace(small_scenario.config, delta=0.1, eta=0.5)
    with pytest.raises(ConfigError, match="at most one"):
        small_ckm.reclassify(0.1, 0.5)


@pytest.mark.parametrize("kw, message", [
    ({"eta": 1.5}, "eta must lie in"),
    ({"eta": -0.2}, "eta must lie in"),
    ({"delta": -1.0}, "delta must be >= 0"),
])
def test_build_rejects_thresholds_the_config_rejects(small_scenario, small_ckm, kw, message):
    with pytest.raises(ConfigError, match=message):
        small_ckm.reclassify(kw.get("delta"), kw.get("eta"))
    with pytest.raises(ConfigError, match=message):
        replace(small_scenario.config, **({"delta": None, "eta": None} | kw))


def test_eta_extremes_classify_everything(small_ckm):
    none = small_ckm.reclassify(None, 0.0)
    all_ = small_ckm.reclassify(None, 1.0)
    assert none.realized_eta() == 0.0
    assert all_.realized_eta() == 1.0
    assert all_.delta == float(all_.sigma.max())


def test_eta_quantile_hits_requested_fraction(small_ckm):
    ckm = small_ckm.reclassify(None, 0.5)
    assert abs(ckm.realized_eta() - 0.5) < 0.1


def test_reliable_set_grows_with_delta(small_ckm):
    lo = small_ckm.reclassify(1e-6, None)
    hi = small_ckm.reclassify(1e-2, None)
    assert np.all(hi.reliable >= lo.reliable)
    assert hi.reliable.sum() > lo.reliable.sum()


def test_absolute_delta_covering_all_sigma_is_fully_reliable(small_ckm):
    ckm = small_ckm.reclassify(float(small_ckm.sigma.max()), None)
    assert ckm.realized_eta() == 1.0


# -- serialization --------------------------------------------------------


def test_save_load_round_trip(tmp_path, small_scenario, small_ckm):
    path = tmp_path / "map.ckm"
    small_ckm.save(path)
    back = UsCkm.load(path, config=small_scenario.config)
    assert back.scenario_hash == small_ckm.scenario_hash
    assert back.samples_per_grid == small_ckm.samples_per_grid
    assert back.delta == small_ckm.delta
    for name in ("h_bar", "epsilon", "sigma", "reliable"):
        assert np.array_equal(getattr(back, name), getattr(small_ckm, name))


def test_saves_are_bit_identical(tmp_path, small_ckm):
    p1 = tmp_path / "a.ckm"
    p2 = tmp_path / "b.ckm"
    small_ckm.save(p1)
    small_ckm.save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_verifies_scenario_hash(tmp_path, small_ckm):
    path = tmp_path / "map.ckm"
    small_ckm.save(path)
    with pytest.raises(ValueError, match="different scenario"):
        UsCkm.load(path, config=desk_config(rng_seed=8))


def test_load_rejects_foreign_files(tmp_path):
    path = tmp_path / "not_a_map.ckm"
    path.write_bytes(b"definitely not a channel map")
    with pytest.raises(ValueError, match="not a channel map"):
        UsCkm.load(path)


def saved_map(tmp_path, ckm):
    path = tmp_path / "map.ckm"
    ckm.save(path)
    return path, path.read_bytes()


@pytest.mark.parametrize("version", [1, 2])
def test_load_rejects_older_formats_with_a_rebuild_hint(tmp_path, small_ckm, version):
    path, data = saved_map(tmp_path, small_ckm)
    path.write_bytes(data[:5] + version.to_bytes(2, "little") + data[7:])
    with pytest.raises(ValueError, match=f"v{version}.*rebuild the map with `ckmsched build-ckm`"):
        UsCkm.load(path)


def test_load_rejects_a_payload_that_does_not_match_its_checksum(tmp_path, small_ckm):
    path, data = saved_map(tmp_path, small_ckm)
    # One flipped bit in the last sigma entry still leaves a finite,
    # non-negative value, so only the checksum can catch it.
    path.write_bytes(data[:-1] + bytes([data[-1] ^ 1]))
    with pytest.raises(ValueError, match=f"^{path}: payload does not match its checksum$"):
        UsCkm.load(path)
    save_with_header(small_ckm, path, payload_sha256="0" * 64)
    with pytest.raises(ValueError, match="checksum"):
        UsCkm.load(path)


def test_load_rejects_a_header_without_a_checksum(tmp_path, small_ckm):
    path, data = saved_map(tmp_path, small_ckm)
    hlen = int.from_bytes(data[7:15], "little")
    header = json.loads(data[15:15 + hlen])
    del header["payload_sha256"]
    blob = json.dumps(header).encode()
    path.write_bytes(data[:7] + len(blob).to_bytes(8, "little") + blob + data[15 + hlen:])
    with pytest.raises(ValueError, match=r"lacks \['payload_sha256'\]"):
        UsCkm.load(path)


def test_a_rewritten_delta_rethresholds_a_loaded_map(tmp_path, small_ckm):
    # The flag is derived from sigma and delta on load, so a map whose
    # header delta was rewritten agrees with itself.
    path = tmp_path / "map.ckm"
    for delta in (float(small_ckm.sigma.max()), float(np.median(small_ckm.sigma)), 0.0):
        save_with_header(small_ckm, path, delta=delta)
        back = UsCkm.load(path)
        assert back.delta == delta
        assert np.array_equal(back.reliable, small_ckm.sigma <= delta)


def test_load_rejects_a_truncated_payload(tmp_path, small_ckm):
    path, data = saved_map(tmp_path, small_ckm)
    for cut in (1, small_ckm.sigma.nbytes + 1, len(data) // 2):
        path.write_bytes(data[:-cut])
        with pytest.raises(ValueError, match="truncated"):
            UsCkm.load(path)


def test_load_rejects_trailing_bytes(tmp_path, small_ckm):
    path, data = saved_map(tmp_path, small_ckm)
    path.write_bytes(data + b"\0")
    with pytest.raises(ValueError, match="1 trailing bytes"):
        UsCkm.load(path)


def test_load_rejects_header_arrays_that_do_not_describe_a_map(tmp_path, small_ckm):
    path, data = saved_map(tmp_path, small_ckm)
    hlen = int.from_bytes(data[7:15], "little")
    L, G = small_ckm.n_cells, small_ckm.n_grids
    for old, new in ((f"[{L}, {G}]", f"[{L}, {G - 1}]"),
                     ('"float64"', '"float32"'),
                     ('"sigma"', '"sigmb"'),
                     ('"arrays"', '"arrayz"')):
        blob = data[15:15 + hlen].decode().replace(old, new, 1).encode()
        path.write_bytes(data[:7] + len(blob).to_bytes(8, "little") + blob
                         + data[15 + hlen:])
        with pytest.raises(ValueError, match="describe a map|malformed"):
            UsCkm.load(path)
    # every dimension of a map holds at least one entry
    for shape in ((0, 5, 8), (2, 0, 8), (2, 5, 0)):
        save_map_of_shape(path, shape)
        with pytest.raises(ValueError) as err:
            UsCkm.load(path)
        assert str(err.value).startswith(f"{path}: header arrays")
        assert str(err.value).endswith("do not describe a map")


@pytest.mark.parametrize("key, value", [
    ("samples_per_grid", -3),
    ("samples_per_grid", 0),
    ("samples_per_grid", 2.0),
    ("samples_per_grid", True),
    ("delta", None),
    ("delta", float("nan")),
    ("delta", "0.1"),
    ("delta", False),
    ("scenario_hash", 7),
    ("scenario_hash", None),
])
def test_load_rejects_header_values_that_do_not_describe_a_map(tmp_path, small_ckm, key, value):
    path = tmp_path / "map.ckm"
    save_with_header(small_ckm, path, **{key: value})
    with pytest.raises(ValueError) as err:
        UsCkm.load(path)
    assert str(err.value).startswith(f"{path}: {key} ")


@pytest.mark.parametrize("delta", [-math.inf, math.inf])
def test_load_accepts_an_infinite_delta(tmp_path, small_ckm, delta):
    path = tmp_path / "map.ckm"
    save_with_header(small_ckm, path, delta=delta)
    assert UsCkm.load(path).delta == delta


@pytest.mark.parametrize("name, index, value", [
    ("h_bar", (0, 1, 2), complex(math.nan, 0.0)),
    ("h_bar", (1, 0, 0), complex(0.0, math.inf)),
    ("epsilon", (0, 1), math.nan),
    ("epsilon", (1, 0), -1e-9),
    ("sigma", (1, 2), -1.0),
    ("sigma", (0, 0), math.inf),
])
def test_load_rejects_payload_values_no_survey_writes(tmp_path, small_ckm, name, index, value):
    bad = getattr(small_ckm, name).copy()
    bad[index] = value
    path = tmp_path / "map.ckm"
    save_with_arrays(small_ckm, path, **{name: bad})
    with pytest.raises(ValueError) as err:
        UsCkm.load(path)
    assert str(err.value).startswith(f"{path}: {name} ")


def test_export_csv_writes_per_bs_tables(tmp_path, small_scenario, small_ckm):
    small_ckm.export_csv(tmp_path, small_scenario)
    for l in range(small_ckm.n_cells):
        gains = (tmp_path / f"gains_bs{l}.csv").read_text().splitlines()
        corr = (tmp_path / f"corr_bs{l}.csv").read_text().splitlines()
        assert gains[0] == "grid_id,center_x,center_y,epsilon,sigma,reliable"
        assert len(gains) == 1 + small_ckm.n_grids
        assert corr[0] == "grid_a,grid_b,rho"
        n = small_ckm.n_grids
        assert len(corr) == 1 + n * (n - 1) // 2
        table = corr_matrix(small_ckm.h_bar[l])
        assert corr[1] == f"0,1,{table[0, 1]:.12e}"
        assert corr[-1] == f"{n - 2},{n - 1},{table[n - 2, n - 1]:.12e}"


def test_export_csv_corr_rows_equal_the_full_table(tmp_path, small_scenario, small_ckm,
                                                    monkeypatch):
    # Rows are written in blocks of GRID_BLOCK; a block size that does
    # not divide the grid count leaves a short last block.
    n = small_ckm.n_grids
    assert n % 7
    monkeypatch.setattr(ckm_module, "GRID_BLOCK", 7)
    small_ckm.export_csv(tmp_path, small_scenario)
    for l in range(small_ckm.n_cells):
        table = corr_matrix(small_ckm.h_bar[l])
        want = io.StringIO(newline="")
        w = csv.writer(want)
        w.writerow(["grid_a", "grid_b", "rho"])
        for a in range(n):
            for b in range(a + 1, n):
                w.writerow([a, b, f"{table[a, b]:.12e}"])
        assert (tmp_path / f"corr_bs{l}.csv").read_bytes() == want.getvalue().encode()


def test_loaded_arrays_are_owned_and_aligned(tmp_path, small_ckm):
    path = tmp_path / "map.ckm"
    small_ckm.save(path)
    back = UsCkm.load(path)
    # The stored arrays; reliable is derived on load, not read from the file.
    for name in ("h_bar", "epsilon", "sigma"):
        arr = getattr(back, name)
        assert arr.flags.owndata and arr.flags.aligned and arr.flags.c_contiguous
        assert arr.tobytes() == getattr(small_ckm, name).tobytes()


# -- a map loaded without a config ------------------------------------------


def test_a_map_loaded_without_a_config_resaves_to_the_same_bytes(tmp_path, small_ckm):
    path, data = saved_map(tmp_path, small_ckm)
    back = UsCkm.load(path)
    assert not hasattr(back, "scenario")
    assert back.scenario_hash == small_ckm.scenario_hash == scenario_hash(desk_config())
    again = tmp_path / "again.ckm"
    back.save(again)
    assert again.read_bytes() == data


@pytest.mark.parametrize("delta, eta", [
    (None, 0.0), (None, 0.4), (None, 1.0), (0.0, None), (1e-4, None),
    # Neither set: the eta=0.7 fallback.
    (None, None),
])
def test_a_loaded_map_reclassifies_as_build_ckm(tmp_path, small_scenario, small_ckm,
                                               delta, eta):
    path, _ = saved_map(tmp_path, small_ckm)
    got = UsCkm.load(path).reclassify(delta, eta)
    want = build_ckm(build_scenario(replace(small_scenario.config, delta=delta, eta=eta)))
    for name in ("h_bar", "epsilon", "sigma", "reliable"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert repr(got.delta) == repr(want.delta)
    got.save(tmp_path / "got.ckm")
    want.save(tmp_path / "want.ckm")
    assert (tmp_path / "got.ckm").read_bytes() == (tmp_path / "want.ckm").read_bytes()


def test_a_loaded_map_exports_with_a_scenario_of_its_key_only(tmp_path, small_scenario,
                                                              small_ckm):
    path, _ = saved_map(tmp_path, small_ckm)
    back = UsCkm.load(path)
    (tmp_path / "got").mkdir()
    (tmp_path / "want").mkdir()
    # The SNR target is not part of the scenario key.
    back.export_csv(tmp_path / "got",
                    build_scenario(replace(small_scenario.config, target_snr_db=5.0)))
    small_ckm.export_csv(tmp_path / "want", small_scenario)
    names = sorted(p.name for p in (tmp_path / "want").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "got").iterdir())
    for name in names:
        assert (tmp_path / "got" / name).read_bytes() == (tmp_path / "want" / name).read_bytes()
    with pytest.raises(ValueError, match="scenario key"):
        back.export_csv(tmp_path / "got", build_scenario(desk_config(rng_seed=8)))
