"""Scenario construction, array/path-loss primitives, channel generation."""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import qmc

from ckmsched import ScenarioConfig, build_scenario, geometry
from ckmsched.errors import ConfigError, GeometryError, OutOfClusterError
from ckmsched.geometry import (
    FC_HZ,
    SPEED_OF_LIGHT,
    _halton_prefix,
    array_response,
    channel_rows,
    path_loss_db,
    sample_grid,
)

from conftest import desk_config


# -- config validation ------------------------------------------------


def test_config_defaults_expose_array_and_layout_properties():
    cfg = ScenarioConfig()
    assert cfg.n_antennas == 2 * cfg.n_h * cfg.n_v == 32
    assert len(dataclasses.fields(cfg)) == 28
    assert cfg.isd_m == pytest.approx(math.sqrt(3.0) * cfg.cell_radius_m)


def test_config_rejects_group_size_exceeding_antennas():
    with pytest.raises(ConfigError, match="antennas"):
        desk_config(n_cells=3, users_per_cell=40, kbar=40, kprime=40, n_h=4, n_v=4)


def test_config_rejects_grid_edge_beyond_cell_diameter():
    with pytest.raises(ConfigError, match="diameter"):
        desk_config(grid_edge_m=121.0, cell_radius_m=60.0)


def test_config_accepts_grid_edge_equal_to_diameter():
    cfg = desk_config(
        n_cells=1, users_per_cell=1, kbar=1, kprime=1,
        grid_edge_m=120.0, cell_radius_m=60.0, dynamic_grid_fraction=0.0,
    )
    scen = build_scenario(cfg)
    assert scen.n_grids == 1
    assert int(scen.grid_serving[0]) == 0


@pytest.mark.parametrize("name, value", [
    ("kprime", 4.5), ("samples_per_grid", 2.5), ("users_per_cell", 5.0),
    ("rng_seed", True), ("n_h", "2"),
])
def test_config_rejects_non_integral_counts(name, value):
    # Rejected rather than coerced: the scenario hash is sha256(repr(config)).
    with pytest.raises(ConfigError, match=f"{name} must be an integer"):
        desk_config(**{name: value})
    assert desk_config(kprime=np.int64(3)).kprime == 3


def test_config_rejects_out_of_range_knobs():
    with pytest.raises(ConfigError):
        desk_config(alpha=0.0)
    with pytest.raises(ConfigError):
        desk_config(alpha=1.5)
    with pytest.raises(ConfigError):
        desk_config(samples_per_grid=0)
    with pytest.raises(ConfigError):
        desk_config(delta=0.1, eta=0.5)
    with pytest.raises(ConfigError):
        desk_config(rng_seed=-1)
    with pytest.raises(ConfigError):
        desk_config(kbar=5, kprime=4)
    with pytest.raises(ConfigError):
        desk_config(dynamic_grid_fraction=1.2)
    with pytest.raises(ConfigError):
        desk_config(scatter_falloff=0.0)
    with pytest.raises(ConfigError):
        desk_config(placement="hexagonal")
    for name in ("target_snr_db", "cell_radius_m", "alpha", "grid_edge_m", "eta",
                 "inter_site_distance_m", "path_loss_exponent", "dynamic_gain"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match=f"{name} must be finite"):
                desk_config(**{name: bad})
    with pytest.raises(ConfigError, match="hotspots_per_cell"):
        desk_config(hotspots_per_cell=0)
    with pytest.raises(ConfigError, match="hotspots_per_cell"):
        desk_config(hotspots_per_cell=-1)
    with pytest.raises(ConfigError, match="shadowing_std_db"):
        desk_config(shadowing_std_db=-0.5)
    for isd in (0.0, -50.0):
        with pytest.raises(ConfigError, match="inter_site_distance_m"):
            desk_config(inter_site_distance_m=isd)


# -- array response ----------------------------------------------------


def test_array_response_boresight_is_cophased_unit_norm():
    v = array_response(4, 4, 0.0, 0.0, 0)
    block = v[:16]
    assert np.allclose(block, block[0])
    assert np.count_nonzero(v[16:]) == 0
    assert np.linalg.norm(v) == pytest.approx(1.0)


def test_array_response_distinct_azimuths_not_collinear():
    a = array_response(4, 1, 0.0, 0.0, 0)
    b = array_response(4, 1, math.pi / 3, 0.0, 0)
    assert abs(np.vdot(a, b)) < 1.0 - 1e-6


def test_array_response_minimal_array_uses_one_block_per_polarization():
    for pol in (0, 1):
        v = array_response(1, 1, 0.3, -0.2, pol)
        assert v.shape == (2,)
        assert v[pol] != 0
        assert v[1 - pol] == 0


@given(
    az=st.floats(-math.pi, math.pi),
    el=st.floats(-math.pi / 2, math.pi / 2),
    n_h=st.integers(1, 6),
    n_v=st.integers(1, 6),
)
@settings(max_examples=60, deadline=None)
def test_array_response_always_unit_norm(az, el, n_h, n_v):
    v = array_response(n_h, n_v, az, el, 0)
    assert v.shape == (2 * n_h * n_v,)
    assert np.linalg.norm(v) == pytest.approx(1.0)


def test_array_response_of_an_angle_array_equals_its_scalar_calls():
    rng = np.random.default_rng(1)
    az = rng.uniform(-math.pi, math.pi, (3, 7))
    el = rng.uniform(-math.pi / 2, math.pi / 2, (3, 7))
    for pol in (0, 1):
        batch = array_response(4, 3, az, el, pol)
        assert batch.shape == (3, 7, 24)
        for i, j in np.ndindex(az.shape):
            one = array_response(4, 3, float(az[i, j]), float(el[i, j]), pol)
            assert one.shape == (24,)
            assert batch[i, j].tobytes() == one.tobytes()
    # Angles broadcast against each other.
    row = array_response(2, 2, az[0], 0.1, 1)
    assert row.shape == (7, 8)
    assert row[3].tobytes() == array_response(2, 2, float(az[0, 3]), 0.1, 1).tobytes()


def test_half_wavelength_phase_step_is_pi_at_any_carrier():
    # array_response takes no wavelength: 2*pi*(wavelength/2)/wavelength
    # rounds to math.pi exactly, so dropping it moves no bit.
    for fc in (FC_HZ, 3.5e9, 28e9, 1e9, 60e9):
        wavelength = SPEED_OF_LIGHT / fc
        assert 2.0 * math.pi * (0.5 * wavelength) / wavelength == math.pi


# -- path loss ---------------------------------------------------------


def test_path_loss_of_a_distance_array_equals_its_scalar_calls():
    # Both equal the scalar math.log10 formula, which np.log10 does not
    # always match in the last bit.
    rng = np.random.default_rng(2)
    d = rng.uniform(1.0, 2000.0, (4, 250))
    fspl = 20.0 * math.log10(4.0 * math.pi * FC_HZ / SPEED_OF_LIGHT)
    for exponent in (3.0, 3.7):
        batch = path_loss_db(d, exponent)
        assert batch.shape == d.shape
        scalar = np.array([[path_loss_db(x, exponent) for x in r] for r in d.tolist()])
        want = np.array([[fspl + 10.0 * exponent * math.log10(x) for x in r]
                         for r in d.tolist()])
        assert batch.tobytes() == scalar.tobytes() == want.tobytes()
    assert isinstance(path_loss_db(120.0), float)
    assert path_loss_db(np.empty((0, 3))).shape == (0, 3)


def test_path_loss_monotone_in_distance():
    p1 = path_loss_db(100.0)
    p2 = path_loss_db(200.0)
    assert p2 > p1


def test_path_loss_decade_step_matches_exponent():
    exp = 3.0
    d1 = path_loss_db(100.0, exponent=exp)
    d2 = path_loss_db(1000.0, exponent=exp)
    assert d2 - d1 == pytest.approx(10.0 * exp * math.log10(10.0))


def test_path_loss_is_pure_and_rejects_bad_distance():
    assert path_loss_db(50.0) == path_loss_db(50.0)
    with pytest.raises(ValueError):
        path_loss_db(0.0)
    with pytest.raises(ValueError):
        path_loss_db(-3.0)
    for bad in (0.0, -3.0, np.nan):
        d = np.full((2, 5), 50.0)
        d[1, 3] = bad
        with pytest.raises(ValueError, match="positive"):
            path_loss_db(d)


# -- scenario layout ---------------------------------------------------


def test_grid_centers_lie_inside_their_serving_cell(small_scenario):
    scen = small_scenario
    bs = scen.bs_xy
    d = np.hypot(
        scen.grid_centers[:, 0, None] - bs[None, :, 0],
        scen.grid_centers[:, 1, None] - bs[None, :, 1],
    )
    nearest = d.argmin(axis=1)
    assert np.array_equal(nearest, scen.grid_serving)
    covered = d[np.arange(scen.n_grids), scen.grid_serving]
    assert np.all(covered <= scen.config.cell_radius_m + 1e-9)


def test_every_cell_has_enough_grids_for_its_users(small_scenario):
    for l in range(small_scenario.config.n_cells):
        assert len(small_scenario.grids_of_cell[l]) >= small_scenario.config.users_per_cell


def test_too_coarse_partition_is_rejected():
    with pytest.raises(GeometryError, match="fewer than"):
        build_scenario(desk_config(users_per_cell=50, kprime=50, grid_edge_m=50.0))


def test_three_cell_layout_is_equilateral():
    cfg = desk_config(n_cells=3)
    scen = build_scenario(cfg)
    bs = scen.bs_xy
    sides = [np.linalg.norm(bs[i] - bs[j]) for i, j in ((0, 1), (1, 2), (0, 2))]
    assert np.allclose(sides, cfg.isd_m)


def test_build_scenario_is_deterministic():
    a = build_scenario(desk_config())
    b = build_scenario(desk_config())
    assert np.array_equal(a.grid_centers, b.grid_centers)
    assert np.array_equal(a.grid_serving, b.grid_serving)
    assert np.array_equal(a.scatterers.static_positions, b.scatterers.static_positions)
    assert np.array_equal(a.scatterers.dynamic_grid_ids, b.scatterers.dynamic_grid_ids)


def test_dynamic_grid_count_tracks_requested_fraction(small_scenario):
    scen = small_scenario
    expect = round(scen.config.dynamic_grid_fraction * scen.n_grids)
    assert len(scen.scatterers.dynamic_grid_ids) == expect


# -- locate ------------------------------------------------------------


def test_locate_grid_center_returns_that_grid(small_scenario):
    g = 5
    g_found = small_scenario.locate(small_scenario.grid_centers[g])
    assert type(g_found) is int and g_found == g


def test_locate_uses_half_open_grid_squares(small_scenario):
    scen = small_scenario
    edge = scen.config.grid_edge_m
    # Grid directly at BS 0: its right neighbor exists inside coverage and,
    # as grid ids run in row-major lattice order, is grid g + 1.
    g = scen.locate(scen.bs_xy[0])
    c = scen.grid_centers[g]
    assert scen.locate((c[0] + edge / 2 - 1e-6, c[1])) == g
    assert scen.locate((c[0] + edge / 2, c[1])) == g + 1


def test_locate_rejects_positions_outside_coverage(small_scenario):
    far = small_scenario.config.cell_radius_m * 50.0
    with pytest.raises(OutOfClusterError):
        small_scenario.locate((far, far))


# -- channel generation ------------------------------------------------


def test_channel_vector_shape_and_finiteness(small_scenario):
    pos = small_scenario.grid_centers[3]
    rows = channel_rows(small_scenario, pos, 0)
    assert rows.shape == (small_scenario.config.n_cells, 1, small_scenario.n_antennas)
    assert np.all(np.isfinite(rows))
    assert np.all(np.linalg.norm(rows, axis=-1) > 0)


def test_static_grid_channels_are_realization_invariant(static_scenario):
    scen = static_scenario
    pos = scen.grid_centers[7] + 2.0
    a = channel_rows(scen, pos, 0)
    b = channel_rows(scen, pos, 9)
    assert np.array_equal(a, b)


def test_dynamic_grid_channels_vary_across_realizations(small_scenario):
    scen = small_scenario
    gid = int(scen.scatterers.dynamic_grid_ids[0])
    pos = scen.grid_centers[gid]
    a = channel_rows(scen, pos, 1)[0, 0]
    b = channel_rows(scen, pos, 2)[0, 0]
    corr = abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
    assert not np.array_equal(a, b)
    assert corr < 1.0


def test_nearby_positions_more_correlated_than_distant_ones():
    cfg = desk_config(
        n_cells=1, users_per_cell=5, kbar=1, kprime=2,
        cell_radius_m=120.0, grid_edge_m=10.0, dynamic_grid_fraction=0.0,
    )
    scen = build_scenario(cfg)
    base = np.array([-100.0, 0.5])
    near = base + [1.0, 0.0]
    far = base + [200.0, 0.0]
    h0, hn, hf = channel_rows(scen, np.array([base, near, far]), 0)[0]

    def corr(a, b):
        return abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))

    assert corr(h0, hn) > corr(h0, hf)


def test_channel_norm_equals_large_scale_amplitude(small_scenario):
    scen = small_scenario
    cfg = scen.config
    g = 4
    pos = scen.grid_centers[g]
    h = channel_rows(scen, pos, 0)[1, 0]
    bs = scen.bs_xy[1]
    d3 = math.sqrt(
        (pos[0] - bs[0]) ** 2
        + (pos[1] - bs[1]) ** 2
        + (cfg.bs_height_m - cfg.user_height_m) ** 2
    )
    pl = path_loss_db(d3, exponent=cfg.path_loss_exponent)
    amp = 10.0 ** (-(pl + scen.shadow_db[1, g]) / 20.0)
    assert np.linalg.norm(h) == pytest.approx(amp, rel=1e-12)


def test_channel_norm_monotone_in_distance_without_shadowing():
    cfg = desk_config(
        n_cells=1, users_per_cell=5, kbar=1, kprime=2,
        cell_radius_m=120.0, grid_edge_m=10.0,
        shadowing_std_db=0.0, dynamic_grid_fraction=0.0,
    )
    scen = build_scenario(cfg)
    dists = [10.0, 30.0, 60.0, 90.0, 115.0]
    norms = [
        np.linalg.norm(channel_rows(scen, (d, 0.0), 0)[0, 0]) for d in dists
    ]
    assert all(a > b for a, b in zip(norms, norms[1:]))


def test_fraction_zero_makes_every_grid_realization_invariant(static_scenario):
    scen = static_scenario
    assert len(scen.scatterers.dynamic_grid_ids) == 0
    for g in (0, scen.n_grids // 2, scen.n_grids - 1):
        pos = scen.grid_centers[g]
        rows = channel_rows(scen, np.tile(pos, (2, 1)), np.array([0, 17]))
        assert np.array_equal(rows[:, 0], rows[:, 1])


# -- grid sampling -----------------------------------------------------


def test_sample_grid_single_sample_plus_center(small_scenario):
    scen = small_scenario
    n = scen.n_antennas
    L = scen.config.n_cells
    samples, center = sample_grid(scen, 2, s=1)
    assert samples.shape == (L, 1, n) and center.shape == (L, n)
    # A grid array stacks the survey as (BS, *grids, sample), with sample i
    # at realization i + 1 and the center at realization 0.
    dyn = int(scen.scatterers.dynamic_grid_ids[0])
    many, centers = sample_grid(scen, np.array([[2, dyn]]), s=3)
    assert many.shape == (L, 1, 2, 3, n) and centers.shape == (L, 1, 2, n)
    for k, g in enumerate([2, dyn]):
        pos = np.vstack([scen.grid_sample_positions(g, 3), scen.grid_centers[g]])
        rows = channel_rows(scen, pos, [1, 2, 3, 0])
        np.testing.assert_allclose(many[:, 0, k], rows[:, :3], rtol=1e-12)
        np.testing.assert_allclose(centers[:, 0, k], rows[:, 3], rtol=1e-12)


def test_sample_positions_stay_inside_the_grid(small_scenario):
    scen = small_scenario
    g = 6
    pts = scen.grid_sample_positions(g, 9)
    offs = np.abs(pts - scen.grid_centers[g])
    assert np.all(offs <= scen.config.grid_edge_m / 2 + 1e-12)


def test_sample_positions_are_deterministic_and_prefix_stable(small_scenario):
    scen = small_scenario
    a = scen.grid_sample_positions(3, 5)
    b = scen.grid_sample_positions(3, 5)
    c = scen.grid_sample_positions(3, 10)
    assert np.array_equal(a, b)
    assert np.array_equal(a, c[:5])


def test_halton_prefix_is_bit_identical_to_scipy():
    for count in (1, 5, 9, 10, 18, 64, 257, 1000):
        ref = qmc.Halton(d=2, scramble=False).random(count)
        assert _halton_prefix(count).tobytes() == ref.tobytes()


def test_importing_the_package_leaves_scipy_stats_unloaded():
    import ckmsched

    src = os.path.dirname(os.path.dirname(os.path.abspath(ckmsched.__file__)))
    code = "import sys, ckmsched; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.stdout.strip() == "False"


def test_sample_grid_validates_inputs(small_scenario):
    with pytest.raises(ValueError, match="s must be >= 1"):
        sample_grid(small_scenario, 0, s=0)
    with pytest.raises(ValueError, match=f"grid {small_scenario.n_grids} out of range"):
        sample_grid(small_scenario, small_scenario.n_grids, s=3)
    with pytest.raises(ValueError, match="grid -1 out of range"):
        sample_grid(small_scenario, np.array([0, -1]), s=3)


def test_scenario_export_lists_every_grid(tmp_path, small_scenario):
    out = tmp_path / "scenario.csv"
    small_scenario.export_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "grid_id,center_x,center_y,serving_bs,dynamic"
    assert len(lines) == 1 + small_scenario.n_grids
    dynamic = set(small_scenario.scatterers.dynamic_grid_ids.tolist())
    assert 0 < len(dynamic) < small_scenario.n_grids
    assert [line.split(",")[-1] for line in lines[1:]] == [
        str(int(g in dynamic)) for g in range(small_scenario.n_grids)
    ]


def test_configs_are_immutable():
    cfg = desk_config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.kbar = 3


def test_every_seed_stream_tag_is_distinct():
    tags = {name: value for name, value in vars(geometry).items() if name.startswith("_TAG_")}
    assert len(tags) >= 9
    assert len(set(tags.values())) == len(tags), tags
