"""One key per geometry: configs that differ only in fields that the
scenario, user placement and a trial's channel rows do not read share one
scenario; those that differ in no field the map survey reads either share
one survey and one map hash, and each still gets the map build_ckm would
give it."""

from dataclasses import fields, replace

import numpy as np
import pytest

from ckmsched import build_ckm, build_scenario, experiments
from ckmsched.ckm import scenario_hash
from ckmsched.experiments import cached_ckm, cached_scenario, place_users, trial_channels
from ckmsched.geometry import scenario_key, survey_key

from conftest import clear_caches, desk_config

SURVEY_ARRAYS = ("h_bar", "epsilon", "sigma")

# One other valid value per field that scenario_key resets, differing from
# both base_config's value and the key's. survey_key resets all but
# samples_per_grid.
OTHER_VALUES = dict(target_snr_db=5.0, kbar=3, kprime=5, alpha=0.9, delta=0.01, eta=0.4,
                    samples_per_grid=4)
SURVEY_RESET = sorted(set(OTHER_VALUES) - {"samples_per_grid"})


def base_config(**overrides):
    return desk_config(**{"eta": None, **overrides})


def scenario_arrays(scenario) -> dict[str, bytes]:
    """Every array a Scenario holds, its scatterer field's included."""
    named = dict(vars(scenario))
    named.update((f"scatterers.{k}", v) for k, v in vars(scenario.scatterers).items())
    named.update((f"grids_of_cell[{l}]", g) for l, g in enumerate(scenario.grids_of_cell))
    return {k: v.tobytes() for k, v in named.items() if isinstance(v, np.ndarray)}


def test_other_values_cover_every_reset_field():
    reset = set()
    for cleared in ("delta", "eta"):  # the two may not both be set
        cfg = base_config(**{**OTHER_VALUES, cleared: None})
        key = scenario_key(cfg)
        reset |= {f.name for f in fields(cfg) if getattr(key, f.name) != getattr(cfg, f.name)}
    assert reset == set(OTHER_VALUES)
    cfg = base_config()
    assert all(getattr(cfg, k) != v for k, v in OTHER_VALUES.items())


@pytest.mark.parametrize("field", sorted(OTHER_VALUES))
def test_reset_fields_leave_the_scenario_unchanged(field):
    cfg = base_config()
    other = replace(cfg, **{field: OTHER_VALUES[field]})
    assert scenario_key(other) == scenario_key(cfg)
    want, got = build_scenario(cfg), build_scenario(other)
    assert scenario_arrays(got) == scenario_arrays(want)
    for seed in (0, 1):
        users = place_users(got, seed)
        assert users == place_users(want, seed)
        a, b = trial_channels(got, users, seed + 1), trial_channels(want, users, seed + 1)
        for name in ("cell_of", "grid", "h"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


@pytest.mark.parametrize("field", SURVEY_RESET)
def test_reset_fields_leave_the_survey_unchanged(field):
    cfg = base_config()
    other = replace(cfg, **{field: OTHER_VALUES[field]})
    assert survey_key(other) == survey_key(cfg)
    assert scenario_hash(other) == scenario_hash(cfg)
    want_map, got_map = build_ckm(build_scenario(cfg)), build_ckm(build_scenario(other))
    for name in SURVEY_ARRAYS:
        assert getattr(got_map, name).tobytes() == getattr(want_map, name).tobytes()


def test_samples_per_grid_changes_the_survey_and_its_hash():
    cfg = base_config()
    other = replace(cfg, samples_per_grid=OTHER_VALUES["samples_per_grid"])
    assert survey_key(other) != survey_key(cfg)
    assert scenario_hash(other) != scenario_hash(cfg)
    assert cached_scenario(other) is cached_scenario(cfg)
    want_map, got_map = build_ckm(build_scenario(cfg)), build_ckm(build_scenario(other))
    assert got_map.samples_per_grid == other.samples_per_grid
    for name in SURVEY_ARRAYS:
        assert getattr(got_map, name).tobytes() != getattr(want_map, name).tobytes()


def test_scenario_hashes_are_pinned():
    # Taken before samples_per_grid left the scenario key: every saved map
    # keeps its hash.
    assert scenario_hash(desk_config()) == (
        "2b88e681029986825bb4b8f13ef86fd7a959615842c5e562c7b51b0f943f737a")
    assert scenario_hash(desk_config(samples_per_grid=4)) == (
        "233cc54364b4634803e141c39885ca206ab234f243829f05409779076bee6c37")


@pytest.mark.parametrize("field, value", [
    ("rng_seed", 8), ("grid_edge_m", 12.0),
    ("dynamic_grid_fraction", 0.5), ("placement", "clustered"),
    ("hotspots_per_cell", 3), ("users_per_cell", 4),
])
def test_survey_fields_give_a_new_key(field, value):
    cfg = base_config()
    other = replace(cfg, **{field: value})
    assert scenario_key(other) != scenario_key(cfg)
    assert survey_key(other) != survey_key(cfg)


def test_snr_points_share_one_survey(monkeypatch):
    scenarios, surveys = [], []

    def counted(calls, inner):
        def wrapper(arg, *args, **kwargs):
            calls.append(arg)
            return inner(arg, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(experiments, "build_scenario",
                        counted(scenarios, experiments.build_scenario))
    monkeypatch.setattr(experiments, "build_ckm", counted(surveys, experiments.build_ckm))
    # A seed no other test uses, so nothing of this key is cached yet.
    configs = [base_config(rng_seed=913, target_snr_db=snr) for snr in (0.0, 10.0, 20.0)]
    maps = [cached_ckm(cfg) for cfg in configs]
    key = scenario_key(configs[0])
    assert scenarios == [key]
    assert [s.config for s in surveys] == [key]
    for cfg, ckm in zip(configs, maps):
        assert cached_scenario(cfg) is cached_scenario(configs[0])
        assert ckm.scenario_hash == scenario_hash(cfg) == maps[0].scenario_hash
    assert np.shares_memory(maps[0].h_bar, maps[1].h_bar)
    assert np.shares_memory(maps[1].sigma, maps[2].sigma)


@pytest.mark.parametrize("eta", [0.0, 0.6, 0.8, 1.0])
def test_cached_map_equals_a_fresh_build(eta, tmp_path):
    # Two sample counts of one scenario key, visited in both orders from
    # empty caches: a survey cached without its count would be handed to
    # the second.
    for order in ((5, 4), (4, 5)):
        clear_caches()
        for samples in order:
            cfg = base_config(eta=eta, dynamic_grid_fraction=0.5, samples_per_grid=samples)
            got, want = cached_ckm(cfg), build_ckm(build_scenario(cfg))
            assert got.scenario_hash == want.scenario_hash == scenario_hash(cfg)
            assert got.samples_per_grid == samples
            for name in (*SURVEY_ARRAYS, "reliable"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            assert repr(got.delta) == repr(want.delta)
            got.save(tmp_path / "got.ckm")
            want.save(tmp_path / "want.ckm")
            assert (tmp_path / "got.ckm").read_bytes() == (tmp_path / "want.ckm").read_bytes()
