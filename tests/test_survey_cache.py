"""The map survey cache: configs that differ only in fields neither the
scenario nor the survey reads share one survey, and each still gets the map
build_ckm would give it."""

from dataclasses import replace

import numpy as np
import pytest

from ckmsched import build_ckm, build_scenario, experiments
from ckmsched.experiments import cached_ckm, survey_key

from conftest import desk_config

SURVEY_ARRAYS = ("h_bar", "epsilon", "sigma")

# One other valid value per field that survey_key resets.
OTHER_VALUES = dict(target_snr_db=5.0, kbar=1, kprime=5, alpha=0.9,
                    placement="clustered", hotspots_per_cell=3, delta=0.01, eta=0.4)


def base_config(**overrides):
    return desk_config(**{"eta": None, **overrides})


def test_other_values_cover_every_reset_field():
    assert set(OTHER_VALUES) == set(experiments._SURVEY_FREE)
    cfg = base_config()
    assert all(getattr(cfg, k) != v for k, v in OTHER_VALUES.items())


@pytest.mark.parametrize("field", sorted(OTHER_VALUES))
def test_reset_fields_leave_the_survey_unchanged(field):
    cfg = base_config()
    other = replace(cfg, **{field: OTHER_VALUES[field]})
    assert survey_key(other) == survey_key(cfg)
    want = build_ckm(build_scenario(cfg))
    got = build_ckm(build_scenario(other))
    for name in SURVEY_ARRAYS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


@pytest.mark.parametrize("field, value", [
    ("rng_seed", 8), ("grid_edge_m", 12.0), ("samples_per_grid", 4),
    ("dynamic_grid_fraction", 0.5),
])
def test_survey_fields_give_a_new_key(field, value):
    cfg = base_config()
    assert survey_key(replace(cfg, **{field: value})) != survey_key(cfg)


def test_snr_points_share_one_survey(monkeypatch):
    builds = []
    inner = experiments.build_ckm

    def counted(scenario, *args, **kwargs):
        builds.append(scenario.config)
        return inner(scenario, *args, **kwargs)

    monkeypatch.setattr(experiments, "build_ckm", counted)
    # A seed no other test uses, so the survey is not cached yet.
    configs = [base_config(rng_seed=913, target_snr_db=snr) for snr in (0.0, 10.0, 20.0)]
    maps = [cached_ckm(cfg) for cfg in configs]
    assert builds == [survey_key(configs[0])]
    for cfg, ckm in zip(configs, maps):
        assert ckm.scenario.config == cfg
    assert np.shares_memory(maps[0].h_bar, maps[1].h_bar)
    assert np.shares_memory(maps[1].sigma, maps[2].sigma)


@pytest.mark.parametrize("eta", [0.0, 0.6, 0.8, 1.0])
def test_cached_map_equals_a_fresh_build(eta, tmp_path):
    cfg = base_config(eta=eta, dynamic_grid_fraction=0.5)
    got, want = cached_ckm(cfg), build_ckm(build_scenario(cfg))
    assert got.scenario.config == cfg
    for name in (*SURVEY_ARRAYS, "reliable"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert repr(got.delta) == repr(want.delta)
    got.save(tmp_path / "got.ckm")
    want.save(tmp_path / "want.ckm")
    assert (tmp_path / "got.ckm").read_bytes() == (tmp_path / "want.ckm").read_bytes()
