"""A factor common to every channel changes no decision and no rate.

The noise power is calibrated to a target SNR from the channels' own
median gain, so a common channel scale c arrives with noise scaled by c^2;
the map's mean channels scale by c and its gains by c^2. This is why the
carrier frequency is a constant and the scenario has no path-loss offset
or jitter scale: each only scales every channel alike.
"""

import numpy as np
import pytest

from ckmsched.ckm import UsCkm
from ckmsched.evaluation import ChannelSet, brute_force_optimum, calibrate_noise, evaluate_group
from ckmsched.experiments import cached_ckm, cached_scenario, place_users, trial_channels
from ckmsched.scheduling import (
    fuse_effective_csi,
    greedy_schedule,
    random_schedule,
    robust_two_stage,
    sus_schedule,
)

from conftest import desk_config

SCALES = (1e-3, 1e3)


def scaled_chans(chans: ChannelSet, c: float) -> ChannelSet:
    h = chans.h * c
    return ChannelSet(cell_of=chans.cell_of, grid=chans.grid, shape=h.shape,
                      synthesize=lambda ids: h[:, ids])


def scaled_map(ckm: UsCkm, c: float) -> UsCkm:
    return UsCkm(ckm.scenario_hash, ckm.samples_per_grid, ckm.delta, ckm.h_bar * c,
                 ckm.epsilon * c**2, ckm.sigma)


def schedules(cfg, ckm, chans, noise):
    """Every scheduler's group on one trial, by name."""
    groups = {
        "greedy": greedy_schedule(chans, cfg.kbar, noise)[0],
        "sus": sus_schedule(chans, cfg.kbar, cfg.alpha),
        "random": random_schedule(chans.ids_by_cell(), cfg.kbar, 5),
        "brute_force": brute_force_optimum(chans, cfg.kbar, noise)[0],
    }
    for first_stage in ("aes", "gis"):
        for label, m in (("all reliable", ckm.reclassify(None, 1.0)), ("config", ckm)):
            groups[f"{first_stage}/{label}"] = robust_two_stage(
                fuse_effective_csi(m, chans),
                cfg.kprime, cfg.kbar, cfg.alpha, first_stage=first_stage)[0]
    return groups


@pytest.mark.parametrize("placement", ["uniform", "clustered"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_common_channel_scale_changes_no_group_and_no_rate(placement, seed):
    cfg = desk_config(placement=placement)
    scenario = cached_scenario(cfg)
    ckm = cached_ckm(cfg)
    chans = trial_channels(scenario, place_users(scenario, seed), seed + 1)
    noise = calibrate_noise(scenario, cfg.target_snr_db)
    base = schedules(cfg, ckm, chans, noise)
    for c in SCALES:
        chans_c, noise_c = scaled_chans(chans, c), noise * c**2
        got = schedules(cfg, scaled_map(ckm, c), chans_c, noise_c)
        for name, group in base.items():
            assert got[name].members == group.members, (name, c)
            rate = evaluate_group(group, chans, noise)[0]
            assert evaluate_group(got[name], chans_c, noise_c)[0] == pytest.approx(
                rate, rel=1e-9), (name, c)
