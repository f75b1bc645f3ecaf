"""Closed-form candidate scoring against the slow exact references.

greedy_schedule and brute_force_optimum rank candidates with the batched
closed form and confirm picks with sum_rate; these tests require the same
members, the same selection metrics and the same repr(sum_rate) as scoring
every candidate exactly (tests/reference.py).
"""

import math

import numpy as np
import pytest

from ckmsched import evaluation
from ckmsched.evaluation import (
    ChannelSet,
    brute_force_optimum,
    candidate_rates,
    evaluate_group,
    sum_rate,
)
from ckmsched.experiments import cached_noise, cached_scenario, place_users, trial_channels
from ckmsched.groups import UserGroup
from ckmsched.scheduling import greedy_schedule

from conftest import desk_config
from reference import brute_force_reference, greedy_reference, sinr_reference
from test_acceptance import table_scale_config


def trial_instance(cfg, seed):
    """The channels and noise power run_trial uses for (cfg, seed)."""
    scenario = cached_scenario(cfg)
    users = place_users(scenario, seed)
    return trial_channels(scenario, users, seed + 1), cached_noise(cfg, cfg.target_snr_db)


def assert_same_greedy(chans, kbar, noise):
    fast = greedy_schedule(chans, kbar, noise)
    slow = greedy_reference(chans, kbar, noise)
    assert fast.members == slow.members
    assert [(m.user, m.cell, m.slot, m.metric) for m in fast.meta] == [
        (m.user, m.cell, m.slot, m.metric) for m in slow.meta
    ]
    assert repr(sum_rate(fast, chans, noise)) == repr(sum_rate(slow, chans, noise))
    return fast


def assert_same_brute_force(chans, kbar, noise):
    group, rate = brute_force_optimum(chans, kbar, noise)
    ref_group, ref_rate = brute_force_reference(chans, kbar, noise)
    assert group.members == ref_group.members
    assert repr(rate) == repr(ref_rate)
    return group


def random_chans(rng, users_per_cell, n_cells, n_antennas):
    n = users_per_cell * n_cells
    h = rng.normal(size=(n_cells, n, n_antennas)) + 1j * rng.normal(
        size=(n_cells, n, n_antennas)
    )
    return ChannelSet(
        ids=np.arange(n), cell_of=np.repeat(np.arange(n_cells), users_per_cell), h=h
    )


@pytest.fixture
def exact_calls(monkeypatch):
    """Count exact sum_rate evaluations made by the schedulers."""
    calls = []
    exact = evaluation.sum_rate

    def counted(group, chans, noise_power):
        calls.append(group)
        return exact(group, chans, noise_power)

    monkeypatch.setattr(evaluation, "sum_rate", counted)
    return calls


# -- identical picks on the acceptance instances ------------------------------


def test_greedy_and_brute_force_match_the_references_on_desk_seeds():
    cfg = desk_config()
    for seed in range(200):
        chans, noise = trial_instance(cfg, seed)
        assert_same_greedy(chans, cfg.kbar, noise)
        assert_same_brute_force(chans, cfg.kbar, noise)


def test_greedy_matches_the_reference_at_table_scale():
    cfg = table_scale_config()
    for seed in range(10):
        chans, noise = trial_instance(cfg, seed)
        assert_same_greedy(chans, cfg.kbar, noise)


# -- exact ties and the guard ---------------------------------------------------


def duplicated_chans():
    # Users 1 and 2 share every channel row and are the strongest in cell 0,
    # so every score involving one of them ties exactly with the other.
    rng = np.random.default_rng(8)
    h = rng.normal(size=(2, 6, 3)) + 1j * rng.normal(size=(2, 6, 3))
    h[:, 1] *= 3.0
    h[:, 2] = h[:, 1]
    return ChannelSet(ids=np.arange(6), cell_of=np.array([0, 0, 0, 1, 1, 1]), h=h)


def test_greedy_breaks_exact_ties_by_lowest_id(exact_calls):
    chans = duplicated_chans()
    group = assert_same_greedy(chans, 2, 0.5)
    first = group.meta[0]
    assert (first.cell, first.user) == (0, 1)
    assert 2 not in group.members[0]
    # the first pick was confirmed by re-scoring both tied candidates
    assert len(exact_calls) >= 2
    assert {exact_calls[0].members[0][0], exact_calls[1].members[0][0]} == {1, 2}


def test_brute_force_breaks_exact_ties_by_lowest_selection(exact_calls):
    chans = duplicated_chans()
    group = assert_same_brute_force(chans, 1, 0.5)
    assert group.members[0] == [1]
    assert len(exact_calls) >= 2


def test_high_sinr_falls_back_to_exact_scoring(exact_calls):
    # At SINR ~1e9 the closed form's 1 - a loses too many digits to rank.
    chans = ChannelSet(
        ids=np.arange(4), cell_of=np.array([0, 0, 0, 0]),
        h=np.array([[[1.0, 0.1], [0.2, 1.0], [0.7, 0.7], [1.0, -0.3]]], dtype=complex),
    )
    noise = 1e-9
    assert candidate_rates(chans, {0: []}, 0, [0, 1, 2, 3], noise) is None
    assert_same_greedy(chans, 2, noise)
    assert len(exact_calls) >= 4 + 3
    assert_same_brute_force(chans, 2, noise)


# -- the closed form against the public reference path --------------------------


def test_closed_form_sinr_matches_mmse_receiver_and_sinr():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n_ant = int(rng.integers(2, 6))
        chans = random_chans(rng, 4, 2, n_ant)
        noise = float(rng.uniform(0.05, 2.0))
        k = int(rng.integers(1, 4))
        group = UserGroup(members={0: [0, 1, 2, 3][:k], 1: [4, 5, 6, 7][:k]})
        ref = sinr_reference(group, chans, noise)
        _, gammas = evaluate_group(group, chans, noise)
        everyone = group.all_users()
        for cell, served in group.members.items():
            s = np.stack([chans.vector(cell, u) for u in everyone])
            r_inv = np.linalg.inv(s.T @ s.conj() + noise * np.eye(n_ant))
            for uid in served:
                h = chans.vector(cell, uid)
                a = np.vdot(h, r_inv @ h).real
                assert a / (1.0 - a) == pytest.approx(ref[uid], rel=1e-9)
                assert gammas[uid] == pytest.approx(ref[uid], rel=1e-9)


def test_candidate_rates_match_exact_sum_rates():
    rng = np.random.default_rng(4)
    for _ in range(20):
        chans = random_chans(rng, 5, 3, 4)
        noise = float(rng.uniform(0.1, 1.0))
        members = {0: [0], 1: [5, 6], 2: []}
        cell = int(rng.integers(0, 3))
        pool = [u for u in range(5 * cell, 5 * cell + 5) if u not in members[cell]]
        fast = candidate_rates(chans, members, cell, pool, noise)
        for score, uid in zip(fast, pool):
            trial = {c: list(v) for c, v in members.items()}
            trial[cell].append(uid)
            exact = sum_rate(UserGroup(members=trial), chans, noise)
            assert math.isclose(score, exact, rel_tol=1e-9)
