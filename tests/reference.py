"""Slow reference implementations that the production fast paths are
checked against: one exact evaluate_group call per candidate group, and
per-user SINRs through the public mmse_receiver / sinr functions.
"""

from itertools import combinations, product

from ckmsched.evaluation import evaluate_group, mmse_receiver, sinr, sum_rate
from ckmsched.groups import SelectionRecord, UserGroup


def first_max(scores) -> int:
    """Index of the first strict maximum (the lowest-id tie-break)."""
    best = 0
    for i in range(1, len(scores)):
        if scores[i] > scores[best]:
            best = i
    return best


def greedy_reference(chans, kbar: int, noise_power: float) -> UserGroup:
    """Greedy sum-rate maximization scoring every candidate group exactly."""
    bycell = chans.ids_by_cell()
    cells = sorted(bycell)
    members = {l: [] for l in cells}
    remaining = {l: sorted(bycell[l]) for l in cells}
    meta = []
    for slot in range(kbar):
        for l in cells:
            rates = []
            for uid in remaining[l]:
                trial = {c: list(v) for c, v in members.items()}
                trial[l].append(uid)
                rates.append(sum_rate(UserGroup(members=trial), chans, noise_power))
            j = first_max(rates)
            uid = remaining[l].pop(j)
            members[l].append(uid)
            meta.append(SelectionRecord(uid, l, slot, rates[j], "icsi"))
    return UserGroup(members=members, meta=meta)


def brute_force_reference(chans, kbar: int, noise_power: float):
    """Exhaustive search scoring every combination exactly, in
    lexicographic order, keeping the first strict maximum."""
    bycell = chans.ids_by_cell()
    cells = sorted(bycell)
    best_rate = -1.0
    best = None
    for pick in product(*(combinations(bycell[l], kbar) for l in cells)):
        group = UserGroup(members={l: list(p) for l, p in zip(cells, pick)})
        rate = sum_rate(group, chans, noise_power)
        if rate > best_rate:
            best_rate, best = rate, group
    rate, _ = evaluate_group(best, chans, noise_power)
    return best, float(rate)


def sinr_reference(group: UserGroup, chans, noise_power: float) -> dict[int, float]:
    """Per-user SINR with one mmse_receiver solve per scheduled user."""
    everyone = group.all_users()
    out = {}
    for cell, served in group.members.items():
        for uid in served:
            d = chans.vector(cell, uid)
            others = [chans.vector(cell, u) for u in everyone if u != uid]
            w = mmse_receiver(d, others, noise_power).weights
            out[uid] = sinr(w, d, others, [], noise_power)
    return out

