"""Seeded planted-community contact streams for the benchmark.

Groups of about ten vertices are active over an interval. Each member has its
own presence interval inside the group's, so some members join late or leave
early, and some members are drawn from earlier groups, so groups overlap on
shared vertices. Every pair of members present together makes contacts as a
Poisson process; uniform background noise is added on top. The output is
instantaneous ``t u v`` records, sorted by time, plus the planted truth.

Group sizes, durations, the number of shared, late and early members and the
lateness amounts follow fixed cycles; the seed decides which vertices are
shared, which members are late or early, where each group sits in time and
every contact. Work per seed then varies little, which keeps benchmark
figures comparable across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

GROUP_SIZE = 10  # groups have 9, 10 or 11 members, in turn
LENGTHS = (200, 250, 300, 350, 400)  # group durations in ticks, in turn
SHARED = 0.2  # share of a group's members taken from earlier groups
CHURN = 0.3  # share that join late and, separately, that leave early, by up to a third
NOISE = 0.1  # background records between random vertices, per planted record


@dataclass(frozen=True)
class PlantedGroup:
    """One planted community: member label -> closed presence interval [s, e]."""

    members: dict[str, tuple[int, int]]


def planted_contacts(
    seed: int, n_groups: int, *, span: int, mean_gap: float
) -> tuple[str, list[PlantedGroup]]:
    """Return (text of ``t u v`` lines, planted groups) for one seed.

    ``mean_gap`` is the mean tick gap between contacts of one pair, so with a
    delta near it a pair's expanded link breaks now and then and its cliques
    restart.
    """
    if span < max(LENGTHS):
        raise ValueError(f"span {span} is shorter than the longest group {max(LENGTHS)}")
    rng = random.Random(seed)
    groups: list[PlantedGroup] = []
    used: list[str] = []
    records: list[tuple[int, str, str]] = []
    for g in range(n_groups):
        size = GROUP_SIZE - 1 + g % 3
        dur = LENGTHS[g % len(LENGTHS)]
        start = rng.randint(0, span - dur)
        n_shared = min(round(SHARED * size), len(used))
        names = rng.sample(used, n_shared)
        fresh = [f"v{len(used) + i}" for i in range(size - n_shared)]
        used += fresh
        names += fresh
        rng.shuffle(names)
        n_churn = round(CHURN * size)
        steps = [dur * (i + 1) // (3 * n_churn) for i in range(n_churn)] if n_churn else []
        late = dict(zip(rng.sample(names, n_churn), steps))
        early = dict(zip(rng.sample(names, n_churn), steps))
        members = {v: (start + late.get(v, 0), start + dur - early.get(v, 0)) for v in names}
        groups.append(PlantedGroup(members))
        for i, u in enumerate(names):
            for v in names[i + 1:]:
                lo = max(members[u][0], members[v][0])
                hi = min(members[u][1], members[v][1])
                t = lo + rng.expovariate(1.0 / mean_gap)
                while t <= hi:
                    records.append((int(t), u, v))
                    t += rng.expovariate(1.0 / mean_gap)
    for _ in range(int(len(records) * NOISE)):
        u, v = rng.sample(used, 2)
        records.append((rng.randint(0, span), u, v))
    records.sort()
    return "".join(f"{t} {u} {v}\n" for t, u, v in records), groups
