"""Shared test utilities: canonical community forms, batch shuffles, oracles, dense groups."""

from __future__ import annotations

import random
from itertools import combinations

from lscpm import Link, LinkStream, TemporalCommunity, TemporalKClique


def canon(communities: list[TemporalCommunity]) -> list:
    """Order- and label-free form of a community list."""
    return sorted(sorted(c.canonical()) for c in communities)


def batches_by_start(cliques: list[TemporalKClique]) -> list[list[TemporalKClique]]:
    batches: list[list[TemporalKClique]] = []
    for clique in cliques:
        if batches and batches[-1][0].interval.t0 == clique.interval.t0:
            batches[-1].append(clique)
        else:
            batches.append([clique])
    return batches


def shuffle_within_batches(
    cliques: list[TemporalKClique], rng: random.Random
) -> list[TemporalKClique]:
    out: list[TemporalKClique] = []
    for batch in batches_by_start(cliques):
        batch = batch[:]
        rng.shuffle(batch)
        out.extend(batch)
    return out


def coverage_union(instants: list[int], delta: int) -> list[tuple[int, int]]:
    """Union of the closed intervals [t, t + delta], via half-tick coverage.

    Works on the doubled integer grid so touching intervals join and gaps of
    half a tick or more separate, independent of any merge implementation.
    """
    covered: set[int] = set()
    for t in instants:
        covered.update(range(2 * t, 2 * (t + delta) + 1))
    out: list[tuple[int, int]] = []
    for x in sorted(covered):
        if out and x == out[-1][1] + 1:
            out[-1] = (out[-1][0], x)
        else:
            out.append((x, x))
    return [(lo // 2, hi // 2) for lo, hi in out]


def dense_group(g: int, repeats: int) -> LinkStream:
    """A group of g vertices with every pair linked, begins and ends staggered, repeated.

    Repeat r starts at base 4g * r and links each pair (i, j) over
    [base + (i + j) % g, base + 3g - (i * j) % g]; every link of a repeat ends
    before the next begins.
    """
    return LinkStream.from_links(
        Link(base + (i + j) % g, base + 3 * g - (i * j) % g, i, j)
        for base in range(0, 4 * g * repeats, 4 * g)
        for i, j in combinations(range(g), 2)
    )
