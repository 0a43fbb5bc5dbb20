"""Synthetic link stream generators for tests and scaling experiments."""

from __future__ import annotations

import random

from .linkstream import Link, LinkStream, apply_delta

__all__ = [
    "random_instants",
    "synthetic_stream",
    "random_stream",
    "random_durational_stream",
]


def random_instants(
    rng: random.Random,
    n_vertices: int,
    n_instants: int,
    span: int,
    block: int | None = None,
) -> list[tuple[int, int, int]]:
    """Random (t, u, v) records over integer ticks [0, span].

    With ``block`` set, pairs are drawn inside consecutive vertex blocks of
    that size, which caps the instantaneous degree at block - 1.
    """
    if n_vertices < 2:
        raise ValueError("need at least two vertices")
    if n_instants < 0:
        raise ValueError(f"the number of instants must be >= 0, got {n_instants}")
    if span < 0:
        raise ValueError(f"span must be >= 0, got {span}")
    if block is not None:
        if block < 2 or n_vertices % block != 0:
            raise ValueError("block must be >= 2 and divide n_vertices")
    out: list[tuple[int, int, int]] = []
    for _ in range(n_instants):
        t = rng.randint(0, span)
        if block is None:
            u = rng.randrange(n_vertices)
            v = rng.randrange(n_vertices - 1)
            if v >= u:
                v += 1
        else:
            base = rng.randrange(n_vertices // block) * block
            u = base + rng.randrange(block)
            v = base + rng.randrange(block - 1)
            if v >= u:
                v += 1
        out.append((t, u, v))
    return out


def synthetic_stream(
    n_vertices: int,
    n_instants: int,
    span: int,
    delta: int,
    seed: int,
    block: int | None = None,
) -> LinkStream:
    """Deterministic random stream: instants expanded by a uniform duration."""
    rng = random.Random(seed)
    instants = random_instants(rng, n_vertices, n_instants, span, block)
    return apply_delta(instants, delta)


def random_stream(
    rng: random.Random,
    max_vertices: int = 15,
    max_instants: int = 80,
    max_span: int = 60,
    max_delta: int = 30,
) -> LinkStream:
    """Small random stream via delta expansion, for randomized checks."""
    n = rng.randint(3, max_vertices)
    m = rng.randint(0, max_instants)
    span = rng.randint(5, max_span)
    delta = rng.randint(1, max_delta)
    return apply_delta(random_instants(rng, n, m, span), delta)


def random_durational_stream(
    rng: random.Random,
    max_vertices: int = 12,
    max_pairs: int = 18,
    max_time: int = 60,
    zero_prob: float = 0.1,
) -> LinkStream:
    """Random stream with per-pair disjoint intervals drawn directly.

    Durations vary freely and a few links are zero-length on purpose; those
    are valid data that can never support a clique.
    """
    n = rng.randint(3, max_vertices)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    links: list[Link] = []
    for u, v in pairs[: rng.randint(0, min(max_pairs, len(pairs)))]:
        count = rng.randint(1, 3)
        points = sorted(rng.sample(range(max_time), 2 * count))
        for i in range(count):
            s, e = points[2 * i], points[2 * i + 1]
            if rng.random() < zero_prob:
                e = s
            links.append(Link(s, e, u, v))
    return LinkStream.from_links(links)
