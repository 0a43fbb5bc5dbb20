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

MAX_INSTANTS = 80  # random_stream: most instants drawn
MAX_DELTA = 30  # random_stream: longest duration of an instant
MAX_VERTICES = 12  # random_durational_stream: most vertices
MAX_PAIRS = 18  # random_durational_stream: most linked pairs
MAX_TIME = 60  # random_durational_stream: times lie in [0, MAX_TIME)
ZERO_PROB = 0.1  # random_durational_stream: chance that a link has zero length


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


def random_stream(rng: random.Random, max_vertices: int = 15, max_span: int = 60) -> LinkStream:
    """Delta-expanded random stream of up to MAX_INSTANTS instants, each lasting up to MAX_DELTA."""
    n = rng.randint(3, max_vertices)
    m = rng.randint(0, MAX_INSTANTS)
    span = rng.randint(5, max_span)
    delta = rng.randint(1, MAX_DELTA)
    return apply_delta(random_instants(rng, n, m, span), delta)


def random_durational_stream(rng: random.Random) -> LinkStream:
    """Random stream of up to MAX_VERTICES vertices and MAX_PAIRS linked pairs.

    Each pair gets one to three disjoint links in [0, MAX_TIME), drawn directly.
    A link is zero-length with probability ZERO_PROB on purpose: valid data that
    can never support a clique.
    """
    n = rng.randint(3, MAX_VERTICES)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    links: list[Link] = []
    for u, v in pairs[: rng.randint(0, min(MAX_PAIRS, len(pairs)))]:
        count = rng.randint(1, 3)
        points = sorted(rng.sample(range(MAX_TIME), 2 * count))
        for i in range(count):
            s, e = points[2 * i], points[2 * i + 1]
            if rng.random() < ZERO_PROB:
                e = s
            links.append(Link(s, e, u, v))
    return LinkStream.from_links(links)
