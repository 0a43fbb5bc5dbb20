"""Metamorphic relations: transforming a stream transforms its communities alike.

Each property builds a second stream from a random one by a map whose effect on
the communities is known in advance, and compares the label-free community
multisets of the two runs. None needs the oracle, so they also hold where the
brute force cannot go.
"""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SRC, dense_streams, streams

from lscpm import Link, LinkStream, compute_communities, parse_links, synthetic_stream

PERFBENCH = SRC.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

from planted import planted_contacts  # noqa: E402

any_streams = st.one_of(streams(), dense_streams())
ks = st.sampled_from([3, 4])


def image(communities, vertex=lambda v: v, shift=0) -> list:
    """Label-free community multiset, each vertex and time mapped first."""
    return sorted(
        sorted((vertex(v), tuple((t0 + shift, t1 + shift) for t0, t1 in spans))
               for v, spans in c.canonical())
        for c in communities
    )


def mapped(stream: LinkStream, vertex=lambda v: v, shift=0) -> list[Link]:
    return [Link(ln.b + shift, ln.e + shift, vertex(ln.u), vertex(ln.v)) for ln in stream.links]


def fresh_id(stream: LinkStream) -> int:
    """An id above every vertex of the stream."""
    return max((ln.v for ln in stream.links), default=-1) + 1


@given(any_streams, ks, st.integers(-60, 60))
@settings(max_examples=200, deadline=None)
def test_shift_moves_every_span(stream, k, c):
    shifted = LinkStream.from_links(mapped(stream, shift=c))
    assert image(compute_communities(shifted, k)) == image(compute_communities(stream, k), shift=c)


@given(any_streams, ks, st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_relabel_permutes_every_community(stream, k, rng):
    ids = list(range(fresh_id(stream)))
    perm = dict(zip(ids, rng.sample(ids, len(ids))))
    relabeled = LinkStream.from_links(mapped(stream, vertex=perm.__getitem__))
    assert image(compute_communities(relabeled, k)) == \
        image(compute_communities(stream, k), vertex=perm.__getitem__)


@given(any_streams, ks)
@settings(max_examples=200, deadline=None)
def test_disjoint_copy_doubles_every_community(stream, k):
    n = fresh_id(stream)
    both = LinkStream.from_links([*stream.links, *mapped(stream, vertex=lambda v: v + n)])
    once = compute_communities(stream, k)
    assert image(compute_communities(both, k)) == \
        sorted(image(once) + image(once, vertex=lambda v: v + n))


@given(any_streams, ks)
@settings(max_examples=200, deadline=None)
def test_gap_concatenation_keeps_both_halves(stream, k):
    # the copy begins one tick after the last end: no link or clique of the
    # two halves meets, not even at one instant
    c = (stream.span.t1 + 1 - stream.span.t0) if stream.links else 0
    both = LinkStream.from_links([*stream.links, *mapped(stream, shift=c)])
    once = compute_communities(stream, k)
    assert image(compute_communities(both, k)) == sorted(image(once) + image(once, shift=c))


def planted(mean_gap: float) -> LinkStream:
    """The seed-1 stream of a planted benchmark workload: 24 groups, delta 20."""
    text, _ = planted_contacts(1, 24, span=400 + 30 * 24, mean_gap=mean_gap)
    return parse_links(text, format="instantaneous", delta=20)


# Generated streams far past the oracle's limits: the default stream of
# scripts/k_sweep.py, and the seed-1 streams of the benchmark workloads.
LONG_STREAMS = {
    "k-sweep": lambda: synthetic_stream(60, 4000, 400, 25, 11, block=6),
    "sparse-k3": lambda: synthetic_stream(1000, 60_000, 6_000, 20, 1, block=10),
    "planted-k4": lambda: planted(9.0),
    "planted-nest": lambda: planted(18.0),
}


@pytest.mark.parametrize("name, k, count", [
    ("k-sweep", 3, 11),
    ("k-sweep", 4, 89),
    ("sparse-k3", 3, 817),
    ("planted-k4", 4, 29),
    ("planted-nest", 4, 179),
    ("planted-nest", 5, 396),
])
def test_relations_hold_on_long_streams(name, k, count):
    stream = LONG_STREAMS[name]()
    once = compute_communities(stream, k)
    assert len(once) == count  # not empty, so no relation below holds vacuously

    def run(links):
        return image(compute_communities(LinkStream.from_links(links), k))

    assert run(mapped(stream, shift=7)) == image(once, shift=7)
    ids = list(range(fresh_id(stream)))
    perm = dict(zip(ids, random.Random(k).sample(ids, len(ids))))
    assert run(mapped(stream, vertex=perm.__getitem__)) == image(once, vertex=perm.__getitem__)
    n = len(ids)
    assert run([*stream.links, *mapped(stream, vertex=lambda v: v + n)]) == \
        sorted(image(once) + image(once, vertex=lambda v: v + n))
    c = stream.span.t1 + 1 - stream.span.t0
    assert run([*stream.links, *mapped(stream, shift=c)]) == \
        sorted(image(once) + image(once, shift=c))
