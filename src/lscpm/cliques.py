"""Streaming enumeration of all maximal k-cliques of a link stream.

One chronological pass over the links maintains the window graph of currently
alive edges. Each incoming link (b, e, u, v) triggers a static k-clique search
around {u, v}; a found vertex set C becomes the temporal clique
(C, [b, min end time over the edges of C]). Candidates of zero length are
dropped (a clique needs a strictly positive interval) and candidates sharing a
begin time are deduplicated, so the output is exactly the set of maximal
k-cliques, emitted by non-decreasing start time.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .linkstream import Interval, Link, LinkStream, Time

__all__ = [
    "TemporalKClique",
    "WindowGraph",
    "cliques_containing_edge",
    "enumerate_k_cliques",
]

_EMPTY: frozenset[int] = frozenset()


@dataclass(frozen=True, slots=True)
class TemporalKClique:
    """k vertices pairwise linked throughout a maximal positive interval."""

    vertices: tuple[int, ...]  # strictly increasing
    interval: Interval


class WindowGraph:
    """Static graph of the links alive at the current stream position.

    ``end_time`` keeps the ending time of each alive edge; expiry pops a heap
    of (end, u, v) entries, skipping entries made stale by a later re-add of
    the same pair.
    """

    __slots__ = ("adj", "end_time", "_expiry")

    def __init__(self):
        self.adj: dict[int, set[int]] = {}
        self.end_time: dict[tuple[int, int], Time] = {}
        self._expiry: list[tuple[Time, int, int]] = []

    def __len__(self) -> int:
        return len(self.end_time)

    def add(self, link: Link) -> None:
        _, e, u, v = link
        self.adj.setdefault(u, set()).add(v)
        self.adj.setdefault(v, set()).add(u)
        self.end_time[u, v] = e
        heapq.heappush(self._expiry, (e, u, v))

    def expire(self, b: Time) -> None:
        """Drop every edge ending strictly before b; an edge ending at b survives."""
        q = self._expiry
        end_time = self.end_time
        adj = self.adj
        while q and q[0][0] < b:
            e, u, v = heapq.heappop(q)
            if end_time.get((u, v)) != e:
                continue  # superseded by a later link on the same pair
            del end_time[u, v]
            nu = adj[u]
            nu.discard(v)
            if not nu:
                del adj[u]
            nv = adj[v]
            nv.discard(u)
            if not nv:
                del adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.end_time

    def neighbors(self, u: int) -> frozenset[int]:
        got = self.adj.get(u)
        return frozenset(got) if got is not None else _EMPTY


def cliques_containing_edge(g: WindowGraph, u: int, v: int, k: int) -> list[tuple[int, ...]]:
    """All size-k vertex sets forming a static clique in g and containing {u, v}.

    Reduces to listing (k - 2)-cliques of the subgraph induced by the common
    neighbors of u and v: plain vertices for k = 3, edges for k = 4, and a
    recursion in increasing vertex id for k >= 5.
    """
    if k < 3:
        raise ValueError(f"k must be at least 3, got {k}")
    nu = g.adj.get(u)
    nv = g.adj.get(v)
    if not nu or not nv:
        return []
    common = nu & nv
    if not common:
        return []
    found: list[tuple[int, ...]] = []
    if k == 3:
        for w in common:
            found.append(tuple(sorted((u, v, w))))
    elif k == 4:
        adj = g.adj
        for w in common:
            for x in adj[w] & common:
                if w < x:
                    found.append(tuple(sorted((u, v, w, x))))
    else:
        _grow(g.adj, (u, v), sorted(common), k - 2, found)
    return found


def _grow(adj: dict[int, set[int]], group: tuple[int, ...], cand: list[int], need: int,
          found: list[tuple[int, ...]]) -> None:
    """Append every clique of group plus `need` vertices of the id-sorted `cand`.

    Each step takes a vertex and keeps only its neighbors of higher id as the
    next candidates, so every clique is built once, in increasing id order.
    """
    if need == 0:
        found.append(tuple(sorted(group)))
        return
    for i in range(len(cand) - need + 1):
        nw = adj[cand[i]]
        _grow(adj, group + (cand[i],), [x for x in cand[i + 1:] if x in nw], need - 1, found)


def enumerate_k_cliques(stream: LinkStream, k: int) -> Iterator[TemporalKClique]:
    """Yield every maximal k-clique of the stream, by non-decreasing start time.

    Cliques sharing a begin time are buffered until the time advances, then
    emitted in (vertex set, end) order; the same buffer deduplicates repeat
    discoveries within the batch.
    """
    if k < 3:
        raise ValueError(f"k must be at least 3, got {k}")
    g = WindowGraph()
    end_time = g.end_time
    pending: list[TemporalKClique] = []
    seen: set[tuple[tuple[int, ...], Time]] = set()
    current_b: Time | None = None
    for link in stream.links:
        b, e, u, v = link
        if current_b is not None and b != current_b:
            pending.sort(key=_batch_key)
            yield from pending
            pending.clear()
            seen.clear()
        current_b = b
        g.add(link)
        g.expire(b)
        if e <= b:
            # a zero-duration link cannot support a positive-length clique
            continue
        for c in cliques_containing_edge(g, u, v, k):
            end = min(end_time[p] for p in combinations(c, 2))
            if end <= b:
                continue  # some edge of the clique dies the moment this link begins
            key = (c, end)
            if key in seen:
                continue
            seen.add(key)
            pending.append(TemporalKClique(c, Interval(b, end)))
    pending.sort(key=_batch_key)
    yield from pending


def _batch_key(c: TemporalKClique) -> tuple[tuple[int, ...], Time]:
    return (c.vertices, c.interval.t1)
