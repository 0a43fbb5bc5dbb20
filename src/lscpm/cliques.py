"""Streaming enumeration of all maximal k-cliques of a link stream.

One chronological pass over the links maintains the window graph of currently
alive edges: each vertex maps every live neighbor to the end of the link they
share, and the edges ending before a new begin time are dropped once per
distinct begin time, from one bucket of pairs per end time. Each incoming link
(b, e, u, v) with a live neighbor at both ends triggers a static k-clique search
around {u, v}: one recursion in increasing vertex id, the same for every k,
lists the (k - 2)-cliques among the common neighbors of u and v. Its last
level closes cliques in place: for k >= 4 each linked pair of remaining
candidates completes one clique without a further call. A found vertex
set C becomes the temporal clique (C, [b, min end time over the edges of C]).
The search carries that end time as the clique grows and drops a branch as
soon as its end is <= b, so candidates of zero length never form (a clique
needs a strictly positive interval). A maximal clique begins when the last of
its links begins, so with the links sorted and disjoint on each pair (the pass
raises ValueError at the first link that is not), the link that completes it
finds it exactly once: the output is exactly the set of maximal k-cliques,
emitted by non-decreasing start time.

The search hands each clique on as a plain (vertices, end, begin) tuple;
compute_communities folds those tuples directly. A TemporalKClique is built
only for the callers of enumerate_k_cliques.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .linkstream import Interval, Link, LinkStream, Time

__all__ = [
    "TemporalKClique",
    "WindowGraph",
    "cliques_containing_edge",
    "enumerate_k_cliques",
]


@dataclass(frozen=True, slots=True)
class TemporalKClique:
    """k vertices pairwise linked throughout a maximal positive interval."""

    vertices: tuple[int, ...]  # strictly increasing
    interval: Interval


class WindowGraph:
    """Static graph of the links alive at the current stream position.

    ``adj`` maps each vertex to a dict from each live neighbor to the end of
    the link they share, so one lookup answers both "linked?" and "until
    when?"; a vertex with no live neighbor has no entry. Expiry keeps one
    bucket of pairs per distinct end time and a heap of those end times, so
    the heap is touched once per end time, not once per link. A bucket entry
    whose pair was re-added with another end, or already dropped, is stale
    and skipped.
    """

    __slots__ = ("adj", "_buckets", "_ends", "_live")

    def __init__(self):
        self.adj: dict[int, dict[int, Time]] = {}
        self._buckets: dict[Time, list[tuple[int, int]]] = {}
        self._ends: list[Time] = []  # heap of the keys of _buckets
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def add(self, link: Link) -> None:
        _, e, u, v = link
        adj = self.adj
        nu = adj.get(u)
        if nu is None:
            adj[u] = {v: e}
            self._live += 1
        else:
            if v not in nu:
                self._live += 1
            nu[v] = e
        nv = adj.get(v)
        if nv is None:
            adj[v] = {u: e}
        else:
            nv[u] = e
        bucket = self._buckets.get(e)
        if bucket is None:
            self._buckets[e] = [(u, v)]
            heapq.heappush(self._ends, e)
        else:
            bucket.append((u, v))

    def expire(self, b: Time) -> None:
        """Drop every edge ending strictly before b; an edge ending at b survives."""
        ends = self._ends
        buckets = self._buckets
        adj = self.adj
        while ends and ends[0] < b:
            e = heapq.heappop(ends)
            for u, v in buckets.pop(e):
                nu = adj.get(u)
                if nu is None or nu.get(v) != e:
                    continue  # dropped already, or superseded by a later link on the pair
                if len(nu) == 1:
                    del adj[u]
                else:
                    del nu[v]
                nv = adj[v]
                if len(nv) == 1:
                    del adj[v]
                else:
                    del nv[u]
                self._live -= 1


def cliques_containing_edge(g: WindowGraph, u: int, v: int, k: int) -> list[tuple[int, ...]]:
    """All size-k vertex sets forming a static clique in g and containing {u, v}.

    Reduces to listing (k - 2)-cliques of the subgraph induced by the common
    neighbors of u and v, by one recursion in increasing vertex id for every
    k, with u and v in either order. This is the search enumeration runs,
    without its end-time cut-off.
    """
    if k < 3:
        raise ValueError(f"k must be at least 3, got {k}")
    return [c for c, _, _ in _search(g, u, v, k, math.inf, -math.inf)]


def _search(g: WindowGraph, u: int, v: int, k: int, e: Time,
            b: Time) -> list[tuple[tuple[int, ...], Time, Time]]:
    """(clique, end, b) for each k-clique of g on the pair {u, v} whose end is > b.

    A clique's end is the earliest end time over its edges, with e standing in
    for the edge (u, v); _grow caps every end with e. The common neighbors of
    u and v, found by walking the smaller neighbor map and probing the larger,
    whose triangle ends after b seed _grow, which extends the clique for every
    k and sorts each one, so u and v may come in either order. Each vertex
    added to a partial clique lowers the end by its edges to the vertices
    already in it, and a branch is dropped as soon as its end is <= b.
    """
    adj = g.adj
    small = adj.get(u)
    large = adj.get(v)
    if not small or not large:
        return []
    if len(small) > len(large):
        small, large = large, small
    live: list[tuple[int, Time]] = []  # common neighbor, end of the triangle it closes
    for w, ew in small.items():
        ev = large.get(w)
        if ev is None:
            continue
        if ev < ew:
            ew = ev
        if ew > b:
            live.append((w, ew))
    if not live:
        return []
    live.sort()
    found: list[tuple[tuple[int, ...], Time, Time]] = []
    _grow(adj, (u, v), live, k - 2, e, b, found)
    return found


def _grow(adj: dict[int, dict[int, Time]], group: tuple[int, ...], cand: list[tuple[int, Time]],
          need: int, end: Time, b: Time, found: list[tuple[tuple[int, ...], Time, Time]]) -> None:
    """Append every clique of group plus `need` vertices of the id-sorted `cand`.

    `end` is the end of group and each candidate carries the end of its edges
    to group. Each step takes a vertex and keeps only its neighbors of higher
    id as the next candidates, so every clique is built once, in increasing id
    order. With one vertex left to add, each candidate closes one clique. With
    two left, each linked pair of candidates closes one in place, without the
    call a one-vertex level would cost; k = 3 enters at one vertex, every
    larger k ends at two.
    """
    if need == 1:
        for x, ex in cand:
            found.append((tuple(sorted(group + (x,))), end if ex > end else ex, b))
        return
    for i in range(len(cand) - need + 1):
        x, ex = cand[i]
        if ex > end:
            ex = end
        nx = adj[x]
        gx = group + (x,)
        if need == 2:
            for y, ey in cand[i + 1:]:
                exy = nx.get(y)
                if exy is None:
                    continue
                if exy < ey:
                    if exy <= b:
                        continue
                    ey = exy
                found.append((tuple(sorted(gx + (y,))), ex if ey > ex else ey, b))
            continue
        nxt = []
        for y, ey in cand[i + 1:]:
            exy = nx.get(y)
            if exy is None:
                continue
            if exy < ey:
                if exy <= b:
                    continue
                ey = exy
            nxt.append((y, ey))
        _grow(adj, gx, nxt, need - 1, ex, b, found)


def enumerate_k_cliques(stream: LinkStream, k: int) -> Iterator[TemporalKClique]:
    """Yield every maximal k-clique of the stream, by non-decreasing start time.

    Wraps each (vertices, end, begin) key of _clique_keys into a
    TemporalKClique; compute_communities folds the keys themselves. Raises
    ValueError, after the cliques that begin earlier, at the first link that
    validate() would report as unsorted or as a pair-overlap.
    """
    for c, end, b in _clique_keys(stream.links, k):
        yield TemporalKClique(c, Interval(b, end))


def _clique_keys(links: Iterable[tuple[Time, Time, int, int]],
                 k: int) -> Iterator[tuple[tuple[int, ...], Time, Time]]:
    """Yield (vertices, end, begin) for every maximal k-clique, by non-decreasing begin.

    ``links``: any (b, e, u, v), u < v, drawn one at a time. Cliques sharing a
    begin time are buffered as keys until the time advances; each batch is
    yielded in key order. Raises ValueError at a begin below the previous one
    and at a link whose pair is still in the window once the edges ending
    before its begin are dropped, as its previous link overlaps, touches or
    repeats it: the rules of parse_links and validate().

    A time may be written two ways, such as 5 and 5.0. A clique takes its
    begin from the link that completes it and its end from the first of its
    edges, in vertex-id order, that ends then. The search carries ends by
    value, so that edge is looked up once a non-integer end has been seen.
    """
    if k < 3:
        raise ValueError(f"k must be at least 3, got {k}")
    g = WindowGraph()
    adj = g.adj
    pending: list[tuple[tuple[int, ...], Time, Time]] = []
    current_b: Time | None = None
    exact = False  # a non-integer end time has been seen
    for link in links:
        b, e, u, v = link
        if b != current_b:
            if current_b is not None and b < current_b:
                raise ValueError(f"link {link!r} begins before {current_b!r}: links must be sorted")
            if pending:
                yield from sorted(pending)
                pending.clear()
            current_b = b
            # a link never ends before it begins, so none of time b's links expire at b
            g.expire(b)
        # an endpoint with no other live neighbor closes no clique
        linked = u in adj and v in adj
        if linked and v in adj[u]:
            raise ValueError(f"link {link!r} begins at or before {adj[u][v]!r}, the end of the"
                             " previous link on its pair: links on a pair must be disjoint")
        g.add(link)
        if e <= b:
            # a zero-duration link cannot support a positive-length clique
            continue
        if type(e) is not int:
            exact = True  # before the skip: this end may become a later clique's end
        if not linked:
            continue
        # a clique whose end is <= b dies the moment this link begins
        found = _search(g, u, v, k, e, b)
        if found:
            if exact:
                found = [(c, _first_end(adj, c, end), b) for c, end, _ in found]
            pending += found
    yield from sorted(pending)


def _first_end(adj: dict[int, dict[int, Time]], c: tuple[int, ...], end: Time) -> Time:
    """end as written on the first edge of c, in vertex-id order, that ends then."""
    return next(adj[x][y] for x, y in combinations(c, 2) if adj[x][y] == end)
