"""Brute-force reference implementations, used only for correctness checking.

Everything here recomputes results straight from the definitions: maximal
k-cliques by intersecting per-pair interval sets, communities by building the
explicit clique-adjacency graph and walking its connected components, and
snapshot percolation on the static graph alive at one instant. None of it
shares algorithmic machinery with the streaming path: Interval is read here
only for its endpoints. The brute-force parts are not meant to be fast, but
compare_communities also serves `lscpm compare` on full results, so
_all_contained finds containment through a vertex index.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

from .cliques import TemporalKClique
from .linkstream import Interval, LinkStream, Time
from .percolate import TemporalCommunity

__all__ = [
    "oracle_enumerate",
    "oracle_communities",
    "snapshot_cpm",
    "compare_communities",
    "ComparisonReport",
    "is_clique",
    "can_start_earlier",
    "can_end_later",
    "community_contains",
    "containing_communities",
]

MAX_ORACLE_VERTICES = 20
MAX_ORACLE_LINKS = 200
# Even 20 vertices can hold C(20, 10) cliques, and snapshot adjacency is
# quadratic in the clique count, so that count is bounded too.
MAX_SNAPSHOT_CLIQUES = 2000


def _check_size(stream: LinkStream) -> None:
    if stream.n_vertices > MAX_ORACLE_VERTICES or len(stream.links) > MAX_ORACLE_LINKS:
        raise ValueError(
            f"instance too large for the brute-force oracle:"
            f" {stream.n_vertices} vertices, {len(stream.links)} links"
        )


PairSpans = dict[tuple[int, int], list[tuple[Time, Time]]]


def pair_spans(stream: LinkStream) -> PairSpans:
    """Per-pair sorted (b, e) spans; build once when checking many cliques."""
    spans: PairSpans = {}
    for ln in stream.links:
        spans.setdefault(ln.pair, []).append((ln.b, ln.e))
    for lst in spans.values():
        lst.sort()
    return spans


def _intersect(a: list[tuple[Time, Time]], b: list[tuple[Time, Time]]) -> list[tuple[Time, Time]]:
    """Intersection of two closed-interval sets, each sorted and disjoint."""
    out: list[tuple[Time, Time]] = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo <= hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def _vertex_subsets_with_support(
    adj: dict[int, set[int]], k: int
) -> list[tuple[int, ...]]:
    """k-subsets whose pairs all carry at least one link, in sorted order."""
    found: list[tuple[int, ...]] = []

    def grow(prefix: tuple[int, ...], cand: list[int], need: int) -> None:
        if need == 0:
            found.append(prefix)
            return
        for idx, w in enumerate(cand):
            if len(cand) - idx < need:
                break
            grow(prefix + (w,), [x for x in cand[idx + 1 :] if x in adj[w]], need - 1)

    grow((), sorted(adj), k)
    return found


def oracle_enumerate(stream: LinkStream, k: int) -> set[TemporalKClique]:
    """Maximal k-cliques computed by definition, for small instances only.

    For each candidate vertex set, intersect the interval sets of all its
    pairs; every maximal positive-length component of the intersection is one
    maximal k-clique.
    """
    if k < 3:
        raise ValueError(f"k must be at least 3, got {k}")
    _check_size(stream)
    spans = pair_spans(stream)
    adj: dict[int, set[int]] = {}
    for u, v in spans:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    out: set[TemporalKClique] = set()
    for c in _vertex_subsets_with_support(adj, k):
        pieces: list[tuple[Time, Time]] | None = None
        for pair in combinations(c, 2):
            pieces = spans[pair] if pieces is None else _intersect(pieces, spans[pair])
            if not pieces:
                break
        for lo, hi in pieces or ():
            if hi > lo:
                out.add(TemporalKClique(c, Interval(lo, hi)))
    return out


def _adjacent(a: TemporalKClique, b: TemporalKClique, k: int) -> bool:
    shared = len(set(a.vertices) & set(b.vertices))
    return shared == k - 1 and max(a.interval.t0, b.interval.t0) < min(a.interval.t1, b.interval.t1)


def _components(n: int, adjacent: Callable[[int, int], bool]) -> list[list[int]]:
    """Connected components of nodes 0..n-1, joined where adjacent(i, j).

    Each pair is tested once, with i < j. Components come in order of their
    smallest node, each listing its nodes in depth-first visiting order.
    """
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if adjacent(i, j):
                neighbors[i].append(j)
                neighbors[j].append(i)
    seen = [False] * n
    components: list[list[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in neighbors[i]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        components.append(comp)
    return components


def oracle_communities(
    cliques: Sequence[TemporalKClique], k: int
) -> tuple[list[list[TemporalKClique]], list[TemporalCommunity]]:
    """Partition cliques into communities via the explicit adjacency graph.

    Two cliques are adjacent when they share k - 1 vertices and their
    intervals overlap with strictly positive length. Returns the clique
    partition (one list per connected component) and the materialized
    temporal communities.
    """
    cliques = list(cliques)
    components = _components(len(cliques), lambda i, j: _adjacent(cliques[i], cliques[j], k))
    components.sort(key=lambda comp: min((cliques[i].interval.t0, cliques[i].vertices) for i in comp))
    partition = [[cliques[i] for i in sorted(comp)] for comp in components]
    communities = []
    for label, group in enumerate(partition):
        vertex_spans: dict[int, list[tuple[Time, Time]]] = {}
        for cl in group:
            for v in cl.vertices:
                vertex_spans.setdefault(v, []).append((cl.interval.t0, cl.interval.t1))
        members = {v: _merge(spans) for v, spans in sorted(vertex_spans.items())}
        communities.append(TemporalCommunity(label, members))
    return partition, communities


def _merge(spans: list[tuple[Time, Time]]) -> tuple[Interval, ...]:
    spans.sort()
    out: list[list[Time]] = []
    for s, e in spans:
        if out and s <= out[-1][1]:
            if e > out[-1][1]:
                out[-1][1] = e
        else:
            out.append([s, e])
    return tuple(Interval(s, e) for s, e in out)


def snapshot_cpm(stream: LinkStream, t: Time, k: int) -> list[frozenset[int]]:
    """Static clique-percolation communities of the graph alive at time t.

    A link is alive over [b, e) here: a link ending exactly at t is already
    gone, mirroring strict window expiry. Raises ValueError when the graph
    alive at t has more than MAX_ORACLE_VERTICES vertices or more than
    MAX_SNAPSHOT_CLIQUES k-cliques.
    """
    adj: dict[int, set[int]] = {}
    for ln in stream.links:
        if ln.b <= t < ln.e:
            adj.setdefault(ln.u, set()).add(ln.v)
            adj.setdefault(ln.v, set()).add(ln.u)
    if len(adj) > MAX_ORACLE_VERTICES:
        raise ValueError(
            f"snapshot at t={t!r} too large for the brute-force oracle:"
            f" {len(adj)} alive vertices, limit {MAX_ORACLE_VERTICES}"
        )
    cliques = _vertex_subsets_with_support(adj, k)
    n = len(cliques)
    if n > MAX_SNAPSHOT_CLIQUES:
        raise ValueError(
            f"snapshot at t={t!r} too large for the brute-force oracle:"
            f" {n} {k}-cliques, limit {MAX_SNAPSHOT_CLIQUES}"
        )
    sets = [set(c) for c in cliques]
    components = _components(n, lambda i, j: len(sets[i] & sets[j]) == k - 1)
    out = [frozenset().union(*(sets[i] for i in comp)) for comp in components]
    out.sort(key=lambda c: sorted(c))
    return out


def _cover(spans: PairSpans, u: int, v: int, interval: Interval) -> tuple[Time, Time] | None:
    pair = (u, v) if u < v else (v, u)
    for b, e in spans.get(pair, ()):
        if b <= interval.t0 and interval.t1 <= e:
            return (b, e)
        if b > interval.t0:
            break
    return None


def _covers(stream: LinkStream, vertices: Sequence[int], interval: Interval,
            spans: PairSpans | None) -> list[tuple[Time, Time] | None]:
    """Each vertex pair's link covering interval, None where no link does."""
    spans = spans if spans is not None else pair_spans(stream)
    return [_cover(spans, u, v, interval) for u, v in combinations(vertices, 2)]


def is_clique(
    stream: LinkStream, vertices: Sequence[int], interval: Interval, spans: PairSpans | None = None
) -> bool:
    """Definition check: every pair covered by one link, positive length."""
    if len(vertices) < 2 or not interval.t0 < interval.t1:
        return False
    return None not in _covers(stream, vertices, interval, spans)


def can_start_earlier(
    stream: LinkStream, clique: TemporalKClique, spans: PairSpans | None = None
) -> bool:
    """True when some earlier start would still leave a clique.

    Equivalent to every pair's covering link beginning strictly before t0;
    the check is exact, no epsilon is involved.
    """
    covers = _covers(stream, clique.vertices, clique.interval, spans)
    return all(c is not None and c[0] < clique.interval.t0 for c in covers)


def can_end_later(
    stream: LinkStream, clique: TemporalKClique, spans: PairSpans | None = None
) -> bool:
    """True when some later end would still leave a clique."""
    covers = _covers(stream, clique.vertices, clique.interval, spans)
    return all(c is not None and c[1] > clique.interval.t1 for c in covers)


@dataclass(frozen=True)
class ComparisonReport:
    """Label-invariant comparison of two community lists."""

    equal: bool
    a_in_b: bool
    b_in_a: bool
    diffs: tuple[str, ...]

    @property
    def refinement(self) -> str:
        if self.equal:
            return "equal"
        if self.a_in_b and self.b_in_a:
            return "mutual"
        if self.a_in_b:
            return "a ⊆ b"
        if self.b_in_a:
            return "b ⊆ a"
        return "none"


def community_contains(outer: TemporalCommunity, inner: TemporalCommunity) -> bool:
    """Vertex-and-interval containment of inner within outer."""
    for v, spans in inner.members.items():
        outer_spans = outer.members.get(v)
        if outer_spans is None:
            return False
        for iv in spans:
            if not any(o.t0 <= iv.t0 and iv.t1 <= o.t1 for o in outer_spans):
                return False
    return True


def containing_communities(
    inner: TemporalCommunity, outers: Sequence[TemporalCommunity]
) -> list[int]:
    return [i for i, outer in enumerate(outers) if community_contains(outer, inner)]


def _all_contained(
    inners: Sequence[TemporalCommunity], outers: Sequence[TemporalCommunity]
) -> bool:
    """Whether each inner community lies in some outer one (community_contains).

    Only the outer communities holding an inner community's first member can
    contain it, so an index from vertex to those communities replaces the scan
    of the whole outer list. An empty inner community lies in any outer one.
    """
    holding: dict[int, list[TemporalCommunity]] = {}
    for o in outers:
        for v in o.members:
            holding.setdefault(v, []).append(o)
    for x in inners:
        if not x.members:
            if not outers:
                return False
            continue
        first = next(iter(x.members))
        if not any(community_contains(o, x) for o in holding.get(first, ())):
            return False
    return True


def compare_communities(
    a: Sequence[TemporalCommunity], b: Sequence[TemporalCommunity]
) -> ComparisonReport:
    """Compare two community lists as label-free multisets, with containment."""
    canon_a = Counter(c.canonical() for c in a)
    canon_b = Counter(c.canonical() for c in b)
    equal = canon_a == canon_b
    a_in_b = _all_contained(a, b)
    b_in_a = _all_contained(b, a)
    diffs: list[str] = []
    if not equal:
        only_a = sum(n for c, n in canon_a.items() if c not in canon_b)
        only_b = sum(n for c, n in canon_b.items() if c not in canon_a)
        if only_a:
            diffs.append(f"{only_a} community(ies) only on side a")
        if only_b:
            diffs.append(f"{only_b} community(ies) only on side b")
    return ComparisonReport(equal, a_in_b, b_in_a, tuple(diffs))
