"""Percolation of a chronological k-clique stream into temporal communities.

Each community is tracked as a union-find tree over anonymous community nodes.
For every clique vertex set C, each of its k subsets of size k - 1 keeps a
chronological list of memberships (node, [start, end]): the periods during
which that subset belongs to some community. A new clique joins the community
of every subset whose latest membership strictly overlaps the clique interval
(start < membership end), extending that membership in time; subsets with no
live membership get a fresh entry. Materializing resolves every node to its
root once and unions the member vertices' presence intervals.

compute_communities chains the stages in one chronological pass: cliques are
folded as enumeration yields them, so the full clique set is never held. The
search hands each clique to the fold as a plain (vertices, end, begin) tuple;
a TemporalKClique is built only for the callers of enumerate_k_cliques, and
process_k_clique and run_lscpm unwrap theirs into the same tuples, so one fold
loop serves all three. Each clique's end is the one its search carried as the
clique grew; the search drops a branch as soon as its end is <= its start, so
every clique folded here has positive length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator

from .cliques import TemporalKClique, _clique_keys
from .linkstream import Interval, LinkStream, Time, _union_spans

__all__ = [
    "UnionFind",
    "Membership",
    "PercolationState",
    "TemporalCommunity",
    "process_k_clique",
    "run_lscpm",
    "materialize",
    "compute_communities",
]


class UnionFind:
    """Disjoint-set forest with path halving; each root is its set's smallest id.

    Node ids are dense integers handed out by make_set in creation order.
    Linking the larger root under the smaller, with path halving, keeps find
    amortized logarithmic (Tarjan & van Leeuwen 1984) without ranks.
    """

    __slots__ = ("_parent",)

    def __init__(self):
        self._parent: list[int] = []

    def __len__(self) -> int:
        return len(self._parent)

    def make_set(self) -> int:
        node = len(self._parent)
        self._parent.append(node)
        return node

    def find(self, x: int) -> int:
        parent = self._parent
        if x < 0 or x >= len(parent):
            raise ValueError(f"unknown union-find id {x}")
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]  # point x at its grandparent, then step there
        return x

    def union(self, p: int, q: int) -> int:
        """Merge the sets of p and q and return the surviving root, the smaller id."""
        rp = self.find(p)
        rq = self.find(q)
        if rq < rp:
            rp, rq = rq, rp
        self._parent[rq] = rp  # the larger root hangs under the smaller; a no-op when equal
        return rp


@dataclass(slots=True)
class Membership:
    """One period during which a (k-1)-vertex set sits in the community of `node`."""

    node: int
    start: Time
    end: Time


@dataclass
class PercolationState:
    """Union-find plus the per-subset membership lists, for one value of k.

    A subset key missing from ``memberships`` behaves as the never-seen
    sentinel: its next clique always appends a fresh membership. Lists stay
    chronologically sorted with non-overlapping intervals and only their last
    entry is ever mutated.
    """

    k: int
    uf: UnionFind = field(default_factory=UnionFind, init=False)
    memberships: dict[tuple[int, ...], list[Membership]] = field(default_factory=dict, init=False)
    last_start: Time = field(default=float("-inf"), init=False, compare=False)


def process_k_clique(state: PercolationState, clique: TemporalKClique) -> None:
    """Fold one maximal k-clique into the percolation state.

    Cliques must arrive by non-decreasing start time; only then is checking a
    subset's *latest* membership enough to find every strictly positive
    overlap.
    """
    _fold(state, _keys((clique,)))


def run_lscpm(cliques: Iterable[TemporalKClique], k: int) -> PercolationState:
    """Percolate a chronological clique sequence; returns the final state."""
    if k < 3:
        raise ValueError(f"k must be at least 3, got {k}")
    state = PercolationState(k=k)
    _fold(state, _keys(cliques))
    return state


def _keys(cliques: Iterable[TemporalKClique]) -> Iterator[tuple[tuple[int, ...], Time, Time]]:
    """Each clique as the (vertices, end, begin) tuple _fold reads."""
    return ((c.vertices, c.interval.t1, c.interval.t0) for c in cliques)


def _fold(state: PercolationState, cliques: Iterable[tuple[tuple[int, ...], Time, Time]]) -> None:
    """Fold (vertices, end, begin) cliques into state, checking size and start order first.

    Subsets are visited by dropping vertex 0, 1, ..., k - 1 in turn, which is
    reversed lexicographic order. `root` is the root of the clique's community
    once one is known: the first live subset's root or the node made for the
    first lapsed one. Later live subsets are united with it when their roots
    differ; both arguments are roots then, so union's finds return at once.
    """
    k = state.k
    uf = state.uf
    find = uf.find
    union = uf.union
    make_set = uf.make_set
    memberships = state.memberships
    for verts, t1, t0 in cliques:
        if len(verts) != k:
            raise ValueError(f"expected a {k}-clique, got {len(verts)} vertices")
        if t0 < state.last_start:
            raise ValueError(f"clique starting at {t0!r} arrived after start {state.last_start!r}")
        state.last_start = t0
        root = -1
        for key in reversed(list(combinations(verts, k - 1))):
            entries = memberships.get(key)
            if entries is not None and t0 < entries[-1].end:
                # still in that community: extend the membership and merge
                last = entries[-1]
                if t1 > last.end:
                    last.end = t1
                r = find(last.node)
                if root == -1:
                    root = r
                elif r != root:
                    root = union(root, r)
            else:
                # not yet, or no longer, in any community: open a new membership
                if root == -1:
                    root = make_set()
                entry = Membership(root, t0, t1)
                if entries is None:
                    memberships[key] = [entry]
                else:
                    entries.append(entry)


@dataclass(frozen=True)
class TemporalCommunity:
    """A community label plus each member vertex's disjoint presence intervals."""

    id: int
    members: dict[int, tuple[Interval, ...]]

    def present_at(self, t: Time) -> set[int]:
        return {v for v, spans in self.members.items() if any(iv.t0 <= t <= iv.t1 for iv in spans)}

    def canonical(self) -> frozenset[tuple[int, tuple[tuple[Time, Time], ...]]]:
        """Label-free value for comparing communities across runs."""
        return frozenset(
            (v, tuple((iv.t0, iv.t1) for iv in spans)) for v, spans in self.members.items()
        )


def materialize(state: PercolationState) -> list[TemporalCommunity]:
    """Resolve the percolation state into concrete temporal communities.

    Every membership (node, [start, end]) of a subset key adds each vertex of
    the key to the community of node's root over [start, end]; per-vertex
    intervals are then unioned, merging overlapping or touching spans.
    Communities are labeled 0..c-1 in order of their root, which is the
    smallest node id of the set: creation order, following clique start times.
    """
    uf = state.uf
    roots = [uf.find(node) for node in range(len(uf))]
    spans_by_root: dict[int, dict[int, list[tuple[Time, Time]]]] = {}
    for key, entries in state.memberships.items():
        for m in entries:
            vertex_spans = spans_by_root.setdefault(roots[m.node], {})
            span = (m.start, m.end)  # one tuple for all of the key's vertices
            for v in key:
                vertex_spans.setdefault(v, []).append(span)
    communities: list[TemporalCommunity] = []
    for _, vertex_spans in sorted(spans_by_root.items()):
        members = {v: tuple(Interval(s, e) for s, e in _union_spans(spans))
                   for v, spans in sorted(vertex_spans.items())}
        communities.append(TemporalCommunity(len(communities), members))
    return communities


def compute_communities(stream: LinkStream, k: int) -> list[TemporalCommunity]:
    """End-to-end: links in, materialized temporal communities out.

    Folds the search's (vertices, end, begin) tuples as they come, with no
    TemporalKClique built; equal to
    materialize(run_lscpm(enumerate_k_cliques(stream, k), k)), errors included.
    """
    return _communities(stream.links, k)


def _communities(links: Iterable[tuple[Time, Time, int, int]], k: int) -> list[TemporalCommunity]:
    """compute_communities on any (b, e, u, v) links, u < v, drawn one at a time."""
    state = PercolationState(k=k)
    _fold(state, _clique_keys(links, k))
    return materialize(state)
