"""Percolation of a chronological k-clique stream into temporal communities.

Each community is tracked as a union-find tree over anonymous community nodes.
For every clique vertex set C, each of its k subsets of size k - 1 keeps a
chronological list of memberships (node, [start, end]): the periods during
which that subset belongs to some community. A new clique joins the community
of every subset whose latest membership strictly overlaps the clique interval
(start < membership end), extending that membership in time; subsets with no
live membership get a fresh entry. Materializing resolves every membership
node to its root and unions the member vertices' presence intervals.

compute_communities chains the stages in one chronological pass: cliques are
folded as enumeration yields them, so the full clique set is never held.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .cliques import TemporalKClique, enumerate_k_cliques
from .linkstream import Interval, LinkStream, Time

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
    """Disjoint-set forest with union by rank and path compression.

    Node ids are dense integers handed out by make_set in creation order.
    union accepts -1 as a no-op left operand so callers can fold over it.
    """

    __slots__ = ("_parent", "_rank")

    def __init__(self):
        self._parent: list[int] = []
        self._rank: list[int] = []

    def __len__(self) -> int:
        return len(self._parent)

    def make_set(self) -> int:
        node = len(self._parent)
        self._parent.append(node)
        self._rank.append(0)
        return node

    def find(self, x: int) -> int:
        parent = self._parent
        if x < 0 or x >= len(parent):
            raise ValueError(f"unknown union-find id {x}")
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, p: int, q: int) -> int:
        """Merge the sets of p and q and return the surviving root.

        With p == -1 this is just find(q): no structural change.
        """
        rq = self.find(q)
        if p == -1:
            return rq
        rp = self.find(p)
        if rp == rq:
            return rp
        rank = self._rank
        if rank[rp] < rank[rq]:
            rp, rq = rq, rp
        self._parent[rq] = rp
        if rank[rp] == rank[rq]:
            rank[rp] += 1
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
    uf: UnionFind = field(default_factory=UnionFind)
    memberships: dict[tuple[int, ...], list[Membership]] = field(default_factory=dict)
    last_start: Time | None = field(default=None, compare=False)


def process_k_clique(state: PercolationState, clique: TemporalKClique) -> None:
    """Fold one maximal k-clique into the percolation state.

    Cliques must arrive by non-decreasing start time; only then is checking a
    subset's *latest* membership enough to find every strictly positive
    overlap.
    """
    t0, t1 = clique.interval.t0, clique.interval.t1
    verts = clique.vertices
    if len(verts) != state.k:
        raise ValueError(f"expected a {state.k}-clique, got {len(verts)} vertices")
    if state.last_start is not None and t0 < state.last_start:
        raise ValueError(f"clique starting at {t0!r} arrived after start {state.last_start!r}")
    state.last_start = t0
    uf = state.uf
    memberships = state.memberships
    p = -1
    for i in range(len(verts)):
        key = verts[:i] + verts[i + 1 :]
        entries = memberships.get(key)
        if entries is not None and t0 < entries[-1].end:
            # still in that community: extend the membership and merge
            last = entries[-1]
            if t1 > last.end:
                last.end = t1
            p = uf.union(p, last.node)
        else:
            # not yet, or no longer, in any community: open a new membership
            if p == -1:
                p = uf.make_set()
            entry = Membership(p, t0, t1)
            if entries is None:
                memberships[key] = [entry]
            else:
                entries.append(entry)


def run_lscpm(cliques: Iterable[TemporalKClique], k: int) -> PercolationState:
    """Percolate a chronological clique sequence; returns the final state."""
    if k < 3:
        raise ValueError(f"k must be at least 3, got {k}")
    state = PercolationState(k=k)
    for clique in cliques:
        process_k_clique(state, clique)
    return state


@dataclass(frozen=True)
class TemporalCommunity:
    """A community label plus each member vertex's disjoint presence intervals."""

    id: int
    members: dict[int, tuple[Interval, ...]]

    def present_at(self, t: Time) -> set[int]:
        return {
            v for v, spans in self.members.items() if any(iv.contains_time(t) for iv in spans)
        }

    def canonical(self) -> frozenset[tuple[int, tuple[tuple[Time, Time], ...]]]:
        """Label-free value for comparing communities across runs."""
        return frozenset(
            (v, tuple((iv.t0, iv.t1) for iv in spans)) for v, spans in self.members.items()
        )


def materialize(state: PercolationState) -> list[TemporalCommunity]:
    """Resolve the percolation state into concrete temporal communities.

    Every membership (node, [start, end]) of a subset key adds each vertex of
    the key to the community find(node) over [start, end]; per-vertex
    intervals are then unioned, merging overlapping or touching spans.
    Communities are labeled 0..c-1 by first appearance (node creation order
    follows clique start times).
    """
    uf = state.uf
    spans_by_root: dict[int, dict[int, list[tuple[Time, Time]]]] = {}
    first_node: dict[int, int] = {}
    for key, entries in state.memberships.items():
        for m in entries:
            root = uf.find(m.node)
            if root not in first_node or m.node < first_node[root]:
                first_node[root] = m.node
            vertex_spans = spans_by_root.setdefault(root, {})
            for v in key:
                vertex_spans.setdefault(v, []).append((m.start, m.end))
    communities: list[TemporalCommunity] = []
    for label, root in enumerate(sorted(spans_by_root, key=first_node.__getitem__)):
        members = {
            v: _merge_spans(spans) for v, spans in sorted(spans_by_root[root].items())
        }
        communities.append(TemporalCommunity(label, members))
    return communities


def compute_communities(stream: LinkStream, k: int) -> list[TemporalCommunity]:
    """End-to-end: links in, materialized temporal communities out."""
    return materialize(run_lscpm(enumerate_k_cliques(stream, k), k))


def _merge_spans(spans: list[tuple[Time, Time]]) -> tuple[Interval, ...]:
    spans.sort()
    merged: list[list[Time]] = []
    for s, e in spans:
        if merged and s <= merged[-1][1]:  # touching spans merge too
            if e > merged[-1][1]:
                merged[-1][1] = e
        else:
            merged.append([s, e])
    return tuple(Interval(s, e) for s, e in merged)
