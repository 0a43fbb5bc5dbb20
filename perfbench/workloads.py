"""Benchmark workloads: seeded input files, their reference results and set-up checks.

A workload is a generated input file plus the ``lscpm`` subcommand a user
runs on it. Set-up writes the file, parses it, computes the reference result
with the sequential library path (enumerate, fold, materialize) and checks a
small slice of it against the brute-force oracle. Every later CLI run and
library run is checked against that reference.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from lscpm import (
    LinkStream,
    TemporalCommunity,
    compare_communities,
    compute_communities,
    enumerate_k_cliques,
    materialize,
    oracle_communities,
    oracle_enumerate,
    parse_links,
    run_lscpm,
    serialize,
    synthetic_stream,
)
from lscpm.oracle import MAX_ORACLE_LINKS, MAX_ORACLE_VERTICES

from planted import PlantedGroup, planted_contacts

DELTA = 20
BLOCK = 10  # vertex block size of the bounded-degree generator


class SetupError(RuntimeError):
    """The generated workload cannot exercise what it was chosen to load."""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "communities" or "compare"
    ks: tuple[int, ...]  # k for communities; (k1, k2) for compare
    delta: int | None  # None: durational input
    size: int  # generator size at full scale
    smoke_size: int  # generator size for the benchmark's own tests
    make: Callable[[int, int], tuple[str, list[PlantedGroup] | None]]

    def cli_args(self) -> list[str]:
        if self.command == "communities":
            args = ["communities", "--k", str(self.ks[0])]
        else:
            args = ["compare", "--k1", str(self.ks[0]), "--k2", str(self.ks[1])]
        if self.delta is not None:
            args += ["--delta", str(self.delta)]
        return args

    def parse(self, text: str) -> LinkStream:
        if self.delta is None:
            return parse_links(text)
        return parse_links(text, format="instantaneous", delta=self.delta)


def _sparse(seed: int, n: int) -> tuple[str, None]:
    # the bounded-degree stream of the scaling criterion, as a durational file
    return serialize(synthetic_stream(1000, n, n // 10, DELTA, seed, block=BLOCK)), None


def _planted_dense(seed: int, groups: int) -> tuple[str, list[PlantedGroup]]:
    # a mean contact gap under delta keeps links long and groups dense
    return planted_contacts(seed, groups, span=400 + 30 * groups, mean_gap=9.0)


def _planted_sparse(seed: int, groups: int) -> tuple[str, list[PlantedGroup]]:
    # a mean contact gap near delta breaks k=5 cliques into many small communities
    return planted_contacts(seed, groups, span=400 + 30 * groups, mean_gap=18.0)


# sparse-k3 loads parsing and window upkeep and bypasses percolation (few
# cliques, almost no merges); planted-k4 loads the k=4 clique search, the
# union-find fold and the --delta merge path; planted-nest loads the generic
# k>=5 search, a materialize-heavy fold and the nesting comparison. Sizes keep
# one CLI run near a second, so a 30 s run takes six to nine rounds of CLI run,
# library runs and set-up.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sparse-k3", "communities", (3,), None, 60_000, 3_000, _sparse),
        Workload("planted-k4", "communities", (4,), DELTA, 24, 3, _planted_dense),
        Workload("planted-nest", "compare", (4, 5), DELTA, 24, 4, _planted_sparse),
    )
}


def canonical_digest(labelled: list[list[tuple[str, tuple[tuple, ...]]]]) -> str:
    """Label-free digest of communities given as [(vertex label, spans), ...] lists."""
    canon = sorted(tuple(sorted(members)) for members in labelled)
    return hashlib.sha256(repr(canon).encode()).hexdigest()


def communities_digest(stream: LinkStream, communities: list[TemporalCommunity]) -> str:
    labels = stream.labels
    return canonical_digest([
        [(labels[v], tuple((iv.t0, iv.t1) for iv in spans)) for v, spans in c.members.items()]
        for c in communities
    ])


@dataclass(frozen=True)
class Counts:
    """Reference counters for one k, from the sequential library path."""

    emitted: int
    unions: int
    communities: int


@dataclass(frozen=True)
class Prepared:
    """A generated workload, ready to run, with its reference result."""

    workload: Workload
    path: Path
    text: str
    records: int
    stream: LinkStream
    truth: list[PlantedGroup] | None
    digests: tuple[str, ...]  # one per k, label-free
    only: tuple[int, int]  # compare only: communities found only at k2, only at k1
    counts: tuple[Counts, ...]
    file_digest: str


def prepare(workload: Workload, seed: int, size: int, workdir: Path) -> Prepared:
    """Generate, write and parse the workload, compute its reference, check it."""
    text, truth = workload.make(seed, size)
    path = workdir / f"{workload.name}-{seed}.txt"
    path.write_text(text, encoding="utf-8")
    stream = workload.parse(text)
    digests, counts, results = [], [], []
    for k in workload.ks:
        cliques = list(enumerate_k_cliques(stream, k))
        if k == workload.ks[0] and cliques:
            earliest = cliques[0]
        state = run_lscpm(cliques, k)
        communities = materialize(state)
        nodes = len(state.uf)
        roots = len({state.uf.find(i) for i in range(nodes)})
        counts.append(Counts(len(cliques), nodes - roots, len(communities)))
        digests.append(communities_digest(stream, communities))
        results.append(communities)
    only = (0, 0)
    if workload.command == "compare":
        base, other = results
        report = compare_communities(other, base)
        if report.refinement != "a ⊆ b":
            raise SetupError(f"{workload.name}: k2 communities do not refine k1 ({report.refinement})")
        canon_base = {c.canonical() for c in base}
        canon_other = {c.canonical() for c in other}
        only = (len(canon_other - canon_base), len(canon_base - canon_other))
    for k, c in zip(workload.ks, counts):
        if c.emitted == 0:
            raise SetupError(f"{workload.name}: no k={k} cliques")
        if truth is not None and c.unions == 0:
            raise SetupError(f"{workload.name}: no union-find merges at k={k}")
    if truth is None:
        # the vertex block of the earliest clique, so the slice is not empty
        block_start = int(stream.labels[earliest.vertices[0]]) // BLOCK * BLOCK
        members = {str(x) for x in range(block_start, block_start + BLOCK)}
    else:
        members = set(truth[0].members)
    check_oracle_slice(workload, stream, members)
    return Prepared(
        workload, path, text, text.count("\n"), stream, truth, tuple(digests), only,
        tuple(counts), hashlib.sha256(text.encode()).hexdigest(),
    )


def oracle_slice(stream: LinkStream, vertices: set[int]) -> LinkStream:
    """The earliest links among `vertices`, capped at the oracle's link limit."""
    links = [ln for ln in stream.links if ln.u in vertices and ln.v in vertices]
    links = links[:MAX_ORACLE_LINKS]
    present = {x for ln in links for x in (ln.u, ln.v)}
    return LinkStream.from_links(links, {v: stream.labels[v] for v in present})


def check_oracle_slice(workload: Workload, stream: LinkStream, members: set[str]) -> None:
    """Streaming results on one small slice must equal the brute-force oracle.

    The slice is the opening links among `members`: one planted group, or one
    vertex block of the bounded-degree generator.
    """
    ids = {label: v for v, label in stream.labels.items()}
    part = oracle_slice(stream, {ids[m] for m in members if m in ids})
    if part.n_vertices > MAX_ORACLE_VERTICES:
        raise SetupError(f"{workload.name}: oracle slice has {part.n_vertices} vertices")
    for k in workload.ks:
        expected = oracle_enumerate(part, k)
        got = list(enumerate_k_cliques(part, k))
        if set(got) != expected or len(got) != len(expected):
            raise SetupError(f"{workload.name}: k={k} cliques differ from the oracle on a slice")
        if k == workload.ks[0] and not expected:
            raise SetupError(f"{workload.name}: oracle slice holds no k={k} clique")
        _, oracle_result = oracle_communities(list(expected), k)
        if communities_digest(part, compute_communities(part, k)) != communities_digest(
                part, oracle_result):
            raise SetupError(f"{workload.name}: k={k} communities differ from the oracle on a slice")
