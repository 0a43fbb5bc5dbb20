"""Traced in-process run: spans around the calls into each lscpm module.

Spans are recorded by the benchmark around public library calls, never inside
the program. Each span has a name, start, end and parent; spans of one pass
share the pass's root span. While the tracer is entered, garbage collections
of the benchmark's own process are recorded as ``runtime.gc`` spans under
whatever span was open.
"""

from __future__ import annotations

import gc
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from lscpm import (
    WindowGraph,
    cliques_containing_edge,
    compare_communities,
    compute_communities,
    enumerate_k_cliques,
    materialize,
    run_lscpm,
)

from workloads import Prepared


class Tracer:
    """Spans kept in memory, written out as JSON when the run ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._gc_start: float | None = None

    def __enter__(self) -> Tracer:
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)

    def _parent(self) -> int | None:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict]:
        record = {"id": len(self.spans), "name": name, "parent": self._parent(),
                  "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _on_gc(self, phase: str, info: dict) -> None:
        now = time.perf_counter()
        if phase == "start":
            self._gc_start = now
        elif self._gc_start is not None:
            self.spans.append({"id": len(self.spans), "name": "runtime.gc", "parent": self._parent(),
                               "start": self._gc_start, "end": now,
                               "generation": info["generation"]})
            self._gc_start = None

    def children(self, root: int) -> list[dict]:
        """Every span below `root`, at any depth."""
        below = {root}
        out = []
        for s in self.spans[root + 1:]:
            if s["parent"] in below:
                below.add(s["id"])
                out.append(s)
        return out

    def write(self, path: Path) -> None:
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
        out = [dict(s, self_s=s["end"] - s["start"] - child_time.get(s["id"], 0.0))
               for s in self.spans]
        path.write_text(json.dumps(out, indent=0), encoding="utf-8")


def duration(span: dict) -> float:
    return span["end"] - span["start"]


@dataclass
class PassCounts:
    """Counters of one traced pass, summed over the subcommand's k values."""

    records: int = 0
    links: int = 0
    window_peak: int = 0
    window_total: int = 0
    candidates: int = 0
    emitted: int = 0
    nodes: int = 0
    unions: int = 0
    memberships: int = 0
    subsets: int = 0
    communities: int = 0


def replay_window(stream) -> None:
    """The window maintenance enumeration does: add each link, expire before its start."""
    g = WindowGraph()
    for link in stream.links:
        g.add(link)
        g.expire(link.b)


def count_window(stream, k: int) -> tuple[int, int, int]:
    """Untimed replay that samples window size and counts static candidate cliques."""
    g = WindowGraph()
    peak = total = candidates = 0
    for link in stream.links:
        g.add(link)
        g.expire(link.b)
        n = len(g)
        total += n
        if n > peak:
            peak = n
        if link.e > link.b:
            candidates += len(cliques_containing_edge(g, link.u, link.v, k))
    return peak, total, candidates


def traced_pass(prep: Prepared, tracer: Tracer) -> tuple[PassCounts, list, object]:
    """Replay every stage under spans; returns (counts, results, report).

    `results` holds the default-path communities for each k and `report` the
    ``compare_communities`` report: k2 against k1 for compare workloads, the
    default path against the sequential chain otherwise.
    """
    w = prep.workload
    stream = prep.stream
    counts = PassCounts(records=prep.records)
    results = []
    with tracer.span("linkstream.parse"):
        parsed = w.parse(prep.text)
    counts.links = len(parsed.links)
    del parsed
    for k in w.ks:
        with tracer.span("cliques.window", k=k):
            replay_window(stream)
        with tracer.span("cliques.enumerate", k=k):
            cliques = list(enumerate_k_cliques(stream, k))
        with tracer.span("percolate.fold", k=k):
            state = run_lscpm(cliques, k)
        with tracer.span("percolate.materialize", k=k):
            communities = materialize(state)
        nodes = len(state.uf)
        counts.emitted += len(cliques)
        counts.nodes += nodes
        counts.unions += nodes - len({state.uf.find(i) for i in range(nodes)})
        counts.memberships += sum(len(entries) for entries in state.memberships.values())
        counts.subsets += len(state.memberships)
        counts.communities += len(communities)
        del cliques, state, communities
        with tracer.span("pipeline.compute", k=k):
            results.append(compute_communities(stream, k))
        with tracer.span("pipeline.sequential", k=k):
            sequential = materialize(run_lscpm(enumerate_k_cliques(stream, k), k))
        with tracer.span("bench.count", k=k):
            peak, total, candidates = count_window(stream, k)
        counts.window_peak = max(counts.window_peak, peak)
        counts.window_total += total
        counts.candidates += candidates
    with tracer.span("oracle.compare"):
        if w.command == "compare":
            report = compare_communities(results[1], results[0])
        else:
            report = compare_communities(results[0], sequential)
    return counts, results, report


def invariant_errors(c: PassCounts) -> list[str]:
    """Counter invariants every pass must satisfy."""
    errors = []
    if not c.nodes <= c.emitted <= c.candidates:
        errors.append(f"not nodes {c.nodes} <= emitted {c.emitted} <= candidates {c.candidates}")
    if c.memberships < c.nodes:
        errors.append(f"memberships {c.memberships} < nodes {c.nodes}")
    if c.communities > c.nodes:
        errors.append(f"communities {c.communities} > nodes {c.nodes}")
    return errors


def recovery(prep: Prepared, communities) -> float:
    """Share of planted (vertex, interval) mass covered by each group's best community."""
    if prep.truth is None:
        return 0.0
    labels = prep.stream.labels
    spans_of = []  # per community: label -> spans
    containing: dict[str, list[int]] = {}
    for i, c in enumerate(communities):
        spans_of.append({labels[v]: spans for v, spans in c.members.items()})
        for v in c.members:
            containing.setdefault(labels[v], []).append(i)
    planted = covered = 0
    for group in prep.truth:
        planted += sum(e - s for s, e in group.members.values())
        candidates = {i for label in group.members for i in containing.get(label, ())}
        best = 0
        for i in candidates:
            mass = 0
            for label, (s, e) in group.members.items():
                for iv in spans_of[i].get(label, ()):
                    mass += max(0, min(e, iv.t1) - max(s, iv.t0))
            best = max(best, mass)
        covered += best
    return covered / planted if planted else 0.0
