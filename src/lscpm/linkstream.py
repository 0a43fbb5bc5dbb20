"""Link stream data model: timed links, parsing, validation and delta expansion.

A link (b, e, u, v) means vertices u and v interact over the closed time
interval [b, e]. Times are integer ticks by default; floats are accepted
everywhere when real-valued timestamps are needed (integer ticks keep the
strict boundary comparisons of the clique machinery exact). Links on the same
vertex pair must cover pairwise disjoint intervals, so the link covering any
given moment on a pair is unique.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Iterator, NamedTuple

Time = int | float

__all__ = [
    "Time",
    "Interval",
    "Link",
    "LinkStream",
    "Violation",
    "ParseError",
    "parse_links",
    "apply_delta",
    "validate",
    "serialize",
]


class ParseError(ValueError):
    """Malformed or invariant-breaking input; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass(frozen=True, order=True, slots=True)
class Interval:
    """Closed time interval [t0, t1] with t1 >= t0. Zero length is allowed."""

    t0: Time
    t1: Time

    def __post_init__(self):
        if not self.t0 <= self.t1:  # NaN fails every comparison, so this refuses it too
            raise ValueError(f"bad interval [{self.t0!r}, {self.t1!r}]: end before start or a NaN endpoint")


class Link(NamedTuple):
    """One temporal edge on the pair u < v; tuple order is (b, e, u, v).

    Producers normalize the pair: parse_links and apply_delta build links with
    u < v, and LinkStream.from_links swaps any link handed over as u > v.
    """

    b: Time
    e: Time
    u: int
    v: int

    @property
    def pair(self) -> tuple[int, int]:
        return (self.u, self.v)


@dataclass(frozen=True, eq=False)
class LinkStream:
    """Chronologically sorted links plus the vertex label table.

    Vertex ids are dense integers; ``labels`` maps them back to the external
    labels they were parsed from. Two streams are equal when they carry the
    same labeled links and labels, whatever the internal id assignment.
    Instances are immutable after construction.
    """

    links: tuple[Link, ...]
    labels: dict[int, str]

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinkStream):
            return NotImplemented
        return (
            sorted(self.labeled_links()) == sorted(other.labeled_links())
            and set(self.labels.values()) == set(other.labels.values())
        )

    @classmethod
    def from_links(
        cls, links: Iterable[Link], labels: dict[int, str] | None = None
    ) -> LinkStream:
        """Sort the links, first swapping any pair given as u > v.

        Links form a set: an exact repeat is kept once, as parse_links keeps a
        repeated line once. Times compare by value, so a link written with 5
        and again with 5.0 is one link, in the form it was first given.
        Nothing else is checked: links that overlap on one pair are kept, so
        run validate() before handing the stream to enumerate_k_cliques.
        """
        ordered = sorted(ln if ln.u <= ln.v else Link(ln.b, ln.e, ln.v, ln.u) for ln in links)
        ordered = tuple(ln for ln, _ in groupby(ordered))  # the first of each run of repeats
        if labels is None:
            seen = {x for ln in ordered for x in (ln.u, ln.v)}
            labels = {v: str(v) for v in sorted(seen)}
        return cls(ordered, dict(labels))

    @property
    def span(self) -> Interval | None:
        """[min b, max e] over all links; None for an empty stream."""
        if not self.links:
            return None
        return Interval(self.links[0].b, max(ln.e for ln in self.links))

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    def labeled_links(self) -> Iterator[tuple[Time, Time, str, str]]:
        """Links as (b, e, label, label) tuples, the label pair sorted, one at a time."""
        labels = self.labels
        for b, e, u, v in self.links:
            x, y = labels[u], labels[v]
            yield (b, e, x, y) if x <= y else (b, e, y, x)


@dataclass(frozen=True)
class Violation:
    """A broken invariant found by validate(); data, not an exception."""

    kind: str
    message: str
    links: tuple[int, ...]


def validate(stream: LinkStream) -> list[Violation]:
    """Audit every stream invariant and report all violations found.

    Checked: finite times and e >= b per link, no self-loops, pairs given as
    u < v, links sorted by non-decreasing b, disjoint intervals on each pair,
    and a bijective label table covering the vertices that appear in links.
    """
    out: list[Violation] = []
    links = stream.links
    for i, ln in enumerate(links):
        if not (-math.inf < ln.b < math.inf and -math.inf < ln.e < math.inf):
            out.append(Violation("non-finite", f"link {i} spans [{ln.b!r}, {ln.e!r}]", (i,)))
        if ln.e < ln.b:
            out.append(Violation("end-before-begin", f"link {i} ends at {ln.e!r} before {ln.b!r}", (i,)))
        if ln.u == ln.v:
            out.append(Violation("self-loop", f"link {i} loops on vertex {ln.u}", (i,)))
        elif ln.v < ln.u:
            out.append(Violation("pair-order", f"link {i} gives its pair as ({ln.u}, {ln.v})", (i,)))
    for i in range(1, len(links)):
        if links[i].b < links[i - 1].b:
            out.append(Violation("unsorted", f"link {i} begins before link {i - 1}", (i - 1, i)))
    by_pair: dict[tuple[int, int], list[int]] = {}
    for i, ln in enumerate(links):
        by_pair.setdefault(ln.pair, []).append(i)
    for pair, idxs in by_pair.items():
        idxs.sort(key=lambda i: (links[i].b, links[i].e))
        for a, b in zip(idxs, idxs[1:]):
            # closed intervals: touching at a single point already counts as overlap
            if links[b].b <= links[a].e:
                out.append(Violation("pair-overlap", f"links {a} and {b} overlap on pair {pair}", (a, b)))
    present = {x for ln in links for x in (ln.u, ln.v)}
    missing = present - set(stream.labels)
    if missing:
        out.append(Violation("label-missing", f"no label for vertices {sorted(missing)}", ()))
    if len(set(stream.labels.values())) != len(stream.labels):
        out.append(Violation("label-duplicate", "label table is not a bijection", ()))
    return out


def _parse_time(token: str, line: int | None = None) -> Time:
    """Read an integer tick or a finite float; ``line`` numbers the error."""
    try:
        return int(token)
    except ValueError:
        pass
    try:
        t = float(token)
    except ValueError:
        raise ParseError(f"bad time value {token!r}", line) from None
    if not math.isfinite(t):
        raise ParseError(f"non-finite time value {token!r}", line)
    return t


def parse_links(text: str, format: str = "durational", delta: Time | None = None) -> LinkStream:
    """Parse a text, a str holding the whole input, into a validated LinkStream.

    Durational lines are ``b e u v`` and take no ``delta``; instantaneous
    lines are ``t u v`` and require ``delta``, the uniform duration given to
    each instant (handled by :func:`apply_delta`). One line loop reads both:
    fields split at whitespace, blank and ``#`` comment lines are skipped, and
    external labels map to dense vertex ids in order of first appearance.
    Raises ValueError up front for an unknown format or a delta given with
    durational input. Raises ParseError with the offending line number on
    malformed input or a broken invariant, such as an instant whose end
    t + delta overflows; a missing delta is reported after every line is read.
    """
    if format not in ("durational", "instantaneous"):
        raise ValueError(f"unknown format {format!r}")
    instant = format == "instantaneous"
    if delta is not None and not instant:
        raise ValueError(f"durational input takes no delta, got {delta!r}")
    width, shape = (3, "'t u v'") if instant else (4, "'b e u v'")
    bounded = instant and delta is not None and 0 < delta < math.inf
    ids: dict[str, int] = {}
    instants: list[tuple[Time, int, int]] = []
    entries: list[tuple[Link, int]] = []
    # Split at LF, CRLF and CR only, as open() does: splitlines() would also split
    # at form feeds and Unicode separators, which can sit inside a comment. The
    # line list stays unnamed, so it is freed with the loop, before the sort below.
    for lineno, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != width:
            raise ParseError(f"expected {shape}, got {len(parts)} fields", lineno)
        if instant:
            t, x, y = parts
            b = _parse_time(t, lineno)
            if bounded and _end_overflows(b, delta):
                raise ParseError(f"non-finite end time: {t} + {delta!r} overflows", lineno)
        else:
            t, s, x, y = parts
            b = _parse_time(t, lineno)
            e = _parse_time(s, lineno)
            if e < b:
                raise ParseError(f"link ends at {s} before it begins at {t}", lineno)
        if x == y:
            raise ParseError(f"self-loop on vertex {x!r}", lineno)
        u = ids.setdefault(x, len(ids))
        v = ids.setdefault(y, len(ids))
        if v < u:
            u, v = v, u
        if instant:
            instants.append((b, u, v))
        else:
            entries.append((Link(b, e, u, v), lineno))
    labels = {i: lab for lab, i in ids.items()}
    if instant:
        if delta is None:
            raise ParseError("instantaneous input requires a positive delta")
        return apply_delta(instants, delta, labels)

    # One sort orders the links chronologically and, per pair, by (b, e), so a
    # single pass against the last kept link of each pair finds every overlap.
    entries.sort()
    last: dict[tuple[int, int], tuple[Link, int]] = {}
    kept: list[Link] = []
    for link, lineno in entries:
        prev = last.get(link.pair)
        if prev is not None:
            if link == prev[0]:
                continue  # repeated identical line: links form a set
            if link.b <= prev[0].e:
                raise ParseError(
                    f"links on pair ({labels[link.u]}, {labels[link.v]}) overlap"
                    f" (lines {prev[1]} and {lineno})",
                    lineno,
                )
        kept.append(link)
        last[link.pair] = (link, lineno)
    return LinkStream(tuple(kept), labels)


def _end_overflows(t: Time, delta: Time) -> bool:
    """Whether t + delta overflows to infinity; so does an int too large for a float."""
    try:
        return t + delta == math.inf
    except OverflowError:
        return True


def apply_delta(
    instants: Iterable[tuple[Time, int, int]],
    delta: Time,
    labels: dict[int, str] | None = None,
) -> LinkStream:
    """Expand instantaneous records (t, u, v) into links (t, t + delta, u, v).

    Records on the same pair whose expanded intervals overlap *or touch* are
    merged into one link over their union (_union_spans, which materialize
    also applies to membership spans), which restores the pair-disjointness
    invariant. A pair may be given as u > v; of equal times written as 5 and
    5.0, the form given first is kept. ``labels`` defaults to each vertex id's
    own string. Raises ValueError for a record whose end t + delta overflows
    to infinity.
    """
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    by_pair: dict[tuple[int, int], list[Time]] = {}
    for t, u, v in instants:
        if u == v:
            raise ValueError(f"self-loop instant on vertex {u}")
        key = (u, v) if u < v else (v, u)
        by_pair.setdefault(key, []).append(t)
    links: list[Link] = []
    for (u, v), ts in by_pair.items():
        ts.sort()
        if _end_overflows(ts[-1], delta):
            raise ValueError(f"instant {ts[-1]!r} on pair ({u}, {v}) ends at a non-finite time"
                             f" with delta {delta!r}")
        links += [Link(s, e, u, v) for s, e in _union_spans([(t, t + delta) for t in ts])]
    links.sort()  # unique links with u < v: sorted, they are the stream
    if labels is None:
        labels = {x: str(x) for x in sorted({x for pair in by_pair for x in pair})}
    return LinkStream(tuple(links), dict(labels))


def _union_spans(spans: list[tuple[Time, Time]]) -> list[list[Time]]:
    """Sort closed spans in place and join those that overlap or touch.

    An end grows only to a strictly later one, so of 5 and 5.0 the first sorted stays.
    """
    spans.sort()
    merged: list[list[Time]] = []
    for s, e in spans:
        if merged and s <= merged[-1][1]:  # touching spans merge too
            if e > merged[-1][1]:
                merged[-1][1] = e
        else:
            merged.append([s, e])
    return merged


def serialize(stream: LinkStream) -> str:
    """Render a stream in the durational text format; inverse of parse_links.

    Each line carries its label pair in sorted order, so the emitted content
    does not depend on the internal id assignment.
    """
    lines = [f"{b} {e} {x} {y}" for b, e, x, y in stream.labeled_links()]
    return "\n".join(lines) + ("\n" if lines else "")
