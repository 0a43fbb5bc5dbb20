"""Checks of CLI output and library results against a workload's reference.

Each check returns None when the output is right and a one-line reason when
it is not; a reason counts the run as failed.
"""

from __future__ import annotations

from lscpm import ComparisonReport, TemporalCommunity

from workloads import Prepared, canonical_digest, communities_digest


def _time(token: str) -> int | float:
    try:
        return int(token)
    except ValueError:
        return float(token)


def parse_communities(text: str) -> list[list[tuple[str, tuple[tuple, ...]]]]:
    """Read ``id label t0 t1`` lines back into [(label, spans), ...] per community."""
    by_id: dict[str, dict[str, list[tuple]]] = {}
    for line in text.splitlines():
        cid, label, t0, t1 = line.split(" ")
        by_id.setdefault(cid, {}).setdefault(label, []).append((_time(t0), _time(t1)))
    return [[(label, tuple(sorted(spans))) for label, spans in members.items()]
            for members in by_id.values()]


def expected_compare_lines(prep: Prepared) -> list[str]:
    """The ``compare --k2`` report the reference implies; k-nesting makes k2 refine k1."""
    k1, k2 = prep.counts
    only_k2, only_k1 = prep.only
    lines = [
        f"equal: {'yes' if prep.digests[0] == prep.digests[1] else 'no'}",
        "refinement: k2 ⊆ k1",
        f"communities: k1={k1.communities} k2={k2.communities}",
    ]
    if only_k2:
        lines.append(f"diff: {only_k2} community(ies) only on k2")
    if only_k1:
        lines.append(f"diff: {only_k1} community(ies) only on k1")
    return lines


def check_cli_output(prep: Prepared, text: str) -> str | None:
    """Compare the CLI's stdout, label-free, with the reference result."""
    if prep.workload.command == "compare":
        got = text.splitlines()
        want = expected_compare_lines(prep)
        if got != want:
            return f"compare report {got!r} differs from expected {want!r}"
        return None
    try:
        labelled = parse_communities(text)
    except ValueError as exc:
        return f"unreadable community line: {exc}"
    if canonical_digest(labelled) != prep.digests[0]:
        return f"communities differ from the reference ({len(labelled)} read)"
    return None


def check_library_result(prep: Prepared, results: list[list[TemporalCommunity]],
                         report: ComparisonReport | None) -> str | None:
    """Compare library communities for each k and, for compare, the nesting report."""
    for k, communities, digest in zip(prep.workload.ks, results, prep.digests):
        if communities_digest(prep.stream, communities) != digest:
            return f"k={k} library communities differ from the reference"
    if report is not None and report.refinement != "a ⊆ b":
        return f"k2 communities do not refine k1 ({report.refinement})"
    return None
