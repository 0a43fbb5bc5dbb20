"""Command line front end.

Subcommands:
  enumerate    stream maximal k-cliques, one per line
  communities  detect temporal communities, one membership interval per line
  stats        per-vertex community counts and community sizes, as CSV
  compare      nesting across k (--k2) and/or snapshot containment (--snapshot-times)
  generate     synthetic stream generation
  oracle       brute-force reference output, for debugging small inputs

Input is UTF-8 text, a file or standard input (``-``) read the same way. Lines
are durational ``b e u v``, or instantaneous ``t u v`` when ``--delta`` gives
each instant its duration. Instants go from the reader into apply_delta as
they are read, with no list of them, in every command: parse_links does the
same. communities and stats take one read path for both forms: lines go to
the clique search as parse_links' own reader reads them, durational ones with
no link list built or sorted. The reader words a broken line as parse_links
does. Only where the search refuses a line (an unsorted begin, an overlap,
touch or repeat on a pair) do they parse the whole text as the other commands
do, which words that error; input sorted up to its last line pays for both
reads.

Exit codes: 0 ok, 1 unreadable or invalid input or unwritable output, 2 usage error.
Output is deterministic: identical input and flags give identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import random
import sys
from pathlib import Path
from typing import Callable, Iterable, Sequence, TextIO

from .cliques import TemporalKClique, enumerate_k_cliques
from .linkstream import (LinkStream, ParseError, Time, _parse_time, _read_links, apply_delta,
                         parse_links, serialize)
from .oracle import compare_communities, oracle_communities, oracle_enumerate, snapshot_cpm
from .percolate import TemporalCommunity, _communities, compute_communities
from .synth import random_instants


def _time_arg(token: str) -> Time:
    """argparse type for a time value: a bad one is a usage error, not a data error."""
    try:
        return _parse_time(token)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def delta_arg(token: str) -> Time:
    """argparse type for --delta: a time that must also be positive."""
    delta = _time_arg(token)
    if delta <= 0:
        raise argparse.ArgumentTypeError(f"delta must be positive and finite, got {delta!r}")
    return delta


def k_arg(token: str) -> int:
    """argparse type for k: an integer of at least 3."""
    try:
        k = int(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {token!r}") from None
    if k < 3:
        raise argparse.ArgumentTypeError(f"k must be at least 3, got {k}")
    return k


def _times_arg(text: str) -> list[Time]:
    return [_time_arg(token.strip()) for token in text.split(",")]


def _add_input_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("input", help="input file, or - for standard input")
    sub.add_argument("--delta", type=delta_arg, default=None,
                     help="read instantaneous 't u v' lines, each lasting this long"
                          " (default: durational 'b e u v' lines)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lscpm",
                                     description="Overlapping temporal communities in link streams")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, help in (
        ("enumerate", cmd_enumerate, "list maximal k-cliques in emission order"),
        ("communities", cmd_communities, "detect temporal communities"),
        ("stats", cmd_stats, "community statistics as CSV"),
    ):
        p = sub.add_parser(name, help=help)
        p.add_argument("--k", type=k_arg, required=True)
        _add_input_options(p)
        p.add_argument("--output", choices=["csv", "tsv"], default=None,
                       help="field separator for output lines (default: spaces)")
        p.set_defaults(func=func, parser=p)

    p = sub.add_parser("compare", help="compare community structure across k values")
    p.add_argument("--k1", type=k_arg, required=True)
    p.add_argument("--k2", type=k_arg, default=None)
    p.add_argument("--snapshot-times", type=_times_arg, default=None,
                   help="comma-separated times; checks snapshot communities against k1 output")
    _add_input_options(p)
    p.set_defaults(func=cmd_compare, parser=p)

    p = sub.add_parser("generate", help="emit a synthetic stream")
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--links", type=int, required=True)
    p.add_argument("--span", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--block", type=int, default=None,
                   help="confine pairs to vertex blocks of this size (bounds degree)")
    p.add_argument("--delta", type=delta_arg, default=None,
                   help="expand the instants and emit durational lines instead")
    p.set_defaults(func=cmd_generate, parser=p)

    p = sub.add_parser("oracle", help="brute-force reference output (small inputs only)")
    p.add_argument("--k", type=k_arg, required=True)
    _add_input_options(p)
    p.set_defaults(func=cmd_oracle, parser=p)

    return parser


def _read_text(path: str) -> str:
    """The UTF-8 text of a file, or of standard input for ``-``."""
    try:
        data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    except OSError as exc:
        raise ValueError(f"cannot read input: {exc}") from exc
    return data.decode("utf-8")


def read_stream(path: str, delta: Time | None) -> LinkStream:
    """Parse a file, or standard input for ``-``; a delta means instantaneous lines."""
    fmt = "durational" if delta is None else "instantaneous"
    return parse_links(_read_text(path), format=fmt, delta=delta)


def _read_communities(args: argparse.Namespace) -> tuple[dict[int, str], list[TemporalCommunity]]:
    """The label table and the communities at args.k, from one read as said above.

    Lines go from _read_links to the clique search as they are read; with a
    delta, through one apply_delta first. The reader's ParseError is final: it
    words a broken line as parse_links does. Only the search's refusals send
    the text to parse_links, in the input's own format.
    """
    text = _read_text(args.input)  # outside the try: a read or UTF-8 error is final
    ids: dict[str, int] = {}
    try:
        links = _read_links(text, ids, args.delta is not None, args.delta)
        if args.delta is not None:
            links = apply_delta(links, args.delta).links
        communities = _communities(links, args.k)
        return {i: label for label, i in ids.items()}, communities
    except ParseError:
        raise
    except ValueError:
        ids.clear()  # before the whole-text parse, which needs more room
    # after the except block, whose traceback holds the failed fold's state
    stream = parse_links(text, "durational" if args.delta is None else "instantaneous", args.delta)
    return stream.labels, compute_communities(stream, args.k)


def _row_writer(out: TextIO, output: str | None,
                default: str = " ") -> Callable[[Sequence[str]], object]:
    """Write one row of fields per line; comma-separated rows are quoted as CSV.

    Labels may hold commas and quotes but no whitespace, so only the comma
    separator needs quoting.
    """
    sep = {"csv": ",", "tsv": "\t"}.get(output, default)
    if sep == ",":
        return csv.writer(out, lineterminator="\n").writerow
    return lambda fields: out.write(sep.join(fields) + "\n")


def _write_cliques(labels: dict[int, str], cliques: Iterable[TemporalKClique],
                   write: Callable[[Sequence[str]], object]) -> None:
    for clique in cliques:
        fields = [str(clique.interval.t0), str(clique.interval.t1)]
        fields += [labels[v] for v in clique.vertices]
        write(fields)


def cmd_enumerate(args: argparse.Namespace, out: TextIO) -> None:
    stream = read_stream(args.input, args.delta)
    _write_cliques(stream.labels, enumerate_k_cliques(stream, args.k), _row_writer(out, args.output))


def _write_communities(labels: dict[int, str], communities: list[TemporalCommunity],
                       write: Callable[[Sequence[str]], object]) -> None:
    rows = []
    for community in communities:
        for v, spans in community.members.items():
            label = labels[v]
            for iv in spans:
                rows.append((community.id, label, iv.t0, iv.t1))
    rows.sort()
    for cid, label, t0, t1 in rows:
        write((str(cid), label, str(t0), str(t1)))


def cmd_communities(args: argparse.Namespace, out: TextIO) -> None:
    labels, communities = _read_communities(args)
    _write_communities(labels, communities, _row_writer(out, args.output))


def cmd_stats(args: argparse.Namespace, out: TextIO) -> None:
    labels, communities = _read_communities(args)
    write = _row_writer(out, args.output, default=",")
    counts = {v: 0 for v in labels}
    for community in communities:
        for v in community.members:
            counts[v] += 1
    write(("section", "key", "value"))
    for v in sorted(counts, key=lambda x: labels[x]):
        write(("vertex_communities", labels[v], str(counts[v])))
    for community in communities:
        write(("community_size", str(community.id), str(len(community.members))))


def cmd_compare(args: argparse.Namespace, out: TextIO) -> None:
    if args.k2 is None and args.snapshot_times is None:
        args.parser.error("compare needs --k2 or --snapshot-times")  # exits with code 2
    stream = read_stream(args.input, args.delta)
    base = compute_communities(stream, args.k1)
    if args.k2 is not None:
        other = compute_communities(stream, args.k2)
        report = compare_communities(other, base)  # a = k2, b = k1
        out.write(f"equal: {'yes' if report.equal else 'no'}\n")
        named = {"a ⊆ b": "k2 ⊆ k1", "b ⊆ a": "k1 ⊆ k2"}
        out.write(f"refinement: {named.get(report.refinement, report.refinement)}\n")
        out.write(f"communities: k1={len(base)} k2={len(other)}\n")
        for diff in report.diffs:
            out.write(f"diff: {diff.replace('side a', 'k2').replace('side b', 'k1')}\n")
    if args.snapshot_times is not None:
        for t in args.snapshot_times:
            snapshot = snapshot_cpm(stream, t, args.k1)
            contained = 0
            for group in snapshot:
                if any(group <= community.present_at(t) for community in base):
                    contained += 1
            status = "all contained" if contained == len(snapshot) else \
                f"{len(snapshot) - contained} not contained"
            out.write(f"snapshot t={t}: {len(snapshot)} communities, {status}\n")


def cmd_generate(args: argparse.Namespace, out: TextIO) -> None:
    rng = random.Random(args.seed)
    try:
        instants = random_instants(rng, args.vertices, args.links, args.span, args.block)
    except ValueError as exc:
        args.parser.error(str(exc))  # exits with code 2
    if args.delta is None:
        for t, u, v in sorted(instants):
            out.write(f"{t} {u} {v}\n")
    else:
        stream = apply_delta(instants, args.delta)
        out.write(serialize(stream))


def cmd_oracle(args: argparse.Namespace, out: TextIO) -> None:
    stream = read_stream(args.input, args.delta)
    cliques = sorted(oracle_enumerate(stream, args.k),
                     key=lambda c: (c.interval.t0, c.vertices, c.interval.t1))
    out.write("# cliques\n")
    write = _row_writer(out, None)
    _write_cliques(stream.labels, cliques, write)
    _, communities = oracle_communities(cliques, args.k)
    out.write("# communities\n")
    _write_communities(stream.labels, communities, write)


def report_data_error(exc: ValueError) -> int:
    """Print the one error line for invalid or unreadable input; return 1."""
    print(f"error: {exc}", file=sys.stderr)
    return 1


def main(argv: Sequence[str] | None = None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        # under the subcommand's usage line; argparse may take an unknown option's value
        # as the input, so only the leftover options are named when there are any
        options = [a for a in extra if a.startswith("-") and a != "-"]
        args.parser.error(f"unrecognized arguments: {' '.join(options or extra)}")
    try:
        args.func(args, sys.stdout)
        sys.stdout.flush()  # a failed write shows here, not when Python flushes at exit
    except ValueError as exc:
        return report_data_error(exc)
    except OSError as exc:  # read_stream words its own failures as a ValueError
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        sys.stdout = None  # so the flush at exit does not fail again on the unwritten rest
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
