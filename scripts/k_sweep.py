#!/usr/bin/env python3
"""Sweep k over a stream and report clique and community counts.

With no input file, a fixed synthetic stream is used. Verifies on the way that each
community at k+1 is contained in exactly one community at k, so the sweep
doubles as a nesting sanity check on real data: a broken nesting is reported
on stderr with exit status 1.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lscpm import enumerate_k_cliques, materialize, run_lscpm, synthetic_stream  # noqa: E402
from lscpm.cli import delta_arg, k_arg, read_stream, report_data_error  # noqa: E402
from lscpm.oracle import containing_communities  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("input", nargs="?", default=None,
                    help="input file, or - for standard input (durational unless --delta)")
    ap.add_argument("--delta", type=delta_arg, default=None,
                    help="treat the input as instantaneous records with this duration")
    ap.add_argument("--kmin", type=k_arg, default=3)
    ap.add_argument("--kmax", type=k_arg, default=6)
    args = ap.parse_args()
    if args.kmin > args.kmax:
        ap.error(f"--kmin {args.kmin} is above --kmax {args.kmax}")

    if args.input is None:
        stream = synthetic_stream(n_vertices=60, n_instants=4000, span=400,
                                  delta=25, seed=11, block=6)
    else:
        try:
            stream = read_stream(args.input, args.delta)
        except ValueError as exc:
            return report_data_error(exc)
    print(f"# {len(stream.links)} links, {stream.n_vertices} vertices")
    print("k,cliques,communities,seconds")
    previous = None
    for k in range(args.kmin, args.kmax + 1):
        begin = time.perf_counter()
        cliques = list(enumerate_k_cliques(stream, k))
        communities = materialize(run_lscpm(cliques, k))
        elapsed = time.perf_counter() - begin
        print(f"{k},{len(cliques)},{len(communities)},{elapsed:.3f}")
        if previous is not None:
            for inner in communities:
                if len(containing_communities(inner, previous)) != 1:
                    print(f"error: nesting broken between k={k - 1} and k={k}", file=sys.stderr)
                    return 1
        previous = communities
    return 0


if __name__ == "__main__":
    sys.exit(main())
