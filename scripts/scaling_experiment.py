#!/usr/bin/env python3
"""Time community detection across synthetic stream sizes.

Emits one CSV row per size: instants, links, cliques are implicit in the
community count, and seconds is the stream-to-communities wall time. Degree
stays bounded via vertex blocks, so growth should track the link count.
"""

import argparse
import gc
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lscpm import compute_communities, synthetic_stream  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="10000,100000,1000000",
                    help="comma-separated instant counts")
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--vertices", type=int, default=1000)
    ap.add_argument("--block", type=int, default=10)
    ap.add_argument("--delta", type=int, default=20)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    print("instants,links,k,seconds,communities")
    for size in (int(s) for s in args.sizes.split(",")):
        stream = synthetic_stream(
            n_vertices=args.vertices,
            n_instants=size,
            span=max(1, size // 10),
            delta=args.delta,
            seed=args.seed,
            block=args.block,
        )
        gc.collect()
        gc.disable()
        try:
            begin = time.perf_counter()
            communities = compute_communities(stream, args.k)
            elapsed = time.perf_counter() - begin
        finally:
            gc.enable()
        print(f"{size},{len(stream.links)},{args.k},{elapsed:.3f},{len(communities)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
