#!/usr/bin/env python3
"""Time community detection across synthetic stream sizes.

Emits one CSV row per size: instants, links, k, seconds and communities.
seconds is the stream-to-communities time in CPU seconds (time.process_time),
as the benchmark measures it: steal on a shared host leaves wall time with no
usable bound. Degree stays bounded via vertex blocks, so growth should track
the link count.
"""

import argparse
import gc
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lscpm import compute_communities, synthetic_stream  # noqa: E402

K = 3
VERTICES = 1000
BLOCK = 10
DELTA = 20
SEED = 7


def sizes_arg(text: str) -> list[int]:
    """argparse type for --sizes: comma-separated instant counts, none negative."""
    try:
        sizes = [int(token) for token in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of integers: {text!r}") from None
    if min(sizes) < 0:
        raise argparse.ArgumentTypeError(f"instant counts must be >= 0, got {text!r}")
    return sizes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=sizes_arg, default="10000,100000,1000000",
                    help="comma-separated instant counts")
    args = ap.parse_args()

    print("instants,links,k,seconds,communities")
    for size in args.sizes:
        stream = synthetic_stream(
            n_vertices=VERTICES,
            n_instants=size,
            span=max(1, size // 10),
            delta=DELTA,
            seed=SEED,
            block=BLOCK,
        )
        gc.collect()
        gc.disable()
        try:
            begin = time.process_time()
            communities = compute_communities(stream, K)
            elapsed = time.process_time() - begin
        finally:
            gc.enable()
        print(f"{size},{len(stream.links)},{K},{elapsed:.3f},{len(communities)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
