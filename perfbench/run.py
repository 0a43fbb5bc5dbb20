#!/usr/bin/env python3
"""Benchmark of the lscpm CLI and library on seeded synthetic link streams.

Run from the repository root:

    python3 perfbench/run.py --workload planted-k4 --seed 1 --seconds 20 --trace 0

Workloads: sparse-k3, planted-k4, planted-nest (see workloads.py). Set-up
generates the workload file from the seed, computes its reference result and
checks a slice against the brute-force oracle. ``--trace 0`` then prints the
end-to-end metrics; set-up is repeated once per measured round and its median
is ``setup_s``. ``--trace 1`` prints the per-layer metrics and writes the spans
to ``.bench_work/``.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Exit code 1 means the program or its set-up could not run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "lscpm" / "__init__.py").is_file():
        print(f"error: no lscpm sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    from measure import run
    from workloads import WORKLOADS, SetupError

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
