#!/usr/bin/env python3
"""Print one sha256 per CLI run, to check that two checkouts give the same bytes.

Runs the ``lscpm`` CLI of the checkout this script sits in on each input file:
enumerate, communities and stats with space, csv and tsv output, communities
once more with the file's bytes fed on standard input (listed as
``- < path``), compare (against k + 1, and at snapshot times 0, 4.5 and 9)
and oracle, for k = 3, 4 and 5, plus two fixed generate runs. Each line
reads ``<sha256>  <arguments>``; the digest covers stdout, stderr and the
exit code. The oracle and snapshot-time runs check results only on files
within the oracle's limits (20 vertices, 200 links, and 20 vertices alive at
a snapshot time). On larger files they digest the refusal, or an empty
result where little is alive at times 0, 4.5 and 9, so a listing that should
cover them needs a small file.
To compare a change with its parent, run the script of each checkout on the
same paths and diff the two listings:

    python3 scripts/cli_digest.py known.txt floats.txt > change.txt
    python3 scripts/cli_digest.py --delta 20 contacts.txt >> change.txt
    (the same two commands in the parent's checkout, into parent.txt)
    diff parent.txt change.txt
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
KS = (3, 4, 5)
SNAPSHOT_TIMES = "0,4.5,9"

GENERATE = (
    ["generate", "--vertices", "30", "--links", "400", "--span", "100", "--seed", "1"],
    ["generate", "--vertices", "48", "--links", "600", "--span", "80", "--seed", "2",
     "--block", "6", "--delta", "3"],
)


Run = tuple[list[str], str | None]  # CLI arguments, and a file whose bytes go to stdin


def digest(args: list[str], stdin: str | None = None) -> str:
    """sha256 over the stdout, stderr and exit code of one CLI run."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    data = None if stdin is None else Path(stdin).read_bytes()
    run = subprocess.run([sys.executable, "-m", "lscpm", *args], input=data,
                         capture_output=True, env=env)
    h = hashlib.sha256()
    for part in (run.stdout, b"\0stderr\0", run.stderr, b"\0exit\0", str(run.returncode).encode()):
        h.update(part)
    return h.hexdigest()


def runs(path: str, delta: str | None) -> list[Run]:
    """The runs made on one input file."""
    extra = [] if delta is None else ["--delta", delta]
    out: list[Run] = []
    for k in KS:
        for command in ("enumerate", "communities", "stats"):
            for output in ([], ["--output", "csv"], ["--output", "tsv"]):
                out.append(([command, "--k", str(k), *output, *extra, path], None))
        out.append((["communities", "--k", str(k), *extra, "-"], path))
        out.append((["compare", "--k1", str(k), "--k2", str(k + 1), *extra, path], None))
        out.append((["compare", "--k1", str(k), "--snapshot-times", SNAPSHOT_TIMES, *extra, path],
                    None))
        out.append((["oracle", "--k", str(k), *extra, path], None))
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("inputs", nargs="*", help="input files, all read in the same format")
    ap.add_argument("--delta", default=None,
                    help="pass --delta to every run, for instantaneous input files")
    args = ap.parse_args(argv)
    todo: list[Run] = [(cmd, None) for cmd in GENERATE]
    for path in args.inputs:
        todo += runs(path, args.delta)
    for cmd, stdin in todo:
        shown = " ".join(cmd) if stdin is None else f"{' '.join(cmd)} < {stdin}"
        print(f"{digest(cmd, stdin)}  {shown}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
