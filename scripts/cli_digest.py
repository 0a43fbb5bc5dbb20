#!/usr/bin/env python3
"""Print one sha256 per CLI run, to check that two checkouts give the same bytes.

Runs the ``lscpm`` CLI of the checkout this script sits in on each input file:
enumerate, communities and stats with space, csv and tsv output, communities
once more with the file's bytes fed on standard input (listed as
``- < path``), compare (against k + 1, and at snapshot times 0, 4.5 and 9)
and oracle, for k = 3, 4 and 5, plus two fixed generate runs. Each line
reads ``<sha256>  <arguments>``; the digest covers stdout, stderr and the
exit code.

Derived copies of each file, written to a temporary directory, widen what
one listing covers:

- ``reversed(path)``, ``crlf(path)`` and ``commented(path)``: the lines in
  reverse order, with CRLF line ends, and after a ``# b e u v`` first line,
  for enumerate, communities, stats and compare against k + 1, with --delta
  when it is given. For communities and stats, sorted durational input
  streams into the clique search as it is read, and reversed input takes the
  whole-text parse; instants stream in any order, for every command. CRLF
  and commented copies are read as the file is.
- ``slice(path)``: at most 200 lines among at most 20 vertices around the
  first link (see oracle_slice), within the oracle's limits, for oracle and
  compare at snapshot times inside the slice's cliques (see clique_times).
  On the whole file those runs check nothing once it passes the limits: they
  digest the oracle's refusal, or an empty result where little is alive at
  0, 4.5 and 9.
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
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from lscpm.oracle import MAX_ORACLE_LINKS, MAX_ORACLE_VERTICES  # noqa: E402

KS = (3, 4, 5)
SNAPSHOT_TIMES = "0,4.5,9"

GENERATE = (
    ["generate", "--vertices", "30", "--links", "400", "--span", "100", "--seed", "1"],
    ["generate", "--vertices", "48", "--links", "600", "--span", "80", "--seed", "2",
     "--block", "6", "--delta", "3"],
)


Run = tuple[list[str], str | None, str]  # CLI arguments, a file for stdin, the listed form


def cli(args: list[str], stdin: str | None = None) -> subprocess.CompletedProcess:
    """One run of this checkout's CLI, stdout and stderr captured as bytes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    data = None if stdin is None else Path(stdin).read_bytes()
    return subprocess.run([sys.executable, "-m", "lscpm", *args], input=data,
                          capture_output=True, env=env)


def digest(args: list[str], stdin: str | None = None) -> str:
    """sha256 over the stdout, stderr and exit code of one CLI run."""
    run = cli(args, stdin)
    h = hashlib.sha256()
    for part in (run.stdout, b"\0stderr\0", run.stderr, b"\0exit\0", str(run.returncode).encode()):
        h.update(part)
    return h.hexdigest()


def listed(cmd: list[str], stdin: str | None = None) -> Run:
    shown = " ".join(cmd) if stdin is None else f"{' '.join(cmd)} < {stdin}"
    return cmd, stdin, shown


def runs(path: str, delta: str | None) -> list[Run]:
    """The runs made on one input file."""
    extra = [] if delta is None else ["--delta", delta]
    out: list[Run] = []
    for k in KS:
        for command in ("enumerate", "communities", "stats"):
            for output in ([], ["--output", "csv"], ["--output", "tsv"]):
                out.append(listed([command, "--k", str(k), *output, *extra, path]))
        out.append(listed(["communities", "--k", str(k), *extra, "-"], path))
        out.append(listed(["compare", "--k1", str(k), "--k2", str(k + 1), *extra, path]))
        out.append(listed(["compare", "--k1", str(k), "--snapshot-times", SNAPSHOT_TIMES, *extra,
                           path]))
        out.append(listed(["oracle", "--k", str(k), *extra, path]))
    return out


def lines_of(path: str) -> list[str]:
    """The file's lines, split where the CLI splits them: at LF, CRLF and a lone CR."""
    text = Path(path).read_bytes().decode("utf-8", errors="replace")
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def oracle_slice(path: str) -> tuple[list[str], list[str]]:
    """Lines within the oracle's limits around the file's first link, and their begin times.

    The vertices are the first link's two, then, in file order, each vertex
    linked to one already taken, up to the oracle's vertex limit. The lines
    are the first ones among those vertices, up to its link limit. (The file's
    opening lines alone hold few links: they reach a 21st vertex within 10 to
    16 lines on the benchmark's workload files, with no clique among them.)
    """
    records = [line for line in lines_of(path)
               if line.split() and not line.split()[0].startswith("#")]
    members: set[str] = set()
    for line in records:
        pair = set(line.split()[-2:])
        if not members:
            members = pair
        elif len(pair - members) == 1 and pair & members and len(members) < MAX_ORACLE_VERTICES:
            members |= pair
    kept = [line for line in records if set(line.split()[-2:]) <= members][:MAX_ORACLE_LINKS]
    return kept, [line.split()[0] for line in kept]


def clique_times(cmd: list[str]) -> str | None:
    """The midpoints of the first, middle and last cliques an oracle run lists, or None.

    A clique has positive length, so at its midpoint its k vertices are
    pairwise linked and the snapshot holds a community. None when the run
    fails or lists no clique.
    """
    run = cli(cmd)
    if run.returncode != 0:
        return None
    listing = run.stdout.decode().split("# communities\n")[0].splitlines()[1:]  # after "# cliques"
    if not listing:
        return None
    mids = []
    for line in (listing[0], listing[len(listing) // 2], listing[-1]):
        t0, t1 = line.split()[:2]
        mid = (float(t0) + float(t1)) / 2
        mids.append(str(int(mid)) if mid.is_integer() else repr(mid))
    return ",".join(dict.fromkeys(mids))


def derived_runs(path: str, delta: str | None, stem: Path) -> list[Run]:
    """Runs on the reversed, CRLF and commented copies and on the oracle slice.

    The copies are written next to ``stem``, a path unique to this input.
    """
    extra = [] if delta is None else ["--delta", delta]
    out: list[Run] = []
    lines = lines_of(path)
    copies = {"reversed": "\n".join(reversed(lines)) + "\n",
              "crlf": "\r\n".join(lines),
              "commented": "\n".join(["# b e u v", *lines])}
    for name, text in copies.items():
        copy = stem.with_suffix(f".{name}")
        copy.write_bytes(text.encode("utf-8"))
        for k in KS:
            for cmd in (["enumerate", "--k", str(k)], ["communities", "--k", str(k)],
                        ["stats", "--k", str(k)], ["compare", "--k1", str(k), "--k2", str(k + 1)]):
                cmd += extra
                out.append(([*cmd, str(copy)], None, " ".join([*cmd, f"{name}({path})"])))
    kept, times = oracle_slice(path)
    if not times:
        return out
    part = stem.with_suffix(".slice")
    part.write_text("\n".join(kept) + "\n", encoding="utf-8")
    begins = ",".join([times[0], times[len(times) // 2], times[-1]])
    for k in KS:
        oracle = ["oracle", "--k", str(k), *extra]
        at = clique_times([*oracle, str(part)]) or begins
        for cmd in (oracle, ["compare", "--k1", str(k), "--snapshot-times", at, *extra]):
            out.append(([*cmd, str(part)], None, " ".join([*cmd, f"slice({path})"])))
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("inputs", nargs="*", help="input files, all read in the same format")
    ap.add_argument("--delta", default=None,
                    help="pass --delta to every run, for instantaneous input files")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        todo: list[Run] = [listed(cmd) for cmd in GENERATE]
        for i, path in enumerate(args.inputs):
            todo += runs(path, args.delta) + derived_runs(path, args.delta, Path(tmp) / str(i))
        for cmd, stdin, shown in todo:
            print(f"{digest(cmd, stdin)}  {shown}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
