"""Timed runs of one prepared workload: end-to-end metrics and per-layer metrics.

End to end, the run alternates a CLI child process on the workload file
(``python3 -m lscpm`` with default flags, one child at a time) and the same
library calls in-process on the already-parsed stream. Per layer, it
alternates an untraced library run, a traced replay of every stage and a CLI
run. Every output is checked against the workload's reference.

The end-to-end timings of the CLI, the library and set-up are CPU seconds: the
child's user plus system time from ``wait4``, and ``time.process_time``
in-process. On a shared virtual
machine the hypervisor takes CPU away from the guest for seconds at a time
(steal), and the two threads of the default pipeline stall whenever either
vCPU is taken, so wall time moves with the host's load far more than CPU time
does. Wall times are still measured and printed beside them.
"""

from __future__ import annotations

import gc
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from lscpm import compare_communities, compute_communities

from checks import check_cli_output, check_library_result
from tracing import Tracer, duration, invariant_errors, recovery, traced_pass
from workloads import WORKLOADS, Prepared, prepare

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
MIN_SAMPLES = 3  # timed samples of each kind, even when the seconds run out first
STARTUP_SAMPLES = 5
CLI_TIMEOUT_S = 60.0


@dataclass
class Tally:
    """Runs attempted and failed; a failure is a non-zero exit, a timeout or a failed check."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, error: str | None) -> bool:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors.append(error)
        return error is None


@dataclass
class CliRun:
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    error: str | None


def spawn(argv: list[str], stdout_path: Path) -> tuple[float, float, float, int | None]:
    """Run one child to exit.

    Returns wall seconds from spawn to exit, the child's CPU seconds (user plus
    system) and peak RSS in MB from ``wait4``, and its exit code, or None when
    it was killed on timeout.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    killed = threading.Event()
    with open(stdout_path, "wb") as out:
        begin = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, cwd=ROOT, env=env)

        def kill() -> None:
            killed.set()
            proc.kill()

        timer = threading.Timer(CLI_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - begin
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss / 1024.0, None if killed.is_set() else proc.returncode


def run_cli(prep: Prepared, workdir: Path) -> CliRun:
    out_path = workdir / f"{prep.workload.name}-stdout.txt"
    argv = [sys.executable, "-m", "lscpm", *prep.workload.cli_args(), str(prep.path)]
    wall, cpu, rss, code = spawn(argv, out_path)
    stdout = out_path.read_text(encoding="utf-8")
    if code is None:
        error = f"CLI timed out after {CLI_TIMEOUT_S:.0f} s"
    elif code != 0:
        error = f"CLI exited with code {code}"
    else:
        error = check_cli_output(prep, stdout)
    return CliRun(wall, cpu, rss, stdout, error)


def library_call(prep: Prepared):
    """The library calls behind the subcommand, with default arguments."""
    results = [compute_communities(prep.stream, k) for k in prep.workload.ks]
    report = compare_communities(results[1], results[0]) if prep.workload.command == "compare" else None
    return results, report


def timed_library(prep: Prepared, tally: Tally) -> tuple[float, float]:
    """CPU seconds and wall seconds of one checked library call."""
    gc.collect()
    begin, begin_cpu = time.perf_counter(), time.process_time()
    results, report = library_call(prep)
    cpu, wall = time.process_time() - begin_cpu, time.perf_counter() - begin
    tally.record(check_library_result(prep, results, report))
    return cpu, wall


def timing(values: list[float]) -> dict:
    """Median, the highest percentile below the maximum the samples resolve, and the count.

    With n samples that is p(100 - 100/n) rounded down, by nearest rank: the
    second-highest sample up to n = 100, so p66 of 3, p93 of 15, p99 of 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    top = (100 * (n - 1)) // n
    out = {"median": statistics.median(ordered), "n": n}
    if top:
        out[f"p{top}"] = ordered[max(0, -(-top * n // 100) - 1)]
    return out


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_setup(setup: Callable[[], Prepared]) -> tuple[Prepared, float]:
    """The prepared workload and the CPU seconds its set-up took."""
    gc.collect()
    begin = time.process_time()
    prep = setup()
    return prep, time.process_time() - begin


def measure_end_to_end(prep: Prepared, setup: Callable[[], Prepared], seconds: float,
                       tally: Tally, workdir: Path, setup_times: list[float]) -> tuple[dict, dict]:
    """Rounds of one CLI run, library runs of about the same total time, and one set-up.

    Set-up is repeated once a round, so its median covers the same window as
    the other timings; every repetition must give the same file and reference.
    """
    walls, cpus, rss, library, library_walls = [], [], [], [], []
    # warm-up: writes the CLI's bytecode cache; checked, not timed
    tally.record(run_cli(prep, workdir).error)
    deadline = time.perf_counter() + seconds
    last = 0.0  # duration of the previous round; no round starts that would overrun
    while len(walls) < MIN_SAMPLES or time.perf_counter() + last < deadline:
        if tally.failed:
            return {}, {}
        begin = time.perf_counter()
        run = run_cli(prep, workdir)
        if tally.record(run.error):
            walls.append(run.wall_s)
            cpus.append(run.cpu_s)
            rss.append(run.rss_mb)
        spent = 0.0
        while spent < run.cpu_s:  # give the library about the time the CLI took
            cpu, wall = timed_library(prep, tally)
            library.append(cpu)
            library_walls.append(wall)
            spent += cpu
        again, elapsed = timed_setup(setup)
        setup_times.append(elapsed)
        if (again.file_digest, again.digests) != (prep.file_digest, prep.digests):
            tally.record("set-up gave another file or reference on a repeat")
        del again
        last = time.perf_counter() - begin
    cpu = statistics.median(cpus)
    metrics = {
        "cli_cpu_s": metric(cpu, "s"),
        "records_per_s": metric(prep.records / cpu, "1/s"),
        "peak_rss_mb": metric(statistics.median(rss), "MB"),
        "library_cpu_s": metric(statistics.median(library), "s"),
        "setup_s": metric(statistics.median(setup_times), "s"),
    }
    details = {"cli_cpu_s": timing(cpus), "wall_s": timing(walls),
               "library_cpu_s": timing(library), "library_wall_s": timing(library_walls),
               "peak_rss_mb": timing(rss), "setup_s": timing(setup_times)}
    return metrics, details


def _under(tracer: Tracer, span: dict, ancestors: set[int]) -> bool:
    parent = span["parent"]
    while parent is not None:
        if parent in ancestors:
            return True
        parent = tracer.spans[parent]["parent"]
    return False


def measure_layers(prep: Prepared, seconds: float, tally: Tally, workdir: Path,
                   trace_path: Path) -> tuple[dict, dict]:
    compare = prep.workload.command == "compare"
    startup = []
    for _ in range(STARTUP_SAMPLES):
        wall, _, _, code = spawn([sys.executable, "-c", "import lscpm.cli"], workdir / "startup.txt")
        if tally.record(None if code == 0 else f"import lscpm.cli exited with code {code}"):
            startup.append(wall)
    # the calls a library user pays for, as the end-to-end run times them untraced
    library_names = ("pipeline.compute", "oracle.compare") if compare else ("pipeline.compute",)
    untraced, passes, cli_walls = [], [], []
    quality = counts = last_run = None
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    last = 0.0
    while not passes or time.perf_counter() + last < deadline:
        if tally.failed:
            return {}, {}
        begin = time.perf_counter()
        untraced.append(timed_library(prep, tally)[1])
        gc.collect()
        with tracer, tracer.span("pass", pass_id=len(passes)) as root:
            counts, results, report = traced_pass(prep, tracer)
            errors = invariant_errors(counts)
            if not compare and not report.equal:
                errors.append("default and sequential paths give different communities")
            error = check_library_result(prep, results, report if compare else None)
            if error:
                errors.append(error)
            tally.record("; ".join(errors) or None)
            if quality is None:
                quality = recovery(prep, results[0])
            del results, report
            with tracer.span("cli.run"):
                last_run = run_cli(prep, workdir)
        tally.record(last_run.error)
        cli_walls.append(last_run.wall_s)
        passes.append(root["id"])
        last = time.perf_counter() - begin
    tracer.write(trace_path)

    below = {p: tracer.children(p) for p in passes}

    def per_pass(*names: str) -> float:
        return statistics.median(sum(duration(s) for s in below[p] if s["name"] in names)
                                 for p in passes)

    def gc_spans(p: int) -> list[dict]:
        library_ids = {s["id"] for s in below[p] if s["name"] in library_names}
        return [s for s in below[p] if s["name"] == "runtime.gc" and _under(tracer, s, library_ids)]

    traced_library = per_pass(*library_names)
    wall = statistics.median(cli_walls)
    parse_s = per_pass("linkstream.parse")
    window_s = per_pass("cliques.window")
    enumerate_s = per_pass("cliques.enumerate")
    compute_s = per_pass("pipeline.compute")
    sequential_s = per_pass("pipeline.sequential")
    startup_s = statistics.median(startup)
    c = counts
    metrics = {
        "linkstream.parse_s": metric(parse_s, "s"),
        "linkstream.records": metric(c.records, "count"),
        "linkstream.links": metric(c.links, "count"),
        "linkstream.merge_ratio": metric(c.links / c.records, "ratio"),
        "linkstream.bytes": metric(len(prep.text.encode()), "B"),
        "cliques.window_s": metric(window_s, "s"),
        "cliques.window_peak": metric(c.window_peak, "count"),
        "cliques.window_mean": metric(c.window_total / (c.links * len(prep.workload.ks)), "count"),
        "cliques.enumerate_s": metric(enumerate_s, "s"),
        "cliques.search_s": metric(enumerate_s - window_s, "s"),
        "cliques.emitted": metric(c.emitted, "count"),
        "cliques.candidates": metric(c.candidates, "count"),
        "cliques.yield_ratio": metric(c.emitted / c.candidates, "ratio"),
        "percolate.fold_s": metric(per_pass("percolate.fold"), "s"),
        "percolate.materialize_s": metric(per_pass("percolate.materialize"), "s"),
        "percolate.nodes": metric(c.nodes, "count"),
        "percolate.unions": metric(c.unions, "count"),
        "percolate.memberships": metric(c.memberships, "count"),
        "percolate.subsets": metric(c.subsets, "count"),
        "percolate.communities": metric(c.communities, "count"),
        "pipeline.compute_s": metric(compute_s, "s"),
        "pipeline.sequential_s": metric(sequential_s, "s"),
        "pipeline.overhead_s": metric(compute_s - sequential_s, "s"),
        "runtime.gc_s": metric(statistics.median(
            sum(duration(s) for s in gc_spans(p)) for p in passes), "s"),
        "runtime.gc_collections": metric(statistics.median(len(gc_spans(p)) for p in passes), "count"),
        "cli.startup_s": metric(startup_s, "s"),
        "cli.wall_s": metric(wall, "s"),
        "cli.output_bytes": metric(len(last_run.stdout.encode()), "B"),
        "cli.output_lines": metric(last_run.stdout.count("\n"), "count"),
        "cli.residual_s": metric(wall - startup_s - parse_s - traced_library, "s"),
        "oracle.compare_s": metric(per_pass("oracle.compare"), "s"),
        "quality.recovery": metric(quality, "ratio"),
        "trace.overhead_s": metric(traced_library - statistics.median(untraced), "s"),
    }
    details = {"passes": len(passes), "cli_wall_s": timing(cli_walls),
               "traced_library_s": traced_library, "untraced_library_s": timing(untraced),
               "startup_s": timing(startup), "trace_file": str(trace_path)}
    return metrics, details


def run(workload: str, seed: int, seconds: float, trace: bool, *,
        size: int | None = None, workdir: Path = WORKDIR) -> tuple[dict, list[str]]:
    """One benchmark run; returns (result object, human-readable lines)."""
    spec = WORKLOADS[workload]
    workdir.mkdir(parents=True, exist_ok=True)
    size = spec.size if size is None else size

    def setup() -> Prepared:
        return prepare(spec, seed, size, workdir)

    prep, first = timed_setup(setup)
    tally = Tally()
    if trace:
        metrics, details = measure_layers(prep, seconds, tally, workdir,
                                          workdir / f"trace-{workload}-{seed}.json")
    else:
        metrics, details = measure_end_to_end(prep, setup, seconds, tally, workdir, [first])
    lines = [f"workload {workload} seed {seed}: lscpm {' '.join(spec.cli_args())} on"
             f" {prep.records} records, {len(prep.text.encode())} bytes"]
    lines += [f"{name} = {m['value']!r} {m['unit']}" for name, m in metrics.items()]
    lines += [f"  {name}: {d}" for name, d in details.items()]
    lines.append(f"error_rate = {tally.failed / tally.attempted!r} ratio"
                 f" ({tally.failed} of {tally.attempted} runs failed)")
    lines += [f"  failure: {e}" for e in tally.errors[:5]]
    result = {"correct": tally.failed == 0 and bool(metrics), "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    return result, lines
