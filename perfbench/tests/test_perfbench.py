"""Tests of the benchmark itself: deterministic inputs, smoke runs and live checks."""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from checks import check_cli_output  # noqa: E402
from measure import Tally, measure_end_to_end, run, run_cli  # noqa: E402
from planted import planted_contacts  # noqa: E402
from workloads import WORKLOADS, prepare  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_bytes_are_deterministic_per_seed(name):
    w = WORKLOADS[name]
    first, _ = w.make(5, w.smoke_size)
    again, _ = w.make(5, w.smoke_size)
    other, _ = w.make(6, w.smoke_size)
    assert first == again
    assert first != other


def test_planted_truth_matches_the_records():
    text, groups = planted_contacts(2, 3, span=500, mean_gap=9.0)
    lines = text.splitlines()
    assert all(len(line.split()) == 3 for line in lines)
    assert [int(line.split()[0]) for line in lines] == sorted(int(line.split()[0]) for line in lines)
    seen = {v for line in lines for v in line.split()[1:]}
    assert all(set(g.members) <= seen for g in groups)
    assert all(s <= e for g in groups for s, e in g.members.values())


def test_workload_list_matches_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_passes_every_check(name, trace, tmp_path):
    result, lines = run(name, 1, 0.0, trace, size=WORKLOADS[name].smoke_size, workdir=tmp_path)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] > 0
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace and name != "sparse-k3":
        assert result["metrics"]["cliques.emitted"]["value"] > 0
        assert result["metrics"]["percolate.unions"]["value"] > 0


def _corrupt_time(text):
    first, rest = text.split("\n", 1)
    fields = first.split(" ")
    fields[-1] = str(int(fields[-1]) + 1)
    return " ".join(fields) + "\n" + rest


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_output_fails_the_check(name, tmp_path):
    w = WORKLOADS[name]
    prep = prepare(w, 1, w.smoke_size, tmp_path)
    good = run_cli(prep, tmp_path)
    assert good.error is None
    if w.command == "compare":
        bad = [good.stdout.replace("k2 ⊆ k1", "none"), good.stdout.replace("equal: no", "equal: yes")]
    else:
        bad = [_corrupt_time(good.stdout), good.stdout.split("\n", 1)[1], good.stdout + "x\n"]
    for text in bad:
        assert text != good.stdout
        assert check_cli_output(prep, text) is not None


def test_a_failed_check_counts_as_a_failed_run(tmp_path):
    w = WORKLOADS["planted-k4"]
    prep = prepare(w, 1, w.smoke_size, tmp_path)
    wrong = dataclasses.replace(prep, digests=("0" * 64,))
    tally = Tally()
    metrics, _ = measure_end_to_end(wrong, lambda: wrong, 0.0, tally, tmp_path, [1.0])
    assert tally.failed >= 1 and tally.failed <= tally.attempted
    assert metrics == {}
