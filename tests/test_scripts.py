"""Smoke tests for the runnable scripts under scripts/."""

import re
import runpy
import subprocess
import sys

import pytest

from conftest import MIXED_END_TEXT, SRC

from lscpm.cli import main

SCRIPTS = SRC.parent / "scripts"


def run_script(name, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=300)


def test_k_sweep_defaults():
    # one row per k in 3..6; the script checks nesting between neighbouring k
    proc = run_script("k_sweep.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("# ") and lines[0].endswith(" vertices")
    assert lines[1] == "k,cliques,communities,seconds"
    assert [line.split(",")[0] for line in lines[2:]] == ["3", "4", "5", "6"]


def write_four_clique(tmp_path):
    # a 4-clique of instants: one clique and one community at k = 3 and 4
    path = tmp_path / "instants.txt"
    path.write_text("".join(f"0 {u} {v}\n" for u, v in
                            [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]))
    return path


def test_k_sweep_reads_instantaneous_input(tmp_path):
    path = write_four_clique(tmp_path)
    proc = run_script("k_sweep.py", str(path), "--delta", "2", "--kmax", "4")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "# 6 links, 4 vertices"
    assert [line.split(",")[:3] for line in lines[2:]] == [["3", "4", "1"], ["4", "1", "1"]]


def test_k_sweep_refuses_k_below_3():
    proc = run_script("k_sweep.py", "--kmin", "2")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: k_sweep.py ")
    assert "argument --kmin: k must be at least 3, got 2" in proc.stderr


def test_k_sweep_refuses_an_empty_k_range():
    proc = run_script("k_sweep.py", "--kmin", "5", "--kmax", "3")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: k_sweep.py ")
    assert proc.stderr.splitlines()[-1] == "k_sweep.py: error: --kmin 5 is above --kmax 3"


def test_k_sweep_reports_broken_nesting(monkeypatch, capsys, tmp_path):
    # run in-process so the oracle's containment can be made to fail
    path = write_four_clique(tmp_path)
    monkeypatch.setattr("lscpm.oracle.containing_communities", lambda inner, outers: [])
    monkeypatch.setattr(sys, "argv", ["k_sweep.py", str(path), "--delta", "2", "--kmax", "4"])
    monkeypatch.setattr(sys, "path", sys.path[:])  # the script puts src/ in front
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / "k_sweep.py"), run_name="__main__")
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[-1].startswith("4,1,1,")
    assert err == "error: nesting broken between k=3 and k=4\n"


@pytest.mark.parametrize("data", [b"3 1 a b\n", b"0 5 a b\n0 5 a\xff c\n", None],
                         ids=["parse-error", "not-utf8", "missing-file"])
def test_k_sweep_reports_bad_input_as_the_cli_does(capsys, tmp_path, data):
    path = tmp_path / "bad.txt"
    if data is not None:
        path.write_bytes(data)
    assert main(["stats", "--k", "3", str(path)]) == 1
    cli_err = capsys.readouterr().err
    assert cli_err.startswith("error: ") and cli_err.count("\n") == 1
    proc = run_script("k_sweep.py", str(path))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == cli_err


@pytest.mark.parametrize("sizes", ["x", "10,", "10,-1"])
def test_scaling_experiment_refuses_bad_sizes(sizes):
    proc = run_script("scaling_experiment.py", "--sizes", sizes)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: scaling_experiment.py ")
    assert "error: argument --sizes: " in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_digest_lists_one_digest_per_run(tmp_path, known_text):
    path = tmp_path / "known.txt"
    path.write_text(known_text)
    # ends written both as 15 and 15.0 on one clique
    mixed = tmp_path / "mixed.txt"
    mixed.write_text(MIXED_END_TEXT)
    proc = run_script("cli_digest.py", str(path), str(mixed))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines
    for line in lines:
        assert re.match(r"^[0-9a-f]{64}  \S", line), line
    # compare against k + 1 and at snapshot times is listed for every k, on every file
    for p in (path, mixed):
        for k in (3, 4, 5):
            assert any(f"  compare --k1 {k} --k2 {k + 1} {p}" in line for line in lines), k
            assert any(f"  compare --k1 {k} --snapshot-times 0,4.5,9 {p}" in line
                       for line in lines), k
        assert any(line.endswith(f"  enumerate --k 3 {p}") for line in lines), p
        # the file's bytes are also fed on standard input, once per k, with the
        # same output: the digest covers output only, not the arguments
        digests = {line.split("  ", 1)[1]: line.split("  ", 1)[0] for line in lines}
        for k in (3, 4, 5):
            assert digests[f"communities --k {k} - < {p}"] == digests[f"communities --k {k} {p}"]
            # derived copies: the opening slice within the oracle's reach, and the lines
            # reversed, with CRLF ends and after a comment; the last two change no byte
            assert f"oracle --k {k} slice({p})" in digests
            for cmd in (f"enumerate --k {k}", f"communities --k {k}", f"stats --k {k}",
                        f"compare --k1 {k} --k2 {k + 1}"):
                assert f"{cmd} reversed({p})" in digests
                for copy in ("crlf", "commented"):
                    assert digests[f"{cmd} {copy}({p})"] == digests[f"{cmd} {p}"]
    # both files fit the oracle whole, so the slice is the file. At k = 3 the
    # snapshot times are the midpoints of its first, middle and last cliques,
    # [2, 13], [4, 9] and [8, 12]; at k = 4 it has no clique, so they are its
    # begins 1, 3 and 8
    assert any(line.endswith(f"  compare --k1 3 --snapshot-times 7.5,6.5,10 slice({path})")
               for line in lines)
    assert any(line.endswith(f"  compare --k1 4 --snapshot-times 1,3,8 slice({path})")
               for line in lines)


def test_scaling_experiment_small_sizes():
    proc = run_script("scaling_experiment.py", "--sizes", "2000,4000")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "instants,links,k,seconds,communities"
    assert [line.split(",")[0] for line in lines[1:]] == ["2000", "4000"]


def test_cli_digest_passes_delta(tmp_path):
    path = tmp_path / "instants.txt"
    path.write_text("0 a b\n1 a c\n1 b c\n")
    proc = run_script("cli_digest.py", "--delta", "2", str(path))
    assert proc.returncode == 0, proc.stderr
    on_file = [line for line in proc.stdout.splitlines() if line.endswith(str(path))]
    assert on_file
    for line in on_file:
        assert re.match(r"^[0-9a-f]{64}  \S", line), line
        assert " --delta 2 " in line, line
    assert sum(line.endswith(f" --delta 2 - < {path}") for line in on_file) == 3
    # instants get reversed, CRLF and commented copies too; the last two change no byte
    digests = {line.split("  ", 1)[1]: line.split("  ", 1)[0] for line in proc.stdout.splitlines()}
    for k in (3, 4, 5):
        for cmd in (f"enumerate --k {k}", f"communities --k {k}", f"stats --k {k}",
                    f"compare --k1 {k} --k2 {k + 1}"):
            own = digests[f"{cmd} --delta 2 {path}"]
            assert f"{cmd} --delta 2 reversed({path})" in digests
            for copy in ("crlf", "commented"):
                assert digests[f"{cmd} --delta 2 {copy}({path})"] == own
    assert sum(line.endswith(f" --delta 2 slice({path})") for line in proc.stdout.splitlines()) == 6
