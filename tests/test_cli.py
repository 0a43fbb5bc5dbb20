import csv
import errno
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import KNOWN_STREAM_TEXT, MIXED_END_TEXT, SRC

from lscpm.cli import main
from lscpm.oracle import MAX_ORACLE_VERTICES, MAX_SNAPSHOT_CLIQUES

KNOWN_ENUM_OUTPUT = """\
2 13 c d e
3 5 e f g
4 9 d e f
8 12 e f g
"""

KNOWN_COMMUNITY_OUTPUT = """\
0 c 2 13
0 d 2 13
0 e 2 13
0 f 3 12
0 g 3 5
0 g 8 12
"""

DENSE_TEXT = "\n".join(
    f"0 10 {u} {v}"
    for u, v in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)]
) + "\n"


@pytest.fixture
def known_file(tmp_path):
    path = tmp_path / "known.txt"
    path.write_text(KNOWN_STREAM_TEXT)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_known_stream(self, capsys, known_file):
        code, out, _ = run_cli(capsys, "enumerate", "--k", "3", known_file)
        assert code == 0
        assert out == KNOWN_ENUM_OUTPUT

    def test_empty_input(self, capsys, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        code, out, _ = run_cli(capsys, "enumerate", "--k", "3", str(empty))
        assert code == 0
        assert out == ""

    def test_output_is_deterministic(self, capsys, known_file):
        _, first, _ = run_cli(capsys, "enumerate", "--k", "3", known_file)
        _, second, _ = run_cli(capsys, "enumerate", "--k", "3", known_file)
        assert first == second

    def test_csv_separator(self, capsys, known_file):
        code, out, _ = run_cli(capsys, "enumerate", "--k", "3", "--output", "csv", known_file)
        assert code == 0
        assert out.splitlines()[0] == "2,13,c,d,e"

    def test_delta_flow(self, capsys, tmp_path):
        path = tmp_path / "instants.txt"
        path.write_text("0 a b\n0 a c\n0 b c\n")
        code, out, _ = run_cli(capsys, "enumerate", "--k", "3", "--delta", "5", str(path))
        assert code == 0
        assert out == "0 5 a b c\n"

    def test_end_of_link_with_new_endpoint_keeps_its_form(self, capsys, tmp_path):
        # the clique's end reads as on a-b, its first edge in vertex-id order
        # that ends then, although the search may carry 15.0 from a-c
        path = tmp_path / "mixed.txt"
        path.write_text(MIXED_END_TEXT)
        code, out, _ = run_cli(capsys, "enumerate", "--k", "3", str(path))
        assert code == 0
        assert out == "5 15 a b c\n"


class TestCommunities:
    def test_known_stream(self, capsys, known_file):
        code, out, _ = run_cli(capsys, "communities", "--k", "3", known_file)
        assert code == 0
        assert out == KNOWN_COMMUNITY_OUTPUT

    def test_end_of_link_with_new_endpoint_keeps_its_form(self, capsys, tmp_path):
        path = tmp_path / "mixed.txt"
        path.write_text(MIXED_END_TEXT)
        code, out, _ = run_cli(capsys, "communities", "--k", "3", str(path))
        assert code == 0
        assert out == "0 a 5 15\n0 b 5 15\n0 c 5 15\n"


class TestCsvQuoting:
    def test_labels_with_comma_and_quote_round_trip(self, capsys, tmp_path):
        path = tmp_path / "odd.txt"
        path.write_text('0 5 a,x b"y\n0 5 a,x c\n0 5 b"y c\n')
        expected = {
            ("enumerate", "--output", "csv"): [["0", "5", "a,x", 'b"y', "c"]],
            ("communities", "--output", "csv"): [
                ["0", "a,x", "0", "5"], ["0", 'b"y', "0", "5"], ["0", "c", "0", "5"],
            ],
            ("stats",): [
                ["section", "key", "value"],
                ["vertex_communities", "a,x", "1"],
                ["vertex_communities", 'b"y', "1"],
                ["vertex_communities", "c", "1"],
                ["community_size", "0", "3"],
            ],
        }
        for argv, rows in expected.items():
            code, out, _ = run_cli(capsys, argv[0], "--k", "3", *argv[1:], str(path))
            assert code == 0
            assert list(csv.reader(io.StringIO(out))) == rows


class TestStats:
    def test_known_stream(self, capsys, known_file):
        code, out, _ = run_cli(capsys, "stats", "--k", "3", known_file)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "section,key,value"
        assert "vertex_communities,c,1" in lines
        assert "vertex_communities,g,1" in lines
        assert "community_size,0,5" in lines

    def test_counts_vertices_outside_any_community(self, capsys, tmp_path):
        path = tmp_path / "lone.txt"
        path.write_text(KNOWN_STREAM_TEXT + "20 25 x y\n")
        _, out, _ = run_cli(capsys, "stats", "--k", "3", str(path))
        assert "vertex_communities,x,0" in out.splitlines()


class TestCompare:
    def test_nesting_report(self, capsys, tmp_path):
        path = tmp_path / "dense.txt"
        path.write_text(DENSE_TEXT)
        code, out, _ = run_cli(capsys, "compare", "--k1", "3", "--k2", "4", str(path))
        assert code == 0
        assert "equal: no" in out
        assert "refinement: k2 ⊆ k1" in out
        assert "communities: k1=2 k2=1" in out
        code, out, _ = run_cli(capsys, "compare", "--k1", "4", "--k2", "3", str(path))
        assert code == 0
        assert "refinement: k1 ⊆ k2" in out
        assert "communities: k1=1 k2=2" in out

    def test_same_k_is_equal(self, capsys, known_file):
        code, out, _ = run_cli(capsys, "compare", "--k1", "3", "--k2", "3", known_file)
        assert code == 0
        assert "equal: yes" in out
        assert "refinement: equal" in out

    def test_snapshot_containment(self, capsys, known_file):
        code, out, _ = run_cli(
            capsys, "compare", "--k1", "3", "--snapshot-times", "4.5,10", known_file
        )
        assert code == 0
        assert "snapshot t=4.5: 1 communities, all contained" in out
        assert "snapshot t=10: 2 communities, all contained" in out

    @pytest.mark.parametrize("n, k, limit", [
        (MAX_ORACLE_VERTICES + 1, 3, MAX_ORACLE_VERTICES),
        (MAX_ORACLE_VERTICES, 4, MAX_SNAPSHOT_CLIQUES),
    ])
    def test_snapshot_of_dense_graph_refused(self, capsys, tmp_path, n, k, limit):
        path = tmp_path / "dense.txt"
        path.write_text("".join(f"0 10 v{u} v{v}\n" for u in range(n) for v in range(u + 1, n)))
        code, _, err = run_cli(capsys, "compare", "--k1", str(k), "--snapshot-times", "5", str(path))
        assert code == 1
        assert f"limit {limit}" in err


class TestGenerate:
    def test_same_seed_same_bytes(self, capsys):
        args = ["generate", "--vertices", "10", "--links", "30", "--span", "50", "--seed", "9"]
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second
        assert len(first.splitlines()) == 30

    def test_block_keeps_pairs_local(self, capsys):
        _, out, _ = run_cli(capsys, "generate", "--vertices", "20", "--links", "40",
                            "--span", "50", "--seed", "1", "--block", "5")
        for line in out.splitlines():
            _, u, v = line.split()
            assert int(u) // 5 == int(v) // 5

    def test_delta_emits_durational_lines(self, capsys):
        _, out, _ = run_cli(capsys, "generate", "--vertices", "6", "--links", "10",
                            "--span", "20", "--seed", "2", "--delta", "3")
        for line in out.splitlines():
            b, e, u, v = line.split()
            assert int(e) - int(b) >= 3

    def test_delta_end_overflow_is_data_error(self, capsys):
        code, out, err = run_cli(capsys, "generate", "--vertices", "2", "--links", "3",
                                 "--span", str(10**308), "--seed", "1", "--delta", "1.7e308")
        assert code == 1
        assert out == ""
        assert "non-finite" in err

    @pytest.mark.parametrize("options, message", [
        ("--vertices 1 --links 30 --span 50", "need at least two vertices"),
        ("--vertices 10 --links 30 --span 50 --block 4", "block must be >= 2 and divide"),
        ("--vertices 10 --links 30 --span 50 --block 1", "block must be >= 2 and divide"),
        ("--vertices 10 --links 30 --span -1", "span must be >= 0, got -1"),
        ("--vertices 10 --links -3 --span 50", "the number of instants must be >= 0, got -3"),
    ])
    def test_bad_generator_option_is_usage_error(self, capsys, options, message):
        with pytest.raises(SystemExit) as exc:
            main(["generate", *options.split()])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert message in captured.err


class TestOracleCommand:
    def test_sections_present(self, capsys, known_file):
        code, out, _ = run_cli(capsys, "oracle", "--k", "3", known_file)
        assert code == 0
        assert "# cliques" in out
        assert "# communities" in out
        assert "2 13 c d e" in out


class TestErrors:
    def test_data_error_names_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 1 a b\n")
        code, out, err = run_cli(capsys, "enumerate", "--k", "3", str(path))
        assert code == 1
        assert out == ""
        assert "line 1" in err

    @pytest.mark.parametrize("text", [
        "1 nan a b\n0 5 b c\n0 5 a c\n",
        "0 inf a b\n",
    ])
    def test_non_finite_time_names_line(self, capsys, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, out, err = run_cli(capsys, "communities", "--k", "3", str(path))
        assert code == 1
        assert out == ""
        assert "line 1" in err and "non-finite" in err

    def test_form_feed_in_comment_is_not_a_line_break(self, capsys, tmp_path):
        path = tmp_path / "exported.txt"
        path.write_text("# exported\x0cpage 2\n0 5 a b\n0 5 a c\n0 5 b c\n", encoding="utf-8")
        assert run_cli(capsys, "enumerate", "--k", "3", str(path)) == (0, "0 5 a b c\n", "")

    def test_line_separator_in_comment_keeps_line_numbers(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 5 a b\n# note\u2028tail\n0 5 a c\n0 5 b c\n1 2 x\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "enumerate", "--k", "3", str(path))
        assert code == 1
        assert out == ""
        assert err == "error: line 5: expected 'b e u v', got 3 fields\n"

    @pytest.mark.parametrize("command", ["enumerate", "communities"])
    def test_end_overflow_names_line(self, capsys, tmp_path, command):
        path = tmp_path / "late.txt"
        path.write_text("1.7e308 a b\n1.7e308 a c\n1.7e308 b c\n")
        code, out, err = run_cli(capsys, command, "--k", "3", "--delta", "1e308", str(path))
        assert code == 1
        assert out == ""
        assert "line 1" in err and "non-finite" in err

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_non_finite_delta_is_usage_error(self, capsys, known_file, delta):
        with pytest.raises(SystemExit) as exc:
            main(["communities", "--k", "3", "--delta", delta, known_file])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (["communities", "--k", "3", "--delta", "nan", "IN"],
         "argument --delta: non-finite time value 'nan'"),
        (["generate", "--vertices", "6", "--links", "10", "--span", "20", "--delta", "x"],
         "argument --delta: bad time value 'x'"),
        (["compare", "--k1", "3", "--k2", "4", "--snapshot-times", "4,x", "IN"],
         "argument --snapshot-times: bad time value 'x'"),
    ] + [
        (argv + ["--delta", delta],
         f"argument --delta: delta must be positive and finite, got {delta}")
        for argv in (["enumerate", "--k", "3", "IN"], ["communities", "--k", "3", "IN"],
                     ["stats", "--k", "3", "IN"], ["compare", "--k1", "3", "--k2", "4", "IN"],
                     ["oracle", "--k", "3", "IN"],
                     ["generate", "--vertices", "6", "--links", "10", "--span", "20"])
        for delta in ("0", "-2")
    ])
    def test_bad_time_option_is_plain_usage_error(self, capsys, known_file, argv, message):
        # refused while parsing arguments: before the input is read, nothing printed
        with pytest.raises(SystemExit) as exc:
            main([known_file if arg == "IN" else arg for arg in argv])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert message in captured.err
        assert "_parse_time" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["generate", "--vertices", "10", "--links", "30", "--span", "-1"],
        ["compare", "--k1", "3", "--k2", "2", "IN"],
        ["communities", "--k", "2", "IN"],
        ["enumerate", "--k", "3", "--bogus", "IN"],
        ["compare", "--k1", "3", "IN"],
    ])
    def test_usage_error_prints_subcommand_usage(self, capsys, known_file, argv):
        with pytest.raises(SystemExit) as exc:
            main([known_file if arg == "IN" else arg for arg in argv])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"usage: lscpm {argv[0]} ")

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--k", "3", "/nonexistent/file.txt")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("exc", [
        OSError(errno.ENOSPC, "No space left on device"),
        BrokenPipeError(errno.EPIPE, "Broken pipe"),
    ], ids=["disk-full", "broken-pipe"])
    def test_write_failure_is_not_a_read_failure(self, capsys, monkeypatch, known_file, exc):
        class FailingOut(io.StringIO):
            def write(self, text):
                raise exc

        monkeypatch.setattr(sys, "stdout", FailingOut())
        assert main(["enumerate", "--k", "3", known_file]) == 1
        assert capsys.readouterr().err == f"error: cannot write output: {exc}\n"

    def test_k_too_small_is_usage_error(self, capsys, known_file):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--k", "2", known_file])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (["enumerate", "--k", "2", "IN"], "argument --k: k must be at least 3, got 2"),
        (["stats", "--k", "-1", "IN"], "argument --k: k must be at least 3, got -1"),
        (["oracle", "--k", "x", "IN"], "argument --k: invalid int value: 'x'"),
        (["compare", "--k1", "2", "IN"], "argument --k1: k must be at least 3, got 2"),
        (["compare", "--k1", "3", "--k2", "2", "IN"], "argument --k2: k must be at least 3, got 2"),
        (["compare", "--k1", "3", "--k2", "4.0", "IN"], "argument --k2: invalid int value: '4.0'"),
    ])
    def test_bad_k_is_refused_by_its_option(self, capsys, known_file, argv, message):
        with pytest.raises(SystemExit) as exc:
            main([known_file if arg == "IN" else arg for arg in argv])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"usage: lscpm {argv[0]} ")
        assert captured.err.endswith(f"error: {message}\n")

    def test_unknown_flag_is_usage_error(self, capsys, known_file):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--k", "3", "--bogus", known_file])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["enumerate", "communities", "stats", "oracle"])
    def test_format_option_is_gone(self, capsys, known_file, command):
        # --delta alone selects instantaneous input
        with pytest.raises(SystemExit) as exc:
            main([command, "--k", "3", "--format", "durational", known_file])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err


class TestEntryPoint:
    @staticmethod
    def run_module(tmp_path, *argv, stdin=b""):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run([sys.executable, "-m", "lscpm", *argv], input=stdin,
                              capture_output=True, env=env, cwd=str(Path(tmp_path)))

    def test_module_invocation_and_stdin(self, tmp_path):
        proc = self.run_module(tmp_path, "communities", "--k", "3", "-",
                               stdin=KNOWN_STREAM_TEXT.encode())
        assert proc.returncode == 0
        assert proc.stdout.decode() == KNOWN_COMMUNITY_OUTPUT

    def test_reader_closing_the_pipe_early(self, tmp_path):
        # far more output than a pipe holds, so the CLI is still writing when
        # its reader goes away, as under `| head -1`
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        argv = ["generate", "--vertices", "30", "--links", "100000", "--span", "100"]
        proc = subprocess.Popen([sys.executable, "-m", "lscpm", *argv], stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                                cwd=str(tmp_path))
        assert proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert err == b"error: cannot write output: [Errno 32] Broken pipe\n"

    def test_invalid_utf8_on_stdin_fails_as_in_a_file(self, tmp_path):
        data = b"0 5 a b\n0 5 a\xff c\n0 5 b c\n"
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        on_file = self.run_module(tmp_path, "communities", "--k", "3", str(path))
        on_stdin = self.run_module(tmp_path, "communities", "--k", "3", "-", stdin=data)
        assert on_file.returncode == on_stdin.returncode == 1
        assert on_stdin.stdout == b""
        assert on_stdin.stderr == on_file.stderr
        assert b"can't decode byte 0xff in position 13" in on_stdin.stderr

    def test_crlf_on_stdin_reads_as_in_a_file(self, tmp_path):
        data = KNOWN_STREAM_TEXT.replace("\n", "\r\n").encode()
        path = tmp_path / "known.txt"
        path.write_bytes(data)
        on_file = self.run_module(tmp_path, "communities", "--k", "3", str(path))
        on_stdin = self.run_module(tmp_path, "communities", "--k", "3", "-", stdin=data)
        assert on_file.returncode == on_stdin.returncode == 0
        assert on_stdin.stdout.decode() == on_file.stdout.decode() == KNOWN_COMMUNITY_OUTPUT
