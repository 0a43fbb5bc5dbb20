"""Peak memory of a whole run against stream length (ROADMAP item 2)."""

import os
import sys
import tracemalloc

import pytest
from helpers import refuse

import lscpm.cli
from lscpm import compute_communities, parse_links, serialize, synthetic_stream


def sorted_text(n_instants: int) -> str:
    """A generated bounded-degree stream of n_instants instants, serialized: sorted, integer."""
    return serialize(synthetic_stream(1000, n_instants, n_instants // 10, 20, 1, block=10))


def traced_peak(n_instants: int) -> int:
    """tracemalloc peak, in bytes, of parsing one generated text and percolating it at k = 3."""
    text = sorted_text(n_instants)
    tracemalloc.start()
    try:
        compute_communities(parse_links(text), 3)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.xfail(strict=True, reason="parsed links and percolation memberships are all held"
                   " to the end, not only the live window's: ROADMAP item 2, steps A and B,"
                   " bound them")
def test_peak_memory_follows_the_live_window():
    # bounded-degree streams: the live window has the same size at both lengths
    small, big = traced_peak(10**4), traced_peak(10**5)
    assert big <= 3 * small, \
        f"peak grew {big / small:.1f}x, {small / 1e6:.2f} -> {big / 1e6:.2f} MB"


def traced_cli_peak(path) -> int:
    """tracemalloc peak, in bytes, of `lscpm communities --k 3` on path, output discarded."""
    with open(os.devnull, "w") as sink:
        stdout, sys.stdout = sys.stdout, sink
        tracemalloc.start()
        try:
            assert lscpm.cli.main(["communities", "--k", "3", str(path)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            sys.stdout = stdout


def test_streamed_cli_read_peaks_below_half_the_whole_text_parse(tmp_path, monkeypatch):
    path = tmp_path / "sorted.txt"
    path.write_text(sorted_text(10**5))
    streamed = traced_cli_peak(path)
    monkeypatch.setattr(lscpm.cli, "_sorted_links", refuse)  # parse the whole text instead
    whole = traced_cli_peak(path)
    assert streamed <= whole / 2, f"{streamed / 1e6:.2f} MB streamed, {whole / 1e6:.2f} MB whole"
