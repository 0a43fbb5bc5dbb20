import sys
from itertools import combinations
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import pytest
from hypothesis import strategies as st

from lscpm import Link, LinkStream, apply_delta, serialize

# Stream whose maximal 3-cliques and single community are known by hand:
# ({c,d,e},[2,13]), ({e,f,g},[3,5]), ({d,e,f},[4,9]), ({e,f,g},[8,12]).
KNOWN_STREAM_TEXT = """\
1 13 c d
2 13 c e
2 13 d e
3 12 e f
3 5 e g
3 5 f g
4 9 d f
8 12 e g
8 12 f g
"""

KNOWN_CLIQUES = [
    (("c", "d", "e"), (2, 13)),
    (("e", "f", "g"), (3, 5)),
    (("d", "e", "f"), (4, 9)),
    (("e", "f", "g"), (8, 12)),
]

KNOWN_COMMUNITY = {
    "c": ((2, 13),),
    "d": ((2, 13),),
    "e": ((2, 13),),
    "f": ((3, 12),),
    "g": ((3, 5), (8, 12)),
}

# A float-ended link (a-c) whose endpoint c is new: it closes no clique when it
# arrives, but its end 15.0 ties the other ends of the clique a-b-c found at 5,
# which must still read 15, as on a-b, its first edge in vertex-id order.
MIXED_END_TEXT = """\
0 3 a b
4 15.0 a c
4 15 b c
5 15 a b
"""


@pytest.fixture
def known_text() -> str:
    return KNOWN_STREAM_TEXT


@pytest.fixture
def known_stream() -> LinkStream:
    from lscpm import parse_links

    return parse_links(KNOWN_STREAM_TEXT)


@st.composite
def instant_streams(draw) -> LinkStream:
    n = draw(st.integers(2, 8))
    delta = draw(st.integers(1, 8))
    records = draw(
        st.lists(
            st.tuples(st.integers(0, 45), st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=25,
        )
    )
    instants = [r for r in records if r[1] != r[2]]
    if not instants:
        return LinkStream.from_links([])
    return apply_delta(instants, delta)


@st.composite
def durational_streams(draw) -> LinkStream:
    n = draw(st.integers(2, 8))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    n_pairs = draw(st.integers(0, min(10, len(all_pairs))))
    chosen = draw(st.permutations(all_pairs))[:n_pairs]
    links = []
    for u, v in chosen:
        count = draw(st.integers(1, 3))
        points = sorted(draw(st.lists(st.integers(0, 50), min_size=2 * count,
                                      max_size=2 * count, unique=True)))
        for i in range(count):
            s, e = points[2 * i], points[2 * i + 1]
            if draw(st.integers(0, 9)) == 0:
                e = s  # sprinkle zero-length links; valid data, never in a clique
            links.append(Link(s, e, u, v))
    return LinkStream.from_links(links)


def streams() -> st.SearchStrategy[LinkStream]:
    return st.one_of(instant_streams(), durational_streams())


@st.composite
def dense_streams(draw) -> LinkStream:
    """One link per pair on up to 9 vertices, so the window is nearly complete.

    Begins in 0..4 and ends in b..12 give each edge its own end, so the edge
    that ends a clique varies, and zero-length links and cliques that die at
    their start occur.
    """
    n = draw(st.integers(3, 9))
    links = []
    for u, v in combinations(range(n), 2):
        b = draw(st.integers(0, 4))
        links.append(Link(b, draw(st.integers(b, 12)), u, v))
    return LinkStream.from_links(links)


@st.composite
def wide_streams(draw) -> LinkStream:
    """A stream of streams() or dense_streams() with its times spread over about 1e6.

    Each time t maps to a * t + c. Behind a drawn flag every time gains half a
    tick, so all are floats; otherwise about one time in four is written as the
    float of the same value, the 5.0 form of 5.
    """
    stream = draw(st.one_of(streams(), dense_streams()))
    a = draw(st.sampled_from([1, 2, 64, 997, 20000]))
    c = draw(st.integers(-10**6, 10**6))
    half = draw(st.booleans())

    def wide(t):
        t = a * t + c
        if half:
            return t + 0.5
        return float(t) if draw(st.integers(0, 3)) == 0 else t

    return LinkStream.from_links([Link(wide(ln.b), wide(ln.e), ln.u, ln.v) for ln in stream.links])


# Edits of a serialized stream. Most make text that parse_links refuses, or
# that is not sorted, pairwise disjoint b e u v lines; the rest change only
# line ends, comments, spacing or a time's form.
TEXT_EDITS = ("none", "shuffle", "repeat", "overlap", "touch", "float-time", "comment", "crlf",
              "lone-cr", "end-before-begin", "self-loop", "three-fields", "tab", "double-space")


@st.composite
def stream_texts(draw) -> str:
    """serialize() of a stream, as it is or with one edit of TEXT_EDITS.

    A repeat or an overlap goes right after its line and a touching link where
    its begin sorts, so the text stays sorted and only the pair shows them.
    """
    lines = serialize(draw(st.one_of(streams(), dense_streams()))).splitlines()
    edit = draw(st.sampled_from(TEXT_EDITS))
    if not lines:
        lines = ["0 1 a b"]
    i = draw(st.integers(0, len(lines) - 1))
    b, e, x, y = lines[i].split()
    sep = "\n"
    if edit == "shuffle":
        lines = draw(st.permutations(lines))
    elif edit == "repeat":
        lines.insert(i + 1, lines[i])
    elif edit == "overlap":
        lines.insert(i + 1, f"{b} {int(e) + 1} {x} {y}")
    elif edit == "touch":
        j = next((j for j, ln in enumerate(lines) if int(ln.split()[0]) > int(e)), len(lines))
        lines.insert(j, f"{e} {int(e) + 1} {x} {y}")
    elif edit == "float-time":
        lines[i] = f"{b} {e}.0 {x} {y}"
    elif edit == "comment":
        lines[i:i] = ["# note", ""]
    elif edit == "crlf":
        sep = "\r\n"
    elif edit == "lone-cr":
        lines[i] += "\r" + lines.pop(i + 1) if i + 1 < len(lines) else "\r"
    elif edit == "end-before-begin":
        lines.insert(i, f"{e} {int(e) - 1} {x} {y}")
    elif edit == "self-loop":
        lines.insert(i, f"{b} {e} {x} {x}")
    elif edit == "three-fields":
        lines.insert(i, f"{b} {x} {y}")
    elif edit in ("tab", "double-space"):
        lines[i] = ("\t" if edit == "tab" else "  ").join(lines[i].split())
    return sep.join(lines) + sep
