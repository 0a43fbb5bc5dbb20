import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import KNOWN_CLIQUES, MIXED_END_TEXT, dense_streams, streams

from lscpm import (
    Interval,
    Link,
    LinkStream,
    TemporalKClique,
    WindowGraph,
    cliques_containing_edge,
    compute_communities,
    enumerate_k_cliques,
    parse_links,
    validate,
)
from lscpm.cliques import _search
from lscpm.oracle import can_end_later, can_start_earlier, is_clique, oracle_enumerate, pair_spans


@st.composite
def loose_streams(draw) -> LinkStream:
    """Links on a few pairs that may overlap, sorted by from_links or left as drawn."""
    n = draw(st.integers(2, 5))
    links = []
    for _ in range(draw(st.integers(0, 12))):
        u, v = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
        b = draw(st.integers(0, 20))
        links.append(Link(b, b + draw(st.integers(0, 6)), u, v))
    if draw(st.booleans()):
        return LinkStream.from_links(links)
    return LinkStream(tuple(links), {x: str(x) for x in range(n)})


def window_with(*links):
    g = WindowGraph()
    for ln in links:
        g.add(ln)
    return g


def linked(g, u, v):
    return v in g.adj.get(u, {})


class TestWindowGraph:
    def test_add_records_end_time(self):
        g = window_with(Link(1, 13, 0, 1))
        assert linked(g, 0, 1)
        assert g.adj[0][1] == 13

    def test_two_disjoint_pairs_coexist(self):
        g = window_with(Link(0, 5, 0, 1), Link(1, 6, 2, 3))
        assert linked(g, 0, 1) and linked(g, 2, 3)
        assert len(g) == 2

    def test_re_add_after_expiry_overwrites(self):
        g = window_with(Link(0, 5, 0, 1))
        g.expire(6)
        assert not linked(g, 0, 1)
        g.add(Link(6, 9, 0, 1))
        assert g.adj[0][1] == 9

    def test_expire_is_strict_at_boundary(self):
        g = window_with(Link(0, 5, 0, 1))
        g.expire(5)
        assert linked(g, 0, 1)  # an edge ending exactly at b survives
        g.expire(6)
        assert not linked(g, 0, 1)
        assert 0 not in g.adj

    def test_expire_empty_is_noop(self):
        g = WindowGraph()
        g.expire(10)
        assert len(g) == 0

    def test_stale_expiry_entry_skipped(self):
        g = window_with(Link(0, 5, 0, 1), Link(6, 8, 0, 1))
        g.expire(7)  # pops the bucket of end 5, whose (0, 1) entry is superseded
        assert linked(g, 0, 1)
        assert g.adj[0][1] == 8

    def test_overlapping_links_sharing_an_end_expire_once(self):
        # two entries for (0, 1) in the bucket of end 5: the second finds 0 gone
        g = window_with(Link(0, 5, 0, 1), Link(3, 5, 0, 1))
        assert len(g) == 1
        g.expire(6)
        assert g.adj == {}
        assert len(g) == 0

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_live_pair_model(self, data):
        # ends are ints or the same value written as a float (5 and 5.0)
        g = WindowGraph()
        model: dict[tuple[int, int], object] = {}
        now = 0
        last_end = 0
        for _ in range(data.draw(st.integers(0, 30))):
            if data.draw(st.booleans()):
                now += data.draw(st.integers(0, 3))
                u, v = sorted(data.draw(st.lists(st.integers(0, 6), min_size=2, max_size=2,
                                                 unique=True)))
                e = now + data.draw(st.integers(0, 6))
                if data.draw(st.booleans()):
                    e = float(e)
                g.add(Link(now, e, u, v))
                model[u, v] = e
                last_end = max(last_end, e)
            else:
                t = now + data.draw(st.integers(0, 2))
                g.expire(t)
                model = {p: e for p, e in model.items() if e >= t}
                now = t
            # each live pair holds the end of its last link, in the form it was written
            window = {(u, v): repr(e) for u, nu in g.adj.items() for v, e in nu.items() if u < v}
            assert window == {p: repr(e) for p, e in model.items()}
            for u, nu in g.adj.items():
                assert nu, u  # no vertex maps to an empty dict
                for v, e in nu.items():
                    assert repr(g.adj[v][u]) == repr(e)  # symmetric
            assert len(g) == len(model)
        g.expire(last_end + 1)
        assert g.adj == {}
        assert g._buckets == {} and g._ends == []
        assert len(g) == 0


def complete_window(n, end=100):
    return window_with(*(Link(0, end, u, v) for u, v in combinations(range(n), 2)))


class TestCliquesContainingEdge:
    def test_triangle(self):
        g = complete_window(3)
        assert cliques_containing_edge(g, 0, 1, 3) == [(0, 1, 2)]

    def test_four_clique_lists_two_triangles(self):
        g = complete_window(4)
        got = sorted(cliques_containing_edge(g, 0, 1, 3))
        # brute force over 1-subsets of the common neighborhood
        common = g.adj[0].keys() & g.adj[1].keys()
        want = sorted(tuple(sorted((0, 1, w))) for w in common)
        assert got == want == [(0, 1, 2), (0, 1, 3)]

    def test_path_has_no_triangle(self):
        g = window_with(Link(0, 9, 0, 1), Link(0, 9, 1, 2))
        assert cliques_containing_edge(g, 0, 1, 3) == []
        # a vertex with no live neighbor is not in the window at all
        assert cliques_containing_edge(g, 0, 7, 3) == []

    def test_k_must_be_at_least_three(self):
        g = complete_window(3)
        with pytest.raises(ValueError):
            cliques_containing_edge(g, 0, 1, 2)

    @pytest.mark.parametrize("k", [4, 5, 6, 7])
    def test_matches_brute_force_on_dense_window(self, k):
        g = complete_window(7)
        g.add(Link(0, 100, 0, 7))  # pendant edge off the clique
        g.add(Link(0, 100, 7, 8))
        got = sorted(cliques_containing_edge(g, 0, 1, k))
        common = g.adj[0].keys() & g.adj[1].keys()
        want = sorted(
            tuple(sorted((0, 1) + rest))
            for rest in combinations(sorted(common), k - 2)
            if all(y in g.adj[x] for x, y in combinations(rest, 2))
        )
        assert got == want

    @given(st.integers(3, 10), st.integers(0, 2**32 - 1), st.floats(0.4, 0.9), st.integers(3, 7))
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_on_random_window(self, n, seed, density, k):
        rng = random.Random(seed)
        pairs = [p for p in combinations(range(n), 2) if rng.random() < density]
        if not pairs:
            return
        g = window_with(*(Link(0, 100, u, v) for u, v in pairs))
        u, v = rng.choice(pairs)
        got = cliques_containing_edge(g, u, v, k)
        assert len(got) == len(set(got))
        assert cliques_containing_edge(g, v, u, k) == got  # the pair's order does not matter
        common = g.adj[u].keys() & g.adj[v].keys()
        want = sorted(
            tuple(sorted((u, v) + rest))
            for rest in combinations(sorted(common), k - 2)
            if all(y in g.adj[x] for x, y in combinations(rest, 2))
        )
        assert sorted(got) == want
        # with finite edge ends and a finite cut-off b < e, as enumeration runs
        # the search: each clique ends at the earliest of e and its other edges'
        # ends, and exactly the cliques ending after b come out
        ends = {p: rng.randint(1, 20) for p in pairs}
        g = window_with(*(Link(0, ends[p], *p) for p in pairs))
        b = rng.randint(0, 12)
        e = rng.randint(b + 1, 20)
        timed = [(c, min([e] + [ends[p] for p in combinations(c, 2) if p != (u, v)]), b)
                 for c in want]
        found = _search(g, u, v, k, e, b)
        assert sorted(found) == [t for t in timed if t[1] > b]
        assert sorted(_search(g, v, u, k, e, b)) == sorted(found)


class TestEnumerate:
    def test_known_stream_emits_known_cliques_in_order(self, known_stream):
        labels = known_stream.labels
        got = [
            (tuple(labels[v] for v in c.vertices), (c.interval.t0, c.interval.t1))
            for c in enumerate_k_cliques(known_stream, 3)
        ]
        assert got == KNOWN_CLIQUES

    def test_single_link_yields_nothing(self):
        stream = LinkStream.from_links([Link(0, 9, 0, 1)])
        assert list(enumerate_k_cliques(stream, 3)) == []
        assert list(enumerate_k_cliques(stream, 5)) == []

    def test_k_below_three_rejected(self, known_stream):
        with pytest.raises(ValueError):
            list(enumerate_k_cliques(known_stream, 2))
        with pytest.raises(ValueError, match="k must be at least 3"):
            oracle_enumerate(known_stream, 2)

    def test_zero_length_candidate_suppressed(self):
        # the third edge arrives exactly when the first two end
        stream = LinkStream.from_links(
            [Link(0, 5, 0, 1), Link(0, 5, 0, 2), Link(5, 9, 1, 2)]
        )
        assert list(enumerate_k_cliques(stream, 3)) == []
        assert oracle_enumerate(stream, 3) == set()

    def test_zero_duration_link_contributes_nothing(self):
        stream = LinkStream.from_links(
            [Link(0, 9, 0, 1), Link(0, 9, 0, 2), Link(3, 3, 1, 2)]
        )
        assert list(enumerate_k_cliques(stream, 3)) == []

    def test_same_batch_clique_found_once(self):
        stream = LinkStream.from_links(
            [Link(0, 9, 0, 1), Link(0, 8, 0, 2), Link(0, 7, 1, 2)]
        )
        got = list(enumerate_k_cliques(stream, 3))
        assert got == [TemporalKClique((0, 1, 2), Interval(0, 7))]

    def test_overlapping_links_sharing_an_end(self):
        # from_links keeps both links on (0, 1); the second begins while the first is live
        stream = LinkStream.from_links([Link(0, 5, 0, 1), Link(3, 5, 0, 1), Link(7, 9, 2, 3)])
        with pytest.raises(ValueError, match="links on a pair must be disjoint"):
            list(enumerate_k_cliques(stream, 3))

    def test_overlapping_links_yield_a_clique_each(self):
        # the cliques found before the overlapping link at 3 are yielded, then it is refused
        stream = LinkStream.from_links([Link(0, 5, 0, 1), Link(3, 5, 0, 1), Link(0, 9, 0, 2),
                                        Link(0, 9, 1, 2), Link(7, 9, 0, 1)])
        got = []
        with pytest.raises(ValueError, match="links on a pair must be disjoint"):
            got.extend(enumerate_k_cliques(stream, 3))
        assert got == [TemporalKClique((0, 1, 2), Interval(0, 5))]
        with pytest.raises(ValueError, match="links on a pair must be disjoint"):
            compute_communities(stream, 3)

    def test_unsorted_links_refused(self):
        stream = LinkStream((Link(1, 5, 0, 1), Link(0, 5, 0, 2)), {0: "a", 1: "b", 2: "c"})
        with pytest.raises(ValueError, match="links must be sorted"):
            list(enumerate_k_cliques(stream, 3))

    @given(st.one_of(loose_streams(), streams()), st.integers(3, 5))
    @settings(max_examples=200, deadline=None)
    def test_refuses_exactly_what_validate_reports_unsorted_or_overlapping(self, stream, k):
        kinds = {v.kind for v in validate(stream)}
        assert kinds <= {"pair-overlap", "unsorted"}
        for run in (lambda: list(enumerate_k_cliques(stream, k)),
                    lambda: compute_communities(stream, k)):
            if kinds:
                with pytest.raises(ValueError):
                    run()
            else:
                run()

    def test_float_end_of_link_with_new_endpoint_keeps_its_form(self):
        # a-c arrives when c has no other neighbor and closes nothing, but its
        # end 15.0 ties the clique found at 5, whose end reads as on a-b
        stream = parse_links(MIXED_END_TEXT)
        got = [(c.vertices, repr(c.interval.t0), repr(c.interval.t1))
               for c in enumerate_k_cliques(stream, 3)]
        assert got == [((0, 1, 2), "5", "15")]

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_time_written_two_ways_keeps_its_form(self, k):
        # 9.0 on a-b and 9 elsewhere: a clique's end reads as on its first edge
        # in vertex-id order that ends then, whatever order the search met them
        pairs = combinations("abcde", 2)
        stream = parse_links("".join(f"0 {'9.0' if p == ('a', 'b') else '9'} {p[0]} {p[1]}\n"
                                     for p in pairs))
        got = [(c.vertices, repr(c.interval.t1)) for c in enumerate_k_cliques(stream, k)]
        assert got == [(c, "9.0" if c[:2] == (0, 1) else "9") for c in combinations(range(5), k)]

    def test_begin_written_two_ways_keeps_its_form(self):
        # the link b-c, begun at 0.0, finds the triangle
        stream = parse_links("0 5 a b\n0 5.0 a c\n0.0 5 b c\n")
        got = [(repr(c.interval.t0), repr(c.interval.t1)) for c in enumerate_k_cliques(stream, 3)]
        assert got == [("0.0", "5")]

    @given(streams(), st.sampled_from([3, 4, 5]))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_exactly(self, stream, k):
        got = list(enumerate_k_cliques(stream, k))
        assert len(got) == len(set(got))  # no duplicates
        assert set(got) == oracle_enumerate(stream, k)

    @given(dense_streams(), st.integers(3, 7))
    @settings(max_examples=80, deadline=None)
    def test_matches_oracle_on_dense_streams(self, stream, k):
        # every edge ends at its own time, so this checks the end each search
        # branch carries and the cut-off at b, for k >= 5 too
        got = list(enumerate_k_cliques(stream, k))
        assert len(got) == len(set(got))
        assert set(got) == oracle_enumerate(stream, k)

    @given(st.one_of(streams(), dense_streams()), st.integers(3, 5))
    @settings(max_examples=60, deadline=None)
    def test_repeated_links_give_each_clique_once(self, stream, k):
        # from_links keeps one copy of each link, and the link that completes
        # a clique finds it once, so no batch needs a dedup pass
        doubled = LinkStream.from_links(stream.links * 2, stream.labels)
        got = list(enumerate_k_cliques(doubled, k))
        assert len(got) == len(set(got))
        assert got == list(enumerate_k_cliques(stream, k))

    @given(streams())
    @settings(max_examples=40, deadline=None)
    def test_emission_order_and_maximality(self, stream):
        spans = pair_spans(stream)
        starts = []
        for clique in enumerate_k_cliques(stream, 3):
            starts.append(clique.interval.t0)
            assert is_clique(stream, clique.vertices, clique.interval, spans)
            assert not can_start_earlier(stream, clique, spans)
            assert not can_end_later(stream, clique, spans)
        assert starts == sorted(starts)

    @given(streams())
    @settings(max_examples=40, deadline=None)
    def test_larger_cliques_nest_into_smaller(self, stream):
        small = {}
        for c in enumerate_k_cliques(stream, 3):
            small.setdefault(c.vertices, []).append(c.interval)
        for big in enumerate_k_cliques(stream, 4):
            for sub in combinations(big.vertices, 3):
                assert any(
                    iv.t0 <= big.interval.t0 and big.interval.t1 <= iv.t1 for iv in small.get(sub, [])
                ), (big, sub)
