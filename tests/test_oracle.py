import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import KNOWN_CLIQUES, streams
from helpers import canon

from lscpm import (
    Interval,
    Link,
    LinkStream,
    TemporalCommunity,
    TemporalKClique,
    compare_communities,
    oracle_communities,
    oracle_enumerate,
    snapshot_cpm,
)
from lscpm.oracle import (
    ComparisonReport,
    can_end_later,
    can_start_earlier,
    community_contains,
    containing_communities,
    is_clique,
    pair_spans,
)


def kc(vertices, t0, t1):
    return TemporalKClique(tuple(sorted(vertices)), Interval(t0, t1))


class TestOracleEnumerate:
    def test_known_stream(self, known_stream):
        labels = known_stream.labels
        got = sorted(
            (tuple(labels[v] for v in c.vertices), (c.interval.t0, c.interval.t1))
            for c in oracle_enumerate(known_stream, 3)
        )
        assert got == sorted(KNOWN_CLIQUES)

    def test_no_triangle_means_empty(self):
        stream = LinkStream.from_links([Link(0, 9, 0, 1), Link(0, 9, 1, 2)])
        assert oracle_enumerate(stream, 3) == set()

    def test_k_larger_than_any_static_clique(self, known_stream):
        assert oracle_enumerate(known_stream, 4) == set()
        assert oracle_enumerate(known_stream, 6) == set()

    def test_size_guard(self):
        links = [Link(0, 1, 0, i) for i in range(1, 22)]
        stream = LinkStream.from_links(links)
        with pytest.raises(ValueError, match="too large"):
            oracle_enumerate(stream, 3)

    @given(streams())
    @settings(max_examples=40, deadline=None)
    def test_results_are_definition_faithful(self, stream):
        spans = pair_spans(stream)
        for clique in oracle_enumerate(stream, 3):
            assert is_clique(stream, clique.vertices, clique.interval, spans)
            assert not can_start_earlier(stream, clique, spans)
            assert not can_end_later(stream, clique, spans)


class TestOracleCommunities:
    def test_known_cliques_form_one_community(self, known_stream):
        cliques = sorted(oracle_enumerate(known_stream, 3),
                         key=lambda c: (c.interval.t0, c.vertices))
        partition, communities = oracle_communities(cliques, 3)
        assert len(partition) == 1
        assert len(communities) == 1
        assert sorted(communities[0].members) == [0, 1, 2, 3, 4]

    def test_vertex_disjoint_cliques_stay_apart(self):
        partition, communities = oracle_communities(
            [kc((0, 1, 2), 0, 5), kc((3, 4, 5), 0, 5)], 3
        )
        assert len(partition) == 2
        assert len(communities) == 2

    def test_zero_length_overlap_does_not_connect(self):
        # share two vertices but touch only at one instant
        partition, _ = oracle_communities(
            [kc((0, 1, 2), 0, 5), kc((0, 1, 3), 5, 9)], 3
        )
        assert len(partition) == 2

    def test_component_count_ignores_input_order(self):
        rng = random.Random(5)
        cliques = [
            kc((0, 1, 2), 0, 5),
            kc((0, 1, 3), 4, 9),
            kc((4, 5, 6), 2, 8),
            kc((4, 5, 7), 7, 11),
        ]
        _, base = oracle_communities(cliques, 3)
        for _ in range(10):
            shuffled = cliques[:]
            rng.shuffle(shuffled)
            _, got = oracle_communities(shuffled, 3)
            assert canon(got) == canon(base)


class TestSnapshot:
    def test_known_stream_mid_window(self, known_stream):
        # between times 4 and 5 the three triangles chain into one group
        got = snapshot_cpm(known_stream, 4.5, 3)
        assert got == [frozenset({0, 1, 2, 3, 4})]
        assert {0, 1, 2, 3} <= got[0]

    def test_snapshot_without_cliques(self, known_stream):
        assert snapshot_cpm(known_stream, 0.5, 3) == []

    def test_snapshot_of_a_single_clique(self, known_stream):
        assert snapshot_cpm(known_stream, 2.5, 3) == [frozenset({0, 1, 2})]

    def test_link_dead_at_its_end_time(self):
        stream = LinkStream.from_links(
            [Link(0, 5, 0, 1), Link(0, 9, 0, 2), Link(0, 9, 1, 2)]
        )
        assert snapshot_cpm(stream, 5, 3) == []
        assert snapshot_cpm(stream, 4.99, 3) == [frozenset({0, 1, 2})]


def community(cid, members):
    return TemporalCommunity(cid, {v: tuple(Interval(a, b) for a, b in spans)
                                   for v, spans in members.items()})


# span sets that are equal in value but written with ints or floats, nested
# and disjoint, so drawn communities compare equal, contain each other or not
SPAN_SETS = [((0, 5),), ((0.0, 5.0),), ((0, 10),), ((2, 5),), ((0, 3), (6, 9)), ((6.0, 9),)]
communities = st.lists(
    st.dictionaries(st.integers(0, 3), st.sampled_from(SPAN_SETS), min_size=1, max_size=3)
    .map(lambda members: community(0, members)),
    max_size=5,
)

# as communities, but a list may hold a community with no members
communities_or_empty = st.lists(
    st.dictionaries(st.integers(0, 3), st.sampled_from(SPAN_SETS), max_size=3)
    .map(lambda members: community(0, members)),
    max_size=5,
)


def reference_report(a, b):
    """compare_communities written out by its definition: sorted canonical
    lists for equality, list membership for the diff counts and
    containing_communities for containment."""
    canon_a = sorted(sorted(c.canonical()) for c in a)
    canon_b = sorted(sorted(c.canonical()) for c in b)
    equal = canon_a == canon_b
    a_in_b = all(containing_communities(x, b) for x in a)
    b_in_a = all(containing_communities(x, a) for x in b)
    diffs = []
    if not equal:
        only_a = [c for c in canon_a if c not in canon_b]
        only_b = [c for c in canon_b if c not in canon_a]
        if only_a:
            diffs.append(f"{len(only_a)} community(ies) only on side a")
        if only_b:
            diffs.append(f"{len(only_b)} community(ies) only on side b")
    return ComparisonReport(equal, a_in_b, b_in_a, tuple(diffs))


class TestCompare:
    @given(communities, communities, st.lists(st.integers(0, 9), max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_report_matches_the_definition(self, a, b, repeats):
        if a:
            a += [a[i % len(a)] for i in repeats]  # the lists are multisets
        for x, y in ((a, b), (b, a), (a, a)):
            assert compare_communities(x, y) == reference_report(x, y)

    @given(communities_or_empty, communities_or_empty)
    @settings(max_examples=200, deadline=None)
    def test_containment_matches_the_full_scan(self, a, b):
        # containment by its definition: scan every community of the other side
        for x, y in ((a, b), (b, a)):
            report = compare_communities(x, y)
            assert report.a_in_b == all(any(community_contains(o, c) for o in y) for c in x)
            assert report.b_in_a == all(any(community_contains(o, c) for o in x) for c in y)

    def test_empty_community_lies_in_any_community(self):
        empty = community(0, {})
        other = community(0, {0: [(0, 5)]})
        assert compare_communities([empty], [other]).a_in_b
        assert not compare_communities([empty], []).a_in_b
        assert compare_communities([], []).a_in_b

    def test_permuted_labels_are_equal(self):
        a = [community(0, {0: [(0, 5)], 1: [(0, 5)]}), community(1, {2: [(3, 9)]})]
        b = [community(7, {2: [(3, 9)]}), community(4, {0: [(0, 5)], 1: [(0, 5)]})]
        report = compare_communities(a, b)
        assert report.equal
        assert report.refinement == "equal"
        assert report.diffs == ()
        # a repeat makes the multisets differ while each side still lies in the other
        c = a[0]
        assert compare_communities([c, c], [c]).refinement == "mutual"

    def test_disjoint_lists(self):
        a = [community(0, {0: [(0, 5)]})]
        b = [community(0, {9: [(7, 8)]})]
        report = compare_communities(a, b)
        assert not report.equal
        assert not report.a_in_b and not report.b_in_a
        assert report.refinement == "none"
        assert report.diffs

    def test_containment_checks_intervals_too(self):
        big = community(0, {0: [(0, 10)], 1: [(0, 10)]})
        small = community(0, {0: [(2, 5)]})
        shifted = community(0, {0: [(5, 12)]})
        assert community_contains(big, small)
        assert not community_contains(small, big)
        assert not community_contains(big, shifted)
        assert containing_communities(small, [big, shifted]) == [0]

    def test_higher_k_refines_lower_k(self):
        # full 4-clique plus a triangle hanging off one vertex
        links = [Link(0, 10, u, v) for u, v in
                 [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)]]
        stream = LinkStream.from_links(links)
        from lscpm import compute_communities

        k3 = compute_communities(stream, 3)
        k4 = compute_communities(stream, 4)
        assert len(k3) == 2 and len(k4) == 1
        report = compare_communities(k4, k3)
        assert report.a_in_b and not report.equal
        assert report.refinement == "a ⊆ b"
        assert compare_communities(k3, k4).refinement == "b ⊆ a"
