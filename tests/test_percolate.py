import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import KNOWN_COMMUNITY, dense_streams, streams, wide_streams
from helpers import canon, dense_group, shuffle_within_batches
from test_metamorphic import LONG_STREAMS

from lscpm import (
    Interval,
    LinkStream,
    Membership,
    PercolationState,
    TemporalKClique,
    UnionFind,
    compute_communities,
    enumerate_k_cliques,
    materialize,
    oracle_communities,
    oracle_enumerate,
    parse_links,
    process_k_clique,
    run_lscpm,
    serialize,
    synthetic_stream,
)
from lscpm.percolate import _fold, _keys


def kc(vertices, t0, t1):
    return TemporalKClique(tuple(sorted(vertices)), Interval(t0, t1))


class TestUnionFind:
    def test_make_set_hands_out_sequential_ids(self):
        uf = UnionFind()
        assert uf.make_set() == 0
        assert uf.make_set() == 1
        assert len(uf) == 2

    def test_find_of_fresh_node_is_itself(self):
        uf = UnionFind()
        n = uf.make_set()
        assert uf.find(n) == n
        assert uf.find(uf.find(n)) == uf.find(n)

    def test_union_with_sentinel_changes_nothing(self):
        uf = UnionFind()
        a, b = uf.make_set(), uf.make_set()
        for p, q in ((-1, b), (b, -1)):
            with pytest.raises(ValueError):
                uf.union(p, q)
            assert uf.find(a) == a
            assert uf.find(b) == b
            assert len(uf) == 2

    def test_union_of_same_set_is_stable(self):
        uf = UnionFind()
        a, b = uf.make_set(), uf.make_set()
        first = uf.union(a, b)
        assert uf.union(a, b) == first
        assert uf.find(a) == uf.find(b) == first

    def test_union_links_two_singletons(self):
        uf = UnionFind()
        a, b = uf.make_set(), uf.make_set()
        root = uf.union(a, b)
        assert root in (a, b)
        assert uf.find(a) == uf.find(b) == root

    @given(st.integers(1, 12), st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)),
                                        max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_root_is_smallest_id_of_its_set(self, n, pairs):
        uf = UnionFind()
        for _ in range(n):
            uf.make_set()
        label = list(range(n))  # brute-force partition: each id's smallest set member
        for p, q in pairs:
            p, q = p % n, q % n
            low = min(label[p], label[q])
            label = [low if x in (label[p], label[q]) else x for x in label]
            assert uf.union(p, q) == low
            # materialize resolves every root in one pass in id order on this rule
            assert all(uf._parent[x] <= x for x in range(n))
        assert [uf.find(x) for x in range(n)] == label
        assert all(uf._parent[x] <= x for x in range(n))

    def test_unknown_id_rejected(self):
        uf = UnionFind()
        uf.make_set()
        with pytest.raises(ValueError):
            uf.find(5)
        for bad in (-1, -2):
            with pytest.raises(ValueError):
                uf.union(bad, 0)
            with pytest.raises(ValueError):
                uf.union(0, bad)


# Reference trace: vertex ids 0..4 stand for c, d, e, f, g.
TRACE = [
    kc((0, 1, 2), 2, 13),
    kc((2, 3, 4), 3, 5),
    kc((1, 2, 3), 4, 9),
    kc((2, 3, 4), 8, 12),
]


def resolved(state, key):
    """Membership list with nodes resolved to their current roots."""
    return [(state.uf.find(m.node), m.start, m.end) for m in state.memberships[key]]


class TestPercolationTrace:
    def test_first_clique_seeds_one_community(self):
        state = PercolationState(k=3)
        process_k_clique(state, TRACE[0])
        assert len(state.uf) == 1
        assert sorted(state.memberships) == [(0, 1), (0, 2), (1, 2)]
        for key in state.memberships:
            assert resolved(state, key) == [(0, 2, 13)]

    def test_trace_step_by_step(self):
        state = PercolationState(k=3)
        process_k_clique(state, TRACE[0])
        process_k_clique(state, TRACE[1])
        # two separate communities so far
        assert len(state.uf) == 2
        root_a = state.uf.find(state.memberships[0, 1][-1].node)
        root_b = state.uf.find(state.memberships[2, 3][-1].node)
        assert root_a != root_b
        for key in ((2, 3), (2, 4), (3, 4)):
            assert resolved(state, key) == [(root_b, 3, 5)]
        assert (1, 3) not in state.memberships

        process_k_clique(state, TRACE[2])
        # the two communities merge; no new node is created
        assert len(state.uf) == 2
        root = state.uf.find(root_a)
        assert state.uf.find(root_b) == root
        assert resolved(state, (1, 3)) == [(root, 4, 9)]       # appended
        assert resolved(state, (2, 3)) == [(root, 3, 9)]       # extended in time
        assert resolved(state, (1, 2)) == [(root, 2, 13)]      # unchanged
        assert resolved(state, (2, 4)) == [(root, 3, 5)]
        assert resolved(state, (3, 4)) == [(root, 3, 5)]

        process_k_clique(state, TRACE[3])
        # one membership extended, two re-appended after having lapsed; the
        # live (e,f) subset comes first, so the lapsed ones take its root
        assert len(state.uf) == 2
        assert state.uf.find(root) == state.uf.find(state.memberships[2, 4][-1].node)
        assert resolved(state, (2, 3)) == [(root, 3, 12)]
        assert resolved(state, (2, 4)) == [(root, 3, 5), (root, 8, 12)]
        assert resolved(state, (3, 4)) == [(root, 3, 5), (root, 8, 12)]
        assert resolved(state, (0, 1)) == [(root, 2, 13)]

        communities = materialize(state)
        assert len(communities) == 1
        members = {v: tuple((iv.t0, iv.t1) for iv in spans)
                   for v, spans in communities[0].members.items()}
        assert members == {
            0: ((2, 13),),
            1: ((2, 13),),
            2: ((2, 13),),
            3: ((3, 12),),
            4: ((3, 5), (8, 12)),
        }


class TestProcess:
    def test_membership_starting_at_previous_end_is_new(self):
        # strict adjacency: touching at one point does not join
        state = run_lscpm([kc((0, 1, 2), 0, 5), kc((0, 1, 3), 5, 9)], 3)
        assert len(materialize(state)) == 2
        assert [(m.start, m.end) for m in state.memberships[0, 1]] == [(0, 5), (5, 9)]

    def test_positive_overlap_joins(self):
        state = run_lscpm([kc((0, 1, 2), 0, 5), kc((0, 1, 3), 4, 9)], 3)
        assert len(materialize(state)) == 1
        assert [(m.start, m.end) for m in state.memberships[0, 1]] == [(0, 9)]

    def test_out_of_order_clique_rejected(self):
        state = PercolationState(k=3)
        process_k_clique(state, kc((0, 1, 2), 5, 9))
        with pytest.raises(ValueError, match="^clique starting at 4 arrived after start 5$"):
            process_k_clique(state, kc((0, 1, 3), 4, 9))

    def test_state_takes_only_k(self):
        # the union-find, the memberships and the last start always begin empty
        with pytest.raises(TypeError):
            PercolationState(k=3, uf=UnionFind())
        with pytest.raises(TypeError):
            PercolationState(3, UnionFind())

    def test_wrong_clique_size_rejected(self):
        state = PercolationState(k=3)
        with pytest.raises(ValueError, match="3-clique"):
            process_k_clique(state, kc((0, 1, 2, 3), 0, 5))

    def test_k_below_three_rejected(self):
        with pytest.raises(ValueError):
            run_lscpm([], 2)


class TestMaterialize:
    def test_empty_state(self):
        assert materialize(run_lscpm([], 3)) == []

    def test_single_clique_community(self):
        communities = materialize(run_lscpm([kc((0, 1, 2), 0, 5)], 3))
        assert len(communities) == 1
        assert communities[0].members == {
            0: (Interval(0, 5),),
            1: (Interval(0, 5),),
            2: (Interval(0, 5),),
        }

    def test_touching_presence_intervals_merge(self):
        # vertex 4 is present over [2,5] and [5,9] of one community: merged
        state = run_lscpm(
            [kc((0, 1, 4), 2, 5), kc((0, 1, 2), 4, 6), kc((1, 2, 4), 5, 9)], 3
        )
        communities = materialize(state)
        assert len(communities) == 1
        assert communities[0].members[4] == (Interval(2, 9),)

    def test_labels_follow_first_appearance(self):
        state = run_lscpm(
            [kc((0, 1, 2), 0, 3), kc((5, 6, 7), 1, 4), kc((8, 9, 10), 2, 5)], 3
        )
        communities = materialize(state)
        firsts = [min(iv.t0 for spans in c.members.values() for iv in spans) for c in communities]
        assert [c.id for c in communities] == [0, 1, 2]
        assert firsts == sorted(firsts)


class TestComputeCommunities:
    def test_empty_stream(self):
        assert compute_communities(LinkStream.from_links([]), 3) == []

    def test_known_stream_exact(self, known_stream):
        communities = compute_communities(known_stream, 3)
        assert len(communities) == 1
        members = {
            known_stream.labels[v]: tuple((iv.t0, iv.t1) for iv in spans)
            for v, spans in communities[0].members.items()
        }
        assert members == KNOWN_COMMUNITY

    def test_k_below_three_rejected(self, known_stream):
        with pytest.raises(ValueError):
            compute_communities(known_stream, 2)

    @given(st.one_of(streams(), dense_streams()), st.integers(3, 6))
    @settings(max_examples=80, deadline=None)
    def test_matches_public_chain(self, stream, k):
        public = materialize(run_lscpm(enumerate_k_cliques(stream, k), k))
        assert written(compute_communities(stream, k)) == written(public)

    @pytest.mark.parametrize("k", [3, 4])
    def test_time_written_two_ways_matches_public_chain(self, k):
        # 5 and 5.0 compare equal, so compare the written forms of every span
        stream = parse_links("0 9.0 a b\n0.0 9 a c\n0 9 a d\n0 9 b c\n0.0 9.0 b d\n"
                             "0 9 c d\n2 12.0 c e\n2.0 12 d e\n5.0 7 a e\n")
        public = materialize(run_lscpm(enumerate_k_cliques(stream, k), k))
        got = written(compute_communities(stream, k))
        assert got == written(public)
        forms = {form for _, members in got for _, spans in members for span in spans
                 for form in span}
        assert {"." in form for form in forms} == {True, False}  # both forms occur

    @given(wide_streams(), st.sampled_from([3, 4]))
    @settings(max_examples=200, deadline=None)
    def test_wide_times_match_oracle(self, stream, k):
        # times spread over about 1e6, as half ticks or partly in the 5.0 form,
        # so a defect tied to an absolute time grid shows
        _, reference = oracle_communities(list(oracle_enumerate(stream, k)), k)
        assert canon(compute_communities(stream, k)) == canon(reference)

    @pytest.mark.parametrize("k, count", [(3, 240), (4, 420), (5, 504)])
    def test_dense_group_matches_oracle(self, k, count):
        stream = dense_group(10, 2)
        cliques = oracle_enumerate(stream, k)
        assert len(cliques) == count
        assert set(enumerate_k_cliques(stream, k)) == cliques
        _, reference = oracle_communities(list(cliques), k)
        assert canon(compute_communities(stream, k)) == canon(reference)


@st.composite
def clique_runs(draw):
    """(k, cliques): chronological cliques with equal-start batches on few
    vertices, so subsets recur, memberships lapse and communities merge. One
    clique of the wrong size or with an earlier start may be put in."""
    k = draw(st.sampled_from([3, 4, 5]))
    n = draw(st.integers(k + 1, k + 3))
    starts = sorted(draw(st.lists(st.integers(0, 12), max_size=25)))
    cliques = [kc(draw(st.sets(st.integers(0, n - 1), min_size=k, max_size=k)),
                  t0, t0 + draw(st.integers(1, 6))) for t0 in starts]
    pos = draw(st.integers(0, len(cliques)))
    t0 = starts[pos - 1] if pos else 0
    bad = draw(st.sampled_from([None, "size", "order"]))
    if bad == "size":
        size = draw(st.sampled_from([k - 1, k + 1]))
        cliques.insert(pos, kc(range(size), t0, t0 + 3))
    elif bad == "order":
        cliques.insert(pos, kc(range(k), t0 - 1, t0 + 3))
    return k, cliques


def reversed_combinations(vertices, r):
    return reversed(list(combinations(vertices, r)))


def shuffled(seed):
    """Each clique's subsets in an order drawn anew per clique from one seeded generator."""
    rng = random.Random(seed)

    def order(vertices, r):
        keys = list(combinations(vertices, r))
        rng.shuffle(keys)
        return keys

    return order


def reference_fold(cliques, k, subsets=combinations):
    """The fold written with UnionFind's public methods, memberships as triples.

    subsets(vertices, k - 1) gives a clique's subsets in the order they are
    visited, as combinations does for _fold. Returns the union-find, the
    memberships, the last start and the ValueError that stopped the fold, or
    None."""
    uf = UnionFind()
    memberships = {}
    last_start = float("-inf")
    error = None
    try:
        for c in cliques:
            t0, t1 = c.interval.t0, c.interval.t1
            if len(c.vertices) != k or t0 < last_start:
                raise ValueError(c)
            last_start = t0
            root = None
            for key in subsets(c.vertices, k - 1):
                entries = memberships.get(key)
                if entries and t0 < entries[-1][2]:
                    node, start, end = entries[-1]
                    entries[-1] = (node, start, max(end, t1))
                    root = uf.find(node) if root is None else uf.union(root, node)
                else:
                    if root is None:
                        root = uf.make_set()
                    memberships.setdefault(key, []).append((root, t0, t1))
    except ValueError as exc:
        error = exc
    return uf, memberships, last_start, error


def view(uf, memberships, last_start):
    """Node count, every node's root, (node, start, end) memberships, last start."""
    return len(uf), [uf.find(x) for x in range(len(uf))], memberships, last_start


def state_view(state):
    memberships = {key: [(m.node, m.start, m.end) for m in entries]
                   for key, entries in state.memberships.items()}
    return view(state.uf, memberships, state.last_start)


def written(communities):
    """Ids, members in order and each span's endpoints as written (5 is not 5.0)."""
    return [(c.id, [(v, [(repr(iv.t0), repr(iv.t1)) for iv in spans])
                    for v, spans in c.members.items()])
            for c in communities]


class TestProperties:
    @given(streams(), st.sampled_from([3, 4]))
    @settings(max_examples=50, deadline=None)
    def test_membership_lists_stay_disciplined(self, stream, k):
        state = run_lscpm(enumerate_k_cliques(stream, k), k)
        count = 0
        for entries in state.memberships.values():
            count += len(entries)
            for m in entries:
                assert m.start < m.end
            for prev, nxt in zip(entries, entries[1:]):
                assert prev.end <= nxt.start  # sorted, no positive overlap
        assert len(state.uf) <= count or count == 0

    @given(streams(), st.sampled_from([3, 4]))
    @settings(max_examples=50, deadline=None)
    def test_node_count_bounded_by_clique_count(self, stream, k):
        cliques = list(enumerate_k_cliques(stream, k))
        state = run_lscpm(cliques, k)
        assert len(state.uf) <= len(cliques)

    @given(streams())
    @settings(max_examples=50, deadline=None)
    def test_matches_adjacency_components(self, stream):
        cliques = list(enumerate_k_cliques(stream, 3))
        engine = canon(materialize(run_lscpm(cliques, 3)))
        partition, reference = oracle_communities(cliques, 3)
        assert engine == canon(reference)
        assert len(partition) == len(engine)

    @given(streams(), st.sampled_from([3, 4, 5]))
    @settings(max_examples=50, deadline=None)
    def test_clique_by_clique_matches_run_lscpm(self, stream, k):
        cliques = list(enumerate_k_cliques(stream, k))
        whole = run_lscpm(cliques, k)
        stepped = PercolationState(k=k)
        for clique in cliques:
            process_k_clique(stepped, clique)
        assert len(stepped.uf) == len(whole.uf)
        assert {key: resolved(stepped, key) for key in stepped.memberships} == {
            key: resolved(whole, key) for key in whole.memberships
        }
        assert materialize(stepped) == materialize(whole)

    @given(clique_runs())
    @settings(max_examples=150, deadline=None)
    def test_fold_matches_reference_fold(self, run):
        k, cliques = run
        *reference, error = reference_fold(cliques, k)
        reference = view(*reference)
        if error is None:
            assert state_view(run_lscpm(cliques, k)) == reference
        # also when a bad clique stops the fold, the state and last_start are
        # those after the last clique folded
        state = PercolationState(k=k)
        try:
            _fold(state, _keys(cliques))
        except ValueError:
            assert error is not None
        else:
            assert error is None
        assert state_view(state) == reference

    @given(streams(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_batch_order_does_not_matter(self, stream, seed):
        cliques = list(enumerate_k_cliques(stream, 3))
        base = canon(materialize(run_lscpm(cliques, 3)))
        shuffled = shuffle_within_batches(cliques, random.Random(seed))
        assert canon(materialize(run_lscpm(shuffled, 3))) == base


def labelled(cliques, k, subsets):
    """Node count and [(id, canonical())] of the communities reference_fold reaches
    in that subset order."""
    uf, memberships, _, error = reference_fold(cliques, k, subsets)
    assert error is None
    state = PercolationState(k=k)
    state.uf = uf
    state.memberships = {key: [Membership(*m) for m in entries]
                         for key, entries in memberships.items()}
    return len(uf), [(c.id, c.canonical()) for c in materialize(state)]


class TestSubsetOrder:
    """Communities and their ids, and so CLI bytes, do not depend on subset order."""

    @given(st.one_of(streams(), dense_streams()), st.sampled_from([3, 4, 5]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_communities_do_not_depend_on_subset_order(self, stream, k, seed):
        cliques = list(enumerate_k_cliques(stream, k))
        _, fold = labelled(cliques, k, combinations)
        assert fold == [(c.id, c.canonical()) for c in compute_communities(stream, k)]
        assert labelled(cliques, k, reversed_combinations)[1] == fold
        assert labelled(cliques, k, shuffled(seed))[1] == fold

    @pytest.mark.parametrize("name, k", [("planted-k4", 4), ("dense-group", 4)])
    def test_long_streams(self, name, k):
        cliques = list(enumerate_k_cliques(LONG_STREAMS[name](), k))
        nodes, fold = labelled(cliques, k, combinations)
        reversed_nodes, reversed_fold = labelled(cliques, k, reversed_combinations)
        assert reversed_fold == fold
        assert labelled(cliques, k, shuffled(k))[1] == fold
        assert reversed_nodes > nodes  # the orders do reach different union-finds


def counters(stream, ks):
    """emitted, nodes, unions, memberships, subsets, communities, summed over ks."""
    total = [0] * 6
    for k in ks:
        cliques = list(enumerate_k_cliques(stream, k))
        state = run_lscpm(cliques, k)
        nodes = len(state.uf)
        counts = (len(cliques), nodes, nodes - len({state.uf.find(x) for x in range(nodes)}),
                  sum(map(len, state.memberships.values())), len(state.memberships),
                  len(materialize(state)))
        total = [a + b for a, b in zip(total, counts)]
    return tuple(total)


# ks and the counters of each seed-1 benchmark workload
BENCHMARK_COUNTERS = {
    "sparse-k3": ((3,), (841, 833, 16, 2499, 1875, 817)),
    "planted-k4": ((4,), (34423, 755, 726, 16717, 2962, 29)),
    "planted-nest": ((4, 5), (16865, 4092, 3517, 27287, 7215, 575)),
}


@pytest.mark.parametrize("name", BENCHMARK_COUNTERS)
def test_benchmark_stream_counters(name):
    # the seed-1 benchmark streams, built as the benchmark builds them
    ks, expected = BENCHMARK_COUNTERS[name]
    if name == "sparse-k3":
        stream = parse_links(serialize(synthetic_stream(1000, 60_000, 6_000, 20, 1, block=10)))
    else:
        stream = LONG_STREAMS[name]()
    assert counters(stream, ks) == expected
