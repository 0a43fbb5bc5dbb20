"""Acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and prints
one pass/fail line (run with ``pytest -v -s tests/test_acceptance.py``).
Randomized criteria use fixed seeds, so the whole suite is deterministic.
"""

import gc
import random
import time

import pytest

from helpers import canon, shuffle_within_batches

from lscpm import (
    Interval,
    PercolationState,
    TemporalKClique,
    compute_communities,
    enumerate_k_cliques,
    materialize,
    oracle_communities,
    oracle_enumerate,
    process_k_clique,
    run_lscpm,
    snapshot_cpm,
    synthetic_stream,
)
from lscpm.oracle import can_end_later, can_start_earlier, containing_communities, pair_spans
from lscpm.synth import random_durational_stream, random_stream

CORPUS_SEED = 20260808
CORPUS_SIZE = 200


def report(name: str, failures: list, extra: str = ""):
    status = "PASS" if not failures else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert not failures, f"{name}: {len(failures)} failure(s); first: {failures[0]}"


def mixed_stream(rng: random.Random, i: int):
    """Stream of <= 15 vertices and <= 80 links; durations via random delta
    expansion or drawn directly. Every fourth stream is compact (few vertices,
    short span) so higher k values see real work."""
    if i % 4 == 3:
        return random_stream(rng, max_vertices=8, max_span=25)
    if i % 2 == 0:
        return random_stream(rng)
    return random_durational_stream(rng)


def build_corpus(size: int, seed: int):
    rng = random.Random(seed)
    return [(mixed_stream(rng, i), (3, 4, 5)[i % 3]) for i in range(size)]


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(CORPUS_SIZE, CORPUS_SEED)


@pytest.fixture(scope="module")
def corpus_cliques(corpus):
    return [list(enumerate_k_cliques(stream, k)) for stream, k in corpus]


def kc(vertices, t0, t1):
    return TemporalKClique(tuple(sorted(vertices)), Interval(t0, t1))


def test_criterion_1_reference_trace_replay():
    """Replaying four known 3-cliques must reproduce the exact membership
    tables step by step and end in a single community. Exact, < 1 s."""
    started = time.perf_counter()
    failures = []
    # vertex ids 0..4 stand for c, d, e, f, g
    trace = [kc((0, 1, 2), 2, 13), kc((2, 3, 4), 3, 5), kc((1, 2, 3), 4, 9), kc((2, 3, 4), 8, 12)]
    state = PercolationState(k=3)

    def entries(key):
        return [(state.uf.find(m.node), m.start, m.end) for m in state.memberships[key]]

    def expect(step, key, want_spans, want_root=None):
        got = entries(key)
        if [(s, e) for _, s, e in got] != want_spans:
            failures.append(f"step {step}: {key} spans {got} != {want_spans}")
        if want_root is not None and [r for r, _, _ in got] != [want_root] * len(got):
            failures.append(f"step {step}: {key} not in expected community")

    process_k_clique(state, trace[0])
    process_k_clique(state, trace[1])
    root_a = state.uf.find(state.memberships[0, 1][-1].node)
    root_b = state.uf.find(state.memberships[2, 3][-1].node)
    if root_a == root_b:
        failures.append("step b: the two seed communities must still be distinct")
    for key in ((0, 1), (0, 2), (1, 2)):
        expect("a", key, [(2, 13)], root_a)
    for key in ((2, 3), (2, 4), (3, 4)):
        expect("a", key, [(3, 5)], root_b)
    if (1, 3) in state.memberships:
        failures.append("step a: (d,f) must not have a membership yet")

    process_k_clique(state, trace[2])
    root = state.uf.find(root_a)
    if state.uf.find(root_b) != root:
        failures.append("step b: processing (d,e,f) must merge the two communities")
    expect("b", (1, 3), [(4, 9)], root)
    expect("b", (2, 3), [(3, 9)], root)
    expect("b", (1, 2), [(2, 13)], root)
    expect("b", (2, 4), [(3, 5)], root)
    expect("b", (3, 4), [(3, 5)], root)

    process_k_clique(state, trace[3])
    root = state.uf.find(root)
    expect("c", (2, 3), [(3, 12)], root)
    expect("c", (2, 4), [(3, 5), (8, 12)], root)
    expect("c", (3, 4), [(3, 5), (8, 12)], root)
    expect("c", (0, 1), [(2, 13)], root)
    expect("c", (1, 3), [(4, 9)], root)

    communities = materialize(state)
    if len(communities) != 1:
        failures.append(f"expected one final community, got {len(communities)}")
    else:
        members = {v: tuple((iv.t0, iv.t1) for iv in spans)
                   for v, spans in communities[0].members.items()}
        want = {0: ((2, 13),), 1: ((2, 13),), 2: ((2, 13),),
                3: ((3, 12),), 4: ((3, 5), (8, 12))}
        if members != want:
            failures.append(f"final community {members} != {want}")

    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"trace replay took {elapsed:.3f}s, budget is 1s")
    report("criterion 1: reference trace replay", failures, f"{elapsed * 1000:.0f} ms")


def test_criterion_2_enumeration_matches_oracle(corpus):
    """Streaming enumeration equals the definitional oracle, as a set, on 200
    random streams with k in {3, 4, 5}. Exact, < 60 s total."""
    started = time.perf_counter()
    failures = []
    total = 0
    for stream, k in corpus:
        got = list(enumerate_k_cliques(stream, k))
        want = oracle_enumerate(stream, k)
        total += len(want)
        if set(got) != want:
            failures.append(f"k={k}: {len(got)} enumerated vs {len(want)} by oracle")
    elapsed = time.perf_counter() - started
    if total == 0:
        failures.append("corpus produced no cliques at all; equivalence would be vacuous")
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.1f}s, budget is 60s")
    report("criterion 2: oracle equivalence, enumeration", failures,
           f"{CORPUS_SIZE} streams, {total} cliques, {elapsed:.2f}s")


def test_criterion_3_communities_match_oracle(corpus, corpus_cliques):
    """Materialized communities equal the explicit adjacency-component oracle
    under label-invariant comparison, on the same corpus. Exact."""
    failures = []
    total = 0
    for (stream, k), cliques in zip(corpus, corpus_cliques):
        engine = canon(materialize(run_lscpm(cliques, k)))
        _, reference = oracle_communities(cliques, k)
        total += len(reference)
        if engine != canon(reference):
            failures.append(f"k={k}: {len(engine)} vs {len(reference)} communities differ")
    if total == 0:
        failures.append("corpus produced no communities; equivalence would be vacuous")
    report("criterion 3: oracle equivalence, communities", failures,
           f"{total} communities compared")


def test_criterion_4_k_nesting():
    """For k1 < k2 in {3, 4, 5}, every k2 community is contained in exactly
    one k1 community, vertices and intervals both. Exact, 100 streams."""
    rng = random.Random(CORPUS_SEED + 1)
    failures = []
    nested = 0
    for i in range(100):
        stream = mixed_stream(rng, i)
        by_k = {k: compute_communities(stream, k) for k in (3, 4, 5)}
        for k1, k2 in ((3, 4), (3, 5), (4, 5)):
            for inner in by_k[k2]:
                nested += 1
                hits = containing_communities(inner, by_k[k1])
                if len(hits) != 1:
                    failures.append(
                        f"stream {i}: k{k2} community inside {len(hits)} k{k1} communities"
                    )
    if nested == 0:
        failures.append("no higher-k communities arose; nesting check would be vacuous")
    report("criterion 4: k-nesting", failures, f"{nested} containments checked")


def test_criterion_5_snapshot_inclusion():
    """Every snapshot community at an interior time lies inside a single
    temporal community restricted to that time. Exact, 100 streams x 20 times."""
    rng = random.Random(CORPUS_SEED + 2)
    failures = []
    groups = 0
    for i in range(100):
        stream = mixed_stream(rng, i)
        k = (3, 4, 5)[i % 3]
        communities = compute_communities(stream, k)
        positive = [ln for ln in stream.links if ln.e > ln.b]
        if not positive:
            continue
        for _ in range(20):
            ln = rng.choice(positive)
            t = (ln.b + ln.e) / 2  # strictly inside a link, away from boundaries
            for group in snapshot_cpm(stream, t, k):
                groups += 1
                if not any(group <= c.present_at(t) for c in communities):
                    failures.append(f"stream {i} t={t}: snapshot group {sorted(group)} split")
    if groups == 0:
        failures.append("no snapshot communities arose; inclusion check would be vacuous")
    report("criterion 5: snapshot community inclusion", failures, f"{groups} groups checked")


def test_criterion_6_maximality_and_dedup(corpus, corpus_cliques):
    """Every emitted clique extends in neither time direction, and the
    emission sequence carries no duplicates. Exact, same corpus."""
    failures = []
    checked = 0
    for (stream, k), cliques in zip(corpus, corpus_cliques):
        if len(cliques) != len(set(cliques)):
            failures.append(f"duplicate emissions on a k={k} stream")
        spans = pair_spans(stream)
        for clique in cliques:
            checked += 1
            if can_start_earlier(stream, clique, spans):
                failures.append(f"{clique} can start earlier")
            if can_end_later(stream, clique, spans):
                failures.append(f"{clique} can end later")
    if checked == 0:
        failures.append("corpus produced no cliques; maximality check would be vacuous")
    report("criterion 6: temporal maximality and dedup", failures, f"{checked} cliques checked")


def test_criterion_7_near_linear_scaling():
    """End-to-end time on bounded-degree synthetic streams grows by at most
    15x from 1e5 to 1e6 instantaneous records at k = 3.

    Each size is timed in CPU seconds as the minimum over repeated solves, so
    one stall on a shared host does not set the ratio. In each of three rounds
    the 1e5 solve is repeated until the 1e5 solves total another third of a
    second, then the 1e6 solve runs once, so a slow stretch falls on both
    sizes."""
    failures = []
    small, big = 10**5, 10**6
    streams = {
        n: synthetic_stream(n_vertices=1000, n_instants=n, span=n // 10, delta=20, seed=7, block=10)
        for n in (small, big)
    }
    times = {n: [] for n in streams}
    found = {}

    def solve(n):
        gc.collect()
        gc.disable()
        try:
            begin = time.process_time()
            found[n] = len(compute_communities(streams[n], 3))
            times[n].append(time.process_time() - begin)
        finally:
            gc.enable()

    for rounds in (1, 2, 3):
        while sum(times[small]) < rounds / 3:
            solve(small)
        solve(big)
    ratio = min(times[big]) / min(times[small])
    if found[small] == 0 or found[big] == 0:
        failures.append("scaling streams produced no communities")
    if ratio > 15.0:
        failures.append(f"time grew {ratio:.1f}x for 10x more links (limit 15x)")
    report(
        "criterion 7: near-linear scaling",
        failures,
        ", ".join(f"{len(streams[n].links)} links in {min(times[n]):.2f}s (min of {len(times[n])})"
                  for n in (small, big)) + f", ratio {ratio:.1f}x",
    )


def test_criterion_8_order_robustness():
    """Permuting cliques inside equal-start batches leaves the materialized
    communities identical. Exact, 50 streams x 10 permutations."""
    rng = random.Random(CORPUS_SEED + 3)
    failures = []
    shuffles = 0
    for i in range(50):
        stream = mixed_stream(rng, i)
        cliques = list(enumerate_k_cliques(stream, 3))
        base = canon(materialize(run_lscpm(cliques, 3)))
        for _ in range(10):
            shuffled = shuffle_within_batches(cliques, rng)
            shuffles += 1
            got = canon(materialize(run_lscpm(shuffled, 3)))
            if got != base:
                failures.append(f"stream {i}: communities changed under batch permutation")
    report("criterion 8: equal-start order robustness", failures, f"{shuffles} permutations")
