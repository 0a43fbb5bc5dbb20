"""Overlapping temporal community detection in link streams.

Maximal k-cliques are enumerated in one chronological pass over the links,
then percolated through a union-find with timed memberships into overlapping
temporal communities. A brute-force oracle recomputes everything from the
definitions for correctness checking.
"""

from .cliques import TemporalKClique, WindowGraph, cliques_containing_edge, enumerate_k_cliques
from .linkstream import (
    Interval,
    Link,
    LinkStream,
    ParseError,
    Violation,
    apply_delta,
    parse_links,
    serialize,
    validate,
)
from .oracle import (
    ComparisonReport,
    compare_communities,
    oracle_communities,
    oracle_enumerate,
    snapshot_cpm,
)
from .percolate import (
    Membership,
    PercolationState,
    TemporalCommunity,
    UnionFind,
    compute_communities,
    materialize,
    process_k_clique,
    run_lscpm,
)
from .synth import random_durational_stream, random_instants, random_stream, synthetic_stream

__version__ = "0.1.0"

__all__ = [
    "Interval",
    "Link",
    "LinkStream",
    "ParseError",
    "Violation",
    "parse_links",
    "apply_delta",
    "validate",
    "serialize",
    "TemporalKClique",
    "WindowGraph",
    "cliques_containing_edge",
    "enumerate_k_cliques",
    "UnionFind",
    "Membership",
    "PercolationState",
    "process_k_clique",
    "run_lscpm",
    "materialize",
    "TemporalCommunity",
    "compute_communities",
    "oracle_enumerate",
    "oracle_communities",
    "snapshot_cpm",
    "compare_communities",
    "ComparisonReport",
    "random_instants",
    "random_stream",
    "random_durational_stream",
    "synthetic_stream",
    "__version__",
]
