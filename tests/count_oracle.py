"""Brute-force count of ordered k-tuples of mutually orthogonal members.

The reference for counting.count_ordered_tuples.  It shares no code with
the graph builder: vertex i of a graph is ((i mod b) + 1) times class
representative i // b (b = graph.blowup, the documented vertex order that
test_affine_vertices_in_class_blocks anchors), and orthogonality comes
from the schoolbook arithmetic of field_oracle.  Every ordered tuple of
distinct members is enumerated and all its pairs are tested, with no
pruning.  Small instances only.
"""

from itertools import combinations, permutations

from field_oracle import naive_dot, naive_scale

from orthocount.errors import BoundExceededError

DEFAULT_WORK = 10_000_000


def oracle_vertex(graph, i):
    b = graph.blowup
    return naive_scale(graph.field, i % b + 1, graph.classes[i // b])


def count_ordered_tuples_oracle(subset, k, max_work=DEFAULT_WORK):
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    m = subset.size
    if m**k > max_work:
        raise BoundExceededError(f"oracle work m^k = {m}^{k} exceeds bound {max_work}")
    graph = subset.graph
    members = [oracle_vertex(graph, i) for i in subset.indices.tolist()]
    # the m x m orthogonality table of the members, built once
    orth = [[naive_dot(graph.field, u, v) == 0 for v in members] for u in members]
    pairs = list(combinations(range(k), 2))
    return sum(
        all(orth[tup[i]][tup[j]] for i, j in pairs) for tup in permutations(range(m), k)
    )
