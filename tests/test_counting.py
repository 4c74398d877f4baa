"""Ordered tuple and K_k copy counting: oracle equivalence and invariants."""

import dataclasses
import math
import random

import numpy as np
import pytest
from count_oracle import count_ordered_tuples_oracle
from field_oracle import naive_dot, nonzero_vectors
from hypothesis import given, settings
from hypothesis import strategies as st

from orthocount.asymptotics import sample_subset
from orthocount.counting import VertexSubset, count_ordered_tuples
from orthocount.errors import BoundExceededError
from orthocount.graphs import build_affine_graph, build_projective_graph

G33 = build_affine_graph(3, 3)
G34 = build_affine_graph(3, 4)


# ---------------------------------------------------------------------------
# subsets
# ---------------------------------------------------------------------------


def test_subset_constructors():
    full = VertexSubset.full(G33)
    assert full.size == 26 and full.indices.tolist() == list(range(26))
    sub = VertexSubset.from_indices(G33, [3, 1, 2])
    assert sub.size == 3 and sub.indices.tolist() == [1, 2, 3]
    assert sub.indices.dtype == np.int64
    assert VertexSubset.from_indices(G33, []).size == 0
    with pytest.raises(ValueError):
        VertexSubset.from_indices(G33, [0, 0])
    with pytest.raises(ValueError):
        VertexSubset.from_indices(G33, [26])


@pytest.mark.parametrize(
    "indices, message",
    [
        ([5, 3, 5, 3], "duplicate vertex index 5"),
        ([3, 5, 5, 3], "duplicate vertex index 5"),
        ([1, 2, 2, 26], "duplicate vertex index 2"),
        ([1, 26, 2, 2], r"vertex index 26 out of range \[0, 26\)"),
        ([4, -1, 30, 4], r"vertex index -1 out of range \[0, 26\)"),
        ([30, 30], r"vertex index 30 out of range \[0, 26\)"),
        ([3, 2**70], r"vertex index 1180591620717411303424 out of range"),
    ],
)
def test_subset_from_indices_names_first_bad_index(indices, message):
    with pytest.raises(ValueError, match=message):
        VertexSubset.from_indices(G33, indices)


@pytest.mark.parametrize("graph", [G33, G34, build_projective_graph(4, 3)])
def test_subset_weights_are_class_bincount(graph):
    rng = random.Random(graph.n)
    for m in (0, 1, graph.n // 3, graph.n):
        picks = rng.sample(range(graph.n), m)
        weights = VertexSubset.from_indices(graph, picks).weights
        expected = [0] * len(graph.classes)
        for i in picks:
            expected[i // graph.blowup] += 1
        assert weights.tolist() == expected


def test_subset_from_vectors_rejects_zero():
    with pytest.raises(ValueError, match="zero vector"):
        VertexSubset.from_vectors(G33, [(1, 0, 0), (0, 0, 0)])
    with pytest.raises(ValueError):
        VertexSubset.from_vectors(G33, [(1, 0)])  # wrong dimension


def test_subset_indices_are_read_only():
    # weights is cached from indices, so a write must not go through
    given = np.array([4, 0, 2])
    subsets = [
        VertexSubset.full(G33),
        VertexSubset.from_indices(G33, [0, 2, 4]),
        VertexSubset(G33, given),
        sample_subset(G33, 5, seed=1),
    ]
    for sub in subsets:
        with pytest.raises(ValueError):
            sub.indices[2] = 25
    assert given.flags.writeable  # the caller's array keeps its flags
    sub = VertexSubset.from_indices(G33, [0, 2, 4])
    assert sub.weights[:3].tolist() == [1, 1, 1]
    assert count_ordered_tuples(sub, 2) == 2


def test_subset_order_independence():
    indices = list(range(0, 20, 2))
    shuffled = indices[:]
    random.Random(5).shuffle(shuffled)
    a = VertexSubset.from_indices(G33, indices)
    b = VertexSubset.from_indices(G33, shuffled)
    assert a.indices.tolist() == b.indices.tolist() == indices
    assert count_ordered_tuples(a, 3) == count_ordered_tuples(b, 3)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_oracle_k1_returns_size():
    sub = VertexSubset.from_indices(G33, range(7))
    assert count_ordered_tuples_oracle(sub, 1) == 7


def test_oracle_standard_basis():
    basis = VertexSubset.from_vectors(G33, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert count_ordered_tuples_oracle(basis, 3) == 6


def test_oracle_full_g33_pairs():
    assert count_ordered_tuples_oracle(VertexSubset.full(G33), 2) == 200


def test_oracle_work_bound():
    with pytest.raises(BoundExceededError):
        count_ordered_tuples_oracle(VertexSubset.full(G33), 5, max_work=10**6)


# ---------------------------------------------------------------------------
# fast path
# ---------------------------------------------------------------------------


def test_fast_path_examples():
    full = VertexSubset.full(G33)
    assert count_ordered_tuples(full, 2) == 200
    small = VertexSubset.from_indices(G33, [0, 1])
    assert count_ordered_tuples(small, 3) == 0  # m < k


def test_fast_matches_oracle_on_random_subsets():
    rng = random.Random(2024)
    checked = 0
    for trial in range(50):
        k = rng.choice([2, 3, 4])
        m = rng.randrange(0, {2: 36, 3: 36, 4: 24}[k] + 1)
        indices = rng.sample(range(G34.n), m)
        sub = VertexSubset.from_indices(G34, indices)
        assert count_ordered_tuples(sub, k) == count_ordered_tuples_oracle(sub, k)
        checked += 1
    assert checked == 50


def test_counts_ignore_loops():
    # the fast path reads isotropy from class_loops alone: with every
    # diagonal bit of the class rows cleared it still agrees with the oracle
    cleared = tuple(row & ~(1 << c) for c, row in enumerate(G33.class_rows))
    assert cleared != G33.class_rows
    loopless = dataclasses.replace(G33, class_rows=cleared)
    for k in (2, 3):
        for seed in range(5):
            idx = random.Random(seed).sample(range(G33.n), 12)
            a = count_ordered_tuples(VertexSubset.from_indices(loopless, idx), k)
            b = count_ordered_tuples_oracle(VertexSubset.from_indices(G33, idx), k)
            assert a == b


QUOTIENT_GRAPHS = {2: 5, 3: 4, 4: 4, 5: 4, 9: 4}  # q -> d
ORACLE_SIZE = {1: 30, 2: 30, 3: 24, 4: 17, 5: 14}  # k -> largest m


@pytest.mark.parametrize("family", ["projective", "affine"])
@pytest.mark.parametrize("q", sorted(QUOTIENT_GRAPHS))
def test_quotient_count_matches_oracle(family, q):
    # each subset holds one whole isotropic class and then vertices adjacent
    # to it, so classes with w_c >= k meet classes with small w_c
    g = (build_affine_graph if family == "affine" else build_projective_graph)(q, QUOTIENT_GRAPHS[q])
    b = g.blowup
    isotropic = [c for c in range(g.n // b) if naive_dot(g.field, g.classes[c], g.classes[c]) == 0]
    rng = random.Random(q)
    for k in range(1, 6):
        for _ in range(3):
            c = rng.choice(isotropic)
            picks = set(range(c * b, c * b + b))
            m = rng.randrange(max(k, b), min(ORACLE_SIZE[k], g.n) + 1)
            near = [j for j in range(g.n) if (g.class_rows[c] >> (j // b)) & 1 and j not in picks]
            picks.update(rng.sample(near, min(m - b, len(near) // 2)))
            picks.update(rng.sample(sorted(set(range(g.n)) - picks), m - len(picks)))
            sub = VertexSubset.from_indices(g, picks)
            assert sub.size == m
            assert count_ordered_tuples(sub, k) == count_ordered_tuples_oracle(sub, k)


@settings(max_examples=60, deadline=None)
@given(
    indices=st.sets(st.integers(0, G33.n - 1), max_size=14),
    extra=st.integers(0, G33.n - 1),
    k=st.integers(1, 4),
)
def test_monotonicity_under_vertex_addition(indices, extra, k):
    base = VertexSubset.from_indices(G33, indices)
    grown = VertexSubset.from_indices(G33, indices | {extra})
    assert count_ordered_tuples(grown, k) >= count_ordered_tuples(base, k)


@settings(max_examples=40, deadline=None)
@given(indices=st.sets(st.integers(0, G33.n - 1), max_size=12), k=st.integers(1, 4))
def test_copies_times_factorial_is_ordered_count(indices, k):
    sub = VertexSubset.from_indices(G33, indices)
    ordered = count_ordered_tuples_oracle(sub, k)
    assert ordered % math.factorial(k) == 0
    assert ordered == count_ordered_tuples(sub, k)


# ---------------------------------------------------------------------------
# K_k copies: ordered k-tuples divided by k!
# ---------------------------------------------------------------------------


def copies(subset, k):
    return count_ordered_tuples(subset, k) // math.factorial(k)


def test_copies_k2_full_g33():
    assert copies(VertexSubset.full(G33), 2) == 100


def test_copies_empty_subset():
    empty = VertexSubset.from_indices(G33, [])
    for k in (1, 3):
        assert copies(empty, k) == 0
        assert count_ordered_tuples_oracle(empty, k) == 0


def test_copies_single_vertex_pattern_counts_members():
    sub = VertexSubset.from_indices(G33, range(9))
    assert copies(sub, 1) == 9


def test_k1_and_k2_tuple_counts_have_closed_forms():
    full = VertexSubset.full(G33)
    assert count_ordered_tuples(full, 1) == G33.n
    loops = sum(naive_dot(G33.field, v, v) == 0 for v in nonzero_vectors(3, 3))
    assert count_ordered_tuples(full, 2) == G33.n * G33.degree - loops


def test_invalid_k():
    full = VertexSubset.full(G33)
    with pytest.raises(ValueError):
        count_ordered_tuples(full, 0)
    with pytest.raises(ValueError):
        count_ordered_tuples_oracle(full, 0)
