"""Exact counts of ordered k-tuples of mutually orthogonal vectors.

A k-tuple of distinct, pairwise orthogonal subset members is an ordered
copy of K_k in the orthogonality graph, so the K_k copy count is the
ordered count divided by k!.

count_ordered_tuples works on the class graph alone (see graphs), for
both families.  A subset S is its sorted vertex indices, and its class
weights w_c = |S ∩ class c| are their per-class bincount.  A set of
distinct, pairwise adjacent members meets a set C of classes that is a
clique of the class graph (diagonal excluded); it takes j_c >= 1 members
of each class c in C, and j_c >= 2 only when c is isotropic, since two
multiples of x are orthogonal exactly when x.x = 0.  Hence

    ordered k-tuples = k! * [x^k] sum over class cliques C of
                       prod_{c in C} g_c(x),
    g_c(x) = (1 + x)^(w_c) - 1   if c is isotropic,
    g_c(x) = w_c * x             otherwise.

The projective family is the case w_c in {0, 1}.  Class cliques are
enumerated by candidate bit-vector intersection in ascending class
order, and only cliques of at most k classes reach x^k.  A clique of
k - 1 classes grows by one more class c, adding w_c times its [x^(k-1)],
so the last level is a weighted popcount of the candidate set over the
bitplanes of the weights (about log2(q) of them).

The independent slow route lives in the test suite (tests/count_oracle.py):
it enumerates every ordered tuple of distinct members and tests all pairs
with schoolbook field arithmetic, sharing no code with the graph builder.

Tuples require distinct entries throughout, so diagonal bits never
contribute; counts are exact Python integers end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .graphs import OrthoGraph
from .vectors import Vector


@dataclass(frozen=True, eq=False)
class VertexSubset:
    """A vertex subset = its sorted vertex indices, distinct, in an int64
    array; weights = their per-class bincount.  The constructor trusts
    indices; from_indices and from_vectors validate theirs."""

    graph: OrthoGraph
    indices: np.ndarray

    def __post_init__(self):
        # a private read-only copy, since weights is cached from it
        indices = np.array(self.indices, dtype=np.int64)
        indices.flags.writeable = False
        object.__setattr__(self, "indices", indices)

    @property
    def size(self) -> int:
        return len(self.indices)

    @cached_property
    def weights(self) -> np.ndarray:
        """w_c = |S ∩ class c|; class c holds vertices c*b .. c*b + b - 1."""
        return np.bincount(self.indices // self.graph.blowup, minlength=len(self.graph.classes))

    @classmethod
    def full(cls, graph: OrthoGraph) -> "VertexSubset":
        return cls(graph, np.arange(graph.n))

    @classmethod
    def from_indices(cls, graph: OrthoGraph, indices: Iterable[int]) -> "VertexSubset":
        """An error names the first bad index in input order."""
        given = np.array(list(indices), dtype=object)  # any int gets the range message
        ordered, first = np.unique(given, return_index=True)
        # out of range, or a repeat: not the first occurrence of its value
        bad = (given < 0) | (given >= graph.n) | ~np.isin(np.arange(given.size), first)
        if bad.any():
            i = int(given[bad.argmax()])
            if 0 <= i < graph.n:
                raise ValueError(f"duplicate vertex index {i}")
            raise ValueError(f"vertex index {i} out of range [0, {graph.n})")
        return cls(graph, ordered)

    @classmethod
    def from_vectors(cls, graph: OrthoGraph, vecs: Iterable[Vector]) -> "VertexSubset":
        indices = []
        for v in vecs:
            if all(c == 0 for c in v):
                raise ValueError(
                    "the zero vector is orthogonal to everything and is not a "
                    "graph vertex; subsets containing it are rejected"
                )
            indices.append(graph.vertex_index(v))
        return cls.from_indices(graph, indices)


def _weighted_clique_sum(rows: Sequence[int], loops: int, weights: np.ndarray, k: int) -> int:
    """Sum over the cliques C of the class graph of [x^k] prod_{c in C}
    g_c(x), for the class weights w; see the module docstring for g_c."""
    if k == 1:
        return int(weights.sum())
    # (j, mask of the classes whose weight has bit j set)
    planes = [
        (j, int.from_bytes(np.packbits((weights >> j) & 1, bitorder="little").tobytes(), "little"))
        for j in range(int(weights.max()).bit_length())
    ]
    weights = weights.tolist()  # exact Python integers from here on
    # coefficients of g_c for the classes where it is not w_c * x
    gen = {
        c: [0] + [math.comb(w, j) for j in range(1, k + 1)]
        for c, w in enumerate(weights)
        if w >= 2 and (loops >> c) & 1
    }

    def walk(poly: list[int], candidates: int, depth: int) -> int:
        # poly holds [x^j] of the product over the depth classes chosen so
        # far; the result covers every extension by candidates
        total = 0
        rest = candidates
        while rest:
            low = rest & -rest
            c = low.bit_length() - 1
            rest ^= low
            # rest now holds exactly the candidates above c
            g = gen.get(c)
            sub = rest & rows[c]
            if depth + 2 < k:
                if g is None:
                    grown = [0] + [weights[c] * a for a in poly[:k]]
                else:
                    grown = [sum(g[i] * poly[j - i] for i in range(1, j + 1)) for j in range(k + 1)]
                total += grown[k]
                if sub:
                    total += walk(grown, sub, depth + 1)
                continue
            # last level: only [x^(k-1)] and [x^k] of poly * g_c matter, and
            # one more class c' adds w_c' * [x^(k-1)]
            if g is None:
                below, top = weights[c] * poly[k - 2], weights[c] * poly[k - 1]
            else:
                below = sum(g[i] * poly[k - 1 - i] for i in range(1, k))
                top = sum(g[i] * poly[k - i] for i in range(1, k + 1))
            total += top
            if sub:
                weight = 0
                for j, plane in planes:
                    weight += (sub & plane).bit_count() << j
                total += below * weight
        return total

    active = 0
    for _, plane in planes:
        active |= plane
    return walk([1] + [0] * k, active, 0)


def count_ordered_tuples(subset: VertexSubset, k: int) -> int:
    """Fast path: k! times the weighted class-clique sum of the module
    docstring, on the class rows."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if subset.size < k:
        return 0
    graph = subset.graph
    weights = subset.weights
    return math.factorial(k) * _weighted_clique_sum(graph.class_rows, graph.class_loops, weights, k)
