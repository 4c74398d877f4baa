"""Graph construction: parameters, loops, blow-up structure, export."""

import io

import numpy as np
import pytest
from count_oracle import oracle_vertex
from field_oracle import naive_dot, naive_scale, nonzero_vectors

from orthocount.errors import BoundExceededError
from orthocount.graphs import (
    build_affine_graph,
    build_projective_graph,
    export_graph,
)


def closed_form(q, d, family):
    if family == "projective":
        return (q**d - 1) // (q - 1), (q ** (d - 1) - 1) // (q - 1)
    return q**d - 1, q ** (d - 1) - 1


@pytest.mark.parametrize("q,d", [(2, 3), (3, 3), (3, 4), (4, 3), (5, 3), (7, 3)])
def test_projective_parameters(q, d):
    g = build_projective_graph(q, d)
    n, degree = closed_form(q, d, "projective")
    assert (g.n, g.degree) == (n, degree)
    assert len(g.vertices) == n
    assert (g.adjacency_matrix().sum(axis=1) == degree).all()


@pytest.mark.parametrize("q,d", [(2, 3), (3, 3), (3, 4), (4, 3), (5, 4)])
def test_affine_parameters(q, d):
    g = build_affine_graph(q, d)
    n, degree = closed_form(q, d, "affine")
    assert (g.n, g.degree) == (n, degree)
    assert (g.adjacency_matrix().sum(axis=1) == degree).all()


def test_projective_small_examples():
    g = build_projective_graph(3, 3)
    assert (g.n, g.degree) == (13, 4)
    g2 = build_projective_graph(2, 3)
    assert (g2.n, g2.degree) == (7, 3)


def test_projective_loop_at_all_ones_class():
    g = build_projective_graph(3, 3)
    i = g.vertex_index((1, 1, 1))
    assert (g.class_loops >> i) & 1
    assert g.adjacency_matrix()[i, i] == 1


def test_adjacency_is_symmetric():
    for g in (build_projective_graph(3, 3), build_affine_graph(3, 3), build_affine_graph(4, 2)):
        a = g.adjacency_matrix()
        assert (a == a.T).all()


def test_loops_mirror_diagonal_and_self_orthogonality():
    g = build_affine_graph(3, 3)
    diagonal = np.diagonal(g.adjacency_matrix())
    for i, v in enumerate(g.vertices):
        self_orth = naive_dot(g.field, v, v) == 0
        assert (g.class_loops >> (i // g.blowup)) & 1 == self_orth == diagonal[i]


def test_affine_neighbors_example_gf2_d2():
    g = build_affine_graph(2, 2)
    i = g.vertex_index((1, 0))
    row = g.adjacency_matrix()[i]
    neighbors = [g.vertices[j] for j in range(g.n) if row[j]]
    assert neighbors == [(0, 1)]


def test_affine_gf2_equals_projective():
    for d in (2, 3, 4):
        ga = build_affine_graph(2, d)
        gp = build_projective_graph(2, d)
        assert ga.vertices == gp.vertices
        assert ga.class_rows == gp.class_rows
        assert (ga.adjacency_matrix() == gp.adjacency_matrix()).all()


def test_affine_vertices_in_class_blocks():
    # vertex i is ((i mod (q-1)) + 1) times class representative i // (q-1)
    for q, d in [(3, 3), (4, 3), (5, 3), (8, 2), (9, 2), (16, 2)]:
        g = build_affine_graph(q, d)
        assert g.classes == tuple(v for v in nonzero_vectors(q, d) if next(c for c in v if c) == 1)
        for i, v in enumerate(g.vertices):
            assert v == naive_scale(g.field, i % (q - 1) + 1, g.classes[i // (q - 1)])
        assert set(g.vertices) == set(nonzero_vectors(q, d))


@pytest.mark.parametrize("q,d", [(3, 3), (3, 4), (2, 4)])
def test_affine_scaling_invariance_exhaustive(q, d):
    # adjacency depends only on the projective classes: bit(ax, by) = bit(x, y)
    g = build_affine_graph(q, d)
    field = g.field
    adj = g.adjacency_matrix()
    for i, x in enumerate(g.vertices):
        for j, y in enumerate(g.vertices):
            for a in range(1, q):
                for b in range(1, q):
                    ia = g.vertex_index(naive_scale(field, a, x))
                    jb = g.vertex_index(naive_scale(field, b, y))
                    assert adj[ia, jb] == adj[i, j]


def export_bits(g):
    """The exported rows of g as a 0/1 matrix, bit j of line i at [i, j]."""
    buf = io.StringIO()
    export_graph(g, buf)
    lines = buf.getvalue().splitlines()[1:]
    return np.array([[(int(line, 16) >> j) & 1 for j in range(g.n)] for line in lines])


@pytest.mark.parametrize("q,d", [(3, 3), (4, 3), (5, 3), (9, 2), (8, 2), (16, 2)])
def test_derived_affine_views_match_pairwise_dot(q, d):
    # the vertex-level views expanded from the class data, the export lines
    # and the dense matrix, of both families against schoolbook dot
    # products of the vertices in the documented order
    for g in (build_projective_graph(q, d), build_affine_graph(q, d)):
        vertices = [oracle_vertex(g, i) for i in range(g.n)]
        expected = np.array([[naive_dot(g.field, x, y) == 0 for y in vertices] for x in vertices])
        assert (g.adjacency_matrix() == expected).all()
        assert (export_bits(g) == expected).all()


def test_affine_loop_count_is_blowup_of_projective():
    for q, d in [(3, 3), (5, 3), (3, 4), (4, 3)]:
        gp = build_projective_graph(q, d)
        ga = build_affine_graph(q, d)
        assert ga.class_loops == gp.class_loops
        loops = np.trace(gp.adjacency_matrix())
        assert loops == gp.class_loops.bit_count()
        assert np.trace(ga.adjacency_matrix()) == (q - 1) * loops


def test_affine_restricted_to_representatives_matches_projective():
    q, d = 5, 3
    gp = build_projective_graph(q, d)
    ga = build_affine_graph(q, d)
    # vertex block * (q - 1) is the class representative itself
    assert (ga.adjacency_matrix()[:: q - 1, :: q - 1] == gp.adjacency_matrix()).all()


def test_vertex_index_lookup():
    g = build_projective_graph(3, 3)
    for i, v in enumerate(g.vertices):
        assert g.vertex_index(v) == i
    with pytest.raises(ValueError):
        g.vertex_index((0, 0, 0))


def test_dense_bound_enforced():
    with pytest.raises(BoundExceededError):
        build_affine_graph(5, 4, max_vertices=100)
    with pytest.raises(ValueError):
        build_projective_graph(3, 1)


def test_construction_is_deterministic():
    a = build_affine_graph(3, 3)
    b = build_affine_graph(3, 3)
    assert a.vertices == b.vertices
    assert a.class_rows == b.class_rows and a.class_loops == b.class_loops


def test_export_round_trip():
    g = build_affine_graph(3, 3)
    buf = io.StringIO()
    export_graph(g, buf)
    text = buf.getvalue()
    lines = text.splitlines()
    assert lines[0] == "affine 3 3 26 8"
    assert len(lines) == 1 + g.n
    assert all(len(line) == (g.n + 3) // 4 for line in lines[1:])
    assert (export_bits(g) == g.adjacency_matrix()).all()


def test_adjacency_matrix_matches_rows():
    # entry (i, j) is bit j // b of class row i // b, b = blowup
    for g in (build_affine_graph(3, 3), build_projective_graph(4, 3)):
        a = g.adjacency_matrix()
        b = g.blowup
        for i in range(g.n):
            for j in range(g.n):
                assert a[i, j] == (g.class_rows[i // b] >> (j // b)) & 1
