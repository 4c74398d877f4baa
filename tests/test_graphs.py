"""Graph construction: parameters, loops, blow-up structure, export."""

import io

import pytest
from field_oracle import naive_dot, naive_scale, nonzero_vectors

from orthocount.errors import BoundExceededError
from orthocount.fields import make_field
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
    assert all(g.rows[i].bit_count() == degree for i in range(n))


@pytest.mark.parametrize("q,d", [(2, 3), (3, 3), (3, 4), (4, 3), (5, 4)])
def test_affine_parameters(q, d):
    g = build_affine_graph(q, d)
    n, degree = closed_form(q, d, "affine")
    assert (g.n, g.degree) == (n, degree)
    assert all(g.rows[i].bit_count() == degree for i in range(n))


def test_projective_small_examples():
    g = build_projective_graph(3, 3)
    assert (g.n, g.degree) == (13, 4)
    g2 = build_projective_graph(2, 3)
    assert (g2.n, g2.degree) == (7, 3)


def test_projective_loop_at_all_ones_class():
    g = build_projective_graph(3, 3)
    i = g.vertex_index((1, 1, 1))
    assert g.has_loop(i)
    assert g.has_edge(i, i)


def test_adjacency_is_symmetric():
    for g in (build_projective_graph(3, 3), build_affine_graph(3, 3), build_affine_graph(4, 2)):
        for i in range(g.n):
            for j in range(g.n):
                assert g.has_edge(i, j) == g.has_edge(j, i)


def test_loops_mirror_diagonal_and_self_orthogonality():
    g = build_affine_graph(3, 3)
    for i, v in enumerate(g.vertices):
        self_orth = naive_dot(g.field, v, v) == 0
        assert g.has_loop(i) == self_orth == g.has_edge(i, i)


def test_affine_neighbors_example_gf2_d2():
    g = build_affine_graph(2, 2)
    i = g.vertex_index((1, 0))
    row = g.rows[i]
    neighbors = [g.vertices[j] for j in range(g.n) if (row >> j) & 1]
    assert neighbors == [(0, 1)]


def test_affine_gf2_equals_projective():
    for d in (2, 3, 4):
        ga = build_affine_graph(2, d)
        gp = build_projective_graph(2, d)
        assert ga.vertices == gp.vertices
        assert ga.rows == gp.rows


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
    for i, x in enumerate(g.vertices):
        for j, y in enumerate(g.vertices):
            for a in range(1, q):
                for b in range(1, q):
                    ia = g.vertex_index(naive_scale(field, a, x))
                    jb = g.vertex_index(naive_scale(field, b, y))
                    assert g.has_edge(ia, jb) == g.has_edge(i, j)


@pytest.mark.parametrize("q,d", [(3, 3), (4, 3), (5, 3), (9, 2), (8, 2), (16, 2)])
def test_derived_affine_views_match_pairwise_dot(q, d):
    # rows and loops are widened from the class graph; check them against
    # naive dot products over all nonzero vectors
    g = build_affine_graph(q, d)
    field = g.field
    assert sorted(g.vertices) == sorted(nonzero_vectors(q, d))
    assert len(g.rows) == g.n
    for i, x in enumerate(g.vertices):
        expected = sum(1 << j for j, y in enumerate(g.vertices) if naive_dot(field, x, y) == 0)
        assert g.rows[i] == expected
        assert (g.loops >> i) & 1 == (naive_dot(field, x, x) == 0)
    assert g.loops >> g.n == 0


def test_affine_loop_count_is_blowup_of_projective():
    for q, d in [(3, 3), (5, 3), (3, 4), (4, 3)]:
        gp = build_projective_graph(q, d)
        ga = build_affine_graph(q, d)
        assert ga.loop_count() == (q - 1) * gp.loop_count()


def test_affine_restricted_to_representatives_matches_projective():
    q, d = 5, 3
    gp = build_projective_graph(q, d)
    ga = build_affine_graph(q, d)
    rep_positions = [block * (q - 1) for block in range(gp.n)]
    for bi, i in enumerate(rep_positions):
        for bj, j in enumerate(rep_positions):
            assert ga.has_edge(i, j) == gp.has_edge(bi, bj)


def test_extension_field_graph():
    g = build_projective_graph(4, 3)
    assert (g.n, g.degree) == (21, 5)
    field = make_field(2, 2)
    for i in range(g.n):
        for j in range(g.n):
            assert g.has_edge(i, j) == (naive_dot(field, g.vertices[i], g.vertices[j]) == 0)


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
    assert a.vertices == b.vertices and a.rows == b.rows and a.loops == b.loops


def test_export_round_trip():
    g = build_affine_graph(3, 3)
    buf = io.StringIO()
    export_graph(g, buf)
    text = buf.getvalue()
    lines = text.splitlines()
    assert lines[0] == "affine 3 3 26 8"
    assert len(lines) == 1 + g.n
    assert all(len(line) == (g.n + 3) // 4 for line in lines[1:])
    assert [int(line, 16) for line in lines[1:]] == list(g.rows)


def test_adjacency_matrix_matches_rows():
    g = build_affine_graph(3, 3)
    a = g.adjacency_matrix()
    for i in range(g.n):
        for j in range(g.n):
            assert a[i, j] == int(g.has_edge(i, j))
    assert (a == a.T).all()
