"""Projective representatives, the vertex sets built from them and the
orthogonality they carry, against the naive field oracle."""

import numpy as np
import pytest
from field_oracle import naive_add, naive_dot, naive_mul, naive_scale, nonzero_vectors

from orthocount.errors import BoundExceededError
from orthocount.fields import element_digits, make_field, multiplication_matrices
from orthocount.graphs import build_affine_graph, build_projective_graph
from orthocount.vectors import format_vector, parse_vector, projective_representatives

GF2 = make_field(2, 1)
GF3 = make_field(3, 1)
GF5 = make_field(5, 1)


def test_dot_examples():
    # the library's one dot-product path is the graph's orthogonality
    for q, u, v, value in [
        (3, (1, 0), (0, 1), 0),
        (3, (1, 1, 1), (1, 1, 1), 0),
        (5, (1, 2), (2, 4), 0),
        (5, (1, 1), (1, 1), 2),
    ]:
        g = build_affine_graph(q, len(u))
        assert naive_dot(g.field, u, v) == value
        assert g.adjacency_matrix()[g.vertex_index(u), g.vertex_index(v)] == (value == 0)


def test_is_orthogonal_examples():
    for q, v, loop in [(3, (1, 1, 1), True), (2, (1, 0), False), (5, (1, 2), True)]:
        g = build_affine_graph(q, len(v))
        assert g.adjacency_matrix()[g.vertex_index(v), g.vertex_index(v)] == loop


def test_enumeration_order_gf2_d2():
    assert build_affine_graph(2, 2).vertices == ((1, 0), (0, 1), (1, 1))


def test_enumeration_counts():
    assert sorted(build_affine_graph(3, 3).vertices) == sorted(nonzero_vectors(3, 3))
    assert len(build_affine_graph(5, 4).vertices) == 624


def test_enumeration_is_encoding_order():
    reps = projective_representatives(GF5, 3)
    codes = [sum(c * 5**i for i, c in enumerate(v)) for v in reps]
    assert codes == sorted(codes)
    assert reps == [v for v in nonzero_vectors(5, 3) if next(c for c in v if c) == 1]


def test_enumeration_bound():
    # the vertex bound is checked on n before any representative is built
    assert build_projective_graph(5, 4, max_vertices=156).n == 156
    with pytest.raises(BoundExceededError):
        build_projective_graph(5, 4, max_vertices=155)


def test_projective_representatives_gf3_d2():
    reps = projective_representatives(GF3, 2)
    assert set(reps) == {(1, 0), (1, 1), (1, 2), (0, 1)}
    assert reps == [(1, 0), (0, 1), (1, 1), (1, 2)]  # encoding order


def test_projective_counts():
    assert len(projective_representatives(GF3, 3)) == 13
    gf2 = GF2
    for d in (2, 3, 4, 5):
        reps = projective_representatives(gf2, d)
        assert len(reps) == 2**d - 1
        assert reps == nonzero_vectors(2, d)


@pytest.mark.parametrize("field,d", [(GF2, 3), (GF3, 2), (GF3, 3), (GF5, 2), (make_field(2, 2), 2)])
def test_representatives_cover_all_classes(field, d):
    reps = projective_representatives(field, d)
    q = field.q
    assert len(reps) * (q - 1) == q**d - 1
    seen = {}
    for v in nonzero_vectors(q, d):
        matches = [
            (s, rep) for rep in reps for s in range(1, q) if naive_scale(field, s, rep) == v
        ]
        assert len(matches) == 1  # unique scalar times unique representative
        seen[v] = matches[0]
    # first nonzero coordinate of every representative is 1
    for rep in reps:
        assert next(c for c in rep if c) == 1


def test_bilinearity_exhaustive_gf3_d2():
    # the neighbours of v and 0 form the hyperplane v-perp: closed under
    # addition and nonzero scaling
    g = build_affine_graph(3, 3)
    field = g.field
    adj = g.adjacency_matrix()
    for i, v in enumerate(g.vertices):
        perp = {u for j, u in enumerate(g.vertices) if adj[i, j]} | {(0, 0, 0)}
        assert len(perp) == 9
        for u in perp:
            assert naive_scale(field, 2, u) in perp
            for w in perp:
                assert tuple(naive_add(field, a, b) for a, b in zip(u, w)) in perp


def test_bilinearity_sampled():
    # u.v through the library's arrays: the sum of the matrices of u_i
    # applied to the digits of v_i, mod p, read back as a code
    rng = np.random.default_rng(20240901)
    for field in (GF5, make_field(7, 1), make_field(2, 3), make_field(3, 2), make_field(2, 9)):
        mats, digits = multiplication_matrices(field), element_digits(field)
        weights = field.p ** np.arange(field.e)

        def dot(u, v):
            return int(np.einsum("xij,xj->i", mats[u], digits[v]) % field.p @ weights)

        for d in range(1, 6):
            for _ in range(30):
                u, w, v = rng.integers(0, field.q, size=(3, d)).tolist()
                s = int(rng.integers(0, field.q))
                uw = [naive_add(field, a, b) for a, b in zip(u, w)]
                assert dot(u, v) == naive_dot(field, u, v)
                assert dot(uw, v) == naive_add(field, dot(u, v), dot(w, v))
                assert dot(list(naive_scale(field, s, u)), v) == naive_mul(field, s, dot(u, v))


def test_vector_serialization_round_trip():
    assert format_vector((1, 0, 2)) == "1,0,2"
    assert parse_vector("1,0,2") == (1, 0, 2)
    assert parse_vector(" 4,4 \n") == (4, 4)
    with pytest.raises(ValueError):
        parse_vector("1,x,2")
