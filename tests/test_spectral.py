"""Exact square-identity verification and closed-form spectra."""

import dataclasses
import math
import random

import numpy as np
import pytest
from field_oracle import naive_dot

from orthocount.errors import BoundExceededError
from orthocount.graphs import build_affine_graph, build_projective_graph
from orthocount.spectral import (
    predicted_spectrum,
    verify_square_identity,
)

PROJECTIVE_GRID = [(2, 3), (3, 3), (3, 4), (4, 3), (5, 3), (7, 3)]
AFFINE_GRID = [(2, 3), (3, 3), (3, 4), (4, 3), (5, 3)]


@pytest.mark.parametrize("q,d", PROJECTIVE_GRID)
def test_projective_identity_passes(q, d):
    report = verify_square_identity(build_projective_graph(q, d))
    assert report.passed and report.family == "projective"
    assert report.codegree == (q ** (d - 2) - 1) // (q - 1)
    assert report.violations == ()


def test_projective_identity_examples():
    r33 = verify_square_identity(build_projective_graph(3, 3))
    assert (r33.codegree, r33.degree) == (1, 4)
    r23 = verify_square_identity(build_projective_graph(2, 3))
    assert (r23.codegree, r23.degree) == (1, 3)
    r53 = verify_square_identity(build_projective_graph(5, 3))
    assert (r53.codegree, r53.degree, r53.n) == (1, 6, 31)


@pytest.mark.parametrize("q,d", AFFINE_GRID)
def test_affine_identity_passes(q, d):
    report = verify_square_identity(build_affine_graph(q, d))
    assert report.passed and report.family == "affine"
    assert report.codegree == q ** (d - 2) - 1


def test_affine_identity_examples():
    r = verify_square_identity(build_affine_graph(3, 3))
    assert (r.codegree, r.degree) == (2, 8)
    r54 = verify_square_identity(build_affine_graph(5, 4))
    assert (r54.codegree, r54.degree, r54.n) == (24, 124, 624)


def test_verify_square_identity_dispatches():
    for builder, family in ((build_projective_graph, "projective"), (build_affine_graph, "affine")):
        report = verify_square_identity(builder(3, 3))
        assert report.passed and report.family == family


def test_matrix_bound_enforced():
    g = build_affine_graph(3, 3)
    with pytest.raises(BoundExceededError):
        verify_square_identity(g, max_vertices=10)


def corrupt(g):
    """g with bit 5 of class row 0 flipped: breaks symmetry and regularity."""
    rows = list(g.class_rows)
    rows[0] ^= 1 << 5
    return dataclasses.replace(g, class_rows=tuple(rows))


def test_corrupted_adjacency_is_detected():
    report = verify_square_identity(corrupt(build_projective_graph(3, 3)))
    assert not report.passed
    assert report.violations
    i, j, expected, actual = report.violations[0]
    assert expected != actual
    # first violation is the lexicographically smallest mismatch
    assert (i, j) == min((v[0], v[1]) for v in report.violations)


def test_corrupted_affine_adjacency_is_detected():
    report = verify_square_identity(corrupt(build_affine_graph(3, 3)))
    assert not report.passed
    i, j, expected, actual = report.violations[0]
    assert expected != actual
    assert (i, j) == min((v[0], v[1]) for v in report.violations)


# (family, q, d) -> violations of the corrupted graph, recorded from the
# separate projective and affine checks this verifier replaced
CORRUPTED_VIOLATIONS = {
    ("projective", 3, 3): (
        (0, 0, 4, 5), (0, 1, 1, 2), (0, 9, 1, 2), (0, 11, 1, 2), (0, 12, 1, 2),
        (1, 0, 1, 2), (9, 0, 1, 2), (11, 0, 1, 2), (12, 0, 1, 2),
    ),
    ("affine", 3, 3): (
        (0, 0, 8, 10), (0, 1, 8, 10), (0, 2, 2, 4), (0, 3, 2, 4), (0, 18, 2, 4),
        (0, 19, 2, 4), (0, 22, 2, 4), (0, 23, 2, 4), (0, 24, 2, 4), (0, 25, 2, 4),
    ),
    ("affine", 4, 3): (
        (0, 0, 15, 12), (0, 1, 15, 12), (0, 2, 15, 12), (0, 3, 3, 0), (0, 4, 3, 0),
        (0, 5, 3, 0), (0, 6, 3, 0), (0, 7, 3, 0), (0, 8, 3, 0), (0, 9, 3, 0),
    ),
}


@pytest.mark.parametrize("family,q,d", sorted(CORRUPTED_VIOLATIONS))
def test_corrupted_violations_are_frozen(family, q, d):
    builder = build_affine_graph if family == "affine" else build_projective_graph
    report = verify_square_identity(corrupt(builder(q, d)))
    assert not report.passed
    assert report.violations == CORRUPTED_VIOLATIONS[(family, q, d)]


def test_trace_equals_loop_count():
    # the loops are the self-orthogonal vertices: the isotropic classes,
    # each blown up to blowup vertices
    for q, d in [(2, 3), (3, 3), (5, 3), (4, 3), (3, 4)]:
        for g in (build_projective_graph(q, d), build_affine_graph(q, d)):
            isotropic = sum(naive_dot(g.field, v, v) == 0 for v in g.classes)
            assert int(np.trace(g.adjacency_matrix())) == isotropic * g.blowup


def test_trace_of_square_is_n_times_degree():
    for g in (build_projective_graph(5, 3), build_affine_graph(3, 4)):
        a = g.adjacency_matrix()
        assert int(np.trace(a @ a.T)) == g.n * g.degree


@pytest.mark.parametrize("q,d", PROJECTIVE_GRID)
def test_perron_row_sum_identity(q, d):
    # the identity forces degree^2 = mu*n + (degree - mu) exactly
    n = (q**d - 1) // (q - 1)
    degree = (q ** (d - 1) - 1) // (q - 1)
    mu = (q ** (d - 2) - 1) // (q - 1)
    assert degree**2 == mu * n + (degree - mu)


@pytest.mark.parametrize("q,d", AFFINE_GRID)
def test_affine_row_sum_identity(q, d):
    n = q**d - 1
    degree = q ** (d - 1) - 1
    rho = q ** (d - 2) - 1
    assert degree**2 == rho * n + (degree - rho) * (q - 1)


def test_common_neighborhood_spot_check():
    # the verified identity implies |N(i) & N(j)| = mu for i != j; the
    # projective graph's vertex rows are its class rows
    g = build_projective_graph(5, 3)
    mu = 1
    rng = random.Random(7)
    pairs = {(rng.randrange(g.n), rng.randrange(g.n)) for _ in range(100)}
    for i, j in pairs:
        common = (g.class_rows[i] & g.class_rows[j]).bit_count()
        if i == j:
            assert common == g.degree
        else:
            assert common == mu


def test_predicted_spectrum_examples():
    aff = predicted_spectrum(3, 4, "affine")
    assert math.sqrt(aff.second_squared) == 6.0 and aff.second_squared == 36
    proj = predicted_spectrum(3, 4, "projective")
    assert math.sqrt(proj.second_squared) == 3.0 and proj.second_squared == 9
    for d in (2, 3, 4):
        a2 = predicted_spectrum(2, d, "affine")
        p2 = predicted_spectrum(2, d, "projective")
        assert a2.second_squared == p2.second_squared


def test_predicted_spectrum_consistency_with_degree():
    for q, d in PROJECTIVE_GRID:
        prof = predicted_spectrum(q, d, "projective")
        assert prof.second_squared == prof.degree - prof.codegree
    for q, d in AFFINE_GRID:
        prof = predicted_spectrum(q, d, "affine")
        assert prof.second_squared == (q - 1) * (prof.degree - prof.codegree)


def test_predicted_spectrum_odd_dimension_is_irrational():
    prof = predicted_spectrum(3, 3, "projective")
    assert prof.second_squared == 3
    assert math.isqrt(prof.second_squared) ** 2 != prof.second_squared
    assert math.isclose(math.sqrt(prof.second_squared) ** 2, 3)


def test_predicted_spectrum_rejects_bad_family():
    with pytest.raises(ValueError):
        predicted_spectrum(3, 3, "bogus")
