"""Exact verification of the square-of-adjacency identity.

Both families satisfy one identity.  Group the vertices into blocks of
b = graph.blowup consecutive vertices, one projective class per block
(b = 1 for the projective graph, b = q - 1 for the all-vectors graph).
With degree D and codegree c,

    (A @ A.T)[i, j]  ==  c + (D - c) * [i, j in the same block]

For the projective graph c = mu = (q^(d-2) - 1)/(q - 1) and the identity
reads A @ A.T == mu * J + (D - mu) * I; for the all-vectors graph
c = rho = q^(d-2) - 1.  Both codegrees come from predicted_spectrum.

The check runs in exact 64-bit integer arithmetic (entries are bounded
by the degree, far below 2^63), so a pass is an identity, not an
approximation; eigenvalue claims follow algebraically and no numeric
eigensolver is involved anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundExceededError
from .graphs import AFFINE, PROJECTIVE, OrthoGraph

DEFAULT_MAX_CHECK_VERTICES = 4096
VIOLATION_CAP = 10

Violation = tuple[int, int, int, int]  # (i, j, expected, actual)


@dataclass(frozen=True)
class SpectralProfile:
    """Closed-form spectral data implied by the square identity.

    second_squared, the square of the second eigenvalue, is exact; for odd
    d the eigenvalue itself is irrational.
    """

    family: str
    n: int
    degree: int
    second_squared: int
    codegree: int


@dataclass(frozen=True)
class IdentityReport:
    passed: bool
    family: str
    q: int
    d: int
    n: int
    degree: int
    codegree: int
    violations: tuple[Violation, ...]


def _collect_violations(actual: np.ndarray, expected: np.ndarray) -> tuple[Violation, ...]:
    mismatch = np.argwhere(actual != expected)  # row-major, so lexicographic
    return tuple(
        (int(i), int(j), int(expected[i, j]), int(actual[i, j]))
        for i, j in mismatch[:VIOLATION_CAP]
    )


def verify_square_identity(
    graph: OrthoGraph, max_vertices: int = DEFAULT_MAX_CHECK_VERTICES
) -> IdentityReport:
    """Check A @ A.T == codegree + (degree - codegree) * [same block]
    entry-wise in exact integers, for either family.

    Blocks are runs of graph.blowup consecutive vertices, so the check
    relies on the builder's vertex order (each projective class in one
    contiguous block); any ordering violation surfaces as a mismatched
    entry."""
    n, b = graph.n, graph.blowup
    if n > max_vertices:
        raise BoundExceededError(f"matrix check bound exceeded: n = {n} > {max_vertices}")
    codegree = predicted_spectrum(graph.q, graph.d, graph.family).codegree
    a = graph.adjacency_matrix()
    actual = a @ a.T
    del a
    expected = np.full((n, n), codegree, dtype=np.int64)
    blocks = expected.reshape(n // b, b, n // b, b)  # a view: writes reach expected
    diagonal = np.arange(n // b)
    blocks[diagonal, :, diagonal, :] = graph.degree
    violations = _collect_violations(actual, expected)
    return IdentityReport(
        passed=not violations,
        family=graph.family,
        q=graph.q,
        d=graph.d,
        n=n,
        degree=graph.degree,
        codegree=codegree,
        violations=violations,
    )


def predicted_spectrum(q: int, d: int, family: str) -> SpectralProfile:
    """Closed-form (n, degree, |second eigenvalue|, codegree) profile."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    if family == PROJECTIVE:
        return SpectralProfile(
            family=family,
            n=(q**d - 1) // (q - 1),
            degree=(q ** (d - 1) - 1) // (q - 1),
            second_squared=q ** (d - 2),
            codegree=(q ** (d - 2) - 1) // (q - 1),
        )
    if family == AFFINE:
        return SpectralProfile(
            family=family,
            n=q**d - 1,
            degree=q ** (d - 1) - 1,
            second_squared=(q - 1) ** 2 * q ** (d - 2),
            codegree=q ** (d - 2) - 1,
        )
    raise ValueError(f"unknown family {family!r}")
