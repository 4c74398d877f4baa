"""Orthogonality graphs on projective points and on all nonzero vectors.

Both families put an edge between x and y exactly when x.y = 0, including
x = y (self-orthogonal vectors carry loops).  Adjacency is held as one
arbitrary-precision Python integer per class, bit j of row i meaning
"class i adjacent to class j"; bitwise AND on these rows is the
performance core of clique counting.  A loop contributes exactly 1 to its
row's population count, which keeps every class row sum equal to the
common class degree.

Orthogonality is computed once, on the projective classes: a graph stores
the class representatives in encoding order, one class row per
representative and the class loops (the isotropic classes, x.x = 0).  The
projective graph is exactly this class graph.  The all-vectors graph is
its (q-1)-fold blow-up, since x.y = 0 if and only if (s x).(t y) = 0 for
nonzero scalars s, t, and it is held as the same class data with blow-up
factor q - 1.  Its vertex i is the multiple ((i mod (q-1)) + 1) times
representative i // (q-1), so classes form contiguous blocks of size
q - 1, the ordering the block-diagonal spectral identity relies on; its
row i is class row i // (q-1) with every bit widened to q - 1 bits.
Only the export, the dense adjacency matrix of the spectral check and
the vertex lookup expand the class data to vertices; counting reads the
class rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import IO

import numpy as np

from .errors import BoundExceededError, OrthocountError
from .fields import Field, element_digits, field_from_order, multiplication_matrices
from .vectors import Vector, projective_representatives

DEFAULT_MAX_VERTICES = 20_000

PROJECTIVE = "projective"
AFFINE = "affine"


def _widen(mask: int, count: int, width: int) -> int:
    """Replace each of the low `count` bits of mask by `width` copies of
    itself: bit c becomes bits c*width .. c*width + width - 1."""
    if width == 1:
        return mask
    packed = np.frombuffer(mask.to_bytes((count + 7) // 8, "little"), dtype=np.uint8)
    bits = np.unpackbits(packed, bitorder="little")[:count]
    return int.from_bytes(np.packbits(np.repeat(bits, width), bitorder="little").tobytes(), "little")


@dataclass(frozen=True, eq=False)
class OrthoGraph:
    """Immutable dense orthogonality graph, stored as its projective class
    graph plus a blow-up factor; safe for concurrent reads."""

    family: str
    q: int
    d: int
    field: Field
    classes: tuple[Vector, ...]
    class_rows: tuple[int, ...]
    class_loops: int
    degree: int

    @property
    def blowup(self) -> int:
        """Vertices per class: q - 1 for the all-vectors graph, else 1."""
        return self.q - 1 if self.family == AFFINE else 1

    @property
    def n(self) -> int:
        return len(self.classes) * self.blowup

    @cached_property
    def vertices(self) -> tuple[Vector, ...]:
        """Vertex i is ((i mod b) + 1) times class i // b, b = blowup:
        the digits of s * rep are multiplication_matrices[s] @ digits."""
        if self.blowup == 1:
            return self.classes
        field = self.field
        digits = element_digits(field)[np.array(self.classes)]  # (classes, d, e)
        scalars = multiplication_matrices(field)[1:]  # (q - 1, e, e)
        prods = np.einsum("sij,cxj->csxi", scalars, digits) % field.p
        codes = prods @ field.p ** np.arange(field.e, dtype=np.int64)
        return tuple(map(tuple, codes.reshape(self.n, self.d).tolist()))

    def vertex_index(self, v: Vector) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise ValueError(f"{v} is not a vertex of this graph") from None

    def adjacency_matrix(self) -> np.ndarray:
        """Dense 0/1 matrix as int64: the class rows unpacked and every
        entry expanded to a blowup x blowup block."""
        count, b = len(self.classes), self.blowup
        nbytes = (count + 7) // 8
        packed = np.frombuffer(
            b"".join(row.to_bytes(nbytes, "little") for row in self.class_rows), dtype=np.uint8
        ).reshape(count, nbytes)
        bits = np.unpackbits(packed, axis=1, bitorder="little")[:, :count]
        # cast a broadcast view, so no uint8 copy of the n x n matrix is made
        blocks = np.broadcast_to(bits[:, None, :, None], (count, b, count, b))
        return blocks.astype(np.int64).reshape(self.n, self.n)

    @cached_property
    def _index(self) -> dict[Vector, int]:
        return {v: i for i, v in enumerate(self.vertices)}


def _orthogonality_rows(field: Field, coords: np.ndarray) -> list[int]:
    """Bit rows of the pairwise-orthogonality relation among the given
    coordinate rows (element codes), bit j of row i meaning x_i.x_j = 0.

    Over GF(p^e) each element is a GF(p)-linear map on its e base-p
    digits (multiplication_matrices), so the e digits of x_i.x_j are one
    row each of an integer product of left (e rows per vector) with the
    digit matrix right, reduced mod p; x_i.x_j = 0 when all e vanish.  For
    a prime field e = 1 and the product is coords @ coords.T.  Rows are
    taken in chunks whose (e*chunk) x n product holds about 2^22 entries,
    and each product is freed before the next is computed.

    Products stay below 2^63: digits are < p and q^d is capped by the
    vertex bound, so each accumulated sum is at most d * e * p^2.
    """
    n, d = coords.shape
    e, p = field.e, field.p
    chunk = max(1, (1 << 22) // max(e * n, 1))
    mats = multiplication_matrices(field)[coords]  # (n, d, e, e)
    left = mats.transpose(0, 2, 1, 3).reshape(n, e, d * e)
    right = element_digits(field)[coords].reshape(n, d * e).T
    nbytes = (n + 7) // 8
    rows: list[int] = []
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        prods = left[start:stop].reshape(-1, d * e) @ right
        prods %= p
        zero = (prods.reshape(stop - start, e, n) == 0).all(axis=1)
        del prods
        packed = np.packbits(zero, axis=1, bitorder="little")
        for row_bytes in packed:
            rows.append(int.from_bytes(row_bytes.tobytes()[:nbytes], "little"))
    return rows


def _build(family: str, q: int, d: int, max_vertices: int) -> OrthoGraph:
    field = field_from_order(q)
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    # n >= 2^(d-1) exceeds the bound once d - 1 passes its bit length; past
    # 2^14 as well, q**d would take unbounded time and memory, so n is not
    # computed (below that the message below still names n)
    if d - 1 > max(max_vertices.bit_length(), 1 << 14):
        raise BoundExceededError(f"{family} graph order at d = {d} exceeds bound {max_vertices}")
    blowup = q - 1 if family == AFFINE else 1
    n = (q**d - 1) // (q - 1) * blowup
    if n > max_vertices:
        raise BoundExceededError(f"{family} graph order {n} exceeds bound {max_vertices}")
    classes = projective_representatives(field, d)
    rows = _orthogonality_rows(field, np.array(classes, dtype=np.int64))
    class_degree = (q ** (d - 1) - 1) // (q - 1)
    loops = 0
    for c, row in enumerate(rows):
        if row.bit_count() != class_degree:
            raise OrthocountError(
                f"regularity violated at class {c}: row sum {row.bit_count()} != {class_degree}"
            )
        loops |= ((row >> c) & 1) << c
    return OrthoGraph(
        family=family,
        q=q,
        d=d,
        field=field,
        classes=tuple(classes),
        class_rows=tuple(rows),
        class_loops=loops,
        # a vertex is adjacent to all blowup vertices of each adjacent class
        degree=class_degree * blowup,
    )


def build_projective_graph(q: int, d: int, max_vertices: int = DEFAULT_MAX_VERTICES) -> OrthoGraph:
    """Graph on the (q^d - 1)/(q - 1) projective points; adjacency is
    orthogonality of class representatives (well defined on classes)."""
    return _build(PROJECTIVE, q, d, max_vertices)


def build_affine_graph(q: int, d: int, max_vertices: int = DEFAULT_MAX_VERTICES) -> OrthoGraph:
    """Graph on all q^d - 1 nonzero vectors, the (q-1)-fold blow-up of the
    projective graph; vertices grouped by class in contiguous blocks.
    Only the class graph is computed here."""
    return _build(AFFINE, q, d, max_vertices)


def export_graph(graph: OrthoGraph, stream: IO[str]) -> None:
    """Write the exchange format: a "family q d n degree" header line,
    then one hex-encoded adjacency row per vertex (the row's bit integer,
    zero-padded to ceil(n/4) digits; bit j marks adjacency to vertex j)."""
    stream.write(f"{graph.family} {graph.q} {graph.d} {graph.n} {graph.degree}\n")
    width = (graph.n + 3) // 4
    count, b = len(graph.classes), graph.blowup
    for row in graph.class_rows:
        # the b vertices of a class share its widened row
        stream.write((format(_widen(row, count, b), f"0{width}x") + "\n") * b)
