"""Projective points of F_q^d and the text form of vectors.

A vector is a plain tuple of element codes (see fields).  Enumeration
order is fixed everywhere as the base-q integer encoding of the
coordinates with coordinate 1 least significant, which is what makes
graph vertex orderings (and hence all reports) reproducible byte for
byte.
"""

from __future__ import annotations

import numpy as np

from .fields import Field

Vector = tuple[int, ...]


def projective_representatives(field: Field, d: int) -> list[Vector]:
    """One canonical representative per projective equivalence class, in
    encoding order.

    The representative is the unique scalar multiple whose first nonzero
    coordinate (lowest index) equals 1.  Putting a coordinate c below a
    vector of code h gives code c + q*h, which is a representative exactly
    when c = 1, or c = 0 and h is one.  A mask over the codes of the top
    d - 1 coordinates is grown that way, and the last step, where only
    c in {0, 1} can occur, reads the codes off in ascending order: no
    sort, and nothing of size q^d.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    q = field.q
    is_rep = np.zeros(1, dtype=bool)  # the empty vector is no representative
    for _ in range(d - 1):
        grown = np.zeros((is_rep.size, q), dtype=bool)
        grown[:, 0] = is_rep
        grown[:, 1] = True
        is_rep = grown.ravel()
    high = q * np.arange(is_rep.size, dtype=np.int64)
    keep = np.stack([is_rep, np.ones_like(is_rep)], axis=1)
    codes = np.stack([high, high + 1], axis=1)[keep]
    coords = codes[:, None] // q ** np.arange(d, dtype=np.int64) % q
    return list(map(tuple, coords.tolist()))


def format_vector(v: Vector) -> str:
    """Serialize as comma-separated element indices, e.g. "1,0,2"."""
    return ",".join(str(c) for c in v)


def parse_vector(text: str) -> Vector:
    try:
        return tuple(int(part) for part in text.strip().split(","))
    except ValueError:
        raise ValueError(f"cannot parse vector from {text!r}") from None
