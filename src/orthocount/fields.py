"""GF(p^e) with deterministic construction, as digit and matrix arrays.

Field elements are plain integer codes in [0, q).  The code encodes the
coefficient vector of the residue polynomial in base p, constant term least
significant: code a represents a_0 + a_1 t + ... + a_{e-1} t^{e-1} where
a = a_0 + a_1 p + ... + a_{e-1} p^{e-1}.  Code 0 is the additive identity
and code 1 the multiplicative identity.

The reducing modulus for an extension field is the monic irreducible
polynomial of degree e whose non-leading coefficients, read as a base-p
integer (constant term least significant), are minimal.  This makes field
construction deterministic across runs and platforms without external
polynomial tables.  For e = 1 the modulus is fixed to t (unused by the
arithmetic).

All arithmetic goes through two arrays: element_digits (the e base-p
digits of every element, so addition is digit-wise mod p) and
multiplication_matrices (multiplication by a as a GF(p)-linear map on
digits).  A prime field is the case e = 1: the one digit of a is a, and
its matrix is [a].  Whole dot products, and vertex scaling, are one
integer matrix product on these arrays followed by mod p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundExceededError

DEFAULT_MAX_ORDER = 1 << 20


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate at desk scale."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _digits(a: int, p: int, length: int) -> list[int]:
    """Base-p digits of a, least significant first, padded to length."""
    out = []
    for _ in range(length):
        out.append(a % p)
        a //= p
    return out


def _poly_rem(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num mod den over GF(p); den must be monic."""
    num = list(num)
    dn = len(den) - 1
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            num[i] = 0
            off = i - dn
            for j in range(dn):
                num[off + j] = (num[off + j] - c * den[j]) % p
    return num[:dn]


def _is_irreducible(coeffs: list[int], p: int) -> bool:
    """Exhaustive trial division by every monic polynomial of degree
    1..deg/2.  Desk-scale only, like everything else here."""
    e = len(coeffs) - 1
    if e == 1:
        return True
    for deg in range(1, e // 2 + 1):
        for code in range(p**deg):
            divisor = _digits(code, p, deg) + [1]
            if not any(_poly_rem(coeffs, divisor, p)):
                return False
    return True


@dataclass(frozen=True)
class Field:
    """The parameters of GF(p^e): characteristic, degree, order and the
    reducing modulus.  Arithmetic is in element_digits and
    multiplication_matrices.  Instances are immutable, so a Field is safe
    for unrestricted concurrent use.
    """

    p: int
    e: int
    q: int
    modulus: tuple[int, ...]

    def spec_string(self) -> str:
        """Canonical serialization, e.g. "GF(2^2; modulus=1,1,1)"."""
        return f"GF({self.p}^{self.e}; modulus={','.join(map(str, self.modulus))})"


def make_field(p: int, e: int, max_order: int = DEFAULT_MAX_ORDER) -> Field:
    """Construct GF(p^e) deterministically.

    The modulus is the minimal-encoding monic irreducible polynomial of
    degree e (see module docstring), so two calls with the same (p, e)
    always produce identical fields.
    """
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if not isinstance(e, int) or e < 1:
        raise ValueError(f"extension degree must be >= 1, got {e}")
    q = p**e
    if q > max_order:
        raise BoundExceededError(f"field order {p}^{e} exceeds bound {max_order}")
    if e == 1:
        return Field(p=p, e=1, q=p, modulus=(0, 1))
    for code in range(q):
        coeffs = _digits(code, p, e) + [1]
        if _is_irreducible(coeffs, p):
            return Field(p=p, e=e, q=q, modulus=tuple(coeffs))
    raise RuntimeError(f"no irreducible polynomial of degree {e} over GF({p})")


def field_from_order(q: int, max_order: int = DEFAULT_MAX_ORDER) -> Field:
    """Construct the field of a given prime-power order q."""
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"field order must be an integer >= 2, got {q}")
    if q > max_order:
        # before factoring, which would take sqrt(q) steps
        raise BoundExceededError(f"field order {q} exceeds bound {max_order}")
    p = q
    for f in range(2, q):
        if f * f > q:
            break
        if q % f == 0:
            p = f
            break
    e = 0
    rest = q
    while rest % p == 0:
        rest //= p
        e += 1
    if rest != 1:
        raise ValueError(f"{q} is not a prime power")
    return make_field(p, e, max_order=max_order)


def element_digits(field: Field) -> np.ndarray:
    """(q, e) array: row a holds the base-p digits of element a."""
    codes = np.arange(field.q, dtype=np.int64)
    cols = []
    for _ in range(field.e):
        cols.append(codes % field.p)
        codes = codes // field.p
    return np.stack(cols, axis=1)


def multiplication_matrices(field: Field) -> np.ndarray:
    """(q, e, e) array: mats[a] is the GF(p)-linear multiply-by-a map.

    Column j of mats[a] holds the digits of a * t^j, so for digit vectors
    x, y of elements a, b: (mats[a] @ y) mod p are the digits of a*b.
    Sums of such products reduce dot products over GF(p^e) to one integer
    matrix product followed by mod p, which is how graph construction
    vectorizes orthogonality tests.
    """
    p, e = field.p, field.e
    companion = np.zeros((e, e), dtype=np.int64)
    for i in range(1, e):
        companion[i, i - 1] = 1
    if e > 1:
        companion[:, e - 1] = [(-c) % p for c in field.modulus[:e]]
    cols = [element_digits(field).T]
    for _ in range(e - 1):
        cols.append((companion @ cols[-1]) % p)
    return np.stack(cols, axis=0).transpose(2, 1, 0)
