"""Exact arithmetic in GF(p^e) with deterministic field construction.

Field elements are plain integer indices in [0, q).  The index encodes the
coefficient vector of the residue polynomial in base p, constant term least
significant: index a represents a_0 + a_1 t + ... + a_{e-1} t^{e-1} where
a = a_0 + a_1 p + ... + a_{e-1} p^{e-1}.  Index 0 is the additive identity
and index 1 the multiplicative identity.

The reducing modulus for an extension field is the monic irreducible
polynomial of degree e whose non-leading coefficients, read as a base-p
integer (constant term least significant), are minimal.  This makes field
construction deterministic across runs and platforms without external
polynomial tables.  For e = 1 the modulus is fixed to t (unused by the
arithmetic).

Prime fields use direct modular arithmetic.  Extension fields of order
q <= 256 precompute full addition/multiplication/inversion tables, since
dot products dominate runtime in graph construction; larger extension
fields reduce polynomial products on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BoundExceededError

DEFAULT_MAX_ORDER = 1 << 20
TABLE_LIMIT = 256


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
    """A finite field GF(p^e) operating on integer element indices.

    Instances are immutable and all operations are pure functions, so a
    Field is safe for unrestricted concurrent use.
    """

    p: int
    e: int
    q: int
    modulus: tuple[int, ...]

    # -- scalar arithmetic ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        tables = self._tables
        if tables is not None:
            return tables[0][a][b]
        return self._index(
            [(x + y) % self.p for x, y in zip(self._digits_of(a), self._digits_of(b))]
        )

    def neg(self, a: int) -> int:
        self._check(a)
        if self.e == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        return self._index([(-x) % self.p for x in self._digits_of(a)])

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        if self.e == 1:
            return (a * b) % self.p
        tables = self._tables
        if tables is not None:
            return tables[1][a][b]
        return self._poly_mul(a, b)

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises ZeroDivisionError for a = 0.

        Computed by Fermat exponentiation a^(q-2); for prime fields this
        is Python's native three-argument pow.
        """
        self._check(a)
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in {self.spec_string()}")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        tables = self._tables
        if tables is not None:
            return tables[2][a]
        return self.pow(a, self.q - 2)

    def pow(self, a: int, n: int) -> int:
        """a raised to a non-negative integer power n."""
        self._check(a)
        if n < 0:
            raise ValueError("negative exponents not supported; use inv")
        if self.e == 1:
            return pow(a, n, self.p)
        result = 1
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def elements(self) -> range:
        return range(self.q)

    def spec_string(self) -> str:
        """Canonical serialization, e.g. "GF(2^2; modulus=1,1,1)"."""
        return f"GF({self.p}^{self.e}; modulus={','.join(map(str, self.modulus))})"

    # -- internals ---------------------------------------------------------

    def _check(self, a: int) -> None:
        if not 0 <= a < self.q:
            raise ValueError(f"element index {a} out of range [0, {self.q})")

    def _digits_of(self, a: int) -> list[int]:
        return _digits(a, self.p, self.e)

    def _index(self, digits: list[int]) -> int:
        acc = 0
        for c in reversed(digits):
            acc = acc * self.p + c
        return acc

    def _poly_mul(self, a: int, b: int) -> int:
        da, db = self._digits_of(a), self._digits_of(b)
        e, p = self.e, self.p
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] += x * y
        prod = [c % p for c in prod]
        return self._index(_poly_rem(prod, list(self.modulus), p))

    @cached_property
    def _tables(self) -> tuple[list, list, list] | None:
        # Full q x q tables; only worthwhile for small extension fields.
        if self.e == 1 or self.q > TABLE_LIMIT:
            return None
        dig = element_digits(self)
        mats = multiplication_matrices(self)
        weights = self.p ** np.arange(self.e, dtype=np.int64)
        add_t = ((dig[:, None, :] + dig[None, :, :]) % self.p) @ weights
        mul_t = (np.einsum("aij,bj->abi", mats, dig) % self.p) @ weights
        inv_t = [0] * self.q
        for a, b in np.argwhere(mul_t == 1):
            inv_t[int(a)] = int(b)
        return add_t.tolist(), mul_t.tolist(), inv_t


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
