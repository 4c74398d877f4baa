"""Reference GF(p^e) arithmetic for the tests.

The naive_* functions share no code with the library: they multiply
coefficient lists as polynomials and reduce by field.modulus with schoolbook
long division.  matrix_add and matrix_mul are the library's arithmetic, read
from element_digits and multiplication_matrices and vectorised over numpy
arrays of element codes, so tests can hold the two against each other.
naive_add and naive_mul are memoised, since a field has only q^2 pairs.
"""

from functools import cache

import numpy as np

from orthocount.fields import element_digits, multiplication_matrices


def oracle_poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _coeffs(field, a):
    out = []
    for _ in range(field.e):
        out.append(a % field.p)
        a //= field.p
    return out


def _code(field, coeffs):
    return sum(c * field.p**i for i, c in enumerate(coeffs))


def _reduce(field, poly):
    """poly mod field.modulus, by cancelling the top coefficient until the
    degree is below e (the modulus is monic)."""
    poly, e = list(poly), field.e
    for top in range(len(poly) - 1, e - 1, -1):
        c = poly[top]
        for i, m in enumerate(field.modulus):
            poly[top - e + i] = (poly[top - e + i] - c * m) % field.p
    return poly[:e]


@cache
def naive_add(field, a, b):
    return _code(field, [(x + y) % field.p for x, y in zip(_coeffs(field, a), _coeffs(field, b))])


@cache
def naive_mul(field, a, b):
    product = oracle_poly_mul(_coeffs(field, a), _coeffs(field, b), field.p)
    return _code(field, _reduce(field, product))


def naive_dot(field, u, v):
    assert len(u) == len(v)
    acc = 0
    for x, y in zip(u, v):
        acc = naive_add(field, acc, naive_mul(field, x, y))
    return acc


def naive_scale(field, s, v):
    return tuple(naive_mul(field, s, c) for c in v)


def nonzero_vectors(q, d):
    """All q^d - 1 nonzero vectors, coordinate 1 varying fastest."""
    out = []
    for code in range(1, q**d):
        v = []
        for _ in range(d):
            v.append(code % q)
            code //= q
        out.append(tuple(v))
    return out


def _to_codes(field, digits):
    return digits @ field.p ** np.arange(field.e, dtype=np.int64)


def matrix_add(field, a, b):
    """a + b for code arrays a, b (broadcast), digit-wise mod p."""
    digits = element_digits(field)
    return _to_codes(field, (digits[a] + digits[b]) % field.p)


def matrix_mul(field, a, b):
    """a * b for code arrays a, b (broadcast): multiplication_matrices[a]
    applied to the digits of b, mod p."""
    mats = multiplication_matrices(field)[a]
    digits = element_digits(field)[b]
    return _to_codes(field, np.einsum("...ij,...j->...i", mats, digits) % field.p)


def axiom_failures(field):
    """Names of the field axioms that matrix_add and matrix_mul break,
    checked on all q^3 triples; every nonzero row of the product table
    must hold exactly one 1 (a unique inverse)."""
    x = np.arange(field.q)
    add = matrix_add(field, x[:, None], x[None, :])
    mul = matrix_mul(field, x[:, None], x[None, :])
    a = x[:, None, None]
    checks = {
        "add-identity": (add[0] == x).all(),
        "mul-identity": (mul[1] == x).all(),
        "add-commutative": (add == add.T).all(),
        "mul-commutative": (mul == mul.T).all(),
        "add-inverse": ((add == 0).sum(axis=1) == 1).all(),
        "mul-inverse": ((mul[1:] == 1).sum(axis=1) == 1).all(),
        "add-associative": (add[add] == add[a, add]).all(),
        "mul-associative": (mul[mul] == mul[a, mul]).all(),
        "distributive": (mul[a, add] == add[mul[:, :, None], mul[:, None, :]]).all(),
    }
    return [name for name, ok in checks.items() if not ok]
