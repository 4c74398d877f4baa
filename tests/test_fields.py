"""Field construction and the library's digit and matrix arithmetic,
against independent naive oracles."""

import numpy as np
import pytest
from field_oracle import (
    axiom_failures,
    matrix_add,
    matrix_mul,
    naive_add,
    naive_mul,
    oracle_poly_mul,
)

from orthocount.errors import BoundExceededError
from orthocount.fields import field_from_order, is_prime, make_field

# ---------------------------------------------------------------------------
# independent modulus oracle (deliberately naive, no shared code paths)
# ---------------------------------------------------------------------------


def oracle_trim(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def oracle_is_irreducible(coeffs, p):
    """Degree-e monic poly irreducible iff it is not a product of two
    monic polys of degrees >= 1.  Brute force over all factor pairs."""
    e = len(coeffs) - 1
    if e == 1:
        return True
    all_monic = {}
    for deg in range(1, e):
        polys = []
        for code in range(p**deg):
            c, digs = code, []
            for _ in range(deg):
                digs.append(c % p)
                c //= p
            polys.append(digs + [1])
        all_monic[deg] = polys
    for da in range(1, e // 2 + 1):
        for fa in all_monic[da]:
            for fb in all_monic[e - da]:
                if oracle_poly_mul(fa, fb, p) == list(coeffs):
                    return False
    return True


def oracle_minimal_irreducible(p, e):
    for code in range(p**e):
        c, digs = code, []
        for _ in range(e):
            digs.append(c % p)
            c //= p
        coeffs = digs + [1]
        if oracle_is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise AssertionError("no irreducible found")


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_gf4_modulus_matches_exhaustive_oracle():
    assert make_field(2, 2).modulus == oracle_minimal_irreducible(2, 2) == (1, 1, 1)


def test_gf9_modulus_matches_exhaustive_oracle():
    assert make_field(3, 2).modulus == oracle_minimal_irreducible(3, 2) == (1, 0, 1)


@pytest.mark.parametrize("p,e", [(2, 3), (2, 4), (2, 5), (3, 3), (5, 2), (7, 2)])
def test_modulus_matches_oracle(p, e):
    assert make_field(p, e).modulus == oracle_minimal_irreducible(p, e)


def test_prime_field_needs_no_machinery():
    f = make_field(3, 1)
    assert f.q == 3 and f.e == 1


def test_make_field_is_deterministic():
    assert make_field(2, 8) == make_field(2, 8)
    assert make_field(3, 4).modulus == make_field(3, 4).modulus


def test_make_field_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_field(4, 2)
    with pytest.raises(ValueError):
        make_field(9, 1)
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(BoundExceededError):
        make_field(2, 21)
    make_field(2, 21, max_order=1 << 21)  # raised bound admits it


def test_field_from_order():
    assert field_from_order(49) == make_field(7, 2)
    assert field_from_order(8) == make_field(2, 3)
    assert field_from_order(11) == make_field(11, 1)
    with pytest.raises(ValueError):
        field_from_order(12)
    with pytest.raises(ValueError):
        field_from_order(1)


def test_spec_string_format():
    assert make_field(2, 2).spec_string() == "GF(2^2; modulus=1,1,1)"
    assert make_field(5, 1).spec_string() == "GF(5^1; modulus=0,1)"


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


# ---------------------------------------------------------------------------
# arithmetic examples
# ---------------------------------------------------------------------------


def test_arithmetic_examples():
    # (field, a, b, a*b); inverses show as products equal to 1
    examples = [
        ((3, 1), 2, 2, 1),
        ((5, 1), 2, 3, 1),
        ((7, 1), 3, 5, 1),
        # with modulus t^2+t+1: t*t = t+1, so code 2 squared is code 3
        ((2, 2), 2, 2, 3),
        ((2, 2), 2, 3, 1),
    ]
    for (p, e), a, b, product in examples:
        f = make_field(p, e)
        assert int(matrix_mul(f, a, b)) == naive_mul(f, a, b) == product
    gf3 = make_field(3, 1)
    assert int(matrix_add(gf3, 1, 2)) == naive_add(gf3, 1, 2) == 0


# ---------------------------------------------------------------------------
# axioms of the digit and matrix arithmetic, exhaustive for q <= 64
# ---------------------------------------------------------------------------

AXIOM_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (2, 4), (2, 6)]


@pytest.mark.parametrize("p,e", AXIOM_FIELDS)
def test_field_axioms_exhaustive(p, e):
    assert axiom_failures(make_field(p, e)) == []


@pytest.mark.parametrize("p,e", AXIOM_FIELDS)
def test_multiplicative_group_order(p, e):
    f = make_field(p, e)
    units = np.arange(1, f.q)
    power = np.ones_like(units)
    for _ in range(f.q - 1):
        power = matrix_mul(f, power, units)
    assert (power == 1).all()


BIG_FIELDS = [make_field(2, 9), make_field(3, 6), make_field(5, 4)]


def test_axioms_sampled_in_large_fields():
    rng = np.random.default_rng(20240901)
    for f in BIG_FIELDS:
        a, b, c = rng.integers(0, f.q, size=(3, 2000))
        assert (matrix_add(f, a, b) == matrix_add(f, b, a)).all()
        assert (matrix_mul(f, a, b) == matrix_mul(f, b, a)).all()
        ab_c = matrix_mul(f, matrix_mul(f, a, b), c)
        assert (ab_c == matrix_mul(f, a, matrix_mul(f, b, c))).all()
        assert (
            matrix_mul(f, a, matrix_add(f, b, c))
            == matrix_add(f, matrix_mul(f, a, b), matrix_mul(f, a, c))
        ).all()
        # a unique additive inverse, and a unique inverse of each nonzero a
        row, every = a[:200, None], np.arange(f.q)[None, :]
        assert ((matrix_add(f, row, every) == 0).sum(axis=1) == 1).all()
        units = row[row != 0][:, None]
        assert ((matrix_mul(f, units, every) == 1).sum(axis=1) == 1).all()


def test_matrix_products_match_naive_mul():
    for p, e in AXIOM_FIELDS:
        f = make_field(p, e)
        every = np.arange(f.q)
        products = matrix_mul(f, every[:, None], every[None, :])
        sums = matrix_add(f, every[:, None], every[None, :])
        for a in range(f.q):
            for b in range(f.q):
                assert products[a, b] == naive_mul(f, a, b)
                assert sums[a, b] == naive_add(f, a, b)
    rng = np.random.default_rng(7)
    for f in BIG_FIELDS:
        a, b = rng.integers(0, f.q, size=(2, 300))
        expected = [naive_mul(f, x, y) for x, y in zip(a.tolist(), b.tolist())]
        assert matrix_mul(f, a, b).tolist() == expected
