"""Univariate helper layer: Euclid, irreducibility, divisor lattices."""

import random

import pytest

from lastfall import univar
from lastfall.gf import FieldOps
from oracles import NotCoprime, bezout_pair, eval_at


def test_divmod_identity_over_prime():
    ar = FieldOps.prime(5)
    rng = random.Random(1)
    for _ in range(50):
        f = univar.trim(tuple(rng.randrange(5) for _ in range(5)))
        g = univar.trim(tuple(rng.randrange(5) for _ in range(3)))
        if not g:
            continue
        q, r = univar.divmod_poly(ar, f, g)
        assert univar.add(ar, univar.mul(ar, q, g), r) == f
        assert univar.degree(r) < univar.degree(g)


def test_ext_gcd_certificate_over_extension(gf9):
    ar = gf9.k
    rng = random.Random(2)
    for _ in range(40):
        f = univar.trim(tuple(rng.randrange(9) for _ in range(4)))
        g = univar.trim(tuple(rng.randrange(9) for _ in range(3)))
        d, u, v = univar.ext_gcd(ar, f, g)
        lhs = univar.add(ar, univar.mul(ar, u, f), univar.mul(ar, v, g))
        assert lhs == d
        if f and g:
            assert univar.divides(ar, d, f) and univar.divides(ar, d, g)


def test_bezout_pair_requires_coprime():
    ar = FieldOps.prime(2)
    with pytest.raises(NotCoprime):
        bezout_pair(ar, (0, 1), (0, 0, 1))


def test_first_irreducible_choices():
    assert univar.first_irreducible(FieldOps.prime(2), 2) == (1, 1, 1)
    assert univar.first_irreducible(FieldOps.prime(3), 2) == (1, 0, 1)
    # irreducible by definition: no roots and no proper factors
    f = univar.first_irreducible(FieldOps.prime(2), 4)
    assert univar.degree(f) == 4 and univar.is_irreducible(FieldOps.prime(2), f)


def test_monic_divisor_lattice():
    ar = FieldOps.prime(2)
    xn1 = univar.x_pow_n_minus_one(ar, 4)  # (x+1)^4 over GF(2)
    divs = univar.monic_divisors(ar, xn1)
    assert len(divs) == 5
    assert all(univar.divides(ar, d, xn1) for d in divs)

    ar3 = FieldOps.prime(3)
    x31 = univar.x_pow_n_minus_one(ar3, 3)  # (x-1)^3 over GF(3)
    assert len(univar.monic_divisors(ar3, x31)) == 4


def test_eval_and_gcd(gf4):
    ar = gf4.k
    f = (gf4.gen(), 1)  # x + t
    assert eval_at(ar, f, gf4.gen()) == 0
    g = univar.mul(ar, f, (1, 1))
    assert univar.gcd(ar, g, f) == univar.monic(ar, f)
