"""Univariate helper layer: Euclid, irreducibility, divisor lattices."""

import functools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lastfall import make_field, univar
from lastfall.gf import FieldOps, _is_prime
from oracles import (NotCoprime, brute_force_first_irreducible, brute_force_monic_divisors,
                     bezout_pair, eval_at)


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


# every supported (p, e, n) with e n >= 2, so p <= 31: 64 shapes
_SHAPES = [(p, e, k // e) for p in range(2, 32) if _is_prime(p) for k in range(2, 11)
           if p**k <= 1024 for e in range(1, k + 1) if k % e == 0]


@functools.lru_cache(maxsize=None)
def _kprime(p, e):
    """GF(p^e) as the subfield level of a tower, the default modulus m1."""
    return make_field(p, e, 1).kprime


def assert_factor_matches_brute_force(ar, f):
    """`monic_divisors` is the brute-force divisor list, and `factor` gives
    distinct irreducible factors whose powers multiply to monic f."""
    assert univar.monic_divisors(ar, f) == brute_force_monic_divisors(ar, f)
    factors = univar.factor(ar, f)
    product_ = (1,)
    for g, mult in factors:
        assert mult >= 1 and brute_force_monic_divisors(ar, g) == [(1,), g]
        for _ in range(mult):
            product_ = univar.mul(ar, product_, g)
    assert product_ == univar.monic(ar, f)
    assert len({g for g, _ in factors}) == len(factors)


@pytest.mark.parametrize("p,e,n", _SHAPES)
def test_divisors_of_xn_minus_one_match_brute_force(p, e, n):
    """The f_W candidates of every supported field: x^n - 1 over k'."""
    ar = _kprime(p, e)
    assert_factor_matches_brute_force(ar, univar.x_pow_n_minus_one(ar, n))


@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1)]),
       st.lists(st.integers(0, 59), min_size=1, max_size=7))
def test_factor_matches_brute_force_on_random_polys(pe, codes):
    """Random f of degree <= 6 over GF(2), GF(3), GF(4) and GF(5); 60 is a
    multiple of each order, so the codes are uniform."""
    ar = _kprime(*pe)
    f = univar.trim(c % ar.order for c in codes)
    if f:
        assert_factor_matches_brute_force(ar, f)


# every base GF(q), q = p^e <= 32, and degree d >= 2 with q^d <= 1024
_IRREDUCIBLE_CASES = [(p, e, d) for p in range(2, 32) if _is_prime(p) for e in range(1, 6)
                      if p**e <= 32 for d in range(2, 11) if p**(e * d) <= 1024]


@pytest.mark.parametrize("p,e,d", _IRREDUCIBLE_CASES)
def test_first_irreducible_matches_brute_force(p, e, d):
    ar = _kprime(p, e)
    assert univar.first_irreducible(ar, d) == brute_force_first_irreducible(ar, d)

