"""Dense univariate polynomial arithmetic over an abstract finite scalar domain.

Polynomials are tuples of scalar codes, little-endian by degree, with no
trailing zeros; the empty tuple is the zero polynomial.  The scalar domain is
any object exposing ``order`` and code-level ``add/sub/mul/neg/inv`` (codes are
ints in ``range(order)``, 0 is the additive and 1 the multiplicative
identity).  This is the workhorse behind modulus selection and the divisor
lattices of x^n - 1.

Irreducibility tests and factoring are trial division by the monic
polynomials of degree 1, 2, ... in turn; a monic divisor of least degree is
irreducible, so ``factor`` needs no irreducibility test.
"""

from itertools import product, zip_longest

from .errors import DivisionByZero

ZERO = ()


def trim(coeffs):
    coeffs = tuple(coeffs)
    end = len(coeffs)
    while end and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


def degree(f):
    """Degree of f, with the zero polynomial mapped to -1 (internal use only)."""
    return len(f) - 1


def add(ar, f, g):
    return trim(ar.add(a, b) for a, b in zip_longest(f, g, fillvalue=0))


def sub(ar, f, g):
    return trim(ar.sub(a, b) for a, b in zip_longest(f, g, fillvalue=0))


def scale(ar, c, f):
    if c == 0:
        return ZERO
    return trim(ar.mul(c, a) for a in f)


def mul(ar, f, g):
    if not f or not g:
        return ZERO
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            if b:
                out[i + j] = ar.add(out[i + j], ar.mul(a, b))
    return trim(out)


def divmod_poly(ar, f, g):
    if not g:
        raise DivisionByZero("polynomial division by zero")
    f = list(f)
    dg = degree(g)
    inv_lead = ar.inv(g[-1])
    quo = [0] * max(len(f) - dg, 0)
    while len(trim(f)) - 1 >= dg:
        f = list(trim(f))
        df = len(f) - 1
        c = ar.mul(f[-1], inv_lead)
        quo[df - dg] = c
        for i, b in enumerate(g):
            f[df - dg + i] = ar.sub(f[df - dg + i], ar.mul(c, b))
    return trim(quo), trim(f)


def mod(ar, f, g):
    return divmod_poly(ar, f, g)[1]


def monic(ar, f):
    if not f:
        return ZERO
    return scale(ar, ar.inv(f[-1]), f)


def gcd(ar, f, g):
    """Monic gcd via Euclid."""
    f, g = trim(f), trim(g)
    while g:
        f, g = g, mod(ar, f, g)
    return monic(ar, f)


def divides(ar, f, g):
    """True when f divides g."""
    if not f:
        return not g
    return not mod(ar, g, f)


def _monic_polys(ar, d):
    """All monic polynomials of degree exactly d, lexicographic by low coeffs."""
    for low in product(range(ar.order), repeat=d):
        yield low + (1,)


def is_irreducible(ar, f):
    """True when deg f > 0 and no monic polynomial of degree <= deg f / 2 divides f."""
    f = trim(f)
    return degree(f) > 0 and not any(divides(ar, g, f) for d in range(1, degree(f) // 2 + 1)
                                     for g in _monic_polys(ar, d))


def first_irreducible(ar, d):
    """Lexicographically-least monic irreducible of degree d (by low coefficients)."""
    for f in _monic_polys(ar, d):
        if is_irreducible(ar, f):
            return f
    raise RuntimeError(f"no irreducible of degree {d} found")  # unreachable for finite fields


def x_pow_n_minus_one(ar, n):
    return trim((ar.neg(1),) + (0,) * (n - 1) + (1,))


def factor(ar, f):
    """The monic irreducible factors of f with their multiplicities: each
    monic divisor of degree d = 1, 2, ... while 2d <= deg f is taken out as
    often as it divides, and what is left of degree > 0 is irreducible."""
    f = monic(ar, f)
    factors = []
    d = 1
    while 2 * d <= degree(f):
        for g in _monic_polys(ar, d):
            mult = 0
            while divides(ar, g, f):
                f = divmod_poly(ar, f, g)[0]
                mult += 1
            if mult:
                factors.append((g, mult))
        d += 1
    if degree(f) > 0:
        factors.append((f, 1))
    return factors


def monic_divisors(ar, f):
    """All monic divisors of f, deterministic order."""
    factors = factor(ar, f)
    divs = [(1,)]
    for g, mult in factors:
        powers = [(1,)]
        for _ in range(mult):
            powers.append(mul(ar, powers[-1], g))
        divs = [mul(ar, d, p) for d in divs for p in powers]
    divs.sort(key=lambda d: (degree(d), d))
    return divs
