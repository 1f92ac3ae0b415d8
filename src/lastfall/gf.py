"""Finite field tower GF(p) < GF(q) < GF(q^n) with table-backed arithmetic.

Elements are integer codes.  A code of the top field k = GF(q^n) is read in
base q: digit j is the code of the coordinate of t^j in the polynomial basis
1, t, ..., t^{n-1} over the middle field k' = GF(q).  A k'-code is read in
base p the same way.  Under this encoding the codes 0..q-1 are exactly the
elements of k' sitting inside k, so subfield membership is a comparison.

All arithmetic of one tower level goes through one :class:`FieldOps` object,
``field.k`` for k and ``field.kprime`` for k'.  It serves scalar codes (for
``univar``, ``poly`` and ``linsys``) and numpy rows of codes (for ``linalg``,
``falldeg`` and ``descent``).  It has one kernel per row operation,
``vmul``, ``sub_mul`` and ``sub_combination``, and each picks its path
from facts about the field alone: codes add by XOR when p = 2, a prime
field multiplies natively modulo p, GF(9), GF(25) and GF(27) read y - c*x
from one flat table of all q^3 values, and every other product is a
gather from the 2-D tables.  The tables are built with numpy at
construction, addition digit by digit from the level below and
multiplication from the permutation "times t" of the codes.  The Frobenius
x -> x^{q^i} is a permutation table of the codes.
"""

import numpy as np

from . import univar
from .errors import (DivisionByZero, MalformedInput, NonPrimeCharacteristic,
                     ReducibleModulus, UnsupportedField, as_codes, as_int, json_value)
from .linalg import DTYPE

MAX_ORDER = 1024


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class FieldOps:
    """Arithmetic of one finite field on codes ``0..order-1``.

    Scalar methods take codes (Python or numpy integers) and return Python
    ints.  Row methods take and return numpy rows of codes; they form every
    product in int32 (sums of many products in int64), so no order up to
    ``MAX_ORDER`` overflows the int16 codes.

    An extension field of odd characteristic with q^3 <= 2^15 (GF(9), GF(25)
    and GF(27)) also keeps ``_sub3``, whose entry (c*q + x)*q + y is
    y - c*x, and the flat ``mul_table``.  Its ``sub_mul`` is then one gather
    from ``_sub3``, ``sub_combination`` one per row, and ``vmul`` one from
    the flat products, each at an index formed in int16 arithmetic, which
    is exact since q^3 - 1 fits int16.  Beyond that the table would outgrow
    int16 indices and the cache (GF(49) would need 117,649 entries and
    GF(729) 387M), so larger odd extensions compose the 2-D gathers of
    ``add_table`` and ``mul_table``.
    """

    def __init__(self, p, add_table, mul_table):
        self.p = p
        self.order = len(add_table)
        self.add_table = add_table
        self.mul_table = mul_table
        self.neg_table = (add_table == 0).argmax(axis=1).astype(DTYPE)
        self.inv_table = (mul_table == 1).argmax(axis=1).astype(DTYPE)  # 0 at 0
        self._native = self.order == p
        self._sub3 = None     # see the class docstring
        q = self.order
        if p % 2 and not self._native and q**3 <= 2**15:
            self._mul_flat = mul_table.reshape(-1)
            self._sub3 = add_table[self.neg_table[mul_table][:, :, None],
                                   np.arange(q)].reshape(-1)

    @classmethod
    def prime(cls, p):
        """GF(p), codes 0..p-1 with their integer arithmetic."""
        r = np.arange(p, dtype=np.int64)
        return cls(p, (np.add.outer(r, r) % p).astype(DTYPE),
                   (np.multiply.outer(r, r) % p).astype(DTYPE))

    def extension(self, modulus):
        """The field self[t]/(modulus) for a monic modulus of degree d >= 2.

        Its codes are base-``order`` digit strings, digit j holding the
        coefficient of t^j.  Addition is digitwise; a product a*y is the sum
        over j of a_j * (t^j * y), walking y through the permutation "times t".
        """
        b, d = self.order, univar.degree(modulus)
        places = [b**j for j in range(d)]
        codes = np.arange(b**d)
        digits = [codes // place % b for place in places]
        add_t = sum(self.add_table[dj[:, None], dj[None, :]] * place
                    for dj, place in zip(digits, places))
        # by_digit[c, y] = c * y for c in this field
        by_digit = sum(self.mul_table[:, dj] * place for dj, place in zip(digits, places))
        # t*y: digits move up one place and the top digit wraps round as
        # top * (t^d - modulus)
        low = sum(self.neg(c) * place for c, place in zip(modulus, places))
        top = digits[-1]
        times_t = add_t[(codes - top * places[-1]) * b, by_digit[top, low]]
        mul_t = np.zeros_like(add_t)
        t_pow_y = codes
        for dj in digits:
            mul_t = add_t[mul_t, by_digit[dj[:, None], t_pow_y[None, :]]]
            t_pow_y = times_t[t_pow_y]
        return FieldOps(self.p, add_t, mul_t)

    # -- scalars ---------------------------------------------------------------

    def add(self, a, b):
        return int(self.add_table[a, b])

    def sub(self, a, b):
        return int(self.add_table[a, self.neg_table[b]])

    def mul(self, a, b):
        return int(self.mul_table[a, b])

    def neg(self, a):
        return int(self.neg_table[a])

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return int(self.inv_table[a])

    def pow(self, a, m):
        if m < 0:
            a, m = self.inv(a), -m
        acc, base = 1, a
        while m:
            if m & 1:
                acc = int(self.mul_table[acc, base])
            base = int(self.mul_table[base, base])
            m >>= 1
        return acc

    # -- rows ------------------------------------------------------------------

    def vmul(self, x, y):
        """Elementwise product of codes and rows, broadcast like numpy."""
        if self.order == 2:
            return x & y
        if self._native:
            return (np.multiply(x, y, dtype=np.int32) % self.p).astype(DTYPE)
        if self._sub3 is not None:
            return self._mul_flat.take(x * self.order + y)
        return self.mul_table[x, y]

    def sub_mul(self, y, c, x):
        """y - c*x elementwise; c is a code or a column of codes."""
        if self.p == 2:  # -1 = 1, and codes add digitwise by XOR
            return y ^ self.vmul(c, x)
        if self._native:
            return ((y - np.multiply(c, x, dtype=np.int32)) % self.p).astype(DTYPE)
        if self._sub3 is not None:
            q = self.order
            return self._sub3.take((c * q + x) * q + y)
        return self.add_table[y, self.mul_table[self.neg_table[c], x]]

    def sub_combination(self, y, factors, rows):
        """y - sum_r factors[r]*rows[r]; every factor is nonzero."""
        if self.order == 2:  # every factor is 1
            return y ^ np.bitwise_xor.reduce(rows, axis=0)
        if self.p == 2:
            return y ^ np.bitwise_xor.reduce(self.mul_table[factors[:, None], rows], axis=0)
        if self._native:
            acc = factors.astype(np.int64) @ rows.astype(np.int64)
            return ((y - acc) % self.p).astype(DTYPE)
        if self._sub3 is not None:
            q = self.order
            for base in (factors[:, None] * q + rows) * q:
                y = self._sub3.take(base + y)
            return y
        for t in self.mul_table[self.neg_table[factors][:, None], rows]:
            y = self.add_table[y, t]
        return y


def _extend(base, degree, modulus, which):
    """(modulus, ops) of the field base[t]/(modulus); an omitted modulus is
    the lexicographically least monic irreducible of the degree."""
    if modulus is None:
        modulus = univar.first_irreducible(base, degree) if degree > 1 else (0, 1)
    modulus = univar.trim(as_codes(modulus, base.order, which))
    if univar.degree(modulus) != degree:
        raise MalformedInput(f"{which} = {list(modulus)} does not have degree {degree}")
    if degree == 1:  # base[t]/(t - c) is the base field itself
        return modulus, base
    if not univar.is_irreducible(base, modulus):
        raise ReducibleModulus(which, modulus)
    return modulus, base.extension(univar.monic(base, modulus))


class FieldSpec:
    """The tower GF(p) < k' = GF(p^e) < k = GF(q^n), fully tabled.

    Omitted moduli default to the lexicographically least monic irreducible
    of the right degree (low coefficients compared first), so repeated runs
    agree.  Not constructed directly in normal use; see :func:`make_field`.
    """

    def __init__(self, p, e, n, m1=None, m2=None):
        p, e, n = as_int(p, "p"), as_int(e, "e"), as_int(n, "n")
        # e*n is bounded before p**(e*n) is formed, since p >= 2
        if e < 1 or n < 1 or e * n >= MAX_ORDER.bit_length() or p**(e * n) > MAX_ORDER:
            raise UnsupportedField(f"p = {p}, e = {e}, n = {n}: supported are e >= 1, "
                                   f"n >= 1 and p^(e*n) <= {MAX_ORDER}")
        if not _is_prime(p):
            raise NonPrimeCharacteristic(f"p = {p} is not prime")
        self.p = p
        self.e = e
        self.n = n
        self.q = p**e
        self.m1, self.kprime = _extend(FieldOps.prime(p), e, m1, "m1")
        self.m2, self.k = _extend(self.kprime, n, m2, "m2")
        k = self.k
        self.order = k.order
        self.add, self.sub, self.mul = k.add, k.sub, k.mul
        self.neg, self.inv, self.pow = k.neg, k.inv, k.pow

        # Frobenius x -> x^{q^i} as permutation tables
        frob1 = np.array([self.pow(a, self.q) for a in range(self.order)], dtype=DTYPE)
        self.frob_tables = [np.arange(self.order, dtype=DTYPE)]
        for _ in range(1, n):
            self.frob_tables.append(frob1[self.frob_tables[-1]])

    def frob(self, a, i=1):
        """a^{q^i} (periodic in i with period n on k)."""
        return int(self.frob_tables[i % self.n][a])

    # -- coordinates -----------------------------------------------------------

    def coords(self, a):
        """k'-coordinates of a in the basis 1, t, ..., t^{n-1}."""
        digits = []
        for _ in range(self.n):
            digits.append(a % self.q)
            a //= self.q
        return tuple(digits)

    def from_coords(self, digits):
        """Code of the element with k'-coordinates `digits`: n codes of k'
        (see :func:`errors.as_codes`)."""
        return sum(c * self.q**j
                   for j, c in enumerate(as_codes(digits, self.q, "k' coordinates", self.n)))

    def lies_in_subfield(self, a):
        return 0 <= a < self.q

    def gen(self):
        """Code of t, the polynomial generator of k over k' (equals q)."""
        return self.q if self.n > 1 else 1

    def elements(self):
        return range(self.order)

    # -- serialization ---------------------------------------------------------

    def to_json(self):
        return {"p": self.p, "e": self.e, "n": self.n,
                "m1": list(self.m1), "m2": list(self.m2)}

    @classmethod
    def from_json(cls, obj):
        """The field of a JSON object with the keys p and n, and e (1 when
        omitted), m1 and m2 (the default moduli when omitted)."""
        return make_field(json_value(obj, "p"), obj.get("e", 1), json_value(obj, "n"),
                          m1=obj.get("m1"), m2=obj.get("m2"))

    def __repr__(self):
        return f"FieldSpec(p={self.p}, e={self.e}, n={self.n})"

    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and (self.p, self.e, self.n, self.m1, self.m2)
                == (other.p, other.e, other.n, other.m1, other.m2))

    def __hash__(self):
        return hash((self.p, self.e, self.n, self.m1, self.m2))


def make_field(p, e, n, m1=None, m2=None):
    """Construct the tower GF(p) < GF(p^e) < GF(p^(e*n)); see :class:`FieldSpec`
    for the default moduli.  Shapes outside e >= 1, n >= 1 and order <=
    ``MAX_ORDER`` raise :class:`UnsupportedField` before any work is done; a
    p, e or n that is not an integer, or a modulus that is not a list of
    codes of its base field of the right degree, raises
    :class:`MalformedInput` (see :func:`errors.as_int`)."""
    return FieldSpec(p, e, n, m1=m1, m2=m2)
