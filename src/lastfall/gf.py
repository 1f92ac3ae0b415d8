"""Finite field tower GF(p) < GF(q) < GF(q^n) with table-backed arithmetic.

Elements are integer codes.  A code of the top field k = GF(q^n) is read in
base q: digit j is the code of the coordinate of t^j in the polynomial basis
1, t, ..., t^{n-1} over the middle field k' = GF(q).  A k'-code is read in
base p the same way.  Under this encoding the codes 0..q-1 are exactly the
elements of k' sitting inside k, so subfield membership is a comparison.

Addition/multiplication tables are built eagerly at construction (orders here
are tiny); the Frobenius x -> x^q is also materialised as an n x n matrix over
k' acting on coordinate vectors, with plain exponentiation kept as an
independent cross-check path.
"""

import json

import numpy as np

from . import univar
from .errors import DivisionByZero, NonPrimeCharacteristic, NotABasis, ReducibleModulus

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


class ModArith:
    """GF(p) scalar arithmetic on codes 0..p-1."""

    def __init__(self, p):
        self.order = p

    def add(self, a, b):
        return (a + b) % self.order

    def sub(self, a, b):
        return (a - b) % self.order

    def mul(self, a, b):
        return (a * b) % self.order

    def neg(self, a):
        return (-a) % self.order

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return pow(a, self.order - 2, self.order)


class TableArith:
    """Scalar arithmetic backed by precomputed tables."""

    def __init__(self, order, add_t, mul_t, neg_t, inv_t):
        self.order = order
        self._add = add_t
        self._mul = mul_t
        self._neg = neg_t
        self._inv = inv_t

    def add(self, a, b):
        return int(self._add[a, b])

    def sub(self, a, b):
        return int(self._add[a, self._neg[b]])

    def mul(self, a, b):
        return int(self._mul[a, b])

    def neg(self, a):
        return int(self._neg[a])

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return int(self._inv[a])


def _build_extension_tables(base, modulus):
    """Tables for base[t]/(modulus); codes are base-`base.order` digit strings."""
    b = base.order
    deg = univar.degree(modulus)
    order = b ** deg

    def to_poly(code):
        digits = []
        for _ in range(deg):
            digits.append(code % b)
            code //= b
        return univar.trim(digits)

    def to_code(poly):
        code = 0
        for j, c in enumerate(poly):
            code += c * b**j
        return code

    add_t = np.zeros((order, order), dtype=np.int16)
    mul_t = np.zeros((order, order), dtype=np.int16)
    neg_t = np.zeros(order, dtype=np.int16)
    inv_t = np.zeros(order, dtype=np.int16)
    polys = [to_poly(c) for c in range(order)]
    for a in range(order):
        neg_t[a] = to_code(univar.scale(base, base.neg(1), polys[a]))
        for bb in range(a, order):
            s = to_code(univar.add(base, polys[a], polys[bb]))
            add_t[a, bb] = s
            add_t[bb, a] = s
            m = to_code(univar.mod(base, univar.mul(base, polys[a], polys[bb]), modulus))
            mul_t[a, bb] = m
            mul_t[bb, a] = m
    for a in range(1, order):
        row = mul_t[a]
        inv_t[a] = int(np.nonzero(row == 1)[0][0])
    return order, add_t, mul_t, neg_t, inv_t


class FieldSpec:
    """The tower GF(p) < k' = GF(p^e) < k = GF(q^n), fully tabled.

    Not constructed directly in normal use; see :func:`make_field`.
    """

    def __init__(self, p, e, n, m1, m2):
        if not _is_prime(p):
            raise NonPrimeCharacteristic(f"p = {p} is not prime")
        self.p = p
        self.e = e
        self.n = n
        self.m1 = univar.trim(m1)
        base = ModArith(p)
        if univar.degree(self.m1) != e:
            raise ValueError(f"m1 must have degree {e}")
        if e > 1 and not univar.is_irreducible(base, self.m1):
            raise ReducibleModulus("m1", self.m1)
        self.q = p**e
        if self.q**n > MAX_ORDER:
            raise ValueError(f"field order {self.q**n} exceeds supported bound {MAX_ORDER}")

        # middle field k'
        if e == 1:
            qa = p
            add_t = np.add.outer(np.arange(p), np.arange(p)) % p
            mul_t = np.multiply.outer(np.arange(p), np.arange(p)) % p
            neg_t = (-np.arange(p)) % p
            inv_t = np.array([0] + [pow(a, p - 2, p) for a in range(1, p)])
            self.kprime = TableArith(
                p, add_t.astype(np.int16), mul_t.astype(np.int16),
                neg_t.astype(np.int16), inv_t.astype(np.int16))
        else:
            qa, add_t, mul_t, neg_t, inv_t = _build_extension_tables(base, self.m1)
            self.kprime = TableArith(qa, add_t, mul_t, neg_t, inv_t)
        assert qa == self.q

        # top field k
        self.m2 = univar.trim(m2)
        if univar.degree(self.m2) != n:
            raise ValueError(f"m2 must have degree {n}")
        if any(c >= self.q for c in self.m2):
            raise ValueError("m2 coefficients must be k' codes")
        if n > 1 and not univar.is_irreducible(self.kprime, self.m2):
            raise ReducibleModulus("m2", self.m2)
        order, add_t, mul_t, neg_t, inv_t = _build_extension_tables(self.kprime, self.m2)
        self.order = order
        self.add_table = add_t
        self.mul_table = mul_t
        self.neg_table = neg_t
        self.inv_table = inv_t
        self.k = TableArith(order, add_t, mul_t, neg_t, inv_t)

        # Frobenius x -> x^{q^i} as permutation tables, and the n x n matrix of
        # x -> x^q on k'-coordinate vectors (columns are coords of (t^j)^q).
        frob1 = np.array([self.pow(a, self.q) for a in range(order)], dtype=np.int16)
        self.frob_tables = [np.arange(order, dtype=np.int16)]
        for _ in range(1, n):
            self.frob_tables.append(frob1[self.frob_tables[-1]])
        self.frob_matrix = tuple(
            tuple(int(self.coords(int(frob1[self.q**j]))[i]) for j in range(n))
            for i in range(n)
        )

    # -- code-level scalar ops -------------------------------------------------

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
            raise DivisionByZero("inverse of zero in k")
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

    def frob(self, a, i=1):
        """a^{q^i} (periodic in i with period n on k)."""
        return int(self.frob_tables[i % self.n][a])

    def frob_by_matrix(self, a):
        """a^q computed through the coordinate matrix; cross-check path."""
        co = self.coords(a)
        out = []
        for i in range(self.n):
            acc = 0
            for j in range(self.n):
                acc = self.kprime.add(acc, self.kprime.mul(self.frob_matrix[i][j], co[j]))
            out.append(acc)
        return self.from_coords(out)

    # -- coordinates -----------------------------------------------------------

    def coords(self, a):
        """k'-coordinates of a in the basis 1, t, ..., t^{n-1}."""
        digits = []
        for _ in range(self.n):
            digits.append(a % self.q)
            a //= self.q
        return tuple(digits)

    def from_coords(self, digits):
        code = 0
        for j, c in enumerate(digits):
            if not 0 <= c < self.q:
                raise ValueError(f"coordinate {c} is not a k' code")
            code += c * self.q**j
        return code

    def lies_in_subfield(self, a):
        return 0 <= a < self.q

    def gen(self):
        """Code of t, the polynomial generator of k over k' (equals q)."""
        return self.q if self.n > 1 else 1

    def elements(self):
        return range(self.order)

    def element(self, value):
        return FieldElement(self, value)

    # -- serialization ---------------------------------------------------------

    def to_json(self):
        return {"p": self.p, "e": self.e, "n": self.n,
                "m1": list(self.m1), "m2": list(self.m2)}

    @classmethod
    def from_json(cls, obj):
        return make_field(obj["p"], obj["e"], obj["n"],
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
    """Construct the tower; omitted moduli default to the lexicographically
    least monic irreducible of the right degree (low coefficients compared
    first), so repeated runs agree."""
    if not _is_prime(p):
        raise NonPrimeCharacteristic(f"p = {p} is not prime")
    base = ModArith(p)
    if m1 is None:
        m1 = univar.first_irreducible(base, e) if e > 1 else (0, 1)
    m1 = univar.trim(m1)
    if univar.degree(m1) != e:
        raise ValueError(f"m1 must have degree {e}")
    if e > 1 and not univar.is_irreducible(base, m1):
        raise ReducibleModulus("m1", m1)

    if m2 is None:
        if n == 1:
            m2 = (0, 1)
        else:
            # need k' arithmetic to search; build it once here
            if e == 1:
                kp = base
            else:
                _, a_t, mu_t, ne_t, in_t = _build_extension_tables(base, m1)
                kp = TableArith(p**e, a_t, mu_t, ne_t, in_t)
            m2 = univar.first_irreducible(kp, n)
    return FieldSpec(p, e, n, m1, m2)


class FieldElement:
    """A value of k (or its subfield k'), a thin wrapper over an integer code."""

    __slots__ = ("field", "code")

    def __init__(self, field, code):
        if not 0 <= code < field.order:
            raise ValueError(f"code {code} out of range for {field!r}")
        self.field = field
        self.code = code

    @property
    def coeffs(self):
        """Tower coordinates: n-tuple over k', each itself an e-tuple over GF(p)."""
        f = self.field
        out = []
        for c in f.coords(self.code):
            digs = []
            for _ in range(f.e):
                digs.append(c % f.p)
                c //= f.p
            out.append(tuple(digs))
        return tuple(out)

    def in_subfield(self):
        return self.field.lies_in_subfield(self.code)

    def _check(self, other):
        if not isinstance(other, FieldElement) or other.field != self.field:
            raise TypeError("operands from different fields")
        return other

    def __add__(self, other):
        return FieldElement(self.field, self.field.add(self.code, self._check(other).code))

    def __sub__(self, other):
        return FieldElement(self.field, self.field.sub(self.code, self._check(other).code))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.code))

    def __mul__(self, other):
        return FieldElement(self.field, self.field.mul(self.code, self._check(other).code))

    def __truediv__(self, other):
        return FieldElement(self.field, self.field.mul(self.code, self.field.inv(self._check(other).code)))

    def __pow__(self, m):
        return FieldElement(self.field, self.field.pow(self.code, m))

    def inverse(self):
        return FieldElement(self.field, self.field.inv(self.code))

    def __eq__(self, other):
        return (isinstance(other, FieldElement) and other.field == self.field
                and other.code == self.code)

    def __hash__(self):
        return hash((self.field, self.code))

    def __repr__(self):
        return f"<{self.code} in GF({self.field.q}^{self.field.n})>"


def frobenius_q(x, i=1):
    """x^{q^i}; k'-linear in x, identity for i = 0 and i = n."""
    return FieldElement(x.field, x.field.frob(x.code, i))


class FrobeniusMatrix:
    """Moore matrix of a k/k' basis: entry (i, j) is basis[j]^{q^i}."""

    def __init__(self, field, entries):
        self.field = field
        self.entries = tuple(tuple(row) for row in entries)

    def row(self, i):
        return self.entries[i]

    @property
    def n(self):
        return len(self.entries)

    def rank(self):
        f = self.field
        rows = [list(r) for r in self.entries]
        rank = 0
        ncols = len(rows[0]) if rows else 0
        for col in range(ncols):
            piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            ic = f.inv(rows[rank][col])
            rows[rank] = [f.mul(ic, v) for v in rows[rank]]
            for r in range(len(rows)):
                if r != rank and rows[r][col] != 0:
                    c = rows[r][col]
                    rows[r] = [f.sub(v, f.mul(c, w)) for v, w in zip(rows[r], rows[rank])]
            rank += 1
        return rank


def moore_matrix(basis):
    """Build the Moore matrix of `basis` (list of n FieldElements); raises
    NotABasis when the matrix is singular, which happens exactly when the
    elements are k'-linearly dependent."""
    if not basis:
        raise NotABasis("empty basis")
    field = basis[0].field
    n = field.n
    if len(basis) != n:
        raise NotABasis(f"expected {n} elements, got {len(basis)}")
    entries = [[field.frob(b.code, i) for b in basis] for i in range(n)]
    gamma = FrobeniusMatrix(field, entries)
    if gamma.rank() != n:
        raise NotABasis("Moore matrix is singular; elements are k'-dependent")
    return gamma


def field_to_json_str(field):
    return json.dumps(field.to_json(), sort_keys=True)


def field_from_json_str(s):
    return FieldSpec.from_json(json.loads(s))
