"""Independent oracles and generators shared by the test modules.

The naive closure here deliberately avoids the production engine's echelon
bookkeeping: it multiplies whole polynomial lists breadth-first and measures
dimensions with its own one-shot elimination.
"""

import numpy as np

from lastfall import univar
from lastfall.errors import DivisionByZero
from lastfall.poly import MultiPoly, PolySystem, monomials_up_to
from lastfall.poly import grevlex_key


def local_rank(rows, field):
    """Plain Gaussian elimination over field codes, leftmost pivots."""
    if not rows:
        return 0
    mat = [list(r) for r in rows]
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(mat)):
            if mat[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = field.inv(mat[rank][col])
        mat[rank] = [field.mul(inv, x) for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                c = mat[r][col]
                mat[r] = [field.sub(x, field.mul(c, y))
                          for x, y in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def local_reduced_rows(polys, field, coeff_order=None):
    """From-scratch elimination under a degree-compatible column order,
    returning the nonzero reduced rows as polynomials.

    Uses plain modular numpy arithmetic when the coefficient domain is a
    prime field, a scalar loop through the field ops otherwise; either way
    this shares no code with the production span engine.
    """
    polys = [f for f in polys if not f.is_zero()]
    if not polys:
        return []
    ring = polys[0].ring
    p = coeff_order if coeff_order is not None else ring.coeff_order
    prime_path = all(p % d for d in range(2, p))  # p prime
    monos = sorted({e for f in polys for e in f.terms},
                   key=grevlex_key, reverse=True)  # largest monomial first
    idx = {e: i for i, e in enumerate(monos)}
    mat = np.zeros((len(polys), len(monos)), dtype=np.int64)
    for r, f in enumerate(polys):
        for e, c in f.terms.items():
            mat[r, idx[e]] = c
    ncols = len(monos)
    rank = 0
    for col in range(ncols):
        sub = mat[rank:, col]
        nz = np.nonzero(sub)[0]
        if len(nz) == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            mat[[rank, piv]] = mat[[piv, rank]]
        c = int(mat[rank, col])
        if prime_path:
            if c != 1:
                mat[rank] = (mat[rank] * pow(c, p - 2, p)) % p
            colvals = mat[:, col].copy()
            colvals[rank] = 0
            hit = np.nonzero(colvals)[0]
            if len(hit):
                mat[hit] = (mat[hit] + (p - colvals[hit])[:, None] * mat[rank]) % p
        else:
            if c != 1:
                ic = field.inv(c)
                mat[rank] = [field.mul(ic, int(x)) for x in mat[rank]]
            for r in range(len(mat)):
                v = int(mat[r, col])
                if r != rank and v != 0:
                    mat[r] = [field.sub(int(x), field.mul(v, int(y)))
                              for x, y in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    out = []
    for r in range(rank):
        terms = {monos[i]: int(c) for i, c in enumerate(mat[r]) if c}
        if terms:
            out.append(MultiPoly(ring, terms))
    return out


def naive_closure_dim(system, cap):
    """Breadth-first span closure, independent of the production engine.

    Each round recomputes a reduced basis of the current span from scratch
    (so low-degree combinations become explicit basis elements) and then
    multiplies every basis polynomial by every variable, keeping products
    within the degree cap; stops when the dimension stabilises.
    """
    ring = system.ring
    field = ring.field
    current = [f for f in system.polys if not f.is_zero() and f.degree <= cap]
    basis = local_reduced_rows(current, field)
    dim = len(basis)
    while True:
        fresh = list(basis)
        for f in basis:
            for v in range(ring.nvars):
                g = f * ring.variable(v)
                if not g.is_zero() and g.degree <= cap:
                    fresh.append(g)
        basis = local_reduced_rows(fresh, field)
        if len(basis) == dim:
            return dim
        dim = len(basis)


def random_system(ring, degree, count, rng):
    monos = monomials_up_to(ring.nvars, degree)
    polys = []
    for _ in range(count):
        while True:
            f = ring.from_terms((e, rng.randrange(ring.coeff_order)) for e in monos)
            if not f.is_zero():
                break
        polys.append(f)
    return PolySystem(ring, polys)


def random_invertible_matrix(field, size, rng):
    """Random invertible matrix over the (top) field, by rejection."""
    while True:
        mat = [[rng.randrange(field.order) for _ in range(size)] for _ in range(size)]
        if local_rank(mat, field) == size:
            return mat


def recombine(system, mat):
    """Apply an invertible matrix to the generator list."""
    field = system.ring.field
    out = []
    for row in mat:
        acc = system.ring.zero()
        for c, f in zip(row, system.polys):
            if c:
                acc = acc + f.scale(c)
        out.append(acc)
    return PolySystem(system.ring, out)


def zero_points(system, order=None):
    """Exhaustive zero set of a system over its coefficient domain, point by
    point with MultiPoly.eval, in itertools.product order."""
    from itertools import product

    ring = system.ring
    order = order if order is not None else ring.coeff_order
    polys = system.nonzero()
    return [pt for pt in product(range(order), repeat=ring.nvars)
            if all(f.eval(pt) == 0 for f in polys)]


def count_zeros(system, order=None):
    """Exhaustive point count of a system over its coefficient domain."""
    return len(zero_points(system, order))


# -- reference field tables ----------------------------------------------------
#
# The O(order^2) polynomial-arithmetic table builder that the library used
# before its tables were built with numpy, kept as the reference they must
# equal.


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


def reference_tables(field):
    """Tables of both tower levels of `field` from its moduli, built by the
    reference builder: {"kprime": (add, mul, neg, inv), "k": (add, mul, neg,
    inv), "frob": [x -> x^(q^i) for i < n]}."""
    base = ModArith(field.p)
    if field.e == 1:
        r = np.arange(field.p)
        kprime = (np.add.outer(r, r) % field.p, np.multiply.outer(r, r) % field.p,
                  -r % field.p, np.array([0] + [pow(int(a), field.p - 2, field.p)
                                                for a in r[1:]]))
    else:
        kprime = _build_extension_tables(base, field.m1)[1:]
    _, add_t, mul_t, neg_t, inv_t = _build_extension_tables(
        TableArith(field.q, *kprime), field.m2)
    frob = [np.arange(len(add_t))]
    for _ in range(1, field.n):
        step = []
        for x in frob[-1]:
            y = 1
            for _ in range(field.q):
                y = int(mul_t[y, x])
            step.append(y)
        frob.append(np.array(step))
    return {"kprime": kprime, "k": (add_t, mul_t, neg_t, inv_t), "frob": frob}
