"""Independent oracles and generators shared by the test modules.

The naive closure here deliberately avoids the production engine's echelon
bookkeeping: it multiplies whole polynomial lists breadth-first and measures
dimensions with its own one-shot elimination.
"""

import json
import random
from itertools import product

import numpy as np

from lastfall import linsys, univar
from lastfall.descent import field_equations, substituted_generator
from lastfall.errors import (DegreeExceedsBound, DegreeTooHigh, DivisionByZero, LastfallError,
                             NotABasis, NotReducible, StepBudgetExceeded)
from lastfall.falldeg import GroebnerBasis, span_closure
from lastfall.gf import FieldSpec
from lastfall.linalg import DTYPE, rref
from lastfall.linsys import (EliminationTrace, LinearizedPoly, _canonical_basis, gbar_system,
                             reducibility_check, symbolic_gcd, symbolic_rdivmod)
from lastfall.poly import (MultiPoly, PolySystem, Ring, grevlex_key, monomials_of_degree,
                           monomials_up_to)


def reference_rref(mat, ops):
    """Reduced row echelon form with leftmost pivots, column by column: the
    one-shot elimination `linalg.rref` did before it added rows to a
    `linalg.Echelon`.

    Returns (R, pivot_cols); R has the pivot rows first, zero rows dropped.
    """
    m = np.array(mat, dtype=DTYPE)
    if m.ndim != 2:
        raise ValueError("matrix expected")
    nrows, ncols = m.shape
    rank = 0
    pivots = []
    for col in range(ncols):
        sub = m[rank:, col]
        nz = np.nonzero(sub)[0]
        if len(nz) == 0:
            continue
        r = rank + int(nz[0])
        if r != rank:
            m[[rank, r]] = m[[r, rank]]
        c = int(m[rank, col])
        if c != 1:
            m[rank] = ops.vmul(ops.inv(c), m[rank])
        colvals = m[:, col].copy()
        colvals[rank] = 0
        hit = np.nonzero(colvals)[0]
        if len(hit):
            m[hit] = ops.sub_mul(m[hit], colvals[hit, None], m[rank])
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return m[:rank], pivots


def rank(mat, ops):
    if len(mat) == 0:
        return 0
    return len(rref(mat, ops)[1])


def matvec(ops, mat, x):
    """The matrix-vector product mat @ x over `ops`, as minus the
    combination of the columns of mat by the negated nonzero entries of x."""
    nz = np.flatnonzero(x)
    return ops.sub_combination(np.zeros(len(mat), dtype=DTYPE), ops.neg_table[x[nz]], mat.T[nz])


def reference_fw_matrix(fW, field):
    """The matrix of f_W(tau) over k' from the Frobenius coordinate matrix,
    one column sum_i c_i tau^i e_j at a time: the loop `subspace_from_fW`
    ran before it built the matrix from the images of the polynomial basis."""
    kp = field.kprime
    n = field.n
    tau = np.array(frob_matrix(field), dtype=DTYPE)
    cols = []
    for unit in np.eye(n, dtype=DTYPE):
        acc = np.zeros(n, dtype=DTYPE)
        for c in fW:
            acc = kp.sub_mul(acc, kp.neg(c), unit)
            unit = matvec(kp, tau, unit)
        cols.append(acc)
    return np.stack(cols, axis=1)


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
    return len(naive_closure(system, cap))


def naive_closure(system, cap):
    """A basis of the span closure at the cap, as polynomials, by a
    breadth-first closure independent of the production engine.

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
            return basis
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


def malformed_system_docs(field):
    """JSON system documents over `field` (n = 2), each missing a key or
    holding a value of the wrong type, by name."""
    good = {"field": field.to_json(), "level": "k", "vars": ["X0"],
            "polys": [[{"coeff": [1, 0], "exps": [1]}]]}
    docs = {f"no-{key}": {k: v for k, v in good.items() if k != key} for key in good}
    for name, change in (("polys-object", {"polys": {"X0": 1}}),
                         ("vars-string", {"vars": "X0"}),
                         ("vars-nested", {"vars": [["X0"]]}),
                         ("poly-not-list", {"polys": [{"coeff": [1, 0], "exps": [1]}]}),
                         ("term-list", {"polys": [[[1, 0]]]}),
                         ("no-coeff", {"polys": [[{"exps": [1]}]]}),
                         ("no-exps", {"polys": [[{"coeff": [1, 0]}]]}),
                         ("coeff-int", {"polys": [[{"coeff": 1, "exps": [1]}]]}),
                         ("exps-int", {"polys": [[{"coeff": [1, 0], "exps": 1}]]}),
                         ("field-list", {"field": [2, 1, 2]}),
                         ("kprime-top-coeff", {"level": "kprime",
                                               "polys": [[{"coeff": [0, 1], "exps": [1]}]]})):
        docs[name] = dict(good, **change)
    return docs


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


def permute_variables(system, perm):
    """The system with its variables reordered: variable i of the result is
    variable perm[i] of the system, under the same name.  The ideal is the
    same up to the renaming, but every degree block of the grevlex columns
    is reordered, so the engines take another elimination path."""
    ring = system.ring
    new = Ring(ring.field, ring.level, [ring.vars[v] for v in perm])
    return PolySystem(new, [MultiPoly(new, {tuple(e[v] for v in perm): c
                                            for e, c in f.terms.items()})
                            for f in system.polys])


# Order-sensitive checks run each system twice, by test id: "grevlex" as
# drawn, and "grlex" with its variables reversed, which reorders every degree
# block of the grevlex columns and so the elimination path.  grevlex is the
# one monomial order; the ids only keep those tests' names.
VARIABLE_ORDERS = ("grevlex", "grlex")


def in_variable_order(system, variable_order):
    """The system as drawn ("grevlex") or with its variables reversed ("grlex")."""
    if variable_order == "grevlex":
        return system
    return permute_variables(system, range(system.ring.nvars)[::-1])


def shuffled_variables(system, seed):
    """``permute_variables`` under a permutation drawn from the seed."""
    n = system.ring.nvars
    return permute_variables(system, random.Random(seed).sample(range(n), n))


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


# -- helpers with no caller in the library --------------------------------------


class NotCoprime(LastfallError):
    """gcd was expected to be 1; carries the offending gcd as witness."""

    def __init__(self, gcd_coeffs):
        self.gcd = tuple(gcd_coeffs)
        super().__init__(f"polynomials are not coprime, gcd has degree {len(self.gcd) - 1}")


def ext_gcd(ar, f, g):
    """Return (d, u, v) with u*f + v*g = d and d the monic gcd."""
    r0, r1 = univar.trim(f), univar.trim(g)
    u0, u1 = (1,), univar.ZERO
    v0, v1 = univar.ZERO, (1,)
    while r1:
        q, r = univar.divmod_poly(ar, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, univar.sub(ar, u0, univar.mul(ar, q, u1))
        v0, v1 = v1, univar.sub(ar, v0, univar.mul(ar, q, v1))
    if not r0:
        return univar.ZERO, univar.ZERO, univar.ZERO
    c = ar.inv(r0[-1])
    return univar.scale(ar, c, r0), univar.scale(ar, c, u0), univar.scale(ar, c, v0)


def bezout_pair(ar, f, g):
    """Certificate (u, v) with u*f + v*g = 1; raises NotCoprime otherwise."""
    d, u, v = ext_gcd(ar, f, g)
    if d != (1,):
        raise NotCoprime(d)
    return u, v


def brute_force_monic_divisors(ar, f):
    """Every monic divisor of a nonzero f, sorted by (degree, coefficients),
    by trying every monic g of degree <= deg f / 2: a divisor of f has that
    degree or is the cofactor f / g of one that has, so the divisors are
    those g and their cofactors.  No factoring, no irreducibility test."""
    f = univar.monic(ar, f)
    found = set()
    for d in range(univar.degree(f) // 2 + 1):
        for low in product(range(ar.order), repeat=d):
            cofactor, rem = univar.divmod_poly(ar, f, low + (1,))
            if not rem:
                found.update((low + (1,), cofactor))
    return sorted(found, key=lambda g: (len(g), g))


def brute_force_first_irreducible(ar, d):
    """The first monic polynomial of degree d, constant coefficient varying
    slowest, whose only monic divisors are 1 and itself."""
    for low in sorted(product(range(ar.order), repeat=d)):
        f = low + (1,)
        if brute_force_monic_divisors(ar, f) == [(1,), f]:
            return f
    raise AssertionError(f"no irreducible of degree {d}")


def eval_at(ar, f, x):
    acc = 0
    for c in reversed(f):
        acc = ar.add(ar.mul(acc, x), c)
    return acc


def bezout(f0, fW, field):
    """Plain extended Euclid over k[x]: (A, B) with A f0 + B fW = 1 and
    deg A < deg fW; raises NotCoprime with the gcd as witness."""
    ar = field.k
    d, u, v = ext_gcd(ar, f0, fW)
    if d != (1,):
        raise NotCoprime(d)
    if univar.degree(fW) >= 1 and univar.degree(u) >= univar.degree(fW):
        q_, u = univar.divmod_poly(ar, u, fW)
        # fold the quotient into B to keep the identity exact
        v = univar.add(ar, v, univar.mul(ar, q_, f0))
    return u, v


def compose(g, per_var, field):
    """Plain per-variable composition g(f_i(x_i)) of conventional polynomials."""
    ar = field.k
    out = []
    for fi in per_var:
        acc = univar.ZERO
        for c in reversed(univar.trim(g)):
            acc = univar.mul(ar, acc, univar.trim(fi))
            if c:
                acc = univar.add(ar, acc, (c,))
        out.append(acc)
    return out


def normal_form_field_eqs(poly, relations):
    """Reduce exponents by per-variable rules x^a -> x^b (a > b >= 1)."""
    rules = {}
    for name, (a, b) in relations.items():
        if not a > b >= 1:
            raise ValueError("relation must have a > b >= 1")
        rules[poly.ring.var_index(name)] = (a, b)
    f = poly.ring.field
    out = {}
    for e, c in poly.terms.items():
        e = list(e)
        for i, (a, b) in rules.items():
            while e[i] >= a:
                e[i] = e[i] - a + b
        e = tuple(e)
        s = f.add(out.get(e, 0), c)
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return MultiPoly(poly.ring, out)


def field_to_json_str(field):
    return json.dumps(field.to_json(), sort_keys=True)


def field_from_json_str(s):
    return FieldSpec.from_json(json.loads(s))


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


# -- reference Groebner basis --------------------------------------------------
#
# The plain Buchberger that the library used before its pair heap, heap-ordered
# normal form and Gebauer-Moeller criteria, kept as the reference whose reduced
# bases the library's must equal term for term.


def _lt_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def reference_normal_form(f, gens, budget=None, leads=None):
    ring = f.ring
    field = ring.field
    if leads is None:
        leads = [(g.leading(), g) for g in gens if not g.is_zero()]
    remainder = {}
    work = dict(f.terms)
    while work:
        e = max(work, key=grevlex_key)
        c = work.pop(e)
        hit = None
        for (le, lc), g in leads:
            if _lt_divides(le, e):
                hit = (le, lc, g)
                break
        if hit is None:
            remainder[e] = c
            continue
        le, lc, g = hit
        fac = field.mul(c, field.inv(lc))
        delta = tuple(a - b for a, b in zip(e, le))
        for ge, gc in g.terms.items():
            if ge == le:
                continue
            te = tuple(a + b for a, b in zip(ge, delta))
            s = field.sub(work.get(te, 0), field.mul(fac, gc))
            if s:
                work[te] = s
            else:
                work.pop(te, None)
        if budget is not None:
            budget[0] -= 1
            if budget[0] < 0:
                raise StepBudgetExceeded("reduction budget exhausted")
    return MultiPoly(ring, remainder)


def reference_spoly(f, g):
    ring = f.ring
    field = ring.field
    (fe, fc) = f.leading()
    (ge, gc) = g.leading()
    lcm = tuple(max(a, b) for a, b in zip(fe, ge))
    mf = ring.monomial(tuple(a - b for a, b in zip(lcm, fe)), field.inv(fc))
    mg = ring.monomial(tuple(a - b for a, b in zip(lcm, ge)), field.inv(gc))
    return mf * f - mg * g


def reference_groebner(system, step_budget=10**6):
    """Reduced Groebner basis by plain Buchberger; desk-scale inputs only.

    A step budget (counted in leading-term reductions) guards against
    runaway inputs and raises StepBudgetExceeded when spent.
    """
    ring = system.ring
    field = ring.field
    key = grevlex_key
    budget = [step_budget]
    basis = []
    for f in system.polys:
        if f.is_zero():
            continue
        _, lc = f.leading()
        basis.append(f.scale(field.inv(lc)))
    if not basis:
        return GroebnerBasis(ring, ())

    leads = [(g.leading(), g) for g in basis]
    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    while pairs:
        # deterministic normal strategy: smallest lcm degree first
        def pair_key(p):
            i, j = p
            lcm = tuple(max(a, b) for a, b in zip(leads[i][0][0], leads[j][0][0]))
            return (sum(lcm), key(lcm), i, j)

        i, j = min(pairs, key=pair_key)
        pairs.discard((i, j))
        le_i = leads[i][0][0]
        le_j = leads[j][0][0]
        if all(a == 0 or b == 0 for a, b in zip(le_i, le_j)):
            continue  # coprime leading terms, S-polynomial reduces to zero
        r = reference_normal_form(reference_spoly(basis[i], basis[j]), basis, budget, leads)
        if r.is_zero():
            continue
        _, lc = r.leading()
        g = r.scale(field.inv(lc))
        basis.append(g)
        leads.append((g.leading(), g))
        new = len(basis) - 1
        pairs.update((k, new) for k in range(new))

    # minimize by leading terms first, then tail-reduce: reducing every
    # element against all the others at once can drop mutually-reducing pairs
    minimal = []
    for g in sorted(basis, key=lambda h: key(h.leading()[0])):
        le = g.leading()[0]
        if any(_lt_divides(h.leading()[0], le) for h in minimal):
            continue
        minimal.append(g)
    final = []
    for idx, g in enumerate(minimal):
        others = [h for k, h in enumerate(minimal) if k != idx]
        r = reference_normal_form(g, others, budget)
        _, lc = r.leading()
        final.append(r.scale(field.inv(lc)))
    final.sort(key=lambda h: key(h.leading()[0]))
    return GroebnerBasis(ring, final)


# -- the paper's proof systems and span membership -------------------------------


def apply_sigma(f, i):
    """f with every coefficient raised to the q^i power; exponents untouched."""
    field = f.ring.field
    return MultiPoly(f.ring, {e: field.frob(c, i) for e, c in f.terms.items()})


def subfield_equations_k(ctx):
    """X_{ij}^q - X_{ij} for every variable of ``ctx.ring_descent_k``."""
    return tuple(field_equations(ctx.ring_descent_k, ctx.field.q))


def build_sigma_orbit_G(system, ctx):
    """All coefficient-wise conjugates of the substituted generators."""
    polys = []
    for f in system.polys:
        g = substituted_generator(f, ctx)
        for i in range(ctx.field.n):
            polys.append(apply_sigma(g, i))
    return PolySystem(ctx.ring_descent_k, polys)


def build_G1(system, ctx):
    g = build_sigma_orbit_G(system, ctx)
    return PolySystem(ctx.ring_descent_k, g.polys + subfield_equations_k(ctx))


def build_G2(system, ctx):
    """Substituted generators plus subfield equations; the image of the
    chain-extended system under the Moore-matrix change of coordinates."""
    polys = [substituted_generator(f, ctx) for f in system.polys]
    return PolySystem(ctx.ring_descent_k, polys + list(subfield_equations_k(ctx)))


def equiv_mod(f, g, i, system):
    """Whether f - g lies in the degree-i closed span of the system."""
    diff = f - g
    if diff.degree > i:
        raise DegreeTooHigh(f"deg(f - g) = {diff.degree} > {i}")
    return span_closure(system, i).contains(diff)


# -- reference points oracle ---------------------------------------------------
#
# The points oracle as it was before its echelon was kept fully reduced: each
# evaluation vector is reduced against the echelon rows one at a time.


class ReferencePointsOracle:
    """Truncation oracle for a radical zero-dimensional ideal given its full
    zero set, every coordinate lying in the coefficient field.

    dim(I cap R_{<=j}) is the number of monomials of degree <= j minus the
    rank of their evaluation vectors on the points; the staircase read off
    the rank profile also bounds the reduced-basis degree.
    """

    def __init__(self, ring, points):
        self.ring = ring
        self.points = sorted(set(tuple(int(c) for c in pt) for pt in points))
        self.ops = ring.ops
        self.npoints = len(self.points)
        self._coord_vals = [
            np.array([pt[v] for pt in self.points], dtype=DTYPE)
            for v in range(ring.nvars)
        ]
        self._done = -1
        self._std = {}          # exp -> evaluation vector (original, standard only)
        self._std_count = []    # per degree
        self._total_count = []
        self._ech = []          # list of (pivot_index, normalized vector)
        self._nonstd = []
        self._rank = 0
        self._max_gb = None

    def _extend(self, j):
        while self._done < j:
            d = self._done + 1
            stdc = 0
            totc = 0
            for e in monomials_of_degree(self.ring.nvars, d):
                totc += 1
                if self.npoints == 0:
                    self._nonstd.append(e)
                    continue
                if d == 0:
                    val = np.ones(self.npoints, dtype=DTYPE)
                else:
                    v = next(idx for idx, a in enumerate(e) if a)
                    parent = list(e)
                    parent[v] -= 1
                    pvec = self._std.get(tuple(parent))
                    if pvec is None:
                        # parent not standard => e not standard either
                        self._nonstd.append(e)
                        continue
                    val = self.ops.vmul(pvec, self._coord_vals[v])
                vec = val.copy()
                for piv, row in self._ech:
                    c = int(vec[piv])
                    if c:
                        vec = self.ops.sub_mul(vec, c, row)
                nz = np.flatnonzero(vec)
                if len(nz) == 0:
                    self._nonstd.append(e)
                else:
                    piv = int(nz[0])
                    c = int(vec[piv])
                    if c != 1:
                        vec = self.ops.vmul(self.ops.inv(c), vec)
                    self._ech.append((piv, vec))
                    self._std[e] = val
                    self._rank += 1
                    stdc += 1
            self._std_count.append(stdc)
            self._total_count.append(totc)
            self._done = d

    def dim_leq(self, j):
        self._extend(j)
        return sum(self._total_count[: j + 1]) - sum(self._std_count[: j + 1])

    def max_gb_degree(self):
        if self._max_gb is not None:
            return self._max_gb
        if self.npoints == 0:
            self._max_gb = 0
            return 0
        # extend until the evaluation rank stabilizes at the point count,
        # then one more degree: minimal staircase generators cannot appear
        # beyond the last standard degree plus one
        d = 0
        while True:
            self._extend(d)
            if self._rank == self.npoints:
                break
            d += 1
        self._extend(d + 1)
        maxdeg = 0
        for e in self._nonstd:
            minimal = True
            for v, a in enumerate(e):
                if a:
                    parent = list(e)
                    parent[v] -= 1
                    if tuple(parent) in self._std:
                        continue
                    minimal = False
                    break
            if minimal:
                maxdeg = max(maxdeg, sum(e))
        self._max_gb = maxdeg
        return maxdeg


# -- reducibility by exhaustive search -----------------------------------------


def is_stage_witness(row, stage, space):
    """Whether the stacked row is a witness at `stage`: its stage block acts
    injectively on W, i.e. its operator matrix has full rank n'.  No
    symbolic gcd is computed."""
    n1 = space.nprime
    image = space.operator_matrix(list(row[stage * n1:(stage + 1) * n1]))
    return local_rank(image.tolist(), space.field.kprime) == n1


def brute_force_reducibility(forms_matrix, space, m, budget=4096):
    """Stage-by-stage witness search over every combination of the echelon
    rows, in itertools.product order, with injectivity on W tested by
    :func:`is_stage_witness`.

    A row belongs to the stage of its first nonzero column; stages m - 1
    and later are never searched.  Returns the first stage without a
    witness (None if every stage has one) and the lex-first witness of each
    stage before it, as a stacked row.  A stage that tries more than
    `budget` combinations raises ValueError.
    """
    from itertools import product

    field = space.field
    n1 = space.nprime
    rows = [[int(x) for x in r] for r in forms_matrix]
    stage_of = [next(t for t, x in enumerate(r) if x) // n1 for r in rows]
    witnesses = {}
    for stage in sorted({s for s in stage_of if s < m - 1}):
        block = [r for r, s in zip(rows, stage_of) if s == stage]
        for tried, combo in enumerate(product(range(field.order), repeat=len(block))):
            if tried == budget:
                raise ValueError(f"stage {stage}: more than {budget} combinations")
            vec = [0] * len(rows[0])
            for c, row in zip(combo, block):
                for t, x in enumerate(row):
                    vec[t] = field.add(vec[t], field.mul(c, x))
            if is_stage_witness(vec, stage, space):
                witnesses[stage] = vec
                break
        else:
            return stage, witnesses
    return None, witnesses


# -- the linear forms of the degree-q span closure -----------------------------


def _extract_linear_forms(span, m, nprime):
    """Rows of the closed span that are linear forms, as a coefficient matrix
    over k with stage-major columns."""
    cols = m * nprime
    var_col = {}
    for flat in range(cols):
        e = [0] * cols
        e[flat] = 1
        var_col[flat] = span._col_of[tuple(e)]
    rows = []
    for r, d in enumerate(span.row_degrees):
        if d > 1:
            continue
        vec = span.matrix[r]
        # the relations vanish at the origin, so the span holds neither the
        # unit (a degree-0 row) nor a linear row with a constant part
        if d == 0 or vec[0] != 0:
            raise RuntimeError("row of degree <= 1 with constant part; inconsistent relations")
        rows.append([int(vec[var_col[flat]]) for flat in range(cols)])
    return np.array(rows, dtype=np.int16).reshape(len(rows), cols)


def span_linear_forms(F, space, m):
    """RREF and pivots of V_q cap S_1, the linear rows of the degree-q span
    closure of the input forms plus the rewriting relations: the reference
    for the Frobenius closure of `reducibility_check`."""
    rows = [linsys.linearized_to_form(lp, space, m) for lp in F]
    span = span_closure(gbar_system(rows, space, m), space.field.q)
    mat = _extract_linear_forms(span, m, space.nprime)
    if mat.shape[0]:
        return reference_rref(mat, space.field.k)
    return mat, []


# -- linear forms as coefficient tuples ----------------------------------------
#
# A linear form over the x_{ij} as `linsys` held it before a form became a
# stage-major int16 row: m tuples of n' codes, stepped one coefficient at a
# time, and closed under the step in rounds that re-row-reduce the whole
# stack.  These are the references for `linsys.frobenius_step` and the
# worklist `linsys._frobenius_closure`; the stage-elimination solver below
# runs on them.


class LinearForm:
    """An element of the module of linear forms over the x_{ij}."""

    __slots__ = ("field", "m", "nprime", "coeffs")

    def __init__(self, field, coeffs, nprime=None):
        coeffs = [tuple(r) for r in coeffs]
        if nprime is None:
            nprime = len(coeffs[0]) if coeffs else 0
        if any(len(r) != nprime for r in coeffs):
            raise ValueError("ragged coefficient rows")
        self.field = field
        self.m = len(coeffs)
        self.nprime = nprime
        self.coeffs = tuple(coeffs)

    def is_zero(self):
        return all(c == 0 for row in self.coeffs for c in row)

    def to_poly(self, ring):
        terms = {}
        f = self.field
        for i, row in enumerate(self.coeffs):
            for j, a in enumerate(row):
                if a:
                    e = [0] * ring.nvars
                    e[i * self.nprime + j] = 1
                    terms[tuple(e)] = a
        return ring.from_terms(terms.items())

    def __eq__(self, other):
        return (isinstance(other, LinearForm) and other.field == self.field
                and other.coeffs == self.coeffs)

    def __repr__(self):
        return f"LinearForm({self.coeffs})"


def ell_op(field, per_var, bound):
    """Relabel the same rows as a linear form over the x_{ij}."""
    rows = [univar.trim(r) for r in per_var]
    for r in rows:
        if len(r) > bound:
            raise DegreeExceedsBound(f"row degree {len(r) - 1} >= bound {bound}")
    return LinearForm(field, [tuple(r) + (0,) * (bound - len(r)) for r in rows], bound)


def frobenius_step(form, space):
    """The image of form^q as a linear form: coefficients go to their q-th
    power, indices shift, and the top index rewrites through gW.  Stage
    support is preserved."""
    f = form.field
    n1 = form.nprime
    out = [[0] * n1 for _ in range(form.m)]
    for i, row in enumerate(form.coeffs):
        for j, b in enumerate(row):
            if not b:
                continue
            bq = f.frob(b, 1)
            if j < n1 - 1:
                out[i][j + 1] = f.add(out[i][j + 1], bq)
            else:
                for l, g in enumerate(space.gW):
                    if g:
                        out[i][l] = f.add(out[i][l], f.mul(bq, g))
    return LinearForm(f, [tuple(r) for r in out], n1)


def row_eval_at_subspace_point(field, row, point):
    """Evaluate a stage-major row with x_{ij} = point_i^{q^j}."""
    nprime = len(row) // len(point)
    acc = 0
    for c, (i, j) in zip(row, product(range(len(point)), range(nprime))):
        acc = field.add(acc, field.mul(int(c), field.frob(point[i], j)))
    return acc


def linearized_to_form(lp, space):
    """Companion rows reduced mod f_W (same function on W), as a linear form."""
    ar = lp.field.k
    fw_k = tuple(space.fW)
    rows = []
    for i in range(lp.m):
        rows.append(univar.mod(ar, lp.per_var(i), fw_k))
    return ell_op(lp.field, rows, space.nprime)


def _frobenius_closure(forms, space, m):
    """RREF and pivots of U, the smallest k-space of linear forms that holds
    `forms` and is closed under `frobenius_step`, in stage-major columns.
    The step is additive and sends c l to c^q step(l), so a round that steps
    every echelon row without raising the rank ends at a closed span; the
    rank grows at most m n' times."""
    field, n1 = space.field, space.nprime
    mat = np.zeros((len(forms), m * n1), dtype=DTYPE)
    for r, form in enumerate(forms):
        mat[r, :form.m * n1] = np.ravel(form.coeffs)
    R, pivots = reference_rref(mat, field.k)
    while True:
        steps = [frobenius_step(LinearForm(field, row.reshape(m, n1).tolist(), n1), space).coeffs
                 for row in R]
        grown = np.concatenate([R, np.array(steps, dtype=DTYPE).reshape(len(R), m * n1)])
        grown, grown_pivots = reference_rref(grown, field.k)
        if len(grown_pivots) == len(pivots):
            return R, pivots
        R, pivots = grown, grown_pivots


# -- the stage-elimination solver ----------------------------------------------
#
# The structured solver as it was before it read the solution off the
# echelon form: a symbolic ext-gcd inverts each stage companion, Frobenius
# steps give the rest of the stage, the substitutions are composed, and
# every input form and rewriting relation is pushed down to the last stage.
# It is the reference for `solve_structured`.  Linear forms are combined by
# the helper functions below.


class GcdConditionFailed(LastfallError):
    """A stage companion shares a kernel vector with f_W inside W."""


def zero_form(field, m, nprime):
    return LinearForm(field, [(0,) * nprime for _ in range(m)], nprime)


def form_min_stage(form):
    for i, row in enumerate(form.coeffs):
        if any(row):
            return i
    return form.m


def form_add(a, b):
    f = a.field
    return LinearForm(f, [tuple(f.add(x, y) for x, y in zip(r1, r2))
                          for r1, r2 in zip(a.coeffs, b.coeffs)], a.nprime)


def form_sub(a, b):
    f = a.field
    return LinearForm(f, [tuple(f.sub(x, y) for x, y in zip(r1, r2))
                          for r1, r2 in zip(a.coeffs, b.coeffs)], a.nprime)


def form_scale(form, c):
    f = form.field
    return LinearForm(f, [tuple(f.mul(c, a) for a in r) for r in form.coeffs], form.nprime)


def form_to_linearized(form):
    return LinearizedPoly(form.field, [univar.trim(r) for r in form.coeffs],
                          bound=form.nprime)


def form_eval_at_subspace_point(form, point):
    """Evaluate with x_{ij} = point_i^{q^j}: the linearized polynomial with
    the same rows, at the point."""
    return form_to_linearized(form).eval(point)


def symbolic_mul(field, f, g):
    """Companion of the composition: L(f) o L(g) = L(symbolic_mul(f, g))."""
    f, g = univar.trim(f), univar.trim(g)
    if not f or not g:
        return univar.ZERO
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            if b:
                out[i + j] = field.add(out[i + j], field.mul(a, field.frob(b, i)))
    return univar.trim(out)


def symbolic_ext_gcd(field, f, g):
    """(d, u, v) with symbolic u*f + v*g = d, d the monic symbolic gcd."""
    r0, r1 = univar.trim(f), univar.trim(g)
    u0, u1 = (1,), univar.ZERO
    v0, v1 = univar.ZERO, (1,)
    while r1:
        c, r = symbolic_rdivmod(field, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, univar.sub(field.k, u0, symbolic_mul(field, c, u1))
        v0, v1 = v1, univar.sub(field.k, v0, symbolic_mul(field, c, v1))
    if not r0:
        return univar.ZERO, univar.ZERO, univar.ZERO
    ic = field.inv(r0[-1])
    scale = lambda h: univar.trim(field.mul(ic, a) for a in h)
    return scale(r0), scale(u0), scale(v0)


def lcompose_reduce(g, form, space):
    """Linear form congruent to L(g) applied on top of `form`: the sum of
    g_r-scaled r-fold Frobenius steps.  Evaluates identically to
    v -> L(g)(form(v)) on W^m."""
    field = form.field
    gt = univar.trim(g)
    acc = zero_form(field, form.m, form.nprime)
    cur = form
    for r, c in enumerate(gt):
        if c:
            acc = form_add(acc, form_scale(cur, c))
        if r < len(gt) - 1:
            cur = frobenius_step(cur, space)
    return acc


def eliminate_stage(stage, witness, space):
    """Substitutions x_{stage,j} -> linear form over later stages.

    Uses the symbolic extended Euclid against f_W on the stage companion and
    the Frobenius-step chain for the remaining indices.  Raises
    GcdConditionFailed when the stage companion shares a kernel vector with
    f_W inside W.
    """
    field = space.field
    n1 = space.nprime
    fw_k = tuple(space.fW)
    gii = univar.mod(field.k, witness.per_var(stage), fw_k)
    d, u, _ = symbolic_ext_gcd(field, gii, fw_k)
    if d != (1,):
        raise GcdConditionFailed(
            f"stage {stage} companion shares kernel with f_W (gcd degree {len(d) - 1})")
    phi = linearized_to_form(witness, space)
    psi = lcompose_reduce(u, phi, space)
    expected = (1,) + (0,) * (n1 - 1)
    if psi.coeffs[stage] != expected:
        raise RuntimeError("stage inversion did not isolate the leading variable")
    if form_min_stage(psi) < stage:
        raise RuntimeError("stage inversion leaked into earlier stages")
    # ell_0 = x_{stage,0} - psi lives strictly in later stages
    f = field
    neg_rows = [tuple(f.neg(c) for c in row) for row in psi.coeffs]
    rows = [list(r) for r in neg_rows]
    rows[stage] = [0] * n1
    ell = LinearForm(field, [tuple(r) for r in rows], n1)
    subs = {(stage, 0): ell}
    cur = ell
    for j in range(1, n1):
        cur = frobenius_step(cur, space)
        subs[(stage, j)] = cur
    return subs


def _substitute_stages(form, gamma, n1):
    """Replace every x_{ij} with gamma[(i, j)] wherever defined."""
    field = form.field
    out = zero_form(field, form.m, n1)
    rows = [list(r) for r in form.coeffs]
    for (i, j), g in gamma.items():
        c = rows[i][j]
        if c:
            rows[i][j] = 0
            out = form_add(out, form_scale(g, c))
    base = LinearForm(field, [tuple(r) for r in rows], n1)
    return form_add(base, out)


def stage_elimination_solve(F, space, m=None, report=None):
    """Build a k'-basis of the common kernel inside W^m by stage elimination.

    Requires the system to be reducible (NotReducible otherwise).  Stages
    with no new linear relations keep their coordinates free; eliminated
    stages are back-substituted from the elimination trace; the last stage
    collapses to the kernel of the symbolic gcd of the pushed down
    companions together with f_W.
    """
    field = space.field
    if m is None:
        m = max((lp.m for lp in F), default=1)
    n1 = space.nprime
    F_live = [lp for lp in F if not lp.is_zero()]
    if report is None:
        report = reducibility_check(F_live, space, m=m)
    if not report.reducible:
        raise NotReducible(report.failed_stage, report.certificate)

    gamma = {}
    for stage in report.active_stages:
        subs = eliminate_stage(stage, report.witnesses[stage], space)
        gamma.update(subs)
    # compose: push later-stage substitutions through earlier ones
    for stage in sorted(report.active_stages, reverse=True):
        later = {k: v for k, v in gamma.items() if k[0] > stage}
        for j in range(n1):
            gamma[(stage, j)] = _substitute_stages(gamma[(stage, j)], later, n1)

    eliminated = set(report.active_stages)
    remaining = [s for s in range(m) if s not in eliminated]
    last = m - 1

    # push every input form and the rewriting relations of eliminated stages
    # down to the last stage
    companions = []
    for lp in F_live:
        form = linearized_to_form(lp, space)
        pushed = _substitute_stages(form, gamma, n1)
        if pushed.is_zero():
            continue
        _require_last_stage_only(pushed, remaining, last)
        companions.append(univar.trim(pushed.coeffs[last]))
    for stage in report.active_stages:
        for j in range(n1):
            g_j = gamma[(stage, j)]
            stepped = frobenius_step(g_j, space)
            if j < n1 - 1:
                target = gamma[(stage, j + 1)]
            else:
                target = zero_form(field, m, n1)
                for l, c in enumerate(space.gW):
                    if c:
                        target = form_add(target, form_scale(gamma[(stage, l)], c))
            h = form_sub(stepped, target)
            if h.is_zero():
                continue
            h = _substitute_stages(h, gamma, n1)
            if h.is_zero():
                continue
            _require_last_stage_only(h, remaining, last)
            companions.append(univar.trim(h.coeffs[last]))

    g = tuple(space.fW)
    for h in companions:
        g = symbolic_gcd(field, g, h)
    kernel_coords = space.kernel_in_W(g)
    if len(kernel_coords) != univar.degree(g):
        raise RuntimeError(
            f"kernel dimension {len(kernel_coords)} != deg g = {univar.degree(g)}")

    raw = []
    free_stages = [s for s in remaining if s != last]
    for s in free_stages:
        for w in space.basis_W:
            point = [0] * m
            point[s] = w
            _fill_eliminated(point, gamma, report.active_stages, field, n1)
            raw.append(tuple(point))
    for co in kernel_coords:
        point = [0] * m
        point[last] = space.from_coords(tuple(int(c) for c in co))
        _fill_eliminated(point, gamma, report.active_stages, field, n1)
        raw.append(tuple(point))

    coords = []
    for gen in raw:
        for lp in F_live:
            if lp.eval(gen) != 0:
                raise RuntimeError("structured solution fails an input polynomial")
        row = [space.coords_of(x) for x in gen]
        if None in row:
            raise RuntimeError("generator coordinate escaped W")
        coords.append([c for co in row for c in co])

    trace = EliminationTrace(
        substitutions={s: form_to_linearized(gamma[(s, 0)]) for s in report.active_stages},
        final_gcd=g,
        active_stages=report.active_stages,
    )
    return _canonical_basis(space, m, coords, trace=trace, reducible=True)


def _require_last_stage_only(form, remaining, last):
    for s in remaining:
        if s == last:
            continue
        if any(form.coeffs[s]):
            raise RuntimeError(
                f"pushed-down form has support on free stage {s}; "
                "elimination structure violated")
    for s in range(form.m):
        if s not in remaining and any(form.coeffs[s]):
            raise RuntimeError("pushed-down form still mentions an eliminated stage")


def _fill_eliminated(point, gamma, active, field, n1):
    for s in active:
        point[s] = form_eval_at_subspace_point(gamma[(s, 0)], point)


# -- the Moore-matrix layer: field elements as objects, the Frobenius on
# k'-coordinate vectors and the Moore matrix of a k/k' basis, the
# cross-checks of the Frobenius tables and of the descent basis


def frob_matrix(field):
    """The n x n matrix of x -> x^q on k'-coordinate vectors (columns are
    coords of (t^j)^q)."""
    n = field.n
    return tuple(
        tuple(int(field.coords(field.frob(field.q**j))[i]) for j in range(n))
        for i in range(n)
    )


def frob_by_matrix(field, a):
    """a^q computed through the coordinate matrix; cross-check path."""
    co = np.array(field.coords(a), dtype=DTYPE)
    return field.from_coords(
        matvec(field.kprime, np.array(frob_matrix(field), dtype=DTYPE), co).tolist())


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
        return rank(np.array(self.entries, dtype=DTYPE), self.field.k)


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
