"""Weil descent of polynomial systems and the associated auxiliary systems.

Given a system over k = GF(q^n) in variables X_0..X_{m-1} and a k/k' basis
a_0..a_{n-1}, each variable is expanded as X_i = sum_j a_j X_{ij} and every
coefficient of the expansion is decomposed in the basis again, producing n
component polynomials with subfield coefficients per input polynomial.  The
module also builds:

  * the chain-extended system over k whose zero set is identified with the
    k-rational points of the input (fresh variables Y_{i1}..Y_{i,n-1} tied by
    X_i^q = Y_{i1}, Y_{ij}^q = Y_{i,j+1}, Y_{i,n-1}^q = X_i);
  * the descended system plus all subfield equations X_{ij}^q - X_{ij}.

Variable naming is fixed (X{i}_{j} flattened as i*n+j, Y variables after all
X_i) so emitted systems are byte-stable.
"""

import functools

from . import univar
from .errors import CoordinateNotInField, MalformedInput, RingMismatch, as_codes, as_int
from .falldeg import zk_points
from .linsys import InvariantSubspace
from .poly import MultiPoly, PolySystem, Ring, frobenius_relations, sum_terms


class DescentContext:
    """Field, k/k' basis and the rings of the descent.

    k is the subspace of itself cut out by f_W = x^n - 1, and any k'-basis
    of k is a basis of it, so ``space`` is the ``InvariantSubspace`` of k in
    the descent basis: it tabulates the k'-coordinates of all q^n elements
    once, so decomposing a coefficient is a lookup, and it raises NotABasis
    for a k'-dependent basis.

    Everything a descent repeats for each system of this shape is memoized
    on the context on first use, and nothing of it is built at
    construction: the image of each monomial X^e under
    X_i -> sum_j a_j X_{ij} (``image``), the subfield equations of
    ``ring_descent`` and ``ring_descent_k`` and the q-power chain
    equations of ``ring_chain``.  The memo only ever holds polynomials of
    the context's own rings, so every system descended by one context
    shares it.
    """

    def __init__(self, field, m, basis=None):
        self.field = field
        self.m = m = as_int(m, "m", least=0)
        n = field.n
        if basis is None:
            basis = [field.pow(field.gen(), j) for j in range(n)]
        self.basis = as_codes(basis, field.order, "basis", n)
        self.space = InvariantSubspace(field, univar.x_pow_n_minus_one(field.kprime, n),
                                       self.basis)

        self.ring_original = Ring(field, "k", [f"X{i}" for i in range(m)])
        svars = [f"X{i}_{j}" for i in range(m) for j in range(n)]
        self.ring_descent_k = Ring(field, "k", svars)
        self.ring_descent = Ring(field, "kprime", svars)
        yvars = [f"Y{i}_{j}" for i in range(m) for j in range(1, n)]
        self.ring_chain = Ring(field, "k", [f"X{i}" for i in range(m)] + yvars)
        # exponent e over the m variables -> terms of the image of X^e
        self._images = {(0,) * m: {(0,) * (m * n): 1}}

    def image(self, e):
        """The terms (exponent -> code over ``ring_descent_k``) of X^e with
        each X_i replaced by sum_j a_j X_{ij}: the image of X^e / X_i, for
        the first variable X_i of X^e, times sum_j a_j X_{ij}.  Do not
        mutate them."""
        missing = []  # (exponent, its first variable), from e down to a memoized one
        while e not in self._images:
            i = next(v for v, a in enumerate(e) if a)
            missing.append((e, i))
            e = e[:i] + (e[i] - 1,) + e[i + 1:]
        img = self._images[e]
        add, mul, n = self.field.add, self.field.mul, self.field.n
        for e, i in reversed(missing):
            self._images[e] = img = sum_terms(
                ((le[:v] + (le[v] + 1,) + le[v + 1:], mul(lc, b))
                 for le, lc in img.items() for v, b in enumerate(self.basis, i * n)), add)
        return img

    @functools.cached_property
    def subfield_equations(self):
        """X_{ij}^q - X_{ij} for every variable of ``ring_descent``."""
        return tuple(field_equations(self.ring_descent, self.field.q))

    @functools.cached_property
    def chain_equations(self):
        """The q-power chains of ``ring_chain``: X_i^q - Y_{i1},
        Y_{ij}^q - Y_{i,j+1} and Y_{i,n-1}^q - X_i for each i (X_i^q - X_i
        when n = 1)."""
        m, n = self.m, self.field.n
        chains = [(i, *range(m + i * (n - 1), m + (i + 1) * (n - 1))) for i in range(m)]
        return tuple(frobenius_relations(self.ring_chain, self.field.q, chains, (1,)))


def make_descent_context(field, m, basis=None):
    return DescentContext(field, m, basis=basis)


def _check_ring(ring, ctx):
    """A ring whose field is not the context's, or whose variable count is
    not m, is refused; its variable names and level are free."""
    if ring.field != ctx.field:
        raise RingMismatch(f"the system lives over {ring.field!r}, the descent over "
                           f"{ctx.field!r}")
    if ring.nvars != ctx.m:
        raise MalformedInput(f"the system has {ring.nvars} variables, the descent {ctx.m}")


def substituted_generator(f, ctx):
    """f with its i-th variable replaced by sum_j a_j X_{ij}, expanded over
    k: the sum of c_e times the memoized image of X^e over the terms
    c_e X^e of f."""
    _check_ring(f.ring, ctx)
    mul = ctx.field.mul
    return MultiPoly(ctx.ring_descent_k, sum_terms(
        ((te, mul(c, tc)) for e, c in f.terms.items() for te, tc in ctx.image(e).items()),
        ctx.field.add))


def weil_descend(f, ctx):
    """Component polynomials (f_0 .. f_{n-1}) of f under the descent.

    The expansion of f(sum a_j X_{0j}, ...) is decomposed coefficient by
    coefficient against the basis, so sum_j a_j * f_j reproduces the
    substituted polynomial exactly and deg f_j <= deg f.
    """
    n = ctx.field.n
    g = substituted_generator(f, ctx)
    components = [dict() for _ in range(n)]
    for e, c in g.terms.items():
        for j, cj in enumerate(ctx.space.coords_of(c)):
            if cj:
                components[j][e] = cj
    # every exponent and nonzero k' digit is already valid: nothing to check
    return [MultiPoly(ctx.ring_descent, comp) for comp in components]


def build_Fprime(system, ctx):
    """The components of every input polynomial, polynomial by polynomial."""
    _check_ring(system.ring, ctx)
    return PolySystem(ctx.ring_descent, [c for f in system.polys for c in weil_descend(f, ctx)])


def field_equations(ring, q):
    """x^q - x for every ring variable."""
    return frobenius_relations(ring, q, [(i,) for i in range(ring.nvars)], (1,))


def build_Fprime1(system, ctx):
    """Descended system together with all subfield equations X_{ij}^q - X_{ij}."""
    return PolySystem(ctx.ring_descent, build_Fprime(system, ctx).polys + ctx.subfield_equations)


def build_F1(system, ctx):
    """System over k extended by the q-power chains; the zero set projects
    bijectively onto the k-rational points of the input."""
    _check_ring(system.ring, ctx)
    ring = ctx.ring_chain
    # X_i keeps its place; the chain variables Y follow all of them.  The
    # input's terms are valid in its ring, over the same field, so they are
    # copied unchecked
    pad = (0,) * (ctx.m * (ctx.field.n - 1))
    polys = [MultiPoly(ring, {e + pad: c for e, c in f.terms.items()})
             for f in system.polys]
    return PolySystem(ring, polys + list(ctx.chain_equations))


def solution_transport(point, ctx, direction):
    """Move a solution across the descent bijection.

    direction="descend": m-tuple over k -> (m*n)-tuple of k' codes.
    direction="lift": the inverse evaluation sum_j a_j x_{ij}.
    """
    if direction == "descend":
        point = as_codes(point, ctx.field.order, "point")
        if len(point) != ctx.m:
            raise MalformedInput(f"expected {ctx.m} values, got {len(point)}")
        return tuple(c for x in point for c in ctx.space.coords_of(x))
    if direction == "lift":
        n = ctx.field.n
        if len(point) != ctx.m * n:
            raise MalformedInput(f"expected {ctx.m * n} coordinates, got {len(point)}")
        for c in point:
            if not ctx.field.lies_in_subfield(c):
                raise CoordinateNotInField(f"{c} is not a k' code")
        return tuple(ctx.space.from_coords(point[i * n:(i + 1) * n]) for i in range(ctx.m))
    raise MalformedInput(f"direction must be 'descend' or 'lift', got {direction!r}")


# -- exhaustive zero sets (desk scale) -----------------------------------------


def f1_points(system, ctx):
    """Zero set of the chain-extended system, derived from the k-points."""
    field = ctx.field
    n = field.n
    pts = []
    for pt in zk_points(system):
        chain_pt = list(pt)
        for i in range(ctx.m):
            for j in range(1, n):
                chain_pt.append(field.frob(pt[i], j))
        pts.append(tuple(chain_pt))
    return pts


def fprime1_points(system, ctx):
    """Zero set of the descended-plus-field-equations system."""
    return [solution_transport(pt, ctx, "descend") for pt in zk_points(system)]
