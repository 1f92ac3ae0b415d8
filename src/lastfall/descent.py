"""Weil descent of polynomial systems and the associated auxiliary systems.

Given a system over k = GF(q^n) in variables X_0..X_{m-1} and a k/k' basis
a_0..a_{n-1}, each variable is expanded as X_i = sum_j a_j X_{ij} and every
coefficient of the expansion is decomposed in the basis again, producing n
component polynomials with subfield coefficients per input polynomial.  The
module also builds:

  * the chain-extended system over k whose zero set is identified with the
    k-rational points of the input (fresh variables Y_{i1}..Y_{i,n-1} tied by
    X_i^q = Y_{i1}, Y_{ij}^q = Y_{i,j+1}, Y_{i,n-1}^q = X_i);
  * the descended system plus all subfield equations X_{ij}^q - X_{ij};
  * the Galois-orbit systems used as test apparatus for the span arguments
    (substituted generators and their coefficient-wise conjugates).

Variable naming is fixed (X{i}_{j} flattened as i*n+j, Y variables after all
X_i) so emitted systems are byte-stable.
"""

import numpy as np

from . import univar
from .errors import CoordinateNotInField, MalformedInput
from .falldeg import zk_points
from .linsys import InvariantSubspace
from .poly import PolySystem, Ring


class DescentContext:
    """Field, k/k' basis and the rings of the descent.

    k is the subspace of itself cut out by f_W = x^n - 1, and any k'-basis
    of k is a basis of it, so ``space`` is the ``InvariantSubspace`` of k in
    the descent basis: it tabulates the k'-coordinates of all q^n elements
    once, so decomposing a coefficient is a lookup, and it raises NotABasis
    for a k'-dependent basis.
    """

    def __init__(self, field, m, basis=None):
        if not isinstance(m, (int, np.integer)) or isinstance(m, bool) or m < 0:
            raise MalformedInput(f"m must be a nonnegative integer, got {m!r}")
        self.field = field
        self.m = int(m)
        n = field.n
        if basis is None:
            basis = [field.pow(field.gen(), j) for j in range(n)]
        if not (isinstance(basis, (list, tuple)) and len(basis) == n and all(
                isinstance(b, (int, np.integer)) and not isinstance(b, bool)
                and 0 <= b < field.order for b in basis)):
            raise MalformedInput(f"basis {basis!r} is not a list of {n} codes below {field.order}")
        self.basis = tuple(int(b) for b in basis)
        self.space = InvariantSubspace(field, univar.x_pow_n_minus_one(field.kprime, n),
                                       self.basis)

        self.ring_original = Ring(field, "k", [f"X{i}" for i in range(m)])
        svars = [f"X{i}_{j}" for i in range(m) for j in range(n)]
        self.ring_descent_k = Ring(field, "k", svars)
        self.ring_descent = Ring(field, "kprime", svars)
        yvars = [f"Y{i}_{j}" for i in range(m) for j in range(1, n)]
        self.ring_chain = Ring(field, "k", [f"X{i}" for i in range(m)] + yvars)


def make_descent_context(field, m, basis=None):
    return DescentContext(field, m, basis=basis)


def substituted_generator(f, ctx):
    """f with its i-th variable replaced by sum_j a_j X_{ij}, expanded over k."""
    if f.ring.nvars != ctx.m:
        raise ValueError("polynomial does not match the context's variable count")
    images = {}
    for i, name in enumerate(f.ring.vars):
        img = ctx.ring_descent_k.zero()
        for j, b in enumerate(ctx.basis):
            img = img + ctx.ring_descent_k.variable(i * ctx.field.n + j).scale(b)
        images[name] = img
    return f.substitute(images)


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
    ring = ctx.ring_descent
    return [ring.from_terms(comp.items()) for comp in components]


class DescentSystem:
    """Original system, its descended components and the component map."""

    def __init__(self, original, descended, components):
        self.original = original
        self.descended = descended
        self.components = components


def build_Fprime(system, ctx):
    out = []
    comp_map = {}
    for f in system.polys:
        comps = weil_descend(f, ctx)
        comp_map[f] = tuple(comps)
        out.extend(comps)
    return DescentSystem(system, PolySystem(ctx.ring_descent, out), comp_map)


def field_equations(ring, q):
    """x^q - x for every ring variable."""
    eqs = []
    for i in range(ring.nvars):
        x = ring.variable(i)
        eqs.append(x.pow_int(q) - x)
    return eqs


def build_Fprime1(system, ctx):
    """Descended system together with all subfield equations X_{ij}^q - X_{ij}."""
    desc = build_Fprime(system, ctx)
    q = ctx.field.q
    polys = list(desc.descended.polys) + field_equations(ctx.ring_descent, q)
    return PolySystem(ctx.ring_descent, polys)


def build_F1(system, ctx):
    """System over k extended by the q-power chains; the zero set projects
    bijectively onto the k-rational points of the input."""
    field = ctx.field
    ring = ctx.ring_chain
    m, n, q = ctx.m, field.n, field.q
    if system.ring.nvars != m:
        raise ValueError("system does not match the context's variable count")
    # X_i keeps its place; the chain variables Y follow all of them
    pad = (0,) * (m * (n - 1))
    polys = [ring.from_terms((e + pad, c) for e, c in f.terms.items())
             for f in system.polys]

    def yvar(i, j):
        return ring.variable(m + i * (n - 1) + (j - 1))

    for i in range(m):
        if n == 1:
            x = ring.variable(i)
            polys.append(x.pow_int(q) - x)
            continue
        chain = [ring.variable(i)] + [yvar(i, j) for j in range(1, n)]
        for j in range(n):
            polys.append(chain[j].pow_int(q) - chain[(j + 1) % n])
    return PolySystem(ring, polys)


def build_sigma_orbit_G(system, ctx):
    """All coefficient-wise conjugates of the substituted generators."""
    polys = []
    for f in system.polys:
        g = substituted_generator(f, ctx)
        for i in range(ctx.field.n):
            polys.append(g.apply_sigma(i))
    return PolySystem(ctx.ring_descent_k, polys)


def build_G1(system, ctx):
    g = build_sigma_orbit_G(system, ctx)
    polys = list(g.polys) + field_equations(ctx.ring_descent_k, ctx.field.q)
    return PolySystem(ctx.ring_descent_k, polys)


def build_G2(system, ctx):
    """Substituted generators plus subfield equations; the image of the
    chain-extended system under the Moore-matrix change of coordinates."""
    polys = [substituted_generator(f, ctx) for f in system.polys]
    polys += field_equations(ctx.ring_descent_k, ctx.field.q)
    return PolySystem(ctx.ring_descent_k, polys)


def solution_transport(point, ctx, direction):
    """Move a solution across the descent bijection.

    direction="descend": m-tuple over k -> (m*n)-tuple of k' codes.
    direction="lift": the inverse evaluation sum_j a_j x_{ij}.
    """
    if direction == "descend":
        out = []
        for x in point:
            co = ctx.space.coords_of(x)
            if co is None:
                raise MalformedInput(f"{x!r} is not a code of k")
            out.extend(co)
        return tuple(out)
    if direction == "lift":
        n = ctx.field.n
        if len(point) != ctx.m * n:
            raise ValueError("expected m*n coordinates")
        for c in point:
            if not ctx.field.lies_in_subfield(c):
                raise CoordinateNotInField(f"{c} is not a k' code")
        return tuple(ctx.space.from_coords(point[i * n:(i + 1) * n]) for i in range(ctx.m))
    raise ValueError("direction must be 'descend' or 'lift'")


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
