"""Linearized polynomial systems over Frobenius-invariant subspaces.

A q-linearized polynomial sum a_ij x_i^{q^j} acts k'-linearly on k^m and is
stored through its conventional companion rows a_i = (a_i0, a_i1, ...).  The
subspaces of k stable under x -> x^q are cut out by the monic divisors f_W of
x^n - 1 over k'; W is the kernel of f_W applied to the Frobenius and has
k'-dimension deg f_W.  A linear form over the x_{ij} (j < n' = deg f_W) is
an int16 row of m n' codes in stage-major order.

Composition of linearized maps corresponds to the *symbolic* product of the
companion polynomials, (f * g)_l = sum_{i+j=l} f_i g_j^{q^i}, not to the
plain product: the coefficient twist matters as soon as coefficients leave
the subfield.  Right division and gcd in that twisted sense decide
reducibility and the last stage of the structured solver: the kernel of the
symbolic gcd of a family of companions is exactly the intersection of the
kernels of the family.
"""

from collections import deque
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import univar
from .errors import (DegreeExceedsBound, DivisionByZero, EnumerationBudgetExceeded,
                     MalformedInput, NotABasis, NotADivisor, NotReducible, as_codes)
from .linalg import DTYPE, Echelon, kernel_basis, rref
from .poly import PolySystem, Ring, frobenius_relations


# -- symbolic (composition-compatible) univariate operations -------------------


def symbolic_rdivmod(field, f, g):
    """Quotient and remainder with g acting first: f = c * g + r, deg r < deg g."""
    g = univar.trim(g)
    if not g:
        raise DivisionByZero("symbolic division by zero")
    r = list(univar.trim(f))
    dg = len(g) - 1
    quo = [0] * max(len(r) - dg, 0)
    while len(r) - 1 >= dg and r:
        k = len(r) - 1 - dg
        top = field.frob(g[-1], k)
        c = field.mul(r[-1], field.inv(top))
        quo[k] = c
        for j, b in enumerate(g):
            if b:
                r[k + j] = field.sub(r[k + j], field.mul(c, field.frob(b, k)))
        while r and r[-1] == 0:
            r.pop()
    return univar.trim(quo), univar.trim(r)


def symbolic_gcd(field, f, g):
    """Greatest common right component; its kernel is ker L(f) cap ker L(g)."""
    f, g = univar.trim(f), univar.trim(g)
    while g:
        f, g = g, symbolic_rdivmod(field, f, g)[1]
    return univar.monic(field, f)


# -- core data types -----------------------------------------------------------


def apply_companion(field, companion, x):
    """L(companion)(x) = sum_j a_j x^{q^j} for conventional coefficients a_j."""
    acc = 0
    for j, a in enumerate(companion):
        if a:
            acc = field.add(acc, field.mul(a, field.frob(x, j)))
    return acc


class LinearizedPoly:
    """L(f) for f = sum_i f_i(x_i); rows are the conventional coefficients."""

    def __init__(self, field, rows, bound=None):
        """Each row is a list of codes of k (see :func:`errors.as_codes`)."""
        rows = [univar.trim(as_codes(r, field.order, "row")) for r in rows]
        if bound is None:
            bound = max((len(r) for r in rows), default=1)
        for r in rows:
            if len(r) > bound:
                raise DegreeExceedsBound(f"row degree {len(r) - 1} >= bound {bound}")
        self.field = field
        self.m = len(rows)
        self.bound = bound
        self.coeffs = tuple(tuple(r) + (0,) * (bound - len(r)) for r in rows)

    def per_var(self, i):
        return univar.trim(self.coeffs[i])

    def is_zero(self):
        return all(c == 0 for row in self.coeffs for c in row)

    def eval(self, point):
        """The value at a point of m or more codes of k (the rest are ignored)."""
        f = self.field
        point = as_codes(point, f.order, "point")
        if len(point) < self.m:
            raise MalformedInput(f"point {point} has fewer than m = {self.m} coordinates")
        acc = 0
        for i, row in enumerate(self.coeffs):
            acc = f.add(acc, apply_companion(f, row, point[i]))
        return acc

    def to_poly(self, ring):
        """The actual polynomial sum a_ij X_i^{q^j}."""
        q, n = self.field.q, ring.nvars
        return ring.from_terms(((0,) * i + (q**j,) + (0,) * (n - 1 - i), a)
                               for i, row in enumerate(self.coeffs)
                               for j, a in enumerate(row) if a)

    def __eq__(self, other):
        return (isinstance(other, LinearizedPoly) and other.field == self.field
                and other.coeffs == self.coeffs)

    def __repr__(self):
        return f"LinearizedPoly(m={self.m}, bound={self.bound})"


def _operator_matrix(field, companion, basis):
    """Matrix over k' of x -> L(companion)(x) on the span of `basis`: column
    j holds the k'-coordinates of the image of basis[j]."""
    cols = [field.coords(apply_companion(field, companion, b)) for b in basis]
    return np.array([[col[i] for col in cols] for i in range(field.n)], dtype=DTYPE)


class InvariantSubspace:
    """W = ker f_W(tau) for a monic divisor f_W of x^n - 1 over k'.

    W has q^{n'} <= MAX_ORDER elements, so the k'-coordinates of every one
    of them in the basis ``basis_W`` are tabulated once, in
    ``itertools.product`` order; membership and coordinates are lookups.
    The constructor raises NotABasis unless ``basis_W`` has n' elements,
    each in ker f_W(tau), and the table has q^{n'} entries, which holds
    exactly when they are k'-independent.
    """

    def __init__(self, field, fW, basis_W):
        self.field = field
        self.fW = as_codes(fW, field.q, "fW")
        self.nprime = len(self.fW) - 1
        kp = field.kprime
        self.gW = univar.trim([kp.neg(c) for c in self.fW[: self.nprime]])
        self.basis_W = as_codes(basis_W, field.order, "basis of W")
        if len(self.basis_W) != self.nprime:
            raise NotABasis(f"{list(self.basis_W)} has {len(self.basis_W)} elements, "
                            f"not deg f_W = {self.nprime}")
        outside = [w for w in self.basis_W if apply_companion(field, self.fW, w)]
        if outside:
            raise NotABasis(f"{outside} not in ker f_W(tau) for f_W = {list(self.fW)}")
        self._coords = {self.from_coords(co): co
                        for co in product(range(field.q), repeat=self.nprime)}
        if len(self._coords) < field.q**self.nprime:
            raise NotABasis(f"{list(self.basis_W)} is not k'-independent")

    @property
    def dim(self):
        return self.nprime

    def coords_of(self, code):
        """k'-coordinates of an element in the W basis, or None if outside W."""
        return self._coords.get(code)

    def contains(self, code):
        return code in self._coords

    def from_coords(self, coords):
        """The element of W with the n' k'-coordinates `coords`."""
        f = self.field
        acc = 0
        for c, w in zip(as_codes(coords, f.q, "W coordinates", self.nprime), self.basis_W):
            acc = f.add(acc, f.mul(c, w))
        return acc

    def elements(self):
        return iter(self._coords)

    def operator_matrix(self, companion):
        """Matrix over k' of w -> L(companion)(w), W -> k, in coordinates."""
        return _operator_matrix(self.field, companion, self.basis_W)

    def kernel_in_W(self, companion):
        """Elements of W killed by L(companion), as a k'-basis (W coordinates)."""
        return kernel_basis(self.operator_matrix(companion), self.field.kprime)

    def __repr__(self):
        return f"InvariantSubspace(fW={list(self.fW)}, dim={self.nprime})"


def subspace_from_fW(fW, field):
    """Build W from a monic divisor of x^n - 1 over k'.

    The kernel dimension is computed, not assumed: when it disagrees with
    deg f_W (possible only through a bug, since x does not divide x^n - 1)
    a diagnostic error is raised instead of proceeding.
    """
    kp = field.kprime
    fW = univar.trim(as_codes(fW, field.q, "fW"))
    if not fW or fW[-1] != 1:
        raise MalformedInput(f"fW {list(fW)} is not monic")
    if univar.degree(fW) < 1:
        raise MalformedInput(f"fW {list(fW)} has degree < 1")
    xn1 = univar.x_pow_n_minus_one(kp, field.n)
    if not univar.divides(kp, fW, xn1):
        raise NotADivisor(f"{list(fW)} does not divide x^{field.n} - 1 over k'")
    n = field.n
    # f_W(tau) over k' on the polynomial basis t^j, whose code is q^j
    mat = _operator_matrix(field, fW, [field.q**j for j in range(n)])
    ker = kernel_basis(mat, kp)
    if len(ker) != univar.degree(fW):
        raise RuntimeError(
            f"kernel dimension {len(ker)} != deg fW {univar.degree(fW)}")
    basis_W = [field.from_coords(tuple(int(c) for c in v)) for v in ker]
    space = InvariantSubspace(field, fW, basis_W)
    if not all(space.contains(field.frob(w, 1)) for w in basis_W):
        raise RuntimeError("W is not stable under the Frobenius")
    return space


def full_space(field):
    """W = k itself (f_W = x^n - 1)."""
    return subspace_from_fW(univar.x_pow_n_minus_one(field.kprime, field.n), field)


def subfield_space(field):
    """W = k' (f_W = x - 1)."""
    return subspace_from_fW((field.kprime.neg(1), 1), field)


# -- linear forms and the rewriting relations ----------------------------------


def make_s_ring(field, m, nprime):
    return Ring(field, "k", [f"x{i}_{j}" for i in range(m) for j in range(nprime)])


def build_Qbar(space, m):
    """The rewriting relations of W in the descent variables.

    Per variable: x_{ij}^q - x_{i,j+1} for j < n'-1, closed by
    x_{i,n'-1}^q - sum_l gW_l x_{il}; for W = k the closing relation is the
    cyclic wrap x_{i,n-1}^q - x_{i0}.
    """
    n1 = space.nprime
    return frobenius_relations(make_s_ring(space.field, m, n1), space.field.q,
                               [range(i * n1, (i + 1) * n1) for i in range(m)], space.gW)


def linearized_to_form(lp, space, m):
    """lp as a stage-major row of m n' codes: stage i holds companion i
    reduced mod f_W (the same function on W), x_{ij} standing for x_i^{q^j}."""
    n1 = space.nprime
    row = np.zeros(m * n1, dtype=DTYPE)
    for i in range(lp.m):
        rem = univar.mod(lp.field.k, lp.per_var(i), tuple(space.fW))
        row[i * n1:i * n1 + len(rem)] = rem
    return row


def frobenius_step(rows, space):
    """The forms l^q of a matrix of stage-major rows l, rewritten as linear
    forms: every coefficient goes to its q-th power, x_{ij} to x_{i,j+1},
    and x_{i,n'-1} to sum_l gW_l x_{il}.  Stage support is preserved."""
    field, n1 = space.field, space.nprime
    blocks = field.frob_tables[1 % field.n][rows].reshape(-1, n1)
    out = np.zeros_like(blocks)
    out[:, 1:] = blocks[:, :-1]
    for l, g in enumerate(space.gW):
        out[:, l] = field.k.sub_mul(out[:, l], field.k.neg(g), blocks[:, -1])
    return out.reshape(rows.shape)


def gbar_system(rows, space, m):
    """The span-closure input: the nonzero forms plus the rewriting relations."""
    ring = make_s_ring(space.field, m, space.nprime)
    units = np.eye(ring.nvars, dtype=int)
    polys = [ring.from_terms(zip(units, row)) for row in rows if row.any()]
    polys.extend(build_Qbar(space, m))
    return PolySystem(ring, polys)


# -- reducibility and the structured solver ------------------------------------


@dataclass
class ReducibilityReport:
    """Outcome of :func:`reducibility_check`.

    For a non-reducible system, `certificate` is the monic symbolic gcd of
    f_W and the companions of `failed_stage`, and `kernel_vector` a nonzero
    w in W that every one of those companions annihilates.
    """
    reducible: bool
    witnesses: dict
    active_stages: tuple
    stage_pivot_counts: tuple
    failed_stage: object = None
    forms_matrix: object = None
    certificate: tuple = None
    kernel_vector: int = None


def _frobenius_closure(rows, space, m):
    """RREF and pivots of U, the smallest k-space of linear forms that holds
    `rows` and is closed under `frobenius_step`, in stage-major columns.

    A worklist grows a ``linalg.Echelon`` with leftmost pivots, since the
    lemma of `reducibility_check` counts rows by the stage of their pivot: a
    queued row is reduced against it, a nonzero residual joins it, and the
    step of the new row is queued, so each row that joins is stepped once.
    Every queued row lies in U, and the residuals span the basis, which is
    closed: the step is additive and sends c l to c^q step(l), so it maps a
    combination of residuals to the q-power combination of their steps,
    each reduced to zero or joined.  A fully reduced basis is unique, so the
    rows sorted by pivot are the RREF."""
    ech = Echelon(space.field.k, m * space.nprime)
    queue = deque(rows)
    while queue:
        if ech.add(queue.popleft()) is not None:
            queue.append(frobenius_step(ech.rows[ech.n - 1:ech.n], space)[0])
    return ech.sorted()


def _check_rows(F, m):
    """A polynomial with more than m rows raises MalformedInput."""
    for lp in F:
        if lp.m > m:
            raise MalformedInput(f"a polynomial has {lp.m} rows, more than m = {m}")


def _gcd_kernel(space, blocks):
    """The monic symbolic gcd g of f_W and the companions `blocks`, and a
    k'-basis of the kernel of L(g) in W (W coordinates), checked to have
    deg g elements."""
    g = tuple(space.fW)
    for block in blocks:
        g = symbolic_gcd(space.field, g, block)
    kernel = space.kernel_in_W(g)
    if len(kernel) != univar.degree(g):
        raise RuntimeError(f"kernel dimension {len(kernel)} != deg g = {univar.degree(g)}")
    return g, kernel


def reducibility_check(F, space, m):
    """Stage-by-stage witnesses, decided by the pivot count of each stage.

    `forms_matrix` is the RREF of U (`_frobenius_closure`) for the input
    forms, their companions reduced mod f_W.  The candidate space at stage i
    is the k-span of the rows whose pivot sits in stage i; a witness is any
    combination whose stage-i companion has trivial symbolic gcd with f_W
    (equivalently, acts injectively on W).

    U = V_q cap S_1, the linear forms of the degree-q closed span of the
    forms plus the `build_Qbar` relations, on which the test is stated.
    U lies in V_q cap S_1: every row of `span_closure(..., q)` of degree < q
    is multiplied by every variable while the degree stays <= q, so l^q is
    in the span for a linear form l in it, and l^q - step(l) is a
    k-combination of the relations, which have degree q.  Conversely, the
    relations are a Groebner basis (their leading terms x_{ij}^q are
    pairwise coprime) whose q^{mn'} standard monomials match the q^{mn'}
    distinct k-rational points of W^m, so k[x]/(Qbar) is the ring of
    k-valued functions on W^m.  So J = (U, Qbar), which holds V_q, is
    radical, and its linear forms are those that vanish on Z, the common
    zeros of U in W^m.  A linear form is a map in Hom_k'(W^m, k) =
    Hom_k'(W^m, k') (x) k, on which the step acts as sigma on k.  By Galois
    descent the sigma-stable U is U_0 (x) k, so Z = Ann(U_0), and a form
    that vanishes on Z has every k'-component in Ann(Ann(U_0)) = U_0.

    Lemma.  For every active stage i, the number of echelon rows with pivot
    in stage i is n' - deg h, where h is the monic right symbolic gcd of f_W
    and the stage-i companions.  So stage i has a witness iff it has n'
    echelon rows; then the stage-i blocks of those rows are the unit
    vectors, and the first of them, whose stage companion is 1, is the
    witness.

    Proof.  On a stage block the step is left multiplication by x in
    k[x;sigma] modulo the left ideal k[x;sigma] f_W (f_W has k'
    coefficients), and it preserves stage support.  Hence the stage-i
    projections P_i of the forms of U that vanish on the stages before i
    form the left submodule of k[x;sigma]/k[x;sigma] f_W that the stage-i
    companions generate.  Every left ideal of k[x;sigma] is principal (Ore,
    Trans. AMS 1933), so P_i = k[x;sigma] h / k[x;sigma] f_W, of
    k-dimension n' - deg h, which in RREF is the number of rows whose pivot
    lies in stage i.

    For the certificate: L(f_W) splits in k with simple roots (its
    x-coefficient is nonzero, as f_W divides x^n - 1), so the right
    component h of f_W has exactly q^{deg h} roots, all in W; they are the
    common kernel of the stage companions in W.  A stage with fewer than n'
    rows returns h, folded by `symbolic_gcd` and checked against the pivot
    count rather than assumed, with a kernel vector.
    """
    field = space.field
    _check_rows(F, m)
    n1 = space.nprime
    if m == 1:
        return ReducibilityReport(True, {}, (), (0,))
    R, pivots = _frobenius_closure([linearized_to_form(lp, space, m) for lp in F], space, m)
    stage_of = [p // n1 for p in pivots]
    counts = [stage_of.count(i) for i in range(m)]
    active = tuple(i for i in range(m - 1) if counts[i] > 0)

    witnesses = {}
    for stage in active:
        rows = [[int(x) for x in R[r]] for r, s in enumerate(stage_of) if s == stage]
        if counts[stage] == n1:
            witnesses[stage] = LinearizedPoly(
                field, [rows[0][i * n1:(i + 1) * n1] for i in range(m)], bound=n1)
            continue
        gcd, kernel = _gcd_kernel(space, [row[stage * n1:(stage + 1) * n1] for row in rows])
        if univar.degree(gcd) != n1 - counts[stage]:
            raise RuntimeError(f"stage {stage}: gcd degree {univar.degree(gcd)} != "
                               f"n' - pivot count {n1 - counts[stage]}")
        w = space.from_coords(tuple(int(c) for c in kernel[0]))
        return ReducibilityReport(
            False, witnesses, active, tuple(counts), failed_stage=stage,
            forms_matrix=R, certificate=gcd, kernel_vector=w)
    return ReducibilityReport(True, witnesses, active, tuple(counts), forms_matrix=R)


@dataclass
class EliminationTrace:
    substitutions: dict      # stage s -> LinearizedPoly over the remaining stages, x_s on Z
    final_gcd: tuple         # companion whose kernel in W is the last coordinate on Z
    active_stages: tuple


class SolutionBasis:
    """k'-basis of the solution subspace of W^m, canonical coordinates."""

    def __init__(self, space, m, generators, coord_matrix, trace=None, reducible=None):
        self.space = space
        self.m = m
        self.generators = tuple(tuple(g) for g in generators)
        self.coord_matrix = coord_matrix
        self.trace = trace
        self.reducible = reducible

    @property
    def dim(self):
        return len(self.generators)

    def __repr__(self):
        return f"SolutionBasis(dim={self.dim}, m={self.m})"


def _canonical_basis(space, m, coords, trace=None, reducible=None):
    """The basis of the k'-span of `coords`, rows of m n' W-coordinates in
    stage-major order, in RREF."""
    n1 = space.nprime
    R, _ = rref(np.array(coords, dtype=DTYPE).reshape(len(coords), m * n1), space.field.kprime)
    gens = [[space.from_coords(row[i * n1:(i + 1) * n1]) for i in range(m)] for row in R.tolist()]
    return SolutionBasis(space, m, gens, R, trace=trace, reducible=reducible)


def solve_structured(F, space, m, report=None):
    """A k'-basis of Z, the common zeros of F in W^m, read off the echelon
    rows of U (`report.forms_matrix`, see :func:`reducibility_check`).

    Requires the system to be reducible (NotReducible otherwise).  Its
    active stages are eliminated; the other stages before m - 1 are free.

    * An eliminated stage s has n' echelon rows, so its stage block is the
      identity.  Every column of an eliminated stage is a pivot column, so
      the first of those rows, the witness, is zero on every earlier stage
      and every other eliminated stage: it reads x_{s,0} + l_s with l_s a
      linear form on the free stages and the last stage alone.  On Z
      therefore x_s = -l_s(x), and `trace.substitutions[s]` is -l_s;
      nothing needs composing.
    * The rows whose pivot lies in the last stage are zero on every earlier
      stage, so on Z the last coordinate lies in the kernel in W of g =
      `trace.final_gcd`, the symbolic gcd of f_W and their last-stage
      blocks.  For m = 1 there is no closure, and the input companions
      generate the same gcd.

    So the projection of Z onto its free and last coordinates is injective
    (each eliminated x_s is -l_s of them) and lands in W^#free x ker L(g).
    The pivot-count lemma, whose proof holds for the last stage as well,
    gives dim_k U = #eliminated n' + n' - deg g; Z = Ann(U_0) has
    k'-dimension m n' - dim_k U = #free n' + deg g, the dimension of that
    target.  So the projection is a bijection, and filling x_s = -l_s(x)
    into a basis of the target gives a basis of Z, inside W^m.
    """
    field = space.field
    _check_rows(F, m)
    n1, last = space.nprime, m - 1
    F_live = [lp for lp in F if not lp.is_zero()]
    if report is None:
        report = reducibility_check(F_live, space, m=m)
    if not report.reducible:
        raise NotReducible(report.failed_stage, report.certificate)

    if report.forms_matrix is None:
        last_blocks = [linearized_to_form(lp, space, 1).tolist() for lp in F_live]
    else:
        last_blocks = [row[last * n1:] for row in report.forms_matrix.tolist()
                       if not any(row[:last * n1])]
    g, kernel_coords = _gcd_kernel(space, last_blocks)

    substitutions = {}
    for s in report.active_stages:
        rows = [[field.neg(c) for c in row] for row in report.witnesses[s].coeffs]
        rows[s] = []
        substitutions[s] = LinearizedPoly(field, rows, bound=n1)
    starts = [(s, w) for s in range(last) if s not in substitutions for w in space.basis_W]
    starts += [(last, space.from_coords(tuple(int(c) for c in co))) for co in kernel_coords]
    raw = []
    for s, w in starts:
        point = [0] * m
        point[s] = w
        for t, sub in substitutions.items():
            point[t] = sub.eval(point)
        raw.append(tuple(point))

    coords = []
    for gen in raw:
        if any(lp.eval(gen) for lp in F_live):
            raise RuntimeError("structured solution fails an input polynomial")
        row = [space.coords_of(x) for x in gen]
        if None in row:
            raise RuntimeError("generator coordinate escaped W")
        coords.append([c for co in row for c in co])
    trace = EliminationTrace(substitutions, g, report.active_stages)
    return _canonical_basis(space, m, coords, trace=trace, reducible=True)


def brute_force_solve(F, space, m):
    """Independent oracle: each linearized polynomial restricted to W^m is a
    k'-linear map into k, so the solution set is the kernel of one stacked
    matrix over k'.  No reducibility assumption."""
    field = space.field
    _check_rows(F, m)
    n1 = space.nprime
    blocks = [np.zeros((0, m * n1), dtype=DTYPE)]
    for lp in F:
        if lp.is_zero():
            continue
        block = np.zeros((field.n, m * n1), dtype=DTYPE)
        for s in range(lp.m):
            companion = univar.mod(field.k, lp.per_var(s), tuple(space.fW))
            block[:, s * n1:(s + 1) * n1] = space.operator_matrix(companion)
        blocks.append(block)
    return _canonical_basis(space, m, kernel_basis(np.concatenate(blocks), field.kprime))


def subspace_equal(a, b):
    """Exact equality of solution subspaces via the canonical coordinates."""
    if a.m != b.m or a.space.fW != b.space.fW:
        return False
    return (a.coord_matrix.shape == b.coord_matrix.shape
            and bool(np.array_equal(a.coord_matrix, b.coord_matrix)))


def enumerate_solutions(F, space, m, budget=4096):
    """All points of W^m annihilated by F, by exhaustive enumeration; more
    than `budget` points raise EnumerationBudgetExceeded."""
    field = space.field
    _check_rows(F, m)
    total = field.q ** (space.nprime * m)
    if total > budget:
        raise EnumerationBudgetExceeded(f"{total} points exceed the enumeration budget")
    live = [lp for lp in F if not lp.is_zero()]
    out = []
    for coords in product(list(space.elements()), repeat=m):
        if all(lp.eval(coords) == 0 for lp in live):
            out.append(tuple(coords))
    return out
