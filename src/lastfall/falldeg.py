"""Degree-capped span closure, fall profiles and the last fall degree.

The central object is the smallest coefficient-field vector space of
polynomials of degree <= i that contains every generator of degree <= i and
is closed under multiplication whenever the product stays within degree i.
Because the polynomial ring is a domain, a polynomial multiplier decomposes
into single-variable steps none of which overshoots the degree bound, so
closing under the variable shifts alone already yields the full space.

The engine keeps the space as a fully reduced row echelon basis over a fixed
degree-compatible monomial enumeration (largest monomial rightmost): each
row's pivot is its largest monomial, scaled to 1, and every pivot column is
zero outside its own row.  A new vector is therefore reduced in one
vectorised step, by subtracting each row times the vector's entry in that
row's pivot column, and the basis of a given space is unique, so equal spans
give identical matrices.  Under such an enumeration a row's leading monomial
determines its degree and no combination of rows can cancel leading
monomials, so the dimension of the space intersected with the polynomials of
degree <= j is simply the number of pivots of degree <= j.

A fall at degree i means that closing at degree i produced new elements of
degree <= i-1 beyond the closure at i-1; the last fall degree is the largest
such i (0 when no fall ever happens, a convention that keeps max() formulas
with other bounds valid).  Termination is certified against an ideal
truncation oracle: once every truncated dimension of the span agrees with
that of the full ideal up to some degree D that also dominates the largest
degree in a reduced Groebner basis, the division algorithm (under any
degree-compatible order) rebuilds ideal elements within their own degree, so
no fall can occur beyond D.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DegreeTooHigh, StepBudgetExceeded
from .linalg import DTYPE
from .poly import NEG_INF, ORDER_KEYS, MultiPoly, monomials_of_degree


def _reduce(vec, rows, pivcols, ops):
    """vec minus the combination of the fully reduced rows that clears every
    pivot column; one vectorised step, since each pivot column holds a single
    1 in its own row."""
    coef = vec[pivcols]
    hit = coef.nonzero()[0]
    if len(hit) == 0:
        return vec
    return ops.sub_combination(vec, coef[hit], rows[hit])


class _SpanEngine:
    """Incremental span closure, one degree level at a time."""

    def __init__(self, system, order="grevlex", unit_shortcut=False):
        ring = system.ring
        self.ring = ring
        self.order = order
        self.ops = ring.ops
        self.by_degree = {}
        for f in system.polys:
            if f.is_zero():
                continue
            self.by_degree.setdefault(int(f.degree), []).append(f)
        self.level = -1
        self.monos = []
        self.col_of = {}
        self.col_deg = np.zeros(0, dtype=np.int16)
        self.deg_start = [0]  # deg_start[d+1] = number of columns of degree <= d
        self.shifts = [np.zeros(0, dtype=np.int64) for _ in range(ring.nvars)]
        self.mat = np.zeros((16, 0), dtype=DTYPE)
        self.pivcols = np.zeros(16, dtype=np.int64)  # pivot column of each row
        self.nrows = 0
        self.row_deg = []
        self.unit = False
        self.unit_shortcut = unit_shortcut
        self.saturated = False

    # -- level processing --------------------------------------------------

    def advance(self):
        i = self.level + 1
        block = monomials_of_degree(self.ring.nvars, i, self.order)
        old_cols = len(self.monos)
        for e in block:
            self.col_of[e] = len(self.monos)
            self.monos.append(e)
        ncols = len(self.monos)
        self.col_deg = np.concatenate(
            [self.col_deg, np.full(len(block), i, dtype=np.int16)])
        self.deg_start.append(ncols)
        self.level = i
        if self.saturated:
            return
        if ncols != self.mat.shape[1]:
            grown = np.zeros((self.mat.shape[0], ncols), dtype=DTYPE)
            grown[: self.nrows, :old_cols] = self.mat[: self.nrows, :old_cols]
            self.mat = grown
        if i >= 1:
            lo, hi = self.deg_start[i - 1], self.deg_start[i]
            for v in range(self.ring.nvars):
                ext = np.empty(hi - lo, dtype=np.int64)
                for idx in range(lo, hi):
                    e = list(self.monos[idx])
                    e[v] += 1
                    ext[idx - lo] = self.col_of[tuple(e)]
                self.shifts[v] = np.concatenate([self.shifts[v], ext])

        queue = deque()
        for r in range(self.nrows):
            if self.row_deg[r] == i - 1:
                for v in range(self.ring.nvars):
                    queue.append((r, v))
        for f in self.by_degree.get(i, []):
            queue.append((f, None))
        while queue:
            a, v = queue.popleft()
            if v is None:
                vec = self._vector_of(a)
            else:
                row = self.mat[a]
                support = row.nonzero()[0]
                vec = np.zeros(ncols, dtype=DTYPE)
                if len(support):
                    vec[self.shifts[v][support]] = row[support]
            new_row = self._reduce_insert(vec)
            if new_row is None:
                continue
            if self.unit and self.unit_shortcut:
                self.saturated = True
                return
            if self.row_deg[new_row] <= i - 1:
                for w in range(self.ring.nvars):
                    queue.append((new_row, w))

    def _vector_of(self, f):
        vec = np.zeros(len(self.monos), dtype=DTYPE)
        for e, c in f.terms.items():
            vec[self.col_of[e]] = c
        return vec

    def _reduce_insert(self, vec):
        """Insert the residual of vec as a new row, keeping the basis in RREF:
        the pivot is the residual's largest monomial, scaled to 1 and cleared
        from every other row."""
        ops = self.ops
        n = self.nrows
        vec = _reduce(vec, self.mat[:n], self.pivcols[:n], ops)
        nz = vec.nonzero()[0]
        if len(nz) == 0:
            return None
        p = int(nz[-1])
        c = int(vec[p])
        if c != 1:
            vec = ops.scale(ops.inv(c), vec)
        col = self.mat[:n, p]
        hits = col.nonzero()[0]
        if len(hits):
            self.mat[hits] = ops.rows_sub_scaled(self.mat[hits], col[hits].copy(), vec)
        if n == self.mat.shape[0]:
            size = max(32, 2 * n)
            grown = np.zeros((size, self.mat.shape[1]), dtype=DTYPE)
            grown[:n] = self.mat[:n]
            self.mat = grown
            self.pivcols = np.resize(self.pivcols, size)
        self.mat[n] = vec
        self.pivcols[n] = p
        self.row_deg.append(int(self.col_deg[p]))
        if p == 0:
            self.unit = True
        self.nrows += 1
        return n

    # -- dimensions ----------------------------------------------------------

    def dim(self):
        if self.saturated:
            return self.deg_start[self.level + 1]
        return self.nrows

    def dim_leq(self, j):
        j = min(j, self.level)
        if j < 0:
            return 0
        if self.saturated:
            return self.deg_start[j + 1]
        return sum(1 for d in self.row_deg if d <= j)

    def full_dim_leq(self, j):
        return self.deg_start[min(j, self.level) + 1]


class DegreeSpan:
    """Snapshot of the closed span at a degree cap: the canonical reduced row
    echelon basis over the fixed monomial enumeration (pivot = rightmost
    nonzero entry, rows in ascending pivot order)."""

    def __init__(self, ring, degree_cap, order, monomials, matrix, pivots, row_degrees):
        self.ring = ring
        self.degree_cap = degree_cap
        self.order = order
        self.monomials = tuple(monomials)
        self.matrix = matrix
        self.pivots = tuple(pivots)
        self.row_degrees = tuple(row_degrees)
        self._col_of = {e: i for i, e in enumerate(self.monomials)}
        self._pivcols = np.array(self.pivots, dtype=np.int64)

    @property
    def dim(self):
        return self.matrix.shape[0]

    def dim_leq(self, j):
        return sum(1 for d in self.row_degrees if d <= j)

    def vector_of(self, f):
        if f.ring != self.ring:
            raise ValueError("polynomial from another ring")
        if f.degree > self.degree_cap:
            raise DegreeTooHigh(f"degree {f.degree} exceeds cap {self.degree_cap}")
        vec = np.zeros(len(self.monomials), dtype=DTYPE)
        for e, c in f.terms.items():
            vec[self._col_of[e]] = c
        return vec

    def reduce(self, f):
        """Residual of f against the basis (zero vector iff f is in the span)."""
        return _reduce(self.vector_of(f), self.matrix, self._pivcols, self.ring.ops)

    def contains(self, f):
        return not np.any(self.reduce(f))

    def row_poly(self, r):
        row = self.matrix[r]
        terms = {self.monomials[c]: int(row[c]) for c in np.flatnonzero(row)}
        return MultiPoly(self.ring, terms)

    def row_polys(self):
        return [self.row_poly(r) for r in range(self.dim)]


def span_closure(system, cap, order="grevlex"):
    """Close the system's low-degree span at the given degree cap.

    The basis is fully reduced (every pivot column is zero outside its own
    row) and its rows are sorted by pivot column, so equal spans have
    identical matrices.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    eng = _SpanEngine(system, order=order, unit_shortcut=False)
    for _ in range(cap + 1):
        eng.advance()
    perm = np.argsort(eng.pivcols[: eng.nrows])
    return DegreeSpan(system.ring, cap, order, eng.monos, eng.mat[perm],
                      eng.pivcols[perm].tolist(), [eng.row_deg[r] for r in perm])


def equiv_mod(f, g, i, system, order="grevlex"):
    """Whether f - g lies in the degree-i closed span of the system."""
    diff = f - g
    if diff.degree > i:
        raise DegreeTooHigh(f"deg(f - g) = {diff.degree} > {i}")
    return span_closure(system, i, order=order).contains(diff)


# -- fall profiles ------------------------------------------------------------


@dataclass(frozen=True)
class DegreeRecord:
    degree: int
    dim_V: int
    dim_V_cap_lower: int
    dim_prev: int
    fall: bool


@dataclass(frozen=True)
class FallProfile:
    rows: tuple
    last_fall_degree: int
    status: str  # "certified" | "cap-limited"
    certified_at: object  # degree or None
    cap: int
    order: str

    @property
    def certified(self):
        return self.status == "certified"

    def to_json_obj(self):
        return {
            "last_fall_degree": self.last_fall_degree,
            "status": self.status,
            "certified_at": self.certified_at,
            "cap": self.cap,
            "order": self.order,
            "rows": [
                {"degree": r.degree, "dim_V": r.dim_V,
                 "dim_V_cap_lower": r.dim_V_cap_lower,
                 "dim_prev": r.dim_prev, "fall": r.fall}
                for r in self.rows
            ],
        }

    def csv_rows(self):
        yield ("degree", "dim_V", "dim_V_cap_lower", "dim_prev", "fall")
        for r in self.rows:
            yield (r.degree, r.dim_V, r.dim_V_cap_lower, r.dim_prev, int(r.fall))


def default_cap(system):
    d = system.degree
    d = 0 if d == NEG_INF else int(d)
    q = system.ring.field.q
    return max(q * d, (q - 1) * system.ring.nvars + 1) + 2


def last_fall_degree(system, cap=None, certify=True, order="grevlex", oracle=None):
    """Fall profile of the system up to `cap` (default from the system shape).

    With certify=True the computation stops as soon as the truncation oracle
    (a toy Groebner run by default, or a caller-supplied oracle) confirms
    that no fall can occur at higher degrees; an exhausted cap is not an
    error and is reported through status="cap-limited", in which case the
    reported value is only a lower bound.
    """
    if cap is None:
        cap = default_cap(system)
    if cap < 1:
        raise ValueError("cap must be >= 1")
    eng = _SpanEngine(system, order=order, unit_shortcut=True)
    eng.advance()
    records = []
    prev_dim = eng.dim()
    last_fall = 0
    certified_at = None
    orac = oracle
    if certify and eng.unit:
        certified_at = 0
    else:
        for i in range(1, cap + 1):
            eng.advance()
            dim_i = eng.dim()
            dim_lower = eng.dim_leq(i - 1)
            fall = dim_lower > prev_dim
            if fall:
                last_fall = i
            records.append(DegreeRecord(i, dim_i, dim_lower, prev_dim, fall))
            prev_dim = dim_i
            if not certify:
                continue
            if eng.unit:
                # the unit forces the span to the whole truncated ring, whose
                # ideal is everything: certified with no external oracle
                certified_at = i
                break
            if orac is None:
                orac = GroebnerOracle(groebner_toy(system, order=order))
            maxd = orac.max_gb_degree()
            if i >= maxd and all(eng.dim_leq(j) == orac.dim_leq(j) for j in range(i + 1)):
                certified_at = i
                break
    status = "certified" if (certify and certified_at is not None) else "cap-limited"
    if not certify:
        status = "cap-limited"
    return FallProfile(tuple(records), last_fall, status, certified_at, cap, order)


# -- toy Groebner engine (certification / membership oracle only) -------------


class GroebnerBasis:
    def __init__(self, ring, order, gens):
        self.ring = ring
        self.order = order
        self.gens = tuple(gens)

    def max_degree(self):
        if not self.gens:
            return 0
        return max(int(g.degree) for g in self.gens)

    def normal_form(self, f):
        return _normal_form(f, list(self.gens), self.order)


def _lt_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _normal_form(f, gens, order, budget=None, leads=None):
    ring = f.ring
    field = ring.field
    key = ORDER_KEYS[order]
    if leads is None:
        leads = [(g.leading(order), g) for g in gens if not g.is_zero()]
    remainder = {}
    work = dict(f.terms)
    while work:
        e = max(work, key=key)
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


def _spoly(f, g, order):
    ring = f.ring
    field = ring.field
    (fe, fc) = f.leading(order)
    (ge, gc) = g.leading(order)
    lcm = tuple(max(a, b) for a, b in zip(fe, ge))
    mf = ring.monomial(tuple(a - b for a, b in zip(lcm, fe)), field.inv(fc))
    mg = ring.monomial(tuple(a - b for a, b in zip(lcm, ge)), field.inv(gc))
    return mf * f - mg * g


def groebner_toy(system, order="grevlex", step_budget=10**6):
    """Reduced Groebner basis by plain Buchberger; desk-scale inputs only.

    A step budget (counted in leading-term reductions) guards against
    runaway inputs and raises StepBudgetExceeded when spent.
    """
    ring = system.ring
    field = ring.field
    key = ORDER_KEYS[order]
    budget = [step_budget]
    basis = []
    for f in system.polys:
        if f.is_zero():
            continue
        _, lc = f.leading(order)
        basis.append(f.scale(field.inv(lc)))
    if not basis:
        return GroebnerBasis(ring, order, ())

    leads = [(g.leading(order), g) for g in basis]
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
        r = _normal_form(_spoly(basis[i], basis[j], order), basis, order, budget, leads)
        if r.is_zero():
            continue
        _, lc = r.leading(order)
        g = r.scale(field.inv(lc))
        basis.append(g)
        leads.append((g.leading(order), g))
        new = len(basis) - 1
        pairs.update((k, new) for k in range(new))

    # minimize by leading terms first, then tail-reduce: reducing every
    # element against all the others at once can drop mutually-reducing pairs
    minimal = []
    for g in sorted(basis, key=lambda h: key(h.leading(order)[0])):
        le = g.leading(order)[0]
        if any(_lt_divides(h.leading(order)[0], le) for h in minimal):
            continue
        minimal.append(g)
    final = []
    for idx, g in enumerate(minimal):
        others = [h for k, h in enumerate(minimal) if k != idx]
        r = _normal_form(g, others, order, budget)
        _, lc = r.leading(order)
        final.append(r.scale(field.inv(lc)))
    final.sort(key=lambda h: key(h.leading(order)[0]))
    return GroebnerBasis(ring, order, final)


def ideal_truncation_dim(gb, j):
    """dim of the ideal intersected with polynomials of degree <= j, read off
    the staircase: total monomials minus standard monomials."""
    ring = gb.ring
    leads = [g.leading(gb.order)[0] for g in gb.gens]
    total = 0
    std = 0
    for d in range(j + 1):
        for e in monomials_of_degree(ring.nvars, d, gb.order):
            total += 1
            if not any(_lt_divides(le, e) for le in leads):
                std += 1
    return total - std


class GroebnerOracle:
    """Truncation oracle backed by a (toy) Groebner basis."""

    def __init__(self, gb):
        self.gb = gb
        self._memo = {}

    def max_gb_degree(self):
        return self.gb.max_degree()

    def dim_leq(self, j):
        if j not in self._memo:
            self._memo[j] = ideal_truncation_dim(self.gb, j)
        return self._memo[j]


class PointsOracle:
    """Truncation oracle for a radical zero-dimensional ideal given its full
    zero set, every coordinate lying in the coefficient field.

    dim(I cap R_{<=j}) is the number of monomials of degree <= j minus the
    rank of their evaluation vectors on the points; the staircase read off
    the rank profile also bounds the reduced-basis degree.
    """

    def __init__(self, ring, points, order="grevlex"):
        self.ring = ring
        self.order = order
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
            for e in monomials_of_degree(self.ring.nvars, d, self.order):
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
                        vec = self.ops.sub_scaled(vec, c, row)
                nz = np.flatnonzero(vec)
                if len(nz) == 0:
                    self._nonstd.append(e)
                else:
                    piv = int(nz[0])
                    c = int(vec[piv])
                    if c != 1:
                        vec = self.ops.scale(self.ops.inv(c), vec)
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
