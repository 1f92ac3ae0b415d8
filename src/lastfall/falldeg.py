"""Degree-capped span closure, fall profiles and the last fall degree.

The central object is the smallest coefficient-field vector space of
polynomials of degree <= i that contains every generator of degree <= i and
is closed under multiplication whenever the product stays within degree i.
Because the polynomial ring is a domain, a polynomial multiplier decomposes
into single-variable steps none of which overshoots the degree bound, so
closing under the variable shifts alone already yields the full space.

The engine keeps the space as a fully reduced row echelon basis over the
grevlex monomial enumeration (largest monomial rightmost): each row's pivot
is its largest monomial, scaled to 1, and every pivot column is zero
outside its own row.  A new vector is therefore reduced in one
vectorised step, by subtracting each row times the vector's entry in that
row's pivot column, and the basis of a given space is unique, so equal spans
give identical matrices.  Under such an enumeration a row's leading monomial
determines its degree and no combination of rows can cancel leading
monomials, so the dimension of the space intersected with the polynomials of
degree <= j is simply the number of pivots of degree <= j.

The rows live in one of three stores behind the same four operations
(shifted candidate, vector of a polynomial, ``add``, ``sorted``), picked from
the coefficient field alone.  Over GF(2) a row is a Python int with bit c set
for column c (the row packing of M4RI; Albrecht, Bard & Hart, ACM TOMS
2010), so the pivot is the top bit, and a candidate is reduced by XOR-ing in
the row of each of its set pivot bits.  One pass over those bits suffices:
a fully reduced row has no pivot column set but its own, so XOR-ing it in
changes no other pivot bit.  Over GF(3) a row is a pair of Python ints, the
bitsets of its entries 1 and of its entries 2 (bitslicing; Boothby &
Bradshaw, arXiv:0901.1413), reduced in the same one pass, each row added or
subtracted by the candidate's digit at its pivot.  Over any other field a
row is an int16 code vector of a ``linalg.Echelon`` that pivots on the last
nonzero column.  All three stores hold the same canonical basis, and
``span_closure`` unpacks it to the same int16 matrix.  Once 1 enters the
span, the span is the whole truncated ring at every later level, so the
engine stops closing and ``span_closure`` returns the identity.

Not every product is formed: a row is shifted only by the variables up to
its tag (the XL rule; Courtois, Klimov, Patarin & Shamir, EUROCRYPT 2000).
A row made from the candidate x_v * r whose pivot is still x_v times the
pivot of r gets the tag v; a generator, or a row whose leading monomial
dropped in the reduction, gets the last variable.  Nothing is lost.  A row
r of tag w is c x_w r0 + g, r0 the row that was shifted and LM(g) < LM(r);
later clearing changes only g.  For v > w, x_v r = c x_w (x_v r0) + x_v g.
Written out in rows, every product on the right has a leading monomial
below x_v LM(r) except x_w s, s the row with pivot x_v LM(r0), whose
multiplier w is below v.  By induction on the pair (leading monomial,
multiplier), the skipped product lies in the span of the kept ones.

The columns themselves depend only on the number of variables, so they are
built once per variable count and shared: a ``_Layout`` holds the monomial
enumeration, its inverse, the degree of each column and the shift map of
each variable (column of e -> column of e * x_v), as lists for the bitset
stores and as int64 arrays for the dense one.  It is cached at module level
and grows a degree block at a time on demand; every engine of that variable
count reads it and none writes to it, and a ``DegreeSpan`` takes only its
prefix up to the cap.

A fall at degree i means that closing at degree i produced new elements of
degree <= i-1 beyond the closure at i-1; the last fall degree is the largest
such i (0 when no fall ever happens, a convention that keeps max() formulas
with other bounds valid).  Termination is certified against an ideal
truncation oracle: once every truncated dimension of the span agrees with
that of the full ideal up to some degree D that also dominates the largest
degree in a reduced Groebner basis, the division algorithm (under grevlex,
as under any degree-compatible order) rebuilds ideal elements within their
own degree, so no fall can occur beyond D.  The span itself does not depend
on the order: grevlex only fixes its columns.
"""

import functools
import heapq
import math
import operator
from collections import deque
from dataclasses import asdict, dataclass
from itertools import chain

import numpy as np

from .errors import (DegreeTooHigh, EnumerationBudgetExceeded, MalformedInput,
                     OracleInconsistent, RingMismatch, StepBudgetExceeded, as_int)
from .linalg import DTYPE, Echelon, reduce_row
from .poly import (NEG_INF, MultiPoly, grevlex_descending_key, grevlex_key, monomials_of_degree,
                   sum_terms)


class _DenseRows(Echelon):
    """Basis rows of any field as int16 code vectors: an ``Echelon`` whose
    pivot is the largest monomial, the last nonzero column."""

    PIVOT = -1

    def __init__(self, ops):
        super().__init__(ops, 0)
        self.shifts = []

    def add_columns(self, ncols, shifts):
        """Widen the rows to ncols columns; shifts[v] maps every column below
        the top degree block to its product with variable v (the layout's
        ``shift_arrays``)."""
        self.widen(ncols)
        self.shifts = shifts

    def vector(self, terms, col_of):
        vec = np.zeros(self.rows.shape[1], dtype=DTYPE)
        for e, c in terms.items():
            vec[col_of[e]] = c
        return vec

    def shifted(self, r, v):
        row = self.rows[r]
        support = row.nonzero()[0]
        vec = np.zeros(self.rows.shape[1], dtype=DTYPE)
        vec[self.shifts[v][support]] = row[support]
        return vec


class _BitRows:
    """Basis rows over GF(2) as Python ints, bit c set for column c.

    In RREF a row's pivot is its top bit.  ``owner[c]`` is the row whose
    pivot is column c, and ``holders[c]`` the bitset of rows with column c
    set, so an insertion finds the rows to clear without scanning them.
    """

    def __init__(self):
        self.rows = []
        self.pivmask = 0
        self.owner = []
        self.holders = []
        self.shifts = []

    def add_columns(self, ncols, shifts):
        """As ``_DenseRows.add_columns``, with the shift maps as lists (the
        layout's ``shifts``); a bitset needs no widening."""
        grow = ncols - len(self.owner)
        self.owner.extend([None] * grow)
        self.holders.extend([0] * grow)
        self.shifts = shifts

    def vector(self, terms, col_of):
        vec = 0
        for e, c in terms.items():
            if c:  # the one nonzero code is 1
                vec |= 1 << col_of[e]
        return vec

    def shifted(self, r, v):
        row, shift, vec = self.rows[r], self.shifts[v], 0
        while row:
            low = row & -row
            vec |= 1 << shift[low.bit_length() - 1]
            row ^= low
        return vec

    def add(self, vec):
        """As ``Echelon.add``, with the pivot at the top bit.  One pass over
        the pivot bits of vec is a full reduction: a fully reduced row has no
        pivot column but its own set, so XOR-ing it in flips no other pivot
        bit."""
        rows, owner = self.rows, self.owner
        hit = vec & self.pivmask
        while hit:
            low = hit & -hit
            vec ^= rows[owner[low.bit_length() - 1]]
            hit ^= low
        if not vec:
            return None
        p = vec.bit_length() - 1
        n = len(rows)
        # the rows holding column p lose it; each of them, and the new row,
        # flips every column of vec
        clear = self.holders[p]
        h = clear
        while h:
            low = h & -h
            rows[low.bit_length() - 1] ^= vec
            h ^= low
        flip = clear | 1 << n
        holders, x = self.holders, vec
        while x:
            low = x & -x
            holders[low.bit_length() - 1] ^= flip
            x ^= low
        rows.append(vec)
        owner[p] = n
        self.pivmask |= 1 << p
        return p

    def sorted(self):
        """As ``Echelon.sorted``, unpacked from the bitsets."""
        rows = sorted(self.rows)  # the top bit is the pivot
        return _unpack_bits(rows, len(self.owner)), [r.bit_length() - 1 for r in rows]


def _unpack_bits(ints, ncols):
    """The bitsets as the rows of an int16 0/1 matrix of ncols columns."""
    width = (ncols + 7) // 8
    packed = np.frombuffer(b"".join(x.to_bytes(width, "little") for x in ints),
                           dtype=np.uint8).reshape(len(ints), width)
    return np.unpackbits(packed, axis=1, count=ncols, bitorder="little").astype(DTYPE)


def _tern_add(a, b):
    """a + b for GF(3) rows (P, M)."""
    (ap, am), (bp, bm) = a, b
    both = (ap | am) & (bp | bm)
    return (ap | bp) ^ both, (am | bm) ^ both


class _TernRows:
    """Basis rows over GF(3) as pairs (P, M) of disjoint Python ints: bit c
    of P is set where the entry in column c is 1, and bit c of M where it
    is 2 (bitsliced rows; Boothby & Bradshaw, arXiv:0901.1413).

    Negating a row swaps P and M.  A sum keeps the entry where one side is
    zero and flips it where both are nonzero: 1 + 1 = 2, 2 + 2 = 1 and
    1 + 2 = 0 (``_tern_add``).  In RREF a row's pivot is the top bit of
    P | M and its digit there is 1, so the pivot is the top bit of P.
    """

    def __init__(self):
        self.rows = []
        self.pivmask = 0
        self.owner = []
        self.shifts = []

    def add_columns(self, ncols, shifts):
        """As ``_BitRows.add_columns``."""
        self.owner.extend([None] * (ncols - len(self.owner)))
        self.shifts = shifts

    def vector(self, terms, col_of):
        plus = minus = 0
        for e, c in terms.items():
            if c == 1:
                plus |= 1 << col_of[e]
            elif c == 2:
                minus |= 1 << col_of[e]
        return plus, minus

    def shifted(self, r, v):
        shift, out = self.shifts[v], []
        for x in self.rows[r]:
            vec = 0
            while x:
                low = x & -x
                vec |= 1 << shift[low.bit_length() - 1]
                x ^= low
            out.append(vec)
        return tuple(out)

    def add(self, vec):
        """As ``Echelon.add``, with the pivot at the top bit.  One pass over
        the pivot columns of vec is a full reduction: a fully reduced row has
        no pivot column but its own set, so the digit of vec at each pivot
        is the one it had before the pass.  A digit 1 subtracts the row (adds
        its negation), a digit 2 adds it."""
        rows, owner, pivmask = self.rows, self.owner, self.pivmask
        hit_plus, hit_minus = vec[0] & pivmask, vec[1] & pivmask
        while hit_plus:
            low = hit_plus & -hit_plus
            rp, rm = rows[owner[low.bit_length() - 1]]
            vec = _tern_add(vec, (rm, rp))
            hit_plus ^= low
        while hit_minus:
            low = hit_minus & -hit_minus
            vec = _tern_add(vec, rows[owner[low.bit_length() - 1]])
            hit_minus ^= low
        plus, minus = vec
        if not plus | minus:
            return None
        p = (plus | minus).bit_length() - 1
        if minus >> p:  # scale by 2 = -1, so that the pivot digit is 1
            vec = minus, plus
        neg = vec[1], vec[0]
        # clear column p: a row with digit 1 there takes -vec, one with 2
        # takes vec; only a row whose pivot lies above p can hold column p
        above = pivmask >> p + 1
        while above:
            low = above & -above
            r = owner[p + low.bit_length()]
            rp, rm = row = rows[r]
            if rp >> p & 1:
                rows[r] = _tern_add(row, neg)
            elif rm >> p & 1:
                rows[r] = _tern_add(row, vec)
            above ^= low
        owner[p] = len(rows)
        rows.append(vec)
        self.pivmask = pivmask | 1 << p
        return p

    def sorted(self):
        """As ``Echelon.sorted``, unpacked from the bitsets: P + 2 M."""
        rows = sorted(self.rows)  # the top bit of P is the pivot
        ncols = len(self.owner)
        matrix = (_unpack_bits([rp for rp, _ in rows], ncols)
                  + 2 * _unpack_bits([rm for _, rm in rows], ncols))
        return matrix, [rp.bit_length() - 1 for rp, _ in rows]


def _row_store(ops):
    """An empty row store for the field of ``ops``: bitsets over GF(2),
    pairs of bitsets over GF(3), int16 code vectors over any other field."""
    if ops.order == 2:
        return _BitRows()
    if ops.order == 3:
        return _TernRows()
    return _DenseRows(ops)


class _Layout:
    """The span engine's columns for one variable count, shared by every
    engine of that count (``_layout``).

    Column c is ``monos[c]``: the monomials of degree 0, 1, ... in turn,
    ascending in grevlex inside each degree, so ``col_of`` inverts
    ``monos``, ``col_deg[c]`` is the degree of column c and
    ``deg_start[d + 1]`` the number of columns of degree <= d.
    ``shifts[v][c]`` is the column of ``monos[c]`` times variable v, for
    every column below the top degree block; ``shift_arrays`` holds the
    same maps as int64 arrays.  ``grow`` only appends: it adds degree
    blocks and extends the lists in place, so no column an engine has read
    ever changes, and engines read the layout and never write to it.
    """

    def __init__(self, nvars):
        self.nvars = nvars
        self.monos = []
        self.col_of = {}
        self.col_deg = []
        self.deg_start = [0]
        self.shifts = [[] for _ in range(nvars)]
        self._arrays = None

    def grow(self, d):
        """Add the degree blocks up to d, with the shift maps of every
        column of degree below d."""
        monos, col_of = self.monos, self.col_of
        while len(self.deg_start) <= d + 1:
            i = len(self.deg_start) - 1
            block = monomials_of_degree(self.nvars, i)
            for e in block:
                col_of[e] = len(monos)
                monos.append(e)
            self.col_deg.extend([i] * len(block))
            self.deg_start.append(len(monos))
            if i >= 1:
                below = monos[self.deg_start[i - 1]: self.deg_start[i]]
                for v, shift in enumerate(self.shifts):
                    shift.extend(col_of[e[:v] + (e[v] + 1,) + e[v + 1:]] for e in below)
            self._arrays = None

    def shift_arrays(self):
        """``shifts`` as int64 arrays, built once per growth of the layout."""
        if self._arrays is None:
            self._arrays = [np.array(shift, dtype=np.int64) for shift in self.shifts]
        return self._arrays


@functools.lru_cache(maxsize=None)
def _layout(nvars):
    """The one shared ``_Layout`` of nvars variables."""
    return _Layout(nvars)


class _SpanEngine:
    """Incremental span closure, one degree level at a time.

    Candidates (the generators of each degree, then every row one degree
    below the level times each variable up to its tag) wait in a FIFO
    queue and are added to a row store.  The store is picked from the
    field: over GF(2) a row is a Python int bitset (``_BitRows``), over
    GF(3) a pair of them (``_TernRows``), over any other field an int16
    code vector (``_DenseRows``).  All three keep the basis in RREF with the
    pivot at the largest monomial, so they hold the same rows.

    Each row keeps its pivot and its tag, the last variable it is shifted
    by (the XL rule of the module docstring), and each degree its row
    count, so ``dim_leq`` is a prefix sum.

    The columns and shift maps come from the ``_Layout`` of the ring's
    variable count, built once per count and read by every engine of it.
    An engine builds no columns: at each level it asks the layout to reach
    that degree, which is a no-op once an earlier engine of the count got
    there.
    """

    def __init__(self, system):
        ring = system.ring
        self.ring = ring
        self.layout = _layout(ring.nvars)
        self.store = _row_store(ring.ops)
        self.by_degree = {}
        for f in system.polys:
            if f.is_zero():
                continue
            self.by_degree.setdefault(int(f.degree), []).append(f)
        self.level = -1
        self.row_piv = []  # pivot column of each row, in insertion order
        self.row_tag = []  # the last variable each row is shifted by
        self.deg_rows = []  # number of rows of each degree
        # 1 is in the span, which is then the whole truncated ring at every
        # level from here on; the engine stops closing
        self.unit = False

    # -- level processing --------------------------------------------------

    def advance(self):
        i = self.level + 1
        lay = self.layout
        lay.grow(i)
        ncols = lay.deg_start[i + 1]
        self.level = i
        self.deg_rows.append(0)
        if self.unit:
            return
        store = self.store
        store.add_columns(ncols, lay.shift_arrays() if isinstance(store, _DenseRows)
                          else lay.shifts)

        col_of, col_deg, shifts = lay.col_of, lay.col_deg, lay.shifts
        row_piv, row_tag, top = self.row_piv, self.row_tag, self.ring.nvars - 1
        queue = deque((r, w) for r, p in enumerate(row_piv) if col_deg[p] == i - 1
                      for w in range(row_tag[r] + 1))
        queue.extend((f, None) for f in self.by_degree.get(i, []))
        while queue:
            a, v = queue.popleft()
            if v is None:
                vec = store.vector(a.terms, col_of)
            else:
                vec = store.shifted(a, v)
            p = store.add(vec)
            if p is None:
                continue
            new_row = len(row_piv)
            if new_row >= ncols:
                # the rank never exceeds the column count: a store that hands
                # back an owned pivot would otherwise loop forever
                raise RuntimeError(f"row store grew past its {ncols} columns at degree {i}")
            # x_v * a kept its leading monomial: tag v (the XL rule)
            tag = v if v is not None and p == shifts[v][row_piv[a]] else top
            row_piv.append(p)
            row_tag.append(tag)
            self.deg_rows[col_deg[p]] += 1
            if p == 0:
                self.unit = True
                return
            if col_deg[p] <= i - 1:
                queue.extend((new_row, w) for w in range(tag + 1))

    # -- dimensions ----------------------------------------------------------

    def dim_leq(self, j):
        j = min(j, self.level)
        if j < 0:
            return 0
        if self.unit:
            return self.layout.deg_start[j + 1]
        return sum(self.deg_rows[: j + 1])


class DegreeSpan:
    """Snapshot of the closed span at a degree cap: the canonical reduced row
    echelon basis over the grevlex monomial enumeration (pivot = rightmost
    nonzero entry, rows in ascending pivot order)."""

    def __init__(self, ring, degree_cap, monomials, matrix, pivots, row_degrees):
        self.ring = ring
        self.degree_cap = degree_cap
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
            raise RingMismatch("polynomial from another ring")
        if f.degree > self.degree_cap:
            raise DegreeTooHigh(f"degree {f.degree} exceeds cap {self.degree_cap}")
        vec = np.zeros(len(self.monomials), dtype=DTYPE)
        for e, c in f.terms.items():
            vec[self._col_of[e]] = c
        return vec

    def reduce(self, f):
        """Residual of f against the basis (zero vector iff f is in the span)."""
        return reduce_row(self.vector_of(f), self.matrix, self._pivcols, self.ring.ops)

    def contains(self, f):
        return not np.any(self.reduce(f))

    def row_poly(self, r):
        row = self.matrix[r]
        terms = {self.monomials[c]: int(row[c]) for c in np.flatnonzero(row)}
        return MultiPoly(self.ring, terms)

    def row_polys(self):
        return [self.row_poly(r) for r in range(self.dim)]


def span_closure(system, cap):
    """Close the system's low-degree span at the given degree cap.

    The basis is fully reduced (every pivot column is zero outside its own
    row) and its rows are sorted by pivot column, so equal spans have
    identical matrices.
    """
    cap = as_int(cap, "cap", least=0)
    eng = _SpanEngine(system)
    for _ in range(cap + 1):
        eng.advance()
    lay = eng.layout
    ncols = lay.deg_start[cap + 1]  # the layout may reach beyond the cap
    if eng.unit:
        matrix, pivots = np.eye(ncols, dtype=DTYPE), range(ncols)
    else:
        matrix, pivots = eng.store.sorted()
    return DegreeSpan(system.ring, cap, lay.monos[:ncols], matrix, pivots,
                      [lay.col_deg[p] for p in pivots])


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
    order: str = "grevlex"  # the one monomial order; kept in the JSON

    @property
    def certified(self):
        return self.status == "certified"

    def to_json_obj(self):
        return {**asdict(self), "rows": [asdict(r) for r in self.rows]}

    def csv_rows(self):
        yield ("degree", "dim_V", "dim_V_cap_lower", "dim_prev", "fall")
        for r in self.rows:
            yield (r.degree, r.dim_V, r.dim_V_cap_lower, r.dim_prev, int(r.fall))


def default_cap(system):
    d = system.degree
    d = 0 if d == NEG_INF else int(d)
    q = system.ring.field.q
    return max(q * d, (q - 1) * system.ring.nvars + 1) + 2


def last_fall_degree(system, cap=None, certify=True, oracle=None):
    """Fall profile of the system up to `cap` (default from the system shape).

    With certify=True the computation stops as soon as the truncation oracle
    confirms that no fall can occur at higher degrees; an exhausted cap is
    not an error and is reported through status="cap-limited", in which case
    the reported value is only a lower bound.  An oracle that reports fewer
    ideal elements in some degrees than the span already holds raises
    OracleInconsistent.

    The oracle is the caller's, or else built at the first level that needs
    one: a ``PointsOracle`` over the ``zk_points`` of a system that holds
    x^Q - x for every variable, Q the order of the coefficient field, when
    the Q^N grid and the zero set are small enough (see ``_default_oracle``),
    and a toy Groebner run otherwise.  Both give the same profile on such a
    system.  A span that reaches 1 needs no oracle.
    """
    cap = default_cap(system) if cap is None else as_int(cap, "cap", least=1)
    eng = _SpanEngine(system)
    eng.advance()
    records = []
    prev_dim = eng.dim_leq(0)
    last_fall = 0
    certified_at = None
    orac = oracle
    if certify and eng.unit:
        certified_at = 0
    else:
        for i in range(1, cap + 1):
            eng.advance()
            dim_i = eng.dim_leq(i)
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
                orac = _default_oracle(system)
            if i >= orac.max_gb_degree() and _agrees(eng, orac, i):
                certified_at = i
                break
    status = "certified" if (certify and certified_at is not None) else "cap-limited"
    return FallProfile(tuple(records), last_fall, status, certified_at, cap)


def _agrees(eng, orac, i):
    """Whether the span's truncated dimensions equal the oracle's at every
    degree j <= i.  The span lies inside the ideal, so a span dimension above
    the oracle's proves the oracle wrong."""
    agree = True
    for j in range(i + 1):
        ours, theirs = eng.dim_leq(j), orac.dim_leq(j)
        if ours > theirs:
            raise OracleInconsistent(
                f"the span has dimension {ours} in degrees <= {j}, above the "
                f"oracle's {theirs} for the whole ideal")
        agree = agree and ours == theirs
    return agree


# -- toy Groebner engine (certification / membership oracle only) -------------


@dataclass(frozen=True)
class GroebnerStats:
    """Work counts of one groebner_toy run.

    Every pair formed is either dropped by the product criterion, dropped by
    the chain criterion or reduced, so ``pairs`` is the sum of those three;
    ``steps`` counts leading-term reductions, the final inter-reduction
    included, which is what the step budget is charged in.
    """

    pairs: int
    product_criterion: int
    chain_criterion: int
    reductions: int
    zero_reductions: int
    steps: int


class GroebnerBasis:
    def __init__(self, ring, gens, stats=None):
        self.ring = ring
        self.gens = tuple(gens)
        self.stats = stats
        self._reducers = [_reducer(g.terms) for g in self.gens]

    @property
    def leads(self):
        return tuple(le for le, _, _ in self._reducers)

    def max_degree(self):
        if not self.gens:
            return 0
        return max(int(g.degree) for g in self.gens)

    def normal_form(self, f):
        return MultiPoly(self.ring, _normal_form(f.terms, self._reducers, self.ring.ops))


def _reducer(terms):
    """(lead exponent, lead coefficient, tail terms) of a nonzero polynomial."""
    le = max(terms, key=grevlex_key)
    return le, terms[le], tuple((e, c) for e, c in terms.items() if e != le)


def _lt_divides(a, b):
    return all(map(operator.le, a, b))


def _lcm(a, b):
    return tuple(map(max, a, b))


def _normal_form(terms, reducers, ops, budget=None):
    """Remainder of the polynomial ``terms`` (exponent -> code) on division by
    ``reducers`` (see ``_reducer``), as an exponent -> code dict.

    The largest remaining term is reduced first, by the first reducer whose
    lead divides it.  The terms wait in a heap of descending grevlex keys; a
    term that cancels keeps the code 0 in ``work`` and is skipped when it
    comes up, and since every step adds only terms below the one it reduces,
    no term is queued twice.  Each step is charged to ``budget`` (a one-item list).
    """
    add, mul = ops.add, ops.mul
    desc = grevlex_descending_key
    work = dict(terms)
    heap = [(desc(e), e) for e in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        e = heapq.heappop(heap)[1]
        c = work.pop(e)
        if not c:
            continue
        for le, lc, tail in reducers:
            if _lt_divides(le, e):
                break
        else:
            remainder[e] = c
            continue
        fac = ops.neg(mul(c, ops.inv(lc)))
        delta = tuple(map(operator.sub, e, le))
        for ge, gc in tail:
            te = tuple(map(operator.add, ge, delta))
            old = work.get(te)
            if old is None:
                work[te] = mul(fac, gc)
                heapq.heappush(heap, (desc(te), te))
            else:
                work[te] = add(old, mul(fac, gc))
        if budget is not None:
            budget[0] -= 1
            if budget[0] < 0:
                raise StepBudgetExceeded("reduction budget exhausted")
    return remainder


def _spoly(a, b, lcm, ops):
    """S-polynomial of two monic reducers with the given lcm of their leads."""
    (la, _, ta), (lb, _, tb) = a, b
    da = tuple(map(operator.sub, lcm, la))
    db = tuple(map(operator.sub, lcm, lb))
    return sum_terms(chain(((tuple(map(operator.add, e, da)), c) for e, c in ta),
                           ((tuple(map(operator.add, e, db)), ops.neg(c)) for e, c in tb)),
                     ops.add)


class _PairQueue:
    """Open S-pairs of a growing basis, pruned by the Gebauer-Moeller update
    (Becker & Weispfenning, Groebner Bases, GTM 141, procedure UPDATE).

    Pairs come out smallest lcm first: keyed (grevlex key of lcm, i, j),
    the key computed once when the pair is made.  A pair the chain
    criterion later removes stays in the heap and is skipped when popped.
    """

    def __init__(self):
        self.leads = []
        self.active = []   # elements no later lead divides: the only ones paired
        self.open = {}     # (i, j) -> lcm of the leads, for every open pair
        self.heap = []
        self.pairs = self.product = self.chain = 0

    def add(self, lead):
        """Register the next basis element by its lead and update the pairs."""
        h = len(self.leads)
        self.leads.append(lead)
        fresh = [(g, _lcm(self.leads[g], lead), not any(map(min, self.leads[g], lead)))
                 for g in self.active]
        self.pairs += len(fresh)
        # chain criterion among the new pairs: drop (g, h) when the lcm of
        # another new pair, not yet dropped, divides its lcm; pairs with
        # coprime leads are kept here and fall to the product criterion
        kept = []
        for idx, (g, m, coprime) in enumerate(fresh):
            if (coprime or not any(_lt_divides(m2, m) for _, m2, _ in fresh[idx + 1:])
                    and not any(_lt_divides(m2, m) for _, m2, _ in kept)):
                kept.append((g, m, coprime))
            else:
                self.chain += 1
        # chain criterion on the open pairs: h's lead divides their lcm,
        # and neither (i, h) nor (j, h) has that same lcm
        for (i, j), m in list(self.open.items()):
            if (_lt_divides(lead, m) and _lcm(self.leads[i], lead) != m
                    and _lcm(self.leads[j], lead) != m):
                del self.open[i, j]
                self.chain += 1
        for g, m, coprime in kept:
            if coprime:
                self.product += 1  # the S-polynomial reduces to 0
                continue
            self.open[g, h] = m
            heapq.heappush(self.heap, (grevlex_key(m), g, h))
        self.active = [g for g in self.active if not _lt_divides(lead, self.leads[g])]
        self.active.append(h)

    def pop(self):
        """The next open pair (i, j, lcm), or None when none is left."""
        while self.heap:
            _, i, j = heapq.heappop(self.heap)
            m = self.open.pop((i, j), None)
            if m is not None:
                return i, j, m
        return None


def groebner_toy(system, step_budget=10**6):
    """Reduced Groebner basis by Buchberger's algorithm; desk-scale inputs only.

    Pairs are treated smallest lcm first and pruned by the Gebauer-Moeller
    criteria: the product criterion (coprime leading terms) and the chain
    criterion (a pair whose lcm is divisible by a new lead, covered by the
    new element's pairs with both members).  New pairs are formed only with
    elements whose lead no later lead divides, but every element takes part
    in the reductions.  The result's ``stats`` counts the work.

    A step budget, counted in leading-term reductions (one per term of the
    running remainder that a lead divides, over the S-polynomials and the
    final inter-reduction), guards against runaway inputs and raises
    StepBudgetExceeded when spent.
    """
    ring = system.ring
    ops = ring.ops
    budget = [step_budget]
    basis = []  # reducers of every element, in the order they were added
    queue = _PairQueue()

    def add(terms):
        le = max(terms, key=grevlex_key)
        inv = ops.inv(terms[le])
        basis.append(_reducer({e: ops.mul(inv, c) for e, c in terms.items()}))
        queue.add(le)

    for f in system.polys:
        if not f.is_zero():
            add(f.terms)
    reductions = zero = 0
    while (pair := queue.pop()) is not None:
        i, j, m = pair
        r = _normal_form(_spoly(basis[i], basis[j], m, ops), basis, ops, budget)
        reductions += 1
        if r:
            add(r)
        else:
            zero += 1

    # minimize by leading terms first, then tail-reduce: reducing every
    # element against all the others at once can drop mutually-reducing pairs
    minimal = []
    for red in sorted(basis, key=lambda red: grevlex_key(red[0])):
        if not any(_lt_divides(other[0], red[0]) for other in minimal):
            minimal.append(red)
    # every element is monic and keeps its lead, so the result is monic and
    # still sorted by lead
    final = []
    for idx, (le, lc, tail) in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1:]
        final.append(MultiPoly(ring, _normal_form({le: lc, **dict(tail)}, others, ops, budget)))
    stats = GroebnerStats(queue.pairs, queue.product, queue.chain, reductions, zero,
                          step_budget - budget[0])
    return GroebnerBasis(ring, final, stats)


def ideal_truncation_dim(gb, j):
    """dim of the ideal intersected with polynomials of degree <= j, read off
    the staircase: the monomials of degree <= j that some lead divides."""
    leads = gb.leads
    return sum(any(_lt_divides(le, e) for le in leads) for d in range(j + 1)
               for e in monomials_of_degree(gb.ring.nvars, d))


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

    A monomial is standard when its evaluation vector on the points is not
    a combination of those of smaller monomials; dim(I cap R_{<=j}) is the
    number of monomials of degree <= j minus the number of standard ones.
    The non-standard monomials are the leading monomials of I, so a divisor
    of a standard monomial is standard.

    The staircase is walked from its border, as in Buchberger-Moeller
    (Marinari, Moeller & Mora, AAECC 1993; Abbott, Bigatti, Kreuzer &
    Robbiano, J. Symb. Comp. 30, 2000).  The parent of a monomial e != 1 is
    e / x_v for the first variable x_v of e, and the children of s are
    s * x_v for v up to the first variable of s (any v for s = 1), so each
    monomial has one parent and no candidate is made twice.  The candidates
    of degree d are the children of the standard monomials of degree d - 1:
    a monomial whose parent is not standard is not standard, so it is never
    tested.  Tested in ascending monomial order, the candidates give the
    echelon and the standard set of testing every monomial.  The rejected
    candidates form the border, which holds every minimal generator of the
    leading ideal, since each of those has a standard parent.  An evaluation
    vector has one entry per point, so once the echelon holds one row per
    point every later candidate is dependent: it joins the border untested.
    A candidate is evaluated only when it is tested.

    The whole staircase is walked once, at construction, one pass per
    degree.  The walk stops at the first degree with no standard monomial,
    which has no children; there are npoints standard monomials, so that is
    at most the last standard degree plus one, and the largest degree of a
    minimal border monomial is the basis degree.  A walk that ends with
    fewer standard monomials than points raises RuntimeError.

    A point of the wrong arity, or with a coordinate that is not an integer
    code of the field, raises MalformedInput.
    """

    def __init__(self, ring, points):
        self.ring = ring
        self.ops = ring.ops
        try:
            self.points = sorted(set(tuple(map(operator.index, pt)) for pt in points))
            self.npoints = len(self.points)
            coords = np.array(self.points, dtype=np.int64).reshape(self.npoints, ring.nvars)
        except (TypeError, ValueError, OverflowError):
            raise MalformedInput(f"every point must have {ring.nvars} coordinates, "
                                 f"each a code below {self.ops.order}") from None
        if coords.size and not 0 <= coords.min() <= coords.max() < self.ops.order:
            raise MalformedInput(f"a point coordinate is not a code below {self.ops.order}")
        coord_vals = list(np.ascontiguousarray(coords.T, dtype=DTYPE))
        ops, nvars = self.ops, ring.nvars
        # the standard monomials' evaluation vectors, one row per standard
        # monomial and at most one per point
        ech = Echelon(ops, self.npoints)
        self._std = set()   # the standard monomials
        self._nstd = []     # their number in each degree
        self._border = []   # rejected candidates, in test order
        # (monomial, its parent's evaluation vector, the variable it adds),
        # and for 1 its own vector and None
        cands = [((0,) * nvars, np.ones(self.npoints, dtype=DTYPE), None)]
        while cands:
            std = {}  # this degree's standard monomials -> evaluation vectors
            for e, val, v in sorted(cands, key=lambda c: grevlex_key(c[0])):
                if ech.n < self.npoints:  # else every vector is dependent
                    if v is not None:
                        val = ops.vmul(val, coord_vals[v])
                    if ech.add(val) is not None:
                        std[e] = val
                        continue
                self._border.append(e)
            self._std.update(std)
            self._nstd.append(len(std))
            cands = [(s[:v] + (s[v] + 1,) + s[v + 1:], val, v) for s, val in std.items()
                     for v in range(next((v for v, a in enumerate(s) if a), nvars - 1) + 1)]
        if ech.n < self.npoints:
            raise RuntimeError(f"the staircase walk found {ech.n} standard monomials "
                               f"for {self.npoints} points")
        self._basis_degree = max(
            (sum(e) for e in self._border
             if all(e[:v] + (a - 1,) + e[v + 1:] in self._std for v, a in enumerate(e) if a)),
            default=0)

    def dim_leq(self, j):
        return math.comb(self.ring.nvars + j, j) - sum(self._nstd[: j + 1])

    def max_gb_degree(self):
        return self._basis_degree


# -- the default oracle ---------------------------------------------------------

# largest grid of candidate points that zk_points enumerates
ZK_BUDGET = 200_000

# largest zero set the default oracle hands to PointsOracle.  Which oracle is
# faster depends on the generators, not on the zero count alone: beside one
# random quadratic the points oracle wins from 3-8 zeros up (256 zeros over
# GF(2): 12 ms against 222 ms), but beside linear forms or none the
# Buchberger, which then has almost nothing to do, wins at every count (the
# field equations alone, 1024 zeros over GF(4): 1.3 s against 1 ms).  Up to
# 32 zeros the points oracle's staircase costs about 1 ms on GF(2) to GF(9),
# which bounds what such a system loses to it beyond the grid enumeration
_ORACLE_MAX_POINTS = 32


def zk_points(system):
    """All solutions of the system with coordinates in the coefficient field,
    in lexicographic order of the coordinate codes.  A grid of more than
    ``ZK_BUDGET`` points raises EnumerationBudgetExceeded.

    Every point is tested at once: each polynomial is evaluated over the
    whole grid with the coefficient field's row operations.  A system is
    immutable, so the zeros are enumerated once per system and kept on it;
    each call returns a new list of them.
    """
    if system._zk_points is None:
        system._zk_points = _enumerate_zeros(system)
    return list(system._zk_points)


def _enumerate_zeros(system):
    """The zeros of ``zk_points``, as a tuple."""
    ring = system.ring
    ops = ring.ops
    order = ops.order
    total = order**ring.nvars
    if total > ZK_BUDGET:
        raise EnumerationBudgetExceeded(f"enumeration of {total} points exceeds budget")
    polys = system.nonzero()
    top = max((a for f in polys for e in f.terms for a in e), default=0)
    # pow_t[x, a] = x^a
    elems = np.arange(order, dtype=DTYPE)
    pow_t = np.ones((order, top + 1), dtype=DTYPE)
    for a in range(1, top + 1):
        pow_t[:, a] = ops.vmul(pow_t[:, a - 1], elems)
    grid = np.indices((order,) * ring.nvars, dtype=DTYPE).reshape(ring.nvars, total)
    zero = np.ones(total, dtype=bool)
    for f in polys:
        acc = np.zeros(total, dtype=DTYPE)
        for e, c in f.terms.items():
            mono = np.ones(total, dtype=DTYPE)
            for i, a in enumerate(e):
                if a:
                    mono = ops.vmul(mono, pow_t[grid[i], a])
            acc = ops.sub_mul(acc, ops.neg(c), mono)
        zero &= acc == 0
    return tuple(tuple(pt) for pt in grid[:, zero].T.tolist())


def _holds_field_equations(system):
    """Whether, for every variable x, some generator is c (x^Q - x) with
    c != 0 and Q the order of the coefficient field."""
    ring = system.ring
    ops, q = ring.ops, ring.ops.order
    covered = set()
    for f in system.polys:
        if len(f.terms) != 2:
            continue
        (lo, a), (hi, b) = sorted(f.terms.items(), key=lambda t: sum(t[0]))
        if sum(lo) == 1 and hi == tuple(q * x for x in lo) and b == ops.neg(a):
            covered.add(lo.index(1))
    return len(covered) == ring.nvars


def _default_oracle(system):
    """The truncation oracle of ``last_fall_degree`` when it is given none.

    A system that holds x^Q - x for every variable x (``_holds_field_equations``)
    has a radical zero-dimensional ideal whose zeros all lie in the
    coefficient field (Seidenberg's lemma).  Its ``zk_points`` are then its
    whole zero set, and the points oracle reads the same truncated dimensions
    and basis degree as its Groebner basis.  It is taken when the Q^N grid is
    within ``ZK_BUDGET`` and the zero set within ``_ORACLE_MAX_POINTS``; any
    other system gets the toy Buchberger.
    """
    if _holds_field_equations(system):
        try:
            points = zk_points(system)
        except EnumerationBudgetExceeded:
            pass
        else:
            if len(points) <= _ORACLE_MAX_POINTS:
                return PointsOracle(system.ring, points)
    return GroebnerOracle(groebner_toy(system))
