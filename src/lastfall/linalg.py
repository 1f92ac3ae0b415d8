"""Small dense linear algebra over field codes.

Matrices are numpy int16 arrays of codes.  Every function takes the
arithmetic of the coefficient field as one ``gf.FieldOps`` object
(``field.k`` or ``field.kprime``), whose row operations do the elimination.

Every elimination in the package is an ``Echelon``: a fully reduced row
echelon basis grown one vector at a time.  ``rref`` adds the rows of a
matrix to one; the span engine's dense store, the points oracle and the
Frobenius closure of ``linsys`` keep one open.
"""

import numpy as np

DTYPE = np.int16


def reduce_row(vec, rows, pivcols, ops):
    """vec minus the combination of the fully reduced rows that clears every
    pivot column; one vectorised step, since each pivot column holds a single
    1 in its own row."""
    coef = vec[pivcols]
    hit = coef.nonzero()[0]
    if len(hit) == 0:
        return vec
    return ops.sub_combination(vec, coef[hit], rows[hit])


class Echelon:
    """A fully reduced row echelon basis of ``ncols``-column code vectors.

    ``rows[:n]`` are the basis rows in insertion order and ``pivcols[:n]``
    their pivot columns: each row is 1 at its pivot, and every pivot column
    is zero outside its own row.  The pivot of a new row is its first
    nonzero entry (``PIVOT = 0``); a subclass sets ``PIVOT = -1`` for the
    last.  A fully reduced basis of a given span with a given pivot rule is
    unique, so the order of insertion does not change ``sorted()``.
    """

    PIVOT = 0

    def __init__(self, ops, ncols):
        self.ops = ops
        self.rows = np.zeros((0, ncols), dtype=DTYPE)
        self.pivcols = np.zeros(0, dtype=np.int64)
        self.n = 0

    def add(self, vec):
        """Reduce vec and store the residual as a new row, scaled to 1 at its
        pivot, which is cleared from every other row.  Returns the pivot
        column, or None when vec lies in the span."""
        ops, n = self.ops, self.n
        vec = reduce_row(vec, self.rows[:n], self.pivcols[:n], ops)
        nz = vec.nonzero()[0]
        if len(nz) == 0:
            return None
        p = int(nz[self.PIVOT])
        c = int(vec[p])
        if c != 1:
            vec = ops.vmul(ops.inv(c), vec)
        col = self.rows[:n, p]
        hits = col.nonzero()[0]
        if len(hits):
            self.rows[hits] = ops.sub_mul(self.rows[hits], col[hits, None], vec)
        if n == len(self.rows):
            # the rank never exceeds the column count
            grown = np.zeros((min(max(16, 2 * n), self.rows.shape[1]), self.rows.shape[1]),
                             dtype=DTYPE)
            grown[:n] = self.rows
            self.rows = grown
            self.pivcols = np.resize(self.pivcols, len(grown))
        self.rows[n] = vec
        self.pivcols[n] = p
        self.n = n + 1
        return p

    def widen(self, ncols):
        """Append zero columns up to ncols."""
        grown = np.zeros((len(self.rows), ncols), dtype=DTYPE)
        grown[:, : self.rows.shape[1]] = self.rows
        self.rows = grown

    def sorted(self):
        """(rows by ascending pivot, pivots), the rows as a new int16 matrix."""
        perm = np.argsort(self.pivcols[: self.n])
        return self.rows[perm], self.pivcols[perm].tolist()


def rref(mat, ops):
    """Reduced row echelon form with leftmost pivots.

    Returns (R, pivot_cols); R has the pivot rows first, zero rows dropped.
    """
    m = np.array(mat, dtype=DTYPE)
    if m.ndim != 2:
        raise ValueError("matrix expected")
    ech = Echelon(ops, m.shape[1])
    for row in m:
        ech.add(row)
    return ech.sorted()


def kernel_basis(mat, ops):
    """Basis of the right kernel {x : mat @ x = 0}, canonical per-free-column."""
    r, pivots = rref(mat, ops)
    ncols = r.shape[1]
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = np.zeros(ncols, dtype=DTYPE)
        v[fc] = 1
        for row_idx, pc in enumerate(pivots):
            v[pc] = ops.neg(int(r[row_idx, fc]))
        basis.append(v)
    return basis
