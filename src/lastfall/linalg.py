"""Small dense linear algebra over field codes.

Matrices are numpy int16 arrays of codes.  Every function takes the
arithmetic of the coefficient field as one ``gf.FieldOps`` object
(``field.k`` or ``field.kprime``), whose row operations do the elimination.

Besides the one-shot ``rref``, this module holds the incremental echelon
kernel (``reduce_row``, ``insert_row``) that the span engine's dense store,
the points oracle and the Frobenius closure of ``linsys`` share.
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


def insert_row(rows, pivcols, n, vec, p, ops):
    """Store vec, already reduced against rows[:n], as row n with pivot
    column p: scaled to 1 there, and p cleared from every other row."""
    c = int(vec[p])
    if c != 1:
        vec = ops.scale(ops.inv(c), vec)
    col = rows[:n, p]
    hits = col.nonzero()[0]
    if len(hits):
        rows[hits] = ops.rows_sub_scaled(rows[hits], col[hits].copy(), vec)
    rows[n] = vec
    pivcols[n] = p


def rref(mat, ops):
    """Reduced row echelon form with leftmost pivots.

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
            m[rank] = ops.scale(ops.inv(c), m[rank])
        colvals = m[:, col].copy()
        colvals[rank] = 0
        hit = np.nonzero(colvals)[0]
        if len(hit):
            m[hit] = ops.rows_sub_scaled(m[hit], colvals[hit], m[rank])
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return m[:rank], pivots


def rank(mat, ops):
    if len(mat) == 0:
        return 0
    return len(rref(mat, ops)[1])


def kernel_basis(mat, ops, ncols=None):
    """Basis of the right kernel {x : mat @ x = 0}, canonical per-free-column."""
    m = np.array(mat, dtype=DTYPE)
    if m.size == 0:
        n = ncols if ncols is not None else (m.shape[1] if m.ndim == 2 else 0)
        return [np.eye(n, dtype=DTYPE)[i] for i in range(n)]
    r, pivots = rref(m, ops)
    ncols = m.shape[1]
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = np.zeros(ncols, dtype=DTYPE)
        v[fc] = 1
        for row_idx, pc in enumerate(pivots):
            v[pc] = ops.neg(int(r[row_idx, fc]))
        basis.append(v)
    return basis


def solve(mat, rhs, ops):
    """One solution of mat @ x = rhs, or None when inconsistent."""
    m = np.array(mat, dtype=DTYPE)
    b = np.array(rhs, dtype=DTYPE).reshape(-1, 1)
    aug = np.hstack([m, b])
    r, pivots = rref(aug, ops)
    ncols = m.shape[1]
    x = np.zeros(ncols, dtype=DTYPE)
    for row_idx, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = r[row_idx, ncols]
    return x

