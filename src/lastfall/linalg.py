"""Vectorised row operations and small dense linear algebra over field codes.

Three op families cover every coefficient domain used by the engines:
GF(2) (plain XOR), prime GF(p) (native modular arithmetic) and table-backed
extension fields.  Rows are numpy int16 arrays of codes; products of codes
are formed in a wide integer type and cast back, so no field order up to
``gf.MAX_ORDER`` overflows.
"""

import numpy as np

from .errors import DivisionByZero

DTYPE = np.int16


class Gf2Ops:
    order = 2

    def inv(self, c):
        if c == 0:
            raise DivisionByZero("inverse of zero")
        return 1

    def neg(self, c):
        return c

    def scale(self, c, x):
        return x if c == 1 else np.zeros_like(x)

    def sub_scaled(self, y, c, x):
        """y - c*x elementwise."""
        return y ^ x if c else y.copy()

    def rows_sub_scaled(self, rows, factors, x):
        """rows[r] - factors[r]*x for every r, vectorised."""
        return rows ^ (factors[:, None] & 1) * x

    def sub_combination(self, y, factors, rows):
        """y - sum_r factors[r]*rows[r]; every factor is nonzero."""
        return y ^ np.bitwise_xor.reduce(rows, axis=0)


class PrimeOps:
    def __init__(self, p):
        self.order = p

    def inv(self, c):
        if c == 0:
            raise DivisionByZero("inverse of zero")
        return pow(int(c), self.order - 2, self.order)

    def neg(self, c):
        return (-int(c)) % self.order

    def scale(self, c, x):
        return (int(c) * x.astype(np.int64) % self.order).astype(DTYPE)

    def sub_scaled(self, y, c, x):
        nc = self.order - int(c)
        return ((y + nc * x.astype(np.int64)) % self.order).astype(DTYPE)

    def rows_sub_scaled(self, rows, factors, x):
        nf = (self.order - factors.astype(np.int32)) % self.order
        return ((rows + nf[:, None] * x.astype(np.int32)) % self.order).astype(DTYPE)

    def sub_combination(self, y, factors, rows):
        acc = factors.astype(np.int64) @ rows.astype(np.int64)
        return ((y - acc) % self.order).astype(DTYPE)


class TableOps:
    def __init__(self, order, add_t, mul_t, neg_t, inv_t):
        self.order = order
        self.add_t = add_t
        self.mul_t = mul_t
        self.neg_t = neg_t
        self.inv_t = inv_t

    def inv(self, c):
        if c == 0:
            raise DivisionByZero("inverse of zero")
        return int(self.inv_t[c])

    def neg(self, c):
        return int(self.neg_t[c])

    def scale(self, c, x):
        return self.mul_t[c][x]

    def sub_scaled(self, y, c, x):
        nc = self.neg_t[c]
        return self.add_t[y, self.mul_t[nc][x]]

    def rows_sub_scaled(self, rows, factors, x):
        nf = self.neg_t[factors]
        return self.add_t[rows, self.mul_t[nf[:, None], x[None, :]]]

    def sub_combination(self, y, factors, rows):
        terms = self.mul_t[self.neg_t[factors][:, None], rows]
        if self.order % 2 == 0:  # characteristic 2: codes add digitwise by XOR
            return y ^ np.bitwise_xor.reduce(terms, axis=0)
        for t in terms:
            y = self.add_t[y, t]
        return y


def make_ops(field, level):
    """Row-operation kernel for coefficients in k (level='k') or k' ('kprime')."""
    if level == "kprime":
        order = field.q
    elif level == "k":
        order = field.order
    else:
        raise ValueError(f"unknown level {level!r}")
    if order == 2:
        return Gf2Ops()
    if level == "kprime" and field.e == 1:
        return PrimeOps(field.p)
    if level == "k" and field.n == 1 and field.e == 1:
        return PrimeOps(field.p)
    # subfield codes are closed under the top-field tables, so slicing works
    q = order
    return TableOps(q, field.add_table[:q, :q], field.mul_table[:q, :q],
                    field.neg_table[:q], field.inv_table[:q])


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

