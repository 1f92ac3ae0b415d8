"""The incremental echelon kernel of `linalg` against the one-shot `rref`
and the plain elimination of `oracles.local_rank`."""

import random

import numpy as np
import pytest

from lastfall import make_field
from lastfall.linalg import DTYPE, insert_row, kernel_basis, reduce_row, rref, solve

from oracles import local_rank

FIELDS = {"GF2": (2, 1, 1), "GF3": (3, 1, 1), "GF4": (2, 1, 2), "GF9": (3, 1, 2),
          "GF27": (3, 1, 3), "GF31^2": (31, 1, 2), "GF16-over-GF4": (2, 2, 2)}

# (rows, columns, rank of the row generators or None for uniform rows)
SHAPES = {"no-rows": (0, 5, None), "no-columns": (4, 0, None), "tall": (9, 4, None),
          "wide": (3, 8, None), "duplicate-rows": (6, 5, 3), "low-rank": (8, 6, 2)}


def draw_matrix(field, shape, rng):
    """Uniform rows, or each row a copy or a combination of `rank` uniform
    generators (duplicate-rows copies them, low-rank combines them)."""
    nrows, ncols, rank = SHAPES[shape]
    uniform = lambda: [rng.randrange(field.order) for _ in range(ncols)]
    if rank is None:
        rows = [uniform() for _ in range(nrows)]
    elif shape == "duplicate-rows":
        gens = [uniform() for _ in range(rank)]
        rows = [list(gens[r % rank]) for r in range(nrows)]
        rng.shuffle(rows)
    else:
        gens = [uniform() for _ in range(rank)]
        rows = []
        for _ in range(nrows):
            row = [0] * ncols
            for gen in gens:
                c = rng.randrange(field.order)
                row = [field.add(x, field.mul(c, y)) for x, y in zip(row, gen)]
            rows.append(row)
    return np.array(rows, dtype=DTYPE).reshape(nrows, ncols)


def dot(field, row, x):
    acc = 0
    for a, b in zip(row, x):
        acc = field.add(acc, field.mul(int(a), int(b)))
    return acc


def insert_all(mat, ops, order):
    """Reduce and insert the rows of mat in the given order, leftmost pivots;
    returns the rows sorted by pivot, and their pivots."""
    nrows, ncols = mat.shape
    rows = np.zeros((nrows, ncols), dtype=DTYPE)
    pivcols = np.zeros(nrows, dtype=np.int64)
    n = 0
    for r in order:
        vec = reduce_row(mat[r], rows[:n], pivcols[:n], ops)
        nz = np.flatnonzero(vec)
        if len(nz):
            insert_row(rows, pivcols, n, vec, int(nz[0]), ops)
            n += 1
    perm = np.argsort(pivcols[:n])
    return rows[perm], pivcols[perm].tolist()


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("spec", FIELDS.values(), ids=FIELDS.keys())
def test_kernel_matches_rref_rank_kernel_and_solve(spec, shape):
    """Rows inserted in random order and sorted by pivot give exactly the
    matrix and pivots of `rref`; the rank is the plain elimination's; every
    `kernel_basis` vector is killed, and there are ncols - rank independent
    ones; `solve` returns None exactly when the system is inconsistent."""
    field = make_field(*spec)
    ops = field.k
    rng = random.Random(f"linalg:{spec}:{shape}")
    for _ in range(6):
        mat = draw_matrix(field, shape, rng)
        nrows, ncols = mat.shape
        R, pivots = rref(mat, ops)
        got, got_pivots = insert_all(mat, ops, rng.sample(range(nrows), nrows))
        assert got.dtype == R.dtype and got.shape == R.shape
        assert np.array_equal(got, R)
        assert got_pivots == pivots
        rank = local_rank(mat.tolist(), field)
        assert len(pivots) == rank

        kernel = kernel_basis(mat, ops, ncols=ncols)
        assert len(kernel) == ncols - rank
        assert local_rank([v.tolist() for v in kernel], field) == len(kernel)
        for v in kernel:
            assert all(dot(field, row, v) == 0 for row in mat)

        x0 = [rng.randrange(field.order) for _ in range(ncols)]
        for rhs in ([dot(field, row, x0) for row in mat],
                    [rng.randrange(field.order) for _ in range(nrows)]):
            x = solve(mat, rhs, ops)
            augmented = [list(row) + [b] for row, b in zip(mat.tolist(), rhs)]
            assert (x is None) == (local_rank(augmented, field) > rank)
            if x is not None:
                assert [dot(field, row, x) for row in mat] == rhs
