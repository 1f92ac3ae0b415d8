"""`linalg.Echelon`, and `rref` built on it, against the column-wise
elimination of `oracles.reference_rref` and the plain elimination of
`oracles.local_rank`."""

import random

import numpy as np
import pytest

from lastfall import make_field
from lastfall.falldeg import _DenseRows
from lastfall.linalg import DTYPE, Echelon, kernel_basis, rref

from oracles import local_rank, reference_rref

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


def insert_all(ech, mat, order):
    """Add the rows of mat to the echelon in the given order; returns the
    rows sorted by pivot, and their pivots."""
    for r in order:
        ech.add(mat[r])
    return ech.sorted()


def assert_same(got, want):
    (R, pivots), (want_R, want_pivots) = got, want
    assert R.dtype == want_R.dtype and R.shape == want_R.shape
    assert np.array_equal(R, want_R)
    assert pivots == want_pivots


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("spec", FIELDS.values(), ids=FIELDS.keys())
def test_kernel_matches_rref_rank_kernel_and_solve(spec, shape):
    """`rref`, and an `Echelon` fed the rows in random order and sorted by
    pivot, give exactly the matrix and pivots of the column-wise reference;
    the span engine's `Echelon`, which pivots on the last nonzero column,
    gives the reference of the column-reversed matrix with its rows and
    columns reversed.  The rank is the plain elimination's, and every
    `kernel_basis` vector is killed, with ncols - rank independent ones."""
    field = make_field(*spec)
    ops = field.k
    rng = random.Random(f"linalg:{spec}:{shape}")
    for _ in range(6):
        mat = draw_matrix(field, shape, rng)
        nrows, ncols = mat.shape
        R, pivots = want = reference_rref(mat, ops)
        assert_same(rref(mat, ops), want)
        assert_same(insert_all(Echelon(ops, ncols), mat, rng.sample(range(nrows), nrows)), want)
        rev_R, rev_pivots = reference_rref(mat[:, ::-1], ops)
        rightmost = _DenseRows(ops)
        rightmost.widen(ncols)
        assert_same(insert_all(rightmost, mat, rng.sample(range(nrows), nrows)),
                    (rev_R[::-1, ::-1], [ncols - 1 - p for p in rev_pivots[::-1]]))
        rank = local_rank(mat.tolist(), field)
        assert len(pivots) == rank

        kernel = kernel_basis(mat, ops)
        assert len(kernel) == ncols - rank
        assert local_rank([v.tolist() for v in kernel], field) == len(kernel)
        for v in kernel:
            assert all(dot(field, row, v) == 0 for row in mat)


def test_rref_refuses_a_vector():
    with pytest.raises(ValueError):
        rref(np.array([1, 0, 1], dtype=DTYPE), make_field(2, 1, 1).k)
