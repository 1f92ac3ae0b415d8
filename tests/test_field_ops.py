"""The arithmetic object of each tower level: its tables against the
reference builder, field axioms at the largest supported order, and its row
operations against its own scalar operations on every kernel kind."""

import random

import numpy as np
import pytest

from lastfall import make_field
from lastfall.linalg import DTYPE
from oracles import matvec, reference_tables

# every field the conftest fixtures and test_gf.py build, the n = 1 towers of
# test_span_engine.py, and GF(7^3) and GF(4^3); GF(9) is also built from the
# non-monic modulus 2t^2 + 2
TABLE_FIELDS = [(2, 1, 1), (2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 1, 4), (2, 2, 3),
                (5, 1, 2), (3, 1, 3), (2, 2, 1), (3, 2, 1), (7, 1, 3)]


@pytest.mark.parametrize("spec", TABLE_FIELDS + [(3, 1, 2, (2, 0, 2))])
def test_tables_match_reference_builder(spec):
    field = make_field(*spec[:3], m2=spec[3] if len(spec) > 3 else None)
    ref = reference_tables(field)
    for level, ops in (("kprime", field.kprime), ("k", field.k)):
        got = (ops.add_table, ops.mul_table, ops.neg_table, ops.inv_table)
        for table, expect in zip(got, ref[level]):
            assert table.dtype == DTYPE
            assert np.array_equal(table, expect)
    assert len(field.frob_tables) == field.n
    for table, expect in zip(field.frob_tables, ref["frob"]):
        assert np.array_equal(table, expect)


@pytest.mark.parametrize("spec", [(2, 1, 10), (2, 2, 5), (1021, 1, 1)])
def test_field_axioms_at_order_1024(spec):
    f = make_field(*spec)
    k = f.k
    assert f.order == 1024 or spec == (1021, 1, 1)
    add, mul = k.add_table, k.mul_table
    elems = np.arange(f.order)
    # whole tables: commutative, identities, inverses
    assert np.array_equal(add, add.T) and np.array_equal(mul, mul.T)
    assert np.array_equal(add[0], elems) and np.array_equal(mul[1], elems)
    assert not add[elems, k.neg_table].any()
    assert np.all(mul[elems[1:], k.inv_table[1:]] == 1)
    # sampled: associativity and distributivity against every element
    rng = random.Random(0)
    for a, b in zip(rng.sample(range(f.order), 24), rng.sample(range(f.order), 24)):
        assert np.array_equal(add[add[a, b], elems], add[a, add[b, elems]])
        assert np.array_equal(mul[mul[a, b], elems], mul[a, mul[b, elems]])
        assert np.array_equal(mul[a, add[b, elems]], add[mul[a, b], mul[a, elems]])
    # the encoding: t^j has code q^j, m2(t) = 0, and k' sits in k as 0..q-1
    if f.n > 1:
        t = f.gen()
        for j in range(f.n):
            assert f.pow(t, j) == f.q**j
        acc = 0
        for j, c in enumerate(f.m2):
            acc = f.add(acc, f.mul(c, f.pow(t, j)))
        assert acc == 0
    assert np.array_equal(add[: f.q, : f.q], f.kprime.add_table)
    assert np.array_equal(mul[: f.q, : f.q], f.kprime.mul_table)


# one field per row kernel: GF(2) (XOR and AND), GF(3) and GF(1021) (native
# modular arithmetic), GF(4) (table products, XOR sums), the GF(9) tower,
# GF(25) and GF(27) (one flat y - c*x table) and GF(49) (2-D table products
# and sums, since 49^3 > 2^15)
KERNEL_FIELDS = {"GF(2)": (2, 1, 1), "GF(3)": (3, 1, 1), "GF(1021)": (1021, 1, 1),
                 "GF(4)": (2, 1, 2), "GF(9) tower": (3, 2, 1), "GF(25)": (5, 1, 2),
                 "GF(27)": (3, 1, 3), "GF(49)": (7, 1, 2)}


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
def test_row_ops_agree_with_scalar_ops(name):
    ops = make_field(*KERNEL_FIELDS[name]).k
    gen = np.random.default_rng(5)
    x, y = gen.integers(0, ops.order, (2, 60)).astype(DTYPE)
    rows = gen.integers(0, ops.order, (5, 60)).astype(DTYPE)
    factors = gen.integers(1, ops.order, 5).astype(DTYPE)
    mat = gen.integers(0, ops.order, (4, 5)).astype(DTYPE)
    # scalar inputs are np.int16 codes taken from rows and Python ints (as
    # Echelon.add passes the inverse of a pivot), as callers pass them
    for c in [f(c) for c in {0, 1, ops.order - 1, int(x[0])} for f in (int, DTYPE)]:
        assert ops.vmul(c, x).tolist() == [ops.mul(c, a) for a in x]
        assert ops.sub_mul(y, c, x).tolist() == [
            ops.sub(b, ops.mul(c, a)) for a, b in zip(x, y)]
    assert ops.vmul(x, y).tolist() == [ops.mul(a, b) for a, b in zip(x, y)]
    expect = [[ops.sub(b, ops.mul(c, a)) for a, b in zip(x, row)]
              for c, row in zip(factors, rows)]
    assert ops.sub_mul(rows, factors[:, None], x).tolist() == expect
    acc = y.tolist()
    for c, row in zip(factors, rows):
        acc = [ops.sub(b, ops.mul(c, a)) for a, b in zip(row, acc)]
    assert ops.sub_combination(y, factors, rows).tolist() == acc
    expect = []
    for mrow in mat:
        s = 0
        for a, b in zip(mrow, x[:5]):
            s = ops.add(s, ops.mul(a, b))
        expect.append(s)
    assert matvec(ops, mat, x[:5]).tolist() == expect
    for out in (ops.vmul(DTYPE(2 % ops.order), x), ops.vmul(2 % ops.order, x), ops.vmul(x, y),
                ops.sub_mul(y, DTYPE(1), x), ops.sub_mul(y, 1, x),
                ops.sub_mul(rows, factors[:, None], x),
                ops.sub_combination(y, factors, rows), matvec(ops, mat, x[:5])):
        assert out.dtype == DTYPE


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
def test_sub_mul_by_column_matches_rows(name):
    ops = make_field(*KERNEL_FIELDS[name]).k
    gen = np.random.default_rng(6)
    rows = gen.integers(0, ops.order, (5, 60)).astype(DTYPE)
    x = gen.integers(0, ops.order, 60).astype(DTYPE)
    factors = gen.integers(0, ops.order, 5).astype(DTYPE)
    got = ops.sub_mul(rows, factors[:, None], x)
    assert got.dtype == DTYPE
    assert got.tolist() == [ops.sub_mul(row, c, x).tolist() for c, row in zip(factors, rows)]


@pytest.mark.parametrize("spec", sorted(set(TABLE_FIELDS) | set(KERNEL_FIELDS.values())))
def test_flat_sub_table_is_y_minus_c_x(spec):
    """Exactly the odd extension fields with q^3 <= 2^15 build the flat
    table, and each of its q^3 entries (c*q + x)*q + y is y - c*x."""
    field = make_field(*spec)
    for ops in (field.kprime, field.k):
        q = ops.order
        assert (ops._sub3 is not None) == (ops.p % 2 == 1 and q != ops.p and q**3 <= 2**15)
        if ops._sub3 is None:
            continue
        assert ops._sub3.dtype == DTYPE and len(ops._sub3) == q**3
        expect = [ops.sub(y, ops.mul(c, x)) for c in range(q) for x in range(q) for y in range(q)]
        assert ops._sub3.tolist() == expect
