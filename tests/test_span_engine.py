"""The span engine's basis: fully reduced, canonical and of the right size.

The property tests run over one field per row kernel of ``gf.FieldOps``:
GF(2) (XOR), GF(3) (modular arithmetic), GF(4) built as a tower over GF(2)
(a table field with p = 2, whose codes add by XOR) and GF(9) built as a
tower over GF(3) (a table field with odd p).

The engine keeps its rows as Python-int bitsets over GF(2) (``_BitRows``),
as pairs of them, the bitsets of the entries 1 and 2, over GF(3)
(``_TernRows``), and as int16 code vectors over the other fields
(``_DenseRows``).  Besides the checks against the naive closure above,
differential tests run each bitset store and the dense store on the same
systems and require identical spans and profiles; the GF(3) store is also
checked against the dense one insertion by insertion.  A broken store that
hands back an owned pivot would grow its rows without end; the engine
refuses a row beyond the column count, and the GF(3) tests also run under a
``deadline``.  Every engine reads the column layout shared by its variable
count, so the span must not depend on what built or grew that layout
before.

The check against the naive closure also runs over GF(8) and GF(27), in up
to 4 variables and with the variables shuffled, and requires every
polynomial of the naive basis to lie in the span: the engine skips the
shifts that the XL rule proves dependent.  A logging store derives each
row's tag on its own and checks that the engine shifts a row by exactly the
variables up to its tag.  On F'_1 the span splits at the field equations:
its dimension in degrees <= j is the count of their multiples there plus
the rank of its rows reduced modulo them.  The fast rungs of the
span-engine ladder pin their profile digests, and smaller draws of the same
kind pin their certified profiles, from either oracle.
"""

import hashlib
import json
import math
import random
import signal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lastfall import (PolySystem, Ring, build_F1, build_Fprime1, cli, falldeg,
                      last_fall_degree, make_descent_context, make_field, span_closure)
from lastfall.linalg import DTYPE
from lastfall.poly import monomials_up_to
from conftest import deadline
from oracles import (VARIABLE_ORDERS, in_variable_order, naive_closure, naive_closure_dim,
                     random_invertible_matrix, random_system, recombine, reference_rref,
                     shuffled_variables)

FIELDS = {"GF(2)": (2, 1, 1), "GF(3)": (3, 1, 1), "GF(4)": (2, 2, 1), "GF(9)": (3, 2, 1)}
# two more fields of the int16 store, for the check against the naive closure
DENSE_FIELDS = {"GF(8)": (2, 1, 3), "GF(27)": (3, 1, 3)}

# largest cap checked per field: the naive closure runs scalar field ops on
# table fields, so the larger fields stop earlier
CAPS = {"GF(2)": 4, "GF(3)": 4, "GF(4)": 3, "GF(9)": 3, "GF(8)": 4, "GF(27)": 4}

PROPERTY = settings(max_examples=12)


@pytest.fixture(scope="module")
def fields():
    return {name: make_field(*spec) for name, spec in {**FIELDS, **DENSE_FIELDS}.items()}


def with_unit(system, rng):
    """The system, or with probability 0.3 the system plus the constant 1 or
    f + 1 for one of its generators f, so that 1 enters the span at degree 0
    or deg f and the engine stops closing there."""
    if rng.random() >= 0.3:
        return system
    one = system.ring.constant(1)
    extra = one if rng.random() < 0.3 else rng.choice(system.polys) + one
    return PolySystem(system.ring, system.polys + (extra,))


def draw_system(field, seed):
    rng = random.Random(seed)
    ring = Ring(field, "k", [f"X{i}" for i in range(rng.randint(2, 3))])
    return with_unit(random_system(ring, rng.randint(1, 2), rng.randint(1, 3), rng), rng), rng


def assert_canonical(span):
    mat, pivots = span.matrix, list(span.pivots)
    assert pivots == sorted(set(pivots))
    assert np.array_equal(mat[:, pivots], np.eye(len(pivots), dtype=DTYPE))
    for r, p in enumerate(pivots):
        assert np.flatnonzero(mat[r])[-1] == p  # pivot = largest monomial
        assert span.row_degrees[r] == sum(span.monomials[p])


@pytest.mark.parametrize("name", sorted(FIELDS))
@PROPERTY
@given(seed=st.integers(0, 2**32 - 1))
def test_basis_is_fully_reduced(fields, name, seed):
    system, _ = draw_system(fields[name], seed)
    for cap in range(CAPS[name] + 1):
        assert_canonical(span_closure(system, cap))


@pytest.mark.parametrize("name", sorted(FIELDS))
@PROPERTY
@given(seed=st.integers(0, 2**32 - 1))
def test_equal_spans_give_identical_matrices(fields, name, seed):
    system, rng = draw_system(fields[name], seed)
    cap = CAPS[name]
    span = span_closure(system, cap)
    mixed = recombine(system, random_invertible_matrix(system.ring.field, len(system), rng))
    for other in (PolySystem(system.ring, system.polys[::-1]), mixed):
        twin = span_closure(other, cap)
        assert np.array_equal(twin.matrix, span.matrix)
        assert twin.pivots == span.pivots
        assert twin.row_degrees == span.row_degrees


@pytest.mark.parametrize("name", sorted({**FIELDS, **DENSE_FIELDS}))
@PROPERTY
@given(seed=st.integers(0, 2**32 - 1))
def test_dimensions_match_naive_closure(fields, name, seed):
    """In 1-4 variables, the span has the naive closure's dimension, as
    has the span of the system with its variables shuffled, and holds every
    polynomial of the naive basis."""
    rng = random.Random(seed)
    ring = Ring(fields[name], "k", [f"X{i}" for i in range(rng.randint(1, 4))])
    system = with_unit(random_system(ring, rng.randint(1, 2), rng.randint(1, 3), rng), rng)
    shuffled = shuffled_variables(system, seed)
    with deadline(60):
        for cap in range(CAPS[name] + 1):
            naive = naive_closure(system, cap)
            span = span_closure(system, cap)
            assert span.dim == len(naive) == span_closure(shuffled, cap).dim
            assert all(span.contains(f) for f in naive)


@pytest.mark.parametrize("name", sorted(FIELDS))
@PROPERTY
@given(seed=st.integers(0, 2**32 - 1))
def test_reduce_clears_every_pivot(fields, name, seed):
    system, rng = draw_system(fields[name], seed)
    cap = CAPS[name]
    span = span_closure(system, cap)
    ring = system.ring
    f = random_system(ring, cap, 1, rng).polys[0]
    residual = span.reduce(f)
    assert not np.any(residual[list(span.pivots)])
    # f minus its residual lies in the span
    rest = ring.from_terms((span.monomials[c], int(x)) for c, x in enumerate(residual))
    assert span.contains(f - rest)
    for g in system.polys:
        for v in range(ring.nvars):
            if g.degree + 1 <= cap:
                assert span.contains(g * ring.variable(v))


# -- the bitset row stores against the dense one -------------------------------


STORES = {"dense": falldeg._DenseRows, "bits": lambda ops: falldeg._BitRows(),
          "tern": lambda ops: falldeg._TernRows()}


def draw_store_system(field, seed):
    """A random system in 2-6 variables, some with a unit (see
    `with_unit`), and a cap of 0-5."""
    rng = random.Random(seed)
    ring = Ring(field, "k", [f"X{i}" for i in range(rng.randint(2, 6))])
    system = random_system(ring, rng.randint(1, 3), rng.randint(1, 3), rng)
    return with_unit(system, rng), rng.randint(0, 5)


def with_store(name, run):
    with mock.patch.object(falldeg, "_row_store", STORES[name]):
        return run()


def assert_stores_agree(system, cap, fast):
    """span_closure and last_fall_degree give the same results with the
    dense store and with the store named `fast`."""
    dense, other = (with_store(name, lambda: span_closure(system, cap))
                    for name in ("dense", fast))
    assert other.matrix.dtype == dense.matrix.dtype == DTYPE
    assert np.array_equal(other.matrix, dense.matrix)
    assert other.pivots == dense.pivots
    assert other.row_degrees == dense.row_degrees
    dense, other = (with_store(name, lambda: last_fall_degree(system, max(cap, 1),
                                                              certify=False))
                    for name in ("dense", fast))
    assert other == dense


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1))
def test_bitset_store_matches_dense_store(fields, seed):
    assert_stores_agree(*draw_store_system(fields["GF(2)"], seed), "bits")


@pytest.mark.parametrize("seed", range(60))
def test_tern_store_matches_dense_store(fields, seed):
    """The GF(3) mirror of the test above, on fixed seeds rather than
    hypothesis examples: a deadline that fires inside an example would be
    shrunk on, each shrink step waiting for the deadline again."""
    with deadline(30):
        assert_stores_agree(*draw_store_system(fields["GF(3)"], seed), "tern")


def tern_vector(digits):
    """The (P, M) bitset pair of a GF(3) code vector."""
    return (sum(1 << c for c, d in enumerate(digits) if d == 1),
            sum(1 << c for c, d in enumerate(digits) if d == 2))


@pytest.mark.parametrize("seed", range(12))
def test_tern_rows_match_dense_rows_per_insertion(fields, seed):
    """The same vectors into both stores: the same pivot (or None) and the
    same sorted basis after every insertion.  The vectors include zero
    vectors, repeats, sums of two earlier vectors and vectors whose top
    digit is 2; the columns widen once half way."""
    rng = random.Random(seed)
    dense, tern = falldeg._DenseRows(fields["GF(3)"].k), falldeg._TernRows()
    ncols, seen = 0, []
    with deadline(30):
        for step in range(40):
            if step in (0, 20):
                ncols += rng.randint(1, 10)
                for store in (dense, tern):
                    store.add_columns(ncols, [])
            kind = rng.randrange(5)
            if kind == 0:
                digits = [0] * ncols
            elif kind == 1 and seen:
                digits = rng.choice(seen)
            elif kind == 2 and seen:
                a, b = rng.choice(seen), rng.choice(seen)
                digits = [(x + y) % 3 for x, y in zip(a, b)]
            else:
                digits = [rng.choice((0, 0, 1, 2)) for _ in range(ncols)]
                if rng.random() < 0.5:
                    digits[rng.randrange(ncols)] = 2
                    top = max(c for c, d in enumerate(digits) if d)
                    digits[top] = 2
            digits = digits + [0] * (ncols - len(digits))
            seen.append(digits)
            want = dense.add(np.array(digits, dtype=DTYPE))
            assert tern.add(tern_vector(digits)) == want
            (want_rows, want_pivots), (rows, pivots) = dense.sorted(), tern.sorted()
            assert rows.dtype == DTYPE
            assert np.array_equal(rows, want_rows)
            assert pivots == want_pivots


# -- the XL rule: a row is shifted only by variables up to its tag --------------


class TagLog:
    """Mixin for a row store that logs every shift (row, variable) and
    derives each row's tag from the candidate that made it: v for a row
    made from x_v * r whose pivot is x_v times the pivot of r, the last
    variable for a generator or a row whose leading monomial dropped."""

    def __init__(self, *args):
        super().__init__(*args)
        self.pivots, self.tags, self.shift_calls, self.made_by = [], [], [], None

    def vector(self, terms, col_of):
        self.made_by = None
        return super().vector(terms, col_of)

    def shifted(self, r, v):
        self.shift_calls.append((r, v))
        self.made_by = v, int(self.shifts[v][self.pivots[r]])
        return super().shifted(r, v)

    def add(self, vec):
        p = super().add(vec)
        if p is not None:
            v, lead = self.made_by or (None, None)
            self.pivots.append(p)
            self.tags.append(v if p == lead else len(self.shifts) - 1)
        return p


class BitTags(TagLog, falldeg._BitRows):
    pass


class TernTags(TagLog, falldeg._TernRows):
    pass


class DenseTags(TagLog, falldeg._DenseRows):
    pass


TAG_LOGS = {"GF(2)": lambda ops: BitTags(), "GF(3)": lambda ops: TernTags(), "GF(9)": DenseTags}


@pytest.mark.parametrize("variable_order", VARIABLE_ORDERS)
@pytest.mark.parametrize("name", sorted(TAG_LOGS))
def test_rows_are_shifted_only_up_to_their_tag(fields, name, variable_order):
    """Each row below the cap is shifted once by every variable up to its
    tag and by no other; some rows have a tag below the last variable, so
    the rule skips shifts."""
    field = fields[name]
    ring = Ring(field, "k", ["X0", "X1", "X2"])
    stores = []

    def log(ops):
        stores.append(TAG_LOGS[name](ops))
        return stores[-1]

    skipped = 0
    for seed in range(6):
        system = in_variable_order(
            random_system(ring, 2, 2, random.Random(f"tags:{name}:{seed}")), variable_order)
        stores.clear()
        with mock.patch.object(falldeg, "_row_store", log):
            span = span_closure(system, 4)
        (store,) = stores
        assert span.dim == len(store.pivots)
        col_deg = falldeg._layout(3).col_deg
        want = [(r, w) for r, p in enumerate(store.pivots) if col_deg[p] < 4
                for w in range(store.tags[r] + 1)]
        assert sorted(store.shift_calls) == want
        skipped += sum(ring.nvars - 1 - t for t, p in zip(store.tags, store.pivots)
                       if col_deg[p] < 4)
    assert skipped > 0


# -- the span of F'_1 splits at the field equations -------------------------------


@pytest.mark.parametrize("spec,m", [((2, 1, 2), 2), ((2, 1, 3), 1), ((3, 1, 2), 1),
                                    ((3, 1, 2), 2)])
def test_span_splits_at_the_field_equations(spec, m):
    """On F'_1, where every variable x has x^q - x, the span in degrees <= j
    holds every multiple of those equations there: the kernel of the
    reduction modulo them, one dimension per monomial of degree <= j with an
    exponent >= q, since their leading terms are pairwise coprime.  The rest
    of the dimension is the rank of the span's rows of degree <= j after the
    reduction, which reads each exponent a >= q as ((a - 1) mod (q - 1)) + 1."""
    ctx = make_descent_context(make_field(*spec), m)
    q, cap = ctx.field.q, 6
    rng = random.Random(f"normal-form:{spec}:{m}")
    for _ in range(3):
        system = build_Fprime1(cli.gen_random_system(ctx.ring_original, 2, m, rng), ctx)
        ring = system.ring
        monos = monomials_up_to(ring.nvars, cap)
        col = {e: c for c, e in enumerate(e for e in monos if max(e) < q)}
        span = span_closure(system, cap)
        reduced = np.zeros((span.dim, len(col)), dtype=DTYPE)
        for r, f in enumerate(span.row_polys()):
            for e, c in f.terms.items():
                c_at = col[tuple(a if a < q else (a - 1) % (q - 1) + 1 for a in e)]
                reduced[r, c_at] = ring.ops.add(int(reduced[r, c_at]), c)
        for j in range(cap + 1):
            kernel = sum(1 for e in monos if sum(e) <= j and max(e) >= q)
            low = reduced[[d <= j for d in span.row_degrees]]
            rank_j = len(reference_rref(low, ring.ops)[1]) if len(low) else 0
            assert span.dim_leq(j) == kernel + rank_j


# -- the shared column layout ---------------------------------------------------


def fresh_span(system, cap, before=None):
    """span_closure of the system with the layouts cleared first and, when
    the cap `before` is given, another closure at that cap run in between,
    which builds and grows the layout first."""
    falldeg._layout.cache_clear()
    if before is not None:
        span_closure(system, before)
    return span_closure(system, cap)


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=20)
@given(seed=st.integers(0, 2**32 - 1))
def test_span_does_not_depend_on_the_layout_history(fields, name, seed):
    """One store per field kernel; the same span from a cold layout and
    from one grown first to a larger cap.  The snapshot holds exactly the
    monomials up to its cap, however far the shared layout reaches."""
    system, cap = draw_store_system(fields[name], seed)
    nvars = system.ring.nvars
    cold = fresh_span(system, cap)
    assert cold.monomials == tuple(monomials_up_to(nvars, cap))
    assert len(cold.monomials) == math.comb(nvars + cap, cap)
    for before in (cap + 1, cap + 2):
        warm = fresh_span(system, cap, before)
        assert warm.monomials == cold.monomials
        assert np.array_equal(warm.matrix, cold.matrix)
        assert warm.pivots == cold.pivots
        assert warm.row_degrees == cold.row_degrees
        assert warm.dim_leq(cap) == cold.dim


def test_layout_is_shared_per_shape(fields):
    """Engines of one variable count read the one layout, which only grows;
    another variable count gets its own."""
    ring = Ring(fields["GF(4)"], "k", ["X0", "X1"])
    system = PolySystem(ring, [ring.variable(0) * ring.variable(1)])
    falldeg._layout.cache_clear()
    small = span_closure(system, 2)
    layout = falldeg._layout(2)
    assert len(layout.monos) == len(small.monomials) == 6
    span_closure(system, 4)
    assert falldeg._layout(2) is layout and len(layout.monos) == 15
    assert span_closure(system, 2).monomials == small.monomials
    assert falldeg._layout(3) is not layout


class UnreducedRows(falldeg._DenseRows):
    """A broken store: it keeps every nonzero vector unreduced, so it hands
    back pivots that already have an owner."""

    def add(self, vec):
        nz = vec.nonzero()[0]
        if len(nz) == 0:
            return None
        self.rows = np.vstack([self.rows[: self.n], vec])
        self.n += 1
        return int(nz[-1])


def test_engine_refuses_more_rows_than_columns(fields):
    """The rank never exceeds the column count, so a store that breaks that
    fails the closure at once instead of growing its rows without end."""
    ring = Ring(fields["GF(3)"], "k", ["X0", "X1"])
    x0 = ring.variable(0)
    system = PolySystem(ring, [x0, x0 + x0, x0 * x0 + x0, x0])
    with deadline(30), mock.patch.object(falldeg, "_row_store", UnreducedRows):
        with pytest.raises(RuntimeError, match="row store grew past its 6 columns"):
            span_closure(system, 3)


def test_deadline_fails_a_block_that_runs_too_long():
    handler = signal.getsignal(signal.SIGALRM)
    with pytest.raises(AssertionError, match="test_deadline_fails_a_block_that_runs_too_long"):
        with deadline(0.05):
            while True:
                pass
    assert signal.getsignal(signal.SIGALRM) == handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("spec", [(2, 1, 1), (3, 1, 1), (2, 2, 1), (3, 2, 1), (251, 1, 1)])
def test_sub_combination_matches_scaled_steps(spec):
    field = make_field(*spec)
    ops = field.k
    rng = np.random.default_rng(7)
    y = rng.integers(0, field.order, 40).astype(DTYPE)
    rows = rng.integers(0, field.order, (6, 40)).astype(DTYPE)
    factors = rng.integers(1, field.order, 6).astype(DTYPE)
    expect = y
    for c, row in zip(factors, rows):
        expect = ops.sub_mul(expect, int(c), row)
    got = ops.sub_combination(y, factors, rows)
    assert got.dtype == DTYPE
    assert np.array_equal(got, expect)


# -- the fast rungs of the span-engine ladder ------------------------------------

# (p, n, m, cap) -> the first 16 hex of the sha256 of the sorted profile JSON:
# F'_1 of one random quadratic in m variables over GF(p^n), closed without
# certification.  The slower rungs of the ladder (seconds each) stay out of
# the suite.
LADDER = {(2, 3, 3, 6): "9e202cf912382a8e", (3, 2, 3, 6): "4e584a4774ae2965",
          (3, 2, 4, 5): "dc60f8f1e7803f98", (3, 3, 3, 5): "b12aeba92323132e"}


@pytest.mark.parametrize("rung", sorted(LADDER),
                         ids=[f"GF({p}^{n})-m{m}-cap{cap}" for p, n, m, cap in sorted(LADDER)])
def test_ladder_rung_profile_is_unchanged(rung):
    p, n, m, cap = rung
    ctx = make_descent_context(make_field(p, 1, n), m)
    F = cli.gen_random_system(ctx.ring_original, 2, 1, random.Random(f"ladder:{p}:{n}:{m}"))
    prof = last_fall_degree(build_Fprime1(F, ctx), cap=cap, certify=False)
    text = json.dumps(prof.to_json_obj(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == LADDER[rung]


# (p, n, m, system) -> the oracle the library picks for the system and the
# digest of its certified profile, for the rung draws above in fewer
# variables: F'_1 goes to the points oracle and F_1 to the toy Buchberger.
CERTIFIED = {(2, 2, 2, "Fprime1"): ("PointsOracle", "92a37f82d435097e"),
             (2, 2, 2, "F1"): ("GroebnerOracle", "b1b15d0b90608473"),
             (3, 2, 1, "Fprime1"): ("PointsOracle", "0347c3e79618c817"),
             (3, 2, 1, "F1"): ("GroebnerOracle", "3f7baeb458c40a71"),
             (2, 3, 1, "Fprime1"): ("PointsOracle", "0f24e83a1508375e"),
             (2, 3, 1, "F1"): ("GroebnerOracle", "0f24e83a1508375e")}


@pytest.mark.parametrize("case", sorted(CERTIFIED),
                         ids=[f"GF({p}^{n})-m{m}-{name}" for p, n, m, name in sorted(CERTIFIED)])
def test_certified_profile_is_unchanged(case):
    p, n, m, name = case
    ctx = make_descent_context(make_field(p, 1, n), m)
    F = cli.gen_random_system(ctx.ring_original, 2, 1, random.Random(f"ladder:{p}:{n}:{m}"))
    system = {"Fprime1": build_Fprime1, "F1": build_F1}[name](F, ctx)
    kind, digest = CERTIFIED[case]
    assert type(falldeg._default_oracle(system)).__name__ == kind
    prof = last_fall_degree(system)
    assert prof.certified
    text = json.dumps(prof.to_json_obj(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


# -- large primes: row products must not overflow the int16 code type --------


@pytest.fixture(scope="module", params=[251, 1021])
def big_prime_field(request):
    return make_field(request.param, 1, 1)


def test_prime_ops_large_p(big_prime_field):
    p = big_prime_field.p
    ops = big_prime_field.k
    x = np.arange(p, dtype=DTYPE)
    c = p - 2
    assert ops.vmul(c, x).tolist() == [(c * v) % p for v in range(p)]
    y = x[::-1].copy()
    assert ops.sub_mul(y, c, x).tolist() == [(int(w) - c * v) % p for w, v in zip(y, range(p))]


def test_span_contains_generators_large_p(big_prime_field):
    p = big_prime_field.p
    ring = Ring(big_prime_field, "k", ["X0", "X1"])
    x0, x1 = ring.variable(0), ring.variable(1)
    system = PolySystem(ring, [
        (x0 * x0).scale(p - 3) + (x0 * x1).scale(p - 7) + x1.scale(p - 11) + ring.constant(5),
        (x1 * x1).scale(p - 2) + x0.scale(p - 13) + ring.constant(p - 1),
    ])
    span = span_closure(system, 3)
    for g in system.polys:
        assert span.contains(g)
    assert_canonical(span)
    assert span.dim == naive_closure_dim(system, 3)
