"""The certification oracles against their references.

``groebner_toy`` must return the reduced Groebner basis that the plain
Buchberger in ``oracles.reference_groebner`` returns, term for term, and the
basis must have the defining properties of a reduced basis on its own.
``PointsOracle`` must read the same staircase as the sequential
``oracles.ReferencePointsOracle``.  ``last_fall_degree`` refuses an oracle that
claims fewer ideal elements than the span already holds.
"""

import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lastfall import (OracleInconsistent, PointsOracle, PolySystem, Ring, build_F1,
                      build_Fprime1, groebner_toy, last_fall_degree, make_descent_context,
                      make_field)
from lastfall.cli import gen_random_system
from lastfall.descent import f1_points, fprime1_points
from lastfall.falldeg import GroebnerOracle
from lastfall.poly import ORDER_KEYS
from oracles import (ReferencePointsOracle, random_system, reference_groebner,
                     reference_normal_form, reference_spoly)

FIELDS = {"GF(2)": (2, 1, 1), "GF(3)": (3, 1, 1), "GF(5)": (5, 1, 1),
          "GF(4)": (2, 2, 1), "GF(9)": (3, 2, 1)}
ORDERS = sorted(ORDER_KEYS)


@pytest.fixture(scope="module")
def fields():
    return {name: make_field(*spec) for name, spec in FIELDS.items()}


def draw_system(field, seed):
    """A small random system with, now and then, a zero polynomial, a
    duplicate, the unit or (over fields of order <= 4, whose field equations
    have low degree) the field equations mixed in."""
    rng = random.Random(seed)
    ring = Ring(field, "k", [f"X{i}" for i in range(rng.randint(1, 3))])
    polys = list(random_system(ring, rng.randint(1, 2), rng.randint(0, 3), rng).polys)
    if rng.random() < 0.2:
        polys.append(ring.zero())
    if polys and rng.random() < 0.2:
        polys.append(rng.choice(polys))
    if rng.random() < 0.1:
        polys.append(ring.one())
    if field.order <= 4 and rng.random() < 0.3:
        q = field.order
        polys += [ring.variable(v).pow_int(q) - ring.variable(v) for v in range(ring.nvars)]
    rng.shuffle(polys)
    return PolySystem(ring, polys)


def lead(g, order):
    return g.leading(order)[0]


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def assert_reduced_basis(gb):
    order, gens = gb.order, gb.gens
    leads = [lead(g, order) for g in gens]
    for g in gens:
        assert g.leading(order)[1] == 1  # monic
    for a, b in combinations(leads, 2):
        assert not divides(a, b) and not divides(b, a)
    for g, le in zip(gens, leads):
        for e in g.terms:
            if e != le:
                assert not any(divides(other, e) for other in leads)
    for f, g in combinations(gens, 2):
        assert reference_normal_form(reference_spoly(f, g, order), gens, order).is_zero()
    assert [lead(g, order) for g in gens] == sorted(leads, key=ORDER_KEYS[order])


def assert_matches_reference(system, order):
    gb = groebner_toy(system, order=order)
    want = reference_groebner(system, order=order).gens
    assert gb.gens == want
    assert [g.terms for g in gb.gens] == [g.terms for g in want]
    assert_reduced_basis(gb)
    s = gb.stats
    assert s.pairs == s.product_criterion + s.chain_criterion + s.reductions
    assert 0 <= s.zero_reductions <= s.reductions
    return gb


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1))
def test_groebner_matches_reference(fields, name, order, seed):
    assert_matches_reference(draw_system(fields[name], seed), order)


@pytest.mark.parametrize("order", ORDERS)
def test_groebner_edge_systems(gf4, order):
    ring = Ring(gf4, "kprime", ["X0", "X1", "X2"])
    x0, x1, x2 = (ring.variable(v) for v in range(3))
    one = ring.one()
    cases = [
        [],
        [ring.zero(), ring.zero()],
        [one],
        [x0 * x1 + one, ring.zero(), one],
        [x0 * x0 + x1, x0 * x0 + x1, x0 * x0 + x1],
        [x0, x1, x2],
    ]
    for polys in cases:
        assert_matches_reference(PolySystem(ring, polys), order)
    # pairwise coprime leads: a Groebner basis as given, with no pair reduced
    coprime = [x0 * x0 + x1 + one, x1 * x1 * x1 + x2, x2 * x2 + x0]
    gb = assert_matches_reference(PolySystem(ring, coprime), order)
    assert gb.stats.pairs == gb.stats.product_criterion == 3
    assert gb.stats.reductions == 0
    assert groebner_toy(PolySystem(ring, [])).gens == ()
    assert groebner_toy(PolySystem(ring, [x0, one])).gens == (one,)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("spec,m", [((2, 1, 2), 1), ((3, 1, 2), 1), ((2, 2, 2), 1),
                                    ((2, 1, 3), 1), ((2, 1, 2), 2)])
def test_groebner_descended_systems(spec, m, order):
    ctx = make_descent_context(make_field(*spec), m)
    rng = random.Random(f"certifiers:{spec}:{m}")
    for _ in range(3):
        F = gen_random_system(ctx.ring_original, 2, rng.randint(1, 2), rng)
        for build in (build_Fprime1, build_F1):
            if build is build_F1 and m > 1:
                continue
            assert_matches_reference(build(F, ctx), order)


def test_groebner_counts_wasted_work(gf4):
    ring = Ring(gf4, "kprime", ["X0", "X1"])
    eqs = [ring.variable(v).pow_int(2) - ring.variable(v) for v in range(2)]
    rng = random.Random(5)
    gb = groebner_toy(PolySystem(ring, list(random_system(ring, 2, 2, rng).polys) + eqs))
    s = gb.stats
    assert s.pairs > 0 and s.steps > 0
    # the product criterion drops the pair of the two field equations
    assert s.product_criterion >= 1


# -- the points oracle -----------------------------------------------------------


def assert_same_staircase(ring, points, top):
    new, ref = PointsOracle(ring, points), ReferencePointsOracle(ring, points)
    assert new.max_gb_degree() == ref.max_gb_degree()
    for j in range(top + 1):
        assert new.dim_leq(j) == ref.dim_leq(j)
    assert set().union(*new._std) == set(ref._std)
    # the walk tests only the monomials whose parent is standard
    assert new._border == [e for e in ref._nonstd if not any(e) or parent(e) in ref._std]
    assert new._ech.n == ref._rank == len(new.points)


def parent(e):
    """e divided by its first variable."""
    v = next(v for v, a in enumerate(e) if a)
    return e[:v] + (e[v] - 1,) + e[v + 1:]


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1))
def test_points_oracle_matches_sequential_reference(fields, name, seed):
    """Points sampled from a small grid, random tuples in up to 12
    variables, the empty set and a single point."""
    field = fields[name]
    rng = random.Random(seed)
    shape = rng.choice(("grid", "tuples", "empty", "single"))
    nvars = rng.randint(1, 3) if shape == "grid" else rng.randint(1, 12)
    ring = Ring(field, "k", [f"X{i}" for i in range(nvars)])
    if shape == "grid":
        grid = list(product(range(field.order), repeat=nvars))
        points = rng.sample(grid, rng.randint(0, min(len(grid), 40)))
    else:
        count = {"tuples": rng.randint(2, 40), "empty": 0, "single": 1}[shape]
        points = [tuple(rng.randrange(field.order) for _ in range(nvars))
                  for _ in range(count)]
    assert_same_staircase(ring, points, rng.randint(0, 6))


def test_points_oracle_descended_points(gf4, gf9):
    rng = random.Random(11)
    for field in (gf4, gf9):
        ctx = make_descent_context(field, 2)
        for _ in range(3):
            F = gen_random_system(ctx.ring_original, 2, 1, rng)
            assert_same_staircase(build_Fprime1(F, ctx).ring, fprime1_points(F, ctx), 5)
        ctx = make_descent_context(field, 1)
        F = gen_random_system(ctx.ring_original, 2, 1, rng)
        assert_same_staircase(build_F1(F, ctx).ring, f1_points(F, ctx), 5)


# -- inconsistent oracles ----------------------------------------------------------


class NothingOracle:
    """Claims that the ideal has no element at all."""

    def max_gb_degree(self):
        return 0

    def dim_leq(self, j):
        return 0


def test_oracle_below_span_raises(gf4):
    ring = Ring(gf4, "kprime", ["X0", "X1"])
    x0, x1 = ring.variable(0), ring.variable(1)
    system = PolySystem(ring, [x0 + x1, x1 * x1 + x0])
    with pytest.raises(OracleInconsistent):
        last_fall_degree(system, oracle=NothingOracle())
    # the staircase of a smaller ideal is just as wrong
    smaller = GroebnerOracle(groebner_toy(PolySystem(ring, [x1 * x1 + x0])))
    with pytest.raises(OracleInconsistent):
        last_fall_degree(system, oracle=smaller)
    # extra points shrink the vanishing ideal below the span
    with pytest.raises(OracleInconsistent):
        last_fall_degree(system, oracle=PointsOracle(ring, product(range(2), repeat=2)))
    # the system's own oracles certify, and the uncertified profile asks none
    assert last_fall_degree(system).certified
    assert last_fall_degree(system, oracle=PointsOracle(ring, [(0, 0), (1, 1)])).certified
    assert last_fall_degree(system, cap=3, certify=False).status == "cap-limited"
