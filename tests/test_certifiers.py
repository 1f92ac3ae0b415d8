"""The certification oracles against their references.

``groebner_toy`` must return the reduced Groebner basis that the plain
Buchberger in ``oracles.reference_groebner`` returns, term for term, and the
basis must have the defining properties of a reduced basis on its own.
``PointsOracle`` must read the same staircase as the sequential
``oracles.ReferencePointsOracle``, and adds nothing to its echelon once it
holds one row per point.  It walks the whole staircase at construction: a
walk that comes up short raises there, and afterwards the oracle answers
with no evaluation or elimination.  ``last_fall_degree`` refuses an oracle
that claims fewer ideal elements than the span already holds.  Without an
oracle it certifies a system that holds every variable's field equation
with the points oracle, and must give the profile of an explicit Groebner
oracle; any other system still gets the toy Buchberger.
"""

import random
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lastfall import (EnumerationBudgetExceeded, OracleInconsistent, PointsOracle, PolySystem,
                      Ring, build_F1, build_Fprime1, descent, falldeg, groebner_toy,
                      last_fall_degree, make_descent_context, make_field)
from lastfall.cli import gen_random_system
from lastfall.descent import f1_points, fprime1_points
from lastfall.falldeg import GroebnerOracle, zk_points
from lastfall.linalg import Echelon
from lastfall.poly import grevlex_key
from conftest import deadline
from oracles import (VARIABLE_ORDERS, ReferencePointsOracle, in_variable_order, random_system,
                     reference_groebner, reference_normal_form, reference_spoly)

FIELDS = {"GF(2)": (2, 1, 1), "GF(3)": (3, 1, 1), "GF(5)": (5, 1, 1),
          "GF(4)": (2, 2, 1), "GF(9)": (3, 2, 1)}


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


def lead(g):
    return g.leading()[0]


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def assert_reduced_basis(gb):
    gens = gb.gens
    leads = [lead(g) for g in gens]
    for g in gens:
        assert g.leading()[1] == 1  # monic
    for a, b in combinations(leads, 2):
        assert not divides(a, b) and not divides(b, a)
    for g, le in zip(gens, leads):
        for e in g.terms:
            if e != le:
                assert not any(divides(other, e) for other in leads)
    for f, g in combinations(gens, 2):
        assert reference_normal_form(reference_spoly(f, g), gens).is_zero()
    assert [lead(g) for g in gens] == sorted(leads, key=grevlex_key)


def assert_matches_reference(system, variable_order="grevlex"):
    system = in_variable_order(system, variable_order)
    gb = groebner_toy(system)
    want = reference_groebner(system).gens
    assert gb.gens == want
    assert [g.terms for g in gb.gens] == [g.terms for g in want]
    assert_reduced_basis(gb)
    s = gb.stats
    assert s.pairs == s.product_criterion + s.chain_criterion + s.reductions
    assert 0 <= s.zero_reductions <= s.reductions
    return gb


@pytest.mark.parametrize("variable_order", VARIABLE_ORDERS)
@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1))
def test_groebner_matches_reference(fields, name, variable_order, seed):
    assert_matches_reference(draw_system(fields[name], seed), variable_order)


@pytest.mark.parametrize("variable_order", VARIABLE_ORDERS)
def test_groebner_edge_systems(gf4, variable_order):
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
        assert_matches_reference(PolySystem(ring, polys), variable_order)
    # pairwise coprime leads: a Groebner basis as given, with no pair reduced
    coprime = [x0 * x0 + x1 + one, x1 * x1 * x1 + x2, x2 * x2 + x0]
    gb = assert_matches_reference(PolySystem(ring, coprime), variable_order)
    assert gb.stats.pairs == gb.stats.product_criterion == 3
    assert gb.stats.reductions == 0
    assert groebner_toy(PolySystem(ring, [])).gens == ()
    assert groebner_toy(PolySystem(ring, [x0, one])).gens == (one,)


@pytest.mark.parametrize("variable_order", VARIABLE_ORDERS)
@pytest.mark.parametrize("spec,m", [((2, 1, 2), 1), ((3, 1, 2), 1), ((2, 2, 2), 1),
                                    ((2, 1, 3), 1), ((2, 1, 2), 2)])
def test_groebner_descended_systems(spec, m, variable_order):
    ctx = make_descent_context(make_field(*spec), m)
    rng = random.Random(f"certifiers:{spec}:{m}")
    for _ in range(3):
        F = gen_random_system(ctx.ring_original, 2, rng.randint(1, 2), rng)
        for build in (build_Fprime1, build_F1):
            if build is build_F1 and m > 1:
                continue
            assert_matches_reference(build(F, ctx), variable_order)


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
    """The points oracle reads the reference's staircase up to degree top and
    three degrees past the last standard one, whether dim_leq is asked
    before or after max_gb_degree, and the same basis degree, standard set
    and border."""
    ref = ReferencePointsOracle(ring, points)
    degree = ref.max_gb_degree()
    last = max(map(sum, ref._std), default=-1)
    js = range(max(top, last + 3) + 1)
    early = PointsOracle(ring, points)  # asked dim_leq before max_gb_degree
    dims = [early.dim_leq(j) for j in js]
    new = PointsOracle(ring, points)
    assert new.max_gb_degree() == early.max_gb_degree() == degree
    assert [new.dim_leq(j) for j in js] == dims == [ref.dim_leq(j) for j in js]
    assert new._std == set(ref._std)
    # the walk tests only the monomials whose parent is standard
    assert new._border == [e for e in ref._nonstd if not any(e) or parent(e) in ref._std]
    assert len(new._std) == ref._rank == len(new.points)


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


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=20)
@given(seed=st.integers(0, 2**32 - 1), count=st.sampled_from((0, 1, 2, 7, 32)))
@example(seed=0, count=0)
@example(seed=0, count=1)
@example(seed=0, count=32)
def test_full_points_oracle_adds_no_more_candidates(fields, name, seed, count):
    """Once the echelon holds one row per point, every later candidate is
    dependent: the oracle adds none of them to it, and still reads the
    staircase, the basis degree and the border of the sequential walk.  No
    points, one point and the largest zero set the default oracle takes
    are always among the cases."""
    field = fields[name]
    rng = random.Random(seed)
    nvars = rng.randint(1, 3)
    while field.order**nvars < count:
        nvars += 1
    ring = Ring(field, "k", [f"X{i}" for i in range(nvars)])
    points = rng.sample(list(product(range(field.order), repeat=nvars)), count)
    top = ReferencePointsOracle(ring, points).max_gb_degree() + 1
    real, ranks = Echelon.add, []

    def add(ech, vec):
        ranks.append(ech.n)
        return real(ech, vec)

    with deadline(5), mock.patch.object(Echelon, "add", add):
        assert_same_staircase(ring, points, top)
    assert len(ranks) >= min(count, 1)
    assert all(n < count for n in ranks)


def sampled_points(field, count, seed):
    """count distinct points of the fewest variables (at least one) whose
    grid holds them, drawn with the given seed."""
    rng = random.Random(seed)
    nvars = 1
    while field.order**nvars < count:
        nvars += 1
    ring = Ring(field, "k", [f"X{i}" for i in range(nvars)])
    return ring, rng.sample(list(product(range(field.order), repeat=nvars)), count)


class _ShortEchelon(Echelon):
    """An echelon that refuses the independent vector that would fill it."""

    def add(self, vec):
        if self.n + 1 == self.rows.shape[1]:
            return None
        return super().add(vec)


@pytest.mark.parametrize("count", [1, 2, 7, 32])
@pytest.mark.parametrize("name", sorted(FIELDS))
def test_short_staircase_walk_raises(fields, monkeypatch, name, count):
    """A walk that ends with fewer standard monomials than points raises at
    construction, naming both counts; a lazily walked staircase looped
    forever in max_gb_degree instead."""
    ring, points = sampled_points(fields[name], count, f"short:{name}:{count}")
    monkeypatch.setattr(falldeg, "Echelon", _ShortEchelon)
    with deadline(5), pytest.raises(
            RuntimeError, match=f" {count - 1} standard monomials for {count} points"):
        PointsOracle(ring, points)


@pytest.mark.parametrize("count", [1, 7, 32])
@pytest.mark.parametrize("name", sorted(FIELDS))
def test_points_oracle_answers_without_eliminations(fields, name, count):
    """The staircase is walked at construction: afterwards max_gb_degree and
    dim_leq, up to three degrees past the last standard one, answer with no
    evaluation and no elimination."""
    ring, points = sampled_points(fields[name], count, f"built:{name}:{count}")
    ref = ReferencePointsOracle(ring, points)
    degree = ref.max_gb_degree()
    js = range(max(map(sum, ref._std), default=-1) + 4)
    want = [ref.dim_leq(j) for j in js]
    oracle = PointsOracle(ring, points)

    def refuse(*args):
        raise AssertionError("the oracle computed after its construction")

    with mock.patch.object(Echelon, "add", refuse), \
            mock.patch.object(ring.ops, "vmul", refuse):
        assert oracle.max_gb_degree() == degree
        assert [oracle.dim_leq(j) for j in js] == want


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


def test_points_oracle_basis_degree_after_dim_leq(gf4):
    """The seed-0 thm11 instance (p, n, m, j) = (2, 2, 1, 1): a dim_leq(1)
    before max_gb_degree once made the rank check stop at degree 0, so the
    oracle read a basis degree of 0 and certified a wrong profile at 1."""
    ctx = make_descent_context(gf4, 1)
    rng = random.Random("0:thm11:2:2:1:1")
    F = gen_random_system(ctx.ring_original, rng.randint(1, 3), 1, rng)
    F1, points = build_F1(F, ctx), f1_points(F, ctx)
    assert PointsOracle(F1.ring, points).max_gb_degree() == 2
    used = PointsOracle(F1.ring, points)
    used.dim_leq(1)
    assert used.max_gb_degree() == 2
    used = PointsOracle(F1.ring, points)
    used.dim_leq(1)
    prof = last_fall_degree(F1, oracle=used)
    assert (prof.certified_at, prof.last_fall_degree) == (3, 3)
    assert prof == last_fall_degree(F1, oracle=PointsOracle(F1.ring, points))


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1))
def test_points_oracle_basis_degree_ignores_earlier_queries(fields, name, seed):
    """max_gb_degree reads the same after any dim_leq as on a fresh oracle."""
    field = fields[name]
    rng = random.Random(seed)
    nvars = rng.randint(1, 3)
    ring = Ring(field, "k", [f"X{i}" for i in range(nvars)])
    grid = list(product(range(field.order), repeat=nvars))
    points = rng.sample(grid, rng.randint(0, min(len(grid), 40)))
    want = PointsOracle(ring, points).max_gb_degree()
    used = PointsOracle(ring, points)
    used.dim_leq(rng.randint(0, 6))
    assert used.max_gb_degree() == want == ReferencePointsOracle(ring, points).max_gb_degree()


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


# -- the default oracle ------------------------------------------------------------

# variables per field for the field-equation systems: x^Q - x has degree Q,
# so the larger fields get fewer variables to keep the Buchberger quick
DEFAULT_NVARS = {"GF(2)": 4, "GF(3)": 3, "GF(4)": 3, "GF(5)": 3, "GF(9)": 2}


def field_equations(ring):
    """x^Q - x for every variable, Q the order of the coefficient field."""
    return descent.field_equations(ring, ring.coeff_order)


def draw_field_equation_system(name, field, seed):
    """Every variable's field equation and up to three random polynomials of
    degree <= 3, most of them shifted to vanish at one random point so that
    the zero set is seldom empty, shuffled; now and then the unit, or a
    polynomial that leaves the zero set empty while 1 enters the span only
    at degree Q."""
    rng = random.Random(f"default-oracle:{name}:{seed}")
    ring = Ring(field, "k", [f"X{i}" for i in range(rng.randint(1, DEFAULT_NVARS[name]))])
    polys = [f.scale(rng.randrange(1, field.order)) for f in field_equations(ring)]
    point = tuple(rng.randrange(field.order) for _ in range(ring.nvars))
    for f in random_system(ring, rng.randint(1, 3), rng.randint(0, 3), rng).polys:
        if rng.random() < 0.8:
            f = f - ring.constant(f.eval(point))
        polys.append(f)
    kind = rng.random()
    if kind < 0.1:
        polys.append(ring.one())
    elif kind < 0.2:
        polys.append(polys[0] + ring.one())
    rng.shuffle(polys)
    return PolySystem(ring, polys)


def spy_on(monkeypatch, name):
    """The systems passed to ``falldeg.<name>`` from here on."""
    calls, real = [], getattr(falldeg, name)

    def spy(system, *args, **kwargs):
        calls.append(system)
        return real(system, *args, **kwargs)

    monkeypatch.setattr(falldeg, name, spy)
    return calls


@pytest.fixture
def groebner_calls(monkeypatch):
    """The systems that ``last_fall_degree`` hands to the toy Buchberger."""
    return spy_on(monkeypatch, "groebner_toy")


def groebner_profile(system, **kwargs):
    return last_fall_degree(system, oracle=GroebnerOracle(groebner_toy(system)), **kwargs)


@pytest.mark.parametrize("variable_order", VARIABLE_ORDERS)
@pytest.mark.parametrize("name", sorted(FIELDS))
@pytest.mark.parametrize("seed", range(12))
def test_default_profile_equals_groebner_profile(fields, name, variable_order, seed,
                                                groebner_calls):
    """Systems with more zeros than the points oracle is handed get the
    Buchberger, and the spy says which ran."""
    system = in_variable_order(draw_field_equation_system(name, fields[name], seed),
                               variable_order)
    got = last_fall_degree(system)
    many = len(zk_points(system)) > falldeg._ORACLE_MAX_POINTS
    assert groebner_calls == ([system] if many else [])
    assert got == groebner_profile(system)


@pytest.mark.parametrize("variable_order", VARIABLE_ORDERS)
@pytest.mark.parametrize("name", sorted(FIELDS))
def test_default_profile_of_the_unit_ideal(fields, name, variable_order, groebner_calls):
    """The unit ideal: 1 itself, and generators with no common zero whose
    span reaches 1 only at degree 2 (x0 x1 - 1 and x0) or Q (x0^Q - x0 + 1)."""
    ring = Ring(fields[name], "k", ["X0", "X1"])
    x0, x1, one = ring.variable(0), ring.variable(1), ring.one()
    eqs = field_equations(ring)
    for extra in ([one], [x0 * x1 - one, x0], [eqs[0] + one]):
        system = in_variable_order(PolySystem(ring, eqs + extra), variable_order)
        got = last_fall_degree(system)
        assert got.certified
        assert got == groebner_profile(system)
    assert groebner_calls == []


def test_default_profile_of_descended_systems(groebner_calls):
    """F'_1 of random systems over the CLI's request shapes."""
    rng = random.Random("default-oracle:descended")
    for spec, m in (((2, 1, 4), 2), ((2, 2, 2), 2), ((3, 1, 2), 2), ((5, 1, 2), 1)):
        ctx = make_descent_context(make_field(*spec), m)
        for _ in range(2):
            system = build_Fprime1(gen_random_system(ctx.ring_original, 2, m, rng), ctx)
            got = last_fall_degree(system)
            assert groebner_calls == []
            assert got.certified and got == groebner_profile(system)


def test_default_oracle_is_built_only_when_needed(gf4, groebner_calls, monkeypatch):
    points_calls = spy_on(monkeypatch, "zk_points")
    ring = Ring(gf4, "kprime", ["X0", "X1"])
    eqs = field_equations(ring)
    x0 = ring.variable(0)
    last_fall_degree(PolySystem(ring, eqs + [x0 * x0 + x0]), cap=4, certify=False)
    assert last_fall_degree(PolySystem(ring, eqs + [ring.one()])).certified_at == 0
    assert last_fall_degree(PolySystem(ring, eqs + [x0, x0 + ring.one()])).certified_at == 1
    assert points_calls == groebner_calls == []


def assert_buchberger_runs(system, groebner_calls):
    got = last_fall_degree(system)
    assert groebner_calls == [system]
    assert got == groebner_profile(system)


def test_default_oracle_needs_every_field_equation(fields, groebner_calls):
    ring = Ring(fields["GF(3)"], "k", ["X0", "X1", "X2"])
    x0, x1, x2 = (ring.variable(v) for v in range(3))
    eqs = field_equations(ring)
    assert_buchberger_runs(PolySystem(ring, eqs[:2] + [x2 * x2 - x0 * x1, x0 + x2]),
                           groebner_calls)


def test_default_oracle_needs_the_coefficient_field_order(fields, groebner_calls):
    """x^(Q^2) - x also holds the zero set in GF(Q), but is not x^Q - x."""
    ring = Ring(fields["GF(2)"], "k", ["X0", "X1"])
    x0, x1 = ring.variable(0), ring.variable(1)
    system = PolySystem(ring, [x0 * x0 - x0, x1.pow_int(4) - x1, x0 * x1 + x1 + ring.one()])
    assert_buchberger_runs(system, groebner_calls)


def test_default_oracle_needs_x_to_the_q_minus_x(fields, groebner_calls):
    """x^3 + x over GF(3) has the zeros +-i of GF(9) besides 0."""
    ring = Ring(fields["GF(3)"], "k", ["X0", "X1"])
    x0, x1 = ring.variable(0), ring.variable(1)
    system = PolySystem(ring, [x0.pow_int(3) + x0, x1.pow_int(3) - x1, x0 * x1 - x1])
    assert_buchberger_runs(system, groebner_calls)


def test_default_oracle_needs_a_grid_within_budget(fields, groebner_calls):
    ring = Ring(fields["GF(2)"], "k", [f"X{i}" for i in range(18)])
    assert 2**18 > falldeg.ZK_BUDGET
    x = [ring.variable(v) for v in range(ring.nvars)]
    system = PolySystem(ring, field_equations(ring) + [x[0] * x[1] + x[2], x[3] + x[17]])
    assert_buchberger_runs(system, groebner_calls)


def test_zk_points_beyond_budget_is_a_typed_refusal(fields):
    """Still a ValueError, so callers that catch that keep working."""
    ring = Ring(fields["GF(2)"], "k", [f"X{i}" for i in range(18)])
    with pytest.raises(EnumerationBudgetExceeded, match="262144 points") as info:
        zk_points(PolySystem(ring, field_equations(ring)))
    assert isinstance(info.value, ValueError)


def test_default_oracle_passes_other_errors_through(fields, monkeypatch):
    """Only a grid beyond the budget sends a field-equation system to the
    Buchberger; any other ValueError of the enumeration propagates."""
    def broken(system):
        raise ValueError("not a budget refusal")

    monkeypatch.setattr(falldeg, "zk_points", broken)
    ring = Ring(fields["GF(2)"], "k", ["X0"])
    with pytest.raises(ValueError, match="not a budget refusal"):
        last_fall_degree(PolySystem(ring, field_equations(ring)))


def test_default_oracle_needs_a_small_zero_set(fields, groebner_calls):
    """The field equations alone over GF(2): 32 zeros in 5 variables get the
    points oracle, 64 in 6 and 4096 in 12 the Buchberger."""
    assert 2**5 <= falldeg._ORACLE_MAX_POINTS < 2**6
    ring = Ring(fields["GF(2)"], "k", [f"X{i}" for i in range(5)])
    last_fall_degree(PolySystem(ring, field_equations(ring)))
    assert groebner_calls == []
    for nvars in (6, 12):
        ring = Ring(fields["GF(2)"], "k", [f"X{i}" for i in range(nvars)])
        groebner_calls.clear()
        assert_buchberger_runs(PolySystem(ring, field_equations(ring)), groebner_calls)
