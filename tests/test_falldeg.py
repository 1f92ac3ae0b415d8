"""Span closure, fall profiles, certification and the toy Groebner oracle."""

import random

import pytest

from lastfall import (DegreeTooHigh, GroebnerOracle, MalformedInput, PointsOracle, PolySystem,
                      Ring, RingMismatch, groebner_toy, ideal_truncation_dim,
                      last_fall_degree, make_field, span_closure)
from lastfall.falldeg import default_cap
from oracles import (equiv_mod, naive_closure_dim, random_invertible_matrix, random_system,
                     recombine, shuffled_variables)


@pytest.fixture
def r2(gf2):
    return Ring(gf2, "kprime", ["X0", "X1"])


def test_span_single_variable(r2):
    span = span_closure(PolySystem(r2, [r2.variable(0)]), 2)
    assert span.dim == 3
    polys = {p.to_text() for p in span.row_polys()}
    assert polys == {"(1)*X0", "(1)*X0^2", "(1)*X0 X1"}


def test_span_empty_system(r2):
    span = span_closure(PolySystem(r2, []), 3)
    assert span.dim == 0


def test_span_fall_produces_lower_degree(gf4):
    ring = Ring(gf4, "kprime", ["X0"])
    x = ring.variable(0)
    system = PolySystem(ring, [x * x + x, x * x])
    span = span_closure(system, 2)
    assert span.dim == 2
    assert span.contains(x)
    assert span.contains(x * x)
    assert naive_closure_dim(system, 2) == 2


def test_equiv_mod_basics(r2):
    x0, x1 = r2.variable(0), r2.variable(1)
    F = PolySystem(r2, [x0])
    assert equiv_mod(x0 * x1, x0 * x1, 2, F)
    assert equiv_mod(x0 * x1, r2.zero(), 2, F)  # multiple of a generator
    assert not equiv_mod(x1, r2.zero(), 2, F)
    with pytest.raises(DegreeTooHigh):
        equiv_mod(x0 * x0 * x0, r2.zero(), 2, F)


def test_last_fall_single_generator(r2):
    prof = last_fall_degree(PolySystem(r2, [r2.variable(0)]))
    assert prof.last_fall_degree == 0
    assert prof.certified
    assert prof.certified_at == 1


def test_last_fall_no_fall_example(gf4):
    ring = Ring(gf4, "kprime", ["X0", "X1"])
    x0, x1 = ring.variable(0), ring.variable(1)
    system = PolySystem(ring, [x0 * x0 + x1, x1])
    prof = last_fall_degree(system, cap=4)
    assert prof.last_fall_degree == 0
    assert prof.certified
    assert naive_closure_dim(system, 2) == prof.rows[1].dim_V


def test_last_fall_detects_fall(gf4):
    # X0^2 + X0 and X0^2 differ by X0: closing at 2 produces degree 1
    ring = Ring(gf4, "kprime", ["X0"])
    x = ring.variable(0)
    prof = last_fall_degree(PolySystem(ring, [x * x + x, x * x]), cap=4)
    assert prof.last_fall_degree == 2
    assert prof.certified


def test_default_cap_formula(gf9):
    ring = Ring(gf9, "k", ["X0", "X1"])
    f = ring.monomial((2, 1))
    system = PolySystem(ring, [f])
    assert default_cap(system) == max(3 * 3, 2 * 2 + 1) + 2


def test_groebner_single_variable(r2):
    gb = groebner_toy(PolySystem(r2, [r2.variable(0), r2.variable(0)]))
    assert [g.to_text() for g in gb.gens] == ["(1)*X0"]


def test_groebner_unit_ideal(r2, gf4):
    x0, x1 = r2.variable(0), r2.variable(1)
    gb = groebner_toy(PolySystem(r2, [x0 * x0, x0 * x1 + r2.one()]))
    assert len(gb.gens) == 1 and gb.gens[0] == r2.one()
    # cross-check: no common zero over the quadratic extension either
    ring4 = Ring(gf4, "k", ["X0", "X1"])
    lifted = PolySystem(ring4, [ring4.monomial((2, 0)),
                                ring4.monomial((1, 1)) + ring4.one()])
    from oracles import count_zeros
    assert count_zeros(lifted) == 0


def test_groebner_with_field_equations_counts_points(gf4):
    # standard monomial count equals the number of rational points
    from lastfall.poly import monomials_up_to
    from oracles import count_zeros

    ring = Ring(gf4, "kprime", ["X0", "X1"])
    rng = random.Random(13)
    for _ in range(10):
        base = random_system(ring, 2, 2, rng)
        q = 2
        eqs = [ring.variable(i).pow_int(q) - ring.variable(i) for i in range(2)]
        system = PolySystem(ring, list(base.polys) + eqs)
        gb = groebner_toy(system)
        j = 6
        total = len(monomials_up_to(2, j))
        standard = total - ideal_truncation_dim(gb, j)
        assert standard == count_zeros(system)


def test_ideal_truncation_examples(r2):
    gb = groebner_toy(PolySystem(r2, [r2.variable(0)]))
    assert ideal_truncation_dim(gb, 1) == 1
    gb1 = groebner_toy(PolySystem(r2, [r2.one()]))
    assert ideal_truncation_dim(gb1, 0) == 1


def test_truncation_matches_macaulay_rank(gf4):
    """dim(I cap R_{<=j}) from the staircase equals the span dimension of a
    deep closure run (Macaulay-style rank oracle) once the span certifies."""
    ring = Ring(gf4, "kprime", ["X0", "X1"])
    rng = random.Random(3)
    for _ in range(6):
        base = random_system(ring, 2, 2, rng)
        eqs = [ring.variable(i).pow_int(2) - ring.variable(i) for i in range(2)]
        system = PolySystem(ring, list(base.polys) + eqs)
        gb = groebner_toy(system)
        prof = last_fall_degree(system, cap=8)
        assert prof.certified
        span = span_closure(system, prof.certified_at)
        for j in range(prof.certified_at + 1):
            assert span.dim_leq(j) == ideal_truncation_dim(gb, j)


def test_monotonicity(gf9):
    ring = Ring(gf9, "kprime", ["X0", "X1"])
    rng = random.Random(21)
    for _ in range(8):
        system = random_system(ring, 2, 2, rng)
        for i in range(1, 5):
            small = span_closure(system, i - 1)
            big = span_closure(system, i)
            for r in range(small.dim):
                assert big.contains(small.row_poly(r))


def test_soundness_rows_in_ideal(gf4):
    ring = Ring(gf4, "kprime", ["X0", "X1"])
    rng = random.Random(22)
    for _ in range(6):
        system = random_system(ring, 2, 2, rng)
        gb = groebner_toy(system)
        span = span_closure(system, 4)
        for r in range(span.dim):
            assert gb.normal_form(span.row_poly(r)).is_zero()


def test_order_independence(gf4, gf9):
    """A seeded permutation of the variables reorders the grevlex columns,
    and so the elimination path, but neither the profile's rows nor the
    certified last fall degree."""
    for field in (gf4, gf9):
        ring = Ring(field, "kprime", ["X0", "X1", "X2"])
        rng = random.Random(field.order)
        for seed in range(6):
            system = random_system(ring, 2, 2, rng)
            shuffled = shuffled_variables(system, seed)
            assert (last_fall_degree(system, cap=6, certify=False).rows
                    == last_fall_degree(shuffled, cap=6, certify=False).rows)
            a, b = last_fall_degree(system), last_fall_degree(shuffled)
            assert a.certified and b.certified
            assert a.last_fall_degree == b.last_fall_degree


def test_recombination_invariance(gf4):
    ring = Ring(gf4, "k", ["X0", "X1"])
    rng = random.Random(17)
    for _ in range(8):
        system = random_system(ring, 2, 2, rng)
        mat = random_invertible_matrix(gf4, 2, rng)
        mixed = recombine(system, mat)
        a = last_fall_degree(system, cap=6, certify=False)
        b = last_fall_degree(mixed, cap=6, certify=False)
        assert a.last_fall_degree == b.last_fall_degree


def test_naive_oracle_equivalence_small(gf4, gf9):
    for field in (gf4, gf9):
        ring = Ring(field, "kprime", ["X0", "X1", "X2"])
        rng = random.Random(field.order + 1)
        for _ in range(6):
            system = random_system(ring, 2, 2, rng)
            for i in range(1, 5):
                assert span_closure(system, i).dim == naive_closure_dim(system, i)


def test_points_oracle_agrees_with_groebner(gf4):
    ring = Ring(gf4, "kprime", ["X0", "X1"])
    rng = random.Random(31)
    from itertools import product
    for _ in range(6):
        base = random_system(ring, 2, 2, rng)
        eqs = [ring.variable(i).pow_int(2) - ring.variable(i) for i in range(2)]
        system = PolySystem(ring, list(base.polys) + eqs)
        pts = [pt for pt in product(range(2), repeat=2)
               if all(f.eval(pt) == 0 for f in system.polys)]
        po = PointsOracle(ring, pts)
        go = GroebnerOracle(groebner_toy(system))
        for j in range(7):
            assert po.dim_leq(j) == go.dim_leq(j)
        assert po.max_gb_degree() == go.max_gb_degree()


def test_profile_serialization(r2):
    prof = last_fall_degree(PolySystem(r2, [r2.variable(0)]), cap=3)
    obj = prof.to_json_obj()
    assert obj["status"] == "certified"
    rows = list(prof.csv_rows())
    assert rows[0] == ("degree", "dim_V", "dim_V_cap_lower", "dim_prev", "fall")


def test_span_closed_under_variable_shifts(gf9):
    """The published invariant: multiplying any basis row by a variable stays
    inside the span whenever the product degree respects the cap."""
    ring = Ring(gf9, "kprime", ["X0", "X1"])
    rng = random.Random(41)
    for _ in range(5):
        system = random_system(ring, 2, 2, rng)
        span = span_closure(system, 3)
        for r in range(span.dim):
            row = span.row_poly(r)
            if row.degree + 1 > 3:
                continue
            for v in range(ring.nvars):
                assert span.contains(row * ring.variable(v))
        # echelon shape: strictly increasing pivots, normalized, degree-true
        assert list(span.pivots) == sorted(set(span.pivots))
        for r, p in enumerate(span.pivots):
            assert span.matrix[r, p] == 1
            assert span.row_degrees[r] == sum(span.monomials[p])


def test_groebner_step_budget():
    from lastfall import StepBudgetExceeded

    field = make_field(3, 1, 1)
    ring = Ring(field, "kprime", ["X0", "X1", "X2"])
    rng = random.Random(42)
    system = random_system(ring, 3, 3, rng)
    with pytest.raises(StepBudgetExceeded):
        groebner_toy(system, step_budget=3)


def test_certified_value_matches_deep_closure(gf4, gf9):
    """The certified fall degree agrees with a deep uncertified run."""
    from lastfall import make_descent_context, build_F1, build_Fprime1
    from lastfall.descent import f1_points, fprime1_points
    from lastfall.cli import gen_random_system

    rng = random.Random(123)
    for field in (gf4, gf9):
        ctx = make_descent_context(field, 1)
        for _ in range(3):
            F = gen_random_system(ctx.ring_original, rng.randint(1, 3), 1, rng)
            for build, pts in ((build_F1, f1_points), (build_Fprime1, fprime1_points)):
                system = build(F, ctx)
                cert = last_fall_degree(
                    system, oracle=PointsOracle(system.ring, pts(F, ctx)))
                assert cert.certified
                deep = last_fall_degree(system, cap=cert.certified_at + 3,
                                        certify=False)
                assert deep.last_fall_degree == cert.last_fall_degree


def test_cap_limited_status(gf4):
    ring = Ring(gf4, "kprime", ["X0", "X1"])
    x0, x1 = ring.variable(0), ring.variable(1)
    # certification needs degree >= 2 (the reduced basis has a quadric)
    system = PolySystem(ring, [x0 * x0 + x1 * x1 + x0])
    prof = last_fall_degree(system, cap=1)
    assert prof.status == "cap-limited"
    assert prof.certified_at is None
    deeper = last_fall_degree(system, cap=6)
    assert deeper.certified
    assert deeper.last_fall_degree >= prof.last_fall_degree  # lower bound


def test_vector_of_refuses_another_ring(r2, gf4):
    span = span_closure(PolySystem(r2, [r2.variable(0)]), 2)
    other = Ring(gf4, "k", ["X0", "X1"])
    with pytest.raises(RingMismatch):
        span.vector_of(other.variable(0))


def test_vector_of_refuses_a_degree_above_the_cap(r2):
    span = span_closure(PolySystem(r2, [r2.variable(0)]), 2)
    with pytest.raises(DegreeTooHigh):
        span.vector_of(r2.monomial((2, 1)))


@pytest.mark.parametrize("cap", [3.0, "3", None, True, False])
def test_non_integer_cap_is_malformed(r2, cap):
    """A boolean cap was once read as 1 or 0."""
    system = PolySystem(r2, [r2.variable(0)])
    with pytest.raises(MalformedInput, match="cap"):
        span_closure(system, cap)
    if cap is not None:  # None asks last_fall_degree for the default cap
        with pytest.raises(MalformedInput, match="cap"):
            last_fall_degree(system, cap=cap)


def test_points_oracle_refuses_code_outside_field():
    ring = Ring(make_field(3, 1, 1), "kprime", ["X0"])
    for points in ([(5,)], [(0,), (-1,)], [(2**70,)], [(1.5,)], [("1",)]):
        with pytest.raises(MalformedInput):
            PointsOracle(ring, points)


def test_points_oracle_refuses_wrong_arity(gf2):
    ring = Ring(gf2, "kprime", ["X0"])
    for points in ([(0, 1)], [()], [(0,), (0, 1)]):
        with pytest.raises(MalformedInput):
            PointsOracle(ring, points)
    assert PointsOracle(ring, []).dim_leq(2) == 3  # no points: the unit ideal
