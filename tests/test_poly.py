"""Sparse polynomial arithmetic, substitution and the Galois action."""

import json
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lastfall import (LastfallError, MalformedInput, MultiPoly, NEG_INF, PolySystem, Ring,
                      RingMismatch, UnassignedVariable, make_field)
from lastfall.poly import grevlex_descending_key, grevlex_key, monomials_up_to, sum_terms
from oracles import apply_sigma, malformed_system_docs, normal_form_field_eqs, random_system


@pytest.fixture
def r2(gf4):
    return Ring(gf4, "kprime", ["X0", "X1"])


@pytest.fixture
def rk(gf4):
    return Ring(gf4, "k", ["X0", "X1"])


def test_char2_square(r2):
    f = r2.variable(0) + r2.one()
    assert f * f == r2.monomial((2, 0)) + r2.one()


def test_mul_by_zero(r2):
    f = r2.variable(0) + r2.variable(1)
    assert (f * r2.zero()).is_zero()
    assert r2.zero().degree == NEG_INF


def test_freshman_dream(r2):
    f = r2.variable(0) + r2.variable(1)
    assert f * f == r2.monomial((2, 0)) + r2.monomial((0, 2))


def test_ring_mismatch(gf4, gf8):
    a = Ring(gf4, "k", ["X0"]).variable(0)
    b = Ring(gf8, "k", ["X0"]).variable(0)
    with pytest.raises((RingMismatch, TypeError)):
        a + b


def test_degree_multiplicative_random(gf9):
    ring = Ring(gf9, "k", ["X0", "X1", "X2"])
    rng = random.Random(5)
    for _ in range(1000):
        f = random_system(ring, rng.randint(0, 3), 1, rng).polys[0]
        g = random_system(ring, rng.randint(0, 3), 1, rng).polys[0]
        assert (f * g).degree == f.degree + g.degree


def test_substitute_linear(rk, gf4):
    target = Ring(gf4, "k", ["X0_0", "X0_1"])
    alpha = gf4.gen()
    img = target.variable(0) + target.variable(1).scale(alpha)
    f = rk.variable(0)
    assert f.substitute({"X0": img, "X1": target.zero()}) == img


def test_substitute_square_reduces_alpha(gf4):
    # (X00 + a X01)^2 = X00^2 + (a+1) X01^2 when a^2 = a + 1
    rk = Ring(gf4, "k", ["X0"])
    target = Ring(gf4, "k", ["X0_0", "X0_1"])
    alpha = gf4.gen()
    img = target.variable(0) + target.variable(1).scale(alpha)
    f = rk.variable(0) * rk.variable(0)
    got = f.substitute({"X0": img})
    want = target.monomial((2, 0)) + target.monomial((0, 2), gf4.add(alpha, 1))
    assert got == want


def test_substitute_constant(rk, gf4):
    target = Ring(gf4, "k", ["Z"])
    c = rk.constant(gf4.gen())
    assert c.substitute({"X0": target.variable(0), "X1": target.zero()}) == target.constant(gf4.gen())


def test_substitute_missing_variable(rk):
    f = rk.variable(0) * rk.variable(1)
    with pytest.raises(UnassignedVariable):
        f.substitute({"X0": rk.variable(0)})


def test_substitute_is_ring_homomorphism(gf4):
    ring = Ring(gf4, "k", ["X0", "X1"])
    target = Ring(gf4, "k", ["Z0", "Z1"])
    rng = random.Random(9)
    for _ in range(40):
        imgs = {v: random_system(target, 2, 1, rng).polys[0] for v in ring.vars}
        f = random_system(ring, 2, 1, rng).polys[0]
        g = random_system(ring, 2, 1, rng).polys[0]
        assert (f + g).substitute(imgs) == f.substitute(imgs) + g.substitute(imgs)
        assert (f * g).substitute(imgs) == f.substitute(imgs) * g.substitute(imgs)


def test_apply_sigma_fixes_subfield_coeffs(rk):
    f = rk.variable(0) + rk.one()
    for i in range(4):
        assert apply_sigma(f, i) == f


def test_apply_sigma_example(gf4):
    ring = Ring(gf4, "k", ["X0"])
    alpha = gf4.gen()
    f = ring.variable(0).scale(alpha)
    assert apply_sigma(f, 1) == ring.variable(0).scale(gf4.add(alpha, 1))
    assert apply_sigma(f, gf4.n) == f


def test_apply_sigma_composes(gf8):
    ring = Ring(gf8, "k", ["X0", "X1"])
    rng = random.Random(2)
    for _ in range(40):
        f = random_system(ring, 2, 1, rng).polys[0]
        i, j = rng.randrange(6), rng.randrange(6)
        assert apply_sigma(apply_sigma(f, i), j) == apply_sigma(f, (i + j) % gf8.n)


def test_normal_form_field_eqs(r2):
    x0 = r2.variable(0)
    cube = r2.monomial((3, 0))
    assert normal_form_field_eqs(cube, {"X0": (2, 1)}) == x0
    f = x0 + r2.variable(1)
    assert normal_form_field_eqs(f, {"X0": (2, 1)}) == f
    quartic = r2.monomial((4, 1))
    assert normal_form_field_eqs(quartic, {"X0": (2, 1)}) == r2.monomial((1, 1))


def test_text_round_trip(gf4):
    ring = Ring(gf4, "k", ["X0", "X1"])
    rng = random.Random(7)
    for _ in range(25):
        f = random_system(ring, 3, 1, rng).polys[0]
        assert MultiPoly.from_text(ring, f.to_text()) == f
    assert MultiPoly.from_text(ring, ring.zero().to_text()).is_zero()


def test_json_round_trip(gf9):
    ring = Ring(gf9, "k", ["X0", "X1"])
    rng = random.Random(8)
    system = random_system(ring, 3, 4, rng)
    back = PolySystem.from_json_str(system.to_json_str())
    assert back == system


def test_subfield_coefficient_checker(gf4):
    ring = Ring(gf4, "k", ["X0"])
    assert ring.variable(0).lies_in_subfield()
    assert not ring.variable(0).scale(gf4.gen()).lies_in_subfield()


def test_kprime_level_rejects_top_field_coeffs(gf4):
    ring = Ring(gf4, "kprime", ["X0"])
    with pytest.raises(ValueError):
        ring.constant(gf4.gen())


def test_descending_key_reverses_grevlex():
    monos = monomials_up_to(3, 4)
    assert (sorted(monos, key=grevlex_descending_key)
            == sorted(monos, key=grevlex_key, reverse=True))


@pytest.mark.parametrize("exps", [[1.5, 0], [-1, 2], ["1", 0], [1]])
def test_malformed_exponents_are_refused(gf4, exps):
    """A fractional exponent was once truncated to another monomial, and a
    negative one accepted until the span engine failed on it; `monomial`
    once kept [1] as a one-entry exponent and [-1, 2] as a monomial of
    degree 1."""
    ring = Ring(gf4, "k", ["X0", "X1"])
    doc = json.dumps({"field": gf4.to_json(), "level": "k", "vars": ["X0", "X1"],
                      "polys": [[{"coeff": [1, 0], "exps": exps}]]})
    with pytest.raises(MalformedInput):
        PolySystem.from_json_str(doc)
    with pytest.raises(MalformedInput):
        ring.from_terms([(exps, 1)])
    with pytest.raises(MalformedInput):
        ring.monomial(exps)


@pytest.mark.parametrize("coeff", [[1.5, 0], [1, 0, 0], [1], [2, 0], ["1", 0]])
def test_malformed_coefficients_are_refused(gf4, coeff):
    """A fractional digit was once read as 1 and a vector longer than n
    accepted; a digit outside k' died as a plain ValueError."""
    doc = json.dumps({"field": gf4.to_json(), "level": "k", "vars": ["X0"],
                      "polys": [[{"coeff": coeff, "exps": [1]}]]})
    with pytest.raises(MalformedInput):
        PolySystem.from_json_str(doc)
    with pytest.raises(MalformedInput):
        gf4.from_coords(coeff)


@pytest.mark.parametrize("text", ["(1.5)*X0", "1*X0", "X0", "(1)*X0^x", "(1)*X0^", "(1,)*X0"])
def test_malformed_text_is_refused(gf2, text):
    """Each of these once died as a plain ValueError from int() or a tuple
    unpacking; an unknown name stays UnassignedVariable."""
    ring = Ring(gf2, "k", ["X0"])
    with pytest.raises(MalformedInput):
        MultiPoly.from_text(ring, text)
    with pytest.raises(UnassignedVariable):
        MultiPoly.from_text(ring, "(1)*Y")


def test_malformed_system_json_is_refused(gf4):
    for doc in malformed_system_docs(gf4).values():
        with pytest.raises(MalformedInput):
            PolySystem.from_json_obj(doc)
    with pytest.raises(MalformedInput):
        PolySystem.from_json_str('{"field": ')


@pytest.mark.parametrize("point", [
    pytest.param((1, 2, 3), id="extra-coordinate"),
    pytest.param((-1, 2), id="negative"),
    pytest.param((1,), id="missing-coordinate"),
    pytest.param((9, 1), id="above-the-field"),
    pytest.param((1.5, 1), id="float"),
    pytest.param((True, 1), id="boolean"),
])
def test_eval_refuses_malformed_points(gf8, point):
    """x y + 1 over GF(8) once ignored an extra coordinate, read -1 as the
    code 7 and True as 1, and ended in a bare IndexError on the other three
    points."""
    ring = Ring(gf8, "k", ["X0", "X1"])
    f = ring.variable(0) * ring.variable(1) + ring.one()
    with pytest.raises(MalformedInput):
        f.eval(point)
    assert f.eval((3, 5)) == gf8.add(gf8.mul(3, 5), 1)


@pytest.mark.parametrize("level,names", [("K", ["X0"]), ("k", ["X0", "X0"])])
def test_malformed_rings_are_refused(gf4, level, names):
    with pytest.raises(MalformedInput):
        Ring(gf4, level, names)


@pytest.mark.parametrize("make", [
    pytest.param(lambda ring: ring.constant(1.5), id="constant"),
    pytest.param(lambda ring: ring.monomial((1, 0), 2.7), id="monomial"),
    pytest.param(lambda ring: ring.variable(0).scale(3.9), id="scale"),
    pytest.param(lambda ring: ring.from_terms([((1, 0), 2.0)]), id="from-terms"),
])
def test_float_codes_are_refused(gf8, make):
    """Over GF(8) a float code was once truncated: constant(1.5) gave 1,
    monomial(e, 2.7) the coefficient 2 and scale(3.9) scaled by 3."""
    with pytest.raises(MalformedInput):
        make(Ring(gf8, "k", ["X0", "X1"]))


@pytest.mark.parametrize("make", [
    pytest.param(lambda ring: ring.variable(True), id="variable"),
    pytest.param(lambda ring: ring.constant(True), id="constant"),
    pytest.param(lambda ring: ring.from_terms([((True, 0), 1)]), id="exponent"),
])
def test_boolean_codes_and_indices_are_refused(gf8, make):
    """variable(True) once returned X1, constant(True) the constant 1 and
    the exponent vector (True, 0) read as (1, 0)."""
    with pytest.raises(MalformedInput):
        make(Ring(gf8, "k", ["X0", "X1"]))


def test_variable_takes_a_numpy_index(gf8):
    ring = Ring(gf8, "k", ["X0", "X1"])
    assert ring.variable(np.int64(1)) == ring.variable(np.int16(1)) == ring.variable("X1")


@pytest.mark.parametrize("index", [5, 2, -1])
def test_variable_index_outside_the_ring_is_refused(gf8, index):
    """variable(5) once ended in a bare IndexError and variable(-1) returned
    the last variable."""
    ring = Ring(gf8, "k", ["X0", "X1"])
    with pytest.raises(LastfallError):
        ring.variable(index)
    assert ring.variable(1) == ring.variable("X1") == ring.monomial((0, 1))


_GF5 = make_field(5, 1, 1)


@given(st.lists(st.tuples(st.sampled_from([(0, 0), (1, 0), (0, 1), (2, 1)]),
                          st.integers(0, 4))))
def test_sum_terms_matches_a_naive_sum(pairs):
    """Few exponents, so repeats and zero sums are common; a code 0 enters
    too.  The result holds exactly the nonzero totals."""
    totals = {}
    for e, c in pairs:
        totals[e] = (totals.get(e, 0) + c) % 5
    assert sum_terms(pairs, _GF5.add) == {e: c for e, c in totals.items() if c}
