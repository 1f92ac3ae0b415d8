"""Field tower construction, arithmetic axioms and Frobenius behaviour."""

import random

import numpy as np
import pytest

from lastfall import (DivisionByZero, FieldSpec, LastfallError, MalformedInput,
                      NonPrimeCharacteristic, NotABasis, ReducibleModulus, UnsupportedField,
                      make_field)
from oracles import (FieldElement, field_from_json_str, field_to_json_str, frob_by_matrix,
                     frobenius_q, moore_matrix)


def test_make_field_gf4_default_modulus():
    f = make_field(2, 1, 2)
    assert f.m2 == (1, 1, 1)  # the unique irreducible quadratic over GF(2)
    assert f.q == 2 and f.order == 4


def test_make_field_explicit_modulus_gf8():
    f = make_field(2, 1, 3, m2=(1, 1, 0, 1))  # t^3 + t + 1
    assert f.order == 8
    t = f.gen()
    assert f.pow(t, 3) == f.add(t, 1)  # t^3 = t + 1


def test_make_field_gf9_root_check():
    f = make_field(3, 1, 2, m2=(1, 0, 1))  # t^2 + 1
    # irreducibility by exhaustive root check over GF(3)
    for x in range(3):
        assert (x * x + 1) % 3 != 0
    assert f.mul(f.gen(), f.gen()) == 2  # t^2 = -1 = 2


def test_make_field_rejects_bad_inputs():
    with pytest.raises(NonPrimeCharacteristic):
        make_field(4, 1, 2)
    with pytest.raises(ReducibleModulus):
        make_field(2, 1, 2, m2=(1, 0, 1))  # t^2 + 1 = (t+1)^2 over GF(2)


def test_make_field_refuses_n_below_one():
    with pytest.raises(UnsupportedField) as info:
        make_field(2, 1, 0)
    assert isinstance(info.value, LastfallError) and isinstance(info.value, ValueError)


def test_make_field_refuses_e_below_one():
    with pytest.raises(UnsupportedField):
        make_field(2, 0, 3)


def test_make_field_refuses_order_above_bound_before_any_search(monkeypatch):
    from lastfall import univar

    def no_search(*args):
        raise AssertionError("modulus search started")

    monkeypatch.setattr(univar, "first_irreducible", no_search)
    with pytest.raises(UnsupportedField):
        make_field(2, 1, 16)
    with pytest.raises(UnsupportedField):
        make_field(2, 5, 40)
    with pytest.raises(UnsupportedField):
        make_field(1031, 1, 1)


@pytest.mark.parametrize("kwargs", [
    pytest.param(dict(p="3", e=1, n=2), id="p-string"),
    pytest.param(dict(p=3.0, e=1, n=2), id="p-float"),
    pytest.param(dict(p=3, e=True, n=2), id="e-boolean"),
    pytest.param(dict(p=3, e=1, n=None), id="n-none"),
    pytest.param(dict(p=3, e=1, n=[2]), id="n-list"),
    pytest.param(dict(p=3, e=1, n=2, m2=[1, 0]), id="m2-degree-1"),
    pytest.param(dict(p=3, e=1, n=2, m2=[1, 0, 3]), id="m2-code-3"),
    pytest.param(dict(p=3, e=1, n=2, m2=[1, 0, True]), id="m2-boolean-code"),
    pytest.param(dict(p=3, e=1, n=2, m2=[1.0, 0, 1]), id="m2-float-code"),
    pytest.param(dict(p=3, e=1, n=2, m2=7), id="m2-int"),
    pytest.param(dict(p=3, e=1, n=2, m2={"0": 1}), id="m2-object"),
    pytest.param(dict(p=3, e=2, n=1, m1=[1, 1, 1, 1]), id="m1-degree-3"),
    pytest.param(dict(p=3, e=1, n=2, m1=[]), id="m1-empty"),
])
def test_make_field_refuses_malformed_spec(kwargs):
    """Each of these once raised a TypeError, a plain ValueError or
    nothing (a boolean e, a boolean code) instead of MalformedInput."""
    with pytest.raises(MalformedInput):
        make_field(**kwargs)
    with pytest.raises(MalformedInput):
        FieldSpec.from_json(kwargs)


def test_make_field_takes_numpy_integers():
    """make_field once refused the numpy integers that a DescentContext takes."""
    field = make_field(np.int64(2), np.int16(1), np.int64(2), m2=np.array([1, 1, 1]))
    assert field == make_field(2, 1, 2) and hash(field) == hash(make_field(2, 1, 2))
    assert type(field.n) is int and field.to_json() == make_field(2, 1, 2).to_json()


def test_field_from_json_refuses_non_object():
    with pytest.raises(MalformedInput):
        FieldSpec.from_json([3, 1, 2])


def test_arith_examples(gf4, gf9):
    t = gf4.gen()
    assert gf4.mul(t, t) == gf4.add(t, 1)  # t^2 = t + 1
    assert gf4.inv(1) == 1
    assert gf9.mul(gf9.gen(), gf9.gen()) == 2
    with pytest.raises(DivisionByZero):
        gf4.inv(0)


@pytest.mark.parametrize("params", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 1, 4),
                                    (2, 2, 3), (5, 1, 2), (3, 1, 3)])
def test_field_axioms_exhaustive(params):
    p, e, n = params
    f = make_field(p, e, n)
    assert f.order <= 64 or params == (3, 1, 3)
    elems = list(f.elements())
    sample = elems if f.order <= 32 else random.Random(0).sample(elems, 24)
    for a in sample:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
        for b in sample[:12]:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in sample[:6]:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))


def test_field_element_wrapper(gf4):
    a = FieldElement(gf4, 2)
    b = FieldElement(gf4, 3)
    assert (a * b).code == gf4.mul(2, 3)
    assert (a + b).code == 1
    assert (a / a).code == 1
    assert (a ** 3).code == 1  # multiplicative order of GF(4)* divides 3
    assert a.coeffs == ((0,), (1,))


def test_frobenius_fixes_subfield(gf8):
    for c in range(gf8.q):
        assert gf8.frob(c, 1) == c


def test_frobenius_examples(gf4, gf8):
    t = gf4.gen()
    assert gf4.frob(t, 1) == gf4.add(t, 1)  # t^2 = t + 1
    rng = random.Random(3)
    for _ in range(20):
        x = rng.randrange(gf8.order)
        assert gf8.frob(x, 3) == x  # sigma_n is the identity
        assert gf8.frob(x, 0) == x


@pytest.mark.parametrize("params", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 3)])
def test_frobenius_is_iterated_q_power(params):
    f = make_field(*params)
    for x in f.elements():
        y = x
        for i in range(f.n):
            assert f.frob(x, i) == y == f.pow(x, f.q**i)
            y = f.pow(y, f.q)


@pytest.mark.parametrize("params", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 3)])
def test_frobenius_additive_and_multiplicative(params):
    f = make_field(*params)
    elems = list(f.elements())
    for i in range(f.n):
        for a in elems:
            for b in elems[: min(16, len(elems))]:
                assert f.frob(f.add(a, b), i) == f.add(f.frob(a, i), f.frob(b, i))
                assert f.frob(f.mul(a, b), i) == f.mul(f.frob(a, i), f.frob(b, i))


def test_frobenius_matrix_path_agrees(gf8, gf64_tower):
    for f in (gf8, gf64_tower):
        for x in f.elements():
            assert frob_by_matrix(f, x) == f.frob(x, 1)


def test_moore_matrix_polynomial_basis(gf4):
    t = gf4.gen()
    gamma = moore_matrix([FieldElement(gf4, 1), FieldElement(gf4, t)])
    assert gamma.entries == ((1, t), (1, gf4.add(t, 1)))
    assert gamma.rank() == 2


def test_moore_matrix_repeated_element_not_a_basis(gf4):
    with pytest.raises(NotABasis):
        moore_matrix([FieldElement(gf4, 1), FieldElement(gf4, 1)])


def test_moore_matrix_cubic_basis(gf8):
    t = gf8.gen()
    basis = [FieldElement(gf8, 1), FieldElement(gf8, t), FieldElement(gf8, gf8.mul(t, t))]
    gamma = moore_matrix(basis)
    assert gamma.rank() == 3
    assert gamma.row(0) == (1, t, gf8.mul(t, t))


def test_moore_invertible_iff_independent_exhaustive(gf4):
    """All 16 pairs over GF(4): Moore matrix invertible <=> k'-independent."""
    from oracles import rank
    import numpy as np

    ops = gf4.kprime
    for a in gf4.elements():
        for b in gf4.elements():
            coords = np.array([gf4.coords(a), gf4.coords(b)], dtype=np.int16).T
            independent = rank(coords, ops) == 2
            try:
                moore_matrix([FieldElement(gf4, a), FieldElement(gf4, b)])
                ok = True
            except NotABasis:
                ok = False
            assert ok == independent


def test_moore_invertible_iff_independent_random(gf8):
    from oracles import rank
    import numpy as np

    ops = gf8.kprime
    rng = random.Random(11)
    for _ in range(60):
        tup = [rng.randrange(gf8.order) for _ in range(3)]
        coords = np.array([gf8.coords(x) for x in tup], dtype=np.int16).T
        independent = rank(coords, ops) == 3
        try:
            moore_matrix([FieldElement(gf8, x) for x in tup])
            ok = True
        except NotABasis:
            ok = False
        assert ok == independent


def test_field_json_round_trip(gf9, gf64_tower):
    for f in (gf9, gf64_tower):
        g = field_from_json_str(field_to_json_str(f))
        assert g == f
        assert g.m1 == f.m1 and g.m2 == f.m2


def test_frobenius_q_on_elements(gf4):
    x = FieldElement(gf4, gf4.gen())
    assert frobenius_q(x, 1).code == gf4.add(gf4.gen(), 1)
    assert frobenius_q(x, 0) == x
    assert frobenius_q(x, gf4.n) == x


def test_field_element_hash_follows_equality():
    a = FieldElement(make_field(2, 1, 3), 5)
    b = FieldElement(make_field(2, 1, 3), 5)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
