"""Linearized polynomials, invariant subspaces, and the structured solver."""

import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lastfall import (DegreeExceedsBound, DivisionByZero, EnumerationBudgetExceeded,
                      MalformedInput, NotABasis, NotADivisor, NotReducible, brute_force_solve,
                      build_Qbar,
                      enumerate_solutions, frobenius_step, full_space, make_field,
                      reducibility_check, solve_structured, subfield_space, subspace_equal,
                      subspace_from_fW, symbolic_gcd, symbolic_rdivmod)
from lastfall import Ring, univar
from lastfall.linalg import DTYPE, kernel_basis
from lastfall.linsys import (InvariantSubspace, LinearizedPoly, _frobenius_closure,
                             _operator_matrix, apply_companion, gbar_system, linearized_to_form)

import oracles
from oracles import (GcdConditionFailed, NotCoprime, bezout, brute_force_reducibility, compose,
                     eliminate_stage, ell_op, equiv_mod, form_eval_at_subspace_point,
                     is_stage_witness, lcompose_reduce, row_eval_at_subspace_point,
                     span_linear_forms, stage_elimination_solve, symbolic_ext_gcd, symbolic_mul)


def random_linearized(field, m, bound, rng):
    while True:
        rows = [tuple(rng.randrange(field.order) for _ in range(bound))
                for _ in range(m)]
        lp = LinearizedPoly(field, rows, bound=bound)
        if not lp.is_zero():
            return lp


# -- symbolic operations -------------------------------------------------------


def test_symbolic_mul_is_composition(gf8):
    rng = random.Random(1)
    for _ in range(40):
        a = tuple(rng.randrange(8) for _ in range(3))
        b = tuple(rng.randrange(8) for _ in range(3))
        prod = symbolic_mul(gf8, a, b)
        la = LinearizedPoly(gf8, [a])
        lb = LinearizedPoly(gf8, [b])
        lp = LinearizedPoly(gf8, [prod]) if prod else None
        for v in range(8):
            inner = lb.eval((v,))
            outer = la.eval((inner,))
            want = lp.eval((v,)) if lp else 0
            assert outer == want


def test_symbolic_rdivmod_identity(gf8):
    rng = random.Random(2)
    for _ in range(60):
        f = tuple(rng.randrange(8) for _ in range(4))
        g = univar.trim(tuple(rng.randrange(8) for _ in range(3)))
        if not g:
            continue
        c, r = symbolic_rdivmod(gf8, f, g)
        back = univar.trim(symbolic_mul(gf8, c, g))
        total = tuple(gf8.add(x, y) for x, y in
                      zip(back + (0,) * 8, tuple(r) + (0,) * 8))[:8]
        assert univar.trim(total) == univar.trim(f)
        assert len(r) < len(g)


def test_symbolic_rdivmod_refuses_a_zero_divisor(gf8):
    """Once a bare ZeroDivisionError, unlike univar.divmod_poly."""
    for g in ((), (0, 0)):
        with pytest.raises(DivisionByZero):
            symbolic_rdivmod(gf8, (1, 2), g)


def test_symbolic_gcd_kernel_intersection(gf8):
    W = full_space(gf8)
    rng = random.Random(3)
    for _ in range(40):
        f = univar.trim(tuple(rng.randrange(8) for _ in range(3)))
        g = univar.trim(tuple(rng.randrange(8) for _ in range(3)))
        if not f or not g:
            continue
        d = symbolic_gcd(gf8, f, g)
        kf = {w for w in W.elements() if LinearizedPoly(gf8, [f]).eval((w,)) == 0}
        kg = {w for w in W.elements() if LinearizedPoly(gf8, [g]).eval((w,)) == 0}
        kd = {w for w in W.elements() if not d or LinearizedPoly(gf8, [d]).eval((w,)) == 0}
        assert kf & kg == kd


def test_symbolic_ext_gcd_certificate(gf8):
    rng = random.Random(4)
    for _ in range(40):
        f = univar.trim(tuple(rng.randrange(8) for _ in range(4)))
        g = univar.trim(tuple(rng.randrange(8) for _ in range(3)))
        if not f or not g:
            continue
        d, u, v = symbolic_ext_gcd(gf8, f, g)
        lhs = univar.trim(tuple(
            gf8.add(x, y) for x, y in
            zip(tuple(symbolic_mul(gf8, u, f)) + (0,) * 10,
                tuple(symbolic_mul(gf8, v, g)) + (0,) * 10)))
        assert lhs == d


# -- L / ell, compose ------------------------------------------------------------


def test_L_and_ell_relabel(gf4):
    W = full_space(gf4)
    lp = LinearizedPoly(gf4, [(0, 1)], bound=2)
    assert lp.coeffs == ((0, 1),)
    assert linearized_to_form(lp, W, 1).tolist() == [0, 1]
    # f = x0: L = x0, ell = x00
    lp0 = LinearizedPoly(gf4, [(1,)], bound=2)
    assert lp0.coeffs == ((1, 0),)


def test_L_exponent_map(gf4):
    from lastfall import Ring

    alpha = gf4.gen()
    lp = LinearizedPoly(gf4, [(1, 0, alpha)], bound=3)
    ring = Ring(gf4, "k", ["x0"])
    poly = lp.to_poly(ring)
    assert poly.coeff_of((1,)) == 1
    assert poly.coeff_of((4,)) == alpha  # q^2 = 4


def test_ell_two_variables(gf4):
    lp = LinearizedPoly(gf4, [(1,), (1,)], bound=2)
    assert linearized_to_form(lp, full_space(gf4), 2).tolist() == [1, 0, 1, 0]


def test_degree_bound_enforced(gf4):
    with pytest.raises(DegreeExceedsBound):
        LinearizedPoly(gf4, [(1, 1, 1)], bound=2)


@pytest.mark.parametrize("code", [-1, 9, 1.5, "a", True])
def test_linearized_poly_refuses_codes_outside_k(gf8, code):
    """Over GF(8), -1 was accepted (numpy wrapped the index and both solvers
    returned dim 0), 9 and 1.5 ended in an IndexError, "a" in a
    ValueError and True was read as 1."""
    with pytest.raises(MalformedInput):
        LinearizedPoly(gf8, [(1, code), (0, 1)])


@pytest.mark.parametrize("point", [(1,), (9, 1), (True, 1), (-1, 1), (1.5, 1), None],
                         ids=["short", "above-k", "boolean", "negative", "float", "none"])
def test_linearized_eval_refuses_malformed_points(gf8, point):
    """Over GF(8), (1,) and (9, 1) once ended in a bare IndexError, (True, 1)
    in a TypeError, and (-1, 1) read -1 as the code 7."""
    lp = LinearizedPoly(gf8, [(1, 2), (3,)])
    with pytest.raises(MalformedInput):
        lp.eval(point)
    assert lp.eval((3, 5, 7)) == lp.eval((3, 5)) == gf8.add(
        apply_companion(gf8, (1, 2), 3), apply_companion(gf8, (3,), 5))


@pytest.mark.parametrize("read", [
    pytest.param(lambda W, f: W.from_coords((1, 0)), id="short"),
    pytest.param(lambda W, f: W.from_coords((-1, 0, 0)), id="negative"),
    pytest.param(lambda W, f: W.from_coords((2, 0, 0)), id="not-a-kprime-code"),
    pytest.param(lambda W, f: subspace_from_fW((True, 1), f), id="fW-boolean"),
    pytest.param(lambda W, f: subspace_from_fW((-1, 1), f), id="fW-negative"),
])
def test_subspace_readers_refuse_malformed_codes(gf8, read):
    """Over GF(8) with W = k, from_coords once truncated (1, 0) to 1 and read
    (-1, 0, 0) as 7 and (2, 0, 0) as 2; subspace_from_fW ended in a
    TypeError on (True, 1) and a RuntimeError on (-1, 1)."""
    W = full_space(gf8)
    with pytest.raises(MalformedInput):
        read(W, gf8)
    assert W.from_coords((1, 1, 0)) == gf8.add(W.basis_W[0], W.basis_W[1])


def test_linearized_poly_takes_numpy_codes(gf8):
    lp = LinearizedPoly(gf8, [(np.int16(3), np.int64(7))])
    assert lp.coeffs == ((3, 7),)


def test_compose_identity_and_square(gf4):
    f_rows = [(gf4.gen(), 1)]
    assert compose((0, 1), f_rows, gf4) == [univar.trim(f_rows[0])]
    # g = x^2, f_0 = x: composed companion is x^2, i.e. the map x -> x^{q^2}
    assert compose((0, 0, 1), [(0, 1)], gf4) == [(0, 0, 1)]


def test_symbolic_compose_pointwise(gf8):
    """L(g)(L(f)(v)) agrees with the symbolic product companion on W^m."""
    W = full_space(gf8)
    rng = random.Random(5)
    for _ in range(30):
        g = univar.trim(tuple(rng.randrange(8) for _ in range(3)))
        f = univar.trim(tuple(rng.randrange(8) for _ in range(3)))
        if not f or not g:
            continue
        comp = symbolic_mul(gf8, g, f)
        for v in W.elements():
            inner = LinearizedPoly(gf8, [f]).eval((v,))
            lhs = LinearizedPoly(gf8, [g]).eval((inner,))
            rhs = LinearizedPoly(gf8, [comp]).eval((v,)) if comp else 0
            assert lhs == rhs


# -- invariant subspaces ---------------------------------------------------------


def test_subspace_full_and_subfield(gf8):
    assert full_space(gf8).dim == 3
    sub = subfield_space(gf8)
    assert sub.dim == 1
    assert set(sub.elements()) == set(range(2))


def test_subspace_quadratic_factor(gf8):
    W = subspace_from_fW((1, 1, 1), gf8)
    assert W.dim == 2
    for w in W.elements():
        # tau-invariance
        assert W.contains(gf8.frob(w, 1))


def test_subspace_rejects_non_divisor(gf8):
    with pytest.raises(NotADivisor):
        subspace_from_fW((1, 0, 1), gf8)  # x^2 + 1 does not divide x^3 - 1


def test_kernel_dimension_law(gf8, gf16):
    """dim ker(L(g)|_W) = deg g for every monic divisor g of f_W."""
    for field in (gf8, gf16):
        kp = field.kprime
        xn1 = univar.x_pow_n_minus_one(kp, field.n)
        for fw in univar.monic_divisors(kp, xn1):
            if univar.degree(fw) < 1:
                continue
            W = subspace_from_fW(fw, field)
            for g in univar.monic_divisors(kp, fw):
                if univar.degree(g) < 0:
                    continue
                ker = [w for w in W.elements()
                       if LinearizedPoly(field, [tuple(g)]).eval((w,)) == 0]
                assert len(ker) == field.q ** univar.degree(g)


def test_L_ell_pointwise_correspondence(gf8):
    """ell(f) evaluated at x_{ij} = x_i^{q^j} equals L(f) on W^m."""
    rng = random.Random(6)
    for fw in [(1, 1), (1, 1, 1), univar.x_pow_n_minus_one(gf8.kprime, 3)]:
        W = subspace_from_fW(univar.trim(fw), gf8)
        for m in (1, 2):
            for _ in range(10):
                lp = random_linearized(gf8, m, W.nprime, rng)
                row = linearized_to_form(lp, W, m)
                for pt in product(list(W.elements()), repeat=m):
                    assert row_eval_at_subspace_point(gf8, row, pt) == lp.eval(pt)


def test_linearity_of_evaluation(gf4, gf9):
    for field in (gf4, gf9):
        rng = random.Random(field.order)
        lp = random_linearized(field, 2, field.n, rng)
        for a in range(field.order):
            for b in range(field.order):
                for c in range(field.q):
                    x = (a, b)
                    y = (b, a)
                    s = tuple(field.add(u, v) for u, v in zip(x, y))
                    assert lp.eval(s) == field.add(lp.eval(x), lp.eval(y))
                    cx = tuple(field.mul(c, u) for u in x)
                    assert lp.eval(cx) == field.mul(c, lp.eval(x))



@pytest.mark.parametrize("spec", [(2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 2, 2), (3, 1, 2)])
def test_apply_companion_matches_polynomial_evaluation(spec):
    """apply_companion and LinearizedPoly.eval, which read the Frobenius
    tables, against the polynomial sum a_ij X_i^{q^j} evaluated through
    FieldOps.pow, at every point; the bound n + 1 includes x^{q^n} = x."""
    field = make_field(*spec)
    rng = random.Random(f"apply:{spec}")
    ring1 = Ring(field, "k", ["X0"])
    ring2 = Ring(field, "k", ["X0", "X1"])
    for _ in range(4):
        lp = random_linearized(field, 2, field.n + 1, rng)
        row_poly = LinearizedPoly(field, [lp.coeffs[0]]).to_poly(ring1)
        for x in range(field.order):
            assert apply_companion(field, lp.coeffs[0], x) == row_poly.eval((x,))
        poly = lp.to_poly(ring2)
        for pt in product(range(field.order), repeat=2):
            assert lp.eval(pt) == poly.eval(pt)


def test_operator_matrix_columns_are_images(gf8, gf16, gf9):
    """Column t is the image of the t-th basis vector of W, and the matrix
    maps the coordinates of every w in W to those of L(companion)(w)."""
    for field in (gf8, gf16, gf9):
        rng = random.Random(field.order)
        kp = field.kprime
        ring = Ring(field, "k", ["X0"])
        for fw in univar.monic_divisors(kp, univar.x_pow_n_minus_one(kp, field.n)):
            if univar.degree(fw) < 1:
                continue
            W = subspace_from_fW(fw, field)
            for length in (field.n, field.n + 2):
                companion = tuple(rng.randrange(field.order) for _ in range(length))
                image = LinearizedPoly(field, [companion]).to_poly(ring)
                mat = W.operator_matrix(companion)
                assert mat.shape == (field.n, W.nprime)
                for t, w in enumerate(W.basis_W):
                    assert list(mat[:, t]) == list(field.coords(image.eval((w,))))
                for w in W.elements():
                    coords = np.array(W.coords_of(w), dtype=DTYPE)
                    assert (list(oracles.matvec(kp, mat, coords))
                            == list(field.coords(image.eval((w,)))))


@pytest.mark.parametrize("spec", [(2, 1, 2), (2, 1, 3), (2, 1, 4), (3, 1, 2), (3, 1, 3),
                                  (2, 2, 2)])
def test_coordinate_lookup_is_the_kernel_of_fW(spec):
    """For every monic f_W and every code x of k: coords_of(x) is None
    exactly when L(f_W)(x) != 0, and otherwise from_coords inverts it."""
    field = make_field(*spec)
    kp = field.kprime
    for fw in univar.monic_divisors(kp, univar.x_pow_n_minus_one(kp, field.n)):
        if univar.degree(fw) < 1:
            continue
        W = subspace_from_fW(fw, field)
        for x in range(field.order):
            coords = W.coords_of(x)
            assert (coords is None) == (apply_companion(field, W.fW, x) != 0)
            assert W.contains(x) == (coords is not None)
            if coords is not None:
                assert W.from_coords(coords) == x


def test_invariant_subspace_refuses_dependent_basis(gf8):
    t = gf8.gen()
    t2 = gf8.mul(t, t)
    with pytest.raises(NotABasis):
        InvariantSubspace(gf8, (1, 0, 0, 1), [t, t2, gf8.add(t, t2)])


def test_invariant_subspace_refuses_basis_of_wrong_size(gf8):
    """f_W = x + 1 cuts out W = k', of dimension 1."""
    for basis in ([1, 2], [], [1, 1]):
        with pytest.raises(NotABasis):
            InvariantSubspace(gf8, (1, 1), basis)


def test_invariant_subspace_reads_its_arguments(gf8):
    """f_W is read as k' codes and the basis as k codes: a basis [True] once
    ended in numpy's TypeError.  Over GF(8), k' = GF(2)."""
    for fW, basis in (((1, 1), [True]), ((1, 1), [1.0]), ((1, 1), [8]), ((1, 1), [-1]),
                      ((1, 1), "1"), ((True, 1), [1]), ((1, 2), [1]), ((1.0, 1), [1])):
        with pytest.raises(MalformedInput, match="fW|basis"):
            InvariantSubspace(gf8, fW, basis)
    assert InvariantSubspace(gf8, [np.int64(1), 1], np.array([1])).basis_W == (1,)


def test_invariant_subspace_refuses_element_outside_W(gf8):
    """t is not fixed by the Frobenius, so it is not in W = k'."""
    with pytest.raises(NotABasis, match="ker"):
        InvariantSubspace(gf8, (1, 1), [gf8.gen()])
    assert InvariantSubspace(gf8, (1, 1), [1]).dim == 1


@pytest.mark.parametrize("spec", [(2, 1, 2), (2, 1, 3), (2, 1, 4), (3, 1, 2), (3, 1, 3),
                                  (2, 2, 2), (2, 3, 2)])
def test_fw_matrix_matches_tau_power_reference(spec):
    """For every monic f_W: f_W(tau) from the images of the polynomial basis
    t^j (code q^j) equals the tau-power loop over the Frobenius matrix, and
    basis_W is the kernel of that reference matrix."""
    field = make_field(*spec)
    kp = field.kprime
    for fw in univar.monic_divisors(kp, univar.x_pow_n_minus_one(kp, field.n)):
        if univar.degree(fw) < 1:
            continue
        want = oracles.reference_fw_matrix(fw, field)
        got = _operator_matrix(field, fw, [field.q**j for j in range(field.n)])
        assert got.dtype == DTYPE
        assert np.array_equal(got, want)
        ker = kernel_basis(want, kp)
        assert (subspace_from_fW(fw, field).basis_W
                == tuple(field.from_coords(v.tolist()) for v in ker))

# -- rewriting relations ----------------------------------------------------------


def test_build_Qbar_cyclic(gf4):
    W = full_space(gf4)
    polys = build_Qbar(W, 1)
    texts = {p.to_text() for p in polys}
    assert texts == {"(1,0)*x0_0^2 + (1,0)*x0_1", "(1,0)*x0_1^2 + (1,0)*x0_0"}


def test_build_Qbar_subfield(gf4):
    W = subfield_space(gf4)
    polys = build_Qbar(W, 1)
    assert [p.to_text() for p in polys] == ["(1,0)*x0_0^2 + (1,0)*x0_0"]


def test_build_Qbar_quadratic_factor(gf8):
    W = subspace_from_fW((1, 1, 1), gf8)
    texts = [p.to_text() for p in build_Qbar(W, 1)]
    assert texts == ["(1,0,0)*x0_0^2 + (1,0,0)*x0_1",
                     "(1,0,0)*x0_1^2 + (1,0,0)*x0_0 + (1,0,0)*x0_1"]


@pytest.mark.parametrize("spec", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 1, 3), (2, 2, 2),
                                  (2, 1, 1)])
def test_build_Qbar_matches_power_reference(spec):
    """For every monic f_W and m = 1..3, the relations built from their
    exponents equal x^q - x' formed by raising a variable to the q-th power,
    closed by x^q minus the sum of the gW_l x_l, in the same places."""
    field = make_field(*spec)
    kp = field.kprime
    for fw in univar.monic_divisors(kp, univar.x_pow_n_minus_one(kp, field.n)):
        if univar.degree(fw) < 1:
            continue
        W = subspace_from_fW(fw, field)
        n1 = W.nprime
        for m in (1, 2, 3):
            ring = Ring(field, "k", [f"x{i}_{j}" for i in range(m) for j in range(n1)])
            x = [ring.variable(v) for v in range(m * n1)]
            want = []
            for i in range(m):
                want += [x[i * n1 + j].pow_int(field.q) - x[i * n1 + j + 1]
                         for j in range(n1 - 1)]
                closing = ring.zero()
                for l, c in enumerate(W.gW):
                    closing = closing + x[i * n1 + l].scale(c)
                want.append(x[i * n1 + n1 - 1].pow_int(field.q) - closing)
            assert build_Qbar(W, m) == want


def test_frobenius_step_examples(gf4):
    Wp = subfield_space(gf4)
    f = np.array([[1]], dtype=DTYPE)
    assert frobenius_step(f, Wp).tolist() == [[1]]  # n' = 1: the subfield equation fixes it

    W = full_space(gf4)
    f = np.array([[1, 0]], dtype=DTYPE)
    assert frobenius_step(f, W).tolist() == [[0, 1]]


def test_frobenius_step_n_fold_identity(gf4):
    W = full_space(gf4)
    rng = random.Random(7)
    for _ in range(20):
        lp = random_linearized(gf4, 2, 2, rng)
        f = linearized_to_form(lp, W, 2)[None]
        g = f
        for _ in range(gf4.n):
            g = frobenius_step(g, W)
        # pointwise: stepping n times squares values back to themselves
        for pt in product(range(gf4.order), repeat=2):
            assert (row_eval_at_subspace_point(gf4, g[0], pt)
                    == row_eval_at_subspace_point(gf4, f[0], pt))
        # exact form equality: coefficients are sigma_n-fixed and indices wrap
        assert np.array_equal(g, f)


def test_frobenius_step_preserves_stage(gf8):
    W = full_space(gf8)
    f = np.array([[0, 0, 0, 1, 2, 3]], dtype=DTYPE)
    assert np.flatnonzero(f[0])[0] // W.nprime == 1
    assert np.flatnonzero(frobenius_step(f, W)[0])[0] // W.nprime == 1


def test_frobenius_step_matches_q_power(gf8):
    """The stepped form evaluates to the q-th power of the original."""
    rng = random.Random(8)
    for fw in [(1, 1), (1, 1, 1)]:
        W = subspace_from_fW(fw, gf8)
        for _ in range(10):
            lp = random_linearized(gf8, 1, W.nprime, rng)
            f = linearized_to_form(lp, W, 1)
            g = frobenius_step(f[None], W)[0]
            for w in W.elements():
                assert row_eval_at_subspace_point(gf8, g, (w,)) == gf8.frob(
                    row_eval_at_subspace_point(gf8, f, (w,)), 1)


def test_lcompose_reduce_examples(gf4):
    W = full_space(gf4)
    f = ell_op(gf4, [(1, 0)], bound=2)
    c = gf4.gen()
    scaled = lcompose_reduce((c,), f, W)
    assert scaled.coeffs == ((c, 0),)
    shifted = lcompose_reduce((0, 1), f, W)
    assert shifted.coeffs == ((0, 1),)


def test_lcompose_reduce_pointwise(gf8):
    W = full_space(gf8)
    rng = random.Random(9)
    for _ in range(20):
        lp = random_linearized(gf8, 2, 3, rng)
        f = oracles.linearized_to_form(lp, W)
        g = univar.trim(tuple(rng.randrange(8) for _ in range(3)))
        if not g:
            continue
        out = lcompose_reduce(g, f, W)
        lg = LinearizedPoly(gf8, [g])
        for pt in product(list(W.elements()), repeat=2):
            inner = form_eval_at_subspace_point(f, pt)
            assert form_eval_at_subspace_point(out, pt) == lg.eval((inner,))


# -- bezout ----------------------------------------------------------------------


def test_bezout_constant(gf4):
    A, B = bezout((1,), (1, 0, 1, 1), gf4)
    assert A == (1,) and B == ()


def test_bezout_linear_example():
    f2 = make_field(2, 1, 1)
    A, B = bezout((0, 1), (1, 1), f2)  # x and x - 1 over GF(2)
    assert A == (1,) and B == (1,)


def test_bezout_random_certificates(gf8):
    rng = random.Random(10)
    ar = gf8.k
    checked = 0
    while checked < 30:
        f = univar.trim(tuple(rng.randrange(8) for _ in range(3)))
        g = univar.trim(tuple(rng.randrange(8) for _ in range(4)))
        if not f or not g or univar.gcd(ar, f, g) != (1,):
            continue
        A, B = bezout(f, g, gf8)
        ident = univar.add(ar, univar.mul(ar, A, f), univar.mul(ar, B, g))
        assert ident == (1,)
        if univar.degree(g) >= 1:
            assert univar.degree(A) < univar.degree(g)
        checked += 1


def test_bezout_not_coprime(gf4):
    with pytest.raises(NotCoprime) as exc:
        bezout((0, 1), (0, 0, 1), gf4)  # x and x^2
    assert exc.value.gcd == (0, 1)


# -- reducibility and the solver ---------------------------------------------------


def test_reducibility_m1_vacuous(gf4):
    W = full_space(gf4)
    rng = random.Random(11)
    rep = reducibility_check([random_linearized(gf4, 1, 2, rng)], W, m=1)
    assert rep.reducible and rep.active_stages == ()


def test_reducibility_with_unit_component(gf8):
    """A generator whose leading companion is constant is always a witness."""
    W = subspace_from_fW((1, 1, 1), gf8)
    lp = LinearizedPoly(gf8, [(1,), (0, 1)], bound=2)  # x_0 + x_1^q
    rep = reducibility_check([lp], W, m=2)
    assert rep.reducible
    if 0 in rep.witnesses:
        g00 = rep.witnesses[0].per_var(0)
        assert symbolic_gcd(gf8, g00, tuple(W.fW)) == (1,)


def test_reducibility_example_gcd_condition(gf8):
    """Bivariate shape with a companion coprime to x^n - 1, W = k: either the
    witness search succeeds, or every candidate stage companion genuinely
    shares a kernel vector inside W (the definitive obstruction), in which
    case the structured path is correctly refused while the oracle solves."""
    W = full_space(gf8)
    rng = random.Random(12)
    found = reducible_seen = 0
    xn1 = tuple(univar.x_pow_n_minus_one(gf8.k, 3))
    while found < 12:
        a, b, c = (rng.randrange(8) for _ in range(3))
        u, v, w = (rng.randrange(8) for _ in range(3))
        if univar.gcd(gf8.k, (c, b, a), xn1) != (1,):
            continue
        found += 1
        lp = LinearizedPoly(gf8, [(c, b, a), (w, v, u)], bound=3)
        rep = reducibility_check([lp], W, m=2)
        if rep.reducible:
            reducible_seen += 1
            sb = solve_structured([lp], W, m=2, report=rep)
            assert subspace_equal(sb, brute_force_solve([lp], W, m=2))
        else:
            n1 = W.nprime
            comps = []
            for r in range(rep.forms_matrix.shape[0]):
                row = [int(x) for x in rep.forms_matrix[r]]
                g = univar.trim(row[:n1])
                if g:
                    comps.append(g)
            d = tuple(W.fW)
            for g in comps:
                d = symbolic_gcd(gf8, d, g)
            assert univar.degree(d) >= 1  # a genuine common kernel vector
    assert reducible_seen >= 6


def test_reducibility_definitive_negative(gf4):
    """All stage-0 companions share the kernel of x + alpha inside W = k."""
    alpha = gf4.gen()
    W = full_space(gf4)
    lp = LinearizedPoly(gf4, [(alpha, 1), (0, 1)], bound=2)
    rep = reducibility_check([lp], W, m=2)
    # stage-0 components are the symbolic shifts of x + alpha, all killing alpha
    if not rep.reducible:
        assert rep.failed_stage == 0
        ob = brute_force_solve([lp], W, m=2)
        pts = enumerate_solutions([lp], W, m=2)
        assert len(pts) == gf4.q ** ob.dim
        with pytest.raises(NotReducible):
            solve_structured([lp], W, m=2)


def test_eliminate_stage_simple_swap(gf4):
    W = full_space(gf4)
    lp = LinearizedPoly(gf4, [(1, 0), (1, 0)], bound=2)  # x_0 - x_1 (char 2)
    rep = reducibility_check([lp], W, m=2)
    assert rep.reducible and rep.active_stages == (0,)
    subs = eliminate_stage(0, rep.witnesses[0], W)
    assert subs[(0, 0)].coeffs == ((0, 0), (1, 0))
    assert subs[(0, 1)].coeffs == ((0, 0), (0, 1))


def test_eliminate_stage_solution_preserving(gf4, gf8):
    """Points satisfying the system satisfy the substitutions."""
    rng = random.Random(13)
    for field in (gf4, gf8):
        kp = field.kprime
        divisors = [d for d in univar.monic_divisors(
            kp, univar.x_pow_n_minus_one(kp, field.n)) if univar.degree(d) >= 1]
        for _ in range(12):
            fw = divisors[rng.randrange(len(divisors))]
            W = subspace_from_fW(fw, field)
            F = [random_linearized(field, 2, field.n, rng)]
            rep = reducibility_check(F, W, m=2)
            if not rep.reducible or not rep.active_stages:
                continue
            stage = rep.active_stages[0]
            subs = eliminate_stage(stage, rep.witnesses[stage], W)
            for pt in enumerate_solutions(F, W, m=2):
                for (i, j), form in subs.items():
                    assert field.frob(pt[i], j) == form_eval_at_subspace_point(form, pt)


def test_eliminate_stage_gcd_failure(gf4):
    W = full_space(gf4)
    alpha = gf4.gen()
    bad = LinearizedPoly(gf4, [(alpha, 1), (1, 0)], bound=2)
    with pytest.raises(GcdConditionFailed):
        eliminate_stage(0, bad, W)


def test_solver_empty_system(gf8):
    W = subspace_from_fW((1, 1, 1), gf8)
    sb = solve_structured([], W, m=2)
    assert sb.dim == 2 * W.nprime
    ob = brute_force_solve([], W, m=2)
    assert subspace_equal(sb, ob)


def test_solver_field_equation(gf4):
    W = full_space(gf4)
    lp = LinearizedPoly(gf4, [(1, 1)], bound=2)  # x^q - x
    sb = solve_structured([lp], W, m=1)
    assert sb.dim == 1
    assert sb.trace.final_gcd == (1, 1)
    assert set(g[0] for g in sb.generators) <= set(range(gf4.q))


def test_oracle_identity_map(gf4):
    W = full_space(gf4)
    lp = LinearizedPoly(gf4, [(1,)], bound=1)
    ob = brute_force_solve([lp], W, m=1)
    assert ob.dim == 0


def test_enumeration_beyond_budget_is_a_typed_refusal(gf4):
    """Still a ValueError, so callers that catch that keep working."""
    lp = LinearizedPoly(gf4, [(1,)], bound=1)
    with pytest.raises(EnumerationBudgetExceeded, match="4 points") as info:
        enumerate_solutions([lp], full_space(gf4), m=1, budget=3)
    assert isinstance(info.value, ValueError)
    assert enumerate_solutions([lp], full_space(gf4), m=1, budget=4) == [(0,)]


def test_oracle_matches_enumeration(gf4, gf8):
    rng = random.Random(14)
    for field in (gf4, gf8):
        kp = field.kprime
        divisors = [d for d in univar.monic_divisors(
            kp, univar.x_pow_n_minus_one(kp, field.n)) if univar.degree(d) >= 1]
        for _ in range(10):
            fw = divisors[rng.randrange(len(divisors))]
            W = subspace_from_fW(fw, field)
            m = rng.randint(1, 2)
            F = [random_linearized(field, m, field.n, rng)
                 for _ in range(rng.randint(1, 2))]
            ob = brute_force_solve(F, W, m=m)
            pts = set(enumerate_solutions(F, W, m=m))
            assert len(pts) == field.q ** ob.dim
            span = set()
            for combo in product(range(field.q), repeat=ob.dim):
                acc = [0] * m
                for c, gen in zip(combo, ob.generators):
                    for i in range(m):
                        acc[i] = field.add(acc[i], field.mul(c, gen[i]))
                span.add(tuple(acc))
            assert span == pts


def test_solver_oracle_battery(gf4, gf8, gf16):
    rng = random.Random(15)
    for field in (gf4, gf8, gf16):
        kp = field.kprime
        divisors = [d for d in univar.monic_divisors(
            kp, univar.x_pow_n_minus_one(kp, field.n)) if univar.degree(d) >= 1]
        for trial in range(25):
            fw = divisors[rng.randrange(len(divisors))]
            W = subspace_from_fW(fw, field)
            m = rng.randint(1, 2)
            F = [random_linearized(field, m, field.n, rng)
                 for _ in range(rng.randint(1, 2))]
            ob = brute_force_solve(F, W, m=m)
            rep = reducibility_check(F, W, m=m)
            if not rep.reducible:
                continue
            sb = solve_structured(F, W, m=m, report=rep)
            assert subspace_equal(sb, ob)
            assert sb.reducible is True


def test_solver_reproducible(gf8):
    W = full_space(gf8)
    rng = random.Random(16)
    F = [random_linearized(gf8, 2, 3, rng)]
    a = solve_structured(F, W, m=2)
    b = solve_structured(F, W, m=2)
    assert a.coord_matrix.tolist() == b.coord_matrix.tolist()
    assert a.generators == b.generators


def test_irreducible_fw_witness_property(gf8):
    """With f_W irreducible and no common kernel vector among the candidate
    stage companions, the witness search must succeed."""
    rng = random.Random(17)
    W = subspace_from_fW((1, 1, 1), gf8)
    fw = tuple(W.fW)
    seen_reducible = 0
    for trial in range(60):
        F = [random_linearized(gf8, 2, 2, rng) for _ in range(rng.randint(1, 3))]
        rep = reducibility_check(F, W, m=2)
        R = rep.forms_matrix
        if R is None or not len(R):
            continue
        for stage in rep.active_stages:
            comps = []
            n1 = W.nprime
            for r in range(R.shape[0]):
                row = [int(x) for x in R[r]]
                if any(row[:stage * n1]):
                    continue
                g = univar.trim(row[stage * n1:(stage + 1) * n1])
                if g:
                    comps.append(g)
            d = fw
            for g in comps:
                d = symbolic_gcd(gf8, d, g)
            if d == (1,):
                assert stage in rep.witnesses
                seen_reducible += 1
    assert seen_reducible > 20


def test_lcompose_reduce_stays_in_degree_q_span(gf8):
    """If the input form lies in the degree-q span of the rewritten system,
    so does the reduced composition with any L(g)."""
    rng = random.Random(19)
    for fw in [(1, 1, 1), tuple(univar.x_pow_n_minus_one(gf8.kprime, 3))]:
        W = subspace_from_fW(univar.trim(fw), gf8)
        for _ in range(4):
            F = [random_linearized(gf8, 2, W.nprime, rng)]
            system = gbar_system([linearized_to_form(lp, W, 2) for lp in F], W, 2)
            ring = system.ring
            g = univar.trim(tuple(rng.randrange(8) for _ in range(3)))
            if not g:
                continue
            out = lcompose_reduce(g, oracles.linearized_to_form(F[0], W), W)
            assert equiv_mod(out.to_poly(ring), ring.zero(), gf8.q, system)


def test_elimination_forms_in_degree_q_span(gf4, gf8):
    """The substitution relations x_{ij} - gamma_{ij} land in the degree-q
    span of the rewritten system, which is what lets the solver push every
    generator down to the last stage."""
    rng = random.Random(20)
    for field in (gf4, gf8):
        W = full_space(field)
        checked = 0
        for trial in range(12):
            F = [random_linearized(field, 2, field.n, rng)]
            rep = reducibility_check(F, W, m=2)
            if not rep.reducible or not rep.active_stages:
                continue
            stage = rep.active_stages[0]
            subs = eliminate_stage(stage, rep.witnesses[stage], W)
            system = gbar_system([linearized_to_form(lp, W, 2) for lp in F], W, 2)
            ring = system.ring
            for (i, j), gamma in subs.items():
                rel = ring.variable(i * W.nprime + j) - gamma.to_poly(ring)
                assert equiv_mod(rel, ring.zero(), field.q, system)
            checked += 1
        assert checked >= 3


def test_solver_large_q():
    """Fields with q = 8 solve and agree with the oracle; a ceiling of
    q = 7 once refused them."""
    W = subfield_space(make_field(2, 3, 1))
    sb = solve_structured([], W, m=1)
    assert sb.dim == 1
    assert subspace_equal(sb, brute_force_solve([], W, m=1))
    field = make_field(2, 3, 2)
    W = full_space(field)
    rng = random.Random(21)
    solved = 0
    for m in (1, 2, 2, 2):
        F = [random_linearized(field, m, field.n, rng)]
        rep = reducibility_check(F, W, m=m)
        if rep.reducible:
            assert subspace_equal(solve_structured(F, W, m=m, report=rep),
                                  brute_force_solve(F, W, m=m))
            solved += 1
    assert solved >= 3


def test_solvers_refuse_more_rows_than_m(gf4):
    """A polynomial with more rows than m once ended every solver in a
    numpy broadcast or index error."""
    W = full_space(gf4)
    F = [LinearizedPoly(gf4, [(1,), (0, 1), (1, 1)])]
    for solver in (reducibility_check, brute_force_solve, solve_structured,
                   enumerate_solutions):
        with pytest.raises(MalformedInput, match="3 rows, more than m = 2"):
            solver(F, W, m=2)


def stage_rows(rep, space, stage):
    """The echelon rows of `forms_matrix` whose pivot lies in `stage`."""
    n1 = space.nprime
    rows = [[int(x) for x in r] for r in rep.forms_matrix]
    return [r for r in rows if next(t for t, x in enumerate(r) if x) // n1 == stage]


def assert_witnesses(rep, space):
    """Every active stage of a reducible report has n' echelon rows, and its
    witness is the first of them, with stage companion 1, injective on W."""
    assert rep.reducible and set(rep.witnesses) == set(rep.active_stages)
    for stage, lp in rep.witnesses.items():
        vec = [x for row in lp.coeffs for x in row]
        rows = stage_rows(rep, space, stage)
        assert len(rows) == space.nprime
        assert vec == rows[0]
        assert lp.per_var(stage) == (1,)
        assert is_stage_witness(vec, stage, space)


def test_witness_without_search_budget(gf4):
    """The witness is the first echelon row, whatever the size of the
    candidate space: x_0 + x_1^2 over GF(4), and over GF(2^8) a stage with 8
    echelon rows, a k'-dimension of 64."""
    W = full_space(gf4)
    lp = LinearizedPoly(gf4, [(1,), (0, 1)], bound=2)   # x_0 + x_1^2
    rep = reducibility_check([lp], W, m=2)
    assert rep.active_stages == (0,)
    assert_witnesses(rep, W)

    f256 = make_field(2, 1, 8)
    W = full_space(f256)
    t = f256.gen()
    F = [LinearizedPoly(f256, [(t,), (0, 1), (0, 0, 1)], bound=3),   # t x_0 + x_1^2 + x_2^4
         LinearizedPoly(f256, [(0,), (1,), (0, t)], bound=2)]        # x_1 + t x_2^2
    rep = reducibility_check(F, W, m=3)
    assert rep.stage_pivot_counts[0] == 8
    assert_witnesses(rep, W)
    assert subspace_equal(solve_structured(F, W, m=3, report=rep),
                          brute_force_solve(F, W, m=3))


def assert_certificate(rep, space, m):
    """The non-reducible report's gcd and kernel vector check out against
    every echelon row of the failed stage."""
    field, n1, stage = space.field, space.nprime, rep.failed_stage
    assert rep.certificate != (1,) and rep.certificate[-1] == 1
    w = rep.kernel_vector
    assert w != 0 and space.contains(w)
    rows = stage_rows(rep, space, stage)
    assert rows
    for row in rows:
        assert apply_companion(field, row[stage * n1:(stage + 1) * n1], w) == 0
    assert apply_companion(field, rep.certificate, w) == 0


def test_non_reducible_certificate(gf4):
    """x_0 (alpha x_0 + x_0^2) + x_1^2 has no witness: its stage has fewer
    than n' echelon rows, the gcd degree makes up the difference, and the
    kernel vector shows why."""
    alpha = gf4.gen()
    W = full_space(gf4)
    lp = LinearizedPoly(gf4, [(alpha, 1), (0, 1)], bound=2)
    rep = reducibility_check([lp], W, m=2)
    assert not rep.reducible and rep.failed_stage == 0
    assert len(rep.certificate) - 1 == W.nprime - rep.stage_pivot_counts[0]
    assert_certificate(rep, W, 2)
    with pytest.raises(NotReducible, match="stage 0.*gcd of degree 1"):
        solve_structured([lp], W, m=2)


def _divisor_spaces(specs=((2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 2, 2), (3, 1, 2), (3, 1, 3))):
    """(field spec, f_W) for every monic divisor of x^n - 1 of each field;
    by default GF(4), GF(8), GF(16), the GF(4) < GF(16) tower, GF(9) and
    GF(27)."""
    out = []
    for spec in specs:
        kp = make_field(*spec).kprime
        xn1 = univar.x_pow_n_minus_one(kp, spec[2])
        for d in univar.monic_divisors(kp, xn1):
            if univar.degree(d) >= 1:
                name = "-".join(map(str, spec)) + "-fw" + "".join(map(str, d))
                out.append(pytest.param(spec, tuple(d), id=name))
    return out


@pytest.mark.parametrize("spec,fw", _divisor_spaces())
@settings(max_examples=8)
@given(seed=st.integers(0, 2**32 - 1))
def test_gcd_decision_matches_exhaustive_search(spec, fw, seed):
    """The pivot-count decision equals the exhaustive injectivity search,
    each witness is the first echelon row of its stage, and every active
    stage is n' - deg h rows short of n', h the gcd of f_W and its
    companions."""
    field = make_field(*spec)
    W = subspace_from_fW(fw, field)
    rng = random.Random(seed)
    m = rng.randint(2, 3)
    F = [LinearizedPoly(field, [tuple(rng.randrange(field.order) for _ in range(bound))
                                for _ in range(m)], bound=bound)
         for bound in (rng.randint(1, field.n) for _ in range(rng.randint(1, 3)))]
    rep = reducibility_check(F, W, m=m)
    failed, _ = brute_force_reducibility(rep.forms_matrix, W, m)
    assert rep.reducible == (failed is None)
    if rep.reducible:
        assert_witnesses(rep, W)
    else:
        assert rep.failed_stage == failed
        assert_certificate(rep, W, m)
    n1 = W.nprime
    for stage in rep.active_stages:
        h = tuple(W.fW)
        for row in stage_rows(rep, W, stage):
            h = symbolic_gcd(field, h, row[stage * n1:(stage + 1) * n1])
        assert n1 - rep.stage_pivot_counts[stage] == univar.degree(h)


def mixed_system(W, m, count, rng):
    """`count` linearized polynomials with m rows each, of one kind each:
    random, kernel-heavy (left multiples of a divisor of f_W) or zero mod
    f_W."""
    field = W.field
    divisors = univar.monic_divisors(field.kprime, W.fW)
    F = []
    for _ in range(count):
        right = {"random": (1,), "kernel": rng.choice(divisors), "zero": W.fW}[
            rng.choice(("random", "kernel", "zero"))]
        rows = [symbolic_mul(field, tuple(rng.randrange(field.order)
                                          for _ in range(rng.randint(1, field.n))), right)
                for _ in range(m)]
        F.append(LinearizedPoly(field, [r or (0,) for r in rows]))
    return F


# GF(4), GF(8), GF(16), GF(9), GF(27), GF(25), the GF(4) < GF(16) tower and
# GF(64) over GF(8)
EIGHT_FIELDS = ((2, 1, 2), (2, 1, 3), (2, 1, 4), (3, 1, 2), (3, 1, 3), (5, 1, 2), (2, 2, 2),
                (2, 3, 2))


@pytest.mark.parametrize("spec,fw", _divisor_spaces(EIGHT_FIELDS))
@settings(max_examples=10)
@given(seed=st.integers(0, 2**32 - 1))
def test_frobenius_step_matches_scalar_step(spec, fw, seed):
    """The step of a matrix of stage-major rows equals the scalar step of
    each row as a tuple form, with the dtype and shape of the input, on
    0-row, 1-row and multi-row matrices."""
    field = make_field(*spec)
    W = subspace_from_fW(fw, field)
    rng = random.Random(seed)
    m, n1 = rng.randint(1, 3), W.nprime
    for nrows in (0, 1, rng.randint(2, 6)):
        rows = np.array([rng.randrange(field.order) for _ in range(nrows * m * n1)],
                        dtype=DTYPE).reshape(nrows, m * n1)
        want = np.array(
            [oracles.frobenius_step(oracles.LinearForm(field, row.reshape(m, n1).tolist()), W).coeffs
             for row in rows], dtype=DTYPE).reshape(nrows, m * n1)
        got = frobenius_step(rows, W)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("spec,fw", _divisor_spaces(EIGHT_FIELDS))
@settings(max_examples=12)
@given(seed=st.integers(0, 2**32 - 1))
def test_frobenius_closure_matches_span_closure(spec, fw, seed):
    """The worklist closure equals the round-based closure and the RREF of
    the linear rows of the degree-q span closure (matrix dtype, shape and
    entries, and pivots), on random forms, kernel-heavy ones (left
    multiples of divisors of f_W) and forms that are zero mod f_W; for
    m > 1 it is the report's `forms_matrix`."""
    field = make_field(*spec)
    W = subspace_from_fW(fw, field)
    rng = random.Random(seed)
    m = rng.randint(1, 3)
    F = mixed_system(W, m, rng.randint(1, 3), rng)
    R, pivots = _frobenius_closure([linearized_to_form(lp, W, m) for lp in F], W, m)
    rounds = oracles._frobenius_closure([oracles.linearized_to_form(lp, W) for lp in F], W, m)
    for want, want_pivots in (rounds, span_linear_forms(F, W, m)):
        assert R.dtype == want.dtype and R.shape == want.shape
        assert np.array_equal(R, want)
        assert pivots == want_pivots
    assert [int(np.flatnonzero(row)[0]) for row in R] == pivots
    if m > 1:
        rep = reducibility_check(F, W, m=m)
        assert rep.forms_matrix.dtype == R.dtype and np.array_equal(rep.forms_matrix, R)
        assert rep.stage_pivot_counts == tuple(
            sum(p // W.nprime == i for p in pivots) for i in range(m))


@pytest.mark.parametrize("spec,fw", _divisor_spaces(EIGHT_FIELDS))
@settings(max_examples=18)
@given(seed=st.integers(0, 2**32 - 1))
def test_solver_matches_stage_elimination(spec, fw, seed):
    """Reading the solution off the echelon form gives the generators,
    coordinate matrix, trace and refusals of the stage-elimination
    reference, with m = 1, 2 and 3 on empty, random, kernel-heavy and
    zero-row systems."""
    field = make_field(*spec)
    W = subspace_from_fW(fw, field)
    rng = random.Random(seed)
    m = rng.randint(1, 3)
    F = mixed_system(W, m, rng.randint(0, 3), rng)
    try:
        want = stage_elimination_solve(F, W, m=m)
    except NotReducible as exc:
        with pytest.raises(NotReducible) as info:
            solve_structured(F, W, m=m)
        assert (info.value.stage, info.value.gcd) == (exc.stage, exc.gcd)
        return
    got = solve_structured(F, W, m=m)
    assert got.generators == want.generators
    assert got.coord_matrix.dtype == want.coord_matrix.dtype
    assert got.coord_matrix.shape == want.coord_matrix.shape
    assert np.array_equal(got.coord_matrix, want.coord_matrix)
    assert got.trace.substitutions == want.trace.substitutions
    assert got.trace.final_gcd == want.trace.final_gcd
    assert got.trace.active_stages == want.trace.active_stages


def test_tau_matrix_annihilated_by_fw(gf8, gf16):
    for field in (gf8, gf16):
        kp = field.kprime
        xn1 = univar.x_pow_n_minus_one(kp, field.n)
        for fw in univar.monic_divisors(kp, xn1):
            if univar.degree(fw) < 1:
                continue
            W = subspace_from_fW(fw, field)
            for w in W.basis_W:
                acc = 0
                for j, c in enumerate(W.fW):
                    if c:
                        acc = field.add(acc, field.mul(c, field.frob(w, j)))
                assert acc == 0
                assert W.contains(field.frob(w, 1))


def test_subfield_space_always_reducible(gf4, gf8):
    """For W = k' nonzero companions of degree < 1 are constants, hence
    always coprime to f_W = x - 1."""
    rng = random.Random(18)
    for field in (gf4, gf8):
        W = subfield_space(field)
        for trial in range(20):
            F = [random_linearized(field, 2, field.n, rng)]
            rep = reducibility_check(F, W, m=2)
            assert rep.reducible
            sb = solve_structured(F, W, m=2, report=rep)
            ob = brute_force_solve(F, W, m=2)
            assert subspace_equal(sb, ob)


def test_extract_linear_forms_refuses_constant_rows(gf4):
    from lastfall import PolySystem, span_closure
    from lastfall.linsys import make_s_ring
    from oracles import _extract_linear_forms

    ring = make_s_ring(gf4, 1, 2)
    x0, x1 = ring.variable(0), ring.variable(1)
    assert _extract_linear_forms(span_closure(PolySystem(ring, [x0 + x1]), 2), 1, 2).shape == (1, 2)
    unit = PolySystem(ring, [x0 + ring.one(), x0])  # the span holds 1
    affine = PolySystem(ring, [x1 + ring.one()])
    for system in (unit, affine):
        with pytest.raises(RuntimeError):
            _extract_linear_forms(span_closure(system, 2), 1, 2)
