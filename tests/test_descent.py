"""Weil descent, auxiliary systems and the solution correspondence."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lastfall import (CoordinateNotInField, MalformedInput, NotABasis, PolySystem, Ring,
                      RingMismatch, build_F1, build_Fprime, build_Fprime1, falldeg,
                      last_fall_degree, make_descent_context, make_field, solution_transport,
                      weil_descend)
from lastfall.descent import (f1_points, field_equations, fprime1_points,
                              substituted_generator, zk_points)
from lastfall.linalg import DTYPE
from oracles import (FieldElement, apply_sigma, build_G1, build_G2, build_sigma_orbit_G,
                     count_zeros, equiv_mod, moore_matrix, random_system, reference_rref,
                     subfield_equations_k, zero_points)


@pytest.fixture
def ctx4(gf4):
    return make_descent_context(gf4, 1)


def test_descend_linear(ctx4):
    R = ctx4.ring_original
    comps = weil_descend(R.variable(0), ctx4)
    S = ctx4.ring_descent
    assert comps[0] == S.variable(0)
    assert comps[1] == S.variable(1)


def test_descend_square(ctx4, gf4):
    R = ctx4.ring_original
    f = R.variable(0) * R.variable(0)
    comps = weil_descend(f, ctx4)
    S = ctx4.ring_descent
    assert comps[0] == S.monomial((2, 0)) + S.monomial((0, 2))
    assert comps[1] == S.monomial((0, 2))


def test_descend_subfield_constant(ctx4):
    R = ctx4.ring_original
    comps = weil_descend(R.one(), ctx4)
    assert comps[0] == ctx4.ring_descent.one()
    assert comps[1].is_zero()


def test_reconstruction_and_degree_bound(gf4, gf8, gf9):
    rng = random.Random(4)
    for field in (gf4, gf8, gf9):
        for m in (1, 2):
            ctx = make_descent_context(field, m)
            for _ in range(8):
                f = random_system(ctx.ring_original, 3, 1, rng).polys[0]
                comps = weil_descend(f, ctx)
                g = substituted_generator(f, ctx)
                rec = ctx.ring_descent_k.zero()
                for b, comp in zip(ctx.basis, comps):
                    lifted = ctx.ring_descent_k.from_terms(comp.terms.items())
                    rec = rec + lifted.scale(b)
                assert rec == g
                for comp in comps:
                    assert comp.degree <= f.degree
                    assert comp.lies_in_subfield()


def test_build_F1_shapes(gf4, gf8):
    ctx = make_descent_context(gf4, 1)
    R = ctx.ring_original
    F1 = build_F1(PolySystem(R, [R.variable(0)]), ctx)
    texts = [p.to_text() for p in F1.polys]
    assert texts[0] == "(1,0)*X0"
    assert "(1,0)*X0^2 + (1,0)*Y0_1" in texts
    assert "(1,0)*Y0_1^2 + (1,0)*X0" in texts

    # n = 1 degenerates to the field equation
    f2 = make_field(2, 1, 1)
    ctx1 = make_descent_context(f2, 1)
    R1 = ctx1.ring_original
    F1 = build_F1(PolySystem(R1, [R1.variable(0)]), ctx1)
    assert [p.to_text() for p in F1.polys] == ["(1)*X0", "(1)*X0^2 + (1)*X0"]


def test_build_F1_refuses_other_variable_count(gf4):
    """A second variable was once renamed to the chain variable Y0_1."""
    ctx = make_descent_context(gf4, 1)
    R2 = Ring(gf4, "k", ["X0", "X1"])
    with pytest.raises(ValueError):
        build_F1(PolySystem(R2, [R2.variable(1)]), ctx)


def test_build_Fprime1_trivial(ctx4):
    R = ctx4.ring_original
    system = build_Fprime1(PolySystem(R, [R.variable(0)]), ctx4)
    texts = {p.to_text() for p in system.polys}
    assert texts == {"(1,0)*X0_0", "(1,0)*X0_1",
                     "(1,0)*X0_0^2 + (1,0)*X0_0", "(1,0)*X0_1^2 + (1,0)*X0_1"}


def test_empty_system_counts(ctx4, gf4):
    system = build_Fprime1(PolySystem(ctx4.ring_original, []), ctx4)
    assert count_zeros(system) == gf4.q ** (1 * gf4.n)


def test_bijection_exhaustive(gf4):
    """|Z(F1)| = |Z(F'1)| = |Z_k(F)| at q=2, n=2, m=1, deg <= 2."""
    ctx = make_descent_context(gf4, 1)
    rng = random.Random(6)
    for _ in range(25):
        F = random_system(ctx.ring_original, 2, 1, rng)
        zk = len(zk_points(F))
        F1 = build_F1(F, ctx)
        Fp1 = build_Fprime1(F, ctx)
        assert count_zeros(F1) == zk
        assert count_zeros(Fp1) == zk


@pytest.mark.parametrize("spec,level", [((2, 1, 1), "k"), ((3, 1, 1), "k"), ((2, 1, 3), "k"),
                                        ((3, 1, 2), "k"), ((3, 1, 2), "kprime"),
                                        ((2, 2, 2), "kprime")])
def test_zk_points_matches_pointwise_eval(spec, level):
    field = make_field(*spec)
    rng = random.Random(12)
    for nvars in (0, 1, 2, 3):
        ring = Ring(field, level, [f"X{i}" for i in range(nvars)])
        if ring.coeff_order ** nvars > 1000:
            continue
        for degree in (1, 2, 3):
            dense = random_system(ring, degree, 2, rng)
            # two-term polynomials, so that zero sets are rarely empty
            sparse = PolySystem(ring, [ring.from_terms(list(f.terms.items())[:2])
                                       for f in dense.polys])
            for system in (dense, sparse, PolySystem(ring, [])):
                assert zk_points(system) == zero_points(system)


def test_sigma_orbit_matrix_identity(gf4):
    """Gamma applied to the component vector reproduces the conjugates."""
    rng = random.Random(8)
    for m in (1, 2):
        ctx = make_descent_context(gf4, m)
        gamma = moore_matrix([FieldElement(gf4, b) for b in ctx.basis])
        for _ in range(6):
            f = random_system(ctx.ring_original, 2, 1, rng).polys[0]
            comps = weil_descend(f, ctx)
            lifted = [ctx.ring_descent_k.from_terms(c.terms.items()) for c in comps]
            g = substituted_generator(f, ctx)
            for i in range(gf4.n):
                acc = ctx.ring_descent_k.zero()
                for j in range(gf4.n):
                    acc = acc + lifted[j].scale(gamma.entries[i][j])
                assert acc == apply_sigma(g, i)


def test_orbit_size_divides_n(gf8):
    ctx = make_descent_context(gf8, 1)
    rng = random.Random(9)
    for _ in range(5):
        f = random_system(ctx.ring_original, 2, 1, rng).polys[0]
        g = substituted_generator(f, ctx)
        orbit = {apply_sigma(g, i) for i in range(gf8.n)}
        assert gf8.n % len(orbit) == 0


def test_orbit_of_subfield_poly_n1():
    f2 = make_field(2, 1, 1)
    ctx = make_descent_context(f2, 1)
    R = ctx.ring_original
    f = R.variable(0) + R.one()
    G = build_sigma_orbit_G(PolySystem(R, [f]), ctx)
    assert len(set(p.to_text() for p in G.polys)) == 1


def test_G2_absorbs_G1(gf4):
    """Every conjugate generator lies in the degree-q*degF span of the
    substituted system plus field equations."""
    ctx = make_descent_context(gf4, 1)
    rng = random.Random(10)
    for _ in range(4):
        F = random_system(ctx.ring_original, 2, 1, rng)
        qd = gf4.q * int(F.degree)
        G1 = build_G1(F, ctx)
        G2 = build_G2(F, ctx)
        for g in G1.polys:
            assert equiv_mod(g, G2.ring.zero(), qd, G2)


def test_solution_transport_round_trip(gf9):
    """Over the polynomial basis and over (1 + t, 2t)."""
    t = gf9.gen()
    for basis in (None, [gf9.add(1, t), gf9.mul(2, t)]):
        ctx = make_descent_context(gf9, 2, basis=basis)
        rng = random.Random(11)
        assert solution_transport((0, 0), ctx, "descend") == (0,) * 4
        for _ in range(20):
            pt = tuple(rng.randrange(gf9.order) for _ in range(2))
            down = solution_transport(pt, ctx, "descend")
            assert all(gf9.lies_in_subfield(c) for c in down)
            assert solution_transport(down, ctx, "lift") == pt


def test_solution_transport_maps_solutions(gf4):
    ctx = make_descent_context(gf4, 1)
    rng = random.Random(12)
    for _ in range(10):
        F = random_system(ctx.ring_original, 2, 1, rng)
        Fp1 = build_Fprime1(F, ctx)
        for pt in zk_points(F):
            down = solution_transport(pt, ctx, "descend")
            assert all(f.eval(down) == 0 for f in Fp1.polys)


@pytest.mark.parametrize("m", [-1, 1.5, "2", True, None])
def test_descent_context_refuses_malformed_m(gf8, m):
    with pytest.raises(MalformedInput, match="m must be"):
        make_descent_context(gf8, m)


def test_transport_refuses_code_outside_k(gf4):
    """4, 99 and -1 once descended to (0, 0), (1, 1) and (1, 1), and True
    and 1.0 to (1, 0)."""
    ctx = make_descent_context(gf4, 1)
    for code in (4, 99, -1, True, 1.0):
        with pytest.raises(MalformedInput, match=str(code)):
            solution_transport((code,), ctx, "descend")


@pytest.mark.parametrize("spec", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 1, 3), (2, 1, 5),
                                  (2, 2, 2)])
def test_descent_coordinates_solve_the_basis_system(spec):
    """Over the polynomial basis and a random independent one, the
    coordinates of every code x are the solution of A c = coords(x), A the
    coordinate matrix of the basis, found by an elimination without tables."""
    field = make_field(*spec)
    n = field.n
    rng = random.Random(str(spec))

    def coord_matrix(basis):
        return np.array([field.coords(b) for b in basis], dtype=DTYPE).T

    while True:
        random_basis = [rng.randrange(field.order) for _ in range(n)]
        if len(reference_rref(coord_matrix(random_basis), field.kprime)[1]) == n:
            break
    for basis in (None, random_basis):
        ctx = make_descent_context(field, 1, basis=basis)
        A = coord_matrix(ctx.basis)
        for x in range(field.order):
            R, pivots = reference_rref(np.column_stack([A, field.coords(x)]), field.kprime)
            assert pivots == list(range(n))
            assert ctx.space.coords_of(x) == tuple(R[:, n].tolist())


@pytest.mark.parametrize("point", [(3,), (3, 1, 2)], ids=["one-value", "three-values"])
def test_transport_refuses_point_of_wrong_arity(gf8, point):
    """With m = 2, (3,) once descended to 3 coordinates and (3, 1, 2) to 9."""
    ctx = make_descent_context(gf8, 2)
    with pytest.raises(MalformedInput, match=f"expected 2 values, got {len(point)}"):
        solution_transport(point, ctx, "descend")


def test_transport_rejects_non_subfield(gf4):
    ctx = make_descent_context(gf4, 1)
    with pytest.raises(CoordinateNotInField):
        solution_transport((gf4.gen(), 0), ctx, "lift")


def test_orbit_system_fall_degree_matches_descended(gf4):
    """The conjugate-orbit system is an invertible recombination of the
    descended components (through the Moore matrix), so the two share their
    fall profile; the descended system's profile is also insensitive to
    computing spans over k instead of k'."""
    from lastfall import Ring

    ctx = make_descent_context(gf4, 1)
    rng = random.Random(14)
    for _ in range(6):
        F = random_system(ctx.ring_original, 2, 1, rng)
        G = build_sigma_orbit_G(F, ctx)
        Fp = build_Fprime(F, ctx)
        lifted = PolySystem(ctx.ring_descent_k,
                            [ctx.ring_descent_k.from_terms(f.terms.items())
                             for f in Fp.polys])
        d_orbit = last_fall_degree(G, cap=6, certify=False).last_fall_degree
        d_desc_k = last_fall_degree(lifted, cap=6, certify=False).last_fall_degree
        d_desc = last_fall_degree(Fp, cap=6, certify=False).last_fall_degree
        assert d_orbit == d_desc_k == d_desc


def test_theorem_level_quantity_basis_independent(gf4):
    """max(d_{F'1}, q deg F) agrees across two different bases."""
    rng = random.Random(13)
    t = gf4.gen()
    alt_basis = [t, gf4.add(t, 1)]
    for _ in range(6):
        ctx1 = make_descent_context(gf4, 1)
        ctx2 = make_descent_context(gf4, 1, basis=alt_basis)
        F = random_system(ctx1.ring_original, 2, 1, rng)
        qd = gf4.q * int(F.degree)
        vals = []
        for ctx in (ctx1, ctx2):
            prof = last_fall_degree(build_Fprime1(F, ctx))
            assert prof.certified
            vals.append(max(prof.last_fall_degree, qd))
        assert vals[0] == vals[1]


@pytest.mark.parametrize("basis", [[1.5, 2], [True, 2], "x", {"a": 1}, [100, 2], [-1, 2],
                                   [1, 2, 3]])
def test_descent_context_refuses_malformed_basis(gf4, basis):
    """A float or boolean code was once truncated by int() to another basis,
    and the rest ended in a ValueError from int() or FieldElement."""
    with pytest.raises(MalformedInput):
        make_descent_context(gf4, 1, basis=basis)


def test_descent_context_refuses_dependent_basis(gf4, gf8):
    t = gf8.gen()
    t2 = gf8.mul(t, t)
    for field, basis in ((gf4, [1, 1]), (gf4, [0, 1]), (gf8, [t, t2, gf8.add(t, t2)])):
        with pytest.raises(NotABasis):
            make_descent_context(field, 1, basis=basis)


# -- the context's memo and the refusals of a foreign system ----------------------


def substitute_reference(f, ctx):
    """f(sum_j a_j X_{0j}, ...) through MultiPoly.substitute: every image
    expanded again for each polynomial, with no memo."""
    S = ctx.ring_descent_k
    images = {}
    for i, name in enumerate(f.ring.vars):
        img = S.zero()
        for j, b in enumerate(ctx.basis):
            img = img + S.variable(i * ctx.field.n + j).scale(b)
        images[name] = img
    return f.substitute(images)


MEMO_SPECS = [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2), (3, 1, 3), (2, 2, 3)]


def random_basis(field, rng):
    while True:
        try:
            return make_descent_context(field, 1, basis=[rng.randrange(1, field.order)
                                                         for _ in range(field.n)]).basis
        except NotABasis:
            continue


@pytest.mark.parametrize("spec", MEMO_SPECS, ids=str)
@settings(max_examples=10)
@given(seed=st.integers(0, 2**32 - 1))
def test_substituted_generator_matches_substitute(spec, seed):
    """On a cold context and on the same context once its memo is warm,
    towers (e > 1) and a random basis included; the input's variable names
    and level are free."""
    field = make_field(*spec)
    rng = random.Random(seed)
    m = rng.randint(1, 2)
    basis = random_basis(field, rng) if rng.random() < 0.5 else None
    ctx = make_descent_context(field, m, basis=basis)
    level = rng.choice(("k", "kprime"))
    ring = Ring(field, level, rng.choice(([f"X{i}" for i in range(m)], ["a", "b"][:m])))
    polys = random_system(ring, rng.randint(0, 3), 4, rng).polys
    for f in polys + polys:  # the second pass reads the warm memo
        got = substituted_generator(f, ctx)
        assert got.ring == ctx.ring_descent_k
        assert got == substitute_reference(f, ctx)


@pytest.mark.parametrize("spec", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 1, 3), (2, 2, 2),
                                  (2, 1, 1), (3, 2, 1)])
def test_chain_and_subfield_equations_match_power_reference(spec):
    """The chain and subfield equations built from their exponents equal
    the relations formed by raising a variable to the q-th power, in the
    same places."""
    field = make_field(*spec)
    q, n = field.q, field.n
    for m in (1, 2):
        ctx = make_descent_context(field, m)
        x = [ctx.ring_chain.variable(v) for v in range(ctx.ring_chain.nvars)]
        want = []
        for i in range(m):
            chain = [x[i]] + x[m + i * (n - 1):m + (i + 1) * (n - 1)]
            want += [chain[j].pow_int(q) - chain[(j + 1) % n] for j in range(n)]
        assert ctx.chain_equations == tuple(want)
        for ring, eqs in ((ctx.ring_descent, ctx.subfield_equations),
                          (ctx.ring_descent_k, subfield_equations_k(ctx))):
            x = [ring.variable(v) for v in range(ring.nvars)]
            assert eqs == tuple(v.pow_int(q) - v for v in x)


def test_context_memo_is_lazy_and_shared(gf8):
    """A new context builds nothing of the memo; built once, the equations
    are the same objects for every system and equal the plain ones."""
    ctx = make_descent_context(gf8, 2)
    assert len(ctx._images) == 1  # the image of 1
    assert not {"subfield_equations", "chain_equations"} & set(vars(ctx))
    R = ctx.ring_original
    rng = random.Random(15)
    F, G = (random_system(R, 2, 2, rng) for _ in range(2))
    assert build_Fprime1(F, ctx).polys[-6:] == build_Fprime1(G, ctx).polys[-6:]
    assert ctx.subfield_equations == tuple(field_equations(ctx.ring_descent, gf8.q))
    assert build_G2(F, ctx).polys[-6:] == tuple(field_equations(ctx.ring_descent_k, gf8.q))
    chains = build_F1(F, ctx).polys[2:]
    assert all(a is b for a, b in zip(chains, build_F1(G, ctx).polys[2:]))
    assert [f.to_text() for f in chains[:3]] == [
        "(1,0,0)*X0^2 + (1,0,0)*Y0_1", "(1,0,0)*Y0_1^2 + (1,0,0)*Y0_2",
        "(1,0,0)*Y0_2^2 + (1,0,0)*X0"]


def test_descent_refuses_a_system_from_another_field(gf4, gf8):
    """X0^2 + 3 over GF(5) was once descended by a GF(4) context, which read
    the code 3 as t + 1; a GF(8) of another modulus is another field too."""
    gf5 = make_field(5, 1, 1)
    gf8_other = make_field(2, 1, 3, m2=[1, 1, 0, 1])
    assert gf8_other != gf8
    for field, foreign in ((gf4, gf5), (gf8, gf8_other)):
        ctx = make_descent_context(field, 1)
        ring = Ring(foreign, "k", ["X0"])
        f = ring.variable(0).pow_int(2) + ring.constant(3)
        system = PolySystem(ring, [f])
        for build in (build_Fprime, build_Fprime1, build_F1, build_sigma_orbit_G,
                      build_G1, build_G2):
            with pytest.raises(RingMismatch):
                build(system, ctx)
        with pytest.raises(RingMismatch):
            build_F1(PolySystem(ring, []), ctx)
        for fn in (substituted_generator, weil_descend):
            with pytest.raises(RingMismatch):
                fn(f, ctx)


def test_descent_refuses_malformed_arguments(gf4):
    """Each a MalformedInput, which is still a ValueError."""
    ctx = make_descent_context(gf4, 1)
    R2 = Ring(gf4, "k", ["X0", "X1"])
    for call in (lambda: substituted_generator(R2.variable(1), ctx),
                 lambda: build_Fprime(PolySystem(R2, []), ctx),
                 lambda: solution_transport((0, 0, 0), ctx, "lift"),
                 lambda: solution_transport((0,), ctx, "sideways")):
        with pytest.raises(MalformedInput) as info:
            call()
        assert isinstance(info.value, ValueError)


def test_zk_points_enumerates_a_system_once(gf4, monkeypatch):
    """f1_points and fprime1_points of one system share its enumeration; each
    call hands out a list of its own."""
    calls = []
    enumerate_zeros = falldeg._enumerate_zeros
    monkeypatch.setattr(falldeg, "_enumerate_zeros",
                        lambda system: calls.append(system) or enumerate_zeros(system))
    ctx = make_descent_context(gf4, 1)
    x = ctx.ring_original.variable(0)
    F = PolySystem(ctx.ring_original, [x * x + x])
    want = zero_points(F)
    assert len(f1_points(F, ctx)) == len(fprime1_points(F, ctx)) == len(want) == 2
    first = zk_points(F)
    first.append("junk")
    assert zk_points(F) == want
    assert calls == [F]


def test_substituted_generator_of_a_high_power(gf4):
    """X0^1024 over GF(4), past Python's default recursion depth: in
    characteristic 2 the image is a0^1024 X0_0^1024 + a1^1024 X0_1^1024."""
    ctx = make_descent_context(gf4, 1)
    x = ctx.ring_original.variable(0)
    S = ctx.ring_descent_k
    a0, a1 = ctx.basis
    want = (S.monomial((1024, 0), gf4.pow(a0, 1024))
            + S.monomial((0, 1024), gf4.pow(a1, 1024)))
    assert substituted_generator(x.pow_int(1024), ctx) == want
