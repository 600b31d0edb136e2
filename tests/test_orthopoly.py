import numpy as np
import pytest

from stieltjesmp import (
    DEFAULT_TOL, GENERAL, MONIC, MatrixPolynomial, det_zeros, ds_param,
    dyukarev_quadruple, factorize_u, favard_pair, monic_orthogonal_system, real_zeros,
    second_kind_system, sequence, shift_sequence, stieltjes_param,
    random_stieltjes_pd_sequence, reflect, resolvent_u, stieltjes_quadruple,
)
from stieltjesmp import orthopoly
from stieltjesmp.moments import monic_rows
from conftest import (
    chain_families, eval_quadruple_at_alpha, ladder_fixture, lm_draw, q_values_from_quadruple,
    quadruple_loop, rel_err, rmul, shift_identity_defect, stack_sum, times_w, writeable_arrays,
)


def test_poly_eval_basics():
    eye = np.eye(1)
    p = MatrixPolynomial([-eye, eye])       # z - 1
    np.testing.assert_allclose(p(1.0), [[0.0]])
    np.testing.assert_allclose(p(3.0), [[2.0]])
    const = MatrixPolynomial([np.eye(2)])
    np.testing.assert_allclose(const(1 + 2j), np.eye(2))


def _assert_explicit_sum(got, coeffs, z):
    """got equals sum_k z^k C_k to 1e-13 of sum_k |z|^k |C_k| (exactly, for P = 0)."""
    want = sum(complex(z) ** k * np.asarray(c, dtype=complex) for k, c in enumerate(coeffs))
    scale = sum(abs(complex(z)) ** k * np.linalg.norm(c) for k, c in enumerate(coeffs))
    assert np.linalg.norm(got - want) <= 1e-13 * scale


def test_poly_eval_matches_explicit_sum():
    rng = np.random.default_rng(5)
    cases = []
    for deg in range(7):
        for shape in ((1, 1), (2, 2), (3, 2), (2, 4)):
            cases.append([rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                          for _ in range(deg + 1)])
            cases.append([rng.standard_normal(shape) for _ in range(deg + 1)])
    cases.append([np.zeros((2, 3))])
    points = (0, 2, -1.5, 0.3 - 0.8j, np.complex128(1.1 + 0.4j))
    grid = np.array([0.0, -2.0, 0.5 + 1.5j, -0.7 - 0.2j])
    for coeffs in cases:
        p = MatrixPolynomial(coeffs)
        rows, cols = coeffs[0].shape
        for z in points:
            got = p(z)
            assert got.shape == (rows, cols) and got.dtype == complex
            _assert_explicit_sum(got, coeffs, z)
        stack = p(grid)
        assert stack.shape == (len(grid), rows, cols)
        for k, z in enumerate(grid):
            _assert_explicit_sum(stack[k], coeffs, z)


def test_poly_arithmetic():
    rng = np.random.default_rng(0)
    a = MatrixPolynomial([rng.standard_normal((2, 2)) for _ in range(3)])
    m = rng.standard_normal((2, 2))
    z = 0.7 - 0.4j
    np.testing.assert_allclose(rmul(a, m)(z), a(z) @ m, atol=1e-12)
    np.testing.assert_allclose(a.conj_star()(z), a(np.conj(z)).conj().T, atol=1e-12)


def test_polynomials_cut_from_a_frozen_stack_share_it():
    # a caller's writeable array is copied once; a frozen stack is shared, so
    # each quadruple family and the factors of factorize_u are views of one
    # stack, with no copy per polynomial
    owned = np.zeros((3, 2, 2))
    owned[1] = 1.0
    poly = MatrixPolynomial(owned)
    assert not np.shares_memory(poly.coeffs, owned) and poly.degree == 1
    owned.setflags(write=False)
    assert MatrixPolynomial(owned).coeffs.base is owned
    s = ladder_fixture(5)
    quad = stieltjes_quadruple(s)
    for family in (quad.p, quad.second, quad.p_shift, quad.phat):
        bases = {id(poly.coeffs.base) for poly in family}
        assert len(bases) == 1 and family[0].coeffs.base is not None
    factors = factorize_u(s).factors
    assert len({id(w.coeffs.base) for w in factors}) == 1 and factors[0].coeffs.base is not None
    assert [w.degree for w in factors] == [1 - j % 2 for j in range(s.kappa + 1)]
    # evaluation reads a view of a contiguous complex stack, not a second copy
    for poly in (*quad.p, *factors, resolvent_u(s).poly):
        assert np.shares_memory(poly._stacked[1], poly.coeffs)


def test_monic_system_fixture(f1, f2):
    p = monic_orthogonal_system(f1)
    assert len(p) == 2
    np.testing.assert_allclose(p[0](0.3), [[1.0]])
    np.testing.assert_allclose(p[1](3.0), [[2.0]])      # z - 1
    p = monic_orthogonal_system(f2)
    assert len(p) == 2
    np.testing.assert_allclose(p[1](0.0), [[-1.0]])


def test_monic_orthogonality(f1):
    # <P_1, P_0> = sum_l P_1^[l] s_l = 0
    p = monic_orthogonal_system(f1)
    total = sum(p[1].coeffs[l] @ f1[l] for l in range(2))
    np.testing.assert_allclose(total, [[0.0]], atol=1e-14)


def test_monic_favard_recursion_agree():
    for i in (0, 1, 4, 5, 7):
        s = ladder_fixture(i)
        polys = monic_orthogonal_system(s)
        fp = favard_pair(s)
        eye = np.eye(s.q, dtype=complex)
        rec = [eye[None]]   # coefficient stacks of z P_{n-1} - A P_{n-1} - B^* P_{n-2}
        for n in range(1, len(polys)):
            a, b = np.asarray(fp.a[n - 1]), np.asarray(fp.b[n - 1])
            zp = stack_sum(times_w(rec[n - 1], 0.0, 1.0), -a @ rec[n - 1])
            if n >= 2:
                zp = stack_sum(zp, -b.conj().T @ rec[n - 2])
            rec.append(zp)
        for direct, via_rec in zip(polys, rec, strict=True):
            assert len(direct.coeffs) == len(via_rec)
            for j in range(len(direct.coeffs)):
                assert rel_err(direct.coeffs[j], via_rec[j]) < 1e-9


def test_second_kind_fixture(f1):
    p2 = second_kind_system(f1)
    assert p2[0].degree == -1
    np.testing.assert_allclose(p2[1](0.77), [[1.0]])
    p2 = second_kind_system(sequence([5.0, 0.0]))
    np.testing.assert_allclose(p2[1](2.3), [[5.0]])


def test_second_kind_members_are_views_of_one_frozen_stack():
    # every member of second_kind_system is a view of one frozen coefficient
    # stack, as the monic system's members are, and its coefficients and
    # values are those of a member copied out of a writeable stack
    for i in range(10):
        s = ladder_fixture(i)
        system = second_kind_system(s)
        base = system[-1].coeffs.base
        assert base is not None and all(np.shares_memory(p.coeffs, base) for p in system)
        stack = orthopoly._associated(s, monic_rows(s))
        for n, p in enumerate(system):
            want = MatrixPolynomial(stack[n, :max(n, 1)])   # writeable: copied
            assert not p.coeffs.flags.writeable
            np.testing.assert_array_equal(p.coeffs, want.coeffs)
            for z in (s.alpha + 0.3 - 1.1j, s.alpha - 2.0):
                np.testing.assert_array_equal(p(z), want(z))


def test_second_kind_favard_recursion():
    for i in (0, 1, 5):
        s = ladder_fixture(i)
        p2 = second_kind_system(s)
        fp = favard_pair(s)
        if len(p2) < 3:
            continue
        rng = np.random.default_rng(3)
        for z in rng.standard_normal(5) + 1j * rng.standard_normal(5):
            for n in range(2, len(p2)):
                want = (z * np.eye(s.q) - fp.a[n - 1]) @ p2[n - 1](z) \
                    - np.asarray(fp.b[n - 1]).conj().T @ p2[n - 2](z)
                assert rel_err(p2[n](z), want) < 1e-8


def test_quadruple_fixture(f1, f3):
    quad = stieltjes_quadruple(f1)
    np.testing.assert_allclose(quad.p[1](3.0), [[2.0]])
    np.testing.assert_allclose(quad.second[1](9.9), [[1.0]])
    np.testing.assert_allclose(quad.p_shift[0](1.23), [[1.0]])
    np.testing.assert_allclose(quad.phat[0](4.56), [[1.0]])    # identically s_0
    quad3 = stieltjes_quadruple(f3)
    np.testing.assert_allclose(quad3.phat[0](0.7), [[-1.0]])   # left: -s_0


def test_quadruple_shift_identity_scalar(f2):
    # (z - a) P_shift_0(z) = P_1(z) + Hhat_shift Hhat^{-1} P_0(z) at z = 2
    quad = stieltjes_quadruple(f2)
    lhs = 2.0 * quad.p_shift[0](2.0)
    rhs = quad.p[1](2.0) + 1.0 * quad.p[0](2.0)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)
    np.testing.assert_allclose(lhs, [[2.0]])


def test_eval_quadruple_at_alpha_fixtures(f1, f2):
    quad = stieltjes_quadruple(f1)
    vals = eval_quadruple_at_alpha(quad, ds_param(f1))
    np.testing.assert_allclose(vals["p"][1], [[-1.0]])
    np.testing.assert_allclose(vals["phat"][0], [[1.0]])
    quad2 = stieltjes_quadruple(f2)
    vals2 = eval_quadruple_at_alpha(quad2, ds_param(f2))
    np.testing.assert_allclose(vals2["phat"][1], [[-1.0]])


def test_eval_quadruple_closed_forms_ladder():
    for i in range(10):
        s = ladder_fixture(i)
        quad = stieltjes_quadruple(s)
        eval_quadruple_at_alpha(quad, ds_param(s))   # raises on disagreement


def test_q_values_from_quadruple():
    for i in range(8):
        s = ladder_fixture(i)
        quad = stieltjes_quadruple(s)
        got = q_values_from_quadruple(quad)
        want = stieltjes_param(s).values
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert rel_err(a, b) < 1e-8


def test_det_zeros_fixture(f1, f2):
    p1 = monic_orthogonal_system(f1)[1]
    np.testing.assert_allclose(det_zeros(p1, MONIC), [1.0], atol=1e-10)
    np.testing.assert_allclose(real_zeros(p1), [1.0], atol=1e-10)
    # D-type polynomial 1 - z of F2
    from stieltjesmp import dyukarev_quadruple
    dq = dyukarev_quadruple(f2)
    np.testing.assert_allclose(real_zeros(dq.d[1]), [1.0], atol=1e-10)


def test_det_zeros_trivial():
    eye = np.eye(1)
    p = MatrixPolynomial([-eye, 0 * eye, eye])   # z^2 - 1
    zs = np.sort_complex(det_zeros(p, MONIC))
    np.testing.assert_allclose(zs, [-1.0, 1.0], atol=1e-10)
    zs = np.sort_complex(det_zeros(p, GENERAL))
    np.testing.assert_allclose(zs, [-1.0, 1.0], atol=1e-10)


def test_general_det_zeros_agree_with_the_monic_companion():
    # GENERAL samples det P on the circle of the zeros' geometric-mean
    # modulus; on the unit circle it was up to 1.1e-8 off the companion's
    # zeros of these polynomials
    worst = 0.0
    for i in range(50):
        for s in (ladder_fixture(i), reflect(ladder_fixture(i))):
            for p in stieltjes_quadruple(s).p[1:]:
                got, want = (np.sort_complex(det_zeros(p, kind)) for kind in (GENERAL, MONIC))
                worst = max(worst, np.max(np.abs(got - want) / np.abs(want)))
    assert worst < 3e-10
    # a singular end coefficient falls back to the unit circle:
    # det diag(z, z - 1) = z (z - 1) and det diag(z^2 - 1, -1) = 1 - z^2
    eye = np.eye(2)
    for coeffs, want in (([np.diag([0.0, -1.0]), eye], [0.0, 1.0]),
                         ([-eye, np.zeros((2, 2)), np.diag([1.0, 0.0])], [-1.0, 1.0])):
        got = np.sort_complex(det_zeros(MatrixPolynomial(coeffs), GENERAL))
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_monic_lead_test_decides_as_allclose():
    # leads at and around |lead - I| = atol + 1e-5 |I|, on and off the
    # diagonal, real and complex, and non-finite: accepted iff np.allclose is
    tol = DEFAULT_TOL.identity_tol
    cases = [np.eye(2), np.full((2, 2), np.nan), np.diag([np.inf, 1.0])]
    for where, edge in (((0, 0), tol + 1e-5), ((0, 1), tol)):
        for f in (0.5, 1 - 1e-9, 1.0, 1 + 1e-9, 2.0):
            for phase in (1.0, -1.0, 1j, np.exp(0.3j)):
                lead = np.eye(2, dtype=complex)
                lead[where] += f * edge * phase
                cases.append(lead)
    decisions = set()
    for lead in cases:
        p = MatrixPolynomial([np.diag([-1.0, -2.0]), lead])
        want = bool(np.allclose(lead, np.eye(2), atol=tol))
        try:
            det_zeros(p, MONIC)
            got = True
        except ValueError:
            got = False
        assert got == want
        decisions.add(got)
    assert decisions == {True, False}


def test_det_zeros_monic_companion_matches_the_block_loop():
    # the sliced companion is the block matrix of the loop it replaced
    rng = np.random.default_rng(5)
    for q, deg in ((1, 1), (1, 4), (2, 1), (2, 3), (3, 2)):
        coeffs = rng.standard_normal((deg, q, q)) + 1j * rng.standard_normal((deg, q, q))
        comp = np.zeros((deg * q, deg * q), dtype=complex)
        for j in range(deg - 1):
            comp[j * q:(j + 1) * q, (j + 1) * q:(j + 2) * q] = np.eye(q)
        for j in range(deg):
            comp[(deg - 1) * q:, j * q:(j + 1) * q] = -coeffs[j]
        p = MatrixPolynomial(list(coeffs) + [np.eye(q)])
        np.testing.assert_array_equal(det_zeros(p, MONIC), np.linalg.eigvals(comp))


def test_det_zeros_rejects_singular():
    with pytest.raises(ValueError):
        det_zeros(MatrixPolynomial([np.zeros((2, 2))]))


def test_tiny_constant_is_not_the_zero_polynomial():
    p = MatrixPolynomial([1e-9 * np.eye(2)])
    assert p.degree == 0
    assert det_zeros(p).size == 0


def test_zero_localization_right():
    # all determinant zeros of the quadruple families sit in (alpha, inf)
    for i in (0, 2, 4, 6, 8):
        s = ladder_fixture(i)
        quad = stieltjes_quadruple(s)
        families = list(quad.p[1:]) + list(quad.second[1:]) \
            + list(quad.p_shift[1:]) + list(quad.phat)
        for poly in families:
            if poly.degree < 1:
                continue
            for x in real_zeros(poly):
                assert x > s.alpha + 1e-9


def test_zero_localization_left():
    for i in (1, 3, 5, 7, 9):
        s = ladder_fixture(i)
        quad = stieltjes_quadruple(s)
        families = list(quad.p[1:]) + list(quad.second[1:]) \
            + list(quad.p_shift[1:]) + list(quad.phat)
        for poly in families:
            if poly.degree < 1:
                continue
            for x in real_zeros(poly):
                assert x < s.alpha - 1e-9


def test_quadruple_recursions_from_shifted_favard():
    # the shifted families satisfy the three-term recursion driven by the
    # Favard pair of the shifted sequence; phat starts at s_0 and picks up
    # B_shift_0 in its first step
    from stieltjesmp import MatrixPolynomial, favard_pair
    rng = np.random.default_rng(17)
    for i in (0, 1, 4, 5):
        s = ladder_fixture(i)
        quad = stieltjes_quadruple(s)
        fp_sh = favard_pair(shift_sequence(s))
        eye = np.eye(s.q)
        for z in rng.standard_normal(4) + 1j * rng.standard_normal(4):
            if len(quad.phat) >= 2:
                want = np.asarray(fp_sh.b[0]) \
                    + (z * eye - np.asarray(fp_sh.a[0])) @ quad.phat[0](z)
                assert rel_err(quad.phat[1](z), want) < 1e-8
            for n in range(2, len(quad.phat)):
                want = (z * eye - np.asarray(fp_sh.a[n - 1])) @ quad.phat[n - 1](z) \
                    - np.asarray(fp_sh.b[n - 1]).conj().T @ quad.phat[n - 2](z)
                assert rel_err(quad.phat[n](z), want) < 1e-8
            for n in range(2, len(quad.p_shift)):
                want = (z * eye - np.asarray(fp_sh.a[n - 1])) @ quad.p_shift[n - 1](z) \
                    - np.asarray(fp_sh.b[n - 1]).conj().T @ quad.p_shift[n - 2](z)
                assert rel_err(quad.p_shift[n](z), want) < 1e-8


def test_associated_polynomial_degree():
    # the second kind polynomials are the ones attached to the monic P_n
    s = ladder_fixture(0)
    assert [p.degree for p in second_kind_system(s)] \
        == [n - 1 for n in range(len(monic_orthogonal_system(s)))]


def _assert_families_match_the_loop(s):
    # the public systems against the Hankel loop: the first kind rows of the
    # sequence and of its shift bit for bit, the attached families to 1e-12
    ref = quadruple_loop(s)
    for g, w in zip(monic_orthogonal_system(s), ref["p"], strict=True):
        np.testing.assert_array_equal(g.coeffs, w.coeffs)
    if s.kappa:
        for g, w in zip(monic_orthogonal_system(s.shifted), ref["p_shift"], strict=True):
            np.testing.assert_array_equal(g.coeffs, w.coeffs)
    for g, w in zip(second_kind_system(s), ref["second"], strict=True):
        assert g.degree == w.degree
        assert np.linalg.norm(g.coeffs - w.coeffs) <= 1e-12 * np.linalg.norm(w.coeffs)


def _chain_quadruple_error(s) -> dict:
    """Worst relative coefficient error per family of the chain-built quadruple
    against quadruple_loop; the degrees must be equal."""
    quad, ref = stieltjes_quadruple(s), quadruple_loop(s)
    worst = {}
    for key in ("p", "second", "p_shift", "phat"):
        got, want = getattr(quad, key), ref[key]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.degree == w.degree
            # absolute for the zero polynomial second_0
            scale = np.linalg.norm(w.coeffs) or 1.0
            worst[key] = max(worst.get(key, 0.0), np.linalg.norm(g.coeffs - w.coeffs) / scale)
    return worst


def test_stacked_quadruple_matches_the_polynomial_loop():
    for i in range(50):
        s = ladder_fixture(i)
        for t in (s, reflect(s)):
            _assert_families_match_the_loop(t)


def test_chain_quadruple_matches_the_polynomial_loop():
    # the quadruple read off the chain of (L, M) against the Hankel loop:
    # worst 4.4e-12 (p), 2.7e-12 (second), 3.7e-13 (p_shift), 5.5e-13 (phat)
    worst = {}
    for i in range(50):
        for t in (ladder_fixture(i), reflect(ladder_fixture(i))):
            for key, err in _chain_quadruple_error(t).items():
                worst[key] = max(worst.get(key, 0.0), err)
    assert set(worst) == {"p", "second", "p_shift", "phat"}
    assert max(worst.values()) <= 1e-11


@pytest.mark.parametrize("side", ["right", "left"])
def test_stacked_quadruple_with_one_moment(side):
    s0 = np.array([[2.0, 0.5j], [-0.5j, 1.0]])
    s = sequence([s0], alpha=0.5, side=side)
    _assert_families_match_the_loop(s)
    assert max(_chain_quadruple_error(s).values()) <= 1e-15
    quad = stieltjes_quadruple(s)
    assert [pn.degree for pn in quad.second] == [-1]
    assert len(quad.p_shift) == 1
    np.testing.assert_array_equal(quad.p_shift[0].coeffs, [np.eye(2)])
    # phat_0 = +-M_0^{-1} with M_0 = s_0^{-1}: s_0 to a few ulp, not bit for bit
    want = s0 if side == "right" else -s0
    np.testing.assert_allclose(quad.phat[0].coeffs, [want], rtol=0, atol=4 * np.spacing(2.0))


def test_shift_identity_holds_on_the_ladder():
    # against the coupling of (L, M): worst 1.1e-13 (the moment-side
    # coupling Hhat_shift_n Hhat_n^{-1} gives 4.3e-12)
    for i in range(50):
        for t in (ladder_fixture(i), reflect(ladder_fixture(i))):
            assert shift_identity_defect(t) <= 1e-11


@pytest.mark.parametrize("seed,q,kappa,draw", [(1, 2, 15, 22), (3, 2, 15, 0), (4, 4, 10, 12)])
def test_quadruple_builds_on_ill_conditioned_lm_draws(seed, q, kappa, draw):
    # (L, M) draws, then their moments: a run-time shift-identity check with
    # the moment-side coupling rejected these valid inputs (defects 2.8e-6 to
    # 2e-4); against the (L, M) the quadruple is built from, the identity
    # holds to about 1e-8
    assert shift_identity_defect(lm_draw(seed, q, kappa, draw)) <= 1e-6   # builds the quadruple


FAMILIES = ("p", "second", "p_shift", "phat")


def test_the_lazy_families_are_the_eager_ones_bit_for_bit():
    # each family normalised at its first read, with its own lead inverted,
    # against the eager oracle that inverts the leads of both in one stack
    for i in range(50):
        for s in (ladder_fixture(i), reflect(ladder_fixture(i))):
            quad = stieltjes_quadruple(s)
            for name, stack in zip(FAMILIES, chain_families(ds_param(s))):
                want = orthopoly._polynomials(stack, lag=int(name == "second"))
                got = getattr(quad, name)
                assert len(got) == len(want), (i, name)
                for g, w in zip(got, want):
                    assert g.coeffs.shape == w.coeffs.shape, (i, name)
                    assert g.coeffs.tobytes() == w.coeffs.tobytes(), (i, name)


def test_reading_p_builds_p_alone():
    # the solve path reads det P_top: the other three families and the
    # normaliser of P_shift and phat stay unbuilt
    s = random_stieltjes_pd_sequence(q=2, kappa=5, alpha=0.5, side="left", seed=4)
    quad = stieltjes_quadruple(s)
    assert quad.ds is ds_param(s) and set(vars(quad)) == {"ds"}
    real_zeros(quad.p[-1], MONIC)
    assert set(vars(quad)) == {"ds", "_d_inv", "p"}


def test_each_family_is_built_once_and_read_only():
    for s in (ladder_fixture(7), reflect(ladder_fixture(7))):
        quad = stieltjes_quadruple(s)
        for name in reversed(FAMILIES):   # p_shift and phat before the lead of D is inverted
            family = getattr(quad, name)
            assert getattr(quad, name) is family
            assert all(not pn.coeffs.flags.writeable for pn in family)
        assert set(FAMILIES) <= set(vars(quad))
        assert writeable_arrays(quad) == []


@pytest.mark.parametrize("family,n", [("p", 0), ("p", 1), ("p", 2), ("p_shift", 0),
                                      ("p_shift", 1)])
def test_shift_identity_check_catches_a_wrong_row(monkeypatch, family, n):
    # a fresh sequence, so no cached quadruple; q=2, kappa=4 checks P_0..P_2
    # and P_shift_0, P_shift_1 of the stacks normalised from the chain.  The
    # wrong family, one row of the oracle stacks off, takes the place of the
    # view's own before its first read
    s = random_stieltjes_pd_sequence(q=2, kappa=4, alpha=0.5, side="right", seed=3)
    p, _, p_shift, _ = (a.copy() for a in chain_families(ds_param(s)))
    (p if family == "p" else p_shift)[n, 0] += 0.5 * np.eye(s.q)
    monkeypatch.setitem(vars(stieltjes_quadruple(s)), family,
                        orthopoly._polynomials(p if family == "p" else p_shift))
    assert shift_identity_defect(s) > 1e-6


@pytest.mark.parametrize("block,n", [("d", 0), ("d", 1), ("d", 2), ("c", 1)])
def test_shift_identity_check_catches_a_wrong_chain_block(monkeypatch, block, n):
    # a wrong block of the cached chain stacks reaches the checked rows: the
    # constant coefficient of D_n feeds P_n and E_n, ..., the lead of C_n
    # normalises P_shift_n (P_0 and P_shift_0 are I by construction)
    s = random_stieltjes_pd_sequence(q=2, kappa=4, alpha=0.5, side="right", seed=3)
    stacks, q = orthopoly.chain_stacks, s.q

    def wrong_block(ds):
        x, y = (a.copy() for a in stacks(ds))
        if block == "d":
            y[n, 0, q:] += 0.5 * y[n, n, q:]
        else:
            x[n, n + 1, q:] *= 1.5
        return x, y

    monkeypatch.setattr(orthopoly, "chain_stacks", wrong_block)
    assert shift_identity_defect(s) > 1e-6


def test_public_systems_keep_their_checks():
    s = sequence([-1.0, 1.0])      # Hhat_0 = -1: the Hankel prefix is not PD
    with pytest.raises(ValueError, match="Hankel-PD prefix"):
        monic_orthogonal_system(s)
    with pytest.raises(ValueError, match="Hankel-PD prefix"):
        second_kind_system(s)
