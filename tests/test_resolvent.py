import numpy as np
import pytest

from stieltjesmp import (
    JTILDE, difference_inverse, ds_param, dyukarev_quadruple, factorize_u, j_defect, j_inner_check,
    leading_terms, reflect, resolvent_u, schur_rotation, sequence, sigma,
    signature_matrix,
)
from stieltjesmp.moments import half, y_stack

from conftest import (
    alternating_signs, dyukarev_loop, first_block_column, hankel_inverse, hankel_u,
    block2x2, ladder_fixture, leading_closed, quadruple_u, rel_err, resolvent_R, scaled_u,
    u_shift_vector, u_vector,
)


def test_quadruple_fixture_f1(f1):
    dq = dyukarev_quadruple(f1)
    np.testing.assert_allclose(dq.a[0](1.7), [[1.0]])
    np.testing.assert_allclose(dq.b[1](0.4), [[1.0]])
    np.testing.assert_allclose(dq.c[0](1.7), [[-1.7]])
    np.testing.assert_allclose(dq.d[1](1.7), [[1.0 - 1.7]])
    np.testing.assert_allclose(dq.b[0](9.0), [[0.0]])
    np.testing.assert_allclose(dq.d[0](9.0), [[1.0]])


def test_quadruple_fixture_f2(f2):
    dq = dyukarev_quadruple(f2)
    z = 0.3 + 0.1j
    np.testing.assert_allclose(dq.a[1](z), [[1 - z]], atol=1e-14)
    np.testing.assert_allclose(dq.c[1](z), [[z * z - 2 * z]], atol=1e-14)


def test_quadruple_normalizations():
    for i in range(6):
        s = ladder_fixture(i)
        dq = dyukarev_quadruple(s)
        eye = np.eye(s.q)
        for a_poly in dq.a:
            np.testing.assert_allclose(a_poly(s.alpha), eye, atol=1e-9)
        for d_poly in dq.d:
            np.testing.assert_allclose(d_poly(s.alpha), eye, atol=1e-9)


def test_resolvent_blocks_and_det(f1, f2):
    z = 0.7 + 0.3j
    u1 = resolvent_u(f1, 1)
    np.testing.assert_allclose(u1(z), [[1, 1], [-z, 1 - z]], atol=1e-14)
    u2 = resolvent_u(f2, 2)
    np.testing.assert_allclose(u2(z), [[1 - z, 1], [z * z - 2 * z, 1 - z]], atol=1e-13)
    for u in (u1, u2):
        np.testing.assert_allclose(np.linalg.det(u(z)), 1.0, atol=1e-12)


def test_resolvent_m0_form():
    for i in (0, 1, 4):
        s = ladder_fixture(i)
        u = resolvent_u(s, 0)
        z = 1.1 - 0.4j
        got = u(z)
        q = s.q
        np.testing.assert_allclose(got[:q, :q], np.eye(q), atol=1e-12)
        np.testing.assert_allclose(got[:q, q:], 0, atol=1e-12)
        np.testing.assert_allclose(got[q:, q:], np.eye(q), atol=1e-12)
        # lower-left block is (alpha - z) s_0^{-1} on both half-lines
        np.testing.assert_allclose(got[q:, :q], (s.alpha - z) * np.linalg.inv(s[0]),
                                   atol=1e-10)


def test_one_moment_sequence():
    # kappa = 0: (L, M) = ((), (s_0^{-1},)) and U_0 = W_0, with no shifted sequence
    for side in ("right", "left"):
        s = sequence([np.array([[2.0, 0.5j], [-0.5j, 1.0]])], alpha=0.3, side=side)
        d = ds_param(s)
        assert d.l.shape == (0, 2, 2) and len(d.m) == 1
        np.testing.assert_allclose(d.m[0], np.linalg.inv(s[0]), atol=1e-15)
        z = 0.7 + 0.2j
        want = np.block([[np.eye(2), np.zeros((2, 2))], [(s.alpha - z) * d.m[0], np.eye(2)]])
        np.testing.assert_allclose(resolvent_u(s)(z), want, atol=1e-14)
        np.testing.assert_allclose(factorize_u(s)(z), want, atol=1e-14)


def test_det_constant_and_j_symmetry():
    rng = np.random.default_rng(9)
    for i in range(10):
        s = ladder_fixture(i)
        u = resolvent_u(s)
        det_ref = np.linalg.det(u(s.alpha))
        assert abs(det_ref) > 1e-12
        for _ in range(20):
            z = complex(rng.standard_normal(), rng.standard_normal())
            uz = u(z)
            assert abs(np.linalg.det(uz) - det_ref) <= 1e-10 * (1 + abs(det_ref))
            ui = np.linalg.inv(uz)
            assert np.linalg.norm(ui - u.inverse_at(z)) <= 1e-9 * np.linalg.norm(ui)


def test_inverse_at_reuses_one_conjugate_star_polynomial():
    u = resolvent_u(ladder_fixture(3))
    z = 0.4 - 1.1j
    first = u.inverse_at(z)
    assert u._conj_star is u._conj_star
    np.testing.assert_array_equal(u.inverse_at(z), first)
    np.testing.assert_array_equal(u._conj_star(z), u.poly.conj_star()(z))


def test_factor_chain_fixture(f1, f2):
    ch = factorize_u(f1)
    z = 0.7 + 0.3j
    np.testing.assert_allclose(ch.factors[0](z), [[1, 0], [-z, 1]], atol=1e-14)
    np.testing.assert_allclose(ch.factors[1](z), [[1, 1], [0, 1]], atol=1e-14)
    np.testing.assert_allclose(ch(z), [[1, 1], [-z, 1 - z]], atol=1e-14)
    ch2 = factorize_u(f2)
    assert len(ch2.factors) == 3
    np.testing.assert_allclose(ch2.factors[2](z), [[1, 0], [-z, 1]], atol=1e-14)
    np.testing.assert_allclose(ch2(z), resolvent_u(f2)(z), atol=1e-13)


def test_factor_chain_reproduces_u():
    rng = np.random.default_rng(10)
    for i in range(10):
        s = ladder_fixture(i)
        u = hankel_u(s)   # the moment-polynomial construction, not the chain's own product
        ch = factorize_u(s)
        prod_poly = resolvent_u(s).poly   # the expanded product of the chain
        for _ in range(20):
            z = complex(rng.standard_normal(), rng.standard_normal())
            uz = u(z)
            assert np.linalg.norm(ch(z) - uz) <= 1e-10 * np.linalg.norm(uz)
            assert np.linalg.norm(prod_poly(z) - uz) <= 1e-10 * np.linalg.norm(uz)


def test_resolvent_u_is_the_expanded_chain_bit_for_bit():
    # U_m is a slice of the cached chain stacks, the same numbers as the
    # block assembly [[A_n, B_k], [C_n, D_k]], n = half(m), k = half(m+1), of
    # the Dyukarev quadruple read off them, for every m on both half-lines
    for i in range(10):
        for s in (ladder_fixture(i), reflect(ladder_fixture(i))):
            dq = dyukarev_quadruple(s)
            for m in range(s.kappa + 1):
                n, k = half(m), half(m + 1)
                np.testing.assert_array_equal(resolvent_u(s, m).poly.coeffs,
                                              block2x2(dq.a[n], dq.b[k], dq.c[n], dq.d[k]).coeffs)


def test_quadruple_polynomial_route():
    rng = np.random.default_rng(12)
    for i in range(10):
        s = ladder_fixture(i)
        u = resolvent_u(s)
        uq = quadruple_u(s, s.kappa)
        for _ in range(8):
            z = complex(rng.standard_normal(), rng.standard_normal())
            assert np.linalg.norm(uq(z) - u(z)) <= 1e-9 * np.linalg.norm(u(z))
        # the closed inverse of that route matches numeric inversion
        z = complex(rng.standard_normal(), rng.standard_normal())
        np.testing.assert_allclose(uq.inverse_at(z), np.linalg.inv(u(z)),
                                   atol=1e-8 * np.linalg.norm(np.linalg.inv(u(z))))


def test_leading_terms():
    # a leading coefficient of degree d is sign^d times the top coefficient
    # of the chain-built family, bit for bit, and the closed ordered (L, M)
    # products agree to 1e-14; every m, the fixtures and their reflections
    for i in range(10):
        for s in (ladder_fixture(i), reflect(ladder_fixture(i))):
            dq = dyukarev_quadruple(s)
            # in w = sign (z - alpha): coefficient d of P is sign^d P^[d], the
            # constant term P(alpha) and the coefficient of w sign P'(alpha)
            sign = 1.0 if s.side == "right" else -1.0
            for m in range(s.kappa + 1):
                lt, closed = leading_terms(s, m), leading_closed(s, m)
                blocks = {"A": dq.a[half(m)], "B": dq.b[half(m + 1)],
                          "C": dq.c[half(m)], "D": dq.d[half(m + 1)]}
                for name, poly in blocks.items():
                    info = lt[name]
                    assert poly.degree == info["degree"]
                    if info["degree"] >= 0:
                        top = sign ** info["degree"] * poly.coeffs[info["degree"]]
                        np.testing.assert_array_equal(info["leading"], top)
                    assert rel_err(info["leading"], closed[name]) < 1e-14
                    if name == "C":
                        low = sign * sum(j * s.alpha ** (j - 1) * c
                                         for j, c in enumerate(poly.coeffs) if j)
                    else:
                        low = poly(s.alpha)
                    assert rel_err(low, info["low"]) < 1e-8


def test_leading_terms_fixture_f2(f2):
    lt = leading_terms(f2)
    np.testing.assert_allclose(lt["D"]["leading"], [[-1.0]])
    np.testing.assert_allclose(lt["D"]["low"], [[1.0]])
    np.testing.assert_allclose(lt["B"]["leading"], [[1.0]])
    np.testing.assert_allclose(lt["B"]["low"], [[1.0]])
    np.testing.assert_allclose(lt["C"]["low"], [[-2.0]])   # -(M_0 + M_1)


@pytest.mark.parametrize("build", [leading_terms, difference_inverse])
@pytest.mark.parametrize("offset", [-1, 1])
def test_index_outside_zero_to_kappa_is_rejected(build, offset):
    # m = -1 and m = kappa + 1 are named against the sequence's own kappa;
    # m = 0 is a valid index
    s = ladder_fixture(4)
    m = -1 if offset < 0 else s.kappa + 1
    with pytest.raises(ValueError, match=f"index m={m} outside 0..kappa={s.kappa}"):
        build(s, m)
    build(s, 0)


def test_c_determinant_zero_localization():
    # det C vanishes only on the closed support half-line; the base point
    # is a zero of multiplicity q (the (z - alpha)^q factor), so its
    # numeric cluster is matched with a multiplicity-aware tolerance
    from stieltjesmp import det_zeros
    for i in range(8):
        s = ladder_fixture(i)
        dq = dyukarev_quadruple(s)
        for c_poly in dq.c:
            if c_poly.degree < 1:
                continue
            zeros = det_zeros(c_poly)
            assert np.all(np.abs(zeros.imag) < 1e-3)
            if s.side == "right":
                assert np.all(zeros.real >= s.alpha - 1e-4)
            else:
                assert np.all(zeros.real <= s.alpha + 1e-4)


def test_duality_of_u():
    # U_left of the reflected sequence at -z is V_1 U_right(z) V_1^*
    rng = np.random.default_rng(13)
    for i in range(8):
        s = ladder_fixture(i)
        t = reflect(s)
        us, ut = resolvent_u(s), resolvent_u(t)
        v1 = alternating_signs(s.q, 1)
        for _ in range(5):
            z = complex(rng.standard_normal(), rng.standard_normal())
            lhs = ut(-z)
            rhs = v1 @ us(z) @ v1.conj().T
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * (1 + np.linalg.norm(rhs))


def test_scaled_resolvent_is_j_unitary_family():
    s = ladder_fixture(0)
    u = resolvent_u(s)
    jt = signature_matrix(JTILDE, s.q)
    for x in (-1.3, 0.4, 2.2):
        ut = scaled_u(u, x)
        defect = j_defect(jt, ut)
        assert np.linalg.norm(defect) < 1e-8 * (1 + np.linalg.norm(ut) ** 2)


def test_j_inner_check_report(f1):
    u = resolvent_u(f1)
    report = j_inner_check(u, [1j, 2j, 5.0, -1.0], 1)
    assert report.passed
    jt = signature_matrix(JTILDE, 1)
    # at z = i the defect is [[2, 2], [2, 2]]: PSD of rank one
    defect = j_defect(jt, u(1j))
    np.testing.assert_allclose(defect, [[2.0, 2.0], [2.0, 2.0]], atol=1e-12)
    np.testing.assert_allclose(sorted(np.linalg.eigvalsh(defect)), [0.0, 4.0], atol=1e-12)
    # constant unit-triangular factor with Hermitian corner never defects
    w = np.array([[1, 1], [0, 1]], dtype=complex)
    report = j_inner_check(lambda z: w, [1j, 0.5, -3.0 + 2j], 1)
    assert report.passed


def test_j_defect_psd_upper_half_plane():
    rng = np.random.default_rng(14)
    for i in range(10):
        s = ladder_fixture(i)
        u = resolvent_u(s)
        samples = [complex(rng.standard_normal(), abs(rng.standard_normal()) + 0.05)
                   for _ in range(10)]
        report = j_inner_check(u, samples, s.q)
        assert report.min_upper_eig > -1e-9


def coupling_builders(seq, n: int) -> dict:
    """Evaluators of the internal coupling machinery (right side).

    The two 2q x 2q fundamental-matrix functions ("v_even" at Hankel index
    n, "v_odd" at shifted index n) and the two constant coupling triangles
    ("m_const", "m_tilde").  Their products reproduce the resolvent
    members: v_even(z) @ m_const(n) is the odd-index resolvent,
    v_even(z) @ m_const(n-1) the even-index one.
    """
    assert seq.side == "right"
    q, alpha = seq.q, seq.alpha
    eye2 = np.eye(2 * q)

    def v_even(z: complex):
        v = first_block_column(q, n)
        u = u_vector(seq, n)
        r_star = resolvent_R(q, n, np.conj(z)).conj().T
        mid = hankel_inverse(seq, n) @ resolvent_R(q, n, alpha)
        left = np.hstack([u, -v]).conj().T
        right = np.hstack([v, u])
        return eye2 + (z - alpha) * left @ r_star @ mid @ right

    def v_odd(z: complex):
        v = first_block_column(q, n)
        u_sh = u_shift_vector(seq, n)
        r_star = resolvent_R(q, n, np.conj(z)).conj().T
        mid = hankel_inverse(seq.shifted, n) @ resolvent_R(q, n, alpha)
        left = np.hstack([u_sh, -v]).conj().T
        right = np.hstack([v, u_sh])
        return eye2 + (z - alpha) * left @ r_star @ mid @ right

    def m_const(k: int):
        y = y_stack(seq, 0, k)
        corner = y.conj().T @ hankel_inverse(seq.shifted, k) @ y
        return np.block([[np.eye(q), corner],
                         [np.zeros((q, q)), np.eye(q)]])

    def m_tilde(k: int):
        r_alpha = resolvent_R(q, k, alpha)
        v = first_block_column(q, k)
        corner = -v.conj().T @ r_alpha.conj().T @ hankel_inverse(seq, k) @ r_alpha @ v
        return np.block([[np.eye(q), np.zeros((q, q))],
                         [corner, np.eye(q)]])

    return {"v_even": v_even, "v_odd": v_odd, "m_const": m_const, "m_tilde": m_tilde}


def test_coupling_builders_reproduce_u():
    # the fundamental-matrix functions times the constant coupling
    # triangles give the resolvent members; the triangles are J-unitary
    rng = np.random.default_rng(30)
    for i in (0, 2, 4):
        s = ladder_fixture(i)
        if s.side != "right":
            continue
        dq = dyukarev_quadruple(s)
        jt = signature_matrix(JTILDE, s.q)
        for n in range(half(s.kappa - 1) + 1):
            cb = coupling_builders(s, n)
            np.testing.assert_allclose(j_defect(jt, cb["m_const"](n)), 0, atol=1e-8)
            np.testing.assert_allclose(j_defect(jt, cb["m_tilde"](n)), 0, atol=1e-8)
            u_odd = resolvent_u(s, 2 * n + 1)
            for _ in range(3):
                z = complex(rng.standard_normal(), rng.standard_normal())
                got = cb["v_even"](z) @ cb["m_const"](n)
                assert rel_err(got, u_odd(z)) < 1e-8
            if n >= 1:
                u_even = resolvent_u(s, 2 * n)
                for _ in range(3):
                    z = complex(rng.standard_normal(), rng.standard_normal())
                    got = cb["v_even"](z) @ cb["m_const"](n - 1)
                    assert rel_err(got, u_even(z)) < 1e-8
            # diagonal rescaling ties the odd-index scaled resolvent to the
            # shifted fundamental function times the other triangle
            u_odd = resolvent_u(s, 2 * n + 1)
            for _ in range(2):
                z = complex(rng.standard_normal(), rng.standard_normal())
                if abs(z - s.alpha) < 1e-3:
                    continue
                got = cb["v_odd"](z) @ cb["m_tilde"](n)
                assert rel_err(got, scaled_u(u_odd, z)) < 1e-8


def test_sigma_rotation_properties(f1):
    for side in ("right", "left"):
        e = schur_rotation(2, side)
        np.testing.assert_allclose(e.conj().T @ e, np.eye(4), atol=1e-14)
        jqq = signature_matrix("JQQ", 2)
        jt = signature_matrix(JTILDE, 2)
        np.testing.assert_allclose(e.conj().T @ jt @ e, jqq, atol=1e-14)


def test_sigma_jqq_unitary_on_reals(f1):
    for i in (0, 1, 2, 3):
        s = ladder_fixture(i)
        sig = sigma(s)
        jt = signature_matrix(JTILDE, s.q)
        jqq = signature_matrix("JQQ", s.q)
        for x in (-2.0, -0.3, 1.4):
            defect = jqq - sig(x).conj().T @ jt @ sig(x)
            assert np.linalg.norm(defect) < 1e-9 * (1 + np.linalg.norm(sig(x)) ** 2)


def test_stacked_quadruple_coefficients_match_the_polynomial_loop():
    # the families from the chain's prefix products against the moment
    # polynomials: equal degrees, equal values at 20 points; the factors bit for bit
    rng = np.random.default_rng(31)
    zs = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    for i in range(10):
        for s in (ladder_fixture(i), reflect(ladder_fixture(i))):
            dq, want = dyukarev_quadruple(s), dyukarev_loop(s)
            for fam in "abcd":
                for got, ref in zip(getattr(dq, fam), want[fam], strict=True):
                    assert got.degree == ref.degree
                    g, r = got(zs), ref(zs)
                    assert np.all(np.linalg.norm(g - r, axis=(1, 2))
                                  <= 1e-10 * np.linalg.norm(r, axis=(1, 2)))
            for j, w in enumerate(factorize_u(s).factors):
                ds, n, q = ds_param(s), j // 2, s.q
                eye, zero = np.eye(q), np.zeros((q, q))
                ref = [np.block([[eye, zero], [s.alpha * ds.m[n], eye]]),
                       np.block([[zero, zero], [-ds.m[n], zero]])] if j % 2 == 0 else \
                    [np.block([[eye, (1 if s.side == "right" else -1) * ds.l[n]], [zero, eye]])]
                np.testing.assert_array_equal(np.array(w.coeffs), np.array(ref))
