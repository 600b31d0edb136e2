import numpy as np
import pytest

from stieltjesmp import (
    JTILDE, dyukarev_quadruple, factorize_u, j_defect, j_inner_check,
    leading_terms, reflect, resolvent_u, schur_rotation, sigma,
    signature_matrix, u_from_quadruple_polynomials,
)
from stieltjesmp.moments import (
    alternating_signs, block_shift, first_block_column, half, resolvent_R, u_shift_vector, u_vector,
)
from stieltjesmp.orthopoly import MatrixPolynomial

from conftest import ladder_fixture, rel_err


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


def test_resolvent_self_check_flag():
    s = ladder_fixture(0)
    resolvent_u(s, check=True)   # passes silently on a consistent build


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
        u = resolvent_u(s)
        ch = factorize_u(s)
        prod_poly = ch.product()
        for _ in range(20):
            z = complex(rng.standard_normal(), rng.standard_normal())
            uz = u(z)
            assert np.linalg.norm(ch(z) - uz) <= 1e-10 * np.linalg.norm(uz)
            assert np.linalg.norm(prod_poly(z) - uz) <= 1e-10 * np.linalg.norm(uz)


def test_quadruple_polynomial_route():
    rng = np.random.default_rng(12)
    for i in range(10):
        s = ladder_fixture(i)
        u = resolvent_u(s)
        uq = u_from_quadruple_polynomials(s, s.kappa)
        for _ in range(8):
            z = complex(rng.standard_normal(), rng.standard_normal())
            assert np.linalg.norm(uq(z) - u(z)) <= 1e-9 * np.linalg.norm(u(z))
        # the closed inverse of that route matches numeric inversion
        z = complex(rng.standard_normal(), rng.standard_normal())
        np.testing.assert_allclose(uq.inverse_at(z), np.linalg.inv(u(z)),
                                   atol=1e-8 * np.linalg.norm(np.linalg.inv(u(z))))


def test_leading_terms():
    for i in range(10):
        s = ladder_fixture(i)
        lt = leading_terms(s)
        dq = dyukarev_quadruple(s)
        from stieltjesmp.moments import half
        m = s.kappa
        blocks = {"A": dq.a[half(m)], "B": dq.b[half(m + 1)],
                  "C": dq.c[half(m)], "D": dq.d[half(m + 1)]}
        sign = 1.0 if s.side == "right" else -1.0
        for name, poly in blocks.items():
            info = lt[name]
            recentered = poly.compose_affine(s.alpha, sign)
            assert recentered.degree == info["degree"]
            if info["degree"] >= 0:
                assert rel_err(recentered.coeff(info["degree"]), info["leading"]) < 1e-8
            low_order = 1 if name == "C" else 0
            assert rel_err(recentered.coeff(low_order), info["low"]) < 1e-8


def test_leading_terms_fixture_f2(f2):
    lt = leading_terms(f2)
    np.testing.assert_allclose(lt["D"]["leading"], [[-1.0]])
    np.testing.assert_allclose(lt["D"]["low"], [[1.0]])
    np.testing.assert_allclose(lt["B"]["leading"], [[1.0]])
    np.testing.assert_allclose(lt["B"]["low"], [[1.0]])
    np.testing.assert_allclose(lt["C"]["low"], [[-2.0]])   # -(M_0 + M_1)


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
    ut = u.scaled_evaluator()
    jt = signature_matrix(JTILDE, s.q)
    for x in (-1.3, 0.4, 2.2):
        defect = j_defect(jt, ut(x))
        assert np.linalg.norm(defect) < 1e-8 * (1 + np.linalg.norm(ut(x)) ** 2)
    with pytest.raises(ValueError):
        ut(s.alpha)


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


def test_coupling_builders_reproduce_u():
    # the fundamental-matrix functions times the constant coupling
    # triangles give the resolvent members; the triangles are J-unitary
    from stieltjesmp.resolvent import coupling_builders
    from stieltjesmp.moments import half
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
            ut = resolvent_u(s, 2 * n + 1).scaled_evaluator()
            for _ in range(2):
                z = complex(rng.standard_normal(), rng.standard_normal())
                if abs(z - s.alpha) < 1e-3:
                    continue
                got = cb["v_odd"](z) @ cb["m_tilde"](n)
                assert rel_err(got, ut(z)) < 1e-8


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


def _dyukarev_loop(seq):
    """The quadruple from MatrixPolynomial arithmetic and T^k products with the
    block-shift matrix, one coefficient at a time: an oracle for the stacked build."""
    pack, q, alpha = seq.pack, seq.q, seq.alpha

    def moment_poly(left, mid, right, n):
        t, cur, coeffs = block_shift(q, n), left.copy(), []
        for _ in range(n + 1):
            coeffs.append(cur.conj().T @ mid @ right)
            cur = t @ cur
        return MatrixPolynomial(coeffs)

    def combo(base, w, sign):
        return base + (w.shift_z() + w.scale(-alpha)).scale(sign)

    eye = MatrixPolynomial.constant(np.eye(q))
    a, c = [], []
    for n in range(half(seq.kappa) + 1):
        v = first_block_column(q, n)
        mid = pack.h_inv(n) @ resolvent_R(q, n, alpha)
        a.append(combo(eye, moment_poly(u_vector(seq, n), mid, v, n), 1.0))
        c.append(combo(eye.scale(0.0), moment_poly(v, mid, v, n), -1.0))
    b, d = [MatrixPolynomial.constant(np.zeros((q, q)))], [eye]
    for n in range(half(seq.kappa + 1)):
        v, mid, y = first_block_column(q, n), pack.shift.h_inv(n), pack.y(0, n)
        b.append(moment_poly(u_shift_vector(seq, n), mid, y, n))
        d.append(combo(eye, moment_poly(v, mid, y, n), -1.0 if seq.side == "right" else 1.0))
    return {"a": a, "b": b, "c": c, "d": d}


def test_stacked_quadruple_coefficients_match_the_polynomial_loop():
    for i in range(10):
        for s in (ladder_fixture(i), reflect(ladder_fixture(i))):
            dq, want = dyukarev_quadruple(s), _dyukarev_loop(s)
            for fam in "abcd":
                for got, ref in zip(getattr(dq, fam), want[fam], strict=True):
                    np.testing.assert_array_equal(np.array(got.coeffs), np.array(ref.coeffs))
            for j, w in enumerate(factorize_u(s).factors):
                ds, n, q = s.ds, j // 2, s.q
                eye, zero = np.eye(q), np.zeros((q, q))
                ref = [np.block([[eye, zero], [s.alpha * ds.m[n], eye]]),
                       np.block([[zero, zero], [-ds.m[n], zero]])] if j % 2 == 0 else \
                    [np.block([[eye, (1 if s.side == "right" else -1) * ds.l[n]], [zero, eye]])]
                np.testing.assert_array_equal(np.array(w.coeffs), np.array(ref))
