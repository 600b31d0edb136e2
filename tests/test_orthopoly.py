import numpy as np
import pytest

from stieltjesmp import (
    GENERAL, MONIC, MatrixPolynomial, associated_polynomial, det_zeros,
    ds_param, dyukarev_quadruple, eval_quadruple_at_alpha, favard_pair,
    monic_orthogonal_system, q_values_from_quadruple, real_zeros,
    second_kind_system, sequence, shift_sequence, stieltjes_param,
    stieltjes_quadruple,
)
from conftest import ladder_fixture, rel_err


def test_poly_eval_basics():
    eye = np.eye(1)
    p = MatrixPolynomial([-eye, eye])       # z - 1
    np.testing.assert_allclose(p(1.0), [[0.0]])
    np.testing.assert_allclose(p(3.0), [[2.0]])
    const = MatrixPolynomial.constant(np.eye(2))
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
    b = MatrixPolynomial([rng.standard_normal((2, 2)) for _ in range(2)])
    z = 0.7 - 0.4j
    np.testing.assert_allclose((a + b)(z), a(z) + b(z), atol=1e-12)
    np.testing.assert_allclose(a.matmul(b)(z), a(z) @ b(z), atol=1e-12)
    np.testing.assert_allclose(a.conj_star()(z), a(np.conj(z)).conj().T, atol=1e-12)
    shifted = a.compose_affine(1.5, -2.0)
    np.testing.assert_allclose(shifted(z), a(1.5 - 2.0 * z), atol=1e-12)


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
    total = sum(p[1].coeff(l) @ f1[l] for l in range(2))
    np.testing.assert_allclose(total, [[0.0]], atol=1e-14)


def test_monic_favard_recursion_agree():
    for i in (0, 1, 4, 5, 7):
        s = ladder_fixture(i)
        polys = monic_orthogonal_system(s)
        fp = favard_pair(s)
        eye = np.eye(s.q, dtype=complex)
        rec = [MatrixPolynomial.constant(eye)]
        for n in range(1, len(polys)):
            zp = rec[n - 1].shift_z() + rec[n - 1].lmul(-np.asarray(fp.a[n - 1]))
            if n >= 2:
                zp = zp + rec[n - 2].lmul(-np.asarray(fp.b[n - 1]).conj().T)
            rec.append(zp)
        for direct, via_rec in zip(polys, rec):
            for j in range(len(direct.coeffs)):
                assert rel_err(direct.coeff(j), via_rec.coeff(j)) < 1e-9


def test_second_kind_fixture(f1):
    p2 = second_kind_system(f1)
    assert p2[0].degree == -1
    np.testing.assert_allclose(p2[1](0.77), [[1.0]])
    p2 = second_kind_system(sequence([5.0, 0.0]))
    np.testing.assert_allclose(p2[1](2.3), [[5.0]])


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


def test_det_zeros_rejects_singular():
    with pytest.raises(ValueError):
        det_zeros(MatrixPolynomial.constant(np.zeros((2, 2))))


def test_tiny_constant_is_not_the_zero_polynomial():
    p = MatrixPolynomial.constant(1e-9 * np.eye(2))
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
    s = ladder_fixture(0)
    polys = monic_orthogonal_system(s)
    for n, p in enumerate(polys):
        ap = associated_polynomial(s, p)
        assert ap.degree == n - 1
