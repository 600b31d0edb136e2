import numpy as np
import pytest

from stieltjesmp import (
    DEFAULT_TOL, INDEFINITE, JQ, JQQ, JTILDE, NON_HERMITIAN, PD, PSD,
    ToleranceConfig, block_psd, interval_sample, is_hermitian, j_defect,
    pinv, psd_class, signature_matrix, sqrt_psd,
)
from stieltjesmp.linalg import _psd_class, _psd_classes


def test_is_hermitian_cases():
    assert is_hermitian(np.array([[0, -1j], [1j, 0]]))
    assert is_hermitian(np.eye(3))
    assert not is_hermitian(np.array([[0, 1], [0, 0]]))


def test_is_hermitian_rejects_non_square():
    with pytest.raises(ValueError):
        is_hermitian(np.ones((2, 3)))


def test_psd_class_cases():
    assert psd_class(np.eye(2)) == PD
    assert psd_class(np.array([[1, 1], [1, 1]])) == PSD
    assert psd_class(np.diag([1.0, -1.0])) == INDEFINITE
    assert psd_class(np.array([[0, 1], [0, 0]])) == NON_HERMITIAN


def test_psd_class_is_the_stacked_classifier_on_one_matrix():
    cases = [np.eye(2), np.array([[1, 1], [1, 1]]), np.diag([1.0, -1.0]),
             np.array([[0, 1], [0, 0]]), 1e-10 * np.eye(2), np.diag([1e-10, 1.0]),
             np.diag([2e-10, 1.0]), -1e-10 * np.eye(2)]
    stack = np.array(cases, dtype=complex)
    classes = _psd_classes(stack, DEFAULT_TOL)
    for a, cls in zip(stack, classes):
        assert _psd_class(a, DEFAULT_TOL) == cls == _psd_classes(a[None], DEFAULT_TOL)[0]
    assert list(classes) == [PD, PSD, INDEFINITE, NON_HERMITIAN, PSD, PSD, PD, PSD]


def test_pinv_diagonal_and_rank_one():
    np.testing.assert_allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14)
    np.testing.assert_allclose(pinv(np.eye(4)), np.eye(4), atol=1e-14)
    np.testing.assert_allclose(pinv(np.ones((2, 2))), 0.25 * np.ones((2, 2)), atol=1e-14)


def test_pinv_penrose_identities():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        ap = pinv(a)
        tol = DEFAULT_TOL.identity_tol
        assert np.linalg.norm(a @ ap @ a - a) < tol * (1 + np.linalg.norm(a))
        assert np.linalg.norm(ap @ a @ ap - ap) < tol * (1 + np.linalg.norm(ap))
        assert np.linalg.norm((a @ ap).conj().T - a @ ap) < tol
        assert np.linalg.norm((ap @ a).conj().T - ap @ a) < tol


def test_sqrt_psd():
    np.testing.assert_allclose(sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)
    np.testing.assert_allclose(sqrt_psd(np.zeros((3, 3))), np.zeros((3, 3)), atol=1e-14)
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    r = sqrt_psd(a)
    np.testing.assert_allclose(r @ r, a, atol=1e-12)
    assert psd_class(r) == PD
    np.testing.assert_allclose(sorted(np.linalg.eigvalsh(r)), [1.0, np.sqrt(3)], atol=1e-12)


def test_sqrt_psd_property():
    rng = np.random.default_rng(2)
    for _ in range(10):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = g @ g.conj().T
        r = sqrt_psd(a)
        assert np.linalg.norm(r @ r - a) < DEFAULT_TOL.identity_tol * (1 + np.linalg.norm(a))
        assert psd_class(r) in (PD, PSD)


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(ValueError):
        sqrt_psd(np.diag([1.0, -1.0]))


def test_block_psd_cases():
    one = np.eye(1)
    zero = np.zeros((1, 1))
    assert block_psd(one, one, one, one)
    assert not block_psd(one, one, one, zero)      # Schur complement -1
    assert not block_psd(zero, one, one, one)      # range condition fails


def test_block_psd_matches_assembled_spectrum():
    rng = np.random.default_rng(3)
    hits = 0
    for _ in range(200):
        e = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        e = e @ e.conj().T if rng.uniform() < 0.5 else (e + e.conj().T)
        a, b, c, d = e[:2, :2], e[:2, 2:], e[2:, :2], e[2:, 2:]
        want = psd_class(e) in (PD, PSD)
        assert block_psd(a, b, c, d) == want
        hits += want
    assert 0 < hits < 200


def test_interval_sample_endpoints_and_midpoint():
    a = np.zeros((1, 1))
    b = 4.0 * np.eye(1)
    np.testing.assert_array_equal(interval_sample(a, b, np.zeros((1, 1))), a)
    np.testing.assert_array_equal(interval_sample(a, b, np.eye(1)), b)
    np.testing.assert_allclose(interval_sample(a, b, 0.5 * np.eye(1)), [[2.0]], atol=1e-14)


def test_interval_sample_stays_inside():
    rng = np.random.default_rng(4)
    for _ in range(10):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        gap = g @ g.conj().T
        a = -np.eye(3)
        b = a + gap
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        k = u @ np.diag(rng.uniform(0, 1, 3)) @ u.conj().T
        x = interval_sample(a, b, k)
        assert psd_class(x - a) in (PD, PSD)
        assert psd_class(b - x) in (PD, PSD)


def test_interval_sample_rejects_bad_k():
    with pytest.raises(ValueError):
        interval_sample(np.zeros((1, 1)), np.eye(1), 2.0 * np.eye(1))


@pytest.mark.parametrize("kind", [JTILDE, JQ, JQQ])
def test_signature_matrices(kind):
    for q in (1, 2, 3):
        j = signature_matrix(kind, q)
        np.testing.assert_allclose(j, j.conj().T, atol=1e-14)
        np.testing.assert_allclose(j @ j, np.eye(2 * q), atol=1e-14)


def test_j_defect_cases():
    jt = signature_matrix(JTILDE, 1)
    np.testing.assert_allclose(j_defect(jt, np.eye(2)), np.zeros((2, 2)), atol=1e-14)
    # real lower unit-triangular blocks are J-unitary
    for z in (-2.0, 0.3, 5.0):
        w = np.array([[1, 0], [-z, 1]], dtype=complex)
        np.testing.assert_allclose(j_defect(jt, w), np.zeros((2, 2)), atol=1e-14)
    # an imaginary corner gives a PSD defect diag(2, 0)
    w = np.array([[1, 0], [-1j, 1]], dtype=complex)
    np.testing.assert_allclose(j_defect(jt, w), np.diag([2.0, 0.0]), atol=1e-14)


def test_tolerance_config_validation():
    with pytest.raises(ValueError):
        ToleranceConfig(herm_tol=0.0)
    with pytest.raises(ValueError):
        ToleranceConfig(psd_tol=1e-20)
