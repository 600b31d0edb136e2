import numpy as np
import pytest

from stieltjesmp import (
    HankelPack, classify, ds_param, dyukarev_quadruple, potapov_defect_psd,
    random_stieltjes_pd_sequence, reflect, sequence, shift_sequence,
    stieltjes_param, stieltjes_quadruple,
)
from stieltjesmp.moments import (
    alternating_signs, block_shift, column_E, first_block_column, half,
    resolvent_R, u_shift_vector,
)

from conftest import ladder_fixture


def test_hankel_pack_scalar(f2):
    pack = HankelPack(f2)
    np.testing.assert_allclose(pack.h(1), [[1, 1], [1, 2]], atol=1e-14)
    np.testing.assert_allclose(pack.hhat(1), [[1.0]], atol=1e-14)
    np.testing.assert_allclose(pack.hhat(0), [[1.0]], atol=1e-14)


def test_hankel_pack_trivial():
    pack = HankelPack(sequence([5.0]))
    np.testing.assert_allclose(pack.h(0), [[5.0]])
    np.testing.assert_allclose(pack.hhat(0), [[5.0]])


def test_schur_complement_zero_middle():
    pack = HankelPack(sequence([1.0, 0.0, 1.0]))
    np.testing.assert_allclose(pack.hhat(1), [[1.0]], atol=1e-14)


def test_shift_sequence_examples():
    s = sequence([1.0, 1.0], alpha=0.0)
    np.testing.assert_allclose(shift_sequence(s)[0], [[1.0]])
    s = sequence([1.0, 3.0], alpha=2.0)
    np.testing.assert_allclose(shift_sequence(s)[0], [[1.0]])
    s = sequence([1.0, -1.0], alpha=0.0, side="left")
    np.testing.assert_allclose(shift_sequence(s)[0], [[1.0]])


def test_shift_requires_two_moments():
    with pytest.raises(ValueError):
        shift_sequence(sequence([1.0]))


def test_reflect_involution(f1):
    t = reflect(f1)
    assert t.side == "left" and t.alpha == -f1.alpha
    np.testing.assert_allclose(t[1], [[-1.0]])
    back = reflect(t)
    assert back.side == f1.side
    for a, b in zip(back.moments, f1.moments):
        np.testing.assert_array_equal(a, b)


def test_reflect_entrywise_q2():
    s = sequence([np.diag([1.0, 2.0]), np.diag([0.5, 0.25]), np.diag([3.0, 5.0])])
    t = reflect(s)
    np.testing.assert_array_equal(t[0], s[0])
    np.testing.assert_array_equal(t[1], -s[1])
    np.testing.assert_array_equal(t[2], s[2])


def test_reflect_hankel_conjugation():
    for i in range(6):
        s = ladder_fixture(i)
        t = reflect(s)
        ps, pt = HankelPack(s), HankelPack(t)
        n = half(s.kappa)
        v = alternating_signs(s.q, n)
        np.testing.assert_allclose(pt.h(n), v @ ps.h(n) @ v.conj().T, atol=1e-10)
        np.testing.assert_allclose(pt.hhat(n), ps.hhat(n),
                                   atol=1e-9 * (1 + np.linalg.norm(ps.hhat(n))))


def test_classify_fixtures(f1, f2):
    assert classify(f1).stieltjes == "PD"
    assert classify(f2).stieltjes == "PD"
    assert classify(f2).hankel == "PD"


def test_classify_negative_and_boundary():
    assert classify(sequence([1.0, -1.0])).stieltjes == "NO"
    cls = classify(sequence([0.0, 0.0]))
    assert cls.stieltjes in ("NND", "NND_EXTENDABLE")
    assert cls.stieltjes != "PD"


def test_classify_nnd_extendable_distinction():
    # rank-1 moment chain: NND and extendable (measure = point mass at 1)
    cls = classify(sequence([1.0, 1.0, 1.0]))
    assert cls.stieltjes == "NND_EXTENDABLE"
    # solvable for the <=-problem but not extendable: kernel chain breaks
    # only at the last step
    cls = classify(sequence([0.0, 1.0]))
    assert cls.stieltjes == "NND"
    # kernel chain broken inside: not solvable at all
    cls = classify(sequence([0.0, 1.0, 1.0]))
    assert cls.stieltjes == "NO"


def test_classify_non_hermitian_moments():
    s = sequence([np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2)])
    cls = classify(s)
    assert cls.hankel == "NO" and cls.stieltjes == "NO"


def test_classify_reflect_same_class():
    for i in range(8):
        s = ladder_fixture(i)
        cs, ct = classify(s), classify(reflect(s))
        assert cs.stieltjes == ct.stieltjes
        assert cs.side != ct.side


def test_structural_kit_shapes():
    q, n = 2, 3
    t = block_shift(q, n)
    assert np.linalg.norm(np.linalg.matrix_power(t, n + 1)) == 0
    r = resolvent_R(q, n, 1.7)
    np.testing.assert_allclose(r @ (np.eye((n + 1) * q) - 1.7 * t),
                               np.eye((n + 1) * q), atol=1e-12)
    np.testing.assert_allclose(r @ first_block_column(q, n), column_E(q, n, 1.7),
                               atol=1e-12)


def test_kit_identities_on_random_fixture():
    # R_n(z) y = S_n E_n(z), R_n(z) u_shift = Shat E_n(z)
    from stieltjesmp.moments import lower_triangular_S, shat_matrix, y_stack
    rng = np.random.default_rng(11)
    for i in (0, 3, 5):
        s = ladder_fixture(i)
        n = half(s.kappa)
        for _ in range(4):
            z = complex(rng.standard_normal(), rng.standard_normal())
            r = resolvent_R(s.q, n, z)
            e = column_E(s.q, n, z)
            y = y_stack(s, 0, n)
            np.testing.assert_allclose(r @ y, lower_triangular_S(s, n) @ e,
                                       atol=1e-9 * (1 + np.linalg.norm(y)))
            np.testing.assert_allclose(r @ u_shift_vector(s, n), shat_matrix(s, n) @ e,
                                       atol=1e-9 * (1 + np.linalg.norm(y)))


def test_coupling_identity():
    # v_n z_{0,n} = R_n^{-1}(alpha) H_n - T_n H_shift_n on right-side fixtures
    for i in (0, 2, 4):
        s = ladder_fixture(i)
        if s.side != "right":
            continue
        pack = HankelPack(s)
        n = half(s.kappa - 1)
        q = s.q
        lhs = first_block_column(q, n) @ pack.z(0, n)
        r_inv = np.eye((n + 1) * q) - s.alpha * block_shift(q, n)
        rhs = r_inv @ pack.h(n) - block_shift(q, n) @ pack.h_shift(n)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9 * (1 + np.linalg.norm(rhs)))


def test_potapov_defect_fixture(f1):
    # the two extremal transforms of F1 pass, junk values fail
    for s_fun in (lambda z: 1.0 / (1.0 - z), lambda z: -1.0 / z):
        for z in (1j, 2j, -1 + 0.5j):
            val = np.array([[s_fun(z)]])
            assert potapov_defect_psd(f1, val, z)
    assert not potapov_defect_psd(f1, np.array([[0.0]]), 1j)


def test_potapov_defect_rejects_real_z(f1):
    with pytest.raises(ValueError):
        potapov_defect_psd(f1, np.array([[1.0]]), 0.5)


def test_derived_objects_are_cached():
    s = ladder_fixture(3)
    for build in (classify, stieltjes_param, ds_param, dyukarev_quadruple,
                  stieltjes_quadruple):
        assert build(s) is build(s)
    for pack in (s.pack, s.pack.shift):
        for n in range(half(pack.seq.kappa) + 1):
            assert pack.h_inv(n) is pack.h_inv(n)


def test_cached_arrays_are_read_only():
    # a sequence of its own: where a write succeeds it must not reach shared fixtures
    s = random_stieltjes_pd_sequence(q=2, kappa=4, alpha=0.5, seed=2)
    arrays = list(s.moments) + list(stieltjes_param(s).values)
    d = ds_param(s)
    arrays += list(d.l) + list(d.m)
    arrays += [s.pack.h_inv(n) for n in range(3)] + [s.pack.shift.h_inv(n) for n in range(2)]
    dq, quad = dyukarev_quadruple(s), stieltjes_quadruple(s)
    for family in (dq.a, dq.b, dq.c, dq.d, quad.p, quad.second, quad.p_shift, quad.phat):
        for poly in family:
            arrays += list(poly.coeffs)
    for a in arrays:
        with pytest.raises(ValueError):
            a[0, 0] = 0.0


def test_sequence_keeps_its_own_copy():
    mats = [np.array([[v]], dtype=complex) for v in (1.0, 1.0, 2.0)]
    s = sequence(mats)
    for m in mats:
        m[0, 0] = -7.0
    np.testing.assert_allclose([v.item() for v in stieltjes_param(s).values], [1, 1, 1])
    np.testing.assert_allclose([v.item() for v in ds_param(s).m], [1, 1])
    assert classify(s).stieltjes == "PD"


def test_sequence_equality_is_identity():
    s = random_stieltjes_pd_sequence(q=2, kappa=3, seed=1)
    t = random_stieltjes_pd_sequence(q=2, kappa=3, seed=1)
    assert all(np.array_equal(a, b) for a, b in zip(s.moments, t.moments))
    assert {s: "s"}[s] == "s"
    assert s == s and hash(s) == hash(s)
    assert s != t and not s == t
