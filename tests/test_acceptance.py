"""Acceptance gate: ten property-based criteria at desk scale.

Each test prints one PASS line (run with ``pytest -s`` to see them all);
tolerances are pinned here and nowhere else.  Shared fixtures are the 50
seeded ladder sequences from conftest plus the scalar hand fixtures.
"""

import numpy as np

import stieltjesmp as smp
from stieltjesmp.linalg import hermitize, min_eig_hermitian_part
from stieltjesmp.moments import half, hankel, hhats

from conftest import (
    alternating_signs, ds_increments, hankel_u, ladder_fixture, quadruple_u, rel_err,
    seq_rel_err,
)

N_FIXTURES = 50

_derived = {}


def derived(i):
    """Fixture i with its resolvent machinery, built once."""
    if i not in _derived:
        s = ladder_fixture(i)
        _derived[i] = {
            "seq": s,
            "u": smp.resolvent_u(s),
            "chain": smp.factorize_u(s),
            "u_hankel": hankel_u(s),
            "uq": quadruple_u(s, s.kappa),
        }
    return _derived[i]


def _passed(n, text):
    print(f"ACCEPTANCE {n:2d} PASS: {text}")


def random_pair(q, side, rng):
    g = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
    w = g @ g.conj().T + 0.05 * np.eye(q)
    return smp.StieltjesPair(kind=smp.CONSTANT, side=side,
                             phi=w if side == "right" else -w, psi=np.eye(q))


def test_criterion_01_scalar_fixtures():
    tol = 1e-12
    f1 = smp.sequence([1.0, 1.0])
    f2 = smp.sequence([1.0, 1.0, 2.0])

    assert np.allclose([v.item() for v in smp.stieltjes_param(f1).values], [1, 1], atol=tol)
    assert np.allclose([v.item() for v in smp.stieltjes_param(f2).values], [1, 1, 1], atol=tol)
    d1, d2 = smp.ds_param(f1), smp.ds_param(f2)
    assert np.allclose([v.item() for v in d1.l] + [v.item() for v in d1.m], [1, 1], atol=tol)
    assert np.allclose([v.item() for v in d2.l] + [v.item() for v in d2.m], [1, 1, 1], atol=tol)

    u1, u2 = smp.resolvent_u(f1), smp.resolvent_u(f2)
    rng = np.random.default_rng(1)
    for _ in range(10):
        z = complex(rng.standard_normal(), rng.standard_normal())
        assert np.abs(u1(z) - np.array([[1, 1], [-z, 1 - z]])).max() < tol
        assert np.abs(u2(z) - np.array([[1 - z, 1], [z * z - 2 * z, 1 - z]])).max() < tol
        assert abs(np.linalg.det(u1(z)) - 1.0) < tol
        assert abs(np.linalg.det(u2(z)) - 1.0) < tol

    smin1, smax1 = smp.extremal(f1)
    smin2, smax2 = smp.extremal(f2)
    for _ in range(10):
        z = complex(rng.standard_normal() - 2.0, rng.standard_normal())
        assert abs(smin1(z).item() - 1 / (1 - z)) < tol
        assert abs(smax1(z).item() - (-1 / z)) < tol
        assert abs(smin2(z).item() - 1 / (1 - z)) < tol
        assert abs(smax2(z).item() - (1 - z) / (z * (z - 2))) < tol

    iv1 = smp.weyl_interval(f1, 1, -1.0)
    iv2 = smp.weyl_interval(f2, 2, -1.0)
    assert abs(iv1.lower.item() - 0.5) < tol and abs(iv1.upper.item() - 1.0) < tol
    assert abs(iv2.lower.item() - 0.5) < tol and abs(iv2.upper.item() - 2 / 3) < tol
    _passed(1, "scalar fixtures reproduce Q, (L, M), U, extremals, Weyl intervals to 1e-12")


def test_criterion_02_roundtrips():
    tol = 1e-9
    for i in range(N_FIXTURES):
        s = derived(i)["seq"]
        p = smp.stieltjes_param(s)
        assert seq_rel_err(s, smp.seq_from_stieltjes_param(p)) < tol
        ch = smp.canonical_hankel_param(s)
        assert seq_rel_err(s, smp.seq_from_canonical(ch, q=s.q, alpha=s.alpha,
                                                     side=s.side)) < tol
        d = smp.ds_param(s)
        assert seq_rel_err(s, smp.seq_from_ds(d)) < tol
        # ds_param is ds_from_q of Q; the Hankel-inverse increments check it
        for t in (s, smp.reflect(s)):
            d2, d_ref = smp.ds_param(t), ds_increments(t)
            for a, b in zip(list(d2.l) + list(d2.m), list(d_ref.l) + list(d_ref.m)):
                assert rel_err(a, b) < tol
        p2 = smp.q_from_ds(d)
        for a, b in zip(p.values, p2.values):
            assert rel_err(a, b) < tol
    _passed(2, f"{N_FIXTURES} fixtures and reflections: seq<->Q, seq<->(C,D), seq<->(L,M), "
               "Q->(L,M) against the Hankel increments, (L,M)->Q within 1e-9")


def test_criterion_03_resolvent_invariants():
    rng = np.random.default_rng(3)
    for i in range(N_FIXTURES):
        d = derived(i)
        s, u, chain, u_hankel = d["seq"], d["u"], d["chain"], d["u_hankel"]
        det_ref = np.linalg.det(u(s.alpha))
        for _ in range(20):
            z = complex(rng.standard_normal(), rng.standard_normal())
            uz, hz = u(z), u_hankel(z)
            assert abs(np.linalg.det(uz) - det_ref) <= 1e-10 * (1 + abs(det_ref))
            # U is the chain's product, so the chain is held to the moment-polynomial U
            assert np.linalg.norm(chain(z) - hz) <= 1e-10 * np.linalg.norm(hz)
            ui = np.linalg.inv(uz)
            assert np.linalg.norm(ui - u.inverse_at(z)) <= 1e-9 * np.linalg.norm(ui)
        samples = [complex(rng.standard_normal(), abs(rng.standard_normal()) + 0.05)
                   for _ in range(10)]
        report = smp.j_inner_check(u, samples, s.q)
        assert report.min_upper_eig >= -1e-9
    _passed(3, "det U constant (1e-10), J-symmetry of U^{-1} (1e-9), "
               "defect PSD on the upper half-plane (1e-9), factor chain vs moment-polynomial U (1e-10)")


def test_criterion_04_construction_path_equivalence():
    rng = np.random.default_rng(4)
    for i in range(N_FIXTURES):
        d = derived(i)
        u, uq = d["u"], d["uq"]
        for _ in range(8):
            z = complex(rng.standard_normal(), rng.standard_normal())
            uz = u(z)
            assert np.linalg.norm(uq(z) - uz) <= 1e-9 * np.linalg.norm(uz)
    _passed(4, "resolvent blocks agree with the orthogonal-quadruple route within 1e-9")


def test_criterion_05_solution_semantics():
    rng = np.random.default_rng(5)
    pair_budget = 30
    fixtures = list(range(10))
    for i in fixtures:
        d = derived(i)
        s, u = d["seq"], d["u"]
        flip = 1.0 if s.side == "right" else -1.0
        pairs = [smp.pair_min(s.q, s.side), smp.pair_max(s.q, s.side)]
        pairs += [random_pair(s.q, s.side, rng) for _ in range(pair_budget // len(fixtures))]
        for pair in pairs:
            for _ in range(5):
                z = complex(rng.standard_normal(),
                            flip * (abs(rng.standard_normal()) + 0.2))
                val = smp.lft_solve(u, pair, z)
                assert smp.potapov_defect_psd(s, val, z)
        # moment closure of the extremal measures
        for mu in (smp.recover_min(s), smp.recover_max(s)):
            moms = smp.measure_moments(mu, s.kappa)
            for j in range(s.kappa):
                assert rel_err(moms[j], s[j]) < 1e-8
            slack = s[s.kappa] - moms[s.kappa]
            if s.side == "left" and s.kappa % 2 == 1:
                slack = -slack   # odd left problems are >=-problems
            lam = min_eig_hermitian_part(hermitize(slack))
            assert lam >= -1e-8 * (1 + np.linalg.norm(s[s.kappa]))
    _passed(5, "defect PSD for extremal and 30 random pairs; extremal measures "
               "close the moments to 1e-8 with Loewner slack >= -1e-8")


def test_criterion_06_ordering():
    rng = np.random.default_rng(6)
    pair_total = 0
    for i in range(10):
        d = derived(i)
        s, u = d["seq"], d["u"]
        s_min, s_max = smp.extremal(s)
        sign = 1.0 if s.side == "right" else -1.0
        xs = [s.alpha - sign * t for t in rng.uniform(0.3, 3.0, 5)]
        for _ in range(5):
            pair = random_pair(s.q, s.side, rng)
            pair_total += 1
            for x in xs:
                val = hermitize(smp.lft_solve(u, pair, complex(x)))
                lo = hermitize(s_min(complex(x)))
                hi = hermitize(s_max(complex(x)))
                assert min_eig_hermitian_part(val - lo) >= -1e-8
                assert min_eig_hermitian_part(hi - val) >= -1e-8
                assert min_eig_hermitian_part(hi - lo) > 0
        for x in xs[:2]:
            gap = hermitize(s_max(complex(x)) - s_min(complex(x)))
            got = smp.difference_inverse(s, s.kappa, complex(x))
            want = np.linalg.inv(gap)
            assert rel_err(got, want) < 1e-8
    assert pair_total == 50
    _passed(6, "50 pairs x 5 points ordered between the extremals (1e-8); "
               "difference-inverse formula matches direct inversion (1e-8)")


def test_criterion_07_zero_localization():
    for i in range(N_FIXTURES):
        s = derived(i)["seq"]
        quad = smp.stieltjes_quadruple(s)
        dq = smp.dyukarev_quadruple(s)
        families = list(quad.p[1:]) + list(quad.second[1:]) \
            + list(quad.p_shift[1:]) + list(quad.phat) \
            + list(dq.b[1:]) + list(dq.d[1:])
        for poly in families:
            if poly.degree < 1:
                continue
            zs = smp.det_zeros(poly)
            assert np.all(np.abs(zs.imag) <= 1e-7 * (1 + np.abs(zs.real)))
            if s.side == "right":
                assert np.all(zs.real > s.alpha)
            else:
                assert np.all(zs.real < s.alpha)
    _passed(7, "determinant zeros of all polynomial families are real and "
               "confined to the open support half-line")


def test_criterion_08_duality():
    tol = 1e-10
    rng = np.random.default_rng(8)
    for i in range(N_FIXTURES):
        s = derived(i)["seq"]
        t = smp.reflect(s)
        # Hankel conjugation and Schur-complement invariance
        n = half(s.kappa)
        v = alternating_signs(s.q, n)
        assert rel_err(hankel(t, n), v @ hankel(s, n) @ v.conj().T) < tol
        assert rel_err(hhats(t)[0][n], hhats(s)[0][n]) < tol
        # parameter dualities
        for a, b in zip(smp.stieltjes_param(s).values, smp.stieltjes_param(t).values):
            assert rel_err(a, b) < tol
        ds_s, ds_t = smp.ds_param(s), smp.ds_param(t)
        for a, b in zip(list(ds_s.l) + list(ds_s.m), list(ds_t.l) + list(ds_t.m)):
            assert rel_err(a, b) < tol
        # resolvent conjugation and extremal swap
        us, ut = derived(i)["u"], smp.resolvent_u(t)
        v1 = alternating_signs(s.q, 1)
        s_min, s_max = smp.extremal(s)
        t_min, t_max = smp.extremal(t)
        for _ in range(4):
            z = complex(rng.standard_normal(), rng.standard_normal())
            assert rel_err(ut(-z), v1 @ us(z) @ v1.conj().T) < tol
            assert rel_err(t_min(z), -s_max(-z)) < tol
            assert rel_err(t_max(z), -s_min(-z)) < tol
    _passed(8, "reflection dualities for Hankel blocks, Q, (L, M), U and the "
               "extremals hold within 1e-10")


def test_criterion_09_schur_route():
    rng = np.random.default_rng(9)
    for i in range(N_FIXTURES):
        s = derived(i)["seq"]
        u, e = smp.resolvent_u(s), smp.schur_rotation(s.q, s.side)
        s_min, s_max = smp.extremal(s)
        eye = np.eye(s.q)
        pair_i, pair_minus_i = (smp.StieltjesPair(kind=smp.SCHUR_CONSTANT, side=s.side, f=f)
                                for f in (eye, -eye))
        sign = 1.0 if s.side == "right" else -1.0
        for t in rng.uniform(0.3, 2.5, 3):
            z = complex(s.alpha - sign * t)
            got_min = smp.lft_solve(u, pair_i, z)
            got_max = smp.lft_solve(u, pair_minus_i, z)
            assert np.linalg.norm(got_min - s_min(z)) <= 1e-10 * (1 + np.linalg.norm(s_min(z)))
            assert np.linalg.norm(got_max - s_max(z)) <= 1e-10 * (1 + np.linalg.norm(s_max(z)))
        jqq = smp.signature_matrix(smp.JQQ, s.q)
        jt = smp.signature_matrix(smp.JTILDE, s.q)
        for _ in range(4):
            sig = u(rng.standard_normal()) @ e
            defect = jqq - sig.conj().T @ jt @ sig
            assert np.linalg.norm(defect) <= 1e-9 * (1 + np.linalg.norm(sig) ** 2)
    _passed(9, "Schur rotation: F = I/-I through a Schur pair reproduce the extremals "
               "(1e-10) and U E is j_qq-Jtilde-unitary on the real axis (1e-9)")


def test_criterion_10_hausdorff_bridge():
    rng = np.random.default_rng(10)
    checked = 0
    for trial in range(20):
        q = int(rng.integers(1, 4))
        n = int(rng.integers(0, 3))
        kappa = 2 * n + 1
        mats = []
        for _ in range(kappa + 1):
            g = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
            h = 0.5 * (g + g.conj().T)
            mats.append(h + (2.0 - trial % 4) * np.eye(q))
        s = smp.sequence(mats, alpha=0.0)
        rep = smp.hausdorff_solvable(s, 0.0, 1.0)
        assert rep.parity == "odd" and rep.one_sided is not None
        assert rep.solvable == (rep.one_sided["right"] and rep.one_sided["left"])
        checked += 1
    assert checked == 20
    _passed(10, "odd-case interval solvability equals the conjunction of the "
                "two one-sided verdicts on 20 random sequences")
