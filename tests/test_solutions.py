import numpy as np
import pytest

from stieltjesmp import (
    CONSTANT, SCHUR_CONSTANT, SingularDenominator, StieltjesPair,
    difference_inverse, extremal, hermitize, interval_point, is_psd,
    lft_solve, lft_solve_schur, pair_max, pair_min, potapov_defect_psd,
    random_stieltjes_pd_sequence, reflect, reflect_solution, resolvent_u, sequence,
    sigma, weyl_interval,
)
from stieltjesmp.linalg import min_eig_hermitian_part

from conftest import ladder_fixture, rel_err


def random_constant_pair(q, side, rng):
    """Admissible constant pair: psi = I, phi = +/- PSD."""
    g = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
    w = g @ g.conj().T + 0.05 * np.eye(q)
    phi = w if side == "right" else -w
    return StieltjesPair(kind=CONSTANT, side=side, phi=phi, psi=np.eye(q))


def test_pair_validation():
    with pytest.raises(ValueError):
        StieltjesPair(kind=CONSTANT, phi=np.zeros((2, 2)), psi=np.zeros((2, 2)))
    with pytest.raises(ValueError):     # psi^* phi not Hermitian
        StieltjesPair(kind=CONSTANT, phi=np.array([[1j]]), psi=np.array([[1.0]]))
    with pytest.raises(ValueError):     # wrong sign for the right half-line
        StieltjesPair(kind=CONSTANT, phi=-np.eye(1), psi=np.eye(1))
    with pytest.raises(ValueError):     # not unitary
        StieltjesPair(kind=SCHUR_CONSTANT, f=2 * np.eye(1))
    ok = StieltjesPair(kind=SCHUR_CONSTANT, f=np.eye(1))
    phi, psi = ok.values()
    np.testing.assert_allclose(phi, 0)
    np.testing.assert_allclose(psi, 2 * np.eye(1))


def test_lft_fixture_values(f1):
    u = resolvent_u(f1)
    z = 0.2 + 0.9j
    np.testing.assert_allclose(lft_solve(u, pair_min(1), z), [[1 / (1 - z)]], atol=1e-13)
    np.testing.assert_allclose(lft_solve(u, pair_max(1), 2j), [[-1 / 2j]], atol=1e-13)
    schur = StieltjesPair(kind=SCHUR_CONSTANT, f=np.eye(1))
    np.testing.assert_allclose(lft_solve(u, schur, z), [[1 / (1 - z)]], atol=1e-13)


def test_lft_rejects_cut_points(f1):
    u = resolvent_u(f1)
    with pytest.raises(ValueError):
        lft_solve(u, pair_min(1), 2.0)     # on [0, inf)


def test_lft_singular_denominator():
    # (I, 0) pair hits det C = 0 exactly at the base point boundary x -> alpha
    s = sequence([1.0, 1.0])
    u = resolvent_u(s)
    with pytest.raises((SingularDenominator, ValueError)):
        lft_solve(u, pair_max(1), 0.0)


def test_extremal_fixture_values(f1, f2):
    s_min, s_max = extremal(f1)
    for z in (-1.0, 0.3 + 0.7j, -2.5):
        np.testing.assert_allclose(s_min(z), [[1 / (1 - z)]], atol=1e-12)
        np.testing.assert_allclose(s_max(z), [[-1 / z]], atol=1e-12)
    s_min, s_max = extremal(f2)
    for z in (-1.0, 0.4 + 0.3j):
        np.testing.assert_allclose(s_min(z), [[1 / (1 - z)]], atol=1e-12)
        np.testing.assert_allclose(s_max(z), [[(1 - z) / (z * z - 2 * z)]], atol=1e-12)


def test_extremal_on_an_array_matches_the_scalar_loop():
    grid = np.array([-1.0, -0.2, 0.3 + 0.7j, 2.5 - 1.1j, -3.0 + 0.01j])
    for q, kappa in ((1, 4), (3, 3)):
        s = random_stieltjes_pd_sequence(q=q, kappa=kappa, alpha=0.5, seed=7)
        for ext in extremal(s):
            stack = ext(grid)
            assert stack.shape == (len(grid), q, q)
            for k, z in enumerate(grid):
                want = ext(z)
                assert np.linalg.norm(stack[k] - want) <= 1e-13 * np.linalg.norm(want)


def test_extremal_routes_agree():
    rng = np.random.default_rng(21)
    for i in range(10):
        s = ladder_fixture(i)
        s_min, s_max = extremal(s)
        for _ in range(5):
            z = complex(rng.standard_normal(), rng.standard_normal() + 1e-3)
            assert s_min.route_spread(z) < 1e-8 * (1 + np.linalg.norm(s_min(z)))
            assert s_max.route_spread(z) < 1e-8 * (1 + np.linalg.norm(s_max(z)))


def test_weyl_interval_fixtures(f1, f2):
    iv = weyl_interval(f1, 1, -1.0)
    np.testing.assert_allclose(iv.lower, [[0.5]], atol=1e-12)
    np.testing.assert_allclose(iv.upper, [[1.0]], atol=1e-12)
    iv = weyl_interval(f2, 2, -1.0)
    np.testing.assert_allclose(iv.lower, [[0.5]], atol=1e-12)
    np.testing.assert_allclose(iv.upper, [[2 / 3]], atol=1e-12)
    iv = weyl_interval(f1, 1, -3.0)
    np.testing.assert_allclose(iv.lower, [[0.25]], atol=1e-12)
    np.testing.assert_allclose(iv.upper, [[1 / 3]], atol=1e-12)


def test_extremal_truncation_index(f1, f2):
    # truncating the data at m = 1 reproduces the shorter problem exactly
    s_min_f1, s_max_f1 = extremal(f1)
    s_min_cut, s_max_cut = extremal(f2, 1)
    for z in (-1.0, 0.3 + 0.8j):
        np.testing.assert_allclose(s_min_cut(z), s_min_f1(z), atol=1e-12)
        np.testing.assert_allclose(s_max_cut(z), s_max_f1(z), atol=1e-12)
    with pytest.raises(ValueError):
        extremal(f2, 5)


def test_weyl_interval_wrong_side(f1):
    with pytest.raises(ValueError):
        weyl_interval(f1, 1, 0.5)


def test_ordering_random_pairs():
    rng = np.random.default_rng(22)
    for i in range(8):
        s = ladder_fixture(i)
        u = resolvent_u(s)
        s_min, s_max = extremal(s)
        xs = s.alpha - np.abs(rng.uniform(0.4, 3.0, 3)) if s.side == "right" \
            else s.alpha + np.abs(rng.uniform(0.4, 3.0, 3))
        for _ in range(6):
            pair = random_constant_pair(s.q, s.side, rng)
            for x in xs:
                val = hermitize(lft_solve(u, pair, complex(x)))
                lo, hi = hermitize(s_min(complex(x))), hermitize(s_max(complex(x)))
                assert min_eig_hermitian_part(val - lo) > -1e-8
                assert min_eig_hermitian_part(hi - val) > -1e-8
                assert min_eig_hermitian_part(hi - lo) > 0


def test_solution_values_definite_off_cut():
    # PD left of alpha on the right line; negative definite right of alpha
    # on the left line
    for i in (0, 1, 2, 3):
        s = ladder_fixture(i)
        s_min, s_max = extremal(s)
        sign = 1.0 if s.side == "right" else -1.0
        xs = [s.alpha - sign * d for d in (0.5, 1.5, 4.0)]
        for x in xs:
            assert is_psd(sign * hermitize(s_min(complex(x))))
            assert is_psd(sign * hermitize(s_max(complex(x))))


def test_interval_point_endpoints_and_midpoint(f1):
    t, pair = interval_point(f1, 1, -1.0, np.zeros((1, 1)))
    np.testing.assert_allclose(t, [[1.0]], atol=1e-12)
    t, pair = interval_point(f1, 1, -1.0, np.eye(1))
    np.testing.assert_allclose(t, [[0.5]], atol=1e-12)
    t, pair = interval_point(f1, 1, -1.0, 0.5 * np.eye(1))
    np.testing.assert_allclose(t, [[0.75]], atol=1e-12)
    u = resolvent_u(f1)
    np.testing.assert_allclose(lft_solve(u, pair, -1.0), [[0.75]], atol=1e-10)


def test_interval_point_pair_reproduces_value():
    rng = np.random.default_rng(23)
    for i in range(8):
        s = ladder_fixture(i)
        x = s.alpha - 1.0 if s.side == "right" else s.alpha + 1.0
        q = s.q
        w, _ = np.linalg.qr(rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q)))
        k = w @ np.diag(rng.uniform(0.1, 0.9, q)) @ w.conj().T
        t, pair = interval_point(s, s.kappa, x, k)
        assert pair is not None
        u = resolvent_u(s)
        val = lft_solve(u, pair, complex(x))
        assert rel_err(val, t) < 1e-8


def test_interval_point_monotone_in_k(f2):
    vals = []
    for c in (0.0, 0.25, 0.5, 0.75, 1.0):
        t, _ = interval_point(f2, 2, -1.0, c * np.eye(1))
        vals.append(t.item().real)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_difference_inverse_fixtures(f1, f2):
    z = 0.3 + 0.2j
    np.testing.assert_allclose(difference_inverse(f1, 1, z), [[-z + z * z]], atol=1e-13)
    np.testing.assert_allclose(difference_inverse(f2, 2, -1.0), [[6.0]], atol=1e-12)
    np.testing.assert_allclose(difference_inverse(f1, 1, 0.0), [[0.0]], atol=1e-13)


def test_difference_inverse_matches_direct():
    rng = np.random.default_rng(24)
    for i in range(10):
        s = ladder_fixture(i)
        s_min, s_max = extremal(s)
        for _ in range(4):
            z = complex(rng.standard_normal(), rng.standard_normal() + 1e-2)
            gap = s_max(z) - s_min(z)
            got = difference_inverse(s, s.kappa, z)
            want = np.linalg.inv(gap)
            assert rel_err(got, want) < 1e-8


def test_reflect_solution_duality(f1, f3):
    s_min1, s_max1 = extremal(f1)
    s_min3, s_max3 = extremal(f3)
    mirrored_min = reflect_solution(s_min1)     # becomes the left upper extremal
    mirrored_max = reflect_solution(s_max1)
    for z in (2.0, 0.5 + 0.8j, 4.0):
        np.testing.assert_allclose(mirrored_min(z), s_max3(z), atol=1e-12)
        np.testing.assert_allclose(mirrored_max(z), s_min3(z), atol=1e-12)
        np.testing.assert_allclose(reflect_solution(mirrored_min)(z), s_min1(z), atol=1e-12)


def test_extremal_duality_on_ladder():
    for i in range(8):
        s = ladder_fixture(i)
        t = reflect(s)
        s_min, s_max = extremal(s)
        t_min, t_max = extremal(t)
        for z in (0.3 + 0.9j, -1.2 + 0.5j):
            assert rel_err(-s_max(-z), t_min(z)) < 1e-9
            assert rel_err(-s_min(-z), t_max(z)) < 1e-9


def test_schur_route_matches_extremals():
    for i in range(8):
        s = ladder_fixture(i)
        sig = sigma(s)
        s_min, s_max = extremal(s)
        eye = np.eye(s.q)
        z = s.alpha - 0.9 if s.side == "right" else s.alpha + 0.9
        for f, ref in ((eye, s_min), (-eye, s_max)):
            got = lft_solve_schur(sig, f, complex(z), s.q)
            assert rel_err(got, ref(complex(z))) < 1e-9


def test_solutions_pass_potapov_criterion():
    # right solutions certify on the upper half-plane, left ones on the lower
    rng = np.random.default_rng(25)
    for i in (0, 1, 4, 5):
        s = ladder_fixture(i)
        flip = 1.0 if s.side == "right" else -1.0
        u = resolvent_u(s)
        s_min, s_max = extremal(s)
        pairs = [pair_min(s.q, s.side), pair_max(s.q, s.side)] \
            + [random_constant_pair(s.q, s.side, rng) for _ in range(3)]
        for pair in pairs:
            for _ in range(3):
                z = complex(rng.standard_normal(), flip * (abs(rng.standard_normal()) + 0.2))
                val = lft_solve(u, pair, z)
                assert potapov_defect_psd(s, val, z)
        for z0 in (0.5 + 1j, -1 + 2j):
            z = complex(z0.real, flip * z0.imag)
            assert potapov_defect_psd(s, s_min(z), z)
            assert potapov_defect_psd(s, s_max(z), z)
