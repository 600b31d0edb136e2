import numpy as np
import pytest

from stieltjesmp import (
    CONSTANT, SCHUR_CONSTANT, MatrixPolynomial, ResolventU, SingularDenominator, StieltjesPair,
    difference_inverse, dyukarev_quadruple, extremal, hermitize, interval_point, is_psd,
    lft_solve, lft_solve_schur, pair_max, pair_min, potapov_defect_psd,
    random_stieltjes_pd_sequence, reflect, resolvent_u, sequence,
    side_sign, sigma, stieltjes_quadruple, weyl_interval,
)
from stieltjesmp.linalg import min_eig_hermitian_part
from stieltjesmp.moments import half, hankel, y_stack

from conftest import (
    block_shift, difference_inverse_closed, first_block_column, ladder_fixture, lft_blocks,
    lft_solve_det, lm_draw, random_fixture, rel_err,
)


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


def test_pair_equality_is_identity():
    # the fields are arrays: value equality raised ValueError at q = 2 and
    # hashing raised TypeError
    a, b = pair_min(2), pair_min(2)
    assert {a: "a"}[a] == "a"
    assert a == a and hash(a) == hash(a)
    assert a != b and not a == b


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
    # det C = 0 for the (I, 0) pair at z = 0 = alpha, but that point is on
    # the cut: the cut ValueError fires before any denominator test.  The
    # two tests below reach SingularDenominator off the cut.
    s = sequence([1.0, 1.0])
    u = resolvent_u(s)
    with pytest.raises((SingularDenominator, ValueError)):
        lft_solve(u, pair_max(1), 0.0)


def test_lft_exactly_singular_denominator_off_the_cut():
    # U(z) = [[1, 1], [0, z - i]]: with the pair (0, 1) the denominator is
    # z - i, exactly zero at z = i, where inv itself fails
    coeffs = np.array([[[1, 1], [0, -1j]], [[0, 0], [0, 1]]], dtype=complex)
    u = ResolventU(m=1, side="right", alpha=0.0, q=1, poly=MatrixPolynomial(coeffs))
    with pytest.raises(SingularDenominator):
        lft_solve(u, pair_min(1), 1j)
    np.testing.assert_allclose(lft_solve(u, pair_min(1), 2j), [[-1j]], atol=1e-15)


def test_lft_next_to_an_atom_is_a_singular_denominator():
    # the pair of an extremal has a singular denominator at each of its atoms;
    # 1e-15 above the atom, off the cut, |det D| is still below the threshold
    s = ladder_fixture(3)
    u = resolvent_u(s)
    pairs = (pair_min(s.q, s.side), pair_max(s.q, s.side))
    for ext, pair in zip(extremal(s), pairs if s.side == "right" else pairs[::-1]):
        for x in ext.atoms:
            with pytest.raises(SingularDenominator):
                lft_solve(u, pair, complex(x, 1e-15))


def test_lft_matches_the_determinant_oracle():
    # the certified inverse against det and inv of the same denominator: the
    # same decision away from the threshold, the same value wherever both return
    rng = np.random.default_rng(14)
    offsets = [0.0] + [sign * 10.0 ** -k for k in range(2, 17) for sign in (1, -1)]
    for i in range(10):
        for s in (ladder_fixture(i), reflect(ladder_fixture(i))):
            u = resolvent_u(s)
            pairs = [pair_min(s.q, s.side), pair_max(s.q, s.side),
                     StieltjesPair(kind=SCHUR_CONSTANT, side=s.side,
                                   f=np.diag(np.exp(1j * rng.uniform(0.1, 3.0, s.q))))] \
                + [random_constant_pair(s.q, s.side, rng) for _ in range(3)]
            atoms = np.concatenate([ext.atoms for ext in extremal(s)])
            points = {complex(x + d) for x in atoms for d in offsets} \
                | {complex(x, d) for x in atoms for d in offsets}
            for pair in pairs:
                for z in points:
                    got = _outcome(lft_solve, u, pair, z)
                    want = _outcome(lft_solve_det, u, pair, z)
                    if isinstance(got, np.ndarray) and isinstance(want, np.ndarray):
                        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), \
                            (i, s.side, z)
                    elif got is not want:
                        _, _, det, threshold = lft_blocks(u, pair, z)
                        assert 0.5 <= det / threshold <= 2.0, (i, s.side, z)


def _outcome(solve, u, pair, z):
    """The value, or the type of the error raised."""
    try:
        return solve(u, pair, z)
    except ValueError as exc:
        return type(exc)


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


def test_extremal_at_an_atom_is_a_singular_denominator(f1):
    # every atom of the cached rule, the free end's exact atom at alpha among them
    for s in (f1, ladder_fixture(3), ladder_fixture(4)):
        for ext in extremal(s):
            assert ext.bd or s.alpha in ext.atoms
            for x in ext.atoms:
                with pytest.raises(SingularDenominator):
                    ext(x)
                with pytest.raises(SingularDenominator):
                    ext(np.array([s.alpha + 2j, x]))


# Oracle routes to the extremals, none of which goes through (L, M): the
# Dyukarev quadruple ratio, the resolvent-pencil closed forms of the Hankel
# blocks and the orthogonal-polynomial quotient.

def _pencil_y(seq, m: int):
    """Closed form y^* [Hshift - (z-a) H]^{-1} y of the B D^{-1} extremal
    (left half-line: y^* [(a-z) H - Hshift]^{-1} y), at index half(m-1)."""
    a = seq.alpha
    n = half(m - 1)
    h, h_sh, y = hankel(seq, n), hankel(seq.shifted, n), y_stack(seq, 0, n)

    def pencil(z):
        if seq.side == "right":
            return y.conj().T @ np.linalg.inv(h_sh - (z - a) * h) @ y
        return y.conj().T @ np.linalg.inv((a - z) * h - h_sh) @ y
    return pencil


def _pencil_v(seq, m: int):
    """Closed form of the A C^{-1} extremal through the corner-padded
    shifted Hankel block at index half(m)."""
    q, a = seq.q, seq.alpha
    n = half(m)
    t = block_shift(q, n)
    v = first_block_column(q, n)
    r_alpha_inv = np.eye((n + 1) * q) - a * t
    if 2 * n == m:
        sh = seq.shifted
        pad = np.zeros(((n + 1) * q, (n + 1) * q), dtype=complex)
        if n >= 1:
            pad[:n * q, :n * q] = hankel(sh, n - 1)
            pad[:n * q, n * q:] = np.vstack([sh[j] for j in range(n, 2 * n)])
            pad[n * q:, :n * q] = np.hstack([sh[j] for j in range(n, 2 * n)])
        h_sh = pad
    else:
        h_sh = hankel(seq.shifted, n)
    core = t @ h_sh @ t.conj().T
    hh = r_alpha_inv @ hankel(seq, n) @ r_alpha_inv.conj().T
    right = seq.side == "right"

    def pencil(z):
        w = (z - a) if right else (a - z)
        mat = core - hh / w
        return (1.0 if right else -1.0) * np.linalg.inv(v.conj().T @ np.linalg.inv(mat) @ v)
    return pencil


def _quotient(seq, m: int, bd: bool):
    """Orthogonal-polynomial quotient of the conjugated families."""
    quad, a = stieltjes_quadruple(seq), seq.alpha
    if bd:
        p_cs = quad.p[half(m + 1)].conj_star()
        p2_cs = quad.second[half(m + 1)].conj_star()
        return lambda z: -p2_cs(z) @ np.linalg.inv(p_cs(z))
    psh_cs = quad.p_shift[half(m)].conj_star()
    phat_cs = quad.phat[half(m)].conj_star()
    sign = -1.0 if seq.side == "right" else 1.0
    return lambda z: (sign / (z - a)) * phat_cs(z) @ np.linalg.inv(psh_cs(z))


def oracle_routes(seq, ext) -> list:
    """The three oracle routes of one ExtremalSolution of seq."""
    m, bd = ext.m, ext.bd
    dq, n = dyukarev_quadruple(seq), half(m + 1) if bd else half(m)
    num, den = (dq.b[n], dq.d[n]) if bd else (dq.a[n], dq.c[n])
    return [lambda z: num(z) @ np.linalg.inv(den(z)),
            _pencil_y(seq, m) if bd else _pencil_v(seq, m),
            _quotient(seq, m, bd)]


def test_extremal_routes_agree():
    rng = np.random.default_rng(21)
    for i in range(10):
        s = ladder_fixture(i)
        exts = extremal(s)
        routes = [oracle_routes(s, ext) for ext in exts]
        for _ in range(5):
            z = complex(rng.standard_normal(), rng.standard_normal() + 1e-3)
            for ext, oracles in zip(exts, routes):
                got = ext(z)
                spread = max(float(np.linalg.norm(r(z) - got)) for r in oracles)
                assert spread < 1e-8 * (1 + np.linalg.norm(got))


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


def test_weyl_interval_rejects_non_finite_values(f1, monkeypatch):
    # a non-finite extremal value is bad data (ValueError), not a failed
    # definiteness check (ArithmeticError)
    import stieltjesmp.solutions as solutions
    monkeypatch.setattr(solutions.ExtremalSolution, "__call__",
                        lambda self, z: np.array([[np.inf + 0j]]))
    with pytest.raises(ValueError, match="non-finite"):
        weyl_interval(f1)


@pytest.mark.parametrize("value, message", [
    (1.0, "Weyl interval degenerate; inconsistent inputs"),
    (-1.0, "extremal values are not definite; inconsistent inputs"),
])
def test_weyl_interval_failures_are_arithmetic_errors(f1, monkeypatch, value, message):
    # both extremals return one value: the gap is 0, and for a negative value
    # the values are not definite either; each is an internal inconsistency
    # (ArithmeticError), not a bare AssertionError
    import stieltjesmp.solutions as solutions
    monkeypatch.setattr(solutions.ExtremalSolution, "__call__",
                        lambda self, z: np.full(np.shape(z) + (1, 1), value, dtype=complex))
    with pytest.raises(ArithmeticError, match=message):
        weyl_interval(f1)


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
    for k in (2.0 * np.eye(1), -0.1 * np.eye(1)):
        with pytest.raises(ValueError, match="0 <= K <= I"):
            interval_point(f1, 1, -1.0, k)


def _assert_interval_pairs_reproduce(s, m, x, ks):
    u, iv = resolvent_u(s, m), weyl_interval(s, m, x)
    tol = 1e-8 * (1 + np.linalg.norm(iv.upper))
    for k in ks:
        t, pair = interval_point(s, m, x, k)
        assert isinstance(pair, StieltjesPair) and pair.side == s.side
        assert rel_err(lft_solve(u, pair, complex(x)), t) < 1e-12
        assert min(min_eig_hermitian_part(t - iv.lower),
                   min_eig_hermitian_part(iv.upper - t)) >= -tol


def test_interval_point_pair_reproduces_value():
    # U(x)^{-1} [T; I] is a pair for every K in [0, I]: PD, 0, I and singular
    # PSD K (a zero or a unit eigenvalue), at every m on both half-lines
    rng = np.random.default_rng(23)
    for i in range(10):
        for s in (ladder_fixture(i), reflect(ladder_fixture(i))):
            q = s.q
            x = s.alpha - 1.0 if s.side == "right" else s.alpha + 1.0
            w, _ = np.linalg.qr(rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q)))
            ks = [np.zeros((q, q)), np.eye(q),
                  w @ np.diag(rng.uniform(0.1, 0.9, q)) @ w.conj().T]
            if q > 1:
                ks += [w @ np.diag(np.r_[0.0, rng.uniform(0.1, 0.9, q - 1)]) @ w.conj().T,
                       w @ np.diag(np.r_[rng.uniform(0.1, 0.9, q - 1), 1.0]) @ w.conj().T]
            for m in range(1, s.kappa + 1):
                _assert_interval_pairs_reproduce(s, m, x, ks)


@pytest.mark.parametrize("side", ["right", "left"])
def test_interval_point_defaults_to_the_free_point(side):
    # x = None is weyl_interval's free point, and the pair is built there too
    s = random_stieltjes_pd_sequence(q=2, kappa=4, alpha=0.5, side=side, seed=7)
    k = np.diag([0.25, 0.75])
    got, want = interval_point(s, 4, None, k), interval_point(s, 4, 0.5 - side_sign(side), k)
    for a, b in zip((got[0], got[1].phi, got[1].psi), (want[0], want[1].phi, want[1].psi)):
        assert a.tobytes() == b.tobytes()


def test_a_parameter_of_another_size_is_a_value_error():
    # a parameter of another size is a ValueError that names both sizes
    s = random_stieltjes_pd_sequence(q=2, kappa=4, seed=7)
    pair = StieltjesPair(kind=CONSTANT, phi=np.eye(1), psi=np.eye(1))
    with pytest.raises(ValueError, match="pair is 1 x 1, U has 2 x 2 blocks"):
        lft_solve(resolvent_u(s), pair, -1.0)
    for q in (2, 1):   # q must fit both F and sigma
        with pytest.raises(ValueError, match=rf"Schur parameter \(1, 1\) and sigma \(4, 4\) "
                                             rf"do not fit q={q}"):
            lft_solve_schur(sigma(s), np.eye(1), -1.0, q)


@pytest.mark.parametrize("kappa", [9, 10])
def test_interval_point_pairs_on_ill_conditioned_lm_draws(kappa):
    # the q = 2 lm-ladder draws of test_cli's verify test
    s = lm_draw(1, 2, kappa, 2)
    ks = [np.zeros((2, 2)), np.eye(2), np.diag([0.3, 0.6]), np.diag([0.0, 0.5]),
          np.array([[0.5, 0.5], [0.5, 0.5]])]
    _assert_interval_pairs_reproduce(s, kappa, -0.5, ks)


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


def test_difference_inverse_defaults_to_the_free_point():
    # the default point is weyl_interval's, alpha - side_sign(side), on both
    # half-lines; the old default -1 lay on the support of a left sequence at
    # alpha = 0 and of a right one at alpha = -3
    cases = [ladder_fixture(i) for i in range(4)] + [reflect(ladder_fixture(i)) for i in range(4)]
    cases += [random_fixture(2, 3, 0.0, "left", seed=1), random_fixture(2, 3, -3.0, "right", seed=1)]
    for s in cases:
        x = s.alpha - side_sign(s.side)
        assert x == weyl_interval(s).x
        assert difference_inverse(s).tobytes() == difference_inverse(s, s.kappa, x).tobytes()
        for m in range(s.kappa + 1):
            assert difference_inverse(s, m).tobytes() == difference_inverse(s, m, x).tobytes()


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


def test_difference_inverse_is_the_closed_hankel_formula():
    # the Christoffel-Darboux sum of the monic rows against the closed
    # formula with the oracle's own Hankel inverses, at every index m
    for i in range(10):
        for s in (ladder_fixture(i), reflect(ladder_fixture(i))):
            x = s.alpha - 1.0 if s.side == "right" else s.alpha + 1.0
            for m in range(s.kappa + 1):
                for z in (x, x + 0.3j):
                    got = difference_inverse(s, m, z)
                    assert rel_err(got, difference_inverse_closed(s, m, z)) < 1e-11


def test_reflect_solution_duality(f1, f3):
    s_min1, s_max1 = extremal(f1)
    s_min3, s_max3 = extremal(f3)
    def mirror(s_eval):   # S~(z) = -S(-z), a solution of the mirrored half-line
        return lambda z: -s_eval(-z)

    mirrored_min = mirror(s_min1)     # becomes the left upper extremal
    mirrored_max = mirror(s_max1)
    for z in (2.0, 0.5 + 0.8j, 4.0):
        np.testing.assert_allclose(mirrored_min(z), s_max3(z), atol=1e-12)
        np.testing.assert_allclose(mirrored_max(z), s_min3(z), atol=1e-12)
        np.testing.assert_allclose(mirror(mirrored_min)(z), s_min1(z), atol=1e-12)


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


def random_schur_parameter(q, rng):
    """Unitary F = V diag(e^{i theta}) V^* with theta in [0, pi]: Im F is PSD."""
    v, _ = np.linalg.qr(rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q)))
    return (v * np.exp(1j * rng.uniform(0.0, np.pi, q))) @ v.conj().T


def test_schur_pairs_on_both_half_lines():
    # a Schur pair is sqrt(2) E [F; I], E the rotation of its own half-line:
    # its LFT is the Sigma route's, solves the problem (Potapov, on the
    # solution half-plane) and lies in the Weyl interval at the free point.
    # The right rotation on a left pair missed Sigma by up to 1.9 relative
    rng = np.random.default_rng(20)
    for i in range(10):
        for s in (ladder_fixture(i), reflect(ladder_fixture(i))):
            u, sig, iv = resolvent_u(s), sigma(s), weyl_interval(s)
            assert iv.x == s.alpha - side_sign(s.side)
            tol = 1e-8 * (1 + np.linalg.norm(iv.upper))
            for _ in range(3):
                f = random_schur_parameter(s.q, rng)
                pair = StieltjesPair(kind=SCHUR_CONSTANT, side=s.side, f=f)
                for _ in range(2):
                    z = complex(rng.standard_normal(),
                                side_sign(s.side) * (abs(rng.standard_normal()) + 0.2))
                    got = lft_solve(u, pair, z)
                    assert rel_err(got, lft_solve_schur(sig, f, z, s.q)) < 1e-12, (i, s.side)
                    assert potapov_defect_psd(s, got, z), (i, s.side)
                t = lft_solve(u, pair, complex(iv.x))
                assert min_eig_hermitian_part(t - iv.lower) >= -tol, (i, s.side)
                assert min_eig_hermitian_part(iv.upper - t) >= -tol, (i, s.side)


def test_weyl_interval_defaults_to_the_free_point():
    # x defaults to alpha - 1 on the right and alpha + 1 on the left; the
    # fixed default -1.0 raised for every left sequence with alpha > -1
    for i in range(10):
        for s in (ladder_fixture(i), reflect(ladder_fixture(i))):
            x = s.alpha - 1.0 if s.side == "right" else s.alpha + 1.0
            iv, explicit = weyl_interval(s), weyl_interval(s, s.kappa, x)
            assert iv.x == x
            np.testing.assert_array_equal(iv.lower, explicit.lower)
            np.testing.assert_array_equal(iv.upper, explicit.upper)


def test_schur_denominator_uses_the_relative_threshold():
    # det = 1e2 passed the old absolute bound 1e-13; against 1e-13 ||D||_F^q
    # (= 1e3) this cond-1e14 denominator is singular, as in lft_solve
    den = np.diag([1e8, 1e-6])
    sig = np.block([[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), den]])
    with pytest.raises(SingularDenominator):
        lft_solve_schur(lambda z: sig, np.eye(2), -1.0, 2)
    sig[2:, 2:] = np.diag([1e8, 1e-4])    # det 1e4 is above the threshold
    np.testing.assert_allclose(lft_solve_schur(lambda z: sig, np.eye(2), -1.0, 2),
                               np.diag([1e-8, 1e4]), rtol=1e-15)


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
