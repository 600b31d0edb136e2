import functools
import gc
import re
import warnings
import weakref

import numpy as np
import pytest

from stieltjesmp import (
    CONSTANT, SCHUR_CONSTANT, DSParam, SingularDenominator, StieltjesPair,
    difference_inverse, ds_param, dyukarev_quadruple, extremal, hermitize,
    interval_point, is_psd, lft_solve, pair_max, pair_min, potapov_defect, potapov_defect_psd,
    random_stieltjes_pd_sequence, recover_max, recover_min, reflect, resolvent_u, seq_from_ds,
    sequence, side_sign, stieltjes_quadruple, stieltjes_transform, weyl_interval,
)
from stieltjesmp.linalg import min_eig_hermitian_part
from stieltjesmp.moments import half, hankel, y_stack
from stieltjesmp.solutions import string_rule

from conftest import (
    block_shift, difference_inverse_closed, first_block_column, ladder_fixture,
    lft_solve_det, lft_solve_schur, lm_draw, random_constant_pair, random_fixture, rel_err, sigma,
)


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


@pytest.mark.parametrize("kind, given, field", [
    (CONSTANT, {"psi": np.eye(2)}, "phi"),
    (CONSTANT, {"phi": np.eye(2)}, "psi"),
    (CONSTANT, {}, "phi"),
    (CONSTANT, {"f": np.eye(2)}, "phi"),
    (SCHUR_CONSTANT, {}, "f"),
    (SCHUR_CONSTANT, {"phi": np.eye(2), "psi": np.eye(2)}, "f"),
])
def test_a_pair_names_the_field_it_misses(kind, given, field):
    # a missing field reached the matrix rule as None and was "matrix has
    # non-finite entries", which named neither the field nor the kind
    with pytest.raises(ValueError, match=f"^{kind} pair needs {field}$"):
        StieltjesPair(kind=kind, **given)


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


def test_lft_within_an_atom_reach_is_a_singular_denominator():
    # on its rule a pair's denominator is singular at the rule's atoms, all
    # on the half-line: off the cut, z is a singular denominator within an
    # atom's reach and a value past it
    s = ladder_fixture(3)
    u, pair = resolvent_u(s), random_constant_pair(s.q, s.side, np.random.default_rng(3))
    atoms, _, reach = string_rule(ds_param(s), s.kappa, pair)
    for x in atoms:
        with pytest.raises(SingularDenominator, match="denominator singular at z="):
            lft_solve(u, pair, complex(x, 0.5 * reach))
        assert np.isfinite(lft_solve(u, pair, complex(x, 2.0 * reach))).all()


def test_a_mixed_pair_sums_its_rule_from_its_first_point():
    # one route for every pair: the first point of a pair on U's (L, M) and m
    # builds its rule, on the pair alone, and every point sums it, so one
    # (u, pair, z) gives the same bits at every call, the first included.  A
    # 0-d array and a numpy scalar are the same point.  pair_min and pair_max
    # sum the extremals' rules
    s = random_stieltjes_pd_sequence(2, 5, seed=1)
    u, ds, z = resolvent_u(s), ds_param(s), -1.0 + 0.5j
    pair = random_constant_pair(2, s.side, np.random.default_rng(1))
    first = lft_solve(u, pair, z)
    assert pair._rules[ds][s.kappa] is string_rule(ds, s.kappa, pair)
    assert all(np.array_equal(lft_solve(u, pair, w), first)
               for w in (z, z, np.array(z), np.complex128(z)))
    assert rel_err(first, lft_solve_det(u, pair, z)) < 1e-13
    s_min, s_max = extremal(s)
    assert np.array_equal(lft_solve(u, pair_min(2), z), s_min(z))
    assert np.array_equal(lft_solve(u, pair_max(2), z), s_max(z))


def test_a_pair_keeps_its_rules_and_frees_them_with_itself():
    # the rule of a mixed pair lives on the pair, under its (L, M) held
    # weakly: 1,000 fresh pairs of the same (phi, psi), each evaluated at two
    # points, leave the DSParam's cache as it was; a dropped pair takes its
    # rule along, and a pair kept outlives no (L, M)
    s = random_stieltjes_pd_sequence(2, 5, seed=1)
    u, ds = resolvent_u(s), ds_param(s)
    lft_solve(u, pair_min(2), -1.0), lft_solve(u, pair_max(2), -1.0)
    size = len(ds.__dict__)
    for _ in range(1000):
        pair = StieltjesPair(kind=CONSTANT, phi=np.eye(2), psi=np.eye(2))
        lft_solve(u, pair, -1.0), lft_solve(u, pair, -1.0 + 1j)
    assert len(ds.__dict__) == size
    rule = weakref.ref(pair._rules[ds][s.kappa][1])
    del pair
    gc.collect()
    assert rule() is None
    pair, held = StieltjesPair(kind=CONSTANT, phi=np.eye(2), psi=np.eye(2)), weakref.ref(ds)
    lft_solve(u, pair, -1.0), lft_solve(u, pair, -1.0 + 1j)
    del s, u, ds
    gc.collect()
    assert held() is None and not pair._rules


def test_lft_at_m_0_is_the_one_mass_string():
    # U_0 = W_0: the wall holds no mass (B_0 D_0^{-1} = 0), the free end is
    # s_0 at alpha, and any other pair ties the one mass M_0 to the wall
    rng = np.random.default_rng(6)
    for i in range(10):
        for s in (ladder_fixture(i), reflect(ladder_fixture(i))):
            u, z = resolvent_u(s, 0), s.alpha + 0.3 + 1j
            assert not lft_solve(u, pair_min(s.q, s.side), z).any()
            assert rel_err(lft_solve(u, pair_max(s.q, s.side), z), s[0] / (s.alpha - z)) < 1e-14
            pair = random_constant_pair(s.q, s.side, rng)
            assert rel_err(lft_solve(u, pair, z), lft_solve_det(u, pair, z)) < 1e-12


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
    # the pair's rule against det and inv of U(z) [phi; psi]: off the cut, at
    # least 1e-2 from alpha and 1e-2 (1 + rho) from every atom, rho = max_j
    # |x_j - alpha|, both give a value, the same within 1e-12 relative where
    # |z - alpha| <= 1 and 1e-12 |z - alpha| beyond: the determinant route
    # rounds U(z) on its evaluation scale, 1e-11 off the 60-digit value at
    # |z - alpha| ~ 20, where the rule is 1e-13 off it.  A point off the cut
    # is a singular denominator exactly within an atom's reach.  Nearer the
    # atoms both routes lose digits as an atom's rounding over the distance,
    # and the determinant route decides by its own threshold (the 60-digit
    # accuracy table of test_oracle holds the rule)
    rng = np.random.default_rng(14)
    offsets = [0.0] + [sign * 10.0 ** -k for k in range(1, 17) for sign in (1, -1)]
    for i in range(10):
        for s in (ladder_fixture(i), reflect(ladder_fixture(i))):
            u, ds = resolvent_u(s), ds_param(s)
            pairs = [pair_min(s.q, s.side), pair_max(s.q, s.side),
                     StieltjesPair(kind=SCHUR_CONSTANT, side=s.side,
                                   f=np.diag(np.exp(1j * rng.uniform(0.1, 3.0, s.q))))] \
                + [random_constant_pair(s.q, s.side, rng) for _ in range(3)]
            for pair in pairs:
                atoms, _, reach = string_rule(ds, s.kappa, pair)
                rho = np.abs(atoms - s.alpha).max()
                near = np.concatenate([atoms, *(ext.atoms for ext in extremal(s))])
                points = {complex(x + d) for x in near for d in offsets} \
                    | {complex(x, d) for x in near for d in offsets}
                for z in points:
                    got = _outcome(lft_solve, u, pair, z)
                    dist = np.abs(atoms - z).min()
                    if side_sign(s.side) * (z.real - s.alpha) >= 0 and z.imag == 0:
                        assert got is ValueError, (i, s.side, z)
                    elif dist < reach:
                        assert got is SingularDenominator, (i, s.side, z)
                    else:
                        assert isinstance(got, np.ndarray), (i, s.side, z)
                        if dist >= 1e-2 * (1 + rho) and abs(z - s.alpha) >= 1e-2:
                            want = lft_solve_det(u, pair, z)
                            bound = 1e-12 * max(1, abs(z - s.alpha)) * np.linalg.norm(want)
                            assert np.linalg.norm(got - want) <= bound, (i, s.side, z)


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


def test_a_scalar_is_at_an_atom_exactly_when_it_equals_one():
    # the scalar call looks z up in the set of the nodes, where the array
    # call counts zero gaps: the same atoms, in every scalar form, and the
    # same message; a point 1e-12 (1 + |x|) off it sums
    for i in range(10):
        for s in (ladder_fixture(i), reflect(ladder_fixture(i))):
            for ev in (*extremal(s), recover_min(s), recover_max(s)):
                call = ev if callable(ev) else functools.partial(stieltjes_transform, ev)
                for x in ev.atoms:
                    for z in (x, complex(x), np.float64(x), np.complex128(x), complex(x, -0.0)):
                        message = re.escape(f"an atom lies in z={complex(z)}")
                        with pytest.raises(SingularDenominator, match=f"^{message}$"):
                            call(z)
                    with pytest.raises(SingularDenominator, match="^an atom lies in z="):
                        call(np.array([x + 1j, x]))
                    eps = 1e-12 * (1.0 + abs(x))
                    for z in (x + eps, x - eps, x + 1j * eps):
                        assert np.isfinite(call(z)).all()


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
    # a non-finite extremal value is an overflow at x (ValueError, by the value
    # rule), not a failed definiteness check (ArithmeticError)
    import stieltjesmp.solutions as solutions
    monkeypatch.setattr(solutions.ExtremalSolution, "__call__",
                        lambda self, z: np.array([[np.inf + 0j]]))
    with pytest.raises(ValueError, match=re.escape("value at point -1.0 overflows float64")):
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


def test_a_complex_x_is_its_real_part_or_a_value_error():
    # weyl_interval took the complex128 -1+0.5j as x = -1.0 with a
    # ComplexWarning, and a Python complex x, -1+0j too, leaked float()'s
    # TypeError; interval_point built its pair on either
    s = random_stieltjes_pd_sequence(2, 4, seed=1)
    k = 0.5 * np.eye(2)
    iv, (t, pair) = weyl_interval(s, x=-1.0), interval_point(s, None, -1.0, k)
    for x in (-1 + 0j, np.complex128(-1)):
        got = weyl_interval(s, x=x)
        assert type(got.x) is float and got.x == -1.0
        assert got.lower.tobytes() == iv.lower.tobytes()
        got_t, got_pair = interval_point(s, None, x, k)
        assert got_t.tobytes() == t.tobytes() and got_pair.phi.tobytes() == pair.phi.tobytes()
    calls = (lambda x: weyl_interval(s, x=x), lambda x: interval_point(s, None, x, k))
    # finiteness, then realness, then the cut
    for x, message in ((-1 + 0.5j, "point (-1+0.5j) is not real"),
                       (np.complex128(-1 + 0.5j), "point (-1+0.5j) is not real"),
                       (complex(np.nan, 0.5), "point (nan+0.5j) is not finite"),
                       (1 + 0.5j, "point (1+0.5j) is not real"),
                       (1 + 0j, "point 1.0 lies on the cut")):
        for call in calls:
            with pytest.raises(ValueError, match=re.escape(message)):
                call(x)


def test_a_pair_of_the_other_half_line_is_a_value_error():
    # a right sequence with the left pair (-1, 1): at -1 lft_solve returned
    # -1.053, outside that point's Weyl interval [0.323, 2.372], with no error
    s = random_stieltjes_pd_sequence(q=1, kappa=3, seed=1)
    left = StieltjesPair(kind=CONSTANT, side="left", phi=-np.eye(1), psi=np.eye(1))
    for seq, pair, x, msg in ((s, left, -1.0, "left half-line, U for the right"),
                              (reflect(s), pair_max(1), 1.0, "right half-line, U for the left")):
        with pytest.raises(ValueError, match=f"pair is for the {msg} half-line"):
            lft_solve(resolvent_u(seq), pair, x)
    # the cut and the size come before the side
    with pytest.raises(ValueError, match="lies on the cut"):
        lft_solve(resolvent_u(s), left, 1.0)
    with pytest.raises(ValueError, match="pair is 2 x 2, U has 1 x 1 blocks"):
        lft_solve(resolvent_u(s), pair_max(2, "left"), -1.0)


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
    # F = I and F = -I: the Sigma oracle and the library's Schur pair both
    # give the extremals
    for i in range(8):
        s = ladder_fixture(i)
        u, sig = resolvent_u(s), sigma(s)
        s_min, s_max = extremal(s)
        eye = np.eye(s.q)
        z = complex(s.alpha - 0.9 if s.side == "right" else s.alpha + 0.9)
        for f, ref in ((eye, s_min), (-eye, s_max)):
            pair = StieltjesPair(kind=SCHUR_CONSTANT, side=s.side, f=f)
            assert rel_err(lft_solve_schur(sig, f, z), ref(z)) < 1e-9
            assert rel_err(lft_solve(u, pair, z), ref(z)) < 1e-9


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
                    assert rel_err(got, lft_solve_schur(sig, f, z)) < 1e-12, (i, s.side)
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


def test_a_rule_reach_is_relative():
    # an atom at 1000 is reached within 1e-13 (1 + 1000): 1e-10 above it
    # passes an absolute bound 1e-13 but is a singular denominator, and 1e-9
    # above it is a value.  The Schur pair F = I is [phi; psi] = [0; 2I], so
    # x = I: the wall string of the one mass M_0 = I tied by L_0 = I / 1000,
    # the very rule of the wall extremal
    s = seq_from_ds(DSParam(q=2, alpha=0.0, side="right", l=[1e-3 * np.eye(2)],
                            m=[np.eye(2), np.eye(2)]))
    u, pair = resolvent_u(s), StieltjesPair(kind=SCHUR_CONSTANT, f=np.eye(2))
    atoms, _, reach = string_rule(ds_param(s), u.m, pair)
    np.testing.assert_allclose(atoms, [1000.0, 1000.0], rtol=1e-15)
    assert 1e-10 < reach < 1e-9
    z = complex(atoms[0], 1e-10)
    with pytest.raises(SingularDenominator, match=re.escape(f"denominator singular at z={z}")):
        lft_solve(u, pair, z)
    z = complex(atoms[0], 1e-9)
    np.testing.assert_allclose(lft_solve(u, pair, z), 1e9j * np.eye(2), rtol=1e-15)
    assert np.array_equal(lft_solve(u, pair, z), extremal(s)[0](z))


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


def _point_entries(s):
    """Every entry that evaluates a q = 1 sequence at one given point."""
    u = resolvent_u(s)
    return {"lft_solve": lambda z: lft_solve(u, pair_min(1), z),
            "difference_inverse": lambda z: difference_inverse(s, z=z),
            "weyl_interval": lambda z: weyl_interval(s, x=z),
            "interval_point": lambda z: interval_point(s, None, z, 0.5),
            "potapov_defect": lambda z: potapov_defect(s, 0.5, z)}


@pytest.mark.parametrize("z", [np.nan, np.inf, -np.inf, complex(np.nan, 1), complex(1, np.inf)],
                         ids=repr)
@pytest.mark.parametrize("entry", ["lft_solve", "difference_inverse", "weyl_interval",
                                   "interval_point", "potapov_defect"])
def test_a_point_that_is_not_finite_is_named(entry, z):
    # the point rule's first check: nan and -inf used to give [[nan+nanj]] in
    # lft_solve and difference_inverse, nan was "on the cut" in weyl_interval
    # and -inf an ArithmeticError there; potapov_defect called nan real and
    # returned non-finite blocks at complex(nan, 1) and complex(1, inf)
    call = _point_entries(random_stieltjes_pd_sequence(1, 4, seed=1))[entry]
    with pytest.raises(ValueError, match=re.escape(f"point {z} is not finite")):
        call(z)


@pytest.mark.parametrize("point", [True, False, np.True_, "1j", None, np.array([-1.0, -2.0]),
                                   np.array([1j, 2j]), np.array([-1.0])], ids=repr)
@pytest.mark.parametrize("entry", ["lft_solve", "difference_inverse", "weyl_interval",
                                   "interval_point", "potapov_defect"])
def test_a_bool_is_no_point(entry, point):
    # the point rule took a bool for a number: weyl_interval(s, x=True) said
    # "point 1 lies on the cut" and lft_solve(u, pair_min(1), False) returned
    # the value at 0.  A str, None and an array of points leaked a TypeError
    # that named no point ("must be real number, not str", "only 0-dimensional
    # arrays can be converted").  None is the free point of the three entries
    # that default to it
    call = _point_entries(random_stieltjes_pd_sequence(1, 4, alpha=1.0, seed=1))[entry]
    if point is None and entry in ("difference_inverse", "weyl_interval", "interval_point"):
        call(point)
    else:
        with pytest.raises(ValueError, match=re.escape(f"point {point!r} is not a number")):
            call(point)


def test_an_overflowing_value_is_named_not_returned():
    # finite points where float64 overflows: lft_solve returned NaN,
    # difference_inverse a non-finite value at -1e100 and a bare OverflowError
    # at -1e200, weyl_interval next to the free end's atom at alpha = 0 a
    # "matrix has non-finite entries" that did not name x, and potapov_defect
    # non-finite blocks; numpy's own overflow warnings come before the error.
    # Every pair sums finite partial fractions there, -s_0 / z to rounding
    s2, s1 = (random_stieltjes_pd_sequence(q, kappa, seed=1) for q, kappa in ((2, 5), (1, 4)))
    cases = [(-1e100, lambda z: difference_inverse(s1, z=z)),
             (-1e200, lambda z: difference_inverse(s1, z=z)),
             (-1e-320, lambda z: weyl_interval(s2, x=z)),
             (1e200j, lambda z: potapov_defect(s1, 0.5, z))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for z, call in cases:
            with pytest.raises(ValueError, match=re.escape(f"value at point {z} overflows")):
                call(z)
    for pair in (pair_max(2), StieltjesPair(kind=CONSTANT, phi=np.eye(2), psi=np.eye(2))):
        far = lft_solve(resolvent_u(s2), pair, -1e200)   # the mixed pair's first point
        assert np.linalg.norm(far * 1e200 - s2[0]) <= 1e-14 * np.linalg.norm(s2[0])
