"""Property tests over drawn ladder problems and drawn matrix stacks.

The read-only rule: each example draws a LADDER rung, an ALPHAS value, a
side and a seed, builds the problem with random_fixture and runs the solve
pipeline.  The pair rule: each example draws one of the 50 ladder fixtures,
its reflection or not, and a seed for the pairs.  The batched classes: each
example draws a stack of matrices of mixed kinds and scales.  The example
counts are bounded and derandomized, so every run checks the same examples
in under a second each.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from stieltjesmp import (
    CONSTANT, DSParam, MatrixPolynomial, MolecularMeasure, ResolventU, StieltjesPair,
    dyukarev_quadruple, ds_param, extremal, factorize_u, lft_solve, pair_max, pair_min,
    recover_max, recover_min, reflect, resolvent_u, seq_from_ds, sequence, side_sign,
    stieltjes_param, stieltjes_quadruple, stieltjes_transform,
)
from stieltjesmp.linalg import INDEFINITE, NON_HERMITIAN, PD, PSD, _psd_classes, psd_class

from conftest import ALPHAS, LADDER, ladder_fixture, random_fixture, writeable_arrays


def _build(given: dict, alpha: float, side: str):
    """A MomentSequence, a DSParam, the ResolventU view of it, a CONSTANT
    pair, a MatrixPolynomial and a MolecularMeasure, each built from the
    arrays of given."""
    seq = sequence(given["moments"], alpha=alpha, side=side)
    d = DSParam(q=seq.q, alpha=alpha, side=side, l=given["l"], m=given["m"])
    pair = StieltjesPair(kind=CONSTANT, side=side, phi=given["phi"], psi=given["psi"])
    mu = MolecularMeasure(atoms=given["atoms"], masses=given["masses"], support_side=side,
                          alpha=alpha)
    return seq, d, ResolventU(d, d.kappa), pair, MatrixPolynomial(given["coeffs"]), mu


def _values(seq, d, u, pair, poly, mu, z: complex) -> list:
    """The arrays the six objects hold and the values lft_solve and the
    transforms read off them at z."""
    return [seq.moments, resolvent_u(seq).poly.coeffs, lft_solve(resolvent_u(seq), pair, z),
            d.l, d.m, seq_from_ds(d).moments, u.poly.coeffs, lft_solve(u, pair, z),
            pair.phi, pair.psi, pair.x, poly.coeffs, mu.atoms, mu.masses,
            stieltjes_transform(mu, z)]


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(rung=st.sampled_from(LADDER), alpha=st.sampled_from(ALPHAS),
       side=st.sampled_from(["right", "left"]), seed=st.integers(0, 999))
def test_the_solve_pipeline_holds_read_only_arrays_no_caller_can_write(rung, alpha, side, seed):
    q, kappa, max_cond = rung
    s = random_fixture(q, kappa, alpha, side, seed=seed, max_cond=max_cond)
    z = alpha + 1j
    u = resolvent_u(s)
    u.inverse_at(z)
    pairs = [pair_min(q, side), pair_max(q, side)]
    for pair in pairs:
        lft_solve(u, pair, z)
    d, mu, quad = ds_param(s), recover_max(s), stieltjes_quadruple(s)
    quad.p, quad.second, quad.p_shift, quad.phat   # a view builds each family at its first read
    out = [s, d, stieltjes_param(s), quad, dyukarev_quadruple(s), u,
           factorize_u(s), *extremal(s), recover_min(s), mu, *pairs]
    assert writeable_arrays(*out) == []

    # the five classes copy a writeable input once, so a write after
    # construction, before or after first use, changes neither what the
    # object holds nor what lft_solve and the transforms read off it.  The
    # objects the write misses go through the same calls: a mixed pair's
    # first point on (L, M) builds its rule, and every point sums it
    source = {"moments": s.moments, "l": d.l, "m": d.m, "phi": side_sign(side) * np.eye(q),
              "psi": np.eye(q), "coeffs": u.poly.coeffs, "atoms": mu.atoms, "masses": mu.masses}
    for first_use in (False, True):
        fresh = _build({k: np.array(v) for k, v in source.items()}, alpha, side)
        given = {k: np.array(v, dtype=complex if k != "atoms" else float)
                 for k, v in source.items()}
        objs = _build(given, alpha, side)
        if first_use:
            _values(*objs, z)
            _values(*fresh, z)
        for a in given.values():
            a[...] = np.nan
        got, want = _values(*objs, z), _values(*fresh, z)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert writeable_arrays(*objs) == []


def _drawn_matrix(kind: str, q: int, scale: float, seed: int) -> np.ndarray:
    """A q x q matrix of the given kind at the given scale: PD, PSD of rank
    q - 1, INDEFINITE with eigenvalues of both signs, or NON_HERMITIAN."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
    if kind == NON_HERMITIAN:
        return scale * g
    basis = np.linalg.qr(g)[0]
    eigs = 0.1 + rng.random(q)
    if kind == PSD:
        eigs[0] = 0.0
    elif kind == INDEFINITE:
        eigs[0] = -eigs[0]
    return scale * (basis * eigs) @ basis.conj().T


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(q=st.integers(1, 4), draws=st.lists(
    st.tuples(st.sampled_from([PD, PSD, INDEFINITE, NON_HERMITIAN]),
              st.sampled_from([1e-12, 1e-3, 1.0, 1e8]), st.integers(0, 2**32 - 1)),
    min_size=1, max_size=8))
def test_a_stack_is_classed_per_matrix(q, draws):
    # the batched pass classes each matrix as psd_class classes it alone,
    # whatever else and whatever scales share its stack: the one class pass
    # over both sides of a sequence relies on that
    stack = np.array([_drawn_matrix(kind, q, scale, seed) for kind, scale, seed in draws])
    assert list(_psd_classes(stack)) == [psd_class(a) for a in stack]


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(i=st.integers(0, 49), reflected=st.booleans(), seed=st.integers(0, 999))
def test_a_pair_is_its_normalized_x(i, reflected, seed):
    # on a ladder fixture or its reflection, (phi R, psi R) gives the values of
    # (phi, psi) for an invertible R, and the pairs (0, R) and (R, 0), x = I
    # and x = 0, give the extremals' values bit for bit, at every m
    s = reflect(ladder_fixture(i)) if reflected else ladder_fixture(i)
    q, kappa, alpha, side = s.q, s.kappa, s.alpha, s.side
    rng, sign = np.random.default_rng(seed), side_sign(side)
    g = rng.standard_normal((q, 3 * q)) + 1j * rng.standard_normal((q, 3 * q))
    r = np.linalg.qr(g[:, q:2 * q])[0] @ np.diag(rng.uniform(0.5, 2.0, q)) \
        @ np.linalg.qr(g[:, 2 * q:])[0]
    pair = StieltjesPair(kind=CONSTANT, side=side, phi=sign * g[:, :q] @ g[:, :q].conj().T,
                         psi=np.eye(q))
    scaled = StieltjesPair(kind=CONSTANT, side=side, phi=pair.phi @ r, psi=pair.psi @ r)
    wall = StieltjesPair(kind=CONSTANT, side=side, phi=np.zeros((q, q)), psi=r)
    free = StieltjesPair(kind=CONSTANT, side=side, phi=r, psi=np.zeros((q, q)))
    points = [alpha + 1j, alpha - sign, alpha + 0.3 - 2j]
    for m in range(1, kappa + 1):
        u, exts = resolvent_u(s, m), extremal(s, m)
        for z in points:
            want = lft_solve(u, pair, z)
            assert np.linalg.norm(lft_solve(u, scaled, z) - want) <= 1e-12 * np.linalg.norm(want)
            for ends in (wall, free):
                ext = exts[0] if (ends is wall) == (side == "right") else exts[1]
                assert np.array_equal(lft_solve(u, ends, z), ext(z))


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(i=st.integers(0, 49), reflected=st.booleans(), seed=st.integers(0, 999))
def test_one_point_in_every_form(i, reflected, seed):
    # every per-point evaluator gives the same bits at a point in each of its
    # forms, a Python complex, a numpy complex and a 0-d array, and at a real
    # point a float and a numpy float too; the scalar value is the row of the
    # (N,) array evaluation, and a list of points is the array of them
    s = reflect(ladder_fixture(i)) if reflected else ladder_fixture(i)
    q, alpha, side = s.q, s.alpha, s.side
    rng, sign = np.random.default_rng(seed), side_sign(side)
    g = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
    pair = StieltjesPair(kind=CONSTANT, side=side, phi=sign * g @ g.conj().T, psi=np.eye(q))
    u, mus = resolvent_u(s), (recover_min(s), recover_max(s))
    batched = [*extremal(s), u, *(lambda z, mu=mu: stieltjes_transform(mu, z) for mu in mus)]
    im = (0.05 + 3.0 * rng.random(4)) * rng.choice([-1.0, 1.0], 4)
    points = [complex(x, y) for x, y in zip(alpha + 4.0 * rng.standard_normal(4), im)]
    points += [complex(alpha - sign * x) for x in 0.1 + 4.0 * rng.random(3)]
    for z in points:
        forms = [z, np.complex128(z), np.array(z)]
        if not z.imag:
            forms += [z.real, np.float64(z.real)]
        for f in [*batched, lambda z: lft_solve(u, pair, z)]:
            want = f(z)
            assert want.shape == (len(want), len(want)) and want.dtype == complex
            assert all(np.array_equal(f(w), want) for w in forms[1:])
    grid = np.array(points)
    for f in batched:
        stack = f(grid)
        assert stack.shape[0] == len(points) and np.array_equal(f(points), stack)
        for z, row in zip(points, stack):
            assert np.linalg.norm(f(z) - row) <= 1e-14 * np.linalg.norm(row)
