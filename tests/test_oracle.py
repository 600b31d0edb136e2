"""The (L, M) maps, the product of the resolvent factors, the block-string
extremals and the rules of constant pairs against the 60-digit mpmath oracle.

Kept apart from test_params.py so that only this module needs mpmath; it
is part of the `test` extra and a missing install fails here.
"""

import functools

import numpy as np
import pytest

from stieltjesmp import (
    CONSTANT, SCHUR_CONSTANT, DSParam, ResolventU, SingularDenominator, StieltjesPair,
    StieltjesQuadruple, ds_param, lft_solve, pair_max, pair_min, reflect, resolvent_u, seq_from_ds,
    sequence, side_sign, stieltjes_param,
)
from stieltjesmp.moments import half
from stieltjesmp.params import random_pd
from stieltjesmp.solutions import string_rule

from conftest import ladder_fixture, random_constant_pair
from oracle import chain_product, monic_top, oracle, pair_lft, string_value


@functools.cache
def _oracle_draws(q: int, kappa: int) -> tuple:
    """(L, M) drawn with seeds 0-2 on both half-lines, with their oracle Q and
    moments: (l, m, alpha, side, q_want, s_want) per draw."""
    draws = []
    for seed in range(3):
        for alpha, side in ((0.5, "right"), (-0.25, "left")):
            rng = np.random.default_rng(seed)
            m = tuple(random_pd(q, rng) for _ in range(half(kappa) + 1))
            l = tuple(random_pd(q, rng) for _ in range(half(kappa - 1) + 1))
            draws.append((l, m, alpha, side, *oracle(l, m, alpha, side, q)))
    return tuple(draws)


@pytest.mark.parametrize("q, kappa, q_bound", [(1, 12, 1e-6), (2, 8, 1e-8), (4, 5, 1e-10)])
def test_lm_maps_match_the_high_precision_oracle(q, kappa, q_bound):
    # (L, M) -> moments to 1e-10 per moment; Q back from the rounded oracle
    # moments is limited by cond(H) ~ 1e12..1e24 here, hence the per-size bound
    for l, m, alpha, side, q_want, s_want in _oracle_draws(q, kappa):
        s = seq_from_ds(DSParam(q=q, alpha=alpha, side=side, l=l, m=m))
        for got, want in zip(s.moments, s_want):
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
        p = stieltjes_param(sequence(s_want, alpha=alpha, side=side))
        for got, want in zip(p.values, q_want):
            assert np.linalg.norm(got - want) <= q_bound * np.linalg.norm(want)


# worst relative error of one L_n or M_n: 6.4e-8, 1.9e-8 and 2.4e-7 by the Q
# route (6.2e-8, 1.8e-8 and 3.2e-7 by the former Hankel-inverse congruences)
@pytest.mark.parametrize("q, kappa, lm_bound", [(1, 12, 1e-6), (2, 8, 5e-7), (4, 5, 5e-6)])
def test_ds_param_of_the_oracle_moments_recovers_the_drawn_lm(q, kappa, lm_bound):
    # the entry map moments -> (L, M) on the rounded oracle moments
    for l, m, alpha, side, _, s_want in _oracle_draws(q, kappa):
        d = ds_param(sequence(s_want, alpha=alpha, side=side))
        for got, want in zip((*d.l, *d.m), (*l, *m)):
            assert np.linalg.norm(got - want) <= lm_bound * np.linalg.norm(want)


@pytest.mark.parametrize("q, kappa", [(1, 20), (2, 16), (4, 12)])
def test_string_rule_matches_the_high_precision_string(q, kappa):
    # (L, M) given directly: at these kappa the moments are far too ill
    # conditioned to carry them, the string is not
    rng = np.random.default_rng(q)
    m = tuple(random_pd(q, rng) for _ in range(half(kappa) + 1))
    l = tuple(random_pd(q, rng) for _ in range(half(kappa - 1) + 1))
    for alpha, side in ((0.5, "right"), (-0.25, "left")):
        d = DSParam(q=q, alpha=alpha, side=side, l=l, m=m)
        free = 1.0 if side == "right" else -1.0
        for wall in (False, True):
            rule = string_rule(d, kappa, wall)
            nm = half(kappa - 1) + 1 if wall else half(kappa) + 1
            for z in (alpha - free, alpha + 0.7 + 1.3j, alpha - 0.4 - 0.9j):
                got = ((1.0 / (rule.atoms - z)) @ rule.residues).reshape(q, q)
                want = string_value(l[:nm if wall else nm - 1], m[:nm], alpha, side, q, z)
                assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)


@pytest.mark.parametrize("q, kappa", [(1, 20), (2, 16), (4, 12)])
def test_chain_product_matches_the_high_precision_product(q, kappa):
    # the expanded U of the factor chain against the 60-digit product of the
    # factor values, with (L, M) given directly as for the string rule
    rng = np.random.default_rng(q)
    m = tuple(random_pd(q, rng) for _ in range(half(kappa) + 1))
    l = tuple(random_pd(q, rng) for _ in range(half(kappa - 1) + 1))
    for alpha, side in ((0.5, "right"), (-0.25, "left")):
        u = ResolventU(DSParam(q=q, alpha=alpha, side=side, l=l, m=m), kappa)
        free = 1.0 if side == "right" else -1.0
        for z in (alpha - free, alpha + 0.7 + 1.3j, alpha - 0.4 - 0.9j):
            want = chain_product(l, m, alpha, side, q, z)
            assert np.linalg.norm(u(z) - want) <= 1e-11 * np.linalg.norm(want)


@pytest.mark.parametrize("q, kappa", [(1, 10), (2, 8), (4, 5)])
def test_chain_monic_top_matches_the_high_precision_rows(q, kappa):
    # P_top normalised from the chain of the drawn (L, M) against the 60-digit
    # block row of the oracle moments: worst 2.4e-16, 1.4e-12 and 1.2e-13; the
    # Hankel rows (monic_rows) of the rounded oracle moments are 2.3e-11,
    # 2.5e-10 and 1.7e-9 off
    for seed in range(3):
        for alpha, side in ((0.5, "right"), (-0.25, "left")):
            rng = np.random.default_rng(seed)
            m = tuple(random_pd(q, rng) for _ in range(half(kappa) + 1))
            l = tuple(random_pd(q, rng) for _ in range(half(kappa - 1) + 1))
            want = monic_top(l, m, alpha, side, q)
            got = StieltjesQuadruple(DSParam(q=q, alpha=alpha, side=side, l=l, m=m)).p[-1].coeffs
            assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)


# the eigenvalues of x the accuracy table's spectrum pairs take, cycled over q
SPECTRUM = (0.0, 1e-14, 0.5, 1.0 - 1e-14, 1.0)


def _unitary(q: int, rng) -> np.ndarray:
    return np.linalg.qr(rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q)))[0]


def _table_pairs(s, rng) -> list:
    """pair_min, pair_max, three random CONSTANT pairs, a Schur pair with
    eigenvalues +1 and -1 (both +-1 over q > 1) and pairs whose x has the
    eigenvalues of SPECTRUM, each in a random basis: phi = s V (I - t) V^*,
    psi = V t V^*."""
    q, side, sign = s.q, s.side, side_sign(s.side)
    pairs = [pair_min(q, side), pair_max(q, side)]
    pairs += [random_constant_pair(q, side, rng) for _ in range(3)]
    v = _unitary(q, rng)
    pairs.append(StieltjesPair(kind=SCHUR_CONSTANT, side=side,
                               f=(v * (-1.0) ** np.arange(q)) @ v.conj().T))
    for j in range(-(-len(SPECTRUM) // q)):
        t = np.array([SPECTRUM[(j * q + i) % len(SPECTRUM)] for i in range(q)])
        v = _unitary(q, rng)
        phi, psi = sign * (v * (1.0 - t)) @ v.conj().T, (v * t) @ v.conj().T
        pairs.append(StieltjesPair(kind=CONSTANT, side=side, phi=phi, psi=psi))
    return pairs


def _table(i: int):
    """(key, s, m, u, pair, atoms, reach, rho, (L, M) up to m) over ladder
    fixture i and its reflection, every m >= 1 and every pair of
    _table_pairs, each pair's rule built first, so that every point sums it;
    key is (i, side, m, the pair's index)."""
    for s in (ladder_fixture(i), reflect(ladder_fixture(i))):
        rng, d = np.random.default_rng(i), ds_param(s)
        pairs = _table_pairs(s, rng)
        for m in range(1, s.kappa + 1):
            u, lm = resolvent_u(s, m), (d.l[:half(m - 1) + 1], d.m[:half(m) + 1])
            for j, pair in enumerate(pairs):
                rule = string_rule(d, m, pair)
                yield ((i, s.side, m, j), s, m, u, pair, rule.atoms, rule.reach,
                       np.abs(rule.atoms - s.alpha).max(), lm)


def _far_points(s, rho: float) -> list:
    """Points off the line: 1e-2 and 1 from alpha on the free side, three in
    the plane, one of them on the scale of the atoms."""
    sign = side_sign(s.side)
    return [s.alpha - 0.01 * sign, s.alpha - sign, s.alpha + 0.5 + 2j,
            s.alpha + (0.5 * sign + 0.05j) * (1 + rho), s.alpha + 3 - 0.7j]


# the 60-digit value of every point of the table, under its key and the point:
# the two tests below share most of their points, and each is evaluated once
_PAIR_LFT = {}


def _rel_errors(key, s, u, pair, lm, points) -> np.ndarray:
    todo = [z for z in points if (*key, z) not in _PAIR_LFT]
    for z, value in zip(todo, pair_lft(*lm, s.alpha, s.side, s.q, todo, pair.phi, pair.psi)):
        _PAIR_LFT[(*key, z)] = value
    want = np.array([_PAIR_LFT[(*key, z)] for z in points], dtype=complex).reshape(-1, s.q, s.q)
    got = np.array([lft_solve(u, pair, z) for z in points])
    return np.linalg.norm(got - want, axis=(1, 2)) / np.linalg.norm(want, axis=(1, 2))


@pytest.mark.parametrize("i", range(10))
def test_pair_rules_match_the_high_precision_lft(i):
    # every pair of _table_pairs on ladder fixture i and its reflection, at
    # every m >= 1, against the 60-digit U(z) [phi; psi] divided.  With rho =
    # max_j |x_j - alpha| over the pair's atoms: at z = x_k + d i, d = 1e-2 ..
    # 1e-12, the relative error is within 1e-12 + 1e-13 (1 + rho) / d, or z is
    # within the reach and a singular denominator (worst measured: 0.04 of
    # the bound).  At points 1e-2 from alpha and 1e-2 (1 + rho) from every
    # atom, within 1e-12 (worst 3.8e-14); the next test holds the points
    # nearer an atom, down to 1e-2, to 1e-12 and records where that misses
    for key, s, m, u, pair, atoms, reach, rho, lm in _table(i):
        far = [z for z in _far_points(s, rho) if np.abs(atoms - z).min() >= 1e-2 * (1 + rho)]
        near = [(complex(x, dist), dist) for x in atoms for dist in (1e-2, 1e-6, 1e-9, 1e-12)]
        for z, dist in near:
            if dist < reach:
                with pytest.raises(SingularDenominator):
                    lft_solve(u, pair, z)
        near = [(z, dist) for z, dist in near if dist >= reach]
        err = _rel_errors(key, s, u, pair, lm, far + [z for z, _ in near])
        bound = [1e-12] * len(far) + [1e-12 + 1e-13 * (1 + rho) / dist for _, dist in near]
        assert (err <= bound).all(), (i, s.side, m, pair.x, np.max(err / bound))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a rule rounds to 1e-13 (1 + rho) / d relative at d from an atom, "
                   "so 1e-12 at d = 1e-2 fails for a large rho; the extremals' own rules, "
                   "kept bit for bit, miss it too")
def test_pair_rules_within_1e_12_at_1e_2_from_every_atom():
    # the accuracy table's far criterion, 1e-12 relative at every point at
    # least 1e-2 from alpha and from every atom: the previous test's points
    # that are 1e-2 from every atom, however large rho, and z = x_k + 1e-2 i
    # for every atom of every pair of the table.  Measured: 419 of 5,830
    # points miss, the worst 6.6e-11 next to an atom at 2e14; 64 misses are
    # at pairs whose rule is an extremal's, kept bit for bit; the division of
    # U(z) misses at 393 of the points (it is singular or overflows at some)
    misses, total = [], 0
    for i in range(10):
        for key, s, m, u, pair, atoms, reach, rho, lm in _table(i):
            points = [z for z in _far_points(s, rho) + [complex(x, 1e-2) for x in atoms]
                      if abs(z - s.alpha) >= 1e-2 and np.abs(atoms - z).min() >= 1e-2]
            err, total = _rel_errors(key, s, u, pair, lm, points), total + len(points)
            misses += [(e, i, s.side, m, z) for e, z in zip(err, points) if e > 1e-12]
    assert not misses, f"{len(misses)} of {total} points miss; worst {max(misses)}"
