"""The (L, M) maps, the product of the resolvent factors and the
block-string extremals against the 60-digit mpmath oracle.

Kept apart from test_params.py so that only this module needs mpmath; it
is part of the `test` extra and a missing install fails here.
"""

import functools

import numpy as np
import pytest

from stieltjesmp import DSParam, ds_param, seq_from_ds, sequence, stieltjes_param
from stieltjesmp.moments import half
from stieltjesmp.orthopoly import _chain_families
from stieltjesmp.params import random_pd
from stieltjesmp.resolvent import _chain_product
from stieltjesmp.solutions import string_rule

from oracle import chain_product, monic_top, oracle, string_value


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
            atoms, residues = string_rule(d, kappa, wall)
            nm = half(kappa - 1) + 1 if wall else half(kappa) + 1
            for z in (alpha - free, alpha + 0.7 + 1.3j, alpha - 0.4 - 0.9j):
                got = ((1.0 / (atoms - z)) @ residues).reshape(q, q)
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
        u = _chain_product(DSParam(q=q, alpha=alpha, side=side, l=l, m=m), kappa)
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
            got = _chain_families(DSParam(q=q, alpha=alpha, side=side, l=l, m=m))[0][-1]
            assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)
