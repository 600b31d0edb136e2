"""Seeded benchmark inputs, built with the benchmark's own numpy code.

Nothing here calls the library, so the inputs for a given seed stay
bit-identical across commits of the program under test.
"""

from dataclasses import dataclass

import numpy as np

# (q, kappa) rungs of the test suite's fixture ladder
LADDER = [(1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2), (4, 3)]
ALPHAS = [-0.5, 0.5, 1.0]
SIDES = ["right", "left"]

# lm-ladder: kappa runs from 2 up to the capacity targets of the roadmap; the
# timed ops and the per-rung table use LM_DRAWS draws per rung, the capacity
# climb CAPACITY_DRAWS independent chains per q
LM_TOPS = {1: 20, 2: 16, 4: 12}
LM_DRAWS = 3
CAPACITY_DRAWS = 24

# zsweep: one problem per q, evaluated on a fixed grid
ZSWEEP_PROBLEMS = [(1, 6, "right"), (2, 5, "left"), (3, 3, "right"), (4, 3, "left")]
ZSWEEP_COMPLEX = 800
ZSWEEP_REAL = 200


def half(k: int) -> int:
    return k // 2 if k >= 0 else -1


def random_pd(q: int, rng: np.random.Generator) -> np.ndarray:
    g = 0.3 * (rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q)))
    return g @ g.conj().T + 0.1 * np.eye(q)


@dataclass(frozen=True)
class Molecular:
    """Finitely atomic measure: real atoms with PD q x q masses."""

    atoms: np.ndarray
    masses: np.ndarray  # shape (n_atoms, q, q)

    def moments(self, up_to: int) -> list:
        return [np.einsum("k,kij->ij", self.atoms ** j, self.masses) for j in range(up_to + 1)]

    def transform(self, z) -> np.ndarray:
        """Stieltjes transform sum_k M_k / (x_k - z)."""
        return np.einsum("k,kij->ij", 1.0 / (self.atoms - z), self.masses)


@dataclass(frozen=True)
class SequenceInput:
    """Moments s_0..s_kappa of a molecular measure on one half-line."""

    q: int
    kappa: int
    alpha: float
    side: str
    moments: tuple
    measure: Molecular

    @property
    def key(self) -> tuple:
        """(q, kappa, draw): each rung of a sequence ladder is one draw."""
        return (self.q, self.kappa, 0)


@dataclass(frozen=True)
class LMInput:
    """(L_0..L_{half(kappa-1)}, M_0..M_{half(kappa)}) drawn from the seed."""

    q: int
    kappa: int
    alpha: float
    side: str
    l: tuple
    m: tuple
    draw: int

    @property
    def key(self) -> tuple:
        return (self.q, self.kappa, self.draw)


def molecular_sequence(q: int, kappa: int, alpha: float, side: str,
                       rng: np.random.Generator) -> SequenceInput:
    """Atoms strictly inside the half-line, one in each of half(kappa)+4 equal
    bins of distance 0.2..3 from alpha, so no two cluster."""
    n_atoms = half(kappa) + 4
    edges = np.linspace(0.2, 3.0, n_atoms + 1)
    dist = edges[:-1] + np.diff(edges) * rng.random(n_atoms)
    atoms = alpha + dist if side == "right" else alpha - dist
    masses = np.array([random_pd(q, rng) for _ in range(n_atoms)])
    masses /= np.trace(masses.sum(axis=0)).real / q
    mu = Molecular(atoms=atoms, masses=masses)
    return SequenceInput(q=q, kappa=kappa, alpha=alpha, side=side,
                         moments=tuple(mu.moments(kappa)), measure=mu)


def solve_ladder_input(seed: int, i: int) -> SequenceInput:
    """Input number i of the solve-ladder stream: rung, side and alpha cycle."""
    q, kappa = LADDER[i % len(LADDER)]
    side = SIDES[(i // len(LADDER)) % 2]
    alpha = ALPHAS[i % len(ALPHAS)]
    rng = np.random.default_rng([seed, i])
    return molecular_sequence(q, kappa, alpha, side, rng)


def lm_input(seed: int, q: int, kappa: int, draw: int) -> LMInput:
    rng = np.random.default_rng([seed, q, kappa, draw])
    m = tuple(random_pd(q, rng) for _ in range(half(kappa) + 1))
    l = tuple(random_pd(q, rng) for _ in range(half(kappa - 1) + 1))
    return LMInput(q=q, kappa=kappa, alpha=0.5, side="right", l=l, m=m, draw=draw)


def lm_inputs(seed: int) -> list:
    return [lm_input(seed, q, kappa, draw) for q, top in LM_TOPS.items()
            for kappa in range(2, top + 1) for draw in range(LM_DRAWS)]


def zsweep_inputs(seed: int) -> list:
    """(problem, grid) pairs: complex points in both half-planes plus real
    points on the free side of the half-line."""
    out = []
    for k, (q, kappa, side) in enumerate(ZSWEEP_PROBLEMS):
        rng = np.random.default_rng([seed, 7, k])
        alpha = ALPHAS[k % len(ALPHAS)]
        problem = molecular_sequence(q, kappa, alpha, side, rng)
        re = alpha + 4.0 * rng.standard_normal(ZSWEEP_COMPLEX)
        im = (0.05 + 3.0 * rng.random(ZSWEEP_COMPLEX)) * rng.choice([-1.0, 1.0], ZSWEEP_COMPLEX)
        free = 0.1 + 4.0 * rng.random(ZSWEEP_REAL)
        real = alpha - free if side == "right" else alpha + free
        grid = np.concatenate([re + 1j * im, real + 0j])
        out.append((problem, grid))
    return out
