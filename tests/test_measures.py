import numpy as np
import pytest

from stieltjesmp import (
    PD, PSD, MolecularMeasure, ds_param, extremal, hausdorff_solvable, is_psd, measure_moments,
    psd_class, random_stieltjes_pd_sequence, recover_max, recover_min, reflect, sequence,
    stieltjes_transform,
)
from stieltjesmp.linalg import DEFAULT_TOL, min_eig_hermitian_part, hermitize, sqrt_psd
from stieltjesmp.measures import _merge_atoms
from stieltjesmp.moments import half, hankel, y_stack

from conftest import (
    LADDER, ladder_fixture, merge_atoms_loop, random_fixture, recover_residue, rel_err,
    residue_measure,
)


def test_stieltjes_transform_examples():
    delta = MolecularMeasure(atoms=(1.0,), masses=(np.eye(1),),
                             support_side="right", alpha=0.0)
    for z in (0.3 + 0.4j, -2.0):
        np.testing.assert_allclose(stieltjes_transform(delta, z), [[1 / (1 - z)]],
                                   atol=1e-14)
    two = MolecularMeasure(atoms=(0.0, 2.0), masses=(0.5 * np.eye(1), 0.5 * np.eye(1)),
                           support_side="right", alpha=0.0)
    z = -1.5 + 0.2j
    np.testing.assert_allclose(stieltjes_transform(two, z), [[(1 - z) / (z * (z - 2))]],
                               atol=1e-14)


def test_stieltjes_transform_rejects_atom():
    delta = MolecularMeasure(atoms=(1.0,), masses=(np.eye(1),),
                             support_side="right", alpha=0.0)
    with pytest.raises(ValueError):
        stieltjes_transform(delta, 1.0 + 0j)


def test_stieltjes_transform_empty_measure():
    empty = MolecularMeasure(atoms=(), masses=(), support_side="right", alpha=0.0)
    np.testing.assert_array_equal(stieltjes_transform(empty, 2j), np.zeros((1, 1)))


def test_measure_moments_examples():
    delta = MolecularMeasure(atoms=(1.0,), masses=(np.eye(1),),
                             support_side="right", alpha=0.0)
    np.testing.assert_allclose([m.item() for m in measure_moments(delta, 3)],
                               [1, 1, 1, 1])
    two = MolecularMeasure(atoms=(0.0, 2.0), masses=(0.5 * np.eye(1), 0.5 * np.eye(1)),
                           support_side="right", alpha=0.0)
    np.testing.assert_allclose([m.item() for m in measure_moments(two, 2)], [1, 1, 2])


def test_molecular_measure_validation():
    with pytest.raises(ValueError):
        MolecularMeasure(atoms=(-1.0,), masses=(np.eye(1),),
                         support_side="right", alpha=0.0)
    with pytest.raises(ValueError):
        MolecularMeasure(atoms=(1.0,), masses=(-np.eye(1),),
                         support_side="right", alpha=0.0)


@pytest.mark.parametrize("kwargs, message", [
    (dict(atoms=(1.0, 2.0), masses=(np.eye(2),), support_side="right", alpha=0.0),
     "atoms and masses must align"),
    (dict(atoms=(1.0, 2.0), masses=(np.eye(2), np.diag([1.0, -1.0])),
          support_side="right", alpha=0.0), "mass matrices must be PSD"),
    (dict(atoms=(1.0,), masses=(np.array([[1, 1], [0, 1]]),), support_side="right", alpha=0.0),
     "mass matrices must be PSD"),
    (dict(atoms=(1.0,), masses=(np.array([[np.nan, 0], [0, 1]]),),
          support_side="right", alpha=0.0), "matrix has non-finite entries"),
    (dict(atoms=(2.0, -0.25, -1.0), masses=(np.eye(1),) * 3, support_side="right", alpha=0.5),
     "atom -0.25 outside [0.5, inf)"),
    (dict(atoms=(0.0, 1.5), masses=(np.eye(1),) * 2, support_side="left", alpha=1.0),
     "atom 1.5 outside (-inf, 1.0]"),
])
def test_molecular_measure_errors(kwargs, message):
    # the first offending atom is named, as when each atom was checked in turn
    with pytest.raises(ValueError) as info:
        MolecularMeasure(**kwargs)
    assert str(info.value) == message


def test_molecular_measure_accepts_scalar_masses():
    mu = MolecularMeasure(atoms=(1.0, 3.0), masses=(2.0, 0.5), support_side="right", alpha=0.0)
    np.testing.assert_array_equal(measure_moments(mu, 2), [[[2.5]], [[3.5]], [[6.5]]])


def test_measure_moments_overflow_is_a_typed_error():
    mu = MolecularMeasure(atoms=(1.0, 1e200), masses=(np.eye(2), np.eye(2)),
                          support_side="right", alpha=0.0)
    assert np.isfinite(measure_moments(mu, 1)).all()
    with pytest.raises(OverflowError, match="power moment 2 "):
        measure_moments(mu, 3)


def test_recover_fixtures(f1, f2):
    mu = recover_min(f1)
    np.testing.assert_allclose(mu.atoms, [1.0], atol=1e-10)
    np.testing.assert_allclose(mu.masses[0], [[1.0]], atol=1e-10)
    mu = recover_max(f1)
    np.testing.assert_allclose(mu.atoms, [0.0], atol=1e-8)
    np.testing.assert_allclose(mu.masses[0], [[1.0]], atol=1e-6)
    mu = recover_min(f2)
    np.testing.assert_allclose(mu.atoms, [1.0], atol=1e-10)
    mu = recover_max(f2)
    np.testing.assert_allclose(mu.atoms, [0.0, 2.0], atol=1e-7)
    np.testing.assert_allclose([m.item() for m in mu.masses], [0.5, 0.5], atol=1e-6)


def test_recover_scalar_shifted_base():
    s = sequence([1.0, 3.0], alpha=2.0)
    mu = recover_min(s)
    np.testing.assert_allclose(mu.atoms, [3.0], atol=1e-10)
    np.testing.assert_allclose(mu.masses[0], [[1.0]], atol=1e-10)
    s = sequence([1.0, 2.0], alpha=1.0)
    mu = recover_max(s)
    np.testing.assert_allclose(mu.atoms, [1.0], atol=1e-8)
    np.testing.assert_allclose(mu.masses[0], [[1.0]], atol=1e-6)


def test_recover_left_mirror(f3):
    mu_min, mu_max = recover_min(f3), recover_max(f3)
    np.testing.assert_allclose(mu_min.atoms, [0.0], atol=1e-8)
    np.testing.assert_allclose(mu_max.atoms, [-1.0], atol=1e-10)
    assert all(a <= f3.alpha + 1e-9 for a in np.concatenate([mu_min.atoms, mu_max.atoms]))


@pytest.mark.parametrize("side", ["right", "left"])
def test_recover_checks_the_index(side):
    s = random_stieltjes_pd_sequence(q=2, kappa=4, alpha=0.5, side=side, seed=2)
    wall, free = (recover_min, recover_max) if side == "right" else (recover_max, recover_min)
    for recover in (recover_min, recover_max):
        for m in (-1, s.kappa + 1):
            with pytest.raises(ValueError, match=f"index m={m} outside 0..kappa=4"):
                recover(s, m)
    # m = 0: the wall extremal is B_0 D_0^{-1} = 0; the free one is s_0 at alpha
    with pytest.raises(ValueError, match=f"at m=0 the .* extremal on the {side} half-line"):
        wall(s, 0)
    mu = free(s, 0)
    assert mu.atoms.tolist() == [s.alpha]
    np.testing.assert_array_equal(mu.masses[0], s[0])


def test_recovered_transforms_match_extremals():
    rng = np.random.default_rng(31)
    for i in range(8):
        s = ladder_fixture(i)
        s_min, s_max = extremal(s)
        mu_min, mu_max = recover_min(s), recover_max(s)
        for _ in range(10):
            z = complex(rng.standard_normal(), rng.standard_normal() + 1e-2)
            got = stieltjes_transform(mu_min, z)
            assert rel_err(got, s_min(z)) < 1e-8
            got = stieltjes_transform(mu_max, z)
            assert rel_err(got, s_max(z)) < 1e-6


def test_moment_closure():
    for i in range(8):
        s = ladder_fixture(i)
        for mu in (recover_min(s), recover_max(s)):
            moms = measure_moments(mu, s.kappa)
            for j in range(s.kappa):
                assert rel_err(moms[j], s[j]) < 1e-8
            # final moment bounded by s_kappa in the Loewner order
            slack = s[s.kappa] - moms[s.kappa]
            if s.side == "left" and s.kappa % 2 == 1:
                slack = -slack
            lam = min_eig_hermitian_part(hermitize(slack))
            assert lam > -1e-8 * (1 + np.linalg.norm(s[s.kappa]))


def test_atoms_on_the_half_line():
    for i in range(8):
        s = ladder_fixture(i)
        for mu in (recover_min(s), recover_max(s)):
            for x in mu.atoms:
                if s.side == "right":
                    assert x >= s.alpha - 1e-9
                else:
                    assert x <= s.alpha + 1e-9
            for m in mu.masses:
                assert is_psd(m)


def test_equality_cases(f1, f2):
    # F1 lower measure matches s_1 exactly; F2 upper measure matches s_2
    mu = recover_min(f1)
    np.testing.assert_allclose(measure_moments(mu, 1)[1], [[1.0]], atol=1e-10)
    mu = recover_max(f2)
    np.testing.assert_allclose(measure_moments(mu, 2)[2], [[2.0]], atol=1e-6)


def test_residue_route_agrees_with_pencil_transport():
    for i in (0, 1, 3, 4):
        s = ladder_fixture(i)
        exact = recover_max(s) if s.side == "right" else recover_min(s)
        approx = recover_residue(s)
        assert len(exact.atoms) == len(approx.atoms)
        for xa, xb, ma, mb in zip(exact.atoms, approx.atoms, exact.masses, approx.masses):
            assert abs(xa - xb) < 1e-6
            assert rel_err(ma, mb) < 1e-4


def test_hausdorff_scalar_examples():
    s = sequence([1.0, 0.5])
    assert hausdorff_solvable(s, 0.0, 1.0).solvable
    s = sequence([1.0, 2.0])
    assert not hausdorff_solvable(s, 0.0, 1.0).solvable
    s = sequence([1.0])
    rep = hausdorff_solvable(s, 0.0, 1.0)
    assert rep.solvable and rep.parity == "even"


def test_hausdorff_rejects_bad_interval():
    with pytest.raises(ValueError):
        hausdorff_solvable(sequence([1.0]), 1.0, 0.0)


def test_hausdorff_odd_decomposition():
    # odd case: the interval verdict equals the conjunction of the two
    # one-sided problems
    rng = np.random.default_rng(32)
    for trial in range(20):
        kappa = 2 * rng.integers(0, 2) + 1
        q = int(rng.integers(1, 3))
        mats = [rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
                for _ in range(kappa + 1)]
        mats = [0.5 * (m + m.conj().T) + (1.5 - trial % 3) * np.eye(q) for m in mats]
        s = sequence(mats, alpha=0.0)
        rep = hausdorff_solvable(s, 0.0, 1.0)
        assert rep.one_sided is not None
        assert rep.solvable == (rep.one_sided["right"] and rep.one_sided["left"])


def test_hausdorff_even_block():
    s = sequence([1.0, 0.5, 0.3])
    rep = hausdorff_solvable(s, 0.0, 1.0)
    # -alpha*beta*H_0 + (alpha+beta)K_0 - Ktilde_0 = 0.5 - 0.3 >= 0
    assert rep.solvable
    s = sequence([1.0, 0.5, 0.6])
    assert not hausdorff_solvable(s, 0.0, 1.0).solvable


# Per-atom reference loops for the Hankel pencil and the pencil transported
# from the shifted sequence, merged by conftest's merge_atoms_loop: the
# stacked merge must reproduce that loop bit for bit, and the two pencils are
# an independent oracle for the string rules the recovery reads.

def _merge_atoms_loop(atoms, masses, alpha):
    return merge_atoms_loop(atoms, masses, alpha, drop_tol=DEFAULT_TOL.mass_drop)


def _pencil_loop(seq, m):
    n = half(m - 1)
    root_inv = np.linalg.inv(sqrt_psd(hankel(seq, n)))
    pencil = hermitize(root_inv @ hankel(seq.shifted, n) @ root_inv.conj().T)
    mu_vals, vecs = np.linalg.eigh(pencil)
    g = y_stack(seq, 0, n).conj().T @ root_inv.conj().T @ vecs
    atoms, masses = [], []
    for k, mu_k in enumerate(mu_vals):
        col = g[:, k:k + 1]
        x = seq.alpha + mu_k if seq.side == "right" else seq.alpha - mu_k
        atoms.append(float(x))
        masses.append(col @ col.conj().T)
    return _merge_atoms_loop(atoms, masses, seq.alpha)


def _transported_loop(seq, m):
    q, a = seq.q, seq.alpha
    if half(m) == 0:
        return [a], [seq[0]]
    atoms, masses = [], []
    total = np.zeros((q, q), dtype=complex)
    for x, mass in zip(*_pencil_loop(seq.shifted, 2 * half(m) - 1)):
        transported = np.asarray(mass) / abs(x - a)
        atoms.append(x)
        masses.append(transported)
        total = total + transported
    w, v = np.linalg.eigh(hermitize(seq[0] - total))
    atoms.append(a)
    masses.append((v * np.clip(w, 0.0, None)) @ v.conj().T)
    return _merge_atoms_loop(atoms, masses, a)


def test_recovered_measures_match_the_per_atom_loops():
    for i in range(len(LADDER)):
        for s in (ladder_fixture(i), reflect(ladder_fixture(i))):
            pencil, transported = _pencil_loop(s, s.kappa), _transported_loop(s, s.kappa)
            lower, upper = (pencil, transported) if s.side == "right" else (transported, pencil)
            for mu, (atoms, masses) in ((recover_min(s), lower), (recover_max(s), upper)):
                assert len(mu.atoms) == len(atoms)
                for got, want in zip(mu.atoms, atoms):
                    assert abs(got - want) <= 1e-10 * (1 + abs(want))
                for got, want in zip(mu.masses, masses):
                    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_clustered_atoms_merge_like_the_loop():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((3, 2, 1)) + 1j * rng.standard_normal((3, 2, 1))
    masses = g @ g.conj().swapaxes(-1, -2)
    atoms = [2.0, 1.0 + 1e-9, 1.0]
    got_a, got_m = _merge_atoms(atoms, masses, 0.0)
    want_a, want_m = _merge_atoms_loop(atoms, list(masses), 0.0)
    assert len(got_a) == 2 and 1.0 < got_a[0] < 1.0 + 1e-9
    np.testing.assert_array_equal(got_a, want_a)
    np.testing.assert_array_equal(got_m, want_m)


def test_string_rules_merge_to_the_recovered_measures():
    # at every index, the partial fractions of each extremal, merged (here and
    # by the loop), are the measure recover_min / recover_max return, and it
    # has the moments s_0..s_{m-1}
    for i in range(len(LADDER)):
        for s in (ladder_fixture(i), reflect(ladder_fixture(i))):
            for m in range(1, s.kappa + 1):
                for ext, mu in zip(extremal(s, m), (recover_min(s, m), recover_max(s, m))):
                    residues = ext.residues.reshape(-1, s.q, s.q)
                    atoms, masses = _merge_atoms(ext.atoms, residues, s.alpha)
                    np.testing.assert_array_equal(mu.atoms, atoms)
                    np.testing.assert_array_equal(mu.masses, masses)
                    want_a, want_m = _merge_atoms_loop(list(ext.atoms), list(residues), s.alpha)
                    np.testing.assert_array_equal(mu.atoms, want_a)
                    np.testing.assert_array_equal(mu.masses, want_m)
                    for got, want in zip(measure_moments(mu, m - 1), s.moments):
                        assert rel_err(got, want) < 1e-8


@pytest.mark.parametrize("q, kappa", [(1, 12), (2, 9)])
def test_recovery_keeps_the_moments_of_ill_conditioned_sequences(q, kappa):
    # Hankel pencils overflowed here (q=1) or put an atom near 3e30 (q=2)
    s = random_fixture(q=q, kappa=kappa, alpha=0.5, seed=1, max_cond=None)
    for mu in (recover_min(s), recover_max(s)):
        assert np.all(np.abs(mu.atoms) < 1e3)
        # the masses are the rule's Gram sums, not rebuilt: PSD without a clip
        assert {psd_class(mass) for mass in mu.masses} <= {PD, PSD}
        for got, want in zip(measure_moments(mu, kappa - 1), s.moments):
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_recovery_after_extremal_factors_nothing(monkeypatch):
    # the measures are the cached string rules, sorted and summed: once
    # extremal(s, m) has built them, recovery makes no LAPACK call
    seqs = [t for i in range(len(LADDER)) for t in (ladder_fixture(i), reflect(ladder_fixture(i)))]
    for s in seqs:
        for m in range(1, s.kappa + 1):
            extremal(s, m)

    def no_lapack(*args, **kwargs):
        raise AssertionError("LAPACK called during recovery")

    for name in ("eigh", "eigvalsh", "cholesky", "inv"):
        monkeypatch.setattr(np.linalg, name, no_lapack)
    for s in seqs:
        for m in range(1, s.kappa + 1):
            for mu in (recover_min(s, m), recover_max(s, m)):
                assert len(mu.atoms) == len(mu.masses) > 0


def test_the_free_end_has_one_node_at_alpha_with_the_rigid_motion_mass():
    # the q rigid motions of a free string are the vectors (R_j^* c)_j, so
    # the sum of their q residues g_k g_k^* is (M_0 + ... + M_{half(m)})^{-1};
    # the rule gives it as one node at alpha exactly, and every recovered
    # mass is PSD
    for i in range(len(LADDER)):
        for s in (ladder_fixture(i), reflect(ladder_fixture(i))):
            ds = ds_param(s)
            for m in range(1, s.kappa + 1):
                lo, hi = extremal(s, m)
                free, mu = (hi, recover_max(s, m)) if s.side == "right" else (lo, recover_min(s, m))
                assert np.count_nonzero(free.atoms == s.alpha) == 1
                node = int(np.flatnonzero(mu.atoms == s.alpha)[0])
                assert node == (0 if s.side == "right" else len(mu.atoms) - 1)
                want = np.linalg.inv(sum(ds.m[:half(m) + 1]))
                assert np.linalg.norm(mu.masses[node] - want) <= 1e-12 * np.linalg.norm(want)
                for mass in np.concatenate([recover_min(s, m).masses, recover_max(s, m).masses]):
                    assert psd_class(mass) in (PD, PSD)


def test_residue_extrapolation_divergence_is_an_arithmetic_error():
    s = ladder_fixture(0)
    with pytest.raises(ArithmeticError, match="residue extrapolation diverged at atom"):
        residue_measure(s, s.kappa, lambda z: np.full((s.q, s.q), np.inf))
