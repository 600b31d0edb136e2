import itertools
import sys
import warnings

import numpy as np
import pytest

from stieltjesmp import (
    CONSTANT, MONIC, SCHUR_CONSTANT, DSParam, MolecularMeasure, MomentSequence, StieltjesPair,
    StieltjesParam, classify, difference_inverse, ds_param, dyukarev_quadruple, extremal,
    factorize_u, favard_pair, lft_solve, measure_moments, pair_max, pair_min, potapov_defect,
    potapov_defect_psd, random_pd, random_stieltjes_pd_sequence, real_zeros, recover_max,
    recover_min, reflect, resolvent_u, schur_rotation, seq_from_ds, sequence, shift_sequence,
    side_sign, stieltjes_param, stieltjes_quadruple, weyl_interval,
)
from stieltjesmp.linalg import freeze
from stieltjesmp.moments import (
    _cholesky_hhats, _interlaced, half, hankel, hhats, monic_rows, q_values, schur_complement,
    y_stack, z_stack,
)
from stieltjesmp import orthopoly, params, solutions
from stieltjesmp.params import chain_stacks
from stieltjesmp.solutions import string_rule

from conftest import (
    alternating_signs, block_shift, column_E, first_block_column, ladder_fixture, resolvent_R,
    route_cases, shat_matrix, u_shift_vector, writeable_arrays,
)


def test_hankel_pack_scalar(f2):
    np.testing.assert_allclose(hankel(f2, 1), [[1, 1], [1, 2]], atol=1e-14)
    np.testing.assert_allclose(hhats(f2)[0][1], [[1.0]], atol=1e-14)
    np.testing.assert_allclose(hhats(f2)[0][0], [[1.0]], atol=1e-14)


def test_hankel_pack_trivial():
    s = sequence([5.0])
    np.testing.assert_allclose(hankel(s, 0), [[5.0]])
    np.testing.assert_allclose(hhats(s)[0][0], [[5.0]])


def test_hankel_gather_matches_the_block_loop():
    s = ladder_fixture(4)
    for seq in (s, list(s.moments)):
        for offset in (0, 1, 2):
            n = half(s.kappa - offset)
            want = np.empty(((n + 1) * s.q, (n + 1) * s.q), dtype=complex)
            for j in range(n + 1):
                for k in range(n + 1):
                    want[j * s.q:(j + 1) * s.q, k * s.q:(k + 1) * s.q] = s[j + k + offset]
            np.testing.assert_array_equal(hankel(seq, n, offset), want)


def test_schur_complement_zero_middle():
    np.testing.assert_allclose(hhats(sequence([1.0, 0.0, 1.0]))[0][1], [[1.0]], atol=1e-14)


def test_shift_sequence_examples():
    s = sequence([1.0, 1.0], alpha=0.0)
    np.testing.assert_allclose(shift_sequence(s)[0], [[1.0]])
    s = sequence([1.0, 3.0], alpha=2.0)
    np.testing.assert_allclose(shift_sequence(s)[0], [[1.0]])
    s = sequence([1.0, -1.0], alpha=0.0, side="left")
    np.testing.assert_allclose(shift_sequence(s)[0], [[1.0]])


def test_a_misspelled_side_raises_everywhere_it_is_read():
    # every reader of a side tag goes through side_sign: "Right" built the
    # left chain and the left atoms, and the measure skipped its atom check
    assert side_sign("right") == 1.0 and side_sign("left") == -1.0
    for build in (lambda: side_sign("up"), lambda: sequence([1.0, 1.0], side="Right")):
        with pytest.raises(ValueError, match="side must be 'right' or 'left'"):
            build()
    one = (np.eye(1),)
    with pytest.raises(ValueError, match="side must be"):
        DSParam(q=1, alpha=0.0, side="Right", l=one, m=one + one)
    with pytest.raises(ValueError, match="side must be"):
        StieltjesParam(q=1, alpha=0.0, side="up", values=one + one)
    with pytest.raises(ValueError, match="side must be"):
        StieltjesPair(kind=CONSTANT, side="up", phi=np.eye(1), psi=np.eye(1))
    with pytest.raises(ValueError, match="side must be"):
        StieltjesPair(kind=SCHUR_CONSTANT, side="up", f=np.eye(1))
    for pair in (pair_min, pair_max):
        with pytest.raises(ValueError, match="side must be"):
            pair(1, "up")
    with pytest.raises(ValueError, match="side must be"):
        schur_rotation(1, "up")
    for atoms, masses in (((-3.0,), one), ((), ())):   # an empty measure too
        with pytest.raises(ValueError, match="side must be"):
            MolecularMeasure(atoms=atoms, masses=masses, support_side="Right", alpha=0.0)


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
        n = half(s.kappa)
        v = alternating_signs(s.q, n)
        np.testing.assert_allclose(hankel(t, n), v @ hankel(s, n) @ v.conj().T, atol=1e-10)
        hs, ht = hhats(s)[0][n], hhats(t)[0][n]
        np.testing.assert_allclose(ht, hs, atol=1e-9 * (1 + np.linalg.norm(hs)))


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
    from stieltjesmp.moments import lower_triangular_S, y_stack
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
        n = half(s.kappa - 1)
        q = s.q
        lhs = first_block_column(q, n) @ z_stack(s, 0, n)
        r_inv = np.eye((n + 1) * q) - s.alpha * block_shift(q, n)
        rhs = r_inv @ hankel(s, n) - block_shift(q, n) @ hankel(s.shifted, n)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9 * (1 + np.linalg.norm(rhs)))


@pytest.mark.parametrize("moments, want, shift_hermitian", [
    # s0 is visibly not Hermitian, but ||H - H^*|| sits far below the
    # tolerance scaled by ||H||, which the large s2 dominates
    ([[[1.0, 0.5], [0.0, 1.0]], 10 * np.eye(2), 1e10 * np.eye(2)], ("NND", "NO"), True),
    # lower triangles PD on the shifted side
    ([[[1.0, 0.0], [0.5, 1.0]], [[2.0, 0.0], [0.3, 1.0]], [[5.0, 0.0], [0.2, 3.0]]],
     ("NO", "NO"), False),
    # lower triangles PD on both sides
    ([[[1.0, 5.0], [0.0, 1.0]], [[2.0, 4.0], [0.3, 1.0]], [[30.0, 9.0], [1.0, 10.0]]],
     ("NO", "NO"), False),
])
def test_non_hermitian_moments_keep_the_pinv_schur_complements(moments, want, shift_hermitian):
    # each moment is tested for symmetry at its own scale before a Cholesky
    # factor is taken, so a side with a non-Hermitian moment keeps the values
    # of the pinv route and the sequence keeps its class
    s = sequence([np.array(m, dtype=complex) for m in moments])
    c = classify(s)
    assert (c.hankel, c.stieltjes) == want
    for side in (s,) if shift_hermitian else (s, s.shifted):
        assert _cholesky_hhats(side) is None
        for n, v in enumerate(hhats(side)[0]):
            np.testing.assert_array_equal(v, schur_complement(side, n))


def test_non_finite_schur_complements_are_rejected():
    # the pinv Schur complement 1 - 1e300 * 1e300 * 1e300 overflows; the
    # Hankel data are checked finite where they are built
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ValueError, match="matrix has non-finite entries"):
            classify(sequence([1e-300, 1e300, 1.0]))


@pytest.mark.parametrize("moments, want", [
    ([1.0, 1.0, 2.0, 3.0, 7.0], [3, 2]),       # the shifted H_1 is indefinite
    ([1.0, 0.0, 1.0], [2, 1]),                 # the shifted s_0 = 0 is singular
    ([3.0, 6.0, 14.0, 36.0, 98.0], [5]),       # delta_1 + delta_2 + delta_3: both sides factor
], ids=["moments0", "moments1", "moments2"])
def test_classify_classes_each_schur_complement_once(monkeypatch, moments, want):
    # one batched class pass over the Cholesky values of both sides, then
    # one over the pinv values of each side that falls back; none on the
    # interlaced Q_j
    import stieltjesmp.moments as mod
    calls, psd_classes = [], mod._psd_classes

    def counted(stack):
        calls.append(len(stack))
        return psd_classes(stack)

    monkeypatch.setattr(mod, "_psd_classes", counted)
    classify(sequence(moments))
    assert calls == want


@pytest.mark.parametrize("moments", [[3.0, 6.0, 14.0, 36.0, 98.0], [1.0, 1.0, 1.0, 1.0, 1.0]])
def test_hhats_after_classify_factors_nothing_again(monkeypatch, moments):
    # both routes are cached per sequence: after classify, hhats of either
    # side takes no Cholesky factor and no pinv, here on a sequence whose
    # sides both factor and on a rank-one one whose sides both take the pinv
    import stieltjesmp.moments as mod

    def refactored(*args):
        raise AssertionError("a Hankel block was factored again")

    s = sequence(moments)
    classify(s)
    qs = q_values(s)
    monkeypatch.setattr(np.linalg, "cholesky", refactored)
    monkeypatch.setattr(mod, "_pinv", refactored)
    for k, side in enumerate((s, s.shifted)):
        assert hhats(side)[0].tobytes() == qs[k::2].tobytes()


@pytest.mark.parametrize("q", [1, 2, 3])
def test_block_stacks_are_the_moments_stacked_one_by_one(q):
    # y_stack and z_stack reshape the moment stack; they keep the shape and
    # the bits of np.vstack and np.hstack, on a sequence and on a list
    rng = np.random.default_rng(q)
    s = sequence(list(rng.standard_normal((6, q, q)) + 1j * rng.standard_normal((6, q, q))))
    for seq in (s, list(s.moments)):
        for j, k in itertools.combinations_with_replacement(range(6), 2):
            mats = [seq[i] for i in range(j, k + 1)]
            for got, want in ((y_stack(seq, j, k), np.vstack(mats)),
                              (z_stack(seq, j, k), np.hstack(mats))):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_one_class_pass_keeps_each_sides_own_hhats():
    # q_values and classify class the Cholesky values of both sides in one
    # pass, then apply hhats' rule per side: the Q_j and their classes are
    # the interlace of hhats of each side alone, bit for bit
    for s, want in route_cases():
        def fresh():
            return MomentSequence(q=s.q, alpha=s.alpha, side=s.side, moments=s.moments)

        alone = fresh()
        values = np.empty_like(s.moments)
        classes = np.empty(s.kappa + 1, dtype=object)
        values[0::2], classes[0::2] = hhats(alone)
        values[1::2], classes[1::2] = hhats(alone.shifted)
        assert stieltjes_param(fresh()).values.tobytes() == values.tobytes()
        fused = fresh()
        assert (classify(fused).hankel, classify(fused).stieltjes) == want
        assert list(_interlaced(fused)[1]) == list(classes)


def test_potapov_defect_fixture(f1):
    # the two extremal transforms of F1 pass, junk values fail
    for s_fun in (lambda z: 1.0 / (1.0 - z), lambda z: -1.0 / z):
        for z in (1j, 2j, -1 + 0.5j):
            val = np.array([[s_fun(z)]])
            assert potapov_defect_psd(f1, val, z)
    assert not potapov_defect_psd(f1, np.array([[0.0]]), 1j)


@pytest.mark.parametrize("side", ["right", "left"])
def test_potapov_defect_at_kappa_zero(side):
    # one moment: the shifted matrix is its q x q corner alone; delta_0 and
    # the one-atom measure at +-1 solve the problem, twice delta_0 does not
    s = sequence([1.0], side=side)
    atom = 1.0 if side == "right" else -1.0
    for z0 in (1j, 2j, -1 + 0.5j, 0.3 + 3j):
        z = z0 if side == "right" else z0.conjugate()
        base, shift = potapov_defect(s, np.array([[-1.0 / z]]), z)
        assert base.shape == (2, 2) and shift.shape == (1, 1)
        for val in (-1.0 / z, 1.0 / (atom - z)):
            assert potapov_defect_psd(s, np.array([[val]]), z)
        assert not potapov_defect_psd(s, np.array([[-2.0 / z]]), z)


def test_potapov_defect_rejects_real_z(f1):
    with pytest.raises(ValueError, match="only defined off the real axis"):
        potapov_defect_psd(f1, np.array([[1.0]]), 0.5)


def lm_fixture(q: int, kappa: int, seed: int) -> DSParam:
    """An (L, M) pair built directly from random PD values, not from moments."""
    rng = np.random.default_rng(seed)
    m = tuple(random_pd(q, rng) for _ in range(half(kappa) + 1))
    l = tuple(random_pd(q, rng) for _ in range(half(kappa - 1) + 1))
    return DSParam(q=q, alpha=0.5, side="right", l=l, m=m)


def test_derived_objects_are_cached():
    s = ladder_fixture(3)
    for build in (classify, stieltjes_param, ds_param, dyukarev_quadruple,
                  stieltjes_quadruple):
        assert build(s) is build(s)
    assert chain_stacks(ds_param(s)) is chain_stacks(ds_param(s))
    for side in (s, s.shifted):
        assert hhats(side) is hhats(side)
        assert monic_rows(side) is monic_rows(side)
    # the rule is cached on the (L, M) pair, also on one that no sequence made
    d = lm_fixture(q=2, kappa=5, seed=3)
    for m in range(1, 6):
        for wall in (False, True):
            assert string_rule(d, m, wall) is string_rule(d, m, wall)
    # the extremals of every call hold the one cached Rule of their end, and
    # lft_solve of the trivial pairs reads that very Rule
    u = resolvent_u(s)
    for ext, again in zip(extremal(s), extremal(s)):
        rule = string_rule(ds_param(s), s.kappa, ext.bd)
        assert ext.rule is again.rule is rule
        assert ext.atoms is rule.atoms and ext.residues is rule.residues
        pair = (pair_min if ext.bd else pair_max)(s.q, s.side)   # the wall's pair is (0, I)
        lft_solve(u, pair, s.alpha + 1j)
        assert pair._rules[ds_param(s)][s.kappa] is rule
    # the read-only walk reaches a rule's nodes (on a throwaway (L, M))
    ext = solutions.ExtremalSolution(lm_fixture(q=1, kappa=2, seed=0), 2, True)
    ext.rule.nodes.setflags(write=True)
    assert writeable_arrays(ext) == ["<0: ExtremalSolution>.rule.nodes"]
    # U is a view of (L, M): lft_solve reads u.ds and u.m alone, and the
    # polynomial is expanded once, at first use
    assert u.ds is ds_param(s) and "poly" not in vars(u) and u.poly is u.poly


def test_monic_rows_hold_the_one_hankel_inverse(monkeypatch):
    # once the rows are cached, favard_pair reads them and inverts nothing
    # larger than q x q; the quadruple, read off the chain, inverts only q x q
    # leading coefficients (one stack per lead, at the first family that
    # needs it) and the Cholesky factors of (L, M) (one stack, cached on the
    # pair, which the first family builds to refuse an (L, M) not PD), and
    # difference_inverse, a sum over the chain, inverts nothing
    s = random_stieltjes_pd_sequence(q=2, kappa=5, alpha=0.5, seed=4)
    rows = monic_rows(s), monic_rows(s.shifted)
    inv, sizes = np.linalg.inv, []

    def spy(a):
        sizes.append(np.shape(a)[-1])
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", spy)
    quad = stieltjes_quadruple(s)
    n_gate = len(sizes)
    quad.p, quad.second, quad.p_shift, quad.phat
    assert len(sizes) == n_gate + 3
    favard_pair(s)
    n_inv = len(sizes)
    for m in range(s.kappa + 1):
        difference_inverse(s, m, s.alpha - 1.0 + 0.3j)
    assert sizes and max(sizes) == s.q and len(sizes) == n_inv
    assert monic_rows(s) is rows[0] and monic_rows(s.shifted) is rows[1]


def test_the_solve_pipeline_never_builds_monic_rows(monkeypatch):
    # every build layer of one solve, on a fresh sequence of each side, and
    # difference_inverse at every m: the quadruple, U and the difference
    # inverse read the chain stacks, so no Hankel block is inverted
    def no_rows(seq):
        raise AssertionError("monic_rows called")

    # raising=False: solutions does not import the rows, and a stub there
    # catches any future import
    for module in (orthopoly, params, solutions):
        monkeypatch.setattr(module, "monic_rows", no_rows, raising=False)
    for side in ("right", "left"):
        s = random_stieltjes_pd_sequence(q=2, kappa=5, alpha=0.5, side=side, seed=6)
        classify(s), stieltjes_param(s), ds_param(s)
        resolvent_u(s), factorize_u(s)(s.alpha + 1j), dyukarev_quadruple(s)
        real_zeros(stieltjes_quadruple(s).p[-1], MONIC)
        for ext in extremal(s):
            ext(s.alpha + 1j)
        weyl_interval(s, s.kappa, s.alpha + (-1.0 if side == "right" else 1.0))
        measure_moments(recover_min(s), s.kappa), measure_moments(recover_max(s), s.kappa)
        for m in range(s.kappa + 1):
            difference_inverse(s, m, s.alpha - 1.0 + 0.3j)


@pytest.mark.parametrize("i", [0, 1])   # ladder fixtures 0 and 1: right and left half-line
def test_one_solve_keeps_its_lapack_budget(monkeypatch, i):
    # the call sequence of one benchmark solve op on a fresh sequence.  The
    # budget: a cholesky for the Schur complements of the sequence and one
    # of its shift, one eigvalsh that classes both, one inv for Q -> (L, M),
    # one stacked inv of the leading coefficients of P, the one family the
    # solve reads, one stacked cholesky and inv of (L, M) for both string ends,
    # one eigh per end, one eigvalsh for the Weyl interval and the eigvals
    # of the top polynomial's companion.  A new factorization on this path
    # has to raise the pin here on purpose.
    t = ladder_fixture(i)
    names = ("cholesky", "inv", "eigh", "eigvalsh", "eigvals")
    counts = dict.fromkeys(names, 0)

    def counted(name, f):
        def call(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        return call

    for name in names:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    s = sequence(t.moments, alpha=t.alpha, side=t.side)
    classify(s), stieltjes_param(s), ds_param(s), resolvent_u(s), factorize_u(s)
    real_zeros(stieltjes_quadruple(s).p[-1], MONIC)
    sign = side_sign(s.side)
    for ext in extremal(s):
        for z in (s.alpha + 0.7 + 1.3j, s.alpha - 0.4 - 0.9j, s.alpha - 2.5 * sign, s.alpha - sign):
            ext(z)
    weyl_interval(s, s.kappa, s.alpha - sign)
    measure_moments(recover_min(s), s.kappa), measure_moments(recover_max(s), s.kappa)
    assert counts == {"cholesky": 3, "inv": 3, "eigh": 2, "eigvalsh": 2, "eigvals": 1}


def test_after_ds_param_the_solve_path_reads_no_moment_class(monkeypatch):
    # ds_param is the one Stieltjes-PD gate: once it is cached on a fresh
    # sequence, no builder classifies the moments or reads their Schur
    # complements again
    seqs = [sequence(t.moments, alpha=t.alpha, side=t.side)
            for t in map(ladder_fixture, range(10))]
    for s in seqs:
        ds_param(s)

    def no_class(seq):
        raise AssertionError("moments classified after ds_param")

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "stieltjesmp"]:
        for name in ("classify", "hhats"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, no_class)
    for s in seqs:
        stieltjes_quadruple(s), dyukarev_quadruple(s), resolvent_u(s), factorize_u(s)
        for ext in extremal(s):
            ext(s.alpha + 1j)
        weyl_interval(s, s.kappa, s.alpha + (-1.0 if s.side == "right" else 1.0))
        for m in range(1, s.kappa + 1):
            recover_min(s, m), recover_max(s, m)
        for m in range(s.kappa + 1):
            difference_inverse(s, m, s.alpha - 1.0 + 0.3j)


def test_every_array_the_solve_path_holds_is_read_only():
    # read-only at birth: every array held by a sequence (its cache and its
    # shift's included, the four families of its quadruple read), its (L, M)
    # pair with the cached chain and string rules, U after inverse_at, the
    # factor chain, both extremals, both recovered measures and four pairs is
    # read-only, and a pair built from the caller's writeable arrays holds
    # copies that a later write misses
    d_direct = lm_fixture(q=2, kappa=4, seed=2)
    for m in range(1, 5):
        for wall in (False, True):
            string_rule(d_direct, m, wall)
    held = [d_direct]
    for s in [ladder_fixture(i) for i in range(50)] + [reflect(ladder_fixture(i)) for i in range(50)]:
        stieltjes_param(s), q_values(s), monic_rows(s), monic_rows(s.shifted)
        quad = stieltjes_quadruple(s)   # a view: each family is built at its first read
        quad.p, quad.second, quad.p_shift, quad.phat
        dyukarev_quadruple(s), chain_stacks(ds_param(s))
        z = s.alpha + 1j
        for m in range(s.kappa + 1):
            u = resolvent_u(s, m)
            u.inverse_at(z)
            held += [u, factorize_u(s, m)]
            if m:
                held += [*extremal(s, m), recover_min(s, m), recover_max(s, m)]
        eye = np.eye(s.q, dtype=complex)   # complex: a pair could alias it with no cast
        given = {"phi": side_sign(s.side) * eye, "psi": eye.copy(), "f": 1j * eye}
        pairs = [pair_min(s.q, s.side), pair_max(s.q, s.side),
                 StieltjesPair(kind=CONSTANT, side=s.side, phi=given["phi"], psi=given["psi"]),
                 StieltjesPair(kind=SCHUR_CONSTANT, side=s.side, f=given["f"])]
        # a mixed pair's first point builds its rule: before the write, and
        # every point after it sums that rule
        values = [lft_solve(u, pair, z) for pair in pairs]
        for a in given.values():
            a[...] = np.nan
        for pair in pairs[2:]:
            assert np.isfinite(pair.phi).all() and np.isfinite(pair.psi).all()
        assert all(np.array_equal(lft_solve(u, pair, z), v) for pair, v in zip(pairs, values))
        held += [s, ds_param(s), *pairs]
    assert writeable_arrays(*held) == []
    # matrix_stack's rule: a frozen complex matrix is shared, not copied
    frozen = freeze(np.eye(2, dtype=complex))
    assert np.shares_memory(StieltjesPair(kind=CONSTANT, phi=frozen, psi=frozen).phi, frozen)


# the four forms a matrix sequence may be given in; the frozen one is shared
def _frozen(mats):
    a = np.array(mats, dtype=complex)
    a.setflags(write=False)
    return a


FORMS = {"tuple": tuple, "list": list, "writeable": lambda mats: np.array(mats, dtype=complex),
         "frozen": _frozen}


def _held(form, side):
    """(field, given input, q) for every sequence field of the four classes,
    each built from inputs of one form on one half-line."""
    t = ladder_fixture(3 if side == "right" else 4)   # q = 2, kappa = 4 and 3
    d = ds_param(t)
    given = {"moments": form(list(t.moments)), "scalars": form([1.0, 1.0, 2.0]),
             "values": form(list(stieltjes_param(t).values)), "l": form(list(d.l)),
             "m": form(list(d.m)), "masses": form([np.eye(2), np.diag([1.0, 0.0])])}
    atoms = np.array([3.0, 5.0]) * side_sign(side)
    built = {
        "moments": sequence(given["moments"], alpha=t.alpha, side=side).moments,
        "scalars": sequence(given["scalars"], side=side).moments,
        "values": StieltjesParam(q=2, alpha=t.alpha, side=side, values=given["values"]).values,
        "l": DSParam(q=2, alpha=t.alpha, side=side, l=given["l"], m=given["m"]).l,
        "m": DSParam(q=2, alpha=t.alpha, side=side, l=given["l"], m=given["m"]).m,
        "masses": MolecularMeasure(atoms=atoms, masses=given["masses"], support_side=side,
                                   alpha=0.0).masses,
    }
    for name, field in built.items():
        yield field, given[name], 1 if name == "scalars" else 2
    mu = MolecularMeasure(atoms=atoms, masses=given["masses"], support_side=side, alpha=0.0)
    yield mu.atoms, atoms, None


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("form", FORMS)
def test_every_held_sequence_is_one_frozen_stack(form, side):
    # moments, Q, (L, M) and the masses are read-only complex (K, q, q)
    # stacks, the atoms a read-only float (K,) array, whatever form they were
    # given in; no field is an alias of an array its caller can still write,
    # and a frozen stack is taken as it is
    for field, given, q in _held(FORMS[form], side):
        assert isinstance(field, np.ndarray) and not field.flags.writeable
        if q is None:
            assert field.dtype == float and field.shape == (len(given),)
        else:
            assert field.dtype == complex and field.shape == (len(given), q, q)
        np.testing.assert_array_equal(field, np.reshape(given, field.shape))
        for arr in [given] + list(given):
            if isinstance(arr, np.ndarray) and arr.flags.writeable:
                assert not np.shares_memory(field, arr)
        if form == "frozen" and np.ndim(given) == 3:
            assert field is given


def test_a_bad_sequence_field_is_rejected_at_construction():
    # shape, finiteness and side are checked when each of the four classes is
    # built, not where a field is read
    eye, bad = np.eye(2), np.eye(2)
    bad[0, 1] = np.nan
    builds = {
        "moment": lambda mats, side: MomentSequence(q=2, alpha=0.0, side=side, moments=mats),
        "Q_j": lambda mats, side: StieltjesParam(q=2, alpha=0.0, side=side, values=mats),
        "M_n": lambda mats, side: DSParam(q=2, alpha=0.0, side=side, l=(eye,), m=mats),
        "mass": lambda mats, side: MolecularMeasure(atoms=(1.0, 2.0), masses=mats,
                                                    support_side=side, alpha=0.0),
    }
    for what, build in builds.items():
        build((eye, eye), "right")
        with pytest.raises(ValueError, match=rf"{what} has shape \(2, 3\), expected \(2,2\)"):
            build((eye, np.ones((2, 3))), "right")
        with pytest.raises(ValueError, match="matrix has non-finite entries"):
            build((eye, bad), "right")
        with pytest.raises(ValueError, match="side must be"):
            build((eye, eye), "Right")
    with pytest.raises(ValueError, match="atom nan outside"):
        MolecularMeasure(atoms=(1.0, np.nan), masses=(eye, eye), support_side="right", alpha=0.0)


@pytest.mark.parametrize("n_l, n_m", [(3, 1), (0, 2), (2, 0), (0, 0)])
def test_ds_param_lengths_that_fit_no_kappa_are_rejected(n_l, n_m):
    # len(m) - len(l) must be 0 or 1 with len(m) >= 1: the misfits used to
    # build, and q_from_ds and seq_from_ds then raised a bare IndexError
    eye = np.eye(2)
    with pytest.raises(ValueError, match=f"len\\(l\\) = {n_l}, len\\(m\\) = {n_m}"):
        DSParam(q=2, alpha=0.0, side="right", l=(eye,) * n_l, m=(eye,) * n_m)


def test_lengths_that_fit_build_and_no_q_j_is_rejected():
    eye = np.eye(2)
    for n_l, n_m, kappa in ((0, 1, 0), (1, 1, 1), (1, 2, 2), (2, 2, 3)):
        d = DSParam(q=2, alpha=0.0, side="right", l=(eye,) * n_l, m=(eye,) * n_m)
        assert d.kappa == kappa and seq_from_ds(d).kappa == kappa
    with pytest.raises(ValueError, match="at least one Q_j required"):
        StieltjesParam(q=2, alpha=0.0, side="right", values=())


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
