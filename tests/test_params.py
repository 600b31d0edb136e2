import itertools
import re

import numpy as np
import pytest

from stieltjesmp import (
    CONSTANT, JTILDE, CanonicalHankelParam, DSParam, ExtremalSolution, MolecularMeasure,
    MomentSequence, ResolventU, StieltjesPair, StieltjesParam, StieltjesQuadruple,
    canonical_hankel_param, classify, difference_inverse, ds_from_q, ds_param,
    dyukarev_quadruple, extremal, factorize_u, favard_from_ds, favard_from_q, favard_pair,
    interval_point, leading_terms, lft_solve, measure_moments, pair_max, pair_min, q_from_ds,
    random_pd, recover_max, recover_min, reflect, random_stieltjes_pd_sequence, resolvent_u,
    schur_rotation, seq_from_canonical, seq_from_ds, seq_from_stieltjes_param, sequence,
    signature_matrix, stieltjes_param, stieltjes_quadruple, weyl_interval,
)
from stieltjesmp.moments import _cholesky_hhats, hhats, schur_complement
from stieltjesmp.params import _door, _seq_from_q_pinv
from stieltjesmp.solutions import string_rule

from conftest import (
    LADDER, ds_increments, favard_pair_row_col, fixture_draws, ladder_fixture, ordered_product,
    rel_err, route_cases, seq_from_canonical_loop, seq_from_q_pinv_loop, seq_rel_err,
)


def test_stieltjes_param_fixtures(f1, f2):
    np.testing.assert_allclose([v.item() for v in stieltjes_param(f1).values], [1, 1])
    np.testing.assert_allclose([v.item() for v in stieltjes_param(f2).values], [1, 1, 1])


def test_stieltjes_param_reflect_duality(f1, f3):
    # reflected sequence keeps the same parameter values
    np.testing.assert_allclose([v.item() for v in stieltjes_param(f3).values], [1, 1])
    for i in range(8):
        s = ladder_fixture(i)
        p, pt = stieltjes_param(s), stieltjes_param(reflect(s))
        for a, b in zip(p.values, pt.values):
            assert rel_err(a, b) < 1e-10


def test_seq_from_stieltjes_param_examples():
    p = stieltjes_param(sequence([1.0, 1.0]))
    s = seq_from_stieltjes_param(p)
    np.testing.assert_allclose([m.item() for m in s.moments], [1, 1])
    s = seq_from_stieltjes_param(stieltjes_param(sequence([1.0, 1.0, 2.0])))
    np.testing.assert_allclose([m.item() for m in s.moments], [1, 1, 2])
    # left side: s_1 = alpha s_0 - Q_1
    t = seq_from_stieltjes_param(stieltjes_param(sequence([1.0, -1.0], side="left")))
    np.testing.assert_allclose([m.item() for m in t.moments], [1, -1])


def test_canonical_hankel_fixture(f2):
    p = canonical_hankel_param(f2)
    np.testing.assert_allclose([v.item() for v in p.d], [1, 1])
    np.testing.assert_allclose([v.item() for v in p.c], [1])
    p0 = canonical_hankel_param(sequence([5.0]))
    np.testing.assert_allclose([v.item() for v in p0.d], [5])
    assert p0.c == ()


def test_favard_pair_fixtures(f2):
    p = favard_pair(f2)
    np.testing.assert_allclose([v.item() for v in p.a], [1])
    np.testing.assert_allclose([v.item() for v in p.b], [1, 1])
    p = favard_pair(sequence([2.0, 0.0]))
    np.testing.assert_allclose([v.item() for v in p.a], [0])
    np.testing.assert_allclose([v.item() for v in p.b], [2])


def test_favard_pair_reads_the_monic_rows():
    # A_n = r_n K_n r_n^* Hhat_n^{-1} from the cached rows against the
    # row/col formula with the oracle's own LU inverses
    seqs = [t for i in range(10) for t in (ladder_fixture(i), reflect(ladder_fixture(i)))]
    seqs += [sequence([1.0, 0.0, 1.0]),     # NND, as in CI
             random_stieltjes_pd_sequence(q=2, kappa=0, seed=1),
             random_stieltjes_pd_sequence(q=2, kappa=1, alpha=0.5, seed=1)]
    for s in seqs:
        got, want = favard_pair(s), favard_pair_row_col(s)
        assert (len(got.a), len(got.b)) == (len(want.a), len(want.b))
        for a, b in zip(got.a + got.b, want.a + want.b):
            assert rel_err(a, b) < 1e-12


def test_favard_product_identity():
    # D_n equals the ordered product of the B_j
    for i in (0, 1, 4, 5):
        s = ladder_fixture(i)
        fp = favard_pair(s)
        ch = canonical_hankel_param(s)
        prod = np.eye(s.q, dtype=complex)
        for n, b in enumerate(fp.b):
            prod = prod @ b if n else np.asarray(b, dtype=complex)
            assert rel_err(prod, ch.d[n]) < 1e-9


def test_ds_param_fixtures(f1, f2):
    d = ds_param(f1)
    np.testing.assert_allclose([v.item() for v in d.l], [1])
    np.testing.assert_allclose([v.item() for v in d.m], [1])
    d = ds_param(f2)
    np.testing.assert_allclose([v.item() for v in d.l], [1])
    np.testing.assert_allclose([v.item() for v in d.m], [1, 1])
    d = ds_param(sequence([1.0, 2.0], alpha=1.0))
    np.testing.assert_allclose([v.item() for v in d.m], [1])
    np.testing.assert_allclose([v.item() for v in d.l], [1])


def test_ds_param_matches_increment_definition():
    for i in (0, 3, 6, 7):
        s = ladder_fixture(i)
        d1, d2 = ds_param(s), ds_increments(s)
        for a, b in zip(list(d1.l) + list(d1.m), list(d2.l) + list(d2.m)):
            assert rel_err(a, b) < 1e-8


def test_ds_param_requires_pd():
    # indefinite (Q_1 = -1) and NND (Q_1 = 0) input; the builders that read
    # (L, M) through ds_param name the class with no check of their own, the
    # Stieltjes quadruple when it is asked for, not at a family's first read
    for moments in ([1.0, -1.0], [1.0, 0.0, 1.0]):
        for build in (ds_param, dyukarev_quadruple, stieltjes_quadruple, difference_inverse,
                      extremal, weyl_interval, recover_min, recover_max):
            with pytest.raises(ValueError, match="not alpha-Stieltjes positive definite"):
                build(sequence(moments))
    # the class is named before the index is checked, and before a point or K
    bad = sequence([1.0, -1.0])
    for build in (extremal, recover_min, recover_max, resolvent_u, factorize_u, leading_terms,
                  difference_inverse, lambda s, m: weyl_interval(s, m, 1.0),
                  lambda s, m: interval_point(s, m, None, 2.0)):
        with pytest.raises(ValueError, match="not alpha-Stieltjes positive definite"):
            build(bad, 5)


def test_one_precedence_gate_index_point_k(f1):
    # behind the gate: the index before the point, the point before K
    for m, x, message in ((5, 1.0, "index m=5 outside 1..kappa=1"),
                          (0, 1.0, "index m=0 outside 1..kappa=1"),
                          (1, 1.0, r"point 1.0 lies on the cut, the right half-line \[0.0, inf\)"),
                          (1, -1.0, "K must satisfy 0 <= K <= I")):
        with pytest.raises(ValueError, match=message):
            interval_point(f1, m, x, 2.0)
        if "K" not in message:
            with pytest.raises(ValueError, match=message):
                weyl_interval(f1, m, x)
    for build in (resolvent_u, factorize_u, leading_terms, difference_inverse,
                  recover_min, recover_max):
        with pytest.raises(ValueError, match="index m=2 outside 0..kappa=1"):
            build(f1, 2)


def test_an_index_that_is_not_an_integer_is_named():
    # 2.0 and 1.5 leaked "slice indices must be integers" on a fresh sequence,
    # and 2.0 passed once m = 2 was cached (2.0 == 2 as a key); True built U_1.
    # A numpy integer is an index
    s = random_stieltjes_pd_sequence(2, 4, seed=1)
    entries = (extremal, recover_min, recover_max, resolvent_u, factorize_u, leading_terms,
               difference_inverse, weyl_interval,
               lambda s, m: interval_point(s, m, None, 0.5 * np.eye(2)))
    for build in entries:
        for _ in range(2):   # fresh, then with m = 2 cached
            for m in (2.0, 1.5, True, np.float64(2), np.bool_(True), "2"):
                with pytest.raises(ValueError,
                                   match=re.escape(f"index m={m!r} is not an integer")):
                    build(s, m)
            build(s, np.int64(2))
    assert resolvent_u(s, np.int64(2)).m == 2


@pytest.mark.parametrize("view, low", [
    (lambda ds, m: ResolventU(ds, m), 0),
    (lambda ds, m: ExtremalSolution(ds, m, True), 1),
    (lambda ds, m: ExtremalSolution(ds, m, False), 1),
], ids=["ResolventU", "ExtremalSolution-wall", "ExtremalSolution-free"])
@pytest.mark.parametrize("m", [-1, 5, 2.0, True], ids=repr)
def test_a_view_of_lm_takes_the_index_rule_of_the_door(view, low, m):
    # ExtremalSolution(ds, -1, True) evaluated to 0 and took True as 1; at
    # kappa + 1 it leaked numpy's "operands could not be broadcast" and at 2.0
    # a TypeError.  A view of (L, M) refuses what _door refuses, as it words it
    s = random_stieltjes_pd_sequence(2, 4, seed=1)
    with pytest.raises(ValueError) as door:
        _door(s, m, low)
    with pytest.raises(ValueError, match=f"^{re.escape(str(door.value))}$"):
        view(ds_param(s), m)


_VIEWS = {
    "ResolventU": lambda ds, m: ResolventU(ds, m),
    "ExtremalSolution-wall": lambda ds, m: ExtremalSolution(ds, m, True),
    "ExtremalSolution-free": lambda ds, m: ExtremalSolution(ds, m, False),
    "StieltjesQuadruple": lambda ds, m: StieltjesQuadruple(ds),
}
_NOT_LM = {
    "MomentSequence": lambda: random_stieltjes_pd_sequence(2, 4, seed=1),
    "None": lambda: None,
    "tuple": lambda: (np.eye(2)[None], np.eye(2)[None]),
}


@pytest.mark.parametrize("m", [2, -1], ids=repr)
@pytest.mark.parametrize("given", list(_NOT_LM))
@pytest.mark.parametrize("view", list(_VIEWS))
def test_a_view_of_lm_takes_a_dsparam_alone(view, given, m):
    # ResolventU and ExtremalSolution took a MomentSequence (the index rule
    # read only its kappa) and their first evaluation leaked "'MomentSequence'
    # object has no attribute 'm'".  The argument is named at construction,
    # before the index rule
    ds = _NOT_LM[given]()
    with pytest.raises(ValueError, match=f"^ds is a {type(ds).__name__}, not a DSParam$"):
        _VIEWS[view](ds, m)


def test_an_lm_pair_that_is_not_pd_is_named_where_a_rule_is_built():
    # the string rule's Cholesky leaked numpy's "Matrix is not positive
    # definite" through ExtremalSolution and lft_solve; the message is
    # q_from_ds's, and U itself, a product of the factors, still evaluates
    d = DSParam(q=1, alpha=0.0, side="right", l=[[[1.0]]], m=[[[1.0]], [[-1.0]]])
    message = "^all L_n, M_n must be PD$"
    with pytest.raises(ValueError, match=message):
        q_from_ds(d)
    for bd in (True, False):
        with pytest.raises(ValueError, match=message):
            string_rule(d, 2, bd)
        with pytest.raises(ValueError, match=message):
            ExtremalSolution(d, 2, bd)
    u = ResolventU(d, 2)
    assert np.isfinite(u(1j)).all()
    eye = np.eye(1)
    for pair in (pair_min(1), pair_max(1), StieltjesPair(kind=CONSTANT, phi=eye, psi=eye)):
        with pytest.raises(ValueError, match=message):
            lft_solve(u, pair, 1j)


@pytest.mark.parametrize("family", ["p", "second", "p_shift", "phat"])
@pytest.mark.parametrize("m1", [0.0, -1.0], ids=["singular", "indefinite"])
def test_a_quadruple_of_an_lm_pair_that_is_not_pd_is_refused_at_first_read(m1, family):
    # a singular M_1 leaked numpy's "Singular matrix" at the first read of
    # p_shift or phat, and an indefinite one gave all four families with no
    # error; every family now reads the Cholesky factors of string_rule first
    quad = StieltjesQuadruple(DSParam(q=1, alpha=0.0, side="right", l=[[[1.0]]],
                                      m=[[[1.0]], [[m1]]]))
    with pytest.raises(ValueError, match="^all L_n, M_n must be PD$"):
        getattr(quad, family)


def test_empty_input_a_size_below_one_and_a_negative_kappa_are_named():
    # numpy's "cannot reshape array of size 0 into shape (0,0)" leaked from the
    # first three, and a negative kappa returned a kappa-0 sequence
    with pytest.raises(ValueError, match="at least one moment required"):
        sequence([])
    with pytest.raises(ValueError, match="size q=0 is not at least 1"):
        random_stieltjes_pd_sequence(0, 3)
    with pytest.raises(ValueError, match="L_n size q=0 is not at least 1"):
        DSParam(q=0, alpha=0.0, side="right", l=[], m=[np.zeros((0, 0))])
    for kappa in (-1, -5):
        with pytest.raises(ValueError, match=f"kappa={kappa} is negative"):
            random_stieltjes_pd_sequence(2, kappa)


_EYE = np.eye(2)[None]


def _named(message, call):
    return pytest.param(message, call, id=message)


@pytest.mark.parametrize("message, call", [
    _named("kappa=2.5 is not an integer", lambda: random_stieltjes_pd_sequence(2, 2.5)),
    _named("kappa=3.0 is not an integer", lambda: random_stieltjes_pd_sequence(2, 3.0)),
    _named("kappa=True is not an integer", lambda: random_stieltjes_pd_sequence(2, True)),
    _named("q=2.5 is not an integer", lambda: random_stieltjes_pd_sequence(2.5, 3)),
    _named("q=True is not an integer", lambda: random_stieltjes_pd_sequence(True, 3)),
    _named("moment size q=2.0 is not an integer",
           lambda: MomentSequence(q=2.0, alpha=0.0, side="right", moments=_EYE)),
    _named("Q_j size q=np.float64(2.0) is not an integer",
           lambda: StieltjesParam(q=np.float64(2), alpha=0.0, side="right", values=_EYE)),
    _named("L_n size q=1.5 is not an integer",
           lambda: DSParam(q=1.5, alpha=0.0, side="right", l=[], m=_EYE)),
    _named("L_n size q=False is not an integer",
           lambda: DSParam(q=False, alpha=0.0, side="right", l=[], m=_EYE)),
])
def test_a_size_that_is_not_an_integer_is_named(message, call):
    # a float or bool size leaked "'float' object cannot be interpreted as an
    # integer" (or passed as 1), where _door already refused such an m
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def _one_atom():
    return MolecularMeasure(atoms=[1.0], masses=_EYE, support_side="right", alpha=0.0)


@pytest.mark.parametrize("message, call", [
    _named("phi size q=2.0 is not an integer", lambda: pair_min(2.0)),
    _named("phi size q=np.float64(2.0) is not an integer", lambda: pair_max(np.float64(2))),
    _named("random PD matrix size q=2.0 is not an integer",
           lambda: random_pd(2.0, np.random.default_rng(0))),
    _named("random PD matrix size q=0 is not at least 1",
           lambda: random_pd(0, np.random.default_rng(0))),
    _named("Schur rotation size q=True is not an integer", lambda: schur_rotation(True)),
    _named("signature matrix size q=0 is not at least 1", lambda: signature_matrix(JTILDE, 0)),
    _named("up_to=2.5 is not an integer", lambda: measure_moments(_one_atom(), 2.5)),
    _named("up_to=True is not an integer", lambda: measure_moments(_one_atom(), True)),
    _named("up_to=-1 is negative", lambda: measure_moments(_one_atom(), -1)),
])
def test_every_size_and_count_takes_the_integer_rule(message, call):
    # pair_min, pair_max and random_pd leaked TypeError at q = 2.0, as did
    # schur_rotation at True; signature_matrix returned a 0 x 0 matrix at
    # q = 0, and measure_moments returned 4 moments up to 2.5, 2 up to True
    # and an empty stack up to -1
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


_ALPHA_HOLDERS = {
    "MomentSequence": lambda a: MomentSequence(q=2, alpha=a, side="right", moments=_EYE),
    "StieltjesParam": lambda a: StieltjesParam(q=2, alpha=a, side="right", values=_EYE),
    "DSParam": lambda a: DSParam(q=2, alpha=a, side="right", l=[], m=_EYE),
    "MolecularMeasure": lambda a: MolecularMeasure(atoms=[-5.0], masses=_EYE,
                                                   support_side="right", alpha=a),
    "sequence": lambda a: sequence([1.0, 0.5, 1.0], alpha=a),
}


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf, 1j, "0", True, np.bool_(False)],
                         ids=repr)
@pytest.mark.parametrize("holder", list(_ALPHA_HOLDERS))
def test_alpha_is_a_finite_real_number(holder, alpha):
    # nothing checked alpha: nan and inf were "matrix has non-finite entries"
    # later, 1j classed valid moments NO, "0" leaked numpy's UFuncTypeError,
    # True was taken as 1 and sequence() float()ed "0"; a MolecularMeasure at
    # alpha = nan took an atom at -5 for the right half-line
    with pytest.raises(ValueError, match=f"^{re.escape(f'alpha={alpha!r}')} is not a finite real"):
        _ALPHA_HOLDERS[holder](alpha)


@pytest.mark.parametrize("holder", list(_ALPHA_HOLDERS))
def test_alpha_is_held_as_a_float(holder):
    for alpha in (-6, np.int64(-7), np.float64(-5.5)):   # the measure's atom -5 lies right of each
        held = _ALPHA_HOLDERS[holder](alpha)
        assert type(held.alpha) is float and held.alpha == alpha


class _LMOnly:
    """A stand-in for a sequence that holds only the DSParam cached for it:
    ds_param finds the pair in the cache that derived keeps in __dict__, and
    any other read of the stand-in raises."""

    def __init__(self, seq):
        vars(self)[("ds_param",)] = ds_param(seq)

    def __getattr__(self, name):
        raise LookupError(f"the solve path read {name} off the sequence")


def _dump(obj) -> list:
    """The bytes of every array and the repr of every other leaf of a result,
    through tuples, lists, dicts and public instance attributes (no caches),
    in order."""
    if isinstance(obj, np.ndarray):
        return [repr((obj.dtype, obj.shape)).encode(), obj.tobytes()]
    if isinstance(obj, (tuple, list)):
        return [b for x in obj for b in _dump(x)]
    if isinstance(obj, dict):
        return [b for k, x in obj.items() for b in [repr(k).encode(), *_dump(x)]]
    if hasattr(obj, "__dict__"):
        return [b for k, x in vars(obj).items() if isinstance(k, str) and k[0] != "_"
                for b in [k.encode(), *_dump(x)]]
    return [repr(obj).encode()]


def _solve_path(s, k: int, q: int) -> dict:
    """The eleven entries of the solve path at m = k, and interval_point at
    its default point."""
    return {"resolvent_u": lambda: resolvent_u(s, k), "factorize_u": lambda: factorize_u(s, k),
            "leading_terms": lambda: leading_terms(s, k),
            "difference_inverse": lambda: difference_inverse(s, k),
            "extremal": lambda: extremal(s, k), "weyl_interval": lambda: weyl_interval(s, k),
            "interval_point": lambda: interval_point(s, k, None, 0.5 * np.eye(q)),
            "recover_min": lambda: recover_min(s, k), "recover_max": lambda: recover_max(s, k),
            "dyukarev_quadruple": lambda: dyukarev_quadruple(s),
            "stieltjes_quadruple": lambda: _read_families(stieltjes_quadruple(s))}


def _read_families(quad):
    """The quadruple with its four families read, in one order: a view builds
    each at its first read, and _dump sees the ones built."""
    quad.p, quad.second, quad.p_shift, quad.phat
    return quad


def test_the_solve_path_reads_lm_alone():
    # every entry gives the same bytes on a stand-in that holds (L, M) alone;
    # the one read past the door is the free mass s_0 at m = 0
    for i in range(50):
        for s in (ladder_fixture(i), reflect(ladder_fixture(i))):
            k, lm_only = s.kappa, _LMOnly(s)
            want, got = _solve_path(s, k, s.q), _solve_path(lm_only, k, s.q)
            for name in want:
                assert _dump(got[name]()) == _dump(want[name]()), name
            wall, free = (recover_min, recover_max) if s.side == "right" else \
                (recover_max, recover_min)
            with pytest.raises(ValueError, match="at m=0"):
                wall(lm_only, 0)
            with pytest.raises(LookupError, match="read moments"):
                free(lm_only, 0)


def test_ds_reflect_duality():
    for i in range(8):
        s = ladder_fixture(i)
        d, dt = ds_param(s), ds_param(reflect(s))
        for a, b in zip(list(d.l) + list(d.m), list(dt.l) + list(dt.m)):
            assert rel_err(a, b) < 1e-9


def test_ds_from_q_scalar():
    p = stieltjes_param(sequence([1.0, 1.0, 2.0]))
    d = ds_from_q(p)
    np.testing.assert_allclose([v.item() for v in d.l], [1])
    np.testing.assert_allclose([v.item() for v in d.m], [1, 1])
    # scalar Q = (4, 2): M_0 = 1/4, L_0 = (Q0 Q1^{-1}) Q1 (Q0 Q1^{-1})^* = 8
    from stieltjesmp import StieltjesParam
    p = StieltjesParam(q=1, alpha=0.0, side="right",
                       values=(np.array([[4.0]]), np.array([[2.0]])))
    d = ds_from_q(p)
    np.testing.assert_allclose(d.m[0].item(), 0.25)
    np.testing.assert_allclose(d.l[0].item(), 8.0)


def test_cross_maps_commute_and_invert():
    for i in range(10):
        s = ladder_fixture(i)
        p = stieltjes_param(s)
        d_direct = ds_increments(s)
        d_mapped = ds_from_q(p)
        for a, b in zip(list(d_direct.l) + list(d_direct.m),
                        list(d_mapped.l) + list(d_mapped.m)):
            assert rel_err(a, b) < 1e-9
        p_back = q_from_ds(d_mapped)
        for a, b in zip(p.values, p_back.values):
            assert rel_err(a, b) < 1e-9


def test_seq_from_ds_examples():
    d = DSParam(q=1, alpha=0.0, side="right",
                l=(np.array([[1.0]]),), m=(np.array([[1.0]]), np.array([[1.0]])))
    s = seq_from_ds(d)
    np.testing.assert_allclose([m.item() for m in s.moments], [1, 1, 2])


def test_seq_from_ds_degenerate_single_moment():
    # kappa = 0: only M_0 present, the sequence is just its inverse
    d = DSParam(q=1, alpha=0.0, side="right", l=(), m=(np.array([[1.0]]),))
    assert d.kappa == 0
    s = seq_from_ds(d)
    np.testing.assert_allclose([m.item() for m in s.moments], [1.0])


def test_pd_sequences_have_pd_hankel_blocks():
    # every Hankel block of a PD fixture is PD and its pseudoinverse is the
    # true inverse
    from stieltjesmp import PD, psd_class
    from stieltjesmp.linalg import _pinv
    from stieltjesmp.moments import half, hankel
    for i in (0, 1, 6, 7):
        s = ladder_fixture(i)
        for n in range(half(s.kappa) + 1):
            h = hankel(s, n)
            assert psd_class(h) == PD
            np.testing.assert_allclose(_pinv(h), np.linalg.inv(h),
                                       atol=1e-9 * (1 + np.linalg.norm(np.linalg.inv(h))))
        for n in range(half(s.kappa - 1) + 1):
            assert psd_class(hankel(s.shifted, n)) == PD


def test_seq_from_ds_is_pd():
    for seed in (0, 1, 2):
        from stieltjesmp import random_stieltjes_pd_sequence
        s = random_stieltjes_pd_sequence(q=2, kappa=5, seed=seed)
        assert classify(s).stieltjes == "PD"


def test_roundtrips_on_ladder():
    for i in range(10):
        s = ladder_fixture(i)
        assert seq_rel_err(s, seq_from_stieltjes_param(stieltjes_param(s))) < 1e-9
        assert seq_rel_err(s, seq_from_ds(ds_param(s))) < 1e-9
        ch = canonical_hankel_param(s)
        s4 = seq_from_canonical(ch, q=s.q, alpha=s.alpha, side=s.side)
        assert seq_rel_err(s, s4) < 1e-9


def test_favard_cross_identities():
    # closed products against the directly computed Favard pairs
    from stieltjesmp import shift_sequence
    for i in range(10):
        s = ladder_fixture(i)
        base, shifted = favard_from_q(stieltjes_param(s))
        base2, shifted2 = favard_from_ds(ds_param(s))
        direct = favard_pair(s)
        direct_sh = favard_pair(shift_sequence(s))
        for got in (base, base2):
            for a, b in zip(got.a, direct.a):
                assert rel_err(a, b) < 1e-8
            for a, b in zip(got.b, direct.b):
                assert rel_err(a, b) < 1e-8
        for got in (shifted, shifted2):
            for a, b in zip(got.a, direct_sh.a):
                assert rel_err(a, b) < 1e-8
            for a, b in zip(got.b, direct_sh.b):
                assert rel_err(a, b) < 1e-8


def test_favard_cross_scalar_examples(f1, f2, f3):
    base, shifted = favard_from_q(stieltjes_param(f2))
    np.testing.assert_allclose(base.b[1].item(), 1.0)   # Q_0^{-1} Q_2
    np.testing.assert_allclose(base.a[0].item(), 1.0)   # alpha + Q_1 Q_0^{-1}
    base, _ = favard_from_ds(ds_param(f1))
    np.testing.assert_allclose(base.a[0].item(), 1.0)   # alpha + M^{-1} L^{-1}
    base, _ = favard_from_ds(ds_param(f3))
    np.testing.assert_allclose(base.a[0].item(), -1.0)  # left: alpha - M^{-1} L^{-1}


def test_q_from_ds_is_the_ordered_product_formula():
    for i in range(len(LADDER)):
        d = ds_param(ladder_fixture(i))
        for j, v in enumerate(q_from_ds(d).values):
            n = j // 2
            k, mid = (n, np.linalg.inv(d.m[n])) if j % 2 == 0 else (n + 1, d.l[n])
            gi = np.linalg.inv(ordered_product((d.m[t] @ d.l[t] for t in range(k)), d.q))
            np.testing.assert_array_equal(v, gi.conj().T @ mid @ gi)


def test_ds_from_q_is_the_ordered_product_formula():
    # the running products G_n = Q_0^{-1} Q_1 ... Q_{2n-1} and
    # F_n = Q_0 Q_1^{-1} ... Q_{2n+1}^{-1} against each product formed afresh
    for i in range(len(LADDER)):
        p = stieltjes_param(ladder_fixture(i))
        qs, qi = p.values, [np.linalg.inv(v) for v in p.values]
        d = ds_from_q(p)
        for n, got in enumerate(d.m):
            g = ordered_product((x for t in range(n) for x in (qi[2 * t], qs[2 * t + 1])), p.q)
            want = g @ qi[2 * n] @ g.conj().T
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        for n, got in enumerate(d.l):
            f = ordered_product((x for t in range(n + 1) for x in (qs[2 * t], qi[2 * t + 1])), p.q)
            want = f @ qs[2 * n + 1] @ f.conj().T
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_cholesky_schur_complements_match_the_pinv_formula():
    for i in range(len(LADDER)):
        s = ladder_fixture(i)
        for side in (s, s.shifted):
            chol = _cholesky_hhats(side)
            assert chol is not None
            for n, got in enumerate(chol):
                np.testing.assert_array_equal(hhats(side)[0][n], got)
                want = schur_complement(side, n)
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_q_values_are_the_packs_schur_complements():
    # one route rule per side: Q_{2n} is the sequence's Hhat_n and Q_{2n+1}
    # the shifted sequence's, also when only one side is PD (here Hankel PD,
    # shift not)
    s = sequence([1.0, -1.0, 2.0, -2.5, 5.0])
    assert (classify(s).hankel, classify(s).stieltjes) == ("PD", "NO")
    assert _cholesky_hhats(s) is not None and _cholesky_hhats(s.shifted) is None
    for j, v in enumerate(stieltjes_param(s).values):
        assert v.tobytes() == hhats(s if j % 2 == 0 else s.shifted)[0][j // 2].tobytes()


def test_canonical_entries_of_the_wrong_shape_are_rejected():
    # a scalar C_1 at q = 2 was added to the 2 x 2 correction and broadcast
    # into an all-ones s_1
    with pytest.raises(ValueError, match=r"C_n has shape \(1, 1\), expected \(2,2\)"):
        seq_from_canonical(CanonicalHankelParam(c=(1.0,), d=(np.eye(2), np.eye(2))), q=2)
    with pytest.raises(ValueError, match=r"D_n has shape \(1, 1\), expected \(2,2\)"):
        seq_from_canonical(CanonicalHankelParam(c=(np.eye(2),), d=(np.eye(2), 3.0)), q=2)


def test_canonical_lengths_that_fit_no_kappa_are_rejected():
    # len(d) - len(c) must be 0 or 1 with len(d) >= 1, as for a DSParam; the
    # misfits raised numpy's IndexError from inside the reconstruction
    p = canonical_hankel_param(ladder_fixture(0))   # q = 1, kappa = 4
    for c, d in ((p.c + p.c, p.d), (p.c, p.d[:1]), ((), p.d), ((), ())):
        with pytest.raises(ValueError, match=f"len\\(c\\) = {len(c)}, len\\(d\\) = {len(d)}"):
            seq_from_canonical(CanonicalHankelParam(c=c, d=d), q=1)


def test_the_reconstructions_fill_one_stack_bit_for_bit():
    # the pinv recursion of seq_from_stieltjes_param and seq_from_canonical
    # fill one preallocated stack and hand views of it on; they keep the
    # bits of the loops over a list that they replaced
    for s, _ in route_cases():
        p = stieltjes_param(s)
        assert _seq_from_q_pinv(p).moments.tobytes() == seq_from_q_pinv_loop(p).moments.tobytes()
        ch = canonical_hankel_param(s)
        got = seq_from_canonical(ch, s.q, s.alpha, s.side)
        want = seq_from_canonical_loop(ch, s.q, s.alpha, s.side)
        assert got.moments.tobytes() == want.moments.tobytes()


def test_favard_pair_needs_the_hankel_pd_prefix():
    with pytest.raises(ValueError, match="Hankel-PD prefix"):
        favard_pair(sequence([-1.0, 1.0]))


def test_q_values_of_the_wrong_shape_are_rejected():
    p = stieltjes_param(ladder_fixture(3))   # q = 2
    with pytest.raises(ValueError, match="shape"):
        StieltjesParam(q=p.q, alpha=p.alpha, side=p.side,
                       values=tuple(v.reshape(-1) for v in p.values))


# the draw, counted from 0 in the seed's stream, that ladder fixture i was
# when random_stieltjes_pd_sequence still took the rung's max_cond
LADDER_DRAWS = [4, 2, 56, 0, 3, 159, 0, 0, 0, 2, 2, 7, 12, 0, 4, 4, 0, 1, 0, 1,
                0, 0, 63, 0, 1, 231, 0, 0, 0, 2, 0, 10, 24, 0, 7, 0, 0, 0, 0, 2,
                0, 3, 51, 0, 3, 179, 0, 0, 0, 3]


def test_ladder_fixtures_keep_their_draws():
    # the conftest bound per rung picks the same draw of the same stream as
    # the library's generator did, so every fixture keeps its bits; on the
    # rungs at the library's bound 1e7 the two are the same call
    for i, k in enumerate(LADDER_DRAWS):
        s = ladder_fixture(i)
        q, kappa, bound = LADDER[i % len(LADDER)]
        draw = next(itertools.islice(fixture_draws(q, kappa, s.alpha, s.side, seed=i), k, None))
        assert s.moments.tobytes() == draw.moments.tobytes()
        if bound == 1e7:
            t = random_stieltjes_pd_sequence(q, kappa, s.alpha, s.side, seed=i)
            assert t.moments.tobytes() == s.moments.tobytes()
