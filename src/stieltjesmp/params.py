"""The four inner parametrizations of a moment sequence and their inverses.

* interlaced Schur complements Q_j (the coordinate system on sequences),
* canonical Hankel pair (C_n, D_n),
* Favard recursion pair (A_n, B_n) of the orthogonal system,
* the PD pair (L_n, M_n) driving the multiplicative resolvent structure.

All cross-maps are alternating-product formulas in the Q_j; every map comes
with its inverse, and the (L, M) -> sequence map doubles as the random
generator of Stieltjes-PD fixtures.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import (
    Array, DEFAULT_TOL, _all_pd, as_matrix, hermitize, inv_pd, is_pd,
    ordered_product,
)
from .moments import (
    RIGHT, MomentSequence, column_E, half, hankel, matrix_stack, require_stieltjes_pd,
    schur_correction, sequence, shifted_moments, y_stack, z_stack,
)


@dataclass(frozen=True)
class StieltjesParam:
    """Interlaced Schur complements Q_0..Q_kappa; PD iff the sequence is."""

    q: int
    alpha: float
    side: str
    values: tuple

    @property
    def kappa(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, j: int) -> Array:
        return self.values[j]


@dataclass(frozen=True)
class CanonicalHankelParam:
    """Canonical Hankel pair: C_1..C_{half(kappa+1)}, D_0..D_{half(kappa)}."""

    c: tuple
    d: tuple


@dataclass(frozen=True)
class FavardPair:
    """Recursion coefficients A_0..A_{half(kappa-1)}, B_0..B_{half(kappa)}."""

    a: tuple
    b: tuple


@dataclass(frozen=True)
class DSParam:
    """PD pair L_0..L_{half(kappa-1)}, M_0..M_{half(kappa)} plus side data."""

    q: int
    alpha: float
    side: str
    l: tuple
    m: tuple

    @property
    def kappa(self) -> int:
        # len(m) = half(kappa)+1 and len(l) = half(kappa-1)+1 pin kappa down
        return 2 * (len(self.m) - 1) if len(self.m) > len(self.l) else 2 * len(self.l) - 1


# --- Q-parametrization -------------------------------------------------------

def stieltjes_param(seq: MomentSequence) -> StieltjesParam:
    """Q_{2n} = Hhat_n, Q_{2n+1} = Hhat of the shifted sequence."""
    return seq.qparam


def seq_from_stieltjes_param(p: StieltjesParam) -> MomentSequence:
    """Recursive reconstruction; stieltjes_param is a left inverse.

    When every Q_j is PD the Cholesky factors C of H_n (even j) and of the
    shifted Hshift_n (odd j) are bordered one index at a time: with y the
    new block column above the diagonal and w = C_{n-1}^{-1} y, the new
    diagonal moment is Q_j + w^* w and the new factor row is
    [w^*, chol(Q_j)].  On the shifted side that moment is r_{j-1}, and
    s_j = alpha s_{j-1} +- r_{j-1}.  Otherwise every step goes through the
    pinv formula of schur_correction.
    """
    a = p.alpha
    sgn = 1.0 if p.side == RIGHT else -1.0
    qs = matrix_stack(p.values, p.q, "Q_j")
    if not _all_pd(qs, DEFAULT_TOL):
        return _seq_from_q_pinv(p, qs)
    q = p.q
    roots = np.linalg.cholesky(qs)
    # factors[0] of H_{half(kappa)}, factors[1] of Hshift_{half(kappa-1)}
    size = (half(p.kappa) + 1) * q
    factors = (np.zeros((size, size), dtype=complex), np.zeros((size, size), dtype=complex))
    mats, shifted = [], []
    for j in range(p.kappa + 1):
        n, odd = j // 2, j % 2
        c = factors[odd]
        value = qs[j]
        if n:
            w = np.linalg.solve(c[:n * q, :n * q], np.vstack((shifted if odd else mats)[n:2 * n]))
            value = value + w.conj().T @ w
            c[n * q:(n + 1) * q, :n * q] = w.conj().T
        c[n * q:(n + 1) * q, n * q:(n + 1) * q] = roots[j]
        mats.append(a * mats[-1] + sgn * value if odd else value)
        if j:
            shifted.append(shifted_moments(mats[-2:], a, p.side)[0])
    return MomentSequence(q=q, alpha=a, side=p.side, moments=tuple(mats))


def _seq_from_q_pinv(p: StieltjesParam, qs: Array) -> MomentSequence:
    """The pinv recursion of seq_from_stieltjes_param, for Q_j not all PD."""
    a = p.alpha
    sgn = 1.0 if p.side == RIGHT else -1.0
    mats = [qs[0]]
    if p.kappa >= 1:
        mats.append(a * mats[0] + sgn * qs[1])
    for j in range(2, p.kappa + 1):
        n = j // 2
        if j % 2 == 0:
            mats.append(qs[j] + schur_correction(mats, n))
        else:
            corr = schur_correction(shifted_moments(mats, a, p.side), n)
            mats.append(a * mats[-1] + sgn * (qs[j] + corr))
    return MomentSequence(q=p.q, alpha=a, side=p.side, moments=tuple(mats))


# --- canonical Hankel parametrization ----------------------------------------

def _lambda_term(seq, n: int) -> Array:
    """Correction Lambda_n entering C; Lambda_0 = 0.  `seq` as for hankel()."""
    if n == 0:
        return np.zeros_like(seq[0])
    hp = np.linalg.pinv(hankel(seq, n - 1), rcond=DEFAULT_TOL.pinv_cutoff)
    z_lo, z_hi = z_stack(seq, n, 2 * n - 1), z_stack(seq, n + 1, 2 * n)
    y_lo, y_hi = y_stack(seq, n, 2 * n - 1), y_stack(seq, n + 1, 2 * n)
    return z_lo @ hp @ y_hi + z_hi @ hp @ y_lo - z_lo @ hp @ hankel(seq, n - 1, 1) @ hp @ y_lo


def canonical_hankel_param(seq: MomentSequence) -> CanonicalHankelParam:
    """D_n = Hhat_n; C_n = s_{2n-1} - Lambda_{n-1}."""
    d = seq.pack.hhats
    c = tuple(seq[2 * n - 1] - _lambda_term(seq, n - 1)
              for n in range(1, half(seq.kappa + 1) + 1))
    return CanonicalHankelParam(c=c, d=d)


def seq_from_canonical(p: CanonicalHankelParam, q: int, alpha: float = 0.0,
                       side: str = RIGHT) -> MomentSequence:
    """Reconstruction s_0 = D_0, s_{2n-1} = C_n + Lambda_{n-1}, s_{2n} = D_n + corr."""
    kappa = len(p.c) + len(p.d) - 1
    mats = [as_matrix(p.d[0])]
    for j in range(1, kappa + 1):
        n = (j + 1) // 2
        if j % 2 == 1:
            mats.append(as_matrix(p.c[n - 1]) + _lambda_term(mats, n - 1))
        else:
            mats.append(as_matrix(p.d[n]) + schur_correction(mats, n))
    return MomentSequence(q=q, alpha=alpha, side=side, moments=tuple(mats))


# --- Favard pair --------------------------------------------------------------

def favard_pair(seq: MomentSequence) -> FavardPair:
    """Three-term recursion coefficients of the monic orthogonal system.

    Needs the Hankel-PD prefix (s_j)_{j<=2*half(kappa-1)} so every inverse
    in the definition exists.
    """
    pack = seq.pack
    kappa = seq.kappa
    for n in range(half(kappa - 1) + 1):
        if not is_pd(pack.hhat(n)):
            raise ValueError("Hankel-PD prefix required for the Favard pair")

    b = [seq[0].copy()]
    for n in range(1, half(kappa) + 1):
        b.append(inv_pd(pack.hhat(n - 1)) @ pack.hhat(n))
    a = []
    if kappa >= 1:
        a.append(seq[1] @ inv_pd(seq[0]))
    for n in range(1, half(kappa - 1) + 1):
        hinv = pack.h_inv(n - 1)
        row = np.hstack([-pack.z(n, 2 * n - 1) @ hinv, np.eye(seq.q)])
        col = np.vstack([-hinv @ pack.y(n, 2 * n - 1), np.eye(seq.q)])
        a.append(row @ hankel(seq, n, 1) @ col @ inv_pd(pack.hhat(n)))
    return FavardPair(a=tuple(a), b=tuple(b))


# --- Dyukarev-Stieltjes parametrization ---------------------------------------

def ds_param(seq: MomentSequence) -> DSParam:
    """PD pair (L_n, M_n) of increments of the Hankel inverses at alpha.

    The defining increments E^*(a) H_n^{-1} E(a) - E^*(a) H_{n-1}^{-1} E(a)
    (resp. the z H_shift^{-1} y increments for L) collapse to one-term
    congruences of the Schur-complement inverses,

        M_n = P_n(a)^* Hhat_n^{-1} P_n(a),
        L_n = g_n^* Hhat_shift_n^{-1} g_n,
        g_n = (-z_shift_{n,2n-1} Hshift_{n-1}^{-1}  I) y_{0,n},

    which is how they are computed here (no large cancelling differences).
    ds_increments exposes the raw definition for cross-checking.
    """
    return seq.ds


def _ds_param(seq: MomentSequence) -> DSParam:
    require_stieltjes_pd(seq)
    pack, sh = seq.pack, seq.pack.shift
    q, a = seq.q, seq.alpha
    kappa = seq.kappa

    m = [hermitize(np.linalg.inv(seq[0]))]
    for n in range(1, half(kappa) + 1):
        row = np.hstack([-pack.z(n, 2 * n - 1) @ pack.h_inv(n - 1), np.eye(q)])
        p_at_alpha = row @ column_E(q, n, a)
        m.append(hermitize(p_at_alpha.conj().T @ np.linalg.inv(pack.hhat(n)) @ p_at_alpha))

    l = [hermitize(seq[0] @ np.linalg.inv(seq.shifted[0]) @ seq[0])]
    for n in range(1, half(kappa - 1) + 1):
        row = np.hstack([-sh.z(n, 2 * n - 1) @ sh.h_inv(n - 1), np.eye(q)])
        g = row @ pack.y(0, n)
        l.append(hermitize(g.conj().T @ np.linalg.inv(sh.hhat(n)) @ g))
    return DSParam(q=q, alpha=a, side=seq.side, l=tuple(l), m=tuple(m))


def ds_increments(seq: MomentSequence) -> DSParam:
    """(L, M) by the literal inverse-increment definition; for cross-checks."""
    require_stieltjes_pd(seq)
    pack, sh = seq.pack, seq.pack.shift
    q, a = seq.q, seq.alpha
    kappa = seq.kappa

    m = [np.linalg.inv(seq[0])]
    for n in range(1, half(kappa) + 1):
        e_n = column_E(q, n, a)
        e_p = column_E(q, n - 1, a)
        m.append(e_n.conj().T @ pack.h_inv(n) @ e_n
                 - e_p.conj().T @ pack.h_inv(n - 1) @ e_p)

    l = [seq[0] @ np.linalg.inv(seq.shifted[0]) @ seq[0]]
    for n in range(1, half(kappa - 1) + 1):
        l.append(pack.z(0, n) @ sh.h_inv(n) @ pack.y(0, n)
                 - pack.z(0, n - 1) @ sh.h_inv(n - 1) @ pack.y(0, n - 1))
    return DSParam(q=q, alpha=a, side=seq.side, l=tuple(l), m=tuple(m))


def _pd_values(mats, q: int, what: str) -> Array:
    """The parameter matrices as one complex (K, q, q) stack, checked together to be PD."""
    out = matrix_stack(mats, q, what)
    if len(out) and not _all_pd(out, DEFAULT_TOL):
        raise ValueError(f"all {what} must be PD")
    return out


def ds_from_q(p: StieltjesParam) -> DSParam:
    """Alternating-product map Q -> (L, M); requires all Q_j PD."""
    qs = _pd_values(p.values, p.q, "Q_j")
    q = p.q
    n_m = half(p.kappa) + 1
    n_l = half(p.kappa - 1) + 1 if p.kappa >= 1 else 0

    m = []
    for n in range(n_m):
        if n == 0:
            m.append(np.linalg.inv(qs[0]))
        else:
            g = ordered_product((np.linalg.inv(qs[2 * j]) @ qs[2 * j + 1] for j in range(n)), q)
            m.append(g @ np.linalg.inv(qs[2 * n]) @ g.conj().T)
    l = []
    for n in range(n_l):
        g = ordered_product((qs[2 * j] @ np.linalg.inv(qs[2 * j + 1]) for j in range(n + 1)), q)
        l.append(g @ qs[2 * n + 1] @ g.conj().T)
    return DSParam(q=q, alpha=p.alpha, side=p.side, l=tuple(l), m=tuple(m))


def q_from_ds(d: DSParam) -> StieltjesParam:
    """Inverse alternating-product map (L, M) -> Q.

    With G_n = M_0 L_0 ... M_{n-1} L_{n-1} (G_0 = I), Q_{2n} =
    G_n^{-*} M_n^{-1} G_n^{-1} and Q_{2n+1} = G_{n+1}^{-*} L_n G_{n+1}^{-1}.
    The G_n are one running product and are inverted together, as are the M_n.
    """
    lms = _pd_values((*d.l, *d.m), d.q, "L_n, M_n")
    ls, ms = lms[:len(d.l)], lms[len(d.l):]
    g = [np.eye(d.q, dtype=complex)]
    for m, l in zip(ms, ls):
        g.append(g[-1] @ (m @ l))
    gi = np.linalg.inv(np.array(g))
    mi = np.linalg.inv(np.array(ms))

    values = []
    for j in range(d.kappa + 1):
        n = j // 2
        if j % 2 == 0:
            values.append(gi[n].conj().T @ mi[n] @ gi[n])
        else:
            values.append(gi[n + 1].conj().T @ ls[n] @ gi[n + 1])
    return StieltjesParam(q=d.q, alpha=d.alpha, side=d.side, values=tuple(values))


def seq_from_ds(d: DSParam) -> MomentSequence:
    """Sequence whose DS-parametrization is d; always Stieltjes-PD."""
    return seq_from_stieltjes_param(q_from_ds(d))


# --- Favard cross-identities --------------------------------------------------

def favard_from_q(p: StieltjesParam):
    """Favard pairs of the sequence and of its shift, straight from the Q_j.

    Returns (pair, shifted_pair).  Odd-index signs flip between the two
    half-lines.
    """
    qs = _pd_values(p.values, p.q, "Q_j")
    alpha = p.alpha
    eye = np.eye(p.q, dtype=complex)
    sgn = 1.0 if p.side == RIGHT else -1.0
    kappa = p.kappa

    def qinv(j):
        return np.linalg.inv(qs[j])

    b = [qs[0].copy()]
    for n in range(1, half(kappa) + 1):
        b.append(qinv(2 * n - 2) @ qs[2 * n])
    a = []
    if kappa >= 1:
        a.append(alpha * eye + sgn * qs[1] @ qinv(0))
    for n in range(1, half(kappa - 1) + 1):
        a.append(alpha * eye + sgn * (qs[2 * n + 1] @ qinv(2 * n) + qs[2 * n] @ qinv(2 * n - 1)))

    b_sh, a_sh = [], []
    if kappa >= 1:
        b_sh.append(qs[1].copy())
        for n in range(1, half(kappa - 1) + 1):
            b_sh.append(qinv(2 * n - 1) @ qs[2 * n + 1])
        for n in range(half(kappa - 2) + 1):
            a_sh.append(alpha * eye
                        + sgn * (qs[2 * n + 2] @ qinv(2 * n + 1) + qs[2 * n + 1] @ qinv(2 * n)))
    return FavardPair(a=tuple(a), b=tuple(b)), FavardPair(a=tuple(a_sh), b=tuple(b_sh))


def favard_from_ds(d: DSParam):
    """Favard pairs of the sequence and of its shift from the (L, M) products.

    Returns (pair, shifted_pair); closed products, no sequence reconstruction.
    """
    lms = _pd_values((*d.l, *d.m), d.q, "L_n, M_n")
    ls, ms = lms[:len(d.l)], lms[len(d.l):]
    q, alpha = d.q, d.alpha
    eye = np.eye(q, dtype=complex)
    sgn = 1.0 if d.side == RIGHT else -1.0
    kappa = d.kappa

    li = [np.linalg.inv(v) for v in ls]
    mi = [np.linalg.inv(v) for v in ms]

    def asc(pairs):
        return ordered_product(pairs, q)

    def desc(pairs):
        return ordered_product(reversed(pairs), q)

    b = [mi[0].copy()]
    for n in range(1, half(kappa) + 1):
        b.append(asc([ms[j] @ ls[j] for j in range(n - 1)])
                 @ li[n - 1] @ mi[n]
                 @ desc([li[j] @ mi[j] for j in range(n)]))
    a = []
    if kappa >= 1:
        a.append(alpha * eye + sgn * mi[0] @ li[0])
    for n in range(1, half(kappa - 1) + 1):
        a.append(alpha * eye + sgn * (
            asc([mi[j] @ li[j] for j in range(n + 1)])
            @ (ls[n - 1] + ls[n]) @ ms[n - 1]
            @ desc([ls[j] @ ms[j] for j in range(n - 1)])))

    b_sh, a_sh = [], []
    if kappa >= 1:
        b_sh.append(mi[0] @ li[0] @ mi[0])
        for n in range(1, half(kappa - 1) + 1):
            b_sh.append(asc([ms[j] @ ls[j] for j in range(n - 1)])
                        @ ms[n - 1] @ mi[n]
                        @ desc([li[j] @ mi[j] for j in range(n + 1)]))
        for n in range(half(kappa - 2) + 1):
            a_sh.append(alpha * eye + sgn * (
                asc([mi[j] @ li[j] for j in range(n + 1)])
                @ mi[n + 1] @ (ms[n] + ms[n + 1])
                @ desc([ls[j] @ ms[j] for j in range(n)])))
    return FavardPair(a=tuple(a), b=tuple(b)), FavardPair(a=tuple(a_sh), b=tuple(b_sh))


# --- random fixtures ----------------------------------------------------------

def random_pd(q: int, rng: np.random.Generator, spread: float = 0.3) -> Array:
    """G G^* + 0.1 I with seeded complex Gaussian G: strictly PD.

    The default Gaussian scale keeps long products of these matrices (and
    hence the Hankel blocks of generated sequences) well enough conditioned
    for 1e-9 round-trips at desk sizes.
    """
    g = spread * (rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q)))
    return g @ g.conj().T + 0.1 * np.eye(q)


def random_stieltjes_pd_sequence(q: int, kappa: int, alpha: float = 0.0,
                                 side: str = RIGHT, seed: int = 0,
                                 max_cond: float | None = 1e7) -> MomentSequence:
    """Seeded Stieltjes-PD sequence built through the (L, M) -> seq map.

    Deterministic in the seed.  Draws are resampled (from the same stream)
    until the top Hankel blocks have condition number below max_cond, so
    the fixtures stay in the regime where the 1e-9/1e-10 identity checks
    are numerically meaningful; pass max_cond=None to disable.
    """
    rng = np.random.default_rng(seed)
    if kappa < 1:
        return sequence([random_pd(q, rng)], alpha=alpha, side=side)
    for attempt in range(400):
        m = tuple(random_pd(q, rng) for _ in range(half(kappa) + 1))
        l = tuple(random_pd(q, rng) for _ in range(half(kappa - 1) + 1))
        d = DSParam(q=q, alpha=float(alpha), side=side, l=l, m=m)
        seq = seq_from_ds(d)
        if max_cond is None:
            return seq
        worst = max(np.linalg.cond(seq.pack.top), np.linalg.cond(seq.pack.shift.top))
        if worst <= max_cond:
            return seq
    raise RuntimeError(f"no fixture with cond <= {max_cond:g} found "
                       f"(q={q}, kappa={kappa}); raise max_cond")
