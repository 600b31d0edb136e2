"""The four inner parametrizations of a moment sequence and their inverses.

* interlaced Schur complements Q_j (the coordinate system on sequences),
* canonical Hankel pair (C_n, D_n),
* Favard recursion pair (A_n, B_n) of the orthogonal system,
* the PD pair (L_n, M_n) driving the multiplicative resolvent structure.

Q, L and M are held as read-only (K, q, q) stacks, as the moments are; the
canonical Hankel and Favard pairs are output records of tuples.  All
cross-maps are alternating-product formulas in the Q_j; every map comes
with its inverse, and the (L, M) -> sequence map doubles as the random
generator of Stieltjes-PD fixtures.  The prefix products of the factor
chain of (L, M), which U and both polynomial quadruples read, are built
here (chain_stacks), next to the pair they are cached on.  Each solve-path
entry opens with the gate ds_param (_door) and then reads the DSParam alone.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import (
    Array, PD, _all_pd, _hermitize, _integer, _pinv, _real, _size, freeze, matrix_stack,
)
from .moments import (
    RIGHT, MomentSequence, classify, derived, half, hankel, hhats, monic_rows, q_values,
    require_hankel_pd_prefix, schur_correction, sequence, shifted_moments, side_sign,
    y_stack, z_stack,
)


@dataclass(frozen=True, eq=False)
class StieltjesParam:
    """Interlaced Schur complements Q_0..Q_kappa; PD iff the sequence is.

    values is a (kappa+1, q, q) stack, held and checked as the moments of a
    MomentSequence are; equality is by identity."""

    q: int
    alpha: float
    side: str
    values: Array

    def __post_init__(self):
        side_sign(self.side)
        object.__setattr__(self, "alpha", _real(self.alpha, "alpha"))
        object.__setattr__(self, "values", matrix_stack(self.values, self.q, "Q_j"))
        if not len(self.values):
            raise ValueError("at least one Q_j required")

    @property
    def kappa(self) -> int:
        return len(self.values) - 1


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


@dataclass(frozen=True, eq=False)
class DSParam:
    """PD pair L_0..L_{half(kappa-1)}, M_0..M_{half(kappa)} plus side data.

    l and m are stacks held and checked as the moments of a MomentSequence
    are, l (0, q, q) at kappa = 0; their lengths must fit one kappa.  The
    maps that need L_n, M_n PD check it.  Equality is by identity.
    """

    q: int
    alpha: float
    side: str
    l: Array
    m: Array

    def __post_init__(self):
        side_sign(self.side)
        alpha = _real(self.alpha, "alpha")
        l, m = matrix_stack(self.l, self.q, "L_n"), matrix_stack(self.m, self.q, "M_n")
        if not len(m) or len(m) - len(l) not in (0, 1):
            raise ValueError(f"(L, M) lengths do not fit: len(l) = {len(l)}, len(m) = {len(m)}; "
                             "need len(m) >= 1 and len(m) - len(l) in {0, 1}")
        self.__dict__.update(alpha=alpha, l=l, m=m)

    @property
    def kappa(self) -> int:
        return len(self.l) + len(self.m) - 1   # half(kappa-1) + half(kappa) = kappa - 1


# --- Q-parametrization -------------------------------------------------------

@derived
def stieltjes_param(seq: MomentSequence) -> StieltjesParam:
    """Q_{2n} = Hhat_n, Q_{2n+1} = Hhat of the shifted sequence."""
    return StieltjesParam(q=seq.q, alpha=seq.alpha, side=seq.side, values=q_values(seq))


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
    a, q, qs, sgn = p.alpha, p.q, p.values, side_sign(p.side)
    if not _all_pd(qs):
        return _seq_from_q_pinv(p)
    roots = np.linalg.cholesky(qs)
    # factors[0] of H_{half(kappa)}, factors[1] of Hshift_{half(kappa-1)}
    size = (half(p.kappa) + 1) * q
    factors = (np.zeros((size, size), dtype=complex), np.zeros((size, size), dtype=complex))
    mats = np.empty_like(qs)
    for j in range(p.kappa + 1):
        n, odd = j // 2, j % 2
        c = factors[odd]
        value = qs[j]
        if n:
            # the block column s_n..s_{2n-1}, resp. r_n..r_{2n-1} of the shifted sequence
            col = shifted_moments(mats[n:2 * n + 1], a, p.side) if odd else mats[n:2 * n]
            w = np.linalg.solve(c[:n * q, :n * q], np.reshape(col, (n * q, q)))
            value = value + w.conj().T @ w
            c[n * q:(n + 1) * q, :n * q] = w.conj().T
        c[n * q:(n + 1) * q, n * q:(n + 1) * q] = roots[j]
        mats[j] = a * mats[j - 1] + sgn * value if odd else value
    return MomentSequence(q=q, alpha=a, side=p.side, moments=freeze(mats))


def _seq_from_q_pinv(p: StieltjesParam) -> MomentSequence:
    """The pinv recursion of seq_from_stieltjes_param, for Q_j not all PD."""
    a, qs, sgn = p.alpha, p.values, side_sign(p.side)
    # step j reads the moments before it, a view of the stack it fills
    mats = np.empty_like(qs)
    mats[0] = qs[0]
    if p.kappa >= 1:
        mats[1] = a * mats[0] + sgn * qs[1]
    for j in range(2, p.kappa + 1):
        n = j // 2
        if j % 2 == 0:
            mats[j] = qs[j] + schur_correction(mats[:j], n)
        else:
            corr = schur_correction(shifted_moments(mats[:j], a, p.side), n)
            mats[j] = a * mats[j - 1] + sgn * (qs[j] + corr)
    return MomentSequence(q=p.q, alpha=a, side=p.side, moments=freeze(mats))


# --- canonical Hankel parametrization ----------------------------------------

def _lambda_term(seq, n: int) -> Array:
    """Correction Lambda_n entering C; Lambda_0 = 0.  `seq` as for hankel()."""
    if n == 0:
        return np.zeros_like(seq[0])
    hp = _pinv(hankel(seq, n - 1))
    z_lo, z_hi = z_stack(seq, n, 2 * n - 1), z_stack(seq, n + 1, 2 * n)
    y_lo, y_hi = y_stack(seq, n, 2 * n - 1), y_stack(seq, n + 1, 2 * n)
    return z_lo @ hp @ y_hi + z_hi @ hp @ y_lo - z_lo @ hp @ hankel(seq, n - 1, 1) @ hp @ y_lo


def canonical_hankel_param(seq: MomentSequence) -> CanonicalHankelParam:
    """D_n = Hhat_n; C_n = s_{2n-1} - Lambda_{n-1}."""
    c = tuple(seq[2 * n - 1] - _lambda_term(seq, n - 1)
              for n in range(1, half(seq.kappa + 1) + 1))
    return CanonicalHankelParam(c=c, d=tuple(hhats(seq)[0]))


def seq_from_canonical(p: CanonicalHankelParam, q: int, alpha: float = 0.0,
                       side: str = RIGHT) -> MomentSequence:
    """Reconstruction s_0 = D_0, s_{2n-1} = C_n + Lambda_{n-1}, s_{2n} = D_n + corr.

    The lengths must fit one kappa, as those of a DSParam: len(d) >= 1 and
    len(d) - len(c) in {0, 1}.
    """
    c, d = matrix_stack(p.c, q, "C_n"), matrix_stack(p.d, q, "D_n")
    if not len(d) or len(d) - len(c) not in (0, 1):
        raise ValueError(f"(C, D) lengths do not fit: len(c) = {len(c)}, len(d) = {len(d)}; "
                         "need len(d) >= 1 and len(d) - len(c) in {0, 1}")
    # step j reads the moments before it, a view of the stack it fills
    mats = np.empty((len(c) + len(d), q, q), dtype=complex)
    mats[0] = d[0]
    for j in range(1, len(mats)):
        n = (j + 1) // 2
        if j % 2 == 1:
            mats[j] = c[n - 1] + _lambda_term(mats[:j], n - 1)
        else:
            mats[j] = d[n] + schur_correction(mats[:j], n)
    return MomentSequence(q=q, alpha=alpha, side=side, moments=freeze(mats))


# --- Favard pair --------------------------------------------------------------

def favard_pair(seq: MomentSequence) -> FavardPair:
    """Three-term recursion coefficients of the monic orthogonal system.

    B_0 = s_0, B_n = Hhat_{n-1}^{-1} Hhat_n and A_n = r_n K_n r_n^* Hhat_n^{-1},
    with r_n the block row of the monic P_n read off the cached monic_rows
    and Hhat_0 = s_0 itself, not its Cholesky rebuild.  Needs the Hankel-PD
    prefix (s_j)_{j<=2*half(kappa-1)} so every inverse in the definition
    exists.
    """
    kappa, q = seq.kappa, seq.q
    require_hankel_pd_prefix(seq, half(kappa - 1))
    d, rows = hhats(seq)[0], monic_rows(seq)
    b = [seq[0].copy()] + [np.linalg.inv(d[n - 1]) @ d[n] for n in range(1, half(kappa) + 1)]
    a = []
    for n in range(half(kappa - 1) + 1):
        r = rows[n, :n + 1].swapaxes(0, 1).reshape(q, (n + 1) * q)
        a.append(r @ hankel(seq, n, 1) @ r.conj().T @ np.linalg.inv(d[n] if n else seq[0]))
    return FavardPair(a=tuple(a), b=tuple(b))


# --- Dyukarev-Stieltjes parametrization ---------------------------------------

@derived
def ds_param(seq: MomentSequence) -> DSParam:
    """PD pair (L_n, M_n) of the increments of the Hankel inverses at alpha.

    By definition M_n = E_n^*(a) H_n^{-1} E_n(a) - E_{n-1}^*(a) H_{n-1}^{-1}
    E_{n-1}(a) and L_n = z_{0,n} Hshift_n^{-1} y_{0,n} - z_{0,n-1}
    Hshift_{n-1}^{-1} y_{0,n-1}, the n-1 terms being 0 at n = 0.  They are
    read off the Schur complements Q_j by ds_from_q, with no Hankel inverse
    and no cancelling difference.  The tests keep the literal definition
    as the Hankel reference (ds_increments).

    This is the package's one alpha-Stieltjes-PD gate: every builder that
    needs a Stieltjes-PD sequence reads it through here.
    """
    if classify(seq).stieltjes != PD:
        raise ValueError("sequence is not alpha-Stieltjes positive definite")
    # the class just read holds every Q_j PD: no second check
    return _ds_from_q(stieltjes_param(seq))


def _lm(ds):
    """A ValueError that names ds unless it is a DSParam: the rule of every
    view of (L, M), for which a sequence does not pass."""
    if not isinstance(ds, DSParam):
        raise ValueError(f"ds is a {type(ds).__name__}, not a DSParam")


def _index(ds: DSParam, m: int | None, low: int = 0) -> int:
    """The one index rule, of _door and of every (ds, m) view: ds a DSParam
    (_lm), then m (kappa when None) back if it is an integer (numpy's too,
    but no bool) in low..kappa."""
    _lm(ds)
    m = ds.kappa if m is None else _integer(m, "index m")
    if not low <= m <= ds.kappa:
        raise ValueError(f"index m={m} outside {low}..kappa={ds.kappa}")
    return m


def _door(seq: MomentSequence, m: int | None, low: int = 0) -> tuple:
    """(ds_param(seq), m): the gate, then the index rule.  Solve-path entries
    open here: the class comes before m, m before x, x before K."""
    ds = ds_param(seq)
    return ds, _index(ds, m, low)


def _require_pd(stack: Array, what: str):
    """The matrices of a (K, q, q) stack, checked together to be PD."""
    if not _all_pd(stack):
        raise ValueError(f"all {what} must be PD")


def ds_from_q(p: StieltjesParam) -> DSParam:
    """Alternating-product map Q -> (L, M); requires all Q_j PD.

    With the running products G_0 = I, G_{n+1} = G_n Q_{2n}^{-1} Q_{2n+1}
    and F_{-1} = I, F_n = F_{n-1} Q_{2n} Q_{2n+1}^{-1}, M_n = G_n Q_{2n}^{-1}
    G_n^* and L_n = F_n Q_{2n+1} F_n^*.  The Q_j are inverted together, the
    sandwiches batched, and the L_n and M_n made Hermitian together.
    """
    _require_pd(p.values, "Q_j")
    return _ds_from_q(p)


def _ds_from_q(p: StieltjesParam) -> DSParam:
    """ds_from_q of p, whose values are already known PD."""
    qs = p.values
    qi = np.linalg.inv(qs)
    eye = np.eye(p.q, dtype=complex)
    g, f = [eye], [eye]
    for j in range(1, p.kappa + 1, 2):
        g.append(g[-1] @ qi[j - 1] @ qs[j])
        f.append(f[-1] @ qs[j - 1] @ qi[j])
    g, f = np.array(g[:half(p.kappa) + 1]), np.array(f[1:]).reshape(-1, p.q, p.q)
    l = f @ qs[1::2] @ f.conj().swapaxes(-1, -2)
    lm = freeze(_hermitize(np.concatenate([l, g @ qi[0::2] @ g.conj().swapaxes(-1, -2)])))
    return DSParam(q=p.q, alpha=p.alpha, side=p.side, l=lm[:len(l)], m=lm[len(l):])


def q_from_ds(d: DSParam) -> StieltjesParam:
    """Inverse alternating-product map (L, M) -> Q.

    With G_n = M_0 L_0 ... M_{n-1} L_{n-1} (G_0 = I), Q_{2n} =
    G_n^{-*} M_n^{-1} G_n^{-1} and Q_{2n+1} = G_{n+1}^{-*} L_n G_{n+1}^{-1}.
    The G_n are one running product and are inverted together, as are the M_n.
    """
    _require_pd(np.concatenate([d.l, d.m]), "L_n, M_n")
    g = [np.eye(d.q, dtype=complex)]
    for m, l in zip(d.m, d.l):
        g.append(g[-1] @ (m @ l))
    gi = np.linalg.inv(np.array(g))
    gs = gi.conj().swapaxes(-1, -2)
    values = np.empty((d.kappa + 1, d.q, d.q), dtype=complex)
    values[0::2] = gs[:len(d.m)] @ np.linalg.inv(d.m) @ gi[:len(d.m)]
    values[1::2] = gs[1:] @ d.l @ gi[1:]
    return StieltjesParam(q=d.q, alpha=d.alpha, side=d.side, values=freeze(values))


@derived
def chain_stacks(ds: DSParam) -> tuple:
    """Block columns of the prefix products P_j = W_0 W_1 ... W_j of the
    factor chain of (L, M), j = 0..kappa, as two zero-padded stacks (x, y).

    x[n, i] is the coefficient of z^i in the left block column [A_n; C_n]
    of P_{2n}, n = 0..half(kappa), and y[n, i] that of the right one
    [B_n; D_n] of P_{2n-1}, n = 0..half(kappa+1), with P_{-1} = I; each
    entry is 2q x q.  The linear factor W_{2n} = [[I, 0], [(alpha-z) M_n, I]]
    adds Y (alpha - z) M_n to X, two shifted adds of Y M_n; the constant
    factor W_{2n+1} = [[I, +-L_n], [0, I]] adds X (+-L_n) to Y.  A prefix
    column does not depend on kappa, so U_m of every m <= kappa, the
    Dyukarev quadruple, the orthogonal quadruple and the difference inverse
    are all read off this one build, cached on the pair.
    """
    q, alpha, kappa = ds.q, ds.alpha, ds.kappa
    sgn = side_sign(ds.side)
    x = np.zeros((half(kappa) + 1, half(kappa) + 2, 2 * q, q), dtype=complex)
    y = np.zeros((half(kappa + 1) + 1, half(kappa + 1) + 1, 2 * q, q), dtype=complex)
    x[0, 0, :q] = y[0, 0, q:] = np.eye(q)
    for j in range(kappa + 1):
        n = j // 2
        if j % 2 == 0:
            # each step raises one degree by one: x[n] has n+2 coefficients
            ym = y[n, :n + 1] @ ds.m[n]
            if n:
                x[n] = x[n - 1]
            x[n, :n + 1] += alpha * ym
            x[n, 1:n + 2] -= ym
        else:
            y[n + 1, :n + 2] = y[n, :n + 2] + x[n, :n + 2] @ (sgn * ds.l[n])
    return x, y


def seq_from_ds(d: DSParam) -> MomentSequence:
    """Sequence whose DS-parametrization is d; always Stieltjes-PD."""
    return seq_from_stieltjes_param(q_from_ds(d))


# --- Favard cross-identities --------------------------------------------------

def favard_from_q(p: StieltjesParam):
    """Favard pairs of the sequence and of its shift, straight from the Q_j.

    Returns (pair, shifted_pair).  One index j = 0..kappa serves both:
    B(j) = Q_j for j < 2 and Q_{j-2}^{-1} Q_j after that, and
    A(j) = alpha I +- (Q_{j+1} Q_j^{-1} + Q_j Q_{j-1}^{-1}), the second term
    from j = 1 on (+ right, - left); even j give the pair, odd j the
    shifted pair.  The Q_j are inverted together.
    """
    qs = p.values
    _require_pd(qs, "Q_j")
    qi = np.linalg.inv(qs)
    eye = np.eye(p.q, dtype=complex)
    sgn = side_sign(p.side)
    b = [qs[j] if j < 2 else qi[j - 2] @ qs[j] for j in range(p.kappa + 1)]
    a = [p.alpha * eye + sgn * (qs[j + 1] @ qi[j] + (qs[j] @ qi[j - 1] if j else 0.0))
         for j in range(p.kappa)]
    return (FavardPair(a=tuple(a[0::2]), b=tuple(b[0::2])),
            FavardPair(a=tuple(a[1::2]), b=tuple(b[1::2])))


def favard_from_ds(d: DSParam):
    """Favard pairs of the sequence and of its shift, from (L, M) through Q.

    Returns (pair, shifted_pair); no sequence reconstruction.
    """
    return favard_from_q(q_from_ds(d))


# --- random fixtures ----------------------------------------------------------

def random_pd(q: int, rng: np.random.Generator) -> Array:
    """G G^* + 0.1 I with seeded complex Gaussian G: strictly PD.

    The Gaussian scale 0.3 keeps long products of these matrices (and
    hence the Hankel blocks of generated sequences) well enough conditioned
    for 1e-9 round-trips at desk sizes.
    """
    _size(q, "random PD matrix")
    g = 0.3 * (rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q)))
    return g @ g.conj().T + 0.1 * np.eye(q)


def random_stieltjes_pd_sequence(q: int, kappa: int, alpha: float = 0.0,
                                 side: str = RIGHT, seed: int = 0) -> MomentSequence:
    """Seeded Stieltjes-PD sequence built through the (L, M) -> seq map.

    Deterministic in the seed.  Draws are resampled (from the same stream)
    until the top Hankel blocks have condition number at most 1e7, so the
    sequences stay in the regime where the 1e-9/1e-10 identity checks of
    verify are numerically meaningful.  When no draw in 400 meets that
    bound, the sizes are out of its reach: ValueError.  q and kappa are
    integers, as every size and index is (linalg._integer).
    """
    _integer(q, "q")
    if _integer(kappa, "kappa") < 0:
        raise ValueError(f"kappa={kappa} is negative")
    rng = np.random.default_rng(seed)
    if kappa < 1:
        return sequence([random_pd(q, rng)], alpha=alpha, side=side)
    for attempt in range(400):
        m = [random_pd(q, rng) for _ in range(half(kappa) + 1)]
        l = [random_pd(q, rng) for _ in range(half(kappa - 1) + 1)]
        seq = seq_from_ds(DSParam(q=q, alpha=alpha, side=side, l=l, m=m))
        worst = max(np.linalg.cond(hankel(seq, half(kappa))),
                    np.linalg.cond(hankel(seq.shifted, half(kappa - 1))))
        if worst <= 1e7:
            return seq
    raise ValueError(f"no fixture with cond <= 1e+07 found in 400 draws (q={q}, kappa={kappa})")
