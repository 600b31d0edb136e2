"""Moment sequences, block Hankel structures and positivity classification.

A sequence s_0..s_kappa of complex q x q matrices, held as one read-only
(kappa+1, q, q) stack like every matrix sequence of the package
(linalg.matrix_stack), with a base point alpha and a half-line tag ("right"
for [alpha, inf), "left" for (-inf, alpha]; side_sign reads it) is the basic
object everything else consumes.  The block Hankel matrices H_n =
(s_{j+k}), their left Schur complements and the alpha-shifted sequence
+-(s_{j+1} - alpha*s_j) drive both the classification and all
parametrizations downstream.  The Schur complements with their psd classes
(hhats) and the monic orthogonal rows (monic_rows), which hold the
package's one Hankel-block inverse, are cached on the sequence by their
builders (derived) like everything else derived from it.
"""

import cmath
from dataclasses import dataclass
from functools import cached_property, wraps

import numpy as np

from .linalg import (
    Array, DEFAULT_TOL, _hermitian_mask, _matrix, _pinv, _psd_classes, _real, block_psd, freeze,
    matrix_stack, psd_class, PD, PSD,
)

RIGHT = "right"
LEFT = "left"


def side_sign(side: str) -> float:
    """+1.0 on the right half-line [alpha, inf), -1.0 on the left one
    (-inf, alpha]: the one place that reads a side tag.  Any other tag is a
    ValueError."""
    if side == RIGHT:
        return 1.0
    if side == LEFT:
        return -1.0
    raise ValueError(f"side must be '{RIGHT}' or '{LEFT}'")


_NUMBERS = (complex, float, int, np.number)


def _scalar(z) -> bool:
    """True for one point, a Python or numpy number or a 0-d array; False for
    points in an array of ndim >= 1 or a list.  The per-point evaluators take
    their scalar path on it and broadcast otherwise."""
    return isinstance(z, _NUMBERS) or getattr(z, "ndim", None) == 0


# The two rules of every entry that evaluates at a caller's point: the point
# rule before the evaluation, the value rule on what it computed there.  The
# per-point evaluators of the hot path (solutions.Rule, which ExtremalSolution
# and stieltjes_transform call, ResolventU, MatrixPolynomial) take neither;
# their callers do.

def _point(z, cut=None):
    """The one point rule: z back if it is finite and, when cut (anything
    with side and alpha) is given, off cut's half-line; else a ValueError
    that names z.  A bool, a str, None and an array of ndim >= 1 are no
    point; a 0-d array or a numpy scalar is one.  Scalar Python: lft_solve
    pays it at every point."""
    if isinstance(z, (bool, np.bool_)) or getattr(z, "ndim", 0):
        raise ValueError(f"point {z!r} is not a number")
    try:
        finite = cmath.isfinite(z)
    except TypeError:   # a str, None, any other object
        raise ValueError(f"point {z!r} is not a number") from None
    if not finite:
        raise ValueError(f"point {z} is not finite")
    if cut is not None and z.imag == 0:
        sign = side_sign(cut.side)
        if not sign * z.real < sign * cut.alpha:
            span = f"[{cut.alpha}, inf)" if sign > 0 else f"(-inf, {cut.alpha}]"
            raise ValueError(f"point {z} lies on the cut, the {cut.side} half-line {span}")
    return z


def _value(a: Array, z) -> Array:
    """The one value rule: a, computed at the point z, back if every entry is
    finite; else a ValueError that names z, since at a point that passed the
    point rule only a float64 overflow leaves a non-finite entry."""
    if np.count_nonzero(np.isfinite(a)) < a.size:   # half the cost of .all() on a q x q value
        raise ValueError(f"value at point {z} overflows float64")
    return a


def derived(build):
    """Cache build(obj, *args) on obj once per args: in obj.__dict__ under
    the builder's name and the (hashable) args, as cached_property keeps its
    value.  derived only caches: it freezes the arrays a builder returns,
    alone or in a tuple, and nothing deeper, since every object of the
    package freezes the arrays it holds when it is built (matrix_stack,
    MatrixPolynomial, StieltjesPair, Rule).
    """
    @wraps(build)
    def cached(obj, *args):
        key = (build.__name__, *args)
        cache = obj.__dict__
        if key not in cache:
            cache[key] = freeze(build(obj, *args))
        return cache[key]
    return cached


@dataclass(frozen=True, eq=False)
class MomentSequence:
    """Finite sequence of q x q moments with base point and side tag.

    The moments are one read-only complex (kappa+1, q, q) stack; side,
    shape and finiteness are checked once, here (matrix_stack).  The
    sequence caches its shifted sequence; everything else derived from it
    (the Schur complements and their classes, the monic rows, the
    classification, Q, (L, M) and the two polynomial quadruples) is cached
    on it by its builder (see derived).
    Equality and hashing are by identity: a sequence carries its own cache,
    and two sequences built from equal moments are two problem objects.
    """

    q: int
    alpha: float
    side: str
    moments: Array

    def __post_init__(self):
        side_sign(self.side)
        object.__setattr__(self, "alpha", _real(self.alpha, "alpha"))
        if not len(self.moments):
            raise ValueError("at least one moment required")
        object.__setattr__(self, "moments", matrix_stack(self.moments, self.q, "moment"))

    @property
    def kappa(self) -> int:
        return len(self.moments) - 1

    def __getitem__(self, j: int) -> Array:
        return self.moments[j]

    @cached_property
    def shifted(self) -> "MomentSequence":
        return shift_sequence(self)


def sequence(moments, alpha: float = 0.0, side: str = RIGHT) -> MomentSequence:
    """Build a MomentSequence from scalars or matrices, inferring q."""
    q = np.atleast_2d(moments[0]).shape[0] if len(moments) else 0
    return MomentSequence(q=q, alpha=alpha, side=side, moments=moments)


def half(k: int) -> int:
    """floor(k/2); the index bound used throughout the Hankel machinery."""
    return k // 2


# The stack, Hankel and Schur helpers read moments by index or slice only, so
# they take a MomentSequence or a plain list of moment matrices alike.

def y_stack(seq, j: int, k: int) -> Array:
    """Column stack (s_j; ...; s_k), j <= k."""
    stack = np.asarray(seq[j:k + 1])
    return stack.reshape(-1, stack.shape[-1])


def z_stack(seq, j: int, k: int) -> Array:
    """Row stack (s_j ... s_k), j <= k."""
    stack = np.asarray(seq[j:k + 1])
    return stack.transpose(1, 0, 2).reshape(stack.shape[-1], -1)


def hankel(seq, n: int, offset: int = 0) -> Array:
    """Block Hankel matrix (s_{j+k+offset})_{j,k=0..n}.

    offset 0 gives H_n, offset 1 gives K_n and offset 2 gives K~_n.
    """
    stack = np.asarray(seq[offset:offset + 2 * n + 1], dtype=complex)
    q = stack.shape[-1]
    idx = np.arange(n + 1)
    blocks = stack[idx[:, None] + idx[None, :]]
    return blocks.transpose(0, 2, 1, 3).reshape((n + 1) * q, (n + 1) * q)


def schur_correction(seq, n: int) -> Array:
    """z_{n,2n-1} H_{n-1}^+ y_{n,2n-1}, the part of s_{2n} outside H^_n (n >= 1)."""
    hp = _pinv(hankel(seq, n - 1))
    return z_stack(seq, n, 2 * n - 1) @ hp @ y_stack(seq, n, 2 * n - 1)


def schur_complement(seq, n: int) -> Array:
    """Left Schur complement H^_n = s_{2n} - z_{n,2n-1} H_{n-1}^+ y_{n,2n-1}."""
    if n == 0:
        return seq[0].copy()
    return seq[2 * n] - schur_correction(seq, n)


def shifted_moments(mats, alpha: float, side: str) -> Array:
    """The stack r_j = +-(s_{j+1} - alpha*s_j), + on the right half-line, - on
    the left, one matrix shorter than mats."""
    mats = np.asarray(mats)
    return side_sign(side) * (mats[1:] - alpha * mats[:-1])


def shift_sequence(seq: MomentSequence) -> MomentSequence:
    """Alpha-shifted sequence; one moment shorter, same side and alpha."""
    if seq.kappa < 1:
        raise ValueError("shift needs at least two moments")
    return MomentSequence(q=seq.q, alpha=seq.alpha, side=seq.side,
                          moments=freeze(shifted_moments(seq.moments, seq.alpha, seq.side)))


def reflect(seq: MomentSequence) -> MomentSequence:
    """t_j = (-1)^j s_j with alpha -> -alpha and the side flipped."""
    mats = ((-1) ** np.arange(seq.kappa + 1))[:, None, None] * seq.moments
    side = LEFT if seq.side == RIGHT else RIGHT
    return MomentSequence(q=seq.q, alpha=-seq.alpha, side=side, moments=freeze(mats))


@derived
def _cholesky_hhats(seq: MomentSequence):
    """The Hhat_n from one Cholesky factor of H_{half(kappa)}, or None where
    that route does not apply."""
    # np.linalg.cholesky reads only the lower triangle, so the Hermitian
    # test comes first, per moment: one large moment must not hide the
    # asymmetry of a small one
    if not _hermitian_mask(seq.moments).all():
        return None
    try:
        c = np.linalg.cholesky(hankel(seq, half(seq.kappa)))
    except np.linalg.LinAlgError:
        return None
    n, q = half(seq.kappa) + 1, seq.q
    idx = np.arange(n)
    diag = c.reshape(n, q, n, q)[idx, :, idx, :]
    return diag @ diag.conj().swapaxes(-1, -2)


@derived
def _pinv_hhats(seq: MomentSequence) -> tuple:
    """The Hhat_n by the pinv formula of schur_complement, and their classes."""
    values = matrix_stack([schur_complement(seq, n) for n in range(half(seq.kappa) + 1)],
                          seq.q, "Hhat_n")
    return values, _psd_classes(values)


def _hhats_rule(seq: MomentSequence, values, classes) -> tuple:
    """hhats of seq from its Cholesky values (None where that route does not
    apply) and their classes: those two when every class is PD, else
    _pinv_hhats(seq)."""
    if values is not None and (classes == PD).all():
        return values, classes
    return _pinv_hhats(seq)


@derived
def hhats(seq: MomentSequence) -> tuple:
    """The Schur complements Hhat_0..Hhat_{half(kappa)} and the psd class of each.

    Returns (values, classes), two stacks.  Hhat_n = C_nn C_nn^* from the
    diagonal blocks of one Cholesky factor H_{half(kappa)} = C C^* when every
    moment is Hermitian at its own scale, the factorization succeeds and
    every Hhat_n so obtained is PD; otherwise, and so for every NND or
    indefinite sequence, by the pinv formula of schur_complement.  The
    rule reads this sequence only: hhats(seq.shifted) makes the same choice
    for the odd Q_j on its own.
    """
    values = _cholesky_hhats(seq)
    return _hhats_rule(seq, values, None if values is None else _psd_classes(values))


def require_hankel_pd_prefix(seq: MomentSequence, up_to: int):
    """Hhat_0..Hhat_up_to all PD, i.e. the Hankel block H_up_to PD."""
    # the Schur complements are far better scaled than the Hankel block
    if not (hhats(seq)[1][:up_to + 1] == PD).all():
        raise ValueError("Hankel-PD prefix required")


@derived
def monic_rows(seq: MomentSequence) -> Array:
    """Coefficients of the monic P_0..P_top, top = half(kappa+1), as one
    (top+1, top+1, q, q) stack: entry [n, j] multiplies z^j in P_n.

    Row n >= 1 is the block row (-z_{n,2n-1} H_{n-1}^{-1}  I), with an LU
    inverse: the one Hankel-block inverse of the package.  Its readers,
    favard_pair and the public orthogonal systems, take Hankel-PD-prefix
    input that need not be Stieltjes-PD; a Stieltjes-PD sequence's
    quadruple, U and difference inverse read the factor chain of (L, M)
    instead.  No positivity check: the caller makes it.
    """
    q, top = seq.q, half(seq.kappa + 1)
    rows = np.zeros((top + 1, top + 1, q, q), dtype=complex)
    rows[np.arange(top + 1), np.arange(top + 1)] = np.eye(q)
    for n in range(1, top + 1):
        row = -z_stack(seq, n, 2 * n - 1) @ np.linalg.inv(hankel(seq, n - 1))
        rows[n, :n] = row.reshape(q, n, q).swapaxes(0, 1)
    return rows


# --- structural kit ---------------------------------------------------------

def lower_triangular_S(seq: MomentSequence, n: int) -> Array:
    """Block Toeplitz S_n with s_0 on the diagonal and s_j below."""
    q = seq.q
    # block (j, k) is s_{j-k} for j >= k: index j-k+1 into the moments behind
    # one zero block, clipped to that zero block above the diagonal
    stack = np.concatenate([np.zeros((1, q, q), dtype=complex), seq[:n + 1]])
    idx = np.arange(n + 1)
    blocks = stack[np.maximum(idx[:, None] - idx[None, :] + 1, 0)]
    return blocks.transpose(0, 2, 1, 3).reshape((n + 1) * q, (n + 1) * q)


# --- classification ---------------------------------------------------------

NO = "NO"
NND = "NND"
NND_EXTENDABLE = "NND_EXTENDABLE"


@dataclass(frozen=True)
class SequenceClass:
    hankel: str
    stieltjes: str
    side: str


def _kernel_included(q_a: Array, q_b: Array) -> bool:
    """N(Q_a) subset of N(Q_b), tested through the pinv projector of Q_a."""
    proj = np.eye(q_a.shape[0]) - q_a @ _pinv(q_a)
    return np.linalg.norm(q_b @ proj) <= DEFAULT_TOL.identity_tol * (1.0 + np.linalg.norm(q_b))


@derived
def _interlaced(seq: MomentSequence) -> tuple:
    """hhats of seq and of seq.shifted as one (values, classes) pair of
    stacks, interlaced: Hhat_n at 2n and the shifted sequence's Hhat_n at
    2n+1.  The Cholesky values of both sides are classed in one pass, and
    each side then takes hhats' rule on its share of the classes."""
    sides = (seq, seq.shifted) if seq.kappa else (seq,)
    chol = [_cholesky_hhats(side) for side in sides]
    found = [values for values in chol if values is not None]
    pooled = _psd_classes(np.concatenate(found)) if found else None
    parts, start = [], 0
    for side, values in zip(sides, chol):
        share = None
        if values is not None:
            share, start = pooled[start:start + len(values)], start + len(values)
        parts.append(_hhats_rule(side, values, share))
    out = []
    for stacks in zip(*parts):   # the values of each side, then the classes
        both = np.empty((seq.kappa + 1,) + stacks[0].shape[1:], dtype=stacks[0].dtype)
        for k, stack in enumerate(stacks):
            both[k::2] = stack
        out.append(both)
    return tuple(out)


def q_values(seq: MomentSequence) -> Array:
    """Interlaced Schur complements Q_{2n} = Hhat_n, Q_{2n+1} = Hhat_shift_n, one stack."""
    return _interlaced(seq)[0]


@derived
def classify(seq: MomentSequence) -> SequenceClass:
    """Hankel and alpha-Stieltjes definiteness classes of a sequence.

    The Hankel class comes from the spectrum of the largest H_n.  The
    Stieltjes class is decided through the interlaced Schur complements:
    all PD means PD; all PSD plus the kernel-inclusion chain up to j-1
    means the solvability class (NND) resp. the extendability class.
    """
    qs, classes = _interlaced(seq)
    # PD is decided through the Schur complements Q_{2n} = Hhat_n (numerically
    # robust and equivalent); NND falls back to the spectrum of the full block
    if np.all(classes[0::2] == PD):
        hankel_cls = PD
    else:
        hankel_cls = NND if psd_class(hankel(seq, half(seq.kappa))) in (PD, PSD) else NO

    if np.all(classes == PD):
        return SequenceClass(hankel=hankel_cls, stieltjes=PD, side=seq.side)
    if set(classes) <= {PD, PSD}:
        chain = [_kernel_included(qs[j], qs[j + 1]) for j in range(seq.kappa)]
        if all(chain):
            return SequenceClass(hankel=hankel_cls, stieltjes=NND_EXTENDABLE, side=seq.side)
        if all(chain[:-1]):
            return SequenceClass(hankel=hankel_cls, stieltjes=NND, side=seq.side)
    return SequenceClass(hankel=hankel_cls, stieltjes=NO, side=seq.side)


# --- Potapov fundamental matrices -------------------------------------------

def potapov_defect(seq: MomentSequence, s_value: Array, z: complex):
    """The two fundamental block matrices tested against a candidate S(z).

    Returns (F_base, F_shift) for the point z, which follows the point rule
    and must have Im z != 0; both follow the value rule.  A function S
    solves the moment problem iff both are PSD throughout the upper
    half-plane for a right sequence, resp. the lower half-plane for a
    left one; potapov_defect_psd decides that.  Each is
    [[H, c], [c^*, (f - f^*)/(z - conj z)]] with H the Hankel block at
    index n and c = R_n(z) (v_n f + u) the column of the block Toeplitz
    resolvent R_n(z) = (I - z T_n)^{-1}, taken by the recurrence
    c_0 = f + u_0, c_j = z c_{j-1} + u_j:

        base:  n = half(kappa),    f,                       u = (0; s_0; ...; s_{n-1})
        shift: n = half(kappa-1),  f_sh = +-(z - alpha) f,  u = (+-s_0; r_0; ...; r_{n-1})

    with r the shifted moments and + on the right half-line.  For kappa = 0
    the shifted matrix is its q x q corner alone.
    """
    if _point(z).imag == 0:
        raise ValueError("defect matrices are only defined off the real axis")
    f = _matrix(s_value, seq.q, "S value")
    sign = side_sign(seq.side)

    def corner(f):
        return (f - f.conj().T) / (z - np.conj(z))

    def assemble(h_block, f, head, w):
        col = [f + head]
        for w_j in w:
            col.append(z * col[-1] + w_j)
        col = np.vstack(col)
        return np.block([[h_block, col], [col.conj().T, corner(f)]])

    n0, n1 = half(seq.kappa), half(seq.kappa - 1)
    base = assemble(hankel(seq, n0), f, 0.0, seq[:n0])
    f_sh = sign * (z - seq.alpha) * f
    shift = corner(f_sh) if n1 < 0 else assemble(
        hankel(seq.shifted, n1), f_sh, sign * seq[0], seq.shifted[:n1])
    return _value(base, z), _value(shift, z)


def potapov_defect_psd(seq: MomentSequence, s_value: Array, z: complex) -> bool:
    """True iff both fundamental matrices at z are PSD: block criterion on
    [[H, c], [c^*, corner]], and the class of a lone q x q corner."""
    q = seq.q

    def split_psd(mat):
        nq = len(mat) - q
        if nq == 0:
            return psd_class(mat) in (PD, PSD)
        return block_psd(mat[:nq, :nq], mat[:nq, nq:], mat[nq:, :nq], mat[nq:, nq:])

    return all(split_psd(mat) for mat in potapov_defect(seq, s_value, z))
