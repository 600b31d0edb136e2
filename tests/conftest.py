import functools
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from stieltjesmp import (
    CONSTANT, DEFAULT_TOL, JTILDE, PD, DSParam, FavardPair, ResolventU, SingularDenominator,
    StieltjesPair, ds_param, extremal, psd_class, q_from_ds, random_pd, real_zeros, reflect,
    resolvent_u, schur_rotation, seq_from_ds, sequence, signature_matrix, stieltjes_quadruple,
)
from stieltjesmp.linalg import _hermitian_mask, _hermitize, matrix_stack
from stieltjesmp.measures import MolecularMeasure
from stieltjesmp.moments import (
    MomentSequence, _point, half, hankel, hhats, lower_triangular_S, require_hankel_pd_prefix,
    schur_correction, shifted_moments, side_sign, y_stack, z_stack,
)
from stieltjesmp.orthopoly import GENERAL, MatrixPolynomial, _cs, chain_d_e
from stieltjesmp.params import _door, _lambda_term, chain_stacks
from stieltjesmp.solutions import _rule, _string_w

@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """A failing property test reports its own assertion: hypothesis's plugin
    imports libcst here to write a patch, and libcst 1.0 warns on import that
    mypy_extensions.TypedDict is deprecated, which error::DeprecationWarning
    would turn into an INTERNALERROR.  That one warning is ignored while the
    report is made, and nowhere else."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                                DeprecationWarning)
        yield


# scalar hand-evaluated fixtures used throughout
#   F1: q=1, alpha=0, s=(1,1)       F2: s=(1,1,2)       F3 = reflect(F1)


@pytest.fixture
def f1():
    return sequence([1.0, 1.0])


@pytest.fixture
def f2():
    return sequence([1.0, 1.0, 2.0])


@pytest.fixture
def f3(f1):
    return reflect(f1)


# (q, kappa, max_cond) ladder for the random desk-scale fixtures; the
# conditioning bound keeps the 1e-9/1e-10 identity checks meaningful
LADDER = [
    (1, 4, 1e7), (1, 5, 1e7), (1, 6, 1e8),
    (2, 3, 1e7), (2, 4, 1e7), (2, 5, 1e7),
    (3, 2, 1e7), (3, 3, 1e7),
    (4, 2, 1e7), (4, 3, 1e6),
]

ALPHAS = [-0.5, 0.0, 0.5, 1.0]

_cache = {}


def fixture_draws(q: int, kappa: int, alpha: float, side: str, seed: int):
    """The sequences random_stieltjes_pd_sequence draws from, in stream
    order: M_0.. then L_0.. drawn by random_pd from the seed, mapped to
    moments by seq_from_ds (kappa >= 1)."""
    rng = np.random.default_rng(seed)
    while True:
        m = [random_pd(q, rng) for _ in range(half(kappa) + 1)]
        l = [random_pd(q, rng) for _ in range(half(kappa - 1) + 1)]
        yield seq_from_ds(DSParam(q=q, alpha=float(alpha), side=side, l=l, m=m))


def random_fixture(q: int, kappa: int, alpha: float = 0.0, side: str = "right",
                   seed: int = 0, max_cond: float | None = 1e7):
    """random_stieltjes_pd_sequence with a bound of the fixture's own on the
    condition of the top Hankel blocks: the first draw within max_cond of 400,
    or the first draw for max_cond=None."""
    for _, seq in zip(range(400), fixture_draws(q, kappa, alpha, side, seed)):
        worst = max(np.linalg.cond(hankel(seq, half(kappa))),
                    np.linalg.cond(hankel(seq.shifted, half(kappa - 1))))
        if max_cond is None or worst <= max_cond:
            return seq
    raise ValueError(f"no fixture with cond <= {max_cond:g} in 400 draws (q={q}, kappa={kappa})")


def ladder_fixture(i: int):
    """Deterministic random Stieltjes-PD sequence number i of the ladder."""
    if i not in _cache:
        q, kappa, max_cond = LADDER[i % len(LADDER)]
        alpha = ALPHAS[i % len(ALPHAS)]
        side = "right" if i % 2 == 0 else "left"
        _cache[i] = random_fixture(q, kappa, alpha, side, seed=i, max_cond=max_cond)
    return _cache[i]


def route_cases() -> list:
    """(sequence, (Hankel class, Stieltjes class)) on every route of the
    Schur complements: the 50 ladder fixtures and their reflections (both
    sides Cholesky), an NND sequence (the shift pinv), one PD on one side
    only (the shift indefinite) and a non-Hermitian q = 2 sequence (both
    sides pinv)."""
    fixtures = [ladder_fixture(i) for i in range(50)]
    return [(s, ("PD", "PD")) for s in fixtures + [reflect(s) for s in fixtures]] + [
        (sequence([1.0, 0.0, 1.0]), ("PD", "NND")),
        (sequence([1.0, -1.0, 2.0, -2.5, 5.0]), ("PD", "NO")),
        (sequence([np.eye(2), [[0.5, 0.2], [0.0, 0.5]], [[1.0, 0.0], [0.3, 1.0]]]), ("NO", "NO")),
    ]


def cholesky_hhats_one_side(seq):
    """The Cholesky Hhats of one side alone: the Hermitian test of its own
    moments, its own Cholesky of H_{half(kappa)} and the products of the
    diagonal blocks; None where that route does not apply.  The oracle of the
    gate, which tests and factors a sequence and its shift together."""
    if not _hermitian_mask(seq.moments).all():
        return None
    n, q = half(seq.kappa) + 1, seq.q
    try:
        c = np.linalg.cholesky(hankel(seq, n - 1))
    except np.linalg.LinAlgError:
        return None
    idx = np.arange(n)
    diag = c.reshape(n, q, n, q)[idx, :, idx, :]
    return diag @ diag.conj().swapaxes(-1, -2)


def end_rule_one_at_a_time(ds, m: int, wall: bool):
    """The rule of one end of string_rule built alone: the end's own W
    (_string_w) and its own eigh, the oracle of the paired build, which takes
    both ends from one W; None for the wall at m = 0, which holds no mass."""
    nm = half(m - 1) + 1 if wall else half(m) + 1
    if not nm:
        return None
    w, ri_star = _string_w(ds, nm, nm if wall else nm - 1)
    lam, v = np.linalg.eigh(w.conj().T @ w)
    return _rule(ds, lam, v, ri_star[0], 0 if wall else ds.q)


def lm_draw(seed: int, q: int, kappa: int, draw: int):
    """The moments of one lm-ladder draw: (L, M) drawn with random_pd from
    the seed vector (seed, q, kappa, draw), as the benchmark draws them,
    with alpha = 0.5 on the right half-line, as a fresh sequence."""
    rng = np.random.default_rng([seed, q, kappa, draw])
    m = tuple(random_pd(q, rng) for _ in range(half(kappa) + 1))
    l = tuple(random_pd(q, rng) for _ in range(half(kappa - 1) + 1))
    ds = DSParam(q=q, alpha=0.5, side="right", l=l, m=m)
    return sequence(list(seq_from_ds(ds).moments), alpha=0.5, side="right")


def writeable_arrays(*objs) -> list:
    """Paths of the writeable arrays reachable from objs through tuples,
    lists, dict values and instance attributes (cached values included),
    each object visited once.  The package freezes what it holds when it is
    built and walks no object graph; this walk is the check of that rule."""
    seen, found = set(), []

    def walk(obj, path):
        if isinstance(obj, (str, bytes, int, float, complex, type)) or id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if obj.flags.writeable:
                found.append(path)
        elif isinstance(obj, (tuple, list)):
            for i, x in enumerate(obj):
                walk(x, f"{path}[{i}]")
        elif isinstance(obj, dict):
            for k, x in obj.items():
                walk(x, f"{path}[{k!r}]")
        elif hasattr(obj, "__dict__"):
            for k, x in vars(obj).items():
                walk(x, f"{path}.{k}")

    for i, obj in enumerate(objs):
        walk(obj, f"<{i}: {type(obj).__name__}>")
    return found


def rel_err(got, want) -> float:
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    return float(np.linalg.norm(got - want) / (1.0 + np.linalg.norm(want)))


def seq_rel_err(s1, s2) -> float:
    scale = max(np.linalg.norm(m) for m in s1.moments)
    return max(float(np.abs(a - b).max()) for a, b in zip(s1.moments, s2.moments)) / scale


def hankel_inverse(seq, n):
    """H_n^{-1} of the oracles' own, inverted afresh on every call: no oracle
    shares a cached array with the library code it checks."""
    return np.linalg.inv(hankel(seq, n))


def ordered_product(mats, q: int):
    """M_0 M_1 ... M_k multiplied left to right; the q x q identity if empty."""
    return functools.reduce(np.matmul, mats, np.eye(q, dtype=complex))


# --- coefficient-stack kit of the polynomial oracles -------------------------

def stack_sum(*stacks):
    """Sum of (deg+1, rows, cols) coefficient stacks of unequal lengths."""
    n = max(len(c) for c in stacks)
    return sum(np.concatenate([c, np.zeros((n - len(c),) + c.shape[1:], dtype=complex)])
               for c in stacks)


def times_w(stack, alpha: float, sign: float):
    """Coefficients of sign (z - alpha) P(z) from the coefficient stack of P."""
    zero = np.zeros((1,) + stack.shape[1:], dtype=complex)
    return sign * (np.concatenate([zero, stack]) - alpha * np.concatenate([stack, zero]))


# --- structural kit of the Hankel oracles ----------------------------------

def first_block_column(q: int, n: int):
    """v_n = (I_q; 0; ...; 0), shape (n+1)q x q."""
    v = np.zeros(((n + 1) * q, q), dtype=complex)
    v[:q, :] = np.eye(q)
    return v


def resolvent_R(q: int, n: int, z: complex):
    """R_n(z) = (I - z T_n)^{-1}; block lower triangular with powers of z."""
    r = np.zeros(((n + 1) * q, (n + 1) * q), dtype=complex)
    eye = np.eye(q)
    for j in range(n + 1):
        for k in range(j + 1):
            r[j * q:(j + 1) * q, k * q:(k + 1) * q] = (z ** (j - k)) * eye
    return r


def u_vector(seq, n: int):
    """u_n = (0; y_{0,n-1}); u_0 = 0."""
    q = seq.q
    u = np.zeros(((n + 1) * q, q), dtype=complex)
    if n >= 1:
        u[q:, :] = y_stack(seq, 0, n - 1)
    return u


def u_shift_vector(seq, n: int):
    """Shifted companion of u_n for the sequence's own side.

    right: u_{a>n} = y_{0,n} - alpha u_n;  left: u_{a<n} = -y_{0,n} + alpha u_n.
    """
    y = y_stack(seq, 0, n)
    u = u_vector(seq, n)
    if seq.side == "right":
        return y - seq.alpha * u
    return -y + seq.alpha * u


def block_shift(q: int, n: int):
    """T_n: (n+1)q block down-shift, nilpotent, det(I - z T_n) = 1."""
    t = np.zeros(((n + 1) * q, (n + 1) * q), dtype=complex)
    for j in range(n):
        t[(j + 1) * q:(j + 2) * q, j * q:(j + 1) * q] = np.eye(q)
    return t


def alternating_signs(q: int, n: int):
    """V_n = diag((-1)^j I_q), the reflection conjugator."""
    blocks = [((-1) ** j) * np.eye(q) for j in range(n + 1)]
    v = np.zeros(((n + 1) * q, (n + 1) * q), dtype=complex)
    for j, b in enumerate(blocks):
        v[j * q:(j + 1) * q, j * q:(j + 1) * q] = b
    return v


def column_E(q: int, n: int, z: complex):
    """E_n(z) = (I; zI; ...; z^n I) = R_n(z) v_n."""
    e = np.empty(((n + 1) * q, q), dtype=complex)
    for j in range(n + 1):
        e[j * q:(j + 1) * q, :] = (z ** j) * np.eye(q)
    return e


def shat_matrix(seq, n: int):
    """Toeplitz companion of u_{a>n}/u_{a<n}: R_n(z) u = Shat E_n(z).

    right: Shat = S_n - alpha * down(S_{n-1});  left: the negative of that.
    """
    q = seq.q
    s = lower_triangular_S(seq, n)
    down = np.zeros_like(s)
    if n >= 1:
        down[q:, :n * q] = lower_triangular_S(seq, n - 1)
    shat = s - seq.alpha * down
    return shat if seq.side == "right" else -shat


# --- Hankel-inverse oracles -------------------------------------------------

def difference_inverse_closed(seq, m, z):
    """[S_max(z) - S_min(z)]^{-1} by the closed Hankel formula

        -w E_n^T H_n^{-1} E_n + w^2 E_j^T Hshift_j^{-1} E_j,

    w = z - alpha (right) resp. alpha - z (left), n = half(m), j = half(m - 1).
    The library sums over the factor chain of (L, M), inverting nothing;
    this is the formula it is checked against."""
    _, m = _door(seq, m)   # the Stieltjes-PD gate, then the index
    w = (z - seq.alpha) if seq.side == "right" else (seq.alpha - z)
    e_n = column_E(seq.q, half(m), z)
    out = -w * (e_n.T @ hankel_inverse(seq, half(m)) @ e_n)
    if m >= 1:
        e_j = column_E(seq.q, half(m - 1), z)
        out = out + w ** 2 * (e_j.T @ hankel_inverse(seq.shifted, half(m - 1)) @ e_j)
    return out


def favard_pair_row_col(seq) -> FavardPair:
    """The Favard pair with A_n = row K_n col Hhat_n^{-1}, where
    row = (-z_{n,2n-1} H_{n-1}^{-1}  I) and col = (-H_{n-1}^{-1} y_{n,2n-1}; I)
    come from the oracle's own LU inverse, and A_0 = s_1 s_0^{-1}.  The
    library reads the row off the cached monic rows and takes col = row^*."""
    kappa = seq.kappa
    require_hankel_pd_prefix(seq, half(kappa - 1))
    d = hhats(seq)[0]

    b = [seq[0].copy()]
    for n in range(1, half(kappa) + 1):
        b.append(np.linalg.inv(d[n - 1]) @ d[n])
    a = []
    if kappa >= 1:
        a.append(seq[1] @ np.linalg.inv(seq[0]))
    for n in range(1, half(kappa - 1) + 1):
        hinv = hankel_inverse(seq, n - 1)
        row = np.hstack([-z_stack(seq, n, 2 * n - 1) @ hinv, np.eye(seq.q)])
        col = np.vstack([-hinv @ y_stack(seq, n, 2 * n - 1), np.eye(seq.q)])
        a.append(row @ hankel(seq, n, 1) @ col @ np.linalg.inv(d[n]))
    return FavardPair(a=tuple(a), b=tuple(b))


def random_constant_pair(q, side, rng):
    """Admissible constant pair: psi = I, phi = +/- PSD."""
    g = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
    w = g @ g.conj().T + 0.05 * np.eye(q)
    phi = w if side == "right" else -w
    return StieltjesPair(kind=CONSTANT, side=side, phi=phi, psi=np.eye(q))


def lft_solve_det(u, pair, z):
    """The linear-fractional transformation as the division of U(z)
    [phi; psi], singular by the determinant test: det and inv of its lower
    block.  The library sums the partial fractions of the pair's string
    rule; this division, its route before, is the one it is checked
    against."""
    q = u.ds.q
    _point(z, u.ds)
    g = u.poly(z) @ np.vstack(pair.values())
    num, den = g[:q], g[q:]
    if abs(np.linalg.det(den)) < 1e-13 * max(1.0, np.linalg.norm(den) ** q):
        raise SingularDenominator(f"denominator singular at z={z}")
    return num @ np.linalg.inv(den)


def rmul(p: MatrixPolynomial, mat) -> MatrixPolynomial:
    """z -> P(z) mat, one coefficient at a time."""
    return MatrixPolynomial([c @ mat for c in p.coeffs])


def sigma(seq, m=None) -> MatrixPolynomial:
    """Sigma = U E, U = resolvent_u(seq, m) and E the schur_rotation of its
    half-line: the generator of the Schur-class parametrization.  The
    library takes a Schur parameter F through the pair sqrt(2) E [F; I] of
    lft_solve; Sigma is the route it is checked against."""
    u = resolvent_u(seq, m)
    return rmul(u.poly, schur_rotation(u.ds.q, u.ds.side))


def lft_solve_schur(sig, f, z):
    """The Schur-class transformation (S11 F + S12)(S21 F + S22)^{-1} of
    S = sig(z), with plain inv and no singularity rule."""
    s, q = sig(z), len(f)
    return (s[:q, :q] @ f + s[:q, q:]) @ np.linalg.inv(s[q:, :q] @ f + s[q:, q:])


def dyukarev_loop(seq):
    """The quadruple from the moment polynomials: MatrixPolynomial arithmetic
    with Hankel inverses and T^k products with the block-shift matrix, one
    coefficient at a time.  The library builds the quadruple from the factor
    chain of (L, M); this is the independent construction it is checked against."""
    q, alpha = seq.q, seq.alpha

    def moment_poly(left, mid, right, n):
        t, cur, coeffs = block_shift(q, n), left.copy(), []
        for _ in range(n + 1):
            coeffs.append(cur.conj().T @ mid @ right)
            cur = t @ cur
        return np.array(coeffs)

    def combo(base, w, sign):
        return MatrixPolynomial(stack_sum(base, times_w(w, alpha, sign)))

    eye, zero = np.eye(q, dtype=complex)[None], np.zeros((1, q, q), dtype=complex)
    a, c = [], []
    for n in range(half(seq.kappa) + 1):
        v = first_block_column(q, n)
        mid = hankel_inverse(seq, n) @ resolvent_R(q, n, alpha)
        a.append(combo(eye, moment_poly(u_vector(seq, n), mid, v, n), 1.0))
        c.append(combo(zero, moment_poly(v, mid, v, n), -1.0))
    b, d = [MatrixPolynomial(zero)], [MatrixPolynomial(eye)]
    for n in range(half(seq.kappa + 1)):
        v, mid, y = first_block_column(q, n), hankel_inverse(seq.shifted, n), y_stack(seq, 0, n)
        b.append(MatrixPolynomial(moment_poly(u_shift_vector(seq, n), mid, y, n)))
        d.append(combo(eye, moment_poly(v, mid, y, n), -1.0 if seq.side == "right" else 1.0))
    return {"a": a, "b": b, "c": c, "d": d}


def quadruple_loop(seq):
    """The Stieltjes quadruple one polynomial at a time: each P_n split out of
    its block row (-z_{n,2n-1} H_{n-1}^{-1}  I), each attached polynomial from
    its own Toeplitz product, (z - alpha) P_shift_n as a shifted coefficient
    stack, and the shift-identity points drawn index by index.  The library builds
    each family as one coefficient stack; this is the construction it is
    checked against."""
    q, alpha = seq.q, seq.alpha
    eye = np.eye(q)

    def split(row, k):
        return MatrixPolynomial([row[:, j * q:(j + 1) * q] for j in range(k)])

    def monic(s):
        out = [MatrixPolynomial([eye])]
        for n in range(1, half(s.kappa + 1) + 1):
            row = -z_stack(s, n, 2 * n - 1) @ hankel_inverse(s, n - 1)
            out.append(split(np.hstack([row, eye]), n + 1))
        return out

    def attached(p):
        k = p.degree
        if k <= 0:
            return MatrixPolynomial([np.zeros((q, q))])
        row = np.hstack(list(p.coeffs))
        return split(row @ np.vstack([np.zeros((q, k * q)), lower_triangular_S(seq, k - 1)]), k)

    p = monic(seq)
    p_shift = monic(seq.shifted) if seq.kappa else [MatrixPolynomial([eye])]
    sign = 1.0 if seq.side == "right" else -1.0
    rng = np.random.default_rng(7)
    points = [rng.standard_normal(10) + 1j * rng.standard_normal(10)
              for _ in range(half(seq.kappa + 1))]
    return {"p": p, "second": [attached(pn) for pn in p], "p_shift": p_shift,
            "phat": [attached(MatrixPolynomial(times_w(pn.coeffs, alpha, sign)))
                     for pn in p_shift],
            "points": points}


def chain_families(ds) -> tuple:
    """The (p, second, p_shift, phat) coefficient stacks of the quadruple,
    normalised eagerly from the chain stacks of (L, M), the leading
    coefficients of both families inverted in one stacked inv: the oracle
    the lazy families of StieltjesQuadruple are held to, bit for bit.

    With [A_n; C_n] and [B_n; D_n] the block columns of chain_stacks, lead(.)
    the top coefficient and E_n = sum_{j<=n} D_j M_j:

        P_k = lead(cs D_k)^{-1} cs(D_k)     second_k = -lead(cs D_k)^{-1} cs(B_k)
        P_shift_n = -lead(cs C_n)^{-1} cs(E_n)
        phat_n = -+lead(cs C_n)^{-1} cs(A_n)   (- right, + left)
    """
    q = ds.q
    x, y = chain_stacks(ds)
    d, e = chain_d_e(ds)
    nx = len(x)
    n, k = np.arange(nx), np.arange(len(y))
    norm = np.linalg.inv(_cs(np.concatenate([d[k, k], x[n, n + 1, q:]])))[:, None]
    d_norm, c_norm = norm[:len(y)], norm[len(y):]
    p = d_norm @ _cs(d)
    second = -(d_norm @ _cs(y[:, :, :q]))
    p_shift = -(c_norm @ _cs(e))
    phat = (c_norm @ _cs(x[:, :nx, :q])) * -side_sign(ds.side)
    p[k, k] = p_shift[n, n] = np.eye(q)
    return p, second, p_shift, phat


def shift_identity_defect(seq) -> float:
    """Worst defect of the shift identity of stieltjes_quadruple(seq),

        (z - alpha) P_shift_n(z) = P_{n+1}(z) +- Q_{2n+1} Q_{2n}^{-1} P_n(z)

    (+ right, - left), n < half(kappa+1), at the points of quadruple_loop,
    each defect relative to 1 + the norms of its three terms.  The coupling
    is read off q_from_ds of the (L, M) the quadruple is built from.  The
    library checks no identity at run time; this is the check."""
    quad, qs = stieltjes_quadruple(seq), q_from_ds(ds_param(seq)).values
    sign = 1.0 if seq.side == "right" else -1.0
    worst = 0.0
    for n, z in enumerate(quadruple_loop(seq)["points"]):
        lhs = (z - seq.alpha)[:, None, None] * quad.p_shift[n](z)
        term = sign * (qs[2 * n + 1] @ np.linalg.inv(qs[2 * n])) @ quad.p[n](z)
        rhs = quad.p[n + 1](z) + term
        defect, *norms = (np.linalg.norm(x, axis=(1, 2)) for x in (lhs - rhs, lhs, term, rhs))
        worst = max(worst, float(np.max(defect / (1.0 + sum(norms)))))
    return worst


def block2x2(p11, p12, p21, p22) -> MatrixPolynomial:
    """Four q x q polynomials assembled into one 2q x 2q polynomial."""
    rows, cols = p11.q_rows, p11.q_cols
    out = np.zeros((max(len(p.coeffs) for p in (p11, p12, p21, p22)),
                    rows + p21.q_rows, cols + p12.q_cols), dtype=complex)
    for p, r, c in ((p11, 0, 0), (p12, 0, cols), (p21, rows, 0), (p22, rows, cols)):
        out[:len(p.coeffs), r:r + p.q_rows, c:c + p.q_cols] = p.coeffs
    return MatrixPolynomial(out)


def hankel_u(seq) -> MatrixPolynomial:
    """U_kappa assembled from the moment-polynomial families of dyukarev_loop."""
    f, m = dyukarev_loop(seq), seq.kappa
    return block2x2(f["a"][half(m)], f["b"][half(m + 1)], f["c"][half(m)], f["d"][half(m + 1)])


@dataclass(frozen=True)
class PolynomialU:
    """A 2q x 2q polynomial U built by a test route, with the call and the
    J-symmetry inverse of ResolventU, for the routes it is checked against."""

    poly: MatrixPolynomial

    def __call__(self, z):
        return self.poly(z)

    def inverse_at(self, z):
        jt = signature_matrix(JTILDE, self.poly.q_rows // 2)
        return jt @ self.poly.conj_star()(z) @ jt


def quadruple_u(seq, m) -> PolynomialU:
    """U_m assembled from the Hankel families of quadruple_loop.

    Right half-line:
        A = cs(Phat_n) Phat_n(a)^{-*}      B = -cs(P2_{k}) P_{k}(a)^{-*}
        C = -(z-a) cs(Psh_n) Phat_n(a)^{-*}  D = cs(P_{k}) P_{k}(a)^{-*}
    with n = half(m), k = half(m+1) and cs(P)(z) = [P(conj z)]^*.  On the
    left half-line C carries -(a-z) instead.  The library slices U out of
    the factor chain of (L, M); this is the orthogonal-polynomial route it
    is checked against."""
    _, m = _door(seq, m)
    quad, a = quadruple_loop(seq), seq.alpha
    n, k = half(m), half(m + 1)
    phat_inv_star = np.linalg.inv(quad["phat"][n](a)).conj().T
    p_inv_star = np.linalg.inv(quad["p"][k](a)).conj().T
    base = rmul(quad["p_shift"][n].conj_star(), phat_inv_star)
    sign = -1.0 if seq.side == "right" else 1.0
    poly = block2x2(rmul(quad["phat"][n].conj_star(), phat_inv_star),
                    MatrixPolynomial(-rmul(quad["second"][k].conj_star(), p_inv_star).coeffs),
                    MatrixPolynomial(times_w(base.coeffs, a, sign)),
                    rmul(quad["p"][k].conj_star(), p_inv_star))
    return PolynomialU(poly)


def scaled_u(u: ResolventU, z: complex):
    """diag(w I, I) U(z) diag(I / w, I), w = z - alpha (right) resp. alpha - z
    (left): U12 scaled by w and U21 by 1/w, off the base point."""
    q, alpha = u.ds.q, u.ds.alpha
    w = (z - alpha) if u.ds.side == "right" else (alpha - z)
    out = u(z)
    out[:q, q:] *= w
    out[q:, :q] /= w
    return out


def ds_increments(seq) -> DSParam:
    """(L, M) by the literal inverse-increment definition, with LU inverses
    of the Hankel blocks.  The library reads (L, M) off the Q_j; this is the
    Hankel construction it is checked against."""
    ds_param(seq)   # the Stieltjes-PD gate
    sh = seq.shifted
    q, a = seq.q, seq.alpha
    kappa = seq.kappa

    m = [np.linalg.inv(seq[0])]
    for n in range(1, half(kappa) + 1):
        e_n = column_E(q, n, a)
        e_p = column_E(q, n - 1, a)
        m.append(e_n.conj().T @ hankel_inverse(seq, n) @ e_n
                 - e_p.conj().T @ hankel_inverse(seq, n - 1) @ e_p)

    l = [seq[0] @ np.linalg.inv(seq.shifted[0]) @ seq[0]]
    for n in range(1, half(kappa - 1) + 1):
        l.append(z_stack(seq, 0, n) @ hankel_inverse(sh, n) @ y_stack(seq, 0, n)
                 - z_stack(seq, 0, n - 1) @ hankel_inverse(sh, n - 1) @ y_stack(seq, 0, n - 1))
    return DSParam(q=q, alpha=a, side=seq.side, l=tuple(l), m=tuple(m))


def seq_from_q_pinv_loop(p) -> MomentSequence:
    """The pinv recursion of seq_from_stieltjes_param as a loop that appends
    each moment to a list and hands the list to schur_correction and
    shifted_moments: the reference the stack-filling recursion is held to,
    bit for bit."""
    a, qs, sgn = p.alpha, p.values, side_sign(p.side)
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
    return MomentSequence(q=p.q, alpha=a, side=p.side, moments=mats)


def seq_from_canonical_loop(p, q: int, alpha: float, side: str) -> MomentSequence:
    """seq_from_canonical as a loop over a list of moments, the reference its
    stack-filling reconstruction is held to, bit for bit."""
    c, d = matrix_stack(p.c, q, "C_n"), matrix_stack(p.d, q, "D_n")
    mats = [d[0]]
    for j in range(1, len(c) + len(d)):
        n = (j + 1) // 2
        if j % 2 == 1:
            mats.append(c[n - 1] + _lambda_term(mats, n - 1))
        else:
            mats.append(d[n] + schur_correction(mats, n))
    return MomentSequence(q=q, alpha=alpha, side=side, moments=mats)


# --- the quadruple at alpha -------------------------------------------------

def quadruple_values_at_alpha(quad) -> dict:
    """Direct evaluations of all four families at the base point."""
    a = quad.ds.alpha
    return {
        "p": [pn(a) for pn in quad.p],
        "second": [pn(a) for pn in quad.second],
        "p_shift": [pn(a) for pn in quad.p_shift],
        "phat": [pn(a) for pn in quad.phat],
    }


def quadruple_values_closed_form(ds) -> dict:
    """Alternating (L, M)-products for the values at alpha.

    Right half-line:
        P_n(a)       = (-1)^n  prod_{j<n} M_j^{-1} L_j^{-1}
        P^<s>_n(a)   = (-1)^{n+1} prod_{j<n} (M_j^{-1} L_j^{-1}) sum_{j<n} L_j
        P_shift_n(a) = (-1)^n prod_{j<n} (M_j^{-1} L_j^{-1}) M_n^{-1} sum_{j<=n} M_j
        Phat_n(a)    = (-1)^n prod_{j<n} (M_j^{-1} L_j^{-1}) M_n^{-1}
    Left half-line: the same products without the alternating signs, except
    Phat picks up a single global minus.
    """
    ls = [np.asarray(v, dtype=complex) for v in ds.l]
    ms = [np.asarray(v, dtype=complex) for v in ds.m]
    if not all(psd_class(v) == PD for v in ls + ms):
        raise ValueError("(L, M) must be PD")
    q = ds.q
    li = [np.linalg.inv(v) for v in ls]
    mi = [np.linalg.inv(v) for v in ms]
    right = ds.side == "right"

    def sgn(n):
        return (-1.0) ** n if right else 1.0

    n_p = len(ls) + 1          # P_0..P_{half(kappa+1)}
    n_shift = len(ms)          # shifted families 0..half(kappa)
    # prods[n] = prod_{j<n} M_j^{-1} L_j^{-1}
    prods = [ordered_product((x for j in range(n) for x in (mi[j], li[j])), q)
             for n in range(n_p)]
    p_vals = [sgn(n) * prods[n] for n in range(n_p)]
    second_vals = [np.zeros((q, q), dtype=complex)]
    for n in range(1, n_p):
        second_vals.append(sgn(n + 1) * prods[n] @ sum(ls[:n]))
    shift_vals = [sgn(n) * prods[n] @ mi[n] @ sum(ms[:n + 1]) for n in range(n_shift)]
    phat_sign = 1.0 if right else -1.0
    phat_vals = [phat_sign * sgn(n) * prods[n] @ mi[n] for n in range(n_shift)]
    return {"p": p_vals, "second": second_vals, "p_shift": shift_vals, "phat": phat_vals}


def eval_quadruple_at_alpha(quad, ds) -> dict:
    """Values at alpha, checked against the closed (L, M)-products."""
    direct = quadruple_values_at_alpha(quad)
    closed = quadruple_values_closed_form(ds)
    for key in direct:
        for got, want in zip(direct[key], closed[key]):
            if np.linalg.norm(got - want) > DEFAULT_TOL.identity_tol * (1 + np.linalg.norm(want)):
                raise AssertionError(f"family '{key}' disagrees with closed form at alpha")
        if any(abs(np.linalg.det(v)) == 0 for v in direct[key][1:]):
            raise AssertionError(f"family '{key}' has a singular value at alpha")
    return direct


def q_values_from_quadruple(quad) -> list:
    """Interlaced Schur complements recovered from the quadruple at alpha.

    Right: Q_{2n} = P_n(a) Phat_n(a)^*, Q_{2n+1} = -Phat_n(a) P_{n+1}(a)^*.
    Left:  Q_{2n} = -P_n(a) Phat_n(a)^*, Q_{2n+1} = -Phat_n(a) P_{n+1}(a)^*.
    """
    a = quad.ds.alpha
    sgn_even = 1.0 if quad.ds.side == "right" else -1.0
    out = []
    for n in range(len(quad.phat)):
        out.append(sgn_even * quad.p[n](a) @ quad.phat[n](a).conj().T)
        if n + 1 < len(quad.p):
            out.append(-quad.phat[n](a) @ quad.p[n + 1](a).conj().T)
    return out


def leading_closed(seq, m) -> dict:
    """Leading coefficients of A, B, C, D in powers of w as closed ordered
    products in (L, M), n = half(m), k = half(m+1):

        A = (-1)^n prod_{j<n} L_j M_{j+1}        C = -+(-1)^n M_0 prod_{j<n} L_j M_{j+1}
        B = +-(-1)^{k-1} L_0 prod_{0<j<k} M_j L_j   D = (-1)^k prod_{j<k} M_j L_j

    (upper signs on the right half-line; B = 0 for k = 0).  The library
    reads them off the chain stacks; these are the products it is checked
    against."""
    ds, q = ds_param(seq), seq.q
    ls, ms = ds.l, ds.m
    n, k = half(m), half(m + 1)
    flip = 1.0 if seq.side == "right" else -1.0
    lm = ordered_product((ls[j] @ ms[j + 1] for j in range(n)), q)
    b = np.zeros((q, q), dtype=complex) if k == 0 else \
        flip * (-1.0) ** (k - 1) * ls[0] @ ordered_product((ms[j] @ ls[j] for j in range(1, k)), q)
    return {"A": (-1.0) ** n * lm, "B": b,
            "C": flip * (-1.0) ** (n + 1) * ms[0] @ lm,
            "D": (-1.0) ** k * ordered_product((ms[j] @ ls[j] for j in range(k)), q)}


# --- atom merge and residue extrapolation ------------------------------------

def merge_atoms_loop(atoms, masses, alpha, drop_tol):
    """Per-atom loop of measures._merge_atoms: sort, merge atoms closer than
    atom_merge (1 + |alpha|) at their trace-weighted mean, drop masses below
    drop_tol max(1, largest norm).  The masses are summed, never rebuilt."""
    order = np.argsort(atoms)
    atoms = [atoms[i] for i in order]
    masses = [masses[i] for i in order]
    merged_a, merged_m = [], []
    merge_dist = DEFAULT_TOL.atom_merge * (1 + abs(alpha))
    for x, m in zip(atoms, masses):
        if merged_a and abs(x - merged_a[-1]) < merge_dist:
            total = merged_m[-1] + m
            w_old = float(np.trace(merged_m[-1]).real)
            w_new = float(np.trace(m).real)
            if w_old + w_new > 0:
                merged_a[-1] = (w_old * merged_a[-1] + w_new * x) / (w_old + w_new)
            merged_m[-1] = total
        else:
            merged_a.append(float(x))
            merged_m.append(m)
    out_a, out_m = [], []
    scale = max((np.linalg.norm(m) for m in merged_m), default=1.0)
    for x, m in zip(merged_a, merged_m):
        if np.linalg.norm(m) < drop_tol * max(1.0, scale):
            continue
        out_a.append(x)
        out_m.append(m)
    return out_a, out_m


def residue_measure(seq, m: int, s_eval) -> MolecularMeasure:
    """Residue extrapolation at the candidate atoms of a rational transform.

    Candidates are the base point plus the real determinant zeros of the
    shifted first-kind polynomial; masses come from a two-point Richardson
    limit of (x - z) S(z) along z = x + i*eps.
    """
    p_shift = stieltjes_quadruple(seq).p_shift[half(m)]
    zeros = real_zeros(p_shift, kind=GENERAL)
    candidates = [seq.alpha] + [float(x) for x in zeros]

    eps1, eps2 = 1e-5, 1e-6
    atoms, masses = [], []
    for x in candidates:
        with np.errstate(over="ignore", invalid="ignore"):   # a divergence is reported below
            f1 = (x - (x + 1j * eps1)) * s_eval(x + 1j * eps1)
            f2 = (x - (x + 1j * eps2)) * s_eval(x + 1j * eps2)
            mass = (eps1 * f2 - eps2 * f1) / (eps1 - eps2)
        if not np.all(np.isfinite(mass)):
            raise ArithmeticError(f"residue extrapolation diverged at atom {x}")
        atoms.append(x)
        masses.append(_hermitize(mass))
    atoms, masses = merge_atoms_loop(atoms, masses, seq.alpha, drop_tol=1e-6)
    # extrapolated masses are PSD only to the extrapolation error: clipped
    w, v = np.linalg.eigh(_hermitize(np.array(masses)))
    clipped = (v * np.clip(w, 0.0, None)[:, None, :]) @ v.conj().swapaxes(-1, -2)
    return MolecularMeasure._checked(atoms, clipped, seq.side, seq.alpha)


def recover_residue(seq, m=None) -> MolecularMeasure:
    """Residue-extrapolation route to the free-end extremal's measure (upper
    on the right half-line, lower on the left): a lower-precision route,
    independent of the string rule that recover_min/recover_max read."""
    ds_param(seq)   # the Stieltjes-PD gate
    if m is None:
        m = seq.kappa
    s_min, s_max = extremal(seq, m)
    return residue_measure(seq, m, s_max if seq.side == "right" else s_min)
