"""The solve pipeline, its output gates and the failure taxonomy.

A gate compares an output against the input or against an independent
route, at the tolerance the library's own `verify` verb or test suite pins.
An op that raises is recorded as ``<ExceptionType>@<layer>.<call>``, naming
the innermost wrapped library call the exception escaped from; an op whose
output misses a gate is recorded by the gate's name.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from inputs import half

# gate tolerances, all relative; pinned by `verify` (moments 1e-7, round
# trips 1e-9, chain 1e-9) and by the test suite (route spread 1e-8, Loewner 1e-8)
TOL_MOMENTS = 1e-7
TOL_ROUNDTRIP = 1e-9
TOL_ROUTES = 1e-8
TOL_CHAIN = 1e-9
TOL_LOEWNER = 1e-8
# U comes from Hankel inverses and the chain from (L, M), so the two agree
# only to about cond(H_n) * eps: past cond 1e6 the chain tolerance follows it
CHAIN_PER_COND = 1e-15
DIGITS_CAP = 16.0

# wrapped public calls: metric name -> (module, qualified name)
CALLS = {
    "moments.classify": ("moments", "classify"),
    "params.stieltjes_param": ("params", "stieltjes_param"),
    "params.ds_param": ("params", "ds_param"),
    "params.seq_from_ds": ("params", "seq_from_ds"),
    "params.q_from_ds": ("params", "q_from_ds"),
    "orthopoly.stieltjes_quadruple": ("orthopoly", "stieltjes_quadruple"),
    "orthopoly.real_zeros": ("orthopoly", "real_zeros"),
    "resolvent.resolvent_u": ("resolvent", "resolvent_u"),
    "resolvent.factorize_u": ("resolvent", "factorize_u"),
    "resolvent.u_eval": ("resolvent", "ResolventU.__call__"),
    "solutions.extremal": ("solutions", "extremal"),
    "solutions.s_eval": ("solutions", "ExtremalSolution.__call__"),
    "solutions.lft_solve": ("solutions", "lft_solve"),
    "solutions.weyl_interval": ("solutions", "weyl_interval"),
    "measures.recover_min": ("measures", "recover_min"),
    "measures.recover_max": ("measures", "recover_max"),
    "measures.measure_moments": ("measures", "measure_moments"),
    "cli.main": ("cli", "main"),
}
LAYERS = ["moments", "params", "orthopoly", "resolvent", "solutions", "measures", "cli"]
_SPAN_OF = {(mod, qual): name for name, (mod, qual) in CALLS.items()}


def where(exc: BaseException) -> str:
    """Innermost wrapped library call in the traceback, else the innermost
    library frame, as ``layer.call``."""
    span = frame = None
    tb = exc.__traceback__
    while tb is not None:
        mod = tb.tb_frame.f_globals.get("__name__", "")
        if mod.startswith("stieltjesmp."):
            code = tb.tb_frame.f_code
            key = (mod.split(".", 1)[1], getattr(code, "co_qualname", code.co_name))
            frame = f"{key[0]}.{key[1]}"
            span = _SPAN_OF.get(key, span)
        tb = tb.tb_next
    return span or frame or "bench"


def tag(exc: BaseException) -> str:
    return f"{type(exc).__name__}@{where(exc)}"


def digits(rel: float) -> float:
    """-log10 of a relative error, capped at DIGITS_CAP."""
    return DIGITS_CAP if rel <= 10.0 ** -DIGITS_CAP else min(DIGITS_CAP, -math.log10(rel))


@dataclass
class Verdict:
    """Gate outcome for one input: the first miss, and the measured errors."""

    miss: str | None = None
    errors: dict = field(default_factory=dict)  # gate -> worst relative error
    cond_h: float = float("nan")

    @property
    def ok(self) -> bool:
        return self.miss is None

    def record(self, gate: str, err: float, tol: float):
        self.errors[gate] = max(self.errors.get(gate, 0.0), float(err))
        if self.miss is None and not err <= tol:
            self.miss = f"gate:{gate}"


def cond_top_hankel(moments) -> float:
    """cond of H_n = [s_{i+j}]_{i,j=0..n}, n = half(kappa): an input property."""
    n = half(len(moments) - 1)
    h = np.block([[moments[i + j] for j in range(n + 1)] for i in range(n + 1)])
    return float(np.linalg.cond(h))


def seq_rel_err(got, want) -> float:
    scale = max(np.linalg.norm(m) for m in want)
    return max(float(np.abs(a - b).max()) for a, b in zip(got, want)) / scale


def free_point(alpha: float, side: str, dist: float = 1.0) -> float:
    return alpha - dist if side == "right" else alpha + dist


def eval_points(alpha: float, side: str) -> list:
    """A handful of points: both half-planes plus two on the free side."""
    return [complex(alpha + 0.7, 1.3), complex(alpha - 0.4, -0.9),
            complex(free_point(alpha, side, 2.5)), complex(free_point(alpha, side))]


@dataclass
class Outputs:
    """Everything one solve-pipeline op returns."""

    seq: object
    cls: object
    qparam: object
    ds: object
    u: object
    chain: object
    zeros: np.ndarray
    values: list          # [(z, S_min(z), S_max(z))]
    interval: object
    mom_min: list
    mom_max: list


def solve_pipeline(smp, moments, alpha: float, side: str) -> Outputs:
    """One solve-ladder op: every build layer once, evaluation at a few points."""
    seq = smp.sequence(list(moments), alpha=alpha, side=side)
    cls = smp.classify(seq)
    qparam = smp.stieltjes_param(seq)
    ds = smp.ds_param(seq)
    u = smp.resolvent_u(seq)
    chain = smp.factorize_u(seq)
    quad = smp.stieltjes_quadruple(seq)
    zeros = smp.real_zeros(quad.p[-1], smp.MONIC)
    s_min, s_max = smp.extremal(seq)
    values = [(z, s_min(z), s_max(z)) for z in eval_points(alpha, side)]
    interval = smp.weyl_interval(seq, seq.kappa, free_point(alpha, side))
    mu_min, mu_max = smp.recover_min(seq), smp.recover_max(seq)
    return Outputs(seq=seq, cls=cls, qparam=qparam, ds=ds, u=u, chain=chain, zeros=zeros,
                   values=values, interval=interval,
                   mom_min=smp.measure_moments(mu_min, seq.kappa),
                   mom_max=smp.measure_moments(mu_max, seq.kappa))


def extremal_pairs(smp, q: int, side: str):
    """Constant pairs whose LFT is (S_min, S_max) on this half-line."""
    lo, hi = smp.pair_min(q, side), smp.pair_max(q, side)
    return (lo, hi) if side == "right" else (hi, lo)


def chain_lft(cz: np.ndarray, pair, q: int) -> np.ndarray:
    """LFT through the factor-chain value: the third, (L, M)-built route."""
    phi, psi = pair.values()
    return (cz[:q, :q] @ phi + cz[:q, q:] @ psi) @ np.linalg.inv(cz[q:, :q] @ phi + cz[q:, q:] @ psi)


def rel(a, b) -> float:
    return float(np.linalg.norm(a - b) / (1.0 + np.linalg.norm(b)))


def gate_routes(verdict: Verdict, pairs, q: int, values, u_at, chain_at, lft_at):
    """S(z) against the LFT through U and through the factor chain, and the
    chain value against U(z), at each (z, S_min(z), S_max(z)) of `values`."""
    tol_chain = max(TOL_CHAIN, CHAIN_PER_COND * verdict.cond_h)
    for z, s_lo, s_hi in values:
        uz = u_at(z)
        cz = chain_at(z)
        verdict.record("chain", np.linalg.norm(cz - uz) / np.linalg.norm(uz), tol_chain)
        for s, pair in zip((s_lo, s_hi), pairs):
            verdict.record("routes", max(rel(lft_at(z, pair), s), rel(chain_lft(cz, pair, q), s)),
                           TOL_ROUTES)


def loewner_gap(lo: np.ndarray, hi: np.ndarray) -> float:
    """Relative amount by which lo <= hi fails in the Loewner order (0 if it holds)."""
    diff = hi - lo
    lam = float(np.linalg.eigvalsh((diff + diff.conj().T) / 2)[0])
    return max(0.0, -lam) / (1.0 + np.linalg.norm(hi))


def gate_outputs(smp, out: Outputs, moments, measure=None) -> Verdict:
    """All solve-ladder gates on one op's outputs; `measure` is the generating
    measure when the input came from one."""
    v = Verdict(cond_h=cond_top_hankel(moments))
    seq, q, kappa = out.seq, out.seq.q, out.seq.kappa
    alpha, side = seq.alpha, seq.side
    if out.cls.stieltjes != "PD":
        v.miss = "gate:classify"
    inside = out.zeros > alpha if side == "right" else out.zeros < alpha
    if not np.all(inside):
        v.record("zeros", 1.0, 0.0)

    for j in range(kappa):
        scale = 1.0 + np.linalg.norm(moments[j])
        for mom in (out.mom_min, out.mom_max):
            v.record("moments", np.linalg.norm(mom[j] - moments[j]) / scale, TOL_MOMENTS)

    if measure is not None:
        sigma = measure.transform(out.interval.x)
        v.record("weyl", max(loewner_gap(out.interval.lower, sigma),
                             loewner_gap(sigma, out.interval.upper)), TOL_LOEWNER)

    gate_routes(v, extremal_pairs(smp, q, side), q, out.values, out.u, out.chain,
                lambda z, pair: smp.lft_solve(out.u, pair, z))

    v.record("roundtrip", seq_rel_err(smp.seq_from_stieltjes_param(out.qparam).moments, moments),
             TOL_ROUNDTRIP)
    v.record("roundtrip", seq_rel_err(smp.seq_from_ds(out.ds).moments, moments), TOL_ROUNDTRIP)
    return v


def gate_safely(fn, *args) -> Verdict:
    """Run a gate; an exception inside it is a miss of that gate."""
    try:
        return fn(*args)
    except Exception as exc:  # the gate's own library calls may raise too
        return Verdict(miss=f"gate:{tag(exc)}")


DIGITS_QUANTILE = 0.1


def input_digits(verdicts, gates) -> list:
    """Per verdict carrying any of the gates: digits of its worst error there."""
    return [digits(max(v.errors[g] for g in gates if g in v.errors))
            for v in verdicts if any(g in v.errors for g in gates)]


def digits_reached(verdicts, gates) -> float:
    """Digits that all but a DIGITS_QUANTILE share of the inputs reach.  The
    very worst input is reported beside it; as a metric it would follow the
    one most ill-conditioned draw of each seed."""
    per_input = input_digits(verdicts, gates)
    return float(np.quantile(per_input, DIGITS_QUANTILE)) if per_input else float("nan")
