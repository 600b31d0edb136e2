"""The four workloads.  Each is closed loop with one client in one process.

A workload builds its inputs in `setup`, runs op number i with `run(i)`
(the timed part), checks the op's output with `check(i, out)` (untimed) and,
in `post`, judges every distinct input once more where the op itself does
not carry the full solve-ladder gates.  `key(i)` names the (q, kappa, draw)
of op i's input, so capacity ceilings can be read off the verdicts.
"""

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter_ns

import numpy as np

import inputs
import reference
from gates import (
    TOL_LOEWNER, TOL_ROUNDTRIP, Verdict, cond_top_hankel, extremal_pairs,
    gate_outputs, gate_routes, gate_safely, loewner_gap, rel, solve_pipeline, tag,
)

TOL_REPEAT = 1e-12


def encode_sequence(q, alpha, side, moments) -> dict:
    """The CLI's sequence document: complex entries as [re, im] pairs."""
    return {"q": q, "alpha": alpha, "side": side,
            "moments": [[[[float(v.real), float(v.imag)] for v in row] for row in np.atleast_2d(m)]
                        for m in moments]}


def write_sequence(path, q, alpha, side, moments):
    with open(path, "w") as fh:
        json.dump(encode_sequence(q, alpha, side, moments), fh)


def verify_in_process(cli, path) -> tuple:
    """(exit code, stdout) of `verify` run through cli.main."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["verify", str(path)])
    return code, out.getvalue()


def repeat_verdict(refs: dict, key, arrays) -> Verdict:
    """A repeated op must reproduce the output of its first, judged run."""
    v = Verdict()
    for got, want in zip(arrays, refs[key]):
        got, want = np.asarray(got), np.asarray(want)
        v.record("repeat", np.abs(got - want).max() / (1.0 + np.abs(want).max()), TOL_REPEAT)
    return v


def judge_sequence(smp, inp) -> Verdict:
    """The full solve-ladder pipeline and gates on one sequence input."""
    try:
        out = solve_pipeline(smp, inp.moments, inp.alpha, inp.side)
    except Exception as exc:
        return Verdict(miss=tag(exc), cond_h=cond_top_hankel(inp.moments))
    return gate_safely(gate_outputs, smp, out, inp.moments, inp.measure)


class Workload:
    name = ""
    cycle = 1   # ops in one pass over the input mix; a timed loop ends on a whole pass
    # the report's tail percentile is fixed per workload, so a slower program
    # never reads a lower percentile: the highest with at least 10 samples
    # beyond it in a 20 s run at the seed commit
    tail_percentile = 95
    # the reference computation that scales this workload's times (reference.py)
    ref_nominal_ms = reference.KERNEL_MS

    def __init__(self, smp, seed: int, root, workdir):
        self.smp, self.seed, self.root, self.workdir = smp, seed, root, workdir
        self.verify_codes = {}   # input index -> exit code of `verify`, where it ran

    def setup(self):
        raise NotImplementedError

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> Verdict:
        raise NotImplementedError

    def key(self, i: int) -> tuple:
        raise NotImplementedError

    def post(self, traced: bool = False) -> list:
        """Extra (key, verdict) pairs judged after the timed loop."""
        return []

    def reference_ms(self) -> float:
        return reference.kernel_ms()

    # the traced run times the same op unless a workload says otherwise
    def traced_run(self, i: int):
        return self.run(i)


class SolveLadder(Workload):
    """Distinct molecular-measure sequences over the test suite's (q, kappa)
    ladder; one op runs every build layer once."""

    name = "solve-ladder"
    POOL = 1000
    cycle = 2 * len(inputs.LADDER)   # every rung on both half-lines

    def setup(self):
        self.pool = [inputs.solve_ladder_input(self.seed, i) for i in range(self.POOL)]
        for inp in self.pool[:2]:   # warm: one op with its gates per input
            out = solve_pipeline(self.smp, inp.moments, inp.alpha, inp.side)
            gate_outputs(self.smp, out, inp.moments, inp.measure)

    def run(self, i):
        inp = self.pool[i % self.POOL]
        return solve_pipeline(self.smp, inp.moments, inp.alpha, inp.side)

    def check(self, i, out):
        inp = self.pool[i % self.POOL]
        return gate_outputs(self.smp, out, inp.moments, inp.measure)

    def key(self, i):
        return self.pool[i % self.POOL].key


class ZSweep(Workload):
    """A few problems built in setup; one op evaluates one problem on a
    fixed grid of about 1000 points."""

    name = "zsweep"
    tail_percentile = 90

    def setup(self):
        smp = self.smp
        self.problems = []
        for k, (inp, grid) in enumerate(inputs.zsweep_inputs(self.seed)):
            seq = smp.sequence(list(inp.moments), alpha=inp.alpha, side=inp.side)
            s_min, s_max = smp.extremal(seq)
            rng = np.random.default_rng([self.seed, 8, k])
            g = rng.standard_normal((inp.q, inp.q)) + 1j * rng.standard_normal((inp.q, inp.q))
            kmat = g @ g.conj().T + 0.1 * np.eye(inp.q)
            pair = smp.StieltjesPair(kind=smp.CONSTANT, side=inp.side,
                                     phi=kmat if inp.side == "right" else -kmat, psi=np.eye(inp.q))
            prob = dict(inp=inp, grid=grid, s_min=s_min, s_max=s_max, pair=pair,
                        u=smp.resolvent_u(seq), chain=smp.factorize_u(seq))
            self.problems.append(prob)
            self._sweep(prob, grid[:2])   # warm
        self.refs = {}
        self.cycle = len(self.problems)

    def _sweep(self, prob, grid):
        q = prob["inp"].q
        s_min, s_max, u, pair = prob["s_min"], prob["s_max"], prob["u"], prob["pair"]
        lft = self.smp.lft_solve
        vals = np.empty((len(grid), 3, q, q), dtype=complex)
        uvals = np.empty((len(grid), 2 * q, 2 * q), dtype=complex)
        for n, z in enumerate(grid):
            vals[n, 0] = s_min(z)
            vals[n, 1] = s_max(z)
            vals[n, 2] = lft(u, pair, z)
            uvals[n] = u(z)
        return vals, uvals

    def run(self, i):
        prob = self.problems[i % len(self.problems)]
        return self._sweep(prob, prob["grid"])

    def check(self, i, out):
        k = i % len(self.problems)
        if k in self.refs:
            return repeat_verdict(self.refs, k, out)
        self.refs[k] = out
        return self._gate_sweep(self.problems[k], *out)

    def _gate_sweep(self, prob, vals, uvals):
        """Routes and chain at every point; every value a Stieltjes function
        value (Nevanlinna above the line, Weyl order on the free side)."""
        inp = prob["inp"]
        q, grid = inp.q, prob["grid"]
        v = Verdict(cond_h=cond_top_hankel(inp.moments))
        gate_routes(v, extremal_pairs(self.smp, q, inp.side), q,
                    [(n, vals[n, 0], vals[n, 1]) for n in range(len(grid))],
                    lambda n: uvals[n], lambda n: prob["chain"](grid[n]),
                    lambda n, pair: self.smp.lft_solve(prob["u"], pair, grid[n]))
        for n, z in enumerate(grid):
            lo, hi, s = vals[n]
            if z.imag != 0:
                for w in (lo, hi, s):
                    im = np.sign(z.imag) * (w - w.conj().T) / 2j
                    v.record("nevanlinna", max(0.0, -np.linalg.eigvalsh(im)[0])
                             / (1.0 + np.linalg.norm(w)), TOL_LOEWNER)
            else:
                v.record("weyl", max(loewner_gap(lo, s), loewner_gap(s, hi)), TOL_LOEWNER)
        return v

    def key(self, i):
        return self.problems[i % len(self.problems)]["inp"].key

    def post(self, traced=False):
        return [(p["inp"].key, judge_sequence(self.smp, p["inp"])) for p in self.problems]


class CliVerify(Workload):
    """One op is one `python -m stieltjesmp.cli verify <file>` subprocess."""

    name = "cli-verify"
    tail_percentile = 75
    FILES = cycle = len(inputs.LADDER)
    ref_nominal_ms = reference.IMPORT_MS

    def setup(self):
        # one file per rung, on alternating half-lines
        self.inputs = [inputs.solve_ladder_input(self.seed, k + len(inputs.LADDER) * (k % 2))
                       for k in range(self.FILES)]
        self.paths = []
        for k, inp in enumerate(self.inputs):
            path = self.workdir / f"verify-{k}.json"
            write_sequence(path, inp.q, inp.alpha, inp.side, inp.moments)
            self.paths.append(path)
        self.env = dict(os.environ)
        src = str(self.root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src
        self.run(0)   # warm: file cache and interpreter start

    def python(self, *argv):
        return subprocess.run([sys.executable, *argv], cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=120)

    def run(self, i):
        res = self.python("-m", "stieltjesmp.cli", "verify", str(self.paths[i % self.FILES]))
        return res.returncode, res.stdout

    def check(self, i, out):
        """A verdict document whose `passed` matches the exit code, and the
        same verdict as `verify` gives in process."""
        k = i % self.FILES
        if k not in self.verify_codes:
            self.verify_codes[k] = verify_in_process(self.smp.cli, self.paths[k])[0]
        code, text = out
        try:
            doc = json.loads(text)
            consistent = code == (0 if doc["passed"] else 4) and isinstance(doc["checks"], dict)
        except (json.JSONDecodeError, KeyError, TypeError):
            consistent = False
        if not consistent:
            return Verdict(miss=f"gate:verify-exit-{code}")
        if code != self.verify_codes[k]:
            return Verdict(miss="gate:verify-in-process")
        return Verdict()

    def key(self, i):
        return self.inputs[i % self.FILES].key

    def reference_ms(self):
        return reference.import_ms()

    def traced_run(self, i):
        return verify_in_process(self.smp.cli, self.paths[i % self.FILES])

    def post(self, traced=False):
        return [(inp.key, judge_sequence(self.smp, inp)) for inp in self.inputs]

    SPLIT = {"start": ("-c", "pass"), "numpy": ("-c", "import numpy"),
             "import": ("-c", "import stieltjesmp")}

    def split(self, seconds: float) -> dict:
        """Median wall ms of interpreter start, numpy import, package import
        and the whole verb, each as its own subprocess, interleaved in rounds
        for `seconds` (at least three rounds)."""
        times = {k: [] for k in (*self.SPLIT, "verify")}
        deadline = perf_counter_ns() + seconds * 1e9
        r = 0
        while r < 3 or perf_counter_ns() < deadline:
            for kind, argv in (*self.SPLIT.items(), ("verify", None)):
                t0 = perf_counter_ns()
                code = self.run(r)[0] if argv is None else self.python(*argv).returncode
                times[kind].append((perf_counter_ns() - t0) / 1e6)
                if argv is not None and code != 0:
                    raise RuntimeError(f"{kind} probe exited {code}")
            r += 1
        return {k: statistics.median(v) for k, v in times.items()}


class LMLadder(Workload):
    """(L, M) drawn from the seed, kappa from 2 up to the roadmap targets.
    The op maps (L, M) to moments and on to Q.  After the timed loop the
    capacity climb judges CAPACITY_DRAWS chains per q, each from kappa=2 up
    to its first miss; a traced run instead judges every rung of the timed
    inputs, with `verify`, for the per-rung table."""

    name = "lm-ladder"
    tail_percentile = 99

    def setup(self):
        self.inputs = inputs.lm_inputs(self.seed)
        self.cycle = len(self.inputs)
        self.refs = {}
        self.run(0)   # warm

    def _map(self, inp):
        d = self.smp.DSParam(q=inp.q, alpha=inp.alpha, side=inp.side, l=inp.l, m=inp.m)
        seq = self.smp.seq_from_ds(d)
        return seq.moments, self.smp.stieltjes_param(seq).values

    def run(self, i):
        return self._map(self.inputs[i % len(self.inputs)])

    def check(self, i, out):
        k = i % len(self.inputs)
        if k in self.refs:
            return repeat_verdict(self.refs, k, out)
        self.refs[k] = out
        return Verdict()

    def key(self, i):
        return self.inputs[i % len(self.inputs)].key

    def judge(self, inp) -> Verdict:
        """The op, then the pipeline (so an escaped exception is what gets
        recorded), then the op's Q against q_from_ds and every output gate."""
        smp = self.smp
        v = Verdict()
        try:
            moments, qvalues = self._map(inp)
            v.cond_h = cond_top_hankel(moments)
            out = solve_pipeline(smp, moments, inp.alpha, inp.side)
            d = smp.DSParam(q=inp.q, alpha=inp.alpha, side=inp.side, l=inp.l, m=inp.m)
            v.record("roundtrip", max(rel(a, b) for a, b in zip(qvalues, smp.q_from_ds(d).values)),
                     TOL_ROUNDTRIP)
            gated = gate_outputs(smp, out, moments)
        except Exception as exc:
            v.miss = v.miss or tag(exc)
            return v
        v.miss = v.miss or gated.miss
        for g, e in gated.errors.items():
            v.errors[g] = max(v.errors.get(g, 0.0), e)
        return v

    def post(self, traced=False):
        return self._table() if traced else self._climb()

    def _climb(self) -> list:
        """Per q and chain: judge kappa = 2, 3, ... up to the first miss."""
        judged = []
        for q, top in inputs.LM_TOPS.items():
            for draw in range(inputs.CAPACITY_DRAWS):
                for kappa in range(2, top + 1):
                    inp = inputs.lm_input(self.seed, q, kappa, draw)
                    v = self.judge(inp)
                    judged.append((inp.key, v))
                    if not v.ok:
                        break
        return judged

    def _table(self) -> list:
        """Every timed input judged, and run through `verify` in process."""
        judged = []
        for k, inp in enumerate(self.inputs):
            judged.append((inp.key, self.judge(inp)))
            path = self.workdir / f"lm-{k}.json"
            write_sequence(path, inp.q, inp.alpha, inp.side, (self.refs.get(k) or self._map(inp))[0])
            self.verify_codes[k] = verify_in_process(self.smp.cli, path)[0]
        return judged


WORKLOADS = {w.name: w for w in (SolveLadder, ZSweep, CliVerify, LMLadder)}
