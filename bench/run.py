"""Benchmark of stieltjesmp: four workloads, output gates, per-layer trace.

Run from the root of a checkout of the repository:

    python3 bench/run.py --workload solve-ladder --seed 1 --seconds 15 --trace 0

The library is imported from ``src/`` of that checkout.  Stdout carries a
header line (environment), a report line (details behind the metrics) and,
last, the result line ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` they are the per-layer ones, from a traced run.
"""

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns, process_time_ns

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from gates import Verdict, digits_reached, gate_safely, input_digits, tag  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 7
REF_EVERY = 10   # op CPU time between two reference runs, in reference runs
CEILING_QS = (1, 2, 4)


def die(msg: str):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_library():
    """Import stieltjesmp from src/ of this checkout, and only from there."""
    pkg = ROOT / "src" / "stieltjesmp"
    if not (pkg / "__init__.py").is_file():
        die(f"{pkg} not found; run from the root of a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import stieltjesmp
    import stieltjesmp.cli  # noqa: F401  (the cli module is called in process)
    if Path(stieltjesmp.__file__).resolve().parent != pkg.resolve():
        die(f"imported stieltjesmp from {stieltjesmp.__file__}, not from {pkg}")
    return stieltjesmp


# --- environment header ---------------------------------------------------------

def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "stieltjesmp").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def blas_info() -> tuple:
    """(BLAS name and version, its thread count or None)."""
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{cfg.get('name')} {cfg.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        name = None
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
        for lib in sorted(libs):
            dll = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(dll, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads = fn()
                    break
    except OSError:
        pass
    return name, threads


def header(args) -> dict:
    blas, threads = blas_info()
    return {"commit": git_commit(), "src_sha256": source_digest(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": bool(args.trace),
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": threads, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None}


# --- the closed loop ------------------------------------------------------------

def cpu_ns() -> int:
    """CPU time of this process and of its finished children.  Op and set-up
    times use it, scaled to reference speed (reference.py): the program is
    single-threaded and CPU-bound, and on a shared machine the wall clock
    also counts waiting for a core."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time_ns() + round((ru.ru_utime + ru.ru_stime) * 1e9)


@dataclass
class Loop:
    walls: list = field(default_factory=list)      # wall ns of every op
    cpus: list = field(default_factory=list)       # CPU ns of every op
    passed: list = field(default_factory=list)     # CPU ns of ops that passed their gates
    passed_ops: list = field(default_factory=list)  # op number of each passed op
    slots: list = field(default_factory=list)      # i % cycle of each passed op
    ref_at: list = field(default_factory=list)     # ops done when the reference ran
    ref_ms: list = field(default_factory=list)     # its CPU ms then
    ref_nominal_ms: float = reference.KERNEL_MS
    verdicts: list = field(default_factory=list)   # ((q, kappa, draw), Verdict) per op
    misses: Counter = field(default_factory=Counter)
    gate_ns: int = 0

    @property
    def attempted(self) -> int:
        return len(self.walls)

    @property
    def failed(self) -> int:
        return self.attempted - len(self.passed)

    def passed_ms(self) -> np.ndarray:
        """CPU ms of each passed op at reference speed."""
        if not self.passed:
            return np.zeros(0)
        return np.asarray(self.passed) / 1e6 * reference.scales(
            self.ref_at, self.ref_ms, self.passed_ops, self.ref_nominal_ms)


def run_loop(wl, seconds: float | None = None, n_ops: int | None = None,
             run=None, tracer=None) -> Loop:
    """Ops one at a time, each timed alone and then gated; for `seconds` of
    wall time rounded up to whole passes over the workload's input mix, or
    for exactly `n_ops` ops.  A failed op is never a sample.  The workload's
    reference runs before the first op, once op CPU time since its last run
    reaches REF_EVERY times that run, and after the last op."""
    run = run or wl.run
    loop = Loop(ref_nominal_ms=wl.ref_nominal_ms)

    def ref():
        loop.ref_at.append(loop.attempted)
        loop.ref_ms.append(wl.reference_ms())

    wl.reference_ms()   # warm
    ref()
    since_ref = 0
    deadline = perf_counter() + (seconds or 0.0)
    i = 0
    while (i < n_ops) if n_ops is not None else (i % wl.cycle or i == 0 or perf_counter() < deadline):
        if tracer:
            tracer.begin_op()
        c0, t0 = cpu_ns(), perf_counter_ns()
        try:
            out, err = run(i), None
        except Exception as exc:
            out, err = None, tag(exc)
        dt, cpu = perf_counter_ns() - t0, cpu_ns() - c0
        if tracer:
            tracer.end_op(dt if err is None else None)
        g0 = perf_counter_ns()
        verdict = Verdict(miss=err) if err else gate_safely(wl.check, i, out)
        loop.gate_ns += perf_counter_ns() - g0
        loop.walls.append(dt)
        loop.cpus.append(cpu)
        if verdict.ok:
            loop.passed.append(cpu)
            loop.passed_ops.append(i)
            loop.slots.append(i % wl.cycle)
        else:
            loop.misses[verdict.miss] += 1
        loop.verdicts.append((wl.key(i), verdict))
        i += 1
        since_ref += cpu
        if since_ref >= REF_EVERY * loop.ref_ms[-1] * 1e6:
            ref()
            since_ref = 0
    ref()
    return loop


# --- metrics ---------------------------------------------------------------------

def chain_ceilings(rows) -> dict:
    """rows: ((q, kappa, draw), ok).  Per q, the ceiling of each draw: the
    largest kappa at which it passes, and at every smaller kappa judged; one
    less than its smallest kappa if that one fails.  A ladder with one draw
    per rung has one chain per q, whose ceiling is the plain one."""
    ok = defaultdict(lambda: True)
    for key, passed in rows:
        ok[key] &= bool(passed)
    chains = defaultdict(list)
    for q, kappa, draw in ok:
        chains[(q, draw)].append(kappa)
    per_q = defaultdict(list)
    for (q, draw), kappas in chains.items():
        kappas.sort()
        ceiling = kappas[0] - 1
        for kappa in kappas:
            if not ok[(q, kappa, draw)]:
                break
            ceiling = kappa
        per_q[q].append(ceiling)
    return dict(sorted(per_q.items()))


def accuracy(verdicts) -> dict:
    """Digits per gate family over the inputs that passed every gate (the
    level most inputs reach, and the worst), the largest cond(H_n) over all
    inputs, and the kappa ceilings: the mean over draws, and the one every
    draw reaches."""
    passed = [v for _, v in verdicts if v.ok]
    conds = [v.cond_h for _, v in verdicts if math.isfinite(v.cond_h)]
    chains = chain_ceilings((key, v.ok) for key, v in verdicts)
    families = {"moments": ["moments"], "roundtrip": ["roundtrip"], "routes": ["routes", "chain"],
                "route_spread": ["routes"], "chain": ["chain"]}
    return {**{f: digits_reached(passed, g) for f, g in families.items()},
            "worst_digits": {f: min(input_digits(passed, g), default=None)
                             for f, g in families.items()},
            "cond_h_log10": math.log10(max(conds)) if conds else float("nan"),
            "ceilings": {q: statistics.mean(c) for q, c in chains.items()},
            "ceilings_every_draw": {q: min(c) for q, c in chains.items()}}


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def verify_ceilings(wl) -> dict:
    """Mean kappa ceiling over draws with `verify` as the judge."""
    chains = chain_ceilings((wl.inputs[k].key, code == 0) for k, code in wl.verify_codes.items())
    return {q: statistics.mean(c) for q, c in chains.items()}


def timed_setups(wl) -> list:
    """CPU seconds at reference speed of SETUP_REPS set-ups, each scaled
    by the reference runs just before and just after it."""
    wl.reference_ms()   # warm
    ref_ms, cpus = [wl.reference_ms()], []
    for _ in range(SETUP_REPS):
        c0 = cpu_ns()
        wl.setup()
        cpus.append(cpu_ns() - c0)
        ref_ms.append(wl.reference_ms())
    return list(np.asarray(cpus) / 1e9 * reference.scales(
        range(SETUP_REPS + 1), ref_ms, range(SETUP_REPS), wl.ref_nominal_ms, near=2))


def slot_costs(slots: list, ms: np.ndarray) -> list:
    """Median ms per slot of the input mix (op number modulo the cycle), so
    every run weighs the input classes alike."""
    by_slot = defaultdict(list)
    for slot, t in zip(slots, ms):
        by_slot[slot].append(t)
    return [statistics.median(v) for v in by_slot.values()]


def end_to_end(wl, setup_s: list, loop: Loop, judged: list) -> tuple:
    ms = loop.passed_ms()
    costs = slot_costs(loop.slots, ms)
    acc = accuracy(loop.verdicts + judged)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (len(costs) / (sum(costs) / 1e3) if costs else 0.0, "1/s"),
        "op_ms.slot_median": (statistics.median(costs) if costs else 0.0, "ms"),
        "op_ms.slot_max": (max(costs, default=0.0), "ms"),
        "pass_frac": (len(loop.passed) / loop.attempted, "ratio"),
        "digits.moments": (acc["moments"], "digits"),
        "digits.roundtrip": (acc["roundtrip"], "digits"),
        "digits.routes": (acc["routes"], "digits"),
        **{f"kappa_ceiling.q{q}": (acc["ceilings"].get(q, 0), "kappa") for q in CEILING_QS},
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    raw = np.asarray(loop.passed) / 1e6
    report = {"samples": len(ms), "slots": len(costs),
              "op_ms_p50": float(np.median(ms)) if len(ms) else None,
              "op_ms_tail": float(np.percentile(ms, wl.tail_percentile)) if len(ms) else None,
              "op_cpu_ms_p50_unscaled": float(np.median(raw)) if len(raw) else None,
              "reference_ms": {"runs": len(loop.ref_ms), "median": statistics.median(loop.ref_ms),
                               "min": min(loop.ref_ms), "max": max(loop.ref_ms)},
              "tail_percentile": wl.tail_percentile,
              "samples_beyond_tail": round(len(ms) * (1 - wl.tail_percentile / 100), 1),
              "setup_s_runs": setup_s,
              "misses": dict(loop.misses), "judged_misses": dict(Counter(
                  v.miss for _, v in judged if not v.ok)),
              "ceilings": acc["ceilings"], "ceilings_every_draw": acc["ceilings_every_draw"],
              "worst_digits": acc["worst_digits"], "cond_h_log10_max": acc["cond_h_log10"]}
    return metrics, report


def per_layer(wl, tracer, untraced: Loop, traced: Loop, judged: list, cli_split: dict | None):
    acc = accuracy(untraced.verdicts + traced.verdicts + judged)
    metrics = tracer.metrics()
    metrics.update({
        "params.roundtrip_digits": (acc["roundtrip"], "digits"),
        "resolvent.chain_digits": (acc["chain"], "digits"),
        "solutions.route_digits": (acc["route_spread"], "digits"),
        "measures.moment_digits": (acc["moments"], "digits"),
        "moments.cond_h_log10": (acc["cond_h_log10"], "log10"),
        "bench.gates_ms": ((untraced.gate_ns + traced.gate_ns)
                           / (untraced.attempted + traced.attempted) / 1e6, "ms"),
        "trace.overhead": (sum(traced.walls) / sum(untraced.walls) - 1.0, "ratio"),
    })
    split = cli_split or {}
    start = split.get("start", 0.0)
    metrics.update({
        "cli.start_ms": (start, "ms"),
        "cli.numpy_ms": (split.get("numpy", start) - start, "ms"),
        "cli.import_ms": (split.get("import", start) - start, "ms"),
        "cli.verb_ms": (split.get("verify", start) - split.get("import", start), "ms"),
        "cli.verify_pass": (sum(code == 0 for code in wl.verify_codes.values()), "count"),
    })
    vceil = verify_ceilings(wl)
    for q in CEILING_QS:
        metrics[f"cli.verify_ceiling.q{q}"] = (vceil.get(q, 0), "kappa")
    report = {"ops": traced.attempted, "fails_by_layer": tracer.fail_detail(),
              "cli_split_ms": split, "ceilings": acc["ceilings"],
              "ceilings_every_draw": acc["ceilings_every_draw"], "worst_digits": acc["worst_digits"]}
    return metrics, report


def finite(value) -> float:
    """JSON has no NaN: a metric with no inputs to measure (only possible when
    every op failed, so `correct` is false) reads 0."""
    value = float(value)
    return value if math.isfinite(value) else 0.0


def rung_table(wl, judged: list) -> dict:
    """Per rung: inputs passing the gates and `verify`, and the first misses;
    `judged` lists wl.inputs in order."""
    table = {}
    for k, ((q, kappa, _), v) in enumerate(judged):
        row = table.setdefault(f"q{q}k{kappa}", {"gates": 0, "verify": 0, "n": 0, "misses": []})
        row["n"] += 1
        row["gates"] += v.ok
        row["verify"] += wl.verify_codes.get(k) == 0
        if not v.ok:
            row["misses"].append(v.miss)
    return table


# --- main --------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    smp = load_library()
    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")

    workdir = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT))
    try:
        wl = WORKLOADS[args.workload](smp, args.seed, ROOT, workdir)
        print(json.dumps({"header": header(args)}), flush=True)
        if not args.trace:
            setup_s = timed_setups(wl)
            loop = run_loop(wl, args.seconds)
            judged = wl.post(traced=False)
            metrics, report = end_to_end(wl, setup_s, loop, judged)
            attempted, failed = loop.attempted, loop.failed
        else:
            wl.setup()
            cli_share = 0.5 if hasattr(wl, "split") else 0.0
            phase = args.seconds * (1 - cli_share) / 2
            untraced = run_loop(wl, phase, run=wl.traced_run)
            with Tracer() as tracer:
                traced = run_loop(wl, n_ops=untraced.attempted, run=wl.traced_run, tracer=tracer)
                tracer.begin_op()   # spans of the post-loop judging count only as fails
                judged = wl.post(traced=True)
                tracer.end_op(None)
            cli_split = wl.split(args.seconds * cli_share) if cli_share else None
            metrics, report = per_layer(wl, tracer, untraced, traced, judged, cli_split)
            attempted = untraced.attempted + traced.attempted
            failed = untraced.failed + traced.failed
        if wl.verify_codes:
            report["verify_pass"] = sum(code == 0 for code in wl.verify_codes.values())
            report["verify_ceilings"] = verify_ceilings(wl)
        if args.trace and args.workload == "lm-ladder":
            report["rungs"] = rung_table(wl, judged)
        print(json.dumps({"report": report}), flush=True)
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": {k: {"value": finite(v), "unit": u}
                                      for k, (v, u) in metrics.items()}}), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
