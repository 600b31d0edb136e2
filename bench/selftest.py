"""Self-test of the benchmark harness.  Run from the repository root:

    python3 bench/selftest.py

It checks that a tiny run of every workload prints every metric of
BENCHMARK.json with its unit, in both modes; that a wrong output and an
escaped exception are counted as failed ops, never as timings; and that
the benchmark refuses to run where the library's sources are absent.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (needs the bench directory on the path)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_tiny_runs(spec: dict):
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                                   "--seed", "5", "--seconds", "1", "--trace", str(trace)],
                                  cwd=ROOT, capture_output=True, text=True, timeout=180)
            assert proc.returncode == 0, (workload, trace, proc.stderr)
            result = last_json(proc.stdout)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
                (workload, trace, proc.stdout[-2000:])
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], float) and math.isfinite(m["value"]), (workload, name, m)
            print(f"ok   {workload:13s} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} ops")


def check_failures_are_not_timings():
    smp = run.load_library()
    from gates import solve_pipeline
    from workloads import SolveLadder
    wl = SolveLadder(smp, 5, ROOT, None)
    wl.setup()

    def perturbed(i):
        out = wl.run(i)
        if i == 0:   # one recovered moment off by 1e-3 relative
            moms = list(out.mom_min)
            moms[0] = moms[0] * (1 + 1e-3)
            out = dataclasses.replace(out, mom_min=moms)
        return out

    loop = run.run_loop(wl, n_ops=3, run=perturbed)
    assert loop.attempted == 3 and loop.failed == 1 and len(loop.passed) == 2, loop
    assert dict(loop.misses) == {"gate:moments": 1}, loop.misses
    assert loop.walls[0] not in loop.passed
    print("ok   a moment perturbed by 1e-3 is a failed op, not a timing")

    def raising(i):
        if i == 1:   # a sequence that is not Stieltjes positive definite
            inp = wl.pool[i]
            moms = [-m for m in inp.moments]
            return solve_pipeline(smp, moms, inp.alpha, inp.side)
        return wl.run(i)

    loop = run.run_loop(wl, n_ops=3, run=raising)
    assert loop.failed == 1 and len(loop.passed) == 2, loop
    (miss,) = loop.misses
    kind, _, span = miss.partition("@")
    assert kind.isidentifier() and span.count(".") == 1, miss
    print(f"ok   an escaped exception is a failed op, recorded as {miss}")


def check_refuses_without_sources():
    bare = Path(tempfile.mkdtemp(prefix=".bench-selftest-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, str(bare / HERE.name / "run.py"), "--workload",
                               "solve-ladder", "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok   exits non-zero, without a result, where src/stieltjesmp is absent")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_refuses_without_sources()
    check_failures_are_not_timings()
    check_tiny_runs(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
