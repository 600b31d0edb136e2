"""Fixed reference computations that tell how fast the machine runs now.

On a shared host the CPU time of one and the same op moves by up to 1.8x,
in stretches of seconds to minutes, as other tenants load the machine: one
zsweep op read 55 ms and 115 ms within the same five minutes.  No statistic
over a run of under a minute filters that out.  A reference computation of
the same kind as the op slows down in step, so the timed metrics are CPU
time *at reference speed*: an op's CPU time times the reference's nominal
time over its CPU time measured next to the op.

- `kernel_ms`, for the in-process workloads: small complex solves, products
  and Hermitian eigenvalues, each a numpy call from Python, like the
  library's.  Over seven minutes of alternating it with a zsweep op, the op
  swung by 40% while their ratio stayed within 6%.
- `import_ms`, for cli-verify: `import numpy` in a child interpreter.  Over
  five minutes the verify child swung by 25% in step with it (their ratio
  over 20 s windows spread 1.8%), while neither the kernel nor a bare
  interpreter start followed it.

The nominal times are the references' medians on the 2-core VM the baseline
was taken on, so times read as that machine's CPU ms at its typical load.
Changing a reference or its nominal time rescales every timed metric that
uses it: results before and after would no longer compare.
"""

import resource
import subprocess
import sys
from time import process_time_ns

import numpy as np

KERNEL_MS = 7.0
IMPORT_MS = 245.0

_rng = np.random.default_rng(1703)
_MATS = [_rng.standard_normal((q, q)) + 1j * _rng.standard_normal((q, q)) + 3 * np.eye(q)
         for q in (1, 2, 3, 4, 8)]


def kernel() -> complex:
    acc = 0j
    for _ in range(45):
        for a in _MATS:
            x = np.linalg.solve(a, a.conj().T)
            y = a @ x - 0.5 * x
            acc += np.trace(y) + np.linalg.eigvalsh(y + y.conj().T)[0]
    return acc


def kernel_ms() -> float:
    """CPU ms of one kernel run."""
    t0 = process_time_ns()
    kernel()
    return (process_time_ns() - t0) / 1e6


def import_ms() -> float:
    """CPU ms of a child interpreter that imports numpy."""
    def children():
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        return ru.ru_utime + ru.ru_stime
    t0 = children()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, capture_output=True,
                   timeout=120)
    return (children() - t0) * 1e3


def scales(ref_at: list, ref_ms: list, ops, nominal_ms: float, near: int = 7) -> np.ndarray:
    """Per op: `nominal_ms` over the median of the `near` reference runs
    nearest to it.  `ref_at[j]` is the number of ops done when reference
    run j ran, so the runs just before and after op i are equally near."""
    at, ms = np.asarray(ref_at, dtype=float), np.asarray(ref_ms)
    return np.array([nominal_ms / np.median(ms[np.argsort(np.abs(at - (i + 0.5)),
                                                          kind="stable")[:near]])
                     for i in ops])
