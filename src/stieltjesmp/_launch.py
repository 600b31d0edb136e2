"""The start of a CLI process, run before numpy loads.

The package's matrices are small (a few dozen rows at most), so
OpenBLAS's thread pool buys nothing here, yet it starts when numpy loads
and costs about a quarter of a `verify` process's CPU on a 2-core machine
(235 against 169 ms).
A CLI process therefore runs BLAS on one thread, unless the user set
OPENBLAS_NUM_THREADS or OMP_NUM_THREADS.  The two CLI entries call
single_blas_thread before any numpy-using import: the console script
through main here, `python -m stieltjesmp.cli` at the top of the cli
module.  An import of the package, or of stieltjesmp.cli, writes nothing in
os.environ.
"""

import os


def single_blas_thread():
    """OPENBLAS_NUM_THREADS=1 in os.environ, unless OPENBLAS_NUM_THREADS or
    OMP_NUM_THREADS is set already; OpenBLAS reads it once, as numpy loads."""
    if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"


def main() -> int:
    """The stieltjesmp console script: one BLAS thread, then cli.main."""
    single_blas_thread()
    from .cli import main as cli_main
    return cli_main()
