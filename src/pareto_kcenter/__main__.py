"""The command-line entry: `python -m pareto_kcenter` and the
`pareto-kcenter` script both run `run()`.

Two start-up costs that no command needs are skipped:

* numpy's OpenBLAS thread pool.  No module of the package calls a
  BLAS-backed function, and starting the pool is a large share of
  `import numpy`.  The pool is sized from the environment when numpy is
  imported, so the default of one thread is set before `.cli` loads; a
  value the caller set is kept.
* the collector's traversals of the import heap.  The cyclic collector
  is paused while `.cli` and numpy load, so the dozens of collections
  their allocations would trigger do not run; `gc.freeze()` then moves
  every object the imports made to a generation that no collection
  visits, the interpreter's final one included, and the collector's
  earlier state is restored, also when an import fails.  No collection
  runs before the freeze, so the few unreachable objects the imports
  left stay frozen.  Garbage the command makes is still collected and
  finalized.
"""

import gc
import os
import sys


def run() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    collecting = gc.isenabled()
    gc.disable()
    try:
        from .cli import main
    finally:
        gc.freeze()
        if collecting:
            gc.enable()
    return main()


if __name__ == "__main__":
    sys.exit(run())
