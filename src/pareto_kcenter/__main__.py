"""The command-line entry: `python -m pareto_kcenter` and the
`pareto-kcenter` script both run `run()`.

Two start-up costs that no command needs are skipped:

* numpy's OpenBLAS thread pool.  No module of the package calls a
  BLAS-backed function, and starting the pool is a large share of
  `import numpy`.  The pool is sized from the environment when numpy is
  imported, so the default of one thread is set before `.cli` loads; a
  value the caller set is kept.
* the collector's traversals of the import heap.  `gc.freeze()` after
  the imports moves every object they made to a generation that no
  collection visits, the interpreter's final one included.  Garbage the
  command makes is still collected and finalized.
"""

import gc
import os
import sys


def run() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main

    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
