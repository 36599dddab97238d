"""The `judou` console script's entry point: it fixes BLAS at one thread,
unless the environment sets a count, before judou (and with it numpy) loads.

Checkpoints and embedding files are byte-identical only at one BLAS thread
count, and the pipeline's products are too small for a second thread to pay:
`judou train` at its defaults ran 2.1-2.5 s at one OpenBLAS thread and
2.9-4.0 s at two (2-vCPU Xeon). The library itself leaves threading to its
caller.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from judou.cli import main  # noqa: E402

if __name__ == "__main__":
    main()
