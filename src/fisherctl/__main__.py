"""``python -m fisherctl`` and the ``fisherctl`` console script."""

import os
import sys


def main(argv=None) -> int:
    # OpenBLAS starts its worker threads when numpy loads and they spin idle,
    # although no product here is large enough to use them.  It reads the
    # count only then, so it is set before the first numpy import; a count
    # the user chose, under either name, is kept.
    if "OMP_NUM_THREADS" not in os.environ:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import cli

    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
