"""Run the fisherctl command line with the benchmark's span wrappers installed.

Usage: python3 perfbench/traced_cli.py SPANS_OUT [fisherctl arguments...]

The spans of the whole command are written to SPANS_OUT (gzipped JSON) when
it ends; the exit code is the command's own.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spans import Tracer  # noqa: E402


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    import fisherctl.cli

    tracer = Tracer()
    tracer.install()
    tracer.run_id = 0
    try:
        return fisherctl.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main())
