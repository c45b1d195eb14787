"""Run one authdesigns CLI command with spans recorded.

    python3 perfbench/traced_cli.py SPANS_FILE CLI_ARGUMENTS...

The traced runs of cli-pipeline start this in place of
``python3 -m authdesigns.cli``.  It times the import of the CLI as the span
``cli.import``, wraps the package's public functions (see tracing.py), runs
the command and writes the spans to SPANS_FILE, also when the command fails.
"""

import sys
import time
from pathlib import Path

from tracing import Tracer

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main():
    spans_file, arguments = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    start = time.perf_counter()
    from authdesigns import cli
    tracer.record("cli.import", start, time.perf_counter())
    tracer.install()
    try:
        return cli.main(arguments)
    finally:
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())
