"""Launch the server with spans recorded around its request path.

    PYTHONPATH=src python3 perfbench/serve_traced.py SPANS.jsonl serve --port 0 ...

Installs the :mod:`tracing` wrappers, then runs ``repro.cli`` with the
remaining arguments exactly as ``python -m repro.cli`` would.  When the
server exits (SIGTERM drains it), the spans are written to
``SPANS.jsonl``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    from repro.cli import main as cli_main
    from tracing import SpanRecorder

    spans_path = Path(sys.argv[1])
    recorder = SpanRecorder()
    recorder.install_serving()
    try:
        return cli_main(sys.argv[2:])
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
