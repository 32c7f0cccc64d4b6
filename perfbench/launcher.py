"""Start the stock ``repro serve`` CLI with the server layers wrapped.

Usage: ``python perfbench/launcher.py SPANS.json serve --root DIR ...``

The wrappers are installed before the CLI builds the server, spans stay in
memory while it serves, and on exit (SIGINT stops the CLI's serve loop) every
span and counter is written to ``SPANS.json``, tagged with the request's
``X-Request-Id`` so the benchmark can join them to its client-side spans.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer, install_server  # noqa: E402


def main(argv) -> int:
    spans_path, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    install_server(tracer)
    from repro.serving.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        payload = {
            "spans": tracer.spans,
            "counts": [[tag, name, value] for (tag, name), value in tracer.counts.items()],
        }
        tmp = spans_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        tmp.replace(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
