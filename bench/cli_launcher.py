"""Run ``quditzx.cli.main`` under the benchmark tracer.

Usage: ``python bench/cli_launcher.py SPANS_JSON ARGS...``.  Equivalent
to ``python -m quditzx.cli ARGS...`` except that the import of
``quditzx.cli`` and the call of ``main`` become spans, the library
layers are wrapped as in a traced in-process run, and all spans are
written to SPANS_JSON when the command exits.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> None:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import quditzx.cli

    t1 = time.perf_counter()
    from tracer import Tracer

    tracer = Tracer()
    tracer.spans.append(["import", t0, t1, None, None, None])
    tracer.install()
    code = 0
    span = tracer.begin("cli.main")
    try:
        quditzx.cli.main(args=argv, prog_name="quditzx")
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.end(span)
        with open(spans_path, "w") as fh:
            json.dump(tracer.take(), fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
