"""Traced CLI launcher: python3 perfbench/cli_child.py <radialtyz arguments>.

Runs radialtyz.cli.main under the Tracer, with the import of radialtyz as
its own span, and writes the spans and counters as the last line of stderr
after TRACE_MARK. The untraced CLI eval runs `python -m radialtyz.cli`.
"""
from time import perf_counter

_started = perf_counter()
import radialtyz.cli  # noqa: E402  (timed: the import every CLI process pays)

_imported = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from tracing import TRACE_MARK, Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.spans.append((-1, "cli.import", _started, _imported, -1))
    with tracer:
        rc = tracer.call("cli.main", radialtyz.cli.main, sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.write(TRACE_MARK + json.dumps({"spans": tracer.spans, "counts": tracer.counts}) + "\n")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
