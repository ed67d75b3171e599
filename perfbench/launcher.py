"""Host ``cake serve`` in this process, optionally traced.

Usage: python3 launcher.py REPORT_JSON TRACE(0|1) -- CAKE_ARGS...

Runs ``cake.cli.main(CAKE_ARGS)`` (``serve`` stops on SIGINT and saves its
chain), then writes the exit code, this process's peak RSS and, when traced,
the span summary to REPORT_JSON; the spans themselves go next to it.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from cake import cli  # noqa: E402

import spans  # noqa: E402
from measure import peak_rss_mb  # noqa: E402


def main(argv: list[str]) -> int:
    report_path, trace, separator, *cake_args = argv
    if separator != "--" or trace not in ("0", "1"):
        print(__doc__, file=sys.stderr)
        return 2
    tracer = spans.Tracer() if trace == "1" else None
    uninstall = spans.install(tracer) if tracer else None
    try:
        rc = cli.main(cake_args)
    finally:
        if uninstall:
            uninstall()
    report = {"rc": rc, "peak_rss_mb": peak_rss_mb(),
              "trace": tracer.summary() if tracer else None}
    if tracer:
        tracer.write_spans(Path(report_path).with_suffix(".spans.jsonl"))
    Path(report_path).write_text(json.dumps(report))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
