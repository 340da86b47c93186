"""``python -m quatpoly`` under the benchmark's tracer.

Used by the traced ``cli-batch`` run in place of ``python -m quatpoly``:
same arguments, same standard output and exit code.  The tracer's
aggregates and spans go to standard error as one line that starts with
the marker ``tracing.TRACE_MARK``.
"""

import json
import sys

from tracing import TRACE_MARK, Tracer


def main() -> int:
    import quatpoly
    import quatpoly.cli

    tracer = Tracer()
    tracer.install(quatpoly)
    try:
        code = quatpoly.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    payload = {"snapshot": tracer.snapshot(), "records": tracer.records}
    print(TRACE_MARK + json.dumps(payload), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
