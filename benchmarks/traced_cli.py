"""Run one ``brokencircuits`` command with tracing installed.

    python traced_cli.py SPANS_OUT OP PARENT BASE_ID compute KIND [ARGS...]

The spans go to SPANS_OUT when the command ends; the top-level spans get
PARENT as their parent, the span the benchmark recorded around this
process, and span ids start above BASE_ID.
"""

import sys

from tracing import Tracer


def main():
    out, op, parent, base_id, *argv = sys.argv[1:]
    tracer = Tracer(base_id=int(base_id), root=int(parent)).install()
    tracer.op = int(op)
    from brokencircuits import cli

    try:
        code = cli.main(argv)
    finally:
        tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
