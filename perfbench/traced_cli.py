"""Run one `lab` command with scorelab's public functions traced.

Usage: python traced_cli.py SPANS_JSON <lab arguments...>

Writes the spans as JSON to SPANS_JSON when the command ends.
"""

import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import scorelab.cli as cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
