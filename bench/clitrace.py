"""Run ``icosym.cli.main`` with its layers traced; a CLI operation of the
traced ``cli`` workload.

    python bench/clitrace.py <spans.json> <operation id> <icosym arguments...>

The spans are written to the file on the way out, whatever the exit code.
"""

import sys

from spans import Tracer

if __name__ == "__main__":
    path, op, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.op = op
    tracer.install()
    import icosym.cli

    sys.argv = ["icosym"] + argv
    try:
        icosym.cli.main()
    finally:
        tracer.dump(path)
