"""One benchmarked CLI invocation: times `import neqcft.cli`, then runs the command.

    python3 perfbench/child.py TIMING_JSON TRACE [NEQCFT ARGS...]

It does what the `neqcft` console script does (import neqcft.cli, exit with
main's code) and writes the monotonic clock readings around the import and
the command to TIMING_JSON.  With TRACE = 1 it first wraps the traced
functions (see tracer.py) and adds their counts.  Without NEQCFT ARGS it
only imports, which warms the bytecode and file caches.
"""

import json
import sys
import time


def main():
    timing_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    record = {"import_start": time.monotonic()}
    import neqcft.cli as cli
    record["import_end"] = time.monotonic()
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    record["main_start"] = time.monotonic()
    try:
        return cli.main(argv) if argv else 0
    finally:
        sys.stdout.flush()
        record["done"] = time.monotonic()
        if tracer is not None:
            record["trace"] = tracer.summary()
        with open(timing_path, "w") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
