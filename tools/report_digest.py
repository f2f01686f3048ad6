"""Every report a checkout prints, byte for byte, and their sha256.

    python3 tools/report_digest.py ROOT

Runs the `neqcft` package of ROOT/src on every command of tests/reports.jsonl,
the committed record of the checkout that holds this file, so a second
checkout (ROOT) runs exactly the same commands.  All run in one process, with
every BLAS and OpenMP thread count pinned to 1, as `perfbench` pins them (the
lattice digits depend on the thread count), and COLUMNS=80 (argparse wraps
help to the terminal width).  Prints one JSON line per command on stdout,
[argv, exit code, stdout, stderr, {file the command wrote: its text}], in the
record's order, and the sha256 of those lines on stderr: two trees that print
the same digest printed the same bytes on every command.

A record line gives the tool its argv (field 0) and the files that command
writes (the keys of field 4).  After a change that moves a report on purpose,
or to add a command (append a line such as `[["smatrix", "--alpha", "0.4"],
0, "", "", {}]`), regenerate the record and read `git diff` for every line
that moved:

    python3 tools/report_digest.py . > reports.new && mv reports.new tests/reports.jsonl

(`> tests/reports.jsonl` alone would empty the record before the tool reads it.)
tests/test_reports.py compares every command with the record.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

RECORD = pathlib.Path(__file__).resolve().parent.parent / "tests" / "reports.jsonl"
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "BLIS_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
          "COLUMNS": "80"}


def main(argv):
    if len(argv) != 1:
        sys.exit(__doc__)
    if any(os.environ.get(var) != value for var, value in PINNED.items()):
        os.execve(sys.executable, [sys.executable, __file__, *argv], dict(os.environ, **PINNED))
    src = pathlib.Path(argv[0]).resolve() / "src"
    if not (src / "neqcft").is_dir():
        sys.exit(f"no package at {src / 'neqcft'}")
    commands = [json.loads(line) for line in RECORD.read_text().splitlines()]
    sys.path.insert(0, str(src))
    from neqcft import cli

    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for cmd, *_, outputs in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(cmd))
            written = {}
            for path in outputs:
                if os.path.exists(path):
                    written[path] = pathlib.Path(path).read_text()
                    os.remove(path)
            line = json.dumps([cmd, code, out.getvalue(), err.getvalue(), written])
            print(line)
            digest.update(line.encode() + b"\n")
    print("sha256", digest.hexdigest(), file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
