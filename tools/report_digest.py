"""Byte-for-byte digest of the reports a checkout prints, for refactors that must not move one.

    python3 tools/report_digest.py ROOT

Runs the `neqcft` package of ROOT/src on a fixed list of commands, all in
one process with PYTHONHASHSEED=0, every BLAS and OpenMP thread count
pinned to 1, as `perfbench` pins them (the lattice digits depend on the
thread count), and COLUMNS=80 (argparse wraps help to the terminal width):
the bare command and `--help` of the top level and of every subcommand,
then every argv pinned in `EXACT_REPORTS`, `SYMBOLIC_REPORTS` and
`FLOAT_REPORTS` of tests/test_cli.py, then each of those again with
`--format csv` in front, then every distinct argv of the
benchmark workloads (perfbench/workloads.py) at seeds 1 to 8.  The argv
lists come from the checkout that holds this file, so a second checkout
(ROOT) runs exactly the same commands; only the subcommand names come from
ROOT's parser.  Prints one JSON line per command, [argv, exit code, stdout,
stderr, files the command wrote], and last the sha256 of those lines; two
trees that print the same digest printed the same bytes on every command.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent.parent
SEEDS = range(1, 9)
PINNED = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "BLIS_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
          "NUMEXPR_NUM_THREADS": "1", "COLUMNS": "80"}


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = sys.modules[path.stem] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def commands(outdir):
    """(argv, files it writes) of every command, in a fixed order, without repeats."""
    tests = _load(HERE / "tests" / "test_cli.py")
    helps = [[], ["--help"]] + [[name, "--help"] for name in tests._subcommands()]
    found = [(argv, ()) for argv in helps]
    pinned = [argv for argv, *_ in tests.EXACT_REPORTS + tests.SYMBOLIC_REPORTS + tests.FLOAT_REPORTS]
    found += [(argv, ()) for argv in pinned]
    found += [(["--format", "csv", *argv], ()) for argv in pinned]
    sys.path.insert(0, str(HERE / "perfbench"))
    workloads = _load(HERE / "perfbench" / "workloads.py")
    for seed in SEEDS:
        inputs = workloads.Inputs.from_seed(seed)
        for build, _ in workloads.WORKLOADS.values():
            found += [(op.argv, op.outputs) for op in build(inputs, outdir)]
    unique = {}
    for argv, outputs in found:
        unique.setdefault(tuple(argv), (argv, outputs))
    return list(unique.values())


def main(argv):
    if len(argv) != 1:
        sys.exit(__doc__)
    if any(os.environ.get(var) != value for var, value in PINNED.items()):
        os.execve(sys.executable, [sys.executable, __file__, *argv], dict(os.environ, **PINNED))
    src = pathlib.Path(argv[0]).resolve() / "src"
    if not (src / "neqcft").is_dir():
        sys.exit(f"no package at {src / 'neqcft'}")
    sys.path.insert(0, str(src))
    from neqcft import cli

    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for cmd, outputs in commands("."):
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
    print("sha256", digest.hexdigest())


if __name__ == "__main__":
    main(sys.argv[1:])
