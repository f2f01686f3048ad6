"""Every CLI report against its committed record, tests/reports.jsonl.

The record holds one line per command: [argv, exit code, stdout, stderr,
{file the command wrote: its text}].  tools/report_digest.py runs every
command of the record in one process and prints those lines afresh.  A change
that moves a report on purpose regenerates the record with that tool (its
docstring gives the command), and `git diff tests/reports.jsonl` lists every
line that moved.
"""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from neqcft import lattice
from oracles import recorded_reports, subcommands

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "report_digest.py"
RECORD = recorded_reports()

# Runs of landauer and lattice-run print floats that numpy computes through
# OpenBLAS, whose DYNAMIC_ARCH build picks its kernels by CPU, and through
# numpy's SIMD sin and cos, which differ by CPU too: the Landauer panels are
# dot products, and the lattice modes are sines contracted by matrix products.
# The record was written on an x86_64 Xeon with AVX-512, OpenBLAS 0.3.31 and
# numpy 2.4; on another CPU the last digits may move.  So each number on those
# lines is held to
#
#     |printed - recorded| <= REL |recorded| + ABS
#
# and every other byte exactly.  A different rounding moves a result by a few
# ulps.  REL is 10 times inside the accuracy the Landauer quadrature asks of
# itself, so a J that moves by a tenth of that fails.  ABS covers the numbers
# that are rounding noise themselves: orth_drift is 1.1e-15 to 1.7e-15 in the
# record, about 1000 times below ABS.  Every other line, help pages included,
# computes with Fractions, Python floats, sympy/mpmath and glibc alone and is
# held byte for byte.
FLOAT_COMMANDS = (["landauer"], ["lattice-run"])
REL, ABS = lattice.QUAD_REL_TOL / 10, 1e-12
NUMBER = re.compile(r"(-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)")


@pytest.fixture(scope="module")
def printed():
    # the tool leaves the hash seed alone, and the record was written at
    # another seed, so a report that depended on it would move here
    done = subprocess.run([sys.executable, str(TOOL), str(ROOT)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONHASHSEED="1"), check=True)
    return [json.loads(line) for line in done.stdout.splitlines()]


def _close(printed_text, recorded_text):
    """The texts agree byte for byte outside their numbers, and number for number to the bound."""
    got, want = NUMBER.split(printed_text), NUMBER.split(recorded_text)
    return (len(got) == len(want) and got[::2] == want[::2]
            and all(abs(float(a) - float(b)) <= REL * abs(float(b)) + ABS
                    for a, b in zip(got[1::2], want[1::2])))


@pytest.mark.parametrize("index", range(len(RECORD)),
                         ids=[" ".join(argv) or "(no arguments)" for argv, *_ in RECORD])
def test_every_report_matches_its_record(printed, index):
    argv, code, out, err, written = RECORD[index]
    got = printed[index]
    command = argv[2:3] if argv[:2] == ["--format", "csv"] else argv[:1]
    if command not in FLOAT_COMMANDS or "--help" in argv:
        assert got == RECORD[index]
        return
    assert got[:2] == [argv, code] and got[3] == err and got[4].keys() == written.keys()
    assert _close(got[2], out), got[2]
    for path, text in written.items():
        assert _close(got[4][path], text), got[4][path]


def test_the_record_holds_every_help_page():
    # walks the parser, so a subcommand added without its help line fails
    argvs = [argv for argv, *_ in RECORD]
    helps = [[], ["--help"]] + [[name, "--help"] for name in subcommands()]
    assert [argv for argv in helps if argv not in argvs] == []


def test_report_digest_loads_no_test_or_benchmark_module():
    # its commands come from the record, so the tool needs neither directory's code
    tree = ast.parse(TOOL.read_text())
    local = {path.stem for folder in ("tests", "perfbench") for path in (ROOT / folder).glob("*.py")}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module or ""]
            for name in names:
                assert name.split(".")[0] not in local | {"importlib", "runpy"}, name
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            assert node.func.id not in ("__import__", "exec"), node.func.id
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and ast.unparse(node.func.value) == "sys.path"):
            words = {n.value for n in ast.walk(node) if isinstance(n, ast.Constant)}
            assert not words & {"tests", "perfbench"}, ast.unparse(node)
