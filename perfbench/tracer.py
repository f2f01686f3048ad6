"""Wraps neqcft's public functions from outside to count calls and self time.

Each traced function records its call count, its self time (span minus the
spans of traced functions it called) and the number of distinct argument
tuples it saw.  Arguments are compared by value: hashable values by their
own hash, containers and plain objects by their contents, arrays by their
bytes, so the distinct count repeats exactly under a fixed PYTHONHASHSEED.
The time spent fingerprinting arguments is excluded from every span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

TRACED = (
    "cli.main",
    "fock.enumerate_basis",
    "fock.mode_operator",
    "fock.graded_tensor",
    "fock.GradedOperator.__matmul__",
    "virasoro.build_virasoro",
    "virasoro.commutator_deviation",
    "virasoro.level_spectrum_deviation",
    "defect.build_theta_fermion",
    "defect.check_intertwining",
    "defect.check_ope_preservation",
    "ness.energy_current",
    "ness.apply_smatrix",
    "ness.check_global_continuity",
    "su2k.energy_current_k",
    "su2k.fermionize_k2",
    "su2k.decomposition_coefficients",
    "lattice.steady_current",
    "lattice.gibbs_covariance",
    "lattice.transmission",
    "lattice.landauer_current",
)


def fingerprint(x):
    """Hash of a value that equal values share, whatever their identity."""
    kind = type(x)
    if isinstance(x, (list, tuple)):
        return hash((kind.__name__, tuple(map(fingerprint, x))))
    if isinstance(x, (set, frozenset)):
        return hash((kind.__name__, tuple(sorted(map(fingerprint, x)))))
    if isinstance(x, dict):
        return hash(tuple((fingerprint(k), fingerprint(v)) for k, v in x.items()))
    if isinstance(x, np.ndarray):
        return hash((x.shape, x.dtype.str, x.tobytes()))
    if x is None or isinstance(x, type):
        return hash(repr(x))
    if kind.__hash__ not in (None, object.__hash__):
        try:
            return hash(x)
        except TypeError:  # a frozen dataclass holding unhashable parts
            pass
    if callable(x) and hasattr(x, "__code__"):
        cells = tuple(fingerprint(c.cell_contents) for c in (x.__closure__ or ()))
        return hash((x.__qualname__, cells))
    state = getattr(x, "__dict__", None)
    return hash((kind.__qualname__, fingerprint(state) if state is not None else 0))


class Tracer:
    def __init__(self):
        self.stats = {}     # name -> [calls, self seconds, set of argument fingerprints]
        self._stack = []    # seconds covered by traced children, one slot per open span

    def _wrap(self, name, fn):
        stat = self.stats[name] = [0, 0.0, set()]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            stat[0] += 1
            stat[2].add(fingerprint((args, tuple(sorted(kwargs.items())))))
            t1 = clock()
            if stack:
                stack[-1] += t1 - t0
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - t1
                stat[1] += span - stack.pop()
                if stack:
                    stack[-1] += span
        return traced

    def install(self):
        """Replace every traced function, in its owner and wherever neqcft modules bound it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "neqcft" or name.startswith("neqcft.")]
        for dotted in TRACED:
            *path, attr = dotted.split(".")
            owner = importlib.import_module("neqcft." + path[0])
            for part in path[1:]:
                owner = getattr(owner, part)
            orig = vars(owner)[attr]
            wrapped = self._wrap(dotted, orig)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)

    def summary(self):
        return {name: {"calls": calls, "self_s": self_s, "distinct": len(seen)}
                for name, (calls, self_s, seen) in self.stats.items()}
