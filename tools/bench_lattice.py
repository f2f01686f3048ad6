"""In-process timings of the lattice oracle's layers across chain lengths.

    python3 tools/bench_lattice.py LABEL

Imports `neqcft` from the `src/` directory of the checkout that holds this
file and pins BLAS and OpenMP to one thread, as perfbench does for its
children.  For each chain of N = 400, 900, 1600, 3200 and 6400 sites
(lam = 0.7, T_l = 0.1, T_r = 0.05, 60 samples) it runs `steady_current`
once untimed, so caches and lazy set-up are warm, and then RUNS = 7 times.
Each timed run wraps three module-level names of `neqcft.lattice` for its
duration:

- `_chain_spectrum`: the closed-form spectrum with its bisection;
- `propagator_rows`: the rows of exp(A t) of every sample, spectrum included;
- the Gibbs contraction: from the first `_gibbs_rows` call to the return
  of `steady_current`, i.e. both Gibbs halves contracted against the rows
  (and the few O(S) steps after them).

`landauer_current` of the same chain's transmission, which does not depend
on N, is timed RUNS times after one untimed call.  Every figure is the
median of its RUNS runs in seconds.  The report goes to
`BENCH_lattice-LABEL.json` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SITES = (400, 900, 1600, 3200, 6400)
LAM, T_LEFT, T_RIGHT, SAMPLES = 0.7, 0.1, 0.05, 60
RUNS = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def time_steady_current(lattice, spec, runs):
    """Medians of steady_current and of its stages over ``runs`` warm runs."""
    stages = {"chain_spectrum_s": [], "propagator_rows_s": [], "gibbs_contraction_s": [],
              "steady_current_s": []}
    originals = {name: getattr(lattice, name)
                 for name in ("_chain_spectrum", "propagator_rows", "_gibbs_rows")}
    run = {}

    def timed(name, key):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return originals[name](*args, **kwargs)
            finally:
                run[key] = run.get(key, 0.0) + time.perf_counter() - start
        return wrapper

    def gibbs_rows(*args, **kwargs):
        run.setdefault("gibbs_start", time.perf_counter())
        return originals["_gibbs_rows"](*args, **kwargs)

    lattice.steady_current(spec, T_LEFT, T_RIGHT, SAMPLES)
    lattice._chain_spectrum = timed("_chain_spectrum", "chain_spectrum_s")
    lattice.propagator_rows = timed("propagator_rows", "propagator_rows_s")
    lattice._gibbs_rows = gibbs_rows
    try:
        for _ in range(runs):
            run.clear()
            start = time.perf_counter()
            lattice.steady_current(spec, T_LEFT, T_RIGHT, SAMPLES)
            end = time.perf_counter()
            stages["chain_spectrum_s"].append(run["chain_spectrum_s"])
            stages["propagator_rows_s"].append(run["propagator_rows_s"])
            stages["gibbs_contraction_s"].append(end - run["gibbs_start"])
            stages["steady_current_s"].append(end - start)
    finally:
        for name, fn in originals.items():
            setattr(lattice, name, fn)
    return {key: statistics.median(values) for key, values in stages.items()}


def time_landauer(lattice, runs):
    def once():
        start = time.perf_counter()
        lattice.landauer_current(lambda w: lattice.transmission(LAM, w), T_LEFT, T_RIGHT)
        return time.perf_counter() - start

    once()
    return statistics.median([once() for _ in range(runs)])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="names the report BENCH_lattice-LABEL.json")
    args = parser.parse_args(argv)
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from neqcft import lattice

    sizes = []
    for sites in SITES:
        spec = lattice.ChainSpec(sites=sites, defect=LAM)
        sizes.append({"sites": sites, **time_steady_current(lattice, spec, RUNS)})
        print(f"N = {sites}: " + ", ".join(f"{k} {v:.4f}" for k, v in sizes[-1].items() if k != "sites"),
              file=sys.stderr)
    report = {
        "label": args.label,
        "runs": RUNS,
        "statistic": "median",
        "unit": "s",
        "chain": {"lam": LAM, "T_l": T_LEFT, "T_r": T_RIGHT, "samples": SAMPLES},
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "processor": platform.machine(), "cpu_count": os.cpu_count(), "blas_threads": 1},
        "landauer_current_s": time_landauer(lattice, RUNS),
        "sizes": sizes,
    }
    path = ROOT / f"BENCH_lattice-{args.label}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
