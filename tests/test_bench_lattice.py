"""The committed reports of tools/bench_lattice.py parse and hold together; the sweep itself is not run."""

import importlib.util
import json
import math
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("bench_lattice", ROOT / "tools" / "bench_lattice.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


STAGES = ("chain_spectrum_s", "propagator_rows_s", "gibbs_contraction_s", "steady_current_s")


def _seconds(value):
    return isinstance(value, float) and math.isfinite(value) and value > 0


def test_committed_lattice_bench_reports_parse():
    tool = _tool()
    paths = sorted(ROOT.glob("BENCH_lattice-*.json"))
    assert len(paths) >= 2  # a baseline and at least one later report
    for path in paths:
        report = json.loads(path.read_text())
        assert list(report) == ["label", "runs", "statistic", "unit", "chain", "machine",
                                "landauer_current_s", "sizes"], path.name
        assert path.name == f"BENCH_lattice-{report['label']}.json"
        assert (report["statistic"], report["unit"]) == ("median", "s")
        assert isinstance(report["runs"], int) and report["runs"] >= 1
        assert report["chain"] == {"lam": tool.LAM, "T_l": tool.T_LEFT, "T_r": tool.T_RIGHT,
                                   "samples": tool.SAMPLES}
        assert set(report["machine"]) == {"python", "numpy", "processor", "cpu_count", "blas_threads"}
        assert _seconds(report["landauer_current_s"])
        assert [size["sites"] for size in report["sizes"]] == list(tool.SITES)
        for size in report["sizes"]:
            assert list(size) == ["sites", *STAGES]
            assert all(_seconds(size[stage]) for stage in STAGES), size
            # every run nests the spectrum in the rows and both in steady_current,
            # and medians keep that order
            assert size["chain_spectrum_s"] <= size["propagator_rows_s"] <= size["steady_current_s"]
            assert size["gibbs_contraction_s"] <= size["steady_current_s"]
