"""Command line front end: reports, formats, exit codes."""

import dataclasses
import json
import math
import sys

import pytest

from neqcft import cli, lattice, su2k, virasoro


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_virasoro_check_reports_exact_central_charges(capsys):
    code, out = run(capsys, "virasoro-check", "--cutoff", "6")
    assert code == 0
    report = json.loads(out)
    assert report["models"]["fermion"]["central_charge"] == "1/2"
    assert report["models"]["boson"]["central_charge"] == "1"
    assert report["models"]["fermion"]["commutator_max_deviation"] == "0"


def test_virasoro_check_builds_each_generator_once(tmp_path):
    virasoro.build_virasoro.cache_clear()
    code = cli.main(["--out", str(tmp_path / "report.json"), "virasoro-check", "--cutoff", "6"])
    assert code == 0
    # L_-3 .. L_3 for each of the two models
    assert virasoro.build_virasoro.cache_info().misses == 14


def test_current_at_full_transmission(capsys):
    code, out = run(capsys, "current", "--alpha", "0", "--Tl", "1", "--Tr", "0")
    assert code == 0
    report = json.loads(out)
    assert abs(report["numeric_result"]["J_E"] - math.pi / 24) < 1e-12


def test_current_at_numerical_reflection(capsys):
    code, out = run(capsys, "current", "--alpha", "1.5707963", "--Tl", "1", "--Tr", "0")
    assert code == 0
    report = json.loads(out)
    assert abs(report["numeric_result"]["J_E"]) < 1e-12


def test_intertwiner_grid_passes(capsys):
    code, out = run(capsys, "intertwiner", "--cutoff", "4")
    assert code == 0
    report = json.loads(out)
    assert all(c["deviation"] == "0" for c in report["checks"])


def test_intertwiner_negative_control_fails(capsys):
    code, _ = run(capsys, "intertwiner", "--cutoff", "3", "--cos-sin", "3/5,4/5",
                  "--skew", "0.01")
    assert code == 1


def test_reflection_phases_builtin_rings(capsys):
    code, out = run(capsys, "reflection-phases", "--ring", "ising")
    assert code == 0
    report = json.loads(out)
    phases = sorted(tuple(s["psi"]) for s in report["solutions"])
    assert phases == [(0, 1), (1, 2)]


def test_reflection_phases_from_file(capsys, tmp_path):
    ring = {
        "labels": ["1", "psi"],
        "identity": "1",
        "fusion": [["1", "1", "1"], ["1", "psi", "psi"], ["psi", "1", "psi"],
                   ["psi", "psi", "1"]],
        "conjugation": {"1": "1", "psi": "psi"},
    }
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(ring))
    code, out = run(capsys, "reflection-phases", "--ring", str(path))
    assert code == 0
    assert json.loads(out)["count"] == 2


def test_entropy_subcommand(capsys):
    code, out = run(capsys, "entropy", "--alpha", "0", "--Tl", "2", "--Tr", "1")
    assert code == 0
    report = json.loads(out)
    assert abs(report["sigma_numeric"] - math.pi / 16) < 1e-12


def test_continuity_subcommand(capsys):
    code, out = run(capsys, "continuity")
    assert code == 0
    assert json.loads(out)["passed"]


def test_su2k_current_subcommand(capsys):
    code, out = run(capsys, "su2k-current", "--k", "4", "--rr-bar", "1/2",
                    "--Tl", "1", "--Tr", "0")
    assert code == 0
    report = json.loads(out)
    assert abs(report["J_E_numeric"] - math.pi / 32) < 1e-12


@pytest.mark.parametrize("k", range(1, 13))
def test_su2k_current_exact_temperatures(capsys, k):
    # the verdict is an exact symbolic comparison: float temperatures would
    # leave a rounding residue of order 1e-17 * pi at some k
    code, out = run(capsys, "su2k-current", "--k", str(k), "--rr-bar", "1/2",
                    "--Tl", "1", "--Tr", "0")
    assert code == 0
    report = json.loads(out)
    assert report["J_E"] == report["closed_form"]
    assert abs(report["J_E_numeric"] - math.pi / 24 * (k - 1) / k) < 1e-12


def test_su2k_current_with_one_temperature(capsys):
    code, out = run(capsys, "su2k-current", "--k", "2", "--rr-bar", "1/2", "--Tl", "1")
    assert code == 0
    report = json.loads(out)
    assert report["J_E"] == report["closed_form"] == "pi*(1 - T_r**2)/48"


def test_su2k_decompose_breakdown_is_a_failed_verification(capsys, monkeypatch):
    monkeypatch.setattr(su2k.CurrentBilinear, "is_closed", lambda self: False)
    code = cli.main(["su2k-decompose"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: rewrite did not close")


def test_su2k_fermionize_subcommand(capsys):
    code, out = run(capsys, "su2k-fermionize", "--rr-bar", "3/4")
    assert code == 0
    assert json.loads(out)["agree"]


def test_landauer_subcommand(capsys):
    code, out = run(capsys, "landauer", "--t0", "1.0", "--Tl", "0.1", "--Tr", "0")
    assert code == 0
    report = json.loads(out)
    assert abs(report["J"] - 1.3090e-3) < 1e-6


def test_lattice_transmission_csv_format(capsys):
    code, out = run(capsys, "--format", "csv", "lattice-transmission",
                    "--lam", "0.5", "--omega-points", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("transmission_dc,") for line in lines)


def test_out_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out = run(capsys, "--out", str(path), "smatrix")
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["passed"]


def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"tl": 3.0, "tr": 1.0}))
    code, out = run(capsys, "--config", str(cfg), "entropy", "--alpha", "0")
    assert code == 0
    report = json.loads(out)
    # J = (pi/24)(9 - 1), sigma = J (1/T_r - 1/T_l); the defaults would give pi/16
    assert abs(report["sigma_numeric"] - 2 * math.pi / 9) < 1e-12


def test_config_values_take_the_option_type(capsys, tmp_path):
    # float temperatures would leave the exact verdict a rounding residue
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"tl": 1.0, "tr": 0.0}))
    code, out = run(capsys, "--config", str(cfg), "su2k-current", "--k", "2", "--rr-bar", "1/2")
    assert code == 0
    assert json.loads(out)["J_E"] == "pi/48"


def test_config_rr_bar_is_exact_and_null_keeps_the_default(capsys, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"rr_bar": 0.1}))
    code, out = run(capsys, "--config", str(cfg), "su2k-decompose", "--k", "2")
    assert code == 0
    assert json.loads(out)["rr_bar"] == "1/10"
    cfg.write_text(json.dumps({"rr_bar": None}))
    code, out = run(capsys, "--config", str(cfg), "su2k-fermionize")
    assert (code, out) == run(capsys, "su2k-fermionize")


def test_config_does_not_reach_full_suite_steps(capsys, tmp_path):
    # zero temperatures would make the entropy step a usage error
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"tl": 0.0, "tr": 0.0}))
    code, out = run(capsys, "--config", str(cfg), "full-suite", "--quick")
    assert code == 0
    assert json.loads(out)["passed"]


def test_flags_override_config(capsys, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"tl": 2.0, "tr": 1.0}))
    code, out = run(capsys, "--config", str(cfg), "current", "--alpha", "0",
                    "--Tl", "1", "--Tr", "0")
    report = json.loads(out)
    assert abs(report["numeric_result"]["J_E"] - math.pi / 24) < 1e-12


def test_usage_error_exit_code(capsys):
    assert cli.main(["no-such-command"]) == 2
    capsys.readouterr()
    assert cli.main(["--config", "/does/not/exist.json", "smatrix"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["current", "--alpha", "nan"],
    ["entropy", "--Tl", "nan"],
    ["lattice-run", "--Tl", "nan"],
    ["landauer", "--Tl", "nan"],
    ["landauer", "--t0", "inf"],
    ["lattice-transmission", "--lam", "nan"],
    ["intertwiner", "--skew=-inf"],
])
def test_non_finite_float_flags_are_usage_errors(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected a finite number" in captured.err


def test_numerical_breakdown_is_a_failed_verification(capsys):
    # six samples leave too few in the plateau window
    code = cli.main(["lattice-run", "--sites", "120", "--samples", "6"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: plateau window")


def test_bad_ring_path_is_usage_error(capsys):
    code = cli.main(["reflection-phases", "--ring", "/does/not/exist.json"])
    capsys.readouterr()
    assert code == 2


def test_lattice_run_with_series(capsys, tmp_path):
    path = tmp_path / "series.csv"
    code, out = run(capsys, "lattice-run", "--sites", "120", "--lam", "0.9",
                    "--Tl", "0.2", "--Tr", "0.1", "--samples", "30",
                    "--series-out", str(path))
    assert code == 0
    report = json.loads(out)
    assert abs(report["ratios"]["plateau_over_landauer"] - 1) < 0.03
    assert 0.0 <= report["orth_drift"] <= 1e-10
    assert path.read_text().splitlines()[0] == "t,current"


def test_lattice_run_runs_protocol_once(capsys, tmp_path, monkeypatch):
    calls = []
    original = lattice.steady_current

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(lattice, "steady_current", counting)
    path = tmp_path / "series.csv"
    code, out = run(capsys, "lattice-run", "--sites", "120", "--samples", "30",
                    "--series-out", str(path))
    assert code == 0
    assert len(calls) == 1
    assert json.loads(out)["series_csv"] == str(path)
    assert len(path.read_text().splitlines()) == 31


def test_equal_temperature_lattice_run_checks_the_plateau(capsys, monkeypatch):
    argv = ("lattice-run", "--sites", "120", "--Tl", "0.1", "--Tr", "0.1", "--samples", "30")
    code, out = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["landauer"] == 0.0
    original = lattice.steady_current

    def leaking(*args, **kwargs):
        series = original(*args, **kwargs)
        return dataclasses.replace(series, plateau=dataclasses.replace(series.plateau, mean=1e-6))

    monkeypatch.setattr(lattice, "steady_current", leaking)
    code, out = run(capsys, *argv)
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False and "1e-10" in report["diagnostic"]


class _ClosedStdout:
    """Stands in for a pipe whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


@pytest.mark.parametrize("argv, verdict", [
    (["reflection-phases"], 0),
    (["intertwiner", "--cutoff", "3", "--cos-sin", "3/5,4/5", "--skew", "0.01"], 1),
])
def test_closed_stdout_keeps_verdict(capsys, monkeypatch, argv, verdict):
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    assert cli.main(argv) == verdict
    assert capsys.readouterr().err == ""


def test_full_suite_quick(capsys):
    code, out = run(capsys, "full-suite", "--quick")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] and len(report["steps"]) == 13

