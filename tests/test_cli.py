"""Command line front end: reports, formats, exit codes."""

import dataclasses
import importlib
import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from neqcft import cli, defect, fock, lattice, su2k, virasoro


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


def test_virasoro_check_builds_each_mode_matrix_once(tmp_path):
    virasoro.build_virasoro.cache_clear()
    fock.mode_operator.cache_clear()
    code = cli.main(["--out", str(tmp_path / "report.json"), "virasoro-check", "--cutoff", "6"])
    assert code == 0
    # the 12 mode values with |s| <= 6 on each model's one space, each built once
    info = fock.mode_operator.cache_info()
    assert info.misses == 24 and info.hits > 0


def test_intertwiner_builds_each_product_operator_once(tmp_path):
    defect.total_virasoro.cache_clear()
    defect.scattering_space.cache_clear()
    code = cli.main(["--out", str(tmp_path / "report.json"), "intertwiner", "--cutoff", "8"])
    assert code == 0
    # 8 angles x n in -2..2 share one space and its L_-2 .. L_2
    assert defect.total_virasoro.cache_info().misses == 5
    assert defect.scattering_space.cache_info().misses == 1


def test_traced_names_resolve_to_neqcft_callables():
    # the benchmark's tracer replaces these by name; a memoizing wrapper must
    # keep each one defined, and callable, where the tracer looks for it
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for dotted in tracer.TRACED:
        *owner_path, attr = dotted.split(".")
        owner = importlib.import_module("neqcft." + owner_path[0])
        for part in owner_path[1:]:
            owner = getattr(owner, part)
        assert callable(vars(owner).get(attr)), dotted


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
    # both ends of [0, 1] are transmissions
    code, out = run(capsys, "landauer", "--t0", "0")
    assert code == 0 and json.loads(out)["J"] == 0.0


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


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_unwritable_out_is_usage_error(capsys, tmp_path, where):
    path = tmp_path if where == "directory" else tmp_path / "missing" / "report.json"
    assert cli.main(["--out", str(path), "smatrix"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and str(path) in captured.err


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


@pytest.mark.parametrize("config, argv", [
    ({"cutof": 12}, ["virasoro-check"]),  # a misspelt key would leave the default cutoff
    ({"fn": "x"}, ["smatrix"]),  # internal names would replace the handler
    ({"command": "current"}, ["smatrix"]),
])
def test_config_key_that_is_no_option_is_usage_error(capsys, tmp_path, config, argv):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(["--config", str(cfg), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and repr(next(iter(config))) in captured.err


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


@pytest.mark.parametrize("argv", [
    ["virasoro-check", "--cutoff", "1/0"],
    ["intertwiner", "--cutoff", "1/0"],
    ["su2k-fermionize", "--rr-bar", "1/0"],
    ["su2k-decompose", "--rr-bar", "1/0"],
    ["su2k-current", "--Tl", "1/0"],
    ["su2k-current", "--Tr", "x"],
])
def test_bad_fraction_flags_are_usage_errors(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected an exact fraction" in captured.err


@pytest.mark.parametrize("argv", [
    ["lattice-transmission", "--omega-points", "0"],
    ["intertwiner", "--n-range", "-1"],
    ["virasoro-check", "--commutator-range", "-1"],
    ["virasoro-check", "--commutator-range", "1.5"],
    # an su(2)_k level is a positive integer
    ["su2k-decompose", "--k", "0"],
    ["su2k-decompose", "--k", "-1"],
    ["su2k-current", "--k", "0", "--rr-bar", "1/2"],
    ["su2k-current", "--k", "-1", "--rr-bar", "1/2"],
    ["lattice-run", "--samples", "-5"],
    # no root of unity of order below 1
    ["reflection-phases", "--max-order", "0"],
    ["reflection-phases", "--ring", "trivial", "--max-order", "-3"],
])
def test_counts_that_would_check_nothing_are_usage_errors(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected an integer >=" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["landauer", "--Tl", "-1"], "temperature must be >= 0"),
    (["landauer", "--Tr", "-0.5"], "temperature must be >= 0"),
    (["landauer", "--coupling", "0"], "coupling must be positive"),
    (["landauer", "--coupling", "-1"], "coupling must be positive"),
    (["lattice-transmission", "--coupling", "0"], "coupling must be positive"),
    (["landauer", "--t0", "2"], "transmission must lie in [0, 1]"),
    (["landauer", "--t0", "-1"], "transmission must lie in [0, 1]"),
])
def test_out_of_domain_lattice_parameters_are_usage_errors(capsys, argv, message):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("argv, message", [
    (["intertwiner", "--cutoff", "0"], "empty safe subspace for n=-2 at cutoff 0"),
    # every mode it checks has |s| >= 1/2, so below cutoff 1/2 no column is compared
    (["ope-preservation", "--cutoff", "0"], "empty safe subspace for the OPE check"),
    (["ope-preservation", "--cutoff", "1/4"], "empty safe subspace for the OPE check"),
    (["ope-preservation", "--cutoff", "0", "--skew", "0.01"], "empty safe subspace for the OPE check"),
])
def test_checks_that_compare_no_column_are_usage_errors(capsys, argv, message):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_smallest_counts_still_check(capsys):
    code, out = run(capsys, "lattice-transmission", "--omega-points", "1")
    assert code == 0 and len(json.loads(out)["grid"]) == 1
    code, out = run(capsys, "intertwiner", "--cutoff", "2", "--n-range", "0")
    assert code == 0 and {c["n"] for c in json.loads(out)["checks"]} == {0}
    code, out = run(capsys, "su2k-current", "--k", "1", "--rr-bar", "1/2", "--Tl", "1", "--Tr", "0")
    assert code == 0 and json.loads(out)["J_E_numeric"] == 0
    # at cutoff 1/2 the OPE check still reads the vacuum column
    code, out = run(capsys, "ope-preservation", "--cutoff", "1/2")
    assert code == 0 and json.loads(out)["passed"]


@pytest.mark.parametrize("command", ["su2k-current", "su2k-decompose"])
def test_rr_bar_without_k_uses_the_symbolic_level(capsys, command):
    code, out = run(capsys, command, "--rr-bar", "1/2")
    assert code == 0
    report = json.loads(out)
    assert report["k"] == "k" and report["rr_bar"] == "1/2"
    assert report["passed"]


# reports of the symbolic layer, pinned string for string: a refactor of ness
# or su2k must print exactly these
SYMBOLIC_REPORTS = [
    (["smatrix", "--cos-sin", "3/5,4/5"], {
        "S[psi_r(x)]": "(4/5)*psi^r(x) + (-3/5)*psibar^l(-x)",
        "S[T_r(x)]": "(16/25)*T^r(x) + (9/25)*Tbar^l(-x) + (-6*I/25)*dpsibar^l(-x)*psi^r(x)"
                     " + (-6*I/25)*psibar^l(-x)*dpsi^r(x)",
        "stress_weight_sum": "1",
        "passed": True,
    }),
    (["current"], {
        "inputs": {"theta_cos_sin": ["cos(alpha)", "sin(alpha)"], "T_l": "1.0", "T_r": "0.0"},
        "symbolic_result": {"J_E": "0.0416666666666667*pi*cos(alpha)**2", "sigma": "None"},
        "numeric_result": {"J_E": None, "sigma": None},
        "passed": True,
    }),
    (["su2k-decompose"], {
        "k": "k",
        "s": "s",
        "rr_bar": "r_rbar",
        "coeff_Tu1": "-r_rbar + 1 + r_rbar/k",
        "coeff_TZk": "r_rbar/2 + r_rbar/k",
        "J_E_closed_form": "pi*r_rbar*(T_l**2*k - T_l**2 - T_r**2*k + T_r**2)/(12*k)",
        "unit_sum_deviation": "0",
        "passed": True,
    }),
    (["smatrix"], {
        "S[psi_r(x)]": "(sin(alpha))*psi^r(x) + (-cos(alpha))*psibar^l(-x)",
        "S[T_r(x)]": "(sin(alpha)**2)*T^r(x) + (cos(alpha)**2)*Tbar^l(-x)"
                     " + (-I*sin(2*alpha)/4)*dpsibar^l(-x)*psi^r(x)"
                     " + (-I*sin(2*alpha)/4)*psibar^l(-x)*dpsi^r(x)",
        "stress_weight_sum": "1",
        "passed": True,
    }),
    (["entropy"], {
        "J_E": "0.125*pi*cos(alpha)**2",
        "sigma": "0.0625*pi*cos(alpha)**2",
        "sigma_numeric": None,
        "passed": True,
    }),
    (["entropy", "--alpha", "0.3"], {
        "J_E": "0.114083475931855*pi",
        "sigma": "0.0570417379659274*pi",
        "sigma_numeric": 0.17920190494175164,
        "passed": True,
    }),
    (["su2k-current"], {
        "k": "k",
        "rr_bar": "r_rbar",
        "J_E": "pi*r_rbar*(T_l**2*k - T_l**2 - T_r**2*k + T_r**2)/(12*k)",
        "closed_form": "pi*r_rbar*(T_l**2 - T_r**2)*(k - 1)/(12*k)",
        "passed": True,
    }),
    (["su2k-decompose", "--k", "3", "--rr-bar", "1/4"], {
        "k": "3",
        "s": "sqrt(3)/2",
        "rr_bar": "1/4",
        "coeff_Tu1": "5/6",
        "coeff_TZk": "5/24",
        "J_E_closed_form": "pi*(T_l**2 - T_r**2)/72",
        "unit_sum_deviation": "0",
        "passed": True,
    }),
    (["su2k-fermionize", "--rr-bar", "9/25"], {
        "k": 2,
        "s": "4/5",
        "rr_bar": "9/25",
        "cos_effective": "3/5",
        "chi1": "pure reflection, zero current",
        "J_fermionized": "3*pi*(T_l**2 - T_r**2)/200",
        "J_algebraic": "3*pi*(T_l**2 - T_r**2)/200",
        "agree": True,
        "passed": True,
    }),
    (["su2k-fermionize", "--rr-bar", "1/3"], {
        "k": 2,
        "s": "sqrt(6)/3",
        "rr_bar": "1/3",
        "cos_effective": "sqrt(3)/3",
        "chi1": "pure reflection, zero current",
        "J_fermionized": "pi*(T_l**2 - T_r**2)/72",
        "J_algebraic": "pi*(T_l**2 - T_r**2)/72",
        "agree": True,
        "passed": True,
    }),
]


@pytest.mark.parametrize("argv, expected", SYMBOLIC_REPORTS,
                         ids=[" ".join(argv) for argv, _ in SYMBOLIC_REPORTS])
def test_symbolic_reports_are_pinned(capsys, argv, expected):
    code, out = run(capsys, *argv)
    assert code == 0
    assert json.loads(out) == expected


_ALPHA_03 = "(cos, sin) = (0.955336489125606, 0.29552020666133955)"
_ALPHA_07 = "(cos, sin) = (0.7648421872844885, 0.644217687237691)"
_SKEW_DIAGNOSTIC = ("defect map fails to intertwine the incoming and outgoing Virasoro actions: "
                    "Theta (Lbar^l_n + L^r_n) != (L^l_n + Lbar^r_n) Theta")
_OPE_DIAGNOSTIC = ("mode conjugation does not preserve the anticommutation relations "
                   "or the identity field")


def _failed_intertwiner(cutoff, theta, deviations):
    """The report of an intertwiner run over n = -2..2 that fails at every n."""
    checks = [{"theta": theta, "n": n, "deviation": dev, "passed": False}
              for n, dev in zip(range(-2, 3), deviations)]
    return {"cutoff": cutoff, "checks": checks, "diagnostic": _SKEW_DIAGNOSTIC}


def _failed_ope(cutoff, vacuum, anticommutator):
    return {"cutoff": cutoff, "vacuum_deviation": vacuum,
            "anticommutator_deviation": anticommutator, "passed": False,
            "diagnostic": _OPE_DIAGNOSTIC}


# reports of the exact layer on its float and skewed paths, pinned string for
# string with their exit codes: a rewrite of fock or defect must not move a
# trailing digit
EXACT_REPORTS = [
    (["intertwiner", "--cutoff", "4", "--alpha", "0.3", "--n-range", "1"], 0, {
        "cutoff": "4",
        "checks": [
            {"theta": _ALPHA_03, "n": -1, "deviation": "1.1102230246251565e-16", "passed": True},
            {"theta": _ALPHA_03, "n": 0, "deviation": "0", "passed": True},
            {"theta": _ALPHA_03, "n": 1, "deviation": "0", "passed": True},
        ],
    }),
    (["intertwiner", "--cutoff", "3", "--cos-sin", "3/5,4/5", "--skew", "0.01", "--n-range", "1"], 1, {
        "cutoff": "3",
        "checks": [
            {"theta": "(cos, sin) = (3/5, 4/5)", "n": -1, "deviation": "0.020000000000000018",
             "passed": False},
            {"theta": "(cos, sin) = (3/5, 4/5)", "n": 0, "deviation": "0.005000000000000001",
             "passed": False},
            {"theta": "(cos, sin) = (3/5, 4/5)", "n": 1, "deviation": "0.02", "passed": False},
        ],
        "diagnostic": _SKEW_DIAGNOSTIC,
    }),
    (["ope-preservation", "--skew", "0.01"], 1, _failed_ope("4", "0.01", "0.016")),
    (["ope-preservation", "--alpha", "1.1"], 0, {
        "cutoff": "4",
        "vacuum_deviation": "0",
        "anticommutator_deviation": "5.551115123125783e-17",
        "passed": True,
    }),
    (["momentum-continuity", "--alpha", "0.7"], 0, {
        "cutoff": "4",
        "theta": _ALPHA_07,
        "passed": True,
    }),
    (["momentum-continuity", "--skew", "0.01"], 1, {
        "cutoff": "4",
        "theta": "skewed",
        "passed": False,
        "diagnostic": "momentum density not continuous across the impurity: "
                      "Theta[Tbar^l + T^r] != T^l + Tbar^r on the vacuum",
    }),
    # digits that the order of float rounding decides: a float Theta skewed
    # once more, and the two skewed controls of the benchmark
    (["intertwiner", "--cutoff", "6", "--alpha", "0.7", "--skew", "0.003"], 1,
     _failed_intertwiner("6", _ALPHA_07, ["0.0105", "0.009000000000000001", "0.0015000000000000005",
                                          "0.009000000000000001", "0.007500000000000062"])),
    (["ope-preservation", "--cutoff", "5", "--alpha", "0.3", "--skew", "0.01"], 1,
     _failed_ope("5", "0.01", "0.01955336489125606")),
    (["intertwiner", "--cutoff", "8", "--cos-sin=-3/5,4/5", "--skew", "0.01"], 1,
     _failed_intertwiner("8", "(cos, sin) = (-3/5, 4/5)",
                         ["0.035", "0.03", "0.005000000000000001", "0.03", "0.035"])),
    (["ope-preservation", "--cutoff", "6", "--cos-sin=-3/5,4/5", "--skew", "0.01"], 1,
     _failed_ope("6", "0.01", "0.016")),
]


@pytest.mark.parametrize("argv, verdict, expected", EXACT_REPORTS,
                         ids=[" ".join(argv) for argv, _, _ in EXACT_REPORTS])
def test_exact_reports_are_pinned(capsys, argv, verdict, expected):
    code, out = run(capsys, *argv)
    assert code == verdict
    assert json.loads(out) == expected


def test_numerical_breakdown_is_a_failed_verification(capsys):
    # six samples leave too few in the plateau window
    code = cli.main(["lattice-run", "--sites", "120", "--samples", "6"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: plateau window")


def test_bad_ring_path_is_usage_error(capsys):
    code = cli.main(["reflection-phases", "--ring", "/does/not/exist.json"])
    capsys.readouterr()
    assert code == 2


_ISING = {"labels": ["1", "psi"], "identity": "1",
          "fusion": [["1", "1", "1"], ["1", "psi", "psi"], ["psi", "1", "psi"], ["psi", "psi", "1"]],
          "conjugation": {"1": "1", "psi": "psi"}}


@pytest.mark.parametrize("ring, message", [
    ({k: v for k, v in _ISING.items() if k != "fusion"}, "ring is missing fusion"),
    ([_ISING], "a ring must be a JSON object, got list"),
    (dict(_ISING, fusion=[["1", "1", "1"], ["psi", "psi"]]), "must name three known labels"),
    (dict(_ISING, labels=5), "labels must be a list of label strings"),
    (dict(_ISING, fusion=[5]), "fusion triple must be a list of label strings"),
])
def test_malformed_ring_file_is_usage_error(capsys, tmp_path, ring, message):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(ring))
    assert cli.main(["reflection-phases", "--ring", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


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


def _fresh_python(code):
    """Stdout of ``code`` run by a new interpreter that imports neqcft from this checkout."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_cli_import_loads_no_scipy():
    # scipy is a test oracle only; importing it would cost every command ~0.5 s
    code = ("import sys, neqcft.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    assert _fresh_python(code).strip() == "[]"


def test_symbolic_commands_load_no_sympy_physics():
    # sp.simplify imports sympy.physics.units on its first call, about 0.2 s in
    # every symbolic command; a fresh process shows whether any path still calls
    # it (the tests' own sp.simplify oracle has loaded it into this process)
    commands = [
        ["full-suite", "--quick"], ["smatrix"], ["current"], ["entropy"], ["continuity"],
        ["su2k-decompose"], ["su2k-current", "--k", "4", "--rr-bar", "1/2", "--Tl", "1", "--Tr", "0"],
        ["su2k-fermionize", "--matrix-check"],
    ]
    code = ("import contextlib, io, sys\n"
            "from neqcft import cli\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.startswith('sympy.physics')))\n")
    assert _fresh_python(code).strip() == "[]"


def test_import_runs_no_full_collection_and_freezes_its_heap():
    # the numpy and sympy heap left by the import moves to the permanent
    # generation, so no collection of the command or of the exit walks it
    code = ("import gc\n"
            "full = gc.get_stats()[2]['collections']\n"
            "import neqcft.cli\n"
            "print(gc.isenabled(), gc.get_freeze_count() > 0,"
            " gc.get_stats()[2]['collections'] - full)\n")
    assert _fresh_python(code).split() == ["True", "True", "0"]


def test_import_keeps_a_disabled_gc_disabled():
    code = "import gc\ngc.disable()\nimport neqcft.cli\nprint(gc.isenabled())\n"
    assert _fresh_python(code).strip() == "False"


def test_failed_import_leaves_gc_enabled():
    code = ("import gc, sys\n"
            "sys.modules['sympy'] = None\n"
            "try:\n"
            "    import neqcft\n"
            "except ImportError:\n"
            "    print(gc.isenabled())\n")
    assert _fresh_python(code).strip() == "True"
