"""Command line front end: reports, formats, exit codes."""

import argparse
import dataclasses
import importlib
import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy as sp

from neqcft import cli, defect, fock, lattice, ness, su2k, virasoro


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


@pytest.mark.parametrize("model, bad", [("fermion", 1), ("boson", -2), ("fermion", 0)])
def test_virasoro_check_reports_the_worst_pair_of_the_full_grid(capsys, monkeypatch, model, bad):
    # the loop reads each unordered pair (m < n) once; with a corrupt L_bad
    # it must report the largest deviation over every (m, n) of the grid
    space = fock.enumerate_basis(model, 4)
    gen = virasoro.build_virasoro(model, bad, space)
    j, col = next(iter(gen.columns.items()))
    # 1/7 added to the first stored entry
    corrupt = gen + fock.GradedOperator(space, gen.twice_shift, gen.parity_shift,
                                        {j: {next(iter(col)): 1}}, 7)
    real = virasoro.build_virasoro
    monkeypatch.setattr(virasoro, "build_virasoro",
                        lambda m, k, sp: corrupt if (m, k) == (model, bad) else real(m, k, sp))
    c = virasoro.central_charge_probe(model, 2, space)
    worst = max(virasoro.commutator_deviation(model, m, n, space, c)
                for m in range(-2, 3) for n in range(-2, 3))
    code, out = run(capsys, "virasoro-check", "--cutoff", "4", "--model", model)
    report = json.loads(out)["models"][model]
    assert code == 1 and worst != 0
    assert report["commutator_max_deviation"] == str(worst)


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


def _current_args(cos_sin, tl, tr):
    """The parsed ``current`` command at ``cos_sin``, with temperatures of any kind."""
    args = cli.build_parser().parse_args(["current", *cos_sin])
    args.tl, args.tr = tl, tr
    return args


# (exact, symbolic and float temperatures, at an exact, the symbolic and a float angle)
_CURRENT_INPUTS = [
    (["--cos-sin=4/5,-3/5"], Fraction(1), Fraction(1, 2)),
    ([], ness.T_LEFT, ness.T_RIGHT),
    # float temperatures leave a residue of -1.4e-17*pi here
    (["--cos-sin=4/5,-3/5"], 0.846, 2.267),
    ([], 0.31, 2.9),
    # and a float angle one of -2.1e-17*pi
    (["--alpha", "1.2345"], 0.123, 3.7),
]


@pytest.mark.parametrize("cos_sin, tl, tr", _CURRENT_INPUTS + [
    (["--cos-sin=3/5,4/5"], 0.7, 0.7),  # J = ref = 0
    (["--cos-sin=0,1"], 1.0, 0.0),
    # rounding is held to the size of <T>, not of J, which cancels: near
    # equal temperatures, equal ones at a float angle, and a float angle
    # whose sin^2 rounds to 1
    (["--cos-sin=4/5,-3/5"], 0.846, 0.84601),
    (["--alpha", "0.3"], 1e-3, 1e-3 * (1 + 1e-12)),
    (["--alpha", "1.2345"], 0.7, 0.7),
    (["--alpha", "1.5707963267948966"], 1.0, 2.0),
])
def test_current_matches_the_low_temperature_form(cos_sin, tl, tr):
    report, ok = cli.cmd_current(_current_args(cos_sin, tl, tr))
    assert ok and report["passed"]


@pytest.mark.parametrize("cos_sin, tl, tr", _CURRENT_INPUTS)
def test_current_notices_a_relative_error_of_1e_9(monkeypatch, cos_sin, tl, tr):
    # far above double-precision rounding, so float inputs fail too
    energy_current = ness.energy_current
    monkeypatch.setattr(ness, "energy_current", lambda theta, weights=None:
                        energy_current(theta, weights) * (1 + sp.Rational(1, 10 ** 9)))
    report, ok = cli.cmd_current(_current_args(cos_sin, tl, tr))
    assert not ok
    assert report["diagnostic"] == "current does not match (pi/24) cos(alpha)^2 (T_l^2 - T_r^2)"


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


@pytest.mark.parametrize("config, argv, message", [
    ({"model": "bogus"}, ["virasoro-check"], "'model' takes one of fermion, boson, both, got \"bogus\""),
    # any JSON value is truthy or falsy, but a switch takes only true or false
    ({"quick": "no"}, ["full-suite"], "'quick' takes true or false, got \"no\""),
    ({"matrix_check": "false"}, ["su2k-fermionize"], "'matrix_check' takes true or false, got \"false\""),
    # a number would be opened as a file descriptor
    ({"series_out": 1}, ["lattice-run"], "'series_out' takes a string, got 1"),
    ({"ring": 5}, ["reflection-phases"], "'ring' takes a string, got 5"),
])
def test_config_value_that_no_flag_could_give_is_usage_error(capsys, tmp_path, config, argv, message):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(["--config", str(cfg), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"bad config: {message}\n"


@pytest.mark.parametrize("config, argv, flags", [
    ({"model": "fermion"}, ["virasoro-check", "--cutoff", "3"], ["--model", "fermion"]),
    ({"quick": True}, ["full-suite"], ["--quick"]),
    ({"matrix_check": False}, ["su2k-fermionize"], []),
    ({"ring": "z3"}, ["reflection-phases"], ["--ring", "z3"]),
    # another subcommand's option is not checked against this one's
    ({"model": 1, "quick": "no"}, ["su2k-fermionize"], []),
    # a config angle beats the headline point that the parser gives --cos-sin
    ({"alpha": 0.7}, ["momentum-continuity"], ["--alpha", "0.7"]),
    ({"alpha": 0.7}, ["ope-preservation"], ["--alpha", "0.7"]),
])
def test_config_values_that_a_flag_could_give_act_as_the_flag(capsys, tmp_path, config, argv, flags):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert run(capsys, "--config", str(cfg), *argv) == run(capsys, *argv, *flags)


def test_flags_override_config(capsys, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"tl": 2.0, "tr": 1.0}))
    code, out = run(capsys, "--config", str(cfg), "current", "--alpha", "0",
                    "--Tl", "1", "--Tr", "0")
    report = json.loads(out)
    assert abs(report["numeric_result"]["J_E"] - math.pi / 24) < 1e-12


@pytest.mark.parametrize("config, argv", [
    ({"cos_sin": "3/5,4/5"}, ["momentum-continuity", "--alpha", "0.7"]),
    ({"lam": 0.7}, ["landauer", "--t0", "0.5"]),
])
def test_flag_overrides_config_across_an_exclusive_group(capsys, tmp_path, config, argv):
    # the config sets one member of a mutually exclusive pair, the command line the other
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    flag_only = run(capsys, *argv)
    assert run(capsys, "--config", str(cfg), *argv) == flag_only
    assert run(capsys, "--config", str(cfg), argv[0]) != flag_only  # without the flag, the config holds


@pytest.mark.parametrize("config, argv", [
    ({"alpha": 0.7, "cos_sin": "3/5,4/5"}, ["momentum-continuity", "--alpha", "0.3"]),
    ({"lam": 0.7, "t0": 0.5}, ["landauer", "--t0", "0.5"]),
])
def test_config_that_sets_both_members_of_an_exclusive_group_is_usage_error(capsys, tmp_path,
                                                                           config, argv):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(["--config", str(cfg), argv[0]]) == 2
    captured = capsys.readouterr()
    first, second = config
    assert captured.out == ""
    assert captured.err == f"bad config: {first!r} and {second!r} exclude each other\n"
    # a flag of the group still overrides both config values
    assert run(capsys, "--config", str(cfg), *argv) == run(capsys, *argv)
    # a null value sets nothing
    cfg.write_text(json.dumps(dict(config, **{first: None})))
    assert cli.main(["--config", str(cfg), argv[0]]) == 0


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


@pytest.mark.parametrize("value", [
    "3/5", "3/5,4/5,0",  # one part and three parts
    "1,1",  # off the circle
    "1/0,1", "a,b",
])
def test_malformed_cos_sin_is_usage_error(capsys, value):
    assert cli.main(["momentum-continuity", f"--cos-sin={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == ("neqcft momentum-continuity: error: argument --cos-sin: "
                                             f"expected 'cos,sin' fractions, got {value!r}")


@pytest.mark.parametrize("argv, last", [
    (["current", "--alpha", "x"],
     "neqcft current: error: argument --alpha: expected a finite number, got 'x'"),
    (["intertwiner", "--cutoff", "1/0"],
     "neqcft intertwiner: error: argument --cutoff: expected an exact fraction, got '1/0'"),
    (["virasoro-check", "--commutator-range", "-1"],
     "neqcft virasoro-check: error: argument --commutator-range: expected an integer >= 0, got '-1'"),
])
def test_bad_flag_value_error_names_the_flag_and_the_value(capsys, argv, last):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == last


@pytest.mark.parametrize("argv, message", [
    (["landauer", "--Tl", "-1"], "temperature must be >= 0"),
    (["landauer", "--Tr", "-0.5"], "temperature must be >= 0"),
    (["landauer", "--coupling", "0"], "coupling must be positive"),
    (["landauer", "--coupling", "-1"], "coupling must be positive"),
    (["lattice-transmission", "--coupling", "0"], "coupling must be positive"),
    (["landauer", "--t0", "2"], "transmission must lie in [0, 1]"),
    (["landauer", "--t0", "-1"], "transmission must lie in [0, 1]"),
    # checked before the propagator rows of the lattice run are built
    (["lattice-run", "--sites", "120", "--Tl", "-1"], "temperature must be >= 0"),
    (["lattice-run", "--sites", "120", "--Tr", "-0.5"], "temperature must be >= 0"),
])
def test_out_of_domain_lattice_parameters_are_usage_errors(capsys, argv, message):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("argv, message", [
    # one flag of the pair would be dropped without a word
    (["intertwiner", "--alpha", "0.7", "--cos-sin=3/5,4/5", "--cutoff", "4"],
     "argument --cos-sin: not allowed with argument --alpha"),
    (["landauer", "--lam", "0.7", "--t0", "0.5"], "argument --t0: not allowed with argument --lam"),
])
def test_conflicting_flags_are_usage_errors(capsys, argv, message):
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
    (["current", "--alpha", "0.3", "--Tl", "1", "--Tr", "0.5"], {
        "inputs": {"theta_cos_sin": ["0.955336489125606", "0.295520206661340"],
                   "T_l": "1.0", "T_r": "0.5"},
        "symbolic_result": {"J_E": "0.0285208689829637*pi", "sigma": "0.0285208689829637*pi"},
        "numeric_result": {"J_E": 0.08960095247087582, "sigma": 0.08960095247087582},
        "passed": True,
    }),
    # a zero temperature has no entropy production
    (["current", "--cos-sin=3/5,4/5", "--Tl", "1", "--Tr", "0"], {
        "inputs": {"theta_cos_sin": ["3/5", "4/5"], "T_l": "1.0", "T_r": "0.0"},
        "symbolic_result": {"J_E": "0.015*pi", "sigma": "None"},
        "numeric_result": {"J_E": 0.047123889803846894, "sigma": None},
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
    (["continuity"], {"crossed_regime": True, "free_regime": True, "passed": True}),
]


@pytest.mark.parametrize("argv, expected", SYMBOLIC_REPORTS,
                         ids=[" ".join(argv) for argv, _ in SYMBOLIC_REPORTS])
def test_symbolic_reports_are_pinned(capsys, argv, expected):
    code, out = run(capsys, *argv)
    assert code == 0
    assert json.loads(out) == expected
    assert out == json.dumps(expected, indent=2) + "\n"  # key order and layout too


_ALPHA_03 = "(cos, sin) = (0.955336489125606, 0.29552020666133955)"
_ALPHA_07 = "(cos, sin) = (0.7648421872844885, 0.644217687237691)"
_SKEW_DIAGNOSTIC = ("defect map fails to intertwine the incoming and outgoing Virasoro actions: "
                    "Theta (Lbar^l_n + L^r_n) != (L^l_n + Lbar^r_n) Theta")
_OPE_DIAGNOSTIC = ("mode conjugation does not preserve the anticommutation relations "
                   "or the identity field")


def _virasoro_report(fermion_dimension, boson_dimension):
    """The passing virasoro-check report of both models, at the given space dimensions."""
    return {"models": {
        model: {"central_charge": c, "central_charge_expected": c,
                "commutator_max_deviation": "0", "level_spectrum_deviation": "0",
                "dimension": dim, "passed": True}
        for model, c, dim in (("fermion", "1/2", fermion_dimension), ("boson", "1", boson_dimension))}}


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
    (["ope-preservation", "--skew", "0.01"], 1, _failed_ope("4", "0.01", "0.018000000000000016")),
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
     _failed_ope("5", "0.01", "0.019553364891256142")),
    (["intertwiner", "--cutoff", "8", "--cos-sin=-3/5,4/5", "--skew", "0.01"], 1,
     _failed_intertwiner("8", "(cos, sin) = (-3/5, 4/5)",
                         ["0.035", "0.03", "0.005000000000000001", "0.03", "0.035"])),
    (["ope-preservation", "--cutoff", "6", "--cos-sin=-3/5,4/5", "--skew", "0.01"], 1,
     _failed_ope("6", "0.01", "0.018000000000000016")),
    # the skewed OPE control at the benchmark's other seven points
    (["ope-preservation", "--cutoff", "6", "--cos-sin=3/5,4/5", "--skew", "0.01"], 1,
     _failed_ope("6", "0.01", "0.018000000000000016")),
    (["ope-preservation", "--cutoff", "6", "--cos-sin=3/5,-4/5", "--skew", "0.01"], 1,
     _failed_ope("6", "0.01", "0.018000000000000016")),
    (["ope-preservation", "--cutoff", "6", "--cos-sin=-3/5,-4/5", "--skew", "0.01"], 1,
     _failed_ope("6", "0.01", "0.018000000000000016")),
    (["ope-preservation", "--cutoff", "6", "--cos-sin=4/5,3/5", "--skew", "0.01"], 1,
     _failed_ope("6", "0.01", "0.018000000000000016")),
    (["ope-preservation", "--cutoff", "6", "--cos-sin=4/5,-3/5", "--skew", "0.01"], 1,
     _failed_ope("6", "0.01", "0.018000000000000016")),
    (["ope-preservation", "--cutoff", "6", "--cos-sin=-4/5,3/5", "--skew", "0.01"], 1,
     _failed_ope("6", "0.01", "0.018000000000000016")),
    (["ope-preservation", "--cutoff", "6", "--cos-sin=-4/5,-3/5", "--skew", "0.01"], 1,
     _failed_ope("6", "0.01", "0.018000000000000016")),
    # the headline point labels the default report; a skewed map is labelled as such
    (["momentum-continuity"], 0, {
        "cutoff": "4",
        "theta": "(cos, sin) = (3/5, 4/5)",
        "passed": True,
    }),
    (["momentum-continuity", "--cos-sin=4/5,-3/5", "--skew", "0.01"], 1, {
        "cutoff": "4",
        "theta": "skewed",
        "passed": False,
        "diagnostic": "momentum density not continuous across the impurity: "
                      "Theta[Tbar^l + T^r] != T^l + Tbar^r on the vacuum",
    }),
    # the exact default reports: a refactor of the exact layer keeps them byte for byte
    (["virasoro-check"], 0, _virasoro_report(18, 30)),
    # the exact argv of the benchmark's exact workload, and the float grid control
    (["virasoro-check", "--cutoff", "12"], 0, _virasoro_report(92, 272)),
    (["intertwiner", "--cutoff", "8"], 0, {"cutoff": "8", "checks": [
        {"theta": f"(cos, sin) = ({c}, {s})", "n": n, "deviation": "0", "passed": True}
        for c, s in (("1", "0"), ("0", "1"), ("3/5", "4/5"), ("4/5", "3/5"), ("5/13", "12/13"),
                     ("12/13", "5/13"), ("8/17", "15/17"), ("20/29", "21/29"))
        for n in range(-2, 3)]}),
    (["intertwiner", "--cutoff", "8", "--alpha", "0.7"], 0, {"cutoff": "8", "checks": [
        {"theta": _ALPHA_07, "n": n, "deviation": dev, "passed": True}
        for n, dev in zip(range(-2, 3), ["4.440892098500626e-16"] * 2 + ["0"]
                          + ["4.440892098500626e-16"] * 2)]}),
    (["reflection-phases", "--ring", "z3"], 0, {
        "ring": "z3",
        "labels": ["1", "psi1", "psi2"],
        "solutions": [{"1": [0, 1], "psi1": [0, 1], "psi2": [0, 1]},
                      {"1": [0, 1], "psi1": [1, 3], "psi2": [2, 3]},
                      {"1": [0, 1], "psi1": [2, 3], "psi2": [1, 3]}],
        "count": 3,
        "passed": True,
    }),
    (["full-suite", "--quick"], 0, {
        "steps": {name: {"passed": True} for name in (
            "virasoro-check", "intertwiner", "momentum-continuity", "ope-preservation",
            "reflection-phases", "smatrix", "current", "entropy", "continuity",
            "su2k-decompose", "su2k-current", "su2k-fermionize", "landauer")},
        "passed": True,
    }),
]


@pytest.mark.parametrize("argv, verdict, expected", EXACT_REPORTS,
                         ids=[" ".join(argv) for argv, _, _ in EXACT_REPORTS])
def test_exact_reports_are_pinned(capsys, argv, verdict, expected):
    code, out = run(capsys, *argv)
    assert code == verdict
    assert json.loads(out) == expected
    assert out == json.dumps(expected, indent=2) + "\n"  # key order and layout too


_FERMIONIZED_K2 = {"k": 2, "chi1": "pure reflection, zero current", "agree": True, "passed": True}

# reports that carry floats: their keys in order, the verdict and diagnostic
# last, and every value that is exact
FLOAT_REPORTS = [
    (["landauer", "--t0", "1", "--Tl", "2", "--Tr", "0"], 1,
     ["J", "transmission_dc", "low_T_form", "passed", "diagnostic"],
     {"transmission_dc": 1.0, "passed": False,
      "diagnostic": "Landauer integral deviates from (pi T0 / 24)(T_l^2 - T_r^2) by more than 5%"}),
    (["landauer", "--lam", "0.7", "--Tl", "0.1", "--Tr", "0.05"], 0,
     ["J", "transmission_dc", "low_T_form", "passed"], {"passed": True}),
    (["su2k-fermionize", "--matrix-check"], 0,
     ["k", "s", "rr_bar", "cos_effective", "chi1", "J_fermionized", "J_algebraic", "agree",
      "intertwining_max_dev", "passed"],
     dict(_FERMIONIZED_K2, s="sqrt(2)/2", rr_bar="1/2", cos_effective="sqrt(2)/2",
          J_fermionized="pi*(T_l**2 - T_r**2)/48", J_algebraic="pi*(T_l**2 - T_r**2)/48")),
    # a rational effective rotation takes the exact Theta, which intertwines with no residue
    (["su2k-fermionize", "--matrix-check", "--rr-bar", "9/25"], 0,
     ["k", "s", "rr_bar", "cos_effective", "chi1", "J_fermionized", "J_algebraic", "agree",
      "intertwining_max_dev", "passed"],
     dict(_FERMIONIZED_K2, s="4/5", rr_bar="9/25", cos_effective="3/5", intertwining_max_dev=0.0,
          J_fermionized="3*pi*(T_l**2 - T_r**2)/200", J_algebraic="3*pi*(T_l**2 - T_r**2)/200")),
    # an irrational effective rotation takes a float Theta
    (["su2k-fermionize", "--matrix-check", "--rr-bar", "1/4"], 0,
     ["k", "s", "rr_bar", "cos_effective", "chi1", "J_fermionized", "J_algebraic", "agree",
      "intertwining_max_dev", "passed"],
     dict(_FERMIONIZED_K2, s="sqrt(3)/2", rr_bar="1/4", cos_effective="1/2",
          J_fermionized="pi*(T_l**2 - T_r**2)/96", J_algebraic="pi*(T_l**2 - T_r**2)/96")),
    (["lattice-run", "--sites", "120", "--samples", "30"], 0,
     ["spec", "plateau_mean", "plateau_stderr", "plateau_window", "landauer", "transmission_dc",
      "cft_prediction", "orth_drift", "ratios", "passed"],
     {"spec": {"sites": 120, "coupling": 1.0, "defect": 1.0, "T_l": 0.1, "T_r": 0.05},
      "plateau_window": [15.0, 27.0], "transmission_dc": 1.0, "passed": True}),
    (["lattice-transmission", "--omega-points", "3"], 0,
     ["defect", "transmission_dc", "grid", "passed"], {"defect": 0.5, "passed": True}),
]


@pytest.mark.parametrize("argv, verdict, keys, exact", FLOAT_REPORTS,
                         ids=[" ".join(argv) for argv, _, _, _ in FLOAT_REPORTS])
def test_float_report_closes_are_pinned(capsys, argv, verdict, keys, exact):
    code, out = run(capsys, *argv)
    assert code == verdict
    report = json.loads(out)
    assert list(report) == keys
    assert {key: report[key] for key in exact} == exact


def _subcommands():
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sorted(action.choices)


# the cheap arguments of the subcommands whose defaults are slow
_CHEAP_ARGS = {"full-suite": ["--quick"]}


@pytest.mark.parametrize("command", _subcommands())
def test_every_subcommand_closes_its_report(capsys, command):
    # walks the parser, so a subcommand added later is covered too
    code, out = run(capsys, command, *_CHEAP_ARGS.get(command, []))
    assert code in (0, 1)
    report = json.loads(out)
    if "passed" in report:
        assert isinstance(report["passed"], bool)
        assert code == (0 if report["passed"] else 1)
        assert ("diagnostic" in report) == (not report["passed"])


def _failing_smatrix_step(monkeypatch):
    monkeypatch.setattr(cli, "cmd_smatrix", lambda args: cli._verdict({}, False, "forced failure"))


def _transmission_above_one(monkeypatch):
    monkeypatch.setattr(lattice, "transmission", lambda *args: 1.5)


def _full_transmission_current(monkeypatch):
    energy_current = ness.energy_current
    monkeypatch.setattr(ness, "energy_current",
                        lambda theta, weights=None: energy_current((1, 0), weights))


@pytest.mark.parametrize("argv, breaks, keys, diagnostic", [
    (["full-suite", "--quick"], _failing_smatrix_step, ["steps", "passed", "diagnostic"],
     "failed steps: smatrix"),
    (["lattice-transmission", "--omega-points", "3"], _transmission_above_one,
     ["defect", "transmission_dc", "grid", "passed", "diagnostic"], "transmission outside [0, 1]"),
    (["current", "--cos-sin=3/5,4/5"], _full_transmission_current,
     ["inputs", "symbolic_result", "numeric_result", "passed", "diagnostic"],
     "current does not match (pi/24) cos(alpha)^2 (T_l^2 - T_r^2)"),
], ids=["full-suite failed step", "lattice-transmission above one", "current at the wrong transmission"])
def test_failing_closes_carry_a_diagnostic(capsys, monkeypatch, argv, breaks, keys, diagnostic):
    # the failing paths that test_every_subcommand_closes_its_report cannot reach
    breaks(monkeypatch)
    code, out = run(capsys, *argv)
    assert code == 1
    report = json.loads(out)
    assert list(report) == keys
    assert (report["passed"], report["diagnostic"]) == (False, diagnostic)


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
    (dict(_ISING, labels=["1", "psi", "psi"]), "labels must be distinct"),
    (dict(_ISING, conjugation={"1": "1", "psi": "psi", "sigma": "sigma"}),
     "conjugation names unknown labels ['sigma']"),
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


def test_full_suite_steps_run_exactly_their_argv(capsys, monkeypatch):
    # each step's handler gets the namespace its argv parses to, with nothing set on it after
    received, parsed = [], []

    def record(args):
        received.append(vars(args))
        return {}, True

    for name in [n for n in vars(cli) if n.startswith("cmd_") and n != "cmd_full_suite"]:
        monkeypatch.setattr(cli, name, record)
    build = cli.build_parser

    def recording_parser():
        parser = build()
        parse = parser.parse_args

        def parse_args(argv):
            parsed.append(list(argv))
            return parse(argv)

        parser.parse_args = parse_args
        return parser

    monkeypatch.setattr(cli, "build_parser", recording_parser)
    assert cli.main(["full-suite"]) == 0
    capsys.readouterr()
    steps = parsed[1:]  # the first parse is the full-suite command line itself
    assert [step[0] for step in steps] == [ns["command"] for ns in received]
    assert "current" in [step[0] for step in steps]
    for step, ns in zip(steps, received):
        assert ns == vars(build().parse_args(step)), step


def test_full_suite_quick(capsys):
    code, out = run(capsys, "full-suite", "--quick")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] and len(report["steps"]) == 13


_SMATRIX_REPORT = next(expected for argv, expected in SYMBOLIC_REPORTS if argv == ["smatrix"])


def test_only_a_written_report_formats_its_field_expressions(capsys, monkeypatch):
    # FieldExpression.__str__ runs trigsimp; a passing full-suite step's report
    # is dropped unwritten, so the suite runs none
    calls = []
    trigsimp = sp.trigsimp
    monkeypatch.setattr(sp, "trigsimp", lambda expr, **kw: calls.append(expr) or trigsimp(expr, **kw))
    code, _ = run(capsys, "full-suite", "--quick")
    assert (code, calls) == (0, [])
    # smatrix itself writes its report, through trigsimp
    code, out = run(capsys, "smatrix")
    assert code == 0 and calls
    assert json.loads(out) == _SMATRIX_REPORT


def _stress_weights_doubled(monkeypatch):
    stress_coefficients = ness.stress_coefficients
    monkeypatch.setattr(ness, "stress_coefficients",
                        lambda expr: {key: 2 * c for key, c in stress_coefficients(expr).items()})


def test_failed_smatrix_step_prints_its_field_expressions(capsys, monkeypatch):
    # the smatrix handler runs for real, so its FieldExpressions reach the writer
    _stress_weights_doubled(monkeypatch)
    code, out = run(capsys, "full-suite", "--quick")
    assert code == 1
    detail = json.loads(out)["steps"]["smatrix"]["detail"]
    assert detail == dict(_SMATRIX_REPORT, stress_weight_sum="2", passed=False,
                          diagnostic="transmitted plus reflected stress weight differs from one")
    code, out = run(capsys, "--format", "csv", "full-suite", "--quick")
    assert code == 1
    rows = out.splitlines()
    for key in ("S[psi_r(x)]", "S[T_r(x)]"):
        assert f"steps.smatrix.detail.{key},{_SMATRIX_REPORT[key]}" in rows
    assert "steps.smatrix.detail.stress_weight_sum,2" in rows


def test_su2k_decompose_rotates_the_stress_tensor_once(capsys):
    # the coefficients, their unit sum and the current all start from one rotation
    su2k.rotate_u1_stress.cache_clear()
    code, _ = run(capsys, "su2k-decompose")
    assert code == 0
    assert su2k.rotate_u1_stress.cache_info().misses == 1


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
