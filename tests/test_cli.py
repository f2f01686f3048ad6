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
from fractions import Fraction

import pytest
import sympy as sp

from neqcft import cli, defect, fock, lattice, ness, su2k, virasoro
from oracles import recorded_reports, subcommands


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def cli_patch():
    """A monkeypatch for ``cli``'s handlers and ``build_parser``: patch before the first ``main``.

    The parser that every parse shares is built once per process and holds
    the handlers, so it is built afresh around the patches and again once
    they are undone.
    """
    with pytest.MonkeyPatch.context() as patch:
        cli._parser.cache_clear()
        yield patch
    cli._parser.cache_clear()


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


@pytest.mark.parametrize("config, argv, message", [
    ({"cutoff": "x"}, ["virasoro-check"], "'cutoff' expected an exact fraction, got 'x'"),
    ({"alpha": "nan"}, ["current"], "'alpha' expected a finite number, got 'nan'"),
    ({"sites": 1.5}, ["lattice-run"], "'sites' invalid int value: '1.5'"),
])
def test_config_value_that_its_type_refuses_is_usage_error(capsys, tmp_path, config, argv, message):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(["--config", str(cfg), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"bad config: {message}\n"


@pytest.mark.parametrize("config, argv", [
    ({"cutoff": "x"}, ["virasoro-check", "--cutoff", "3"]),
    ({"alpha": "nan"}, ["current", "--alpha", "0.5"]),
    # a flag of the partner drops the refused value as well
    ({"alpha": "nan"}, ["current", "--cos-sin", "3/5,4/5"]),
])
def test_refused_config_value_that_a_flag_overrides_is_no_error(capsys, tmp_path, config, argv):
    # a typed value is parsed only where it is used
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert run(capsys, "--config", str(cfg), *argv) == run(capsys, *argv)


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


@pytest.mark.parametrize("flag, value", [("--Tl", "0"), ("--Tr", "0"), ("--Tl", "-1"), ("--Tr", "-0.5")])
def test_entropy_at_a_nonpositive_temperature_is_a_usage_error(capsys, flag, value):
    assert cli.main(["entropy", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.rstrip("\n").endswith("error: entropy production needs strictly positive temperatures")


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


def test_matrix_check_demands_zero_of_an_exact_theta(capsys, monkeypatch):
    # judged as intertwiner judges: an exact Theta to zero, a float one to FLOAT_TOL
    monkeypatch.setattr(defect, "check_intertwining",
                        lambda real, n: Fraction(1, 10 ** 15) if real.theta.exact else 1e-15)
    code, out = run(capsys, "su2k-fermionize", "--matrix-check", "--rr-bar", "9/25")
    assert code == 1 and json.loads(out)["intertwining_max_dev"] == 1e-15
    code, out = run(capsys, "su2k-fermionize", "--matrix-check", "--rr-bar", "1/4")
    assert code == 0 and json.loads(out)["intertwining_max_dev"] == 1e-15


_DISAGREES = "fermionized current disagrees with the algebraic route"
_NO_INTERTWINING = "effective rotation fails to intertwine the Virasoro actions"


@pytest.mark.parametrize("break_intertwining, break_agreement, argv, diagnostic", [
    (True, False, ["--matrix-check"], _NO_INTERTWINING),
    (False, True, [], _DISAGREES),
    (False, True, ["--matrix-check"], _DISAGREES),
    (True, True, ["--matrix-check"], f"{_DISAGREES}; {_NO_INTERTWINING}"),
])
def test_su2k_fermionize_diagnostic_names_each_failed_check(capsys, monkeypatch, break_intertwining,
                                                           break_agreement, argv, diagnostic):
    if break_intertwining:
        monkeypatch.setattr(defect, "check_intertwining", lambda real, n: Fraction(1, 10 ** 15))
    if break_agreement:
        fermionize_k2 = su2k.fermionize_k2
        monkeypatch.setattr(su2k, "fermionize_k2",
                            lambda p: (lambda eff, j, ref: (eff, j, ref + 1))(*fermionize_k2(p)))
    code, out = run(capsys, "su2k-fermionize", "--rr-bar", "9/25", *argv)
    report = json.loads(out)
    assert (code, report["agree"], report["passed"]) == (1, not break_agreement, False)
    assert report["diagnostic"] == diagnostic


# the cheap arguments of the subcommands whose defaults are slow
_CHEAP_ARGS = {"full-suite": ["--quick"]}


@pytest.mark.parametrize("command", subcommands())
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
def test_failing_closes_carry_a_diagnostic(capsys, cli_patch, argv, breaks, keys, diagnostic):
    # the failing paths that test_every_subcommand_closes_its_report cannot reach
    breaks(cli_patch)
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


def _counting_builds(cli_patch):
    """The list that gains an entry each time ``cli.build_parser`` runs."""
    built = []
    build = cli.build_parser
    cli_patch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    return built


def test_full_suite_steps_run_exactly_their_argv(capsys, cli_patch):
    # each step's handler gets the namespace its argv parses to, with nothing set on it after
    received, parsed = [], []

    def record(args):
        received.append(vars(args))
        return {}, True

    for name in [n for n in vars(cli) if n.startswith("cmd_") and n != "cmd_full_suite"]:
        cli_patch.setattr(cli, name, record)
    parse = cli._parse
    cli_patch.setattr(cli, "_parse", lambda argv: parsed.append(list(argv)) or parse(argv))
    assert cli.main(["full-suite"]) == 0
    capsys.readouterr()
    assert parsed[0] == ["full-suite"]
    steps = parsed[1:]  # the first parse is the full-suite command line itself
    assert [step[0] for step in steps] == [ns["command"] for ns in received]
    assert "current" in [step[0] for step in steps]
    for step, ns in zip(steps, received):
        assert "parser" not in ns
        assert ns == vars(parse(step)), step


def test_full_suite_parses_its_steps_with_the_parser_main_built(capsys, cli_patch):
    # one parser per process: the steps and later command lines reuse the one the first main built
    for name in [n for n in vars(cli) if n.startswith("cmd_") and n != "cmd_full_suite"]:
        cli_patch.setattr(cli, name, lambda args: ({}, True))
    built = _counting_builds(cli_patch)
    for argv in (["full-suite", "--quick"], ["full-suite"], ["smatrix"], ["--help"]):
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(built) == 1


def test_config_files_leak_nothing_into_later_command_lines(capsys, cli_patch, tmp_path):
    # one parser serves the process, so a config layer must not outlive its command line
    built = _counting_builds(cli_patch)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    first.write_text(json.dumps({"model": "fermion", "cutoff": 4}))
    second.write_text(json.dumps({"commutator_range": 1}))
    for argv in (["--config", str(first), "virasoro-check"],
                 ["--config", str(second), "virasoro-check", "--cutoff", "3"],
                 ["virasoro-check", "--cutoff", "3"]):
        code = cli.main(argv)
        captured = capsys.readouterr()
        fresh = _fresh_python("import sys; from neqcft import cli; sys.exit(cli.main())", *argv)
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert len(built) == 1


_FULL_SUITE_QUICK = next(line[1:4] for line in recorded_reports() if line[0] == ["full-suite", "--quick"])


def test_full_suite_after_a_config_line_prints_its_record(capsys, cli_patch, tmp_path):
    # zero temperatures make entropy a usage error; they must not reach the suite's entropy step
    built = _counting_builds(cli_patch)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"tl": 0.0, "tr": 0.0, "quick": False}))
    assert cli.main(["--config", str(cfg), "entropy"]) == 2
    capsys.readouterr()
    code = cli.main(["full-suite", "--quick"])
    captured = capsys.readouterr()
    assert [code, captured.out, captured.err] == _FULL_SUITE_QUICK
    assert len(built) == 1


def test_full_suite_quick(capsys):
    code, out = run(capsys, "full-suite", "--quick")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] and len(report["steps"]) == 13


_SMATRIX_REPORT = json.loads(next(out for argv, _, out, *_ in recorded_reports() if argv == ["smatrix"]))


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
    su2k.decomposition_coefficients.cache_clear()
    code, _ = run(capsys, "su2k-decompose")
    assert code == 0
    assert su2k.decomposition_coefficients.cache_info().misses == 1


def _fresh_python(code, *args):
    """The finished run of ``code``, with ``args`` as its argv, by a new interpreter.

    The interpreter imports neqcft from this checkout; a nonzero exit raises.
    """
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True)


def test_cli_import_loads_no_scipy():
    # scipy is a test oracle only; importing it would cost every command ~0.5 s
    code = ("import sys, neqcft.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    assert _fresh_python(code).stdout.strip() == "[]"


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
    assert _fresh_python(code).stdout.strip() == "[]"


def test_import_runs_no_full_collection_and_freezes_its_heap():
    # the numpy and sympy heap left by the import moves to the permanent
    # generation, so no collection of the command or of the exit walks it
    code = ("import gc\n"
            "full = gc.get_stats()[2]['collections']\n"
            "import neqcft.cli\n"
            "print(gc.isenabled(), gc.get_freeze_count() > 0,"
            " gc.get_stats()[2]['collections'] - full)\n")
    assert _fresh_python(code).stdout.split() == ["True", "True", "0"]


def test_import_keeps_a_disabled_gc_disabled():
    code = "import gc\ngc.disable()\nimport neqcft.cli\nprint(gc.isenabled())\n"
    assert _fresh_python(code).stdout.strip() == "False"


def test_failed_import_leaves_gc_enabled():
    code = ("import gc, sys\n"
            "sys.modules['sympy'] = None\n"
            "try:\n"
            "    import neqcft\n"
            "except ImportError:\n"
            "    print(gc.isenabled())\n")
    assert _fresh_python(code).stdout.strip() == "True"
