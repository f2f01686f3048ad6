"""Command line front end: one subcommand per check or computation.

Exit codes: 0 all checks passed, 1 a verification failed (deviation above
tolerance) or the numerics broke down, 2 usage or configuration error.
Reports are JSON documents on stdout (or --out); --format csv emits
key,value rows, and lattice-run emits the t,current series.  A JSON config
file may supply defaults; flags override it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np
import sympy as sp

from . import defect, lattice, ness, su2k, virasoro

PASS, FAIL, USAGE = 0, 1, 2


def _finite_float(text):
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_cos_sin(text):
    try:
        c, s = text.split(",")
        return defect.BogoliubovSpec(Fraction(c), Fraction(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"expected 'cos,sin' fractions, got {text!r}") from exc


def _theta_from_args(args):
    if getattr(args, "cos_sin", None) is not None:
        return args.cos_sin
    if getattr(args, "alpha", None) is not None:
        return defect.BogoliubovSpec.from_angle(args.alpha)
    return None  # symbolic angle


def _alpha_grid(n=8):
    """Rational points on the circle, so the headline checks stay exact."""
    triples = [(1, 0, 1), (0, 1, 1), (3, 4, 5), (4, 3, 5),
               (5, 12, 13), (12, 5, 13), (8, 15, 17), (20, 21, 29)]
    return [defect.BogoliubovSpec(Fraction(a, c), Fraction(b, c)) for a, b, c in triples[:n]]


def _theta_label(spec):
    return f"(cos, sin) = ({spec.cos_a}, {spec.sin_a})"


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (report dict, passed bool)

def cmd_virasoro_check(args):
    report = {"models": {}}
    passed = True
    wanted = {"fermion": Fraction(1, 2), "boson": Fraction(1)}
    models = list(wanted) if args.model == "both" else [args.model]
    for model in models:
        expected = wanted[model]
        space = virasoro.enumerate_basis(model, args.cutoff)
        c = virasoro.central_charge_probe(model, 2, args.cutoff)
        worst = 0
        for m in range(-args.commutator_range, args.commutator_range + 1):
            for n in range(-args.commutator_range, args.commutator_range + 1):
                dev = virasoro.commutator_deviation(model, m, n, space, central=c)
                worst = max(worst, dev)
        l0_dev = virasoro.level_spectrum_deviation(model, space)
        ok = (c == expected and worst == 0 and l0_dev == 0)
        passed = passed and ok
        report["models"][model] = {
            "central_charge": str(c),
            "central_charge_expected": str(expected),
            "commutator_max_deviation": str(worst),
            "level_spectrum_deviation": str(l0_dev),
            "dimension": space.dimension,
            "passed": ok,
        }
    if not passed:
        report["diagnostic"] = ("Virasoro commutator law or central charge failed: "
                                "[L_m, L_n] = (m-n) L_{m+n} + (c/12)(m^3-m) delta")
    return report, passed


def _build_theta(args, cutoff):
    spec = _theta_from_args(args)
    if spec is None:
        # a generic rational point; the axis points satisfy several checks
        # trivially and would not exercise them
        spec = defect.BogoliubovSpec(Fraction(3, 5), Fraction(4, 5))
    real = defect.build_theta_fermion(spec, cutoff)
    if getattr(args, "skew", 0.0):
        real = _skewed(real, args.skew)
    return real


def _skewed(real, eps):
    """Deliberately broken copy: adds eps off-diagonal entries across the low levels."""
    theta = real.theta * 1
    space = real.space
    for i in range(min(space.dimension - 1, 12)):
        theta.add_entry(i + 1, i, eps)
    return defect.DefectRealization(space, theta, None)


def cmd_intertwiner(args):
    report = {"cutoff": str(args.cutoff), "checks": []}
    passed = True
    specs = [_theta_from_args(args)] if (args.alpha is not None or args.cos_sin) else _alpha_grid()
    for spec in specs:
        real = defect.build_theta_fermion(spec, args.cutoff)
        if args.skew:
            real = _skewed(real, args.skew)
        tol = real.tolerance
        for n in range(-args.n_range, args.n_range + 1):
            dev = defect.check_intertwining(real, n)
            ok = abs(float(dev)) <= float(tol)
            passed = passed and ok
            report["checks"].append({"theta": _theta_label(spec), "n": n,
                                     "deviation": str(dev), "passed": ok})
    if not passed:
        report["diagnostic"] = ("defect map fails to intertwine the incoming and outgoing "
                                "Virasoro actions: Theta (Lbar^l_n + L^r_n) != (L^l_n + Lbar^r_n) Theta")
    return report, passed


def cmd_momentum_continuity(args):
    real = _build_theta(args, args.cutoff)
    ok = defect.check_momentum_continuity(real)
    report = {"cutoff": str(args.cutoff), "theta": _theta_label(real.source) if real.source else "skewed",
              "passed": bool(ok)}
    if not ok:
        report["diagnostic"] = ("momentum density not continuous across the impurity: "
                                "Theta[Tbar^l + T^r] != T^l + Tbar^r on the vacuum")
    return report, bool(ok)


def cmd_ope_preservation(args):
    real = _build_theta(args, args.cutoff)
    vac = defect.vacuum_preservation_deviation(real)
    try:
        dev = defect.check_ope_preservation(real)
    except ValueError as exc:
        return {"error": str(exc), "vacuum_deviation": str(vac), "passed": False}, False
    tol = real.tolerance
    ok = abs(float(dev)) <= float(tol) and abs(float(vac)) <= float(tol)
    report = {"cutoff": str(args.cutoff),
              "vacuum_deviation": str(vac),
              "anticommutator_deviation": str(dev),
              "passed": ok}
    if not ok:
        report["diagnostic"] = ("mode conjugation does not preserve the anticommutation "
                                "relations or the identity field")
    return report, ok


def cmd_reflection_phases(args):
    if args.ring in defect.BUILTIN_RINGS:
        ring = defect.BUILTIN_RINGS[args.ring]()
    else:
        with open(args.ring) as fh:
            ring = defect.FusionRing.from_json(fh.read())
    sols = defect.solve_reflection_phases(ring, max_order=args.max_order)
    report = {
        "ring": args.ring,
        "labels": list(ring.labels),
        "solutions": [{lbl: [ph.numerator, ph.denominator] for lbl, ph in s.zetas.items()}
                      for s in sols],
        "count": len(sols),
    }
    passed = len(sols) > 0
    if not passed:
        report["diagnostic"] = "no consistent reflection phases within the root-of-unity bound"
    report["passed"] = passed
    return report, passed


def cmd_smatrix(args):
    theta = _theta_from_args(args)
    f = ness.FieldExpression.from_field(ness.fermion("r", ness.X))
    t = ness.FieldExpression.from_field(ness.stress("r", ness.X))
    report = {
        "S[psi_r(x)]": str(ness.apply_smatrix(f, theta)),
        "S[T_r(x)]": str(ness.apply_smatrix(t, theta)),
    }
    coeffs = ness.stress_coefficients(ness.apply_smatrix(t, theta))
    total = sp.simplify(sum(coeffs.values()))
    report["stress_weight_sum"] = str(total)
    ok = sp.simplify(total - 1) == 0
    report["passed"] = bool(ok)
    if not ok:
        report["diagnostic"] = "transmitted plus reflected stress weight differs from one"
    return report, bool(ok)


def cmd_current(args):
    theta = _theta_from_args(args)
    w = ness.GibbsWeights(args.tl, args.tr)
    report = ness.current_report(theta, weights=w)
    report["passed"] = True
    return report, True


def cmd_entropy(args):
    if args.tl <= 0 or args.tr <= 0:
        raise ValueError("entropy production needs strictly positive temperatures")
    theta = _theta_from_args(args)
    w = ness.GibbsWeights(args.tl, args.tr)
    j = ness.energy_current(theta, weights=w)
    sigma = ness.entropy_production(j, w)
    val = float(sigma) if not sigma.free_symbols else None
    ok = val is None or val >= -1e-15
    report = {"J_E": str(j), "sigma": str(sigma), "sigma_numeric": val, "passed": ok}
    if not ok:
        report["diagnostic"] = "entropy production came out negative"
    return report, ok


def cmd_continuity(args):
    theta = _theta_from_args(args)
    ok_after = ness.check_global_continuity(theta, regime=ness.AFTER)
    ok_before = ness.check_global_continuity(theta, regime=ness.BEFORE)
    ok = ok_after and ok_before
    report = {"crossed_regime": ok_after, "free_regime": ok_before, "passed": ok}
    if not ok:
        report["diagnostic"] = ("global continuity T(x,t) + Tbar(-x,t) = T(x-t) + Tbar(-x+t) "
                                "failed to cancel symbolically")
    return report, ok


def _params_from_args(args):
    if args.rr_bar is not None:
        return su2k.RotationParams.from_rr_bar(args.k, args.rr_bar)
    return su2k.RotationParams.symbolic(args.k)


def cmd_su2k_decompose(args):
    p = _params_from_args(args)
    report = su2k.decomposition_report(p)
    dev = su2k.unit_sum_deviation(p)
    report["unit_sum_deviation"] = str(dev)
    ok = dev == 0
    report["passed"] = bool(ok)
    if not ok:
        report["diagnostic"] = "c-weighted decomposition coefficients do not sum to the left central charge"
    return report, bool(ok)


def cmd_su2k_current(args):
    p = _params_from_args(args)
    w = ness.GibbsWeights(args.tl, args.tr)
    j = su2k.energy_current_k(p, w)
    ref = su2k.closed_form_current(p, w)
    ok = sp.simplify(j - ref) == 0
    report = {"k": str(p.k), "rr_bar": str(p.rr_bar), "J_E": str(j),
              "closed_form": str(ref), "passed": bool(ok)}
    if not j.free_symbols:
        report["J_E_numeric"] = float(j)
    if not ok:
        report["diagnostic"] = "current does not match (pi/12)((k-1)/k)(r rbar)(T_l^2 - T_r^2)"
    return report, bool(ok)


def cmd_su2k_fermionize(args):
    p = su2k.RotationParams.from_rr_bar(2, args.rr_bar)
    report = su2k.fermionize_k2(p, matrix_cutoff=Fraction(5, 2) if args.matrix_check else None)
    ok = report["agree"]
    if args.matrix_check:
        ok = ok and report["intertwining_max_dev"] <= 1e-12
    report["passed"] = bool(ok)
    if not ok:
        report["diagnostic"] = "fermionized current disagrees with the algebraic route"
    return report, bool(ok)


def cmd_lattice_run(args):
    spec = lattice.ChainSpec(sites=args.sites, coupling=args.coupling, defect=args.lam)
    series = lattice.steady_current(spec, args.tl, args.tr, samples=args.samples)
    summary = lattice.transport_summary(spec, args.tl, args.tr, series)
    if summary["landauer"]:
        ok = abs(summary["ratios"]["plateau_over_landauer"] - 1) <= 0.03
        diagnostic = "plateau current deviates from the Landauer integral by more than 3%"
    else:  # equal temperatures or a cut chain: nothing may flow
        ok = abs(summary["plateau_mean"]) <= 1e-10
        diagnostic = "plateau current exceeds 1e-10 where the Landauer integral vanishes"
    summary["passed"] = bool(ok)
    if not ok:
        summary["diagnostic"] = diagnostic
    if args.series_out:
        series.to_csv(args.series_out)
        summary["series_csv"] = args.series_out
    return summary, bool(ok)


def cmd_lattice_transmission(args):
    lam = args.lam
    grid = np.linspace(args.omega_min, args.omega_max, args.omega_points)
    rows = [(float(w), lattice.transmission(lam, float(w), args.coupling)) for w in grid]
    report = {"defect": lam, "transmission_dc": lattice.transmission_dc(lam, args.coupling),
              "grid": [{"omega": w, "T": t} for w, t in rows],
              "passed": all(0 <= t <= 1 for _, t in rows)}
    return report, report["passed"]


def cmd_landauer(args):
    if args.lam is not None:
        fn = lambda w: lattice.transmission(args.lam, w, args.coupling)
        t0 = lattice.transmission_dc(args.lam, args.coupling)
    else:
        t0 = args.t0
        fn = lambda w: t0
    j = lattice.landauer_current(fn, args.tl, args.tr, args.coupling)
    cft = math.pi * t0 / 24 * (args.tl ** 2 - args.tr ** 2)
    ok = cft == 0 or abs(j / cft - 1) <= 0.05
    report = {"J": j, "transmission_dc": t0, "low_T_form": cft, "passed": bool(ok)}
    if not ok:
        report["diagnostic"] = "Landauer integral deviates from (pi T0 / 24)(T_l^2 - T_r^2) by more than 5%"
    return report, bool(ok)


def cmd_full_suite(args):
    steps = [
        ("virasoro-check", ["virasoro-check"]),
        ("intertwiner", ["intertwiner"]),
        ("momentum-continuity", ["momentum-continuity", "--cos-sin", "3/5,4/5"]),
        ("ope-preservation", ["ope-preservation", "--cos-sin", "3/5,4/5"]),
        ("reflection-phases", ["reflection-phases"]),
        ("smatrix", ["smatrix"]),
        ("current", ["current"]),
        ("entropy", ["entropy"]),
        ("continuity", ["continuity"]),
        ("su2k-decompose", ["su2k-decompose"]),
        ("su2k-current", ["su2k-current"]),
        ("su2k-fermionize", ["su2k-fermionize"]),
        ("landauer", ["landauer", "--lam", "0.7", "--Tr", "0.05"]),
    ]
    if not args.quick:
        steps.append(("lattice-run", ["lattice-run", "--samples", "50"]))
    parser = build_parser()
    report = {"steps": {}}
    passed = True
    for name, argv in steps:
        ns = parser.parse_args(argv)
        if name == "current":
            # symbolic temperatures, which no flag can express
            ns.tl, ns.tr = ness.T_LEFT, ness.T_RIGHT
        sub_report, ok = ns.fn(ns)
        report["steps"][name] = {"passed": ok}
        if not ok:
            report["steps"][name]["detail"] = sub_report
        passed = passed and ok
    report["passed"] = passed
    return report, passed


# ---------------------------------------------------------------------------

def _add_theta_args(p):
    p.add_argument("--alpha", type=_finite_float, default=None, help="rotation angle in radians")
    p.add_argument("--cos-sin", dest="cos_sin", type=_parse_cos_sin, default=None,
                   help="exact rational point on the circle, e.g. 3/5,4/5")


def _add_temps(p, default_tl=None, default_tr=None, kind=_finite_float):
    p.add_argument("--Tl", dest="tl", type=kind, default=default_tl)
    p.add_argument("--Tr", dest="tr", type=kind, default=default_tr)


def build_parser():
    parser = argparse.ArgumentParser(prog="neqcft", description=__doc__)
    parser.add_argument("--config", default=None, help="JSON file with default parameters")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("virasoro-check", help="central charges and commutator law")
    p.add_argument("--model", choices=("fermion", "boson", "both"), default="both")
    p.add_argument("--cutoff", type=Fraction, default=Fraction(6))
    p.add_argument("--commutator-range", type=int, default=2)
    p.set_defaults(fn=cmd_virasoro_check)

    p = sub.add_parser("intertwiner", help="Virasoro intertwining of the defect map")
    p.add_argument("--cutoff", type=Fraction, default=Fraction(5))
    p.add_argument("--n-range", type=int, default=2)
    p.add_argument("--skew", type=_finite_float, default=0.0, help="negative control perturbation")
    _add_theta_args(p)
    p.set_defaults(fn=cmd_intertwiner)

    p = sub.add_parser("momentum-continuity", help="stress continuity on the vacuum")
    p.add_argument("--cutoff", type=Fraction, default=Fraction(4))
    p.add_argument("--skew", type=_finite_float, default=0.0)
    _add_theta_args(p)
    p.set_defaults(fn=cmd_momentum_continuity)

    p = sub.add_parser("ope-preservation", help="anticommutator preservation under conjugation")
    p.add_argument("--cutoff", type=Fraction, default=Fraction(4))
    p.add_argument("--skew", type=_finite_float, default=0.0)
    _add_theta_args(p)
    p.set_defaults(fn=cmd_ope_preservation)

    p = sub.add_parser("reflection-phases", help="solve the fusion constraints on reflection phases")
    p.add_argument("--ring", default="ising",
                   help="builtin name (ising, z3, trivial) or path to a JSON ring")
    p.add_argument("--max-order", type=int, default=24)
    p.set_defaults(fn=cmd_reflection_phases)

    p = sub.add_parser("smatrix", help="scattering map on fields and stress weights")
    _add_theta_args(p)
    p.set_defaults(fn=cmd_smatrix)

    p = sub.add_parser("current", help="steady energy current")
    _add_theta_args(p)
    _add_temps(p, 1.0, 0.0)
    p.set_defaults(fn=cmd_current)

    p = sub.add_parser("entropy", help="entropy production")
    _add_theta_args(p)
    _add_temps(p, 2.0, 1.0)
    p.set_defaults(fn=cmd_entropy)

    p = sub.add_parser("continuity", help="global stress continuity identity")
    _add_theta_args(p)
    p.set_defaults(fn=cmd_continuity)

    p = sub.add_parser("su2k-decompose", help="rotation coefficients of the u(1) stress tensor")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--rr-bar", dest="rr_bar", type=Fraction, default=None)
    p.set_defaults(fn=cmd_su2k_decompose)

    p = sub.add_parser("su2k-current", help="level-k energy current")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--rr-bar", dest="rr_bar", type=Fraction, default=None)
    # exact, so the symbolic verdict sees no rounding residue
    _add_temps(p, ness.T_LEFT, ness.T_RIGHT, kind=Fraction)
    p.set_defaults(fn=cmd_su2k_current)

    p = sub.add_parser("su2k-fermionize", help="k=2 fermionization cross-check")
    p.add_argument("--rr-bar", dest="rr_bar", type=Fraction, default=Fraction(1, 2))
    p.add_argument("--matrix-check", action="store_true")
    p.set_defaults(fn=cmd_su2k_fermionize)

    p = sub.add_parser("lattice-run", help="partitioning protocol on the defect chain")
    p.add_argument("--sites", type=int, default=400)
    p.add_argument("--coupling", type=_finite_float, default=1.0)
    p.add_argument("--lam", type=_finite_float, default=1.0)
    p.add_argument("--samples", type=int, default=60)
    p.add_argument("--series-out", default=None, help="write the t,current series as CSV")
    _add_temps(p, 0.1, 0.05)
    p.set_defaults(fn=cmd_lattice_run)

    p = sub.add_parser("lattice-transmission", help="transmission through the defect bond")
    p.add_argument("--lam", type=_finite_float, default=0.5)
    p.add_argument("--coupling", type=_finite_float, default=1.0)
    p.add_argument("--omega-min", type=_finite_float, default=1e-3)
    p.add_argument("--omega-max", type=_finite_float, default=1.9)
    p.add_argument("--omega-points", type=int, default=20)
    p.set_defaults(fn=cmd_lattice_transmission)

    p = sub.add_parser("landauer", help="Landauer integral against the low-T closed form")
    p.add_argument("--lam", type=_finite_float, default=None)
    p.add_argument("--t0", type=_finite_float, default=1.0, help="constant transmission when --lam is absent")
    p.add_argument("--coupling", type=_finite_float, default=1.0)
    _add_temps(p, 0.1, 0.0)
    p.set_defaults(fn=cmd_landauer)

    p = sub.add_parser("full-suite", help="run every check with headline parameters")
    p.add_argument("--quick", action="store_true", help="skip the lattice protocol run")
    p.set_defaults(fn=cmd_full_suite)
    return parser


def _emit(report, args):
    if args.format == "json":
        text = json.dumps(report, indent=2, default=str)
    else:
        lines = ["key,value"]

        def walk(prefix, obj):
            items = obj.items() if isinstance(obj, dict) else enumerate(obj)
            for key, val in items:
                if isinstance(val, (dict, list)):
                    walk(f"{prefix}{key}.", val)
                else:
                    lines.append(f"{prefix}{key},{val}")

        walk("", report)
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text)


def _apply_config(parser, args):
    """Make the config file's values the defaults of the chosen subcommand.

    Defaults set on the top-level parser never reach the subcommand options.
    Argparse runs an option's ``type`` only on string defaults, so typed
    values go in as strings and are parsed exactly as flags are.  A null
    value leaves the option's own default in place.
    """
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    sub = action.choices[args.command]
    typed = {a.dest for a in sub._actions if a.type is not None}
    with open(args.config) as fh:
        config = dict(json.load(fh))
    sub.set_defaults(**{k: str(v) if k in typed else v
                        for k, v in config.items() if v is not None})


def _silence_stdout():
    """Point stdout at the null device after the reader closed it early.

    The interpreter flushes stdout again at exit; without this that flush
    raises BrokenPipeError a second time and prints a traceback.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # no file descriptor behind stdout, so nothing is left to flush
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            _apply_config(parser, args)
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else 0
    except (OSError, TypeError, ValueError) as exc:
        print(f"bad config: {exc}", file=sys.stderr)
        return USAGE
    try:
        report, passed = args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except RuntimeError as exc:  # a numerical breakdown is a failed verification
        print(f"error: {exc}", file=sys.stderr)
        return FAIL
    try:
        _emit(report, args)
    except BrokenPipeError:
        _silence_stdout()
    return PASS if passed else FAIL


if __name__ == "__main__":
    sys.exit(main())
