"""Command line front end: one subcommand per check or computation.

Exit codes: 0 all checks passed, 1 a verification failed (deviation above
tolerance) or the numerics broke down, 2 usage or configuration error.
Reports are JSON documents on stdout (or --out); --format csv emits
key,value rows, and lattice-run emits the t,current series.  A JSON config
file may supply defaults; flags override it.
"""

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import defect, fock, lattice, ness, su2k, virasoro

PASS, FAIL, USAGE = 0, 1, 2


def _checked(parse, ok, want):
    """Argparse type: ``parse(text)``, refused unless it parses and ``ok`` holds of the value."""

    def convert(text):
        try:
            value = parse(text)
            if ok(value):
                return value
        except (ValueError, ZeroDivisionError, TypeError):
            pass
        raise argparse.ArgumentTypeError(f"expected {want}, got {text!r}")

    return convert


_finite_float = _checked(float, math.isfinite, "a finite number")
_exact_fraction = _checked(Fraction, lambda _: True, "an exact fraction")
# one part or three parts is a TypeError of the spec, a point off the circle a ValueError
_cos_sin = _checked(lambda text: defect.BogoliubovSpec(*map(Fraction, text.split(","))),
                    lambda _: True, "'cos,sin' fractions")


def _count(minimum):
    """Argparse type for an integer count of at least ``minimum``."""
    return _checked(int, lambda n: n >= minimum, f"an integer >= {minimum}")


def _transmission(text):
    value = _finite_float(text)
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"transmission must lie in [0, 1], got {text!r}")
    return value


def _theta_from_args(args):
    """The --alpha point, else the --cos-sin one; None means the grid or the symbolic angle."""
    if args.alpha is not None:
        return defect.BogoliubovSpec.from_angle(args.alpha)
    return args.cos_sin


# the --cos-sin default of the exact checks at one point: a generic rational
# point, since the axis points satisfy several checks trivially and would not
# exercise them
HEADLINE_POINT = defect.BogoliubovSpec(Fraction(3, 5), Fraction(4, 5))

# rational points on the circle, so the headline checks stay exact
_ALPHA_GRID = tuple(defect.BogoliubovSpec(Fraction(a, c), Fraction(b, c))
                    for a, b, c in ((1, 0, 1), (0, 1, 1), (3, 4, 5), (4, 3, 5),
                                    (5, 12, 13), (12, 5, 13), (8, 15, 17), (20, 21, 29)))


def _theta_label(spec):
    return f"(cos, sin) = ({spec.cos_a}, {spec.sin_a})"


def _number(value):
    """The float of a sympy value with no free symbol, else None."""
    return None if value.free_symbols else float(value)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (report dict, passed bool).  A symbolic
# value (a sympy scalar or a FieldExpression) goes into the report as it is,
# and _emit formats it, as str() would; a report that is never written, like
# that of a passing full-suite step, is never formatted.  Python ints, floats
# and bools that a report prints as strings keep their str().

def _verdict(report, ok, diagnostic):
    """Close ``report`` with its verdict, and with ``diagnostic`` only when the check failed."""
    report["passed"] = ok = bool(ok)
    if not ok:
        report["diagnostic"] = diagnostic
    return report, ok


def cmd_virasoro_check(args):
    report = {"models": {}}
    passed = True
    wanted = {"fermion": Fraction(1, 2), "boson": Fraction(1)}
    models = list(wanted) if args.model == "both" else [args.model]
    for model in models:
        expected = wanted[model]
        space = fock.enumerate_basis(model, args.cutoff)
        c = virasoro.central_charge_probe(model, 2, space)
        worst = 0
        r = args.commutator_range
        # the (n, m) deviation is the negative of the (m, n) one, and the (m, m)
        # one is zero, so each unordered pair is checked once
        for m in range(-r, r + 1):
            for n in range(m + 1, r + 1):
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


def _build_theta(args, spec):
    """Theta for ``spec`` at --cutoff, broken by --skew."""
    real = defect.build_theta_fermion(spec, args.cutoff)
    return defect.skewed(real, args.skew) if args.skew else real


def cmd_intertwiner(args):
    report = {"cutoff": str(args.cutoff), "checks": []}
    passed = True
    chosen = _theta_from_args(args)
    for spec in [chosen] if chosen else _ALPHA_GRID:
        real = _build_theta(args, spec)
        tol = real.tolerance
        for n in range(-args.n_range, args.n_range + 1):
            dev = defect.check_intertwining(real, n)
            ok = dev <= tol
            passed = passed and ok
            report["checks"].append({"theta": _theta_label(spec), "n": n,
                                     "deviation": str(dev), "passed": ok})
    if not passed:
        report["diagnostic"] = ("defect map fails to intertwine the incoming and outgoing "
                                "Virasoro actions: Theta (Lbar^l_n + L^r_n) != (L^l_n + Lbar^r_n) Theta")
    return report, passed


def cmd_momentum_continuity(args):
    spec = _theta_from_args(args)
    ok = defect.check_momentum_continuity(_build_theta(args, spec))
    report = {"cutoff": str(args.cutoff), "theta": "skewed" if args.skew else _theta_label(spec)}
    return _verdict(report, ok, "momentum density not continuous across the impurity: "
                                "Theta[Tbar^l + T^r] != T^l + Tbar^r on the vacuum")


def cmd_ope_preservation(args):
    real = _build_theta(args, _theta_from_args(args))
    vac = defect.vacuum_preservation_deviation(real)
    dev = defect.check_ope_preservation(real)
    tol = real.tolerance
    ok = dev <= tol and vac <= tol
    report = {"cutoff": str(args.cutoff),
              "vacuum_deviation": str(vac),
              "anticommutator_deviation": str(dev)}
    return _verdict(report, ok, "mode conjugation does not preserve the anticommutation "
                                "relations or the identity field")


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
        "solutions": [{lbl: [ph.numerator, ph.denominator] for lbl, ph in s.items()}
                      for s in sols],
        "count": len(sols),
    }
    return _verdict(report, len(sols) > 0, "no consistent reflection phases within the root-of-unity bound")


def cmd_smatrix(args):
    theta = _theta_from_args(args)
    f = ness.FieldExpression.from_field(ness.fermion("r", ness.X))
    t = ness.apply_smatrix(ness.FieldExpression.from_field(ness.stress("r", ness.X)), theta)
    report = {"S[psi_r(x)]": ness.apply_smatrix(f, theta), "S[T_r(x)]": t}
    coeffs = ness.stress_coefficients(t)
    total = ness.canonical(sum(coeffs.values()))
    report["stress_weight_sum"] = total
    ok = ness.canonical(total - 1) == 0
    return _verdict(report, ok, "transmitted plus reflected stress weight differs from one")


def cmd_current(args):
    theta = _theta_from_args(args)
    w = ness.GibbsWeights(args.tl, args.tr)
    j = ness.energy_current(theta, weights=w)
    # a zero temperature has no entropy production; symbolic ones compare unequal to 0
    sigma = None if 0 in (args.tl, args.tr) else ness.entropy_production(j, w)
    cos_sin = list(ness.theta_pair(theta))
    report = {
        "inputs": {"theta_cos_sin": cos_sin, "T_l": str(args.tl), "T_r": str(args.tr)},
        "symbolic_result": {"J_E": j, "sigma": "None" if sigma is None else sigma},
        "numeric_result": {"J_E": _number(j), "sigma": None if sigma is None else _number(sigma)},
    }
    ok = ness.current_matches(j, ness.closed_form_current(theta, w), w)
    return _verdict(report, ok, "current does not match (pi/24) cos(alpha)^2 (T_l^2 - T_r^2)")


def cmd_entropy(args):
    if args.tl <= 0 or args.tr <= 0:
        raise ValueError("entropy production needs strictly positive temperatures")
    theta = _theta_from_args(args)
    w = ness.GibbsWeights(args.tl, args.tr)
    j = ness.energy_current(theta, weights=w)
    sigma = ness.entropy_production(j, w)
    val = _number(sigma)
    ok = val is None or val >= -1e-15
    report = {"J_E": j, "sigma": sigma, "sigma_numeric": val}
    return _verdict(report, ok, "entropy production came out negative")


def cmd_continuity(args):
    theta = _theta_from_args(args)
    ok_after = ness.check_global_continuity(theta, regime=ness.AFTER)
    ok_before = ness.check_global_continuity(theta, regime=ness.BEFORE)
    report = {"crossed_regime": ok_after, "free_regime": ok_before}
    return _verdict(report, ok_after and ok_before,
                    "global continuity T(x,t) + Tbar(-x,t) = T(x-t) + Tbar(-x+t) "
                    "failed to cancel symbolically")


def _params_from_args(args):
    if args.rr_bar is not None:
        return su2k.RotationParams.from_rr_bar(args.k, args.rr_bar)
    return su2k.RotationParams.symbolic(args.k)


def cmd_su2k_decompose(args):
    p = _params_from_args(args)
    cu1, czk = su2k.decomposition_coefficients(p)
    dev = su2k.unit_sum_deviation(p)
    report = {"k": p.k, "s": p.s, "rr_bar": p.rr_bar, "coeff_Tu1": cu1, "coeff_TZk": czk,
              "J_E_closed_form": su2k.energy_current_k(p), "unit_sum_deviation": dev}
    return _verdict(report, dev == 0,
                    "c-weighted decomposition coefficients do not sum to the left central charge")


def cmd_su2k_current(args):
    p = _params_from_args(args)
    w = ness.GibbsWeights(args.tl, args.tr)
    j = su2k.energy_current_k(p, w)
    ref = su2k.closed_form_current(p, w)
    ok = ness.current_matches(j, ref, w)
    report = {"k": p.k, "rr_bar": p.rr_bar, "J_E": j, "closed_form": ref, "passed": bool(ok)}
    if (numeric := _number(j)) is not None:
        report["J_E_numeric"] = numeric
    if not ok:
        report["diagnostic"] = "current does not match (pi/12)((k-1)/k)(r rbar)(T_l^2 - T_r^2)"
    return report, bool(ok)


def cmd_su2k_fermionize(args):
    p = su2k.RotationParams.from_rr_bar(2, args.rr_bar)
    (cos_eff, sin_eff), j_fermionized, j_algebraic = su2k.fermionize_k2(p)
    ok = ness.canonical(j_fermionized - j_algebraic) == 0
    report = {"k": 2, "s": p.s, "rr_bar": p.rr_bar, "cos_effective": cos_eff,
              "chi1": "pure reflection, zero current", "J_fermionized": j_fermionized,
              "J_algebraic": j_algebraic, "agree": ok}
    failed = [] if ok else ["fermionized current disagrees with the algebraic route"]
    if args.matrix_check:
        # the effective rotation as a truncated defect map, exact where both
        # entries are rational, checked for the Virasoro intertwining
        exact = cos_eff.is_rational and sin_eff.is_rational
        entry = (lambda v: Fraction(int(v.p), int(v.q))) if exact else float
        real = defect.build_theta_fermion(defect.BogoliubovSpec(entry(cos_eff), entry(sin_eff)),
                                          Fraction(5, 2))
        dev = max(defect.check_intertwining(real, n) for n in range(-2, 3))
        report["intertwining_max_dev"] = float(dev)
        if not dev <= real.tolerance:  # a NaN deviation fails too
            failed.append("effective rotation fails to intertwine the Virasoro actions")
    return _verdict(report, not failed, "; ".join(failed))


def cmd_lattice_run(args):
    spec = lattice.ChainSpec(sites=args.sites, coupling=args.coupling, defect=args.lam)
    series = lattice.steady_current(spec, args.tl, args.tr, samples=args.samples)
    plateau = series.plateau
    # the plateau against the Landauer integral and the constant-transmission form
    tdc = lattice.transmission_dc(args.lam)
    landauer = lattice.landauer_current(lambda w: lattice.transmission(args.lam, w, args.coupling),
                                        args.tl, args.tr, args.coupling)
    cft = lattice.low_temperature_current(tdc, args.tl, args.tr)
    report = {
        "spec": {"sites": spec.sites, "coupling": spec.coupling, "defect": spec.defect,
                 "T_l": args.tl, "T_r": args.tr},
        "plateau_mean": plateau.mean,
        "plateau_stderr": plateau.stderr,
        "plateau_window": [plateau.start, plateau.end],
        "landauer": landauer,
        "transmission_dc": tdc,
        "cft_prediction": cft,
        "orth_drift": series.orth_drift,
        "ratios": {"plateau_over_landauer": plateau.mean / landauer if landauer else None,
                   "landauer_over_cft": landauer / cft if cft else None},
    }
    if landauer:
        ok = abs(plateau.mean / landauer - 1) <= 0.03
        diagnostic = "plateau current deviates from the Landauer integral by more than 3%"
    else:  # equal temperatures or a cut chain: nothing may flow
        ok = abs(plateau.mean) <= 1e-10
        diagnostic = "plateau current exceeds 1e-10 where the Landauer integral vanishes"
    closed = _verdict(report, ok, diagnostic)
    if args.series_out:
        with open(args.series_out, "w") as fh:
            fh.write("t,current\n")
            fh.writelines(f"{t:.10g},{v:.12e}\n" for t, v in zip(series.times, series.values))
        report["series_csv"] = args.series_out
    return closed


def cmd_lattice_transmission(args):
    grid = np.linspace(args.omega_min, args.omega_max, args.omega_points)
    rows = [(float(w), lattice.transmission(args.lam, float(w), args.coupling)) for w in grid]
    report = {"defect": args.lam, "transmission_dc": lattice.transmission_dc(args.lam),
              "grid": [{"omega": w, "T": t} for w, t in rows]}
    return _verdict(report, all(0 <= t <= 1 for _, t in rows), "transmission outside [0, 1]")


def cmd_landauer(args):
    if args.lam is not None:
        fn = lambda w: lattice.transmission(args.lam, w, args.coupling)
        t0 = lattice.transmission_dc(args.lam)
    else:
        t0 = args.t0
        fn = lambda w: t0
    j = lattice.landauer_current(fn, args.tl, args.tr, args.coupling)
    cft = lattice.low_temperature_current(t0, args.tl, args.tr)
    ok = cft == 0 or abs(j / cft - 1) <= 0.05
    report = {"J": j, "transmission_dc": t0, "low_T_form": cft}
    return _verdict(report, ok, "Landauer integral deviates from (pi T0 / 24)(T_l^2 - T_r^2) by more than 5%")


def cmd_full_suite(args):
    steps = [
        ["virasoro-check"],
        ["intertwiner"],
        ["momentum-continuity"],
        ["ope-preservation"],
        ["reflection-phases"],
        ["smatrix"],
        ["current"],
        ["entropy"],
        ["continuity"],
        ["su2k-decompose"],
        ["su2k-current"],
        ["su2k-fermionize"],
        ["landauer", "--lam", "0.7", "--Tr", "0.05"],
    ]
    if not args.quick:
        steps.append(["lattice-run", "--samples", "50"])
    report = {"steps": {}}
    for name, *flags in steps:
        ns = _parse([name, *flags])
        sub_report, ok = ns.fn(ns)
        report["steps"][name] = {"passed": ok}
        if not ok:
            report["steps"][name]["detail"] = sub_report
    failed = [name for name, step in report["steps"].items() if not step["passed"]]
    return _verdict(report, not failed, f"failed steps: {', '.join(failed)}")


# ---------------------------------------------------------------------------

def _add_theta_args(p, point=None):
    theta = p.add_mutually_exclusive_group()
    theta.add_argument("--alpha", type=_finite_float, default=None, help="rotation angle in radians")
    theta.add_argument("--cos-sin", dest="cos_sin", type=_cos_sin, default=point,
                       help="exact rational point on the circle, e.g. 3/5,4/5")


def _add_exact_check(sub, name, fn, summary, cutoff, point=None):
    """A check ``fn`` on the truncated defect map, with its cutoff, skew and angle options."""
    p = sub.add_parser(name, help=summary)
    p.add_argument("--cutoff", type=_exact_fraction, default=Fraction(cutoff))
    p.add_argument("--skew", type=_finite_float, default=0.0, help="negative control perturbation")
    _add_theta_args(p, point)
    p.set_defaults(fn=fn)
    return p


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
    p.add_argument("--cutoff", type=_exact_fraction, default=Fraction(6))
    p.add_argument("--commutator-range", type=_count(0), default=2)
    p.set_defaults(fn=cmd_virasoro_check)

    p = _add_exact_check(sub, "intertwiner", cmd_intertwiner,
                         "Virasoro intertwining of the defect map", 5)
    p.add_argument("--n-range", type=_count(0), default=2)
    _add_exact_check(sub, "momentum-continuity", cmd_momentum_continuity,
                     "stress continuity on the vacuum", 4, HEADLINE_POINT)
    _add_exact_check(sub, "ope-preservation", cmd_ope_preservation,
                     "anticommutator preservation under conjugation", 4, HEADLINE_POINT)

    p = sub.add_parser("reflection-phases", help="solve the fusion constraints on reflection phases")
    p.add_argument("--ring", default="ising",
                   help="builtin name (ising, z3, trivial) or path to a JSON ring")
    p.add_argument("--max-order", type=_count(1), default=24)
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
    p.add_argument("--k", type=_count(1), default=su2k.K_PARAM)
    p.add_argument("--rr-bar", dest="rr_bar", type=_exact_fraction, default=None)
    p.set_defaults(fn=cmd_su2k_decompose)

    p = sub.add_parser("su2k-current", help="level-k energy current")
    p.add_argument("--k", type=_count(1), default=su2k.K_PARAM)
    p.add_argument("--rr-bar", dest="rr_bar", type=_exact_fraction, default=None)
    # exact, so the symbolic verdict sees no rounding residue
    _add_temps(p, ness.T_LEFT, ness.T_RIGHT, kind=_exact_fraction)
    p.set_defaults(fn=cmd_su2k_current)

    p = sub.add_parser("su2k-fermionize", help="k=2 fermionization cross-check")
    p.add_argument("--rr-bar", dest="rr_bar", type=_exact_fraction, default=Fraction(1, 2))
    p.add_argument("--matrix-check", action="store_true")
    p.set_defaults(fn=cmd_su2k_fermionize)

    p = sub.add_parser("lattice-run", help="partitioning protocol on the defect chain")
    p.add_argument("--sites", type=int, default=400)
    p.add_argument("--coupling", type=_finite_float, default=1.0)
    p.add_argument("--lam", type=_finite_float, default=1.0)
    p.add_argument("--samples", type=_count(1), default=60)
    p.add_argument("--series-out", default=None, help="write the t,current series as CSV")
    _add_temps(p, 0.1, 0.05)
    p.set_defaults(fn=cmd_lattice_run)

    p = sub.add_parser("lattice-transmission", help="transmission through the defect bond")
    p.add_argument("--lam", type=_finite_float, default=0.5)
    p.add_argument("--coupling", type=_finite_float, default=1.0)
    p.add_argument("--omega-min", type=_finite_float, default=1e-3)
    p.add_argument("--omega-max", type=_finite_float, default=1.9)
    p.add_argument("--omega-points", type=_count(1), default=20)
    p.set_defaults(fn=cmd_lattice_transmission)

    p = sub.add_parser("landauer", help="Landauer integral against the low-T closed form")
    dc = p.add_mutually_exclusive_group()
    dc.add_argument("--lam", type=_finite_float, default=None)
    dc.add_argument("--t0", type=_transmission, default=1.0,
                    help="constant transmission when --lam is absent")
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


@functools.cache
def _parser():
    """The one parser of the process, and each subcommand's declared defaults.

    Each subcommand option's default moves into the table and becomes
    SUPPRESS on the parser, so a parse returns only what the command line
    set.  Nothing writes to the parser after this.
    """
    parser = build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    declared = {name: {a.dest: a.default for a in sub._actions if a.default is not argparse.SUPPRESS}
                for name, sub in subs.items()}
    for a in (a for sub in subs.values() for a in sub._actions):
        a.default = argparse.SUPPRESS
    return parser, subs, declared


def _config_layer(sub, declared, given):
    """Yield (dest, value) for each value of the --config file that the subcommand ``sub`` takes.

    A typed value goes in as a string and is parsed by the option's own
    type, as a flag's value is, and only where no flag overrides it.  The
    subcommand's other options take only what their flags could give: a
    switch true or false, an option with choices one of them, any other
    option a string.  A null value leaves the option's declared default in
    place.  A key that is no subcommand's option is an error.  A flag on
    the command line (a dest in ``given``) overrides the config: also
    across a mutually exclusive group, where the config values of the
    flag's partners are dropped, so that the handler never sees both.
    Without such a flag, a config that sets two members of one group is an
    error, as the two flags are.
    """
    with open(given["config"]) as fh:
        config = dict(json.load(fh))
    # one file serves every subcommand, so another subcommand's option is fine
    if unknown := sorted(set(config).difference(*declared.values())):
        raise ValueError(f"no subcommand has the option {', '.join(map(repr, unknown))}")
    for group in sub._mutually_exclusive_groups:
        dests = [a.dest for a in group._group_actions]
        if given.keys() & dests:
            config = {k: v for k, v in config.items() if k not in dests}
        elif len(both := [repr(dest) for dest in dests if config.get(dest) is not None]) > 1:
            raise ValueError(f"{' and '.join(both)} exclude each other")
    for a in sub._actions:
        if (value := config.get(a.dest)) is None or a.type and a.dest in given:
            continue
        if a.type:
            try:
                value = sub._get_value(a, str(value))
            except argparse.ArgumentError as exc:
                raise ValueError(f"{a.dest!r} {exc.message}") from None
        else:
            ok, want = ((isinstance(value, bool), "true or false") if isinstance(a, argparse._StoreTrueAction)
                        else (value in a.choices, "one of " + ", ".join(a.choices)) if a.choices
                        else (isinstance(value, str), "a string"))
            if not ok:
                raise ValueError(f"{a.dest!r} takes {want}, got {json.dumps(value)}")
        yield a.dest, value


def _parse(argv):
    """The namespace of ``argv``: the declared defaults, under the --config file, under the flags."""
    parser, subs, declared = _parser()
    given = vars(parser.parse_args(argv))
    layer = dict(_config_layer(subs[given["command"]], declared, given)) if given["config"] else {}
    return argparse.Namespace(**{**declared[given["command"]], **layer, **given})


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
    try:
        args = _parse(argv)
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
    except OSError as exc:  # e.g. --out is a directory or its parent is missing
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    return PASS if passed else FAIL


if __name__ == "__main__":
    sys.exit(main())
