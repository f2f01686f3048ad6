"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one pass/fail
line per criterion.
"""

import math
import time
from fractions import Fraction

import numpy as np
import sympy as sp

from neqcft import defect, fock, lattice, ness, su2k, virasoro
from neqcft.defect import BogoliubovSpec
from neqcft.ness import ALPHA, T_LEFT, T_RIGHT
from oracles import compose, max_matrix_deviation

ALPHA_GRID = [
    BogoliubovSpec(Fraction(1), Fraction(0)),
    BogoliubovSpec(Fraction(0), Fraction(1)),
    BogoliubovSpec(Fraction(3, 5), Fraction(4, 5)),
    BogoliubovSpec(Fraction(4, 5), Fraction(3, 5)),
    BogoliubovSpec(Fraction(5, 13), Fraction(12, 13)),
    BogoliubovSpec(Fraction(12, 13), Fraction(5, 13)),
    BogoliubovSpec(Fraction(8, 17), Fraction(15, 17)),
    BogoliubovSpec(Fraction(20, 29), Fraction(21, 29)),
]


def record(number, description, passed):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:2d}] {status}: {description}")
    assert passed, f"criterion {number} failed: {description}"


def test_criterion_01_central_charges():
    start = time.monotonic()
    ok = True
    for model, expected in (("fermion", Fraction(1, 2)), ("boson", Fraction(1))):
        space = fock.enumerate_basis(model, 6)
        c = virasoro.central_charge_probe(model, 2, space)
        ok = ok and c == expected
        for m in range(-2, 3):
            for n in range(-2, 3):
                ok = ok and virasoro.commutator_deviation(model, m, n, space, central=c) == 0
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    record(1, f"central charges 1/2 and 1 exact, commutator law zero deviation "
              f"at cutoff 6 ({elapsed:.1f}s)", ok)


def test_criterion_02_intertwining():
    start = time.monotonic()
    ok = True
    for spec in ALPHA_GRID:
        real = defect.build_theta_fermion(spec, 5)
        for n in range(-2, 3):
            ok = ok and defect.check_intertwining(real, n) == 0
    for alpha in (0.3, 2.0):
        real = defect.build_theta_fermion(BogoliubovSpec.from_angle(alpha), 5)
        for n in range(-2, 3):
            ok = ok and abs(defect.check_intertwining(real, n)) <= 1e-12
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    record(2, f"intertwining zero on 8 rational angles x n in -2..2 at cutoff 5, "
              f"<= 1e-12 for float angles ({elapsed:.1f}s)", ok)


def test_criterion_03_automorphism_constraints():
    cutoff = 3
    a = BogoliubovSpec(Fraction(3, 5), Fraction(4, 5))
    b = BogoliubovSpec(Fraction(5, 13), Fraction(12, 13))
    ra = defect.build_theta_fermion(a, cutoff)
    rb = defect.build_theta_fermion(b, cutoff)
    ok = defect.vacuum_preservation_deviation(ra) == 0
    ok = ok and defect.check_ope_preservation(ra) == 0
    direct = defect.build_theta_fermion(compose(a, b), cutoff)
    ok = ok and max_matrix_deviation(ra.theta @ rb.theta, direct.theta) == 0
    # negative control: 1% skewed matrix must fail all three
    space = ra.theta.space
    skew = fock.GradedOperator(space, 0, 0, {i: {i + 1: 1} for i in range(min(space.dimension - 1, 12))},
                               100)
    broken = defect.DefectRealization(ra.theta + skew, ra.mode_map)
    ok = ok and defect.vacuum_preservation_deviation(broken) != 0
    ok = ok and defect.check_ope_preservation(broken) != 0
    ok = ok and max_matrix_deviation(broken.theta @ rb.theta, direct.theta) != 0
    record(3, "identity preserved, anticommutators preserved, composition law holds; "
              "1%-skewed matrix fails all three", ok)


def test_criterion_04_free_fermion_current():
    j = ness.energy_current(None)
    target = sp.pi * sp.cos(ALPHA) ** 2 / 24 * (T_LEFT ** 2 - T_RIGHT ** 2)
    ok = sp.simplify(j - target) == 0
    j0 = ness.energy_current((1, 0))
    ok = ok and sp.simplify(j0 - sp.pi / 24 * (T_LEFT ** 2 - T_RIGHT ** 2)) == 0
    record(4, "current reproduces (pi cos^2 a / 24)(T_l^2 - T_r^2) symbolically, "
              "exact at full transmission", ok)


def test_criterion_05_entropy_production_grid():
    sigma = ness.entropy_production(ness.energy_current(None))
    fn = sp.lambdify((T_LEFT, T_RIGHT, ALPHA), sigma, "math")
    temps = [0.2 + 0.19 * i for i in range(20)]
    alphas = [k * math.pi / 7 for k in range(7)] + [math.pi / 2]
    ok = True
    for tl in temps:
        for tr in temps:
            for a in alphas:
                val = fn(tl, tr, a)
                ok = ok and val >= -1e-12
                equality_allowed = abs(tl - tr) < 1e-12 or abs(math.cos(a)) < 1e-12
                if not equality_allowed:
                    ok = ok and val > 0
                elif abs(tl - tr) < 1e-12 or abs(a - math.pi / 2) < 1e-12:
                    ok = ok and abs(val) < 1e-12
    record(5, "entropy production nonnegative on the 20x20x8 grid, zero only at "
              "equal temperatures or pure reflection", ok)


def test_criterion_06_global_continuity():
    ok = ness.check_global_continuity(None, regime=ness.AFTER)
    ok = ok and ness.check_global_continuity(None, regime=ness.BEFORE)
    record(6, "T(x,t) + Tbar(-x,t) = T(x-t) + Tbar(-x+t) cancels symbolically "
              "for a symbolic angle", ok)


def test_criterion_07_reflection_phases():
    ising = defect.solve_reflection_phases(defect.ising_ring())
    ok = sorted(s["psi"] for s in ising) == [Fraction(0), Fraction(1, 2)]
    z3 = defect.solve_reflection_phases(defect.z3_parafermion_ring())
    ok = ok and sorted(s["psi1"] for s in z3) == [Fraction(0), Fraction(1, 3), Fraction(2, 3)]
    for sols in (ising, z3):
        ok = ok and all(s["1"] == 0 for s in sols)
    record(7, "reflection phases: signs for the Ising ring, cube roots for the Z3 "
              "ring, identity phase always one", ok)


def test_criterion_08_su2k():
    p = su2k.RotationParams.symbolic()
    cu1, czk = su2k.decomposition_coefficients(p)
    s, rr, k = su2k.S_PARAM, su2k.RR_PARAM, su2k.K_PARAM
    ok = sp.simplify(cu1 - (1 - rr + rr / k)) == 0
    ok = ok and sp.simplify(czk - (k + 2) / (2 * k) * rr) == 0
    ok = ok and su2k.unit_sum_deviation(p) == 0
    for kk in range(1, 13):
        pk = su2k.RotationParams.symbolic(kk)
        ok = ok and sp.simplify(su2k.energy_current_k(pk) - su2k.closed_form_current(pk)) == 0
    for rr_val in (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1):
        _, j_fermionized, j_algebraic = su2k.fermionize_k2(su2k.RotationParams.from_rr_bar(2, rr_val))
        ok = ok and sp.simplify(j_fermionized - j_algebraic) == 0
    record(8, "rotation coefficients, closed-form current for k = 1..12, unit sum "
              "rule, and the k=2 fermionized route all agree", ok)


def test_criterion_09_lattice_oracle():
    spec = lattice.ChainSpec(sites=400, defect=0.7)
    series = lattice.steady_current(spec, 0.1, 0.05, samples=50)
    j_landauer = lattice.landauer_current(
        lambda w: lattice.transmission(0.7, w), 0.1, 0.05)
    ok = abs(series.plateau.mean / j_landauer - 1) < 0.03
    # constant-transmission Landauer against the closed form
    t0 = lattice.transmission_dc(0.7)
    j_const = lattice.landauer_current(lambda w: t0, 0.1, 0.05)
    cft = math.pi * t0 / 24 * (0.1 ** 2 - 0.05 ** 2)
    ok = ok and abs(j_const / cft - 1) < 0.05
    # temperature-squared scaling
    temps = [0.02, 0.04, 0.06, 0.08]
    means = [lattice.steady_current(lattice.ChainSpec(sites=400), t, t / 2,
                                    samples=50).plateau.mean for t in temps]
    exponent = np.polyfit(np.log(temps), np.log(means), 1)[0]
    ok = ok and abs(exponent - 2.0) <= 0.1
    record(9, f"plateau within 3% of Landauer, constant-T form within 5%, "
              f"scaling exponent {exponent:.2f}", ok)


def test_criterion_10_equilibrium_and_disconnection():
    ok = sp.simplify(ness.energy_current(None, weights=ness.GibbsWeights(T_LEFT, T_LEFT))) == 0
    p = su2k.RotationParams.symbolic()
    ok = ok and sp.simplify(su2k.energy_current_k(
        p, ness.GibbsWeights(T_LEFT, T_LEFT))) == 0
    eq = lattice.steady_current(lattice.ChainSpec(sites=200, defect=0.6), 0.1, 0.1,
                                samples=40)
    ok = ok and abs(eq.plateau.mean) < 1e-10
    cut = lattice.steady_current(lattice.ChainSpec(sites=200, defect=0.0), 0.1, 0.05,
                                 samples=40)
    ok = ok and cut.plateau.mean == 0.0
    ok = ok and ness.energy_current((0, 1)) == 0
    record(10, "equal temperatures give zero current (symbolically and < 1e-10 on "
               "the lattice); cut bond and pure reflection carry nothing", ok)
