"""Current-algebra rotation of the u(1) stress tensor and the level-k current."""

from fractions import Fraction

import pytest
import sympy as sp

from neqcft import defect, ness
from neqcft.su2k import (K_PARAM, RR_PARAM, S_PARAM, RotationParams,
                         closed_form_current, decomposition_coefficients,
                         energy_current_k, fermionize_k2, unit_sum_deviation)


def test_symbolic_decomposition_coefficients():
    p = RotationParams.symbolic()
    cu1, czk = decomposition_coefficients(p)
    assert sp.simplify(cu1 - (S_PARAM ** 2 + RR_PARAM / K_PARAM)
                       .subs(S_PARAM ** 2, 1 - RR_PARAM)) == 0
    assert sp.simplify(czk - (K_PARAM + 2) / (2 * K_PARAM) * RR_PARAM) == 0


def test_identity_rotation_leaves_stress_alone():
    p = RotationParams(K_PARAM, 1, 0)
    cu1, czk = decomposition_coefficients(p)
    assert sp.simplify(cu1 - 1) == 0 and sp.simplify(czk) == 0


def test_k2_full_mixing_coefficients():
    cu1, czk = decomposition_coefficients(RotationParams(2, 0, 1))
    assert cu1 == sp.Rational(1, 2)
    assert czk == 1


def test_unit_sum_rule_identically():
    assert unit_sum_deviation(RotationParams.symbolic()) == 0
    for k in (1, 2, 3, 7):
        for rr in (0, Fraction(1, 4), Fraction(1, 2), 1):
            assert unit_sum_deviation(RotationParams.from_rr_bar(k, rr)) == 0


def test_current_matches_closed_form_for_each_level():
    for k in range(1, 13):
        p = RotationParams.symbolic(k)
        assert sp.simplify(energy_current_k(p) - closed_form_current(p)) == 0, k


def test_current_matches_closed_form_symbolically():
    p = RotationParams.symbolic()
    assert sp.simplify(energy_current_k(p) - closed_form_current(p)) == 0


@pytest.mark.parametrize("k", range(1, 13))
def test_float_temperatures_match_the_closed_form_to_rounding(k):
    # the exact residue is 2.8e-17*pi at k = 4, and a relative 1e-9 is far above it
    p = RotationParams.from_rr_bar(k, Fraction(1, 2))
    w = ness.GibbsWeights(0.846, 2.267)
    j, ref = energy_current_k(p, w), closed_form_current(p, w)
    assert ness.current_matches(j, ref, w)
    assert ness.current_matches(j * (1 + sp.Rational(1, 10 ** 9)), ref, w) == (k == 1)


def test_k2_full_mixing_matches_free_fermion_current():
    p = RotationParams(2, 0, 1)
    j = energy_current_k(p)
    assert sp.simplify(j - sp.pi / 24 * (ness.T_LEFT ** 2 - ness.T_RIGHT ** 2)) == 0


def test_level_one_carries_no_current():
    p = RotationParams.symbolic(1)
    assert sp.simplify(energy_current_k(p)) == 0


def test_k4_numeric_point():
    p = RotationParams.from_rr_bar(4, Fraction(1, 2))
    j = energy_current_k(p, ness.GibbsWeights(1, 0))
    assert sp.simplify(j - sp.pi / 32) == 0
    assert abs(float(j) - 0.09817) < 1e-4


def test_equilibrium_current_vanishes():
    p = RotationParams.symbolic()
    j = energy_current_k(p, ness.GibbsWeights(ness.T_LEFT, ness.T_LEFT))
    assert sp.simplify(j) == 0


def test_params_validation():
    with pytest.raises(ValueError):
        RotationParams(2, Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        RotationParams(2, 0, 2)


def test_fermionize_matches_algebraic_route_exactly():
    for rr in (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1):
        p = RotationParams.from_rr_bar(2, rr)
        effective, j_fermionized, j_algebraic = fermionize_k2(p)
        assert effective == (sp.sqrt(p.rr_bar), p.s), rr
        want = sp.pi / 12 * sp.Rational(Fraction(rr)) / 2 * (ness.T_LEFT ** 2 - ness.T_RIGHT ** 2)
        assert sp.simplify(j_fermionized - want) == 0, rr
        assert sp.simplify(j_algebraic - want) == 0, rr


def test_fermionize_decoupled_point():
    _, j_fermionized, _ = fermionize_k2(RotationParams(2, 1, 0))
    assert sp.simplify(j_fermionized) == 0


def test_fermionize_requires_level_two():
    with pytest.raises(ValueError):
        fermionize_k2(RotationParams.symbolic(3))


def test_fermionize_matrix_cross_check():
    # the effective rotation, realized as a truncated defect map, intertwines the Virasoro actions
    (c, s), _, _ = fermionize_k2(RotationParams.from_rr_bar(2, Fraction(1, 4)))
    real = defect.build_theta_fermion(defect.BogoliubovSpec(float(c), float(s)), Fraction(5, 2))
    assert max(abs(float(defect.check_intertwining(real, n))) for n in range(-2, 3)) <= 1e-12
