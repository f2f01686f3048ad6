"""Symbolic evolution, scattering map, averages, current and entropy."""

import math
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neqcft import ness, su2k
from neqcft.ness import (AFTER, BEFORE, ALPHA, T, T_LEFT, T_RIGHT, X,
                         FieldExpression, GibbsWeights, LocalField, RegimeError,
                         UnsupportedExpressionError,
                         UnsupportedFieldError, apply_smatrix,
                         check_global_continuity, energy_current,
                         entropy_production, evolve, expectation, fermion,
                         stress, stress_coefficients)
from oracles import cancelled_normal_form, evolved_factor, scattered_factor

SYMB = None  # the symbolic angle


def _single(expr):
    expr = expr.normalize()
    assert len(expr.terms) == 1
    return expr.terms[0]


def test_left_chiral_field_never_crosses():
    f = FieldExpression.from_field(fermion("l", -X))
    for regime in (BEFORE, AFTER):
        coeff, factors = _single(evolve(f, T, SYMB, regime=regime))
        assert coeff == 1
        assert factors[0].position == sp.expand(-X - T)
        assert factors[0].side == "l" and not factors[0].bar


def test_right_chiral_field_before_crossing():
    f = FieldExpression.from_field(fermion("r", X))
    coeff, factors = _single(evolve(f, T, SYMB, regime=BEFORE))
    assert coeff == 1 and factors[0].position == sp.expand(X - T)


def test_right_chiral_field_after_crossing():
    f = FieldExpression.from_field(fermion("r", X))
    out = evolve(f, T, SYMB, regime=AFTER).normalize()
    got = {}
    for coeff, factors in out.terms:
        fld = factors[0]
        got[(fld.side, fld.bar, sp.srepr(fld.position))] = coeff
    assert got[("l", False, sp.srepr(sp.expand(X - T)))] == sp.cos(ALPHA)
    assert got[("r", True, sp.srepr(sp.expand(T - X)))] == sp.sin(ALPHA)


def test_left_antichiral_field_after_crossing():
    f = FieldExpression.from_field(fermion("l", -X, bar=True))
    out = evolve(f, T, SYMB, regime=AFTER).normalize()
    got = {(fld.side, fld.bar): c for c, (fld,) in out.terms}
    assert got[("r", True)] == sp.cos(ALPHA)
    assert got[("l", False)] == -sp.sin(ALPHA)


def test_derivative_fields_pick_up_reflection_signs():
    f = FieldExpression.from_field(fermion("r", X, deriv=1))
    out = evolve(f, T, SYMB, regime=AFTER).normalize()
    got = {(fld.side, fld.bar): c for c, (fld,) in out.terms}
    assert got[("l", False)] == sp.cos(ALPHA)
    assert got[("r", True)] == -sp.sin(ALPHA)


def test_asymmetric_configuration_rejected():
    f = FieldExpression.from_field(fermion("r", 2 * X))
    with pytest.raises(RegimeError):
        evolve(f, T, SYMB, regime=AFTER)


def test_unsupported_crossing_field_rejected():
    # a field without scattering rules cannot be built
    with pytest.raises(UnsupportedFieldError, match="unknown field name 'J'"):
        LocalField("J", "r", position=X)
    # a stress factor crosses only through its fermion bilinear
    with pytest.raises(UnsupportedFieldError, match="expand stress factors"):
        evolve(FieldExpression.from_field(stress("r", X)), T, SYMB, regime=AFTER)


# every psi factor the scattering rules take: chirality x side x derivative order,
# each at its symmetric point
_PSI_FACTORS = [fermion(side, -X if side == "l" else X, bar=bar, deriv=deriv)
                for bar in (False, True) for side in ("l", "r") for deriv in (0, 1, 2)]
# the symbolic angle, an exact point, the pure reflection and a float point
_ANGLES = [None, (Fraction(3, 5), Fraction(4, 5)), (0, 1), (math.cos(0.7), math.sin(0.7))]
_ANGLE_IDS = ["symbolic", "exact", "reflection", "float"]


def _written(expr):
    """Each term of a normalized expression as the srepr of its coefficient and of its factors."""
    return [(sp.srepr(coeff), [(f.name, f.side, f.bar, f.deriv, sp.srepr(f.position)) for f in fs])
            for coeff, fs in expr.terms]


@pytest.mark.parametrize("theta", _ANGLES, ids=_ANGLE_IDS)
@pytest.mark.parametrize("regime", [BEFORE, AFTER])
@pytest.mark.parametrize("f", _PSI_FACTORS, ids=str)
def test_evolve_matches_the_rules_written_case_by_case(f, regime, theta):
    c, s = ness.theta_pair(theta)
    want = evolved_factor(f, T, c, s, regime).normalize()
    assert _written(evolve(FieldExpression.from_field(f), T, theta, regime=regime)) == _written(want)


@pytest.mark.parametrize("theta", _ANGLES, ids=_ANGLE_IDS)
@pytest.mark.parametrize("f", _PSI_FACTORS, ids=str)
def test_smatrix_matches_the_rules_written_case_by_case(f, theta):
    c, s = ness.theta_pair(theta)
    want = scattered_factor(f, c, s).normalize()
    assert _written(apply_smatrix(FieldExpression.from_field(f), theta)) == _written(want)


def test_smatrix_trivial_on_outgoing_fields():
    chiral_left = FieldExpression.from_field(fermion("l", -X))
    out = apply_smatrix(chiral_left, None)
    assert _single(out)[1][0].position == sp.expand(-X)
    anti_right = FieldExpression.from_field(fermion("r", X, bar=True))
    coeff, (fld,) = _single(apply_smatrix(anti_right, None))
    assert coeff == 1 and fld.side == "r" and fld.bar


def test_smatrix_on_right_chiral_fermion():
    out = apply_smatrix(FieldExpression.from_field(fermion("r", X)), None).normalize()
    got = {(fld.side, fld.bar, sp.srepr(fld.position)): c for c, (fld,) in out.terms}
    assert got[("r", False, sp.srepr(sp.expand(X)))] == sp.sin(ALPHA)
    assert got[("l", True, sp.srepr(sp.expand(-X)))] == -sp.cos(ALPHA)


def test_smatrix_is_identity_when_theta_equals_theta0():
    # theta0 is the decoupled dynamics, the pure reflection (0, 1)
    for expr in (FieldExpression.from_field(fermion("r", X)),
                 FieldExpression.from_field(stress("r", X)),
                 FieldExpression.from_field(fermion("l", -X, bar=True, deriv=2))):
        out = apply_smatrix(expr, (0, 1))
        diff = (out - ness.collect_stress(expr)).normalize()
        assert all(sp.simplify(c) == 0 for c, _ in diff.terms)


def test_smatrix_stress_weights_sum_to_one():
    out = apply_smatrix(FieldExpression.from_field(stress("r", X)), None)
    coeffs = stress_coefficients(out)
    tbar_left = coeffs[("l", True, sp.srepr(sp.expand(-X)))]
    t_right = coeffs[("r", False, sp.srepr(sp.expand(X)))]
    assert sp.simplify(tbar_left - sp.cos(ALPHA) ** 2) == 0
    assert sp.simplify(t_right - sp.sin(ALPHA) ** 2) == 0
    assert sp.simplify(tbar_left + t_right - 1) == 0


def test_smatrix_stress_cross_terms():
    # the scattered stress carries the mixed bilinears with weight
    # -(i/2) cos(a) sin(a) on (d psibar^l)(-x) psi^r(x) and psibar^l(-x) (d psi^r)(x)
    out = apply_smatrix(FieldExpression.from_field(stress("r", X)), None).normalize()
    cross = {}
    for coeff, factors in out.terms:
        if len(factors) == 2:
            key = tuple((f.side, f.bar, f.deriv) for f in factors)
            cross[key] = coeff
    want = -sp.I * sp.cos(ALPHA) * sp.sin(ALPHA) / 2
    assert len(cross) == 2
    for coeff in cross.values():
        assert sp.simplify(coeff - want) == 0


def test_expectation_examples():
    w = GibbsWeights(1, T_RIGHT)
    val = expectation(FieldExpression.from_field(stress("l", X)), w)
    assert sp.simplify(val - sp.pi / 24) == 0
    # mismatched fermion bilinear averages to zero
    pair = FieldExpression(((sp.Integer(1),
                             (fermion("l", -X, bar=True), fermion("r", X))),))
    assert expectation(pair, w) == 0
    assert expectation(FieldExpression.one(), w) == 1


def test_expectation_rejects_unsupported_class():
    w = GibbsWeights(1, 1)
    four = FieldExpression(((sp.Integer(1),
                             tuple(fermion("r", X, deriv=k) for k in range(4))),))
    with pytest.raises(UnsupportedExpressionError):
        expectation(four, w)


def test_energy_current_symbolic_form():
    j = energy_current(None)
    target = sp.pi * sp.cos(ALPHA) ** 2 / 24 * (T_LEFT ** 2 - T_RIGHT ** 2)
    assert sp.simplify(j - target) == 0


def test_energy_current_transmission_point():
    j = energy_current((1, 0))
    assert sp.simplify(j - sp.pi / 24 * (T_LEFT ** 2 - T_RIGHT ** 2)) == 0


def test_energy_current_reflection_vanishes():
    assert energy_current((0, 1)) == 0


def test_energy_current_equilibrium_vanishes():
    j = energy_current(None, weights=GibbsWeights(2, 2))
    assert sp.simplify(j) == 0


def test_energy_current_side_independent():
    # the momentum density placed left of the impurity carries the same current
    p = (FieldExpression.from_field(stress("l", -X))
         - FieldExpression.from_field(stress("l", -X, bar=True)))
    jl = expectation(apply_smatrix(p, None))
    assert sp.simplify(energy_current(None) - jl) == 0


def test_energy_current_antisymmetric_in_temperatures():
    j = energy_current(None)
    swapped = j.subs({T_LEFT: T_RIGHT, T_RIGHT: T_LEFT}, simultaneous=True)
    assert sp.simplify(j + swapped) == 0


def test_entropy_production_examples():
    w = GibbsWeights(2, 1)
    j = energy_current((1, 0), weights=w)
    assert sp.simplify(j - sp.pi / 8) == 0
    sigma = entropy_production(j, w)
    assert sp.simplify(sigma - sp.pi / 16) == 0
    assert abs(float(sigma) - 0.19635) < 1e-4


def test_entropy_sign_with_reversed_gradient():
    w = GibbsWeights(1, 2)
    j = energy_current((1, 0), weights=w)
    assert float(j) < 0
    assert float(entropy_production(j, w)) > 0


def test_entropy_nonnegative_on_grid():
    j = energy_current(None)
    sigma = entropy_production(j)
    fn = sp.lambdify((T_LEFT, T_RIGHT, ALPHA), sigma, "math")
    temps = [0.2 + 0.19 * i for i in range(20)]
    alphas = [k * math.pi / 7 for k in range(8)]
    for tl in temps:
        for tr in temps:
            for a in alphas:
                val = fn(tl, tr, a)
                assert val >= -1e-12, (tl, tr, a)
                if abs(tl - tr) > 1e-9 and abs(math.cos(a)) > 1e-9:
                    assert val > 0


def test_global_continuity_symbolic():
    assert check_global_continuity(None, regime=AFTER)
    assert check_global_continuity(None, regime=BEFORE)


def test_global_continuity_special_angles():
    for theta in ((1, 0), (0, 1), (Fraction(3, 5), Fraction(4, 5))):
        assert check_global_continuity(theta, regime=AFTER)


def test_global_continuity_negative_control():
    # a pair off the unit circle does not conserve the stress combination
    assert not check_global_continuity((0.9, 0.9), regime=AFTER)


def test_graded_sort_sign():
    a = fermion("l", -X, bar=True)
    b = fermion("r", X)
    e1 = FieldExpression(((sp.Integer(1), (b, a)),)).normalize()
    e2 = FieldExpression(((sp.Integer(-1), (a, b)),)).normalize()
    assert e1.terms == e2.terms


def test_current_and_entropy_production_at_full_transmission():
    w = GibbsWeights(1.0, 0.5)
    j = energy_current((1, 0), w)
    assert abs(float(j) - math.pi / 24 * 0.75) < 1e-12
    assert float(entropy_production(j, w)) > 0


@pytest.mark.parametrize("t", [sp.Rational(-1, 2), sp.Float(-0.5), sp.Integer(-1),
                               sp.Symbol("T", negative=True), -1, -0.5, Fraction(-1, 2)])
def test_negative_temperature_is_refused(t):
    for pair in ((t, 0), (0, t)):
        with pytest.raises(ValueError, match="temperatures must be >= 0"):
            GibbsWeights(*pair)


def test_temperatures_are_converted_once():
    w = GibbsWeights(Fraction(1, 2), 0.25)
    assert (w.t_left, w.t_right) == (sp.Rational(1, 2), sp.Float(0.25))
    # a positive symbol and one of unknown sign pass as given
    assert GibbsWeights(T_LEFT, sp.Symbol("T")).t_right == sp.Symbol("T")


@pytest.mark.parametrize("t_left, t_right", [(1, 0), (0, 1), (0, 0), (sp.Symbol("T", nonpositive=True), 1)])
def test_entropy_production_refuses_a_nonpositive_temperature(t_left, t_right):
    w = GibbsWeights(t_left, t_right)
    with pytest.raises(ValueError, match="entropy production needs strictly positive temperatures"):
        entropy_production(energy_current(None, w), w)


def test_entropy_production_of_a_symbol_of_unknown_sign():
    t = sp.Symbol("T")
    w = GibbsWeights(t, 1)
    sigma = entropy_production(energy_current((1, 0), w), w)
    assert sp.simplify(sigma - sp.pi / 24 * (t ** 2 - 1) * (1 - 1 / t)) == 0


# ---------------------------------------------------------------------------
# the exact zero test, against sp.simplify as an independent oracle

_COEFFS = st.fractions(min_value=-4, max_value=4, max_denominator=5).map(sp.sympify)
_FLOATS = st.floats(min_value=-4, max_value=4).map(sp.Float)


def _monomials(gens, coeffs=_COEFFS, max_degree=3):
    """c * prod(g^e) over ``gens``, with a small coefficient c (rational by default)."""
    exps = st.lists(st.integers(0, max_degree), min_size=len(gens), max_size=len(gens))
    return st.builds(lambda c, es: c * sp.Mul(*(g ** e for g, e in zip(gens, es))), coeffs, exps)


def _polynomials(gens, coeffs=_COEFFS, max_terms=3):
    """Sums of up to ``max_terms`` monomials; the empty sum is zero."""
    return st.lists(_monomials(gens, coeffs), max_size=max_terms).map(lambda ms: sp.Add(*ms))


def _assert_cancelled_form(expr):
    # canonical runs cancel only where it changes something; the printed form
    # is the one that cancel on every input gives, to the last srepr node
    assert sp.srepr(ness.canonical(expr)) == sp.srepr(cancelled_normal_form(expr))


_TRIG = (sp.cos(ALPHA), sp.sin(ALPHA), T_LEFT, T_RIGHT)


@settings(max_examples=20, deadline=None)
@given(_polynomials(_TRIG), _monomials(_TRIG, _COEFFS.filter(bool)), _polynomials(_TRIG))
def test_zero_test_is_exact_modulo_the_pythagorean_relation(q, monomial, p):
    zero = q * (sp.sin(ALPHA) ** 2 + sp.cos(ALPHA) ** 2 - 1)
    assert ness.canonical(zero) == 0
    assert ness.canonical(zero + monomial) != 0
    # the two verdicts agree, also where p cancels by itself
    assert (ness.canonical(zero + p) == 0) == (sp.simplify(zero + p) == 0)
    for expr in (zero, zero + monomial, zero + p):
        _assert_cancelled_form(expr)


_ROTATION = su2k.RotationParams.symbolic()
_SU2K = (su2k.S_PARAM, su2k.RR_PARAM, T_LEFT, T_RIGHT)


def _su2k_zero(expr):
    return ness.canonical(su2k._reduce_s(expr, _ROTATION)) == 0


@settings(max_examples=30, deadline=None)
@given(_polynomials(_SU2K), _monomials(_SU2K, _COEFFS.filter(bool)), _polynomials(_SU2K))
def test_su2k_zero_test_is_exact_modulo_the_rotation_constraint(q, monomial, p):
    zero = q * (su2k.S_PARAM ** 2 + su2k.RR_PARAM - 1)
    assert _su2k_zero(zero)
    assert not _su2k_zero(zero + monomial)
    # sp.simplify knows nothing of s^2 + r rbar = 1, so the oracle sees the rewritten form
    assert _su2k_zero(zero + p) == (sp.simplify(su2k._reduce_s(zero + p, _ROTATION)) == 0)


# the constants a coefficient of the symbolic layer holds besides a rational
_CONSTANTS = st.sampled_from((1, sp.I, sp.pi, sp.sqrt(2), sp.I * sp.pi / sp.sqrt(2), 1 / sp.pi))
# what su2k divides by: k, and k + 2 from the parafermion central charge
_K_DENOMINATORS = st.sampled_from((su2k.K_PARAM, 2 * su2k.K_PARAM, su2k.K_PARAM + 2,
                                   su2k.K_PARAM * (su2k.K_PARAM + 2)))


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    # exact coefficients with I, pi and sqrt(2), as ness builds them, and a 1/pi that cancel clears
    _polynomials(_TRIG, st.builds(lambda c, k: c * k, _COEFFS, _CONSTANTS)),
    # Float coefficients, alone and next to exact ones, as float angles and temperatures give
    _polynomials(_TRIG, _FLOATS),
    _polynomials(_TRIG, st.one_of(_COEFFS, _FLOATS), max_terms=4),
    # rational functions of k, as su2k builds them
    st.lists(st.builds(lambda p, d: p / d, _polynomials(_SU2K + (su2k.K_PARAM,)), _K_DENOMINATORS),
             max_size=3).map(lambda fs: sp.Add(*fs)),
))
@example(2 * X)
@example(2.0 * X)
@example(T_LEFT + sp.I * T_LEFT / 2)
def test_normal_form_is_the_cancelled_form(expr):
    # the first two examples share one memo: sympy equality is structural, so
    # the Float coefficient never gets the Rational one's form, nor the
    # reverse; the third is a complex coefficient that only cancel clears,
    # T_l (2 + I)/2 and not T_l (1 + I/2)
    _assert_cancelled_form(expr)
