"""Defect map construction and every algebraic consistency check."""

import math
from fractions import Fraction

import pytest

from neqcft import defect, fock
from neqcft.defect import (REFLECTION, TRANSMISSION, BogoliubovSpec,
                           DefectRealization, FusionRing, build_mode_automorphism,
                           build_theta_fermion, check_intertwining,
                           check_momentum_continuity, check_ope_preservation,
                           compose_defects, ising_ring, solve_reflection_phases,
                           trivial_ring, vacuum_preservation_deviation,
                           z3_parafermion_ring)
from neqcft.fock import GradedOperator, StateVector

HALF = Fraction(1, 2)

RATIONAL_POINTS = [
    BogoliubovSpec(Fraction(1), Fraction(0)),
    BogoliubovSpec(Fraction(0), Fraction(1)),
    BogoliubovSpec(Fraction(3, 5), Fraction(4, 5)),
    BogoliubovSpec(Fraction(4, 5), Fraction(3, 5)),
    BogoliubovSpec(Fraction(5, 13), Fraction(12, 13)),
    BogoliubovSpec(Fraction(12, 13), Fraction(5, 13)),
    BogoliubovSpec(Fraction(8, 17), Fraction(15, 17)),
    BogoliubovSpec(Fraction(20, 29), Fraction(21, 29)),
]


def _conjugated_mode(real, factor, value):
    space = real.space
    fact = space.left if factor == "A" else space.right
    pos = "left" if factor == "A" else "right"
    m = fock.graded_tensor(fock.mode_operator(fact, value), pos, space)
    inv = fock.invert_graded(real.theta)
    return real.theta @ m @ inv


def test_spec_validation():
    with pytest.raises(ValueError):
        BogoliubovSpec(Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        BogoliubovSpec(0.9, 0.9)
    spec = BogoliubovSpec(Fraction(3, 5), Fraction(4, 5))
    m = spec.mode_matrix
    # orthogonal with determinant one
    assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1
    assert m[0][0] * m[0][1] + m[1][0] * m[1][1] == 0


@pytest.mark.parametrize("cos_sin", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0)])
def test_spec_rejects_non_finite_floats(cos_sin):
    # abs(nan) > tol is False, so the tolerance check alone lets NaN through
    with pytest.raises(ValueError, match="finite"):
        BogoliubovSpec(*cos_sin)


def test_transmission_relabels_sides():
    # at cos=1 the map is the identity matrix: the incoming right fermion is
    # read out as the outgoing left one with no mixing
    real = build_theta_fermion(TRANSMISSION, 3)
    ident = GradedOperator.identity(real.space)
    assert (real.theta - ident).max_abs_entry() == 0


def test_reflection_action_on_modes():
    # pure reflection: chiral slot B maps to anti-chiral slot A with +1,
    # A maps to B with -1
    real = build_theta_fermion(REFLECTION, 3)
    space = real.space
    for value in (-HALF, Fraction(-3, 2)):
        conj_b = _conjugated_mode(real, "B", value)
        target = fock.graded_tensor(fock.mode_operator(space.left, value), "left", space)
        assert (conj_b - target).max_abs_entry(max_col_level=space.cutoff - abs(value)) == 0
        conj_a = _conjugated_mode(real, "A", value)
        target = fock.graded_tensor(fock.mode_operator(space.right, value), "right", space)
        assert (conj_a + target).max_abs_entry(max_col_level=space.cutoff - abs(value)) == 0


def test_reflection_factorizes():
    real = build_theta_fermion(REFLECTION, 4)
    assert defect.reflection_block_mixing(real) == 0


def test_generic_angle_does_not_factorize():
    real = build_theta_fermion(BogoliubovSpec(Fraction(3, 5), Fraction(4, 5)), 4)
    assert defect.reflection_block_mixing(real) != 0


def test_vacuum_preserved_for_every_angle():
    for spec in RATIONAL_POINTS:
        real = build_theta_fermion(spec, 3)
        assert vacuum_preservation_deviation(real) == 0


def test_realization_is_level_and_parity_preserving():
    real = build_theta_fermion(BogoliubovSpec(Fraction(3, 5), Fraction(4, 5)), 4)
    assert real.theta.level_shift == 0 and real.theta.parity_shift == 0
    real.theta.check_grading()


def test_mode_conjugation_matches_defining_relations():
    spec = BogoliubovSpec(Fraction(3, 5), Fraction(4, 5))
    real = build_theta_fermion(spec, 3)
    space = real.space
    c, s = spec.cos_a, spec.sin_a
    for value in (-HALF, HALF, Fraction(-3, 2)):
        ma = fock.graded_tensor(fock.mode_operator(space.left, value), "left", space)
        mb = fock.graded_tensor(fock.mode_operator(space.right, value), "right", space)
        safe = space.cutoff - abs(value)
        # incoming anti-chiral left -> cos * (anti-chiral right) - sin * (chiral left)
        assert ((_conjugated_mode(real, "A", value) - (c * ma - s * mb))
                .max_abs_entry(max_col_level=safe)) == 0
        # incoming chiral right -> cos * (chiral left) + sin * (anti-chiral right)
        assert ((_conjugated_mode(real, "B", value) - (s * ma + c * mb))
                .max_abs_entry(max_col_level=safe)) == 0


def test_intertwining_exact_on_rational_grid():
    for spec in RATIONAL_POINTS:
        real = build_theta_fermion(spec, 5)
        for n in range(-2, 3):
            assert check_intertwining(real, n) == 0, (spec, n)


def test_intertwining_float_angles():
    for alpha in (0.3, 1.1):
        real = build_theta_fermion(BogoliubovSpec.from_angle(alpha), 4)
        for n in range(-2, 3):
            assert abs(check_intertwining(real, n)) <= 1e-12


def test_intertwining_empty_safe_subspace():
    real = build_theta_fermion(TRANSMISSION, 2)
    with pytest.raises(ValueError, match="safe subspace"):
        check_intertwining(real, 3)
    with pytest.raises(ValueError, match="exceeds"):
        check_intertwining(real, 1, cutoff=5)


def test_intertwining_at_larger_cutoff():
    real = build_theta_fermion(BogoliubovSpec(Fraction(3, 5), Fraction(4, 5)), 6)
    assert check_intertwining(real, -2) == 0
    assert check_intertwining(real, 2) == 0


def test_level_preservation_n_zero():
    real = build_theta_fermion(BogoliubovSpec.from_angle(0.7), 4)
    assert abs(check_intertwining(real, 0)) <= 1e-12


def test_momentum_continuity():
    assert check_momentum_continuity(build_theta_fermion(BogoliubovSpec.from_angle(math.pi / 4), 4))
    assert check_momentum_continuity(build_theta_fermion(BogoliubovSpec(Fraction(3, 5), Fraction(4, 5)), 4))
    assert check_momentum_continuity(build_theta_fermion(TRANSMISSION, 4))
    assert check_momentum_continuity(build_theta_fermion(REFLECTION, 4))


def test_transmission_maps_stress_sidewise():
    # at full transmission each one-sided stress state passes through
    # unchanged: the incoming right stress reads as the outgoing left one
    real = build_theta_fermion(TRANSMISSION, 4)
    space = real.space
    from neqcft import virasoro
    gen = virasoro.build_virasoro("fermion", -2, space.right)
    for pos in ("left", "right"):
        state = fock.graded_tensor(gen, pos, space).apply(StateVector.vacuum(space))
        assert real.theta.apply(state) == state


def test_reflection_swaps_stress_chirality():
    # at pure reflection the incoming right stress maps to the outgoing
    # anti-chiral right one: the chiral-slot state lands in the anti-chiral
    # slot with coefficient +1
    real = build_theta_fermion(REFLECTION, 4)
    space = real.space
    from neqcft import virasoro
    gen = virasoro.build_virasoro("fermion", -2, space.right)
    incoming = fock.graded_tensor(gen, "right", space).apply(StateVector.vacuum(space))
    outgoing = fock.graded_tensor(gen, "left", space).apply(StateVector.vacuum(space))
    image = real.theta.apply(incoming)
    assert image == outgoing


def test_composition_law():
    a = BogoliubovSpec(Fraction(3, 5), Fraction(4, 5))
    b = BogoliubovSpec(Fraction(5, 13), Fraction(12, 13))
    ra = build_theta_fermion(a, 4)
    rb = build_theta_fermion(b, 4)
    combined = compose_defects(ra, rb)
    direct = build_theta_fermion(a.compose(b), 4)
    assert defect.max_matrix_deviation(combined, direct) == 0


def test_composition_law_float():
    ra = build_theta_fermion(BogoliubovSpec.from_angle(0.4), 3)
    rb = build_theta_fermion(BogoliubovSpec.from_angle(0.9), 3)
    direct = build_theta_fermion(BogoliubovSpec.from_angle(1.3), 3)
    assert defect.max_matrix_deviation(compose_defects(ra, rb), direct) <= 1e-12


def test_inverse_law():
    spec = BogoliubovSpec(Fraction(8, 17), Fraction(15, 17))
    real = build_theta_fermion(spec, 4)
    inv = build_theta_fermion(spec.inverse(), 4)
    ident = DefectRealization(real.space, GradedOperator.identity(real.space))
    assert defect.max_matrix_deviation(compose_defects(real, inv), ident) == 0
    assert defect.max_matrix_deviation(compose_defects(inv, real), ident) == 0


def test_compose_refuses_foreign_spaces():
    fermions = fock.enumerate_basis("fermion", 2)
    bosons = fock.enumerate_basis("boson", 2)
    a = DefectRealization(fermions, GradedOperator.identity(fermions))
    b = DefectRealization(bosons, GradedOperator.identity(bosons))
    with pytest.raises(ValueError):
        compose_defects(a, b)


def test_invertible_on_every_level_block():
    real = build_theta_fermion(BogoliubovSpec(Fraction(20, 29), Fraction(21, 29)), 4)
    # invert_graded raises on a singular level block, and its result is exact
    inv = fock.invert_graded(real.theta)
    ident = GradedOperator.identity(real.space)
    assert (inv @ real.theta - ident).max_abs_entry() == 0
    assert (real.theta @ inv - ident).max_abs_entry() == 0


def test_ope_preservation_zero_for_rotations():
    for spec in (TRANSMISSION, REFLECTION, BogoliubovSpec(Fraction(3, 5), Fraction(4, 5))):
        real = build_theta_fermion(spec, 3)
        assert check_ope_preservation(real) == 0


def test_ope_preservation_mixed_pair_stays_zero():
    # cross-slot anticommutators vanish before and after conjugation
    real = build_theta_fermion(BogoliubovSpec.from_angle(0.3), 3)
    assert abs(check_ope_preservation(real)) <= 1e-12


def test_negative_control_nonorthogonal_matrix():
    # 1% skew on the mode matrix: conjugation no longer preserves the algebra,
    # and the stress state built by L_-2 detects the broken metric
    c, s = Fraction(3, 5), Fraction(4, 5)
    skewed = [[c, -s + Fraction(1, 100)], [s, c]]
    real = build_mode_automorphism(skewed, 3)
    assert check_ope_preservation(real) != 0
    assert check_intertwining(real, -2) != 0


def test_negative_control_skewed_realization_fails_all_three():
    spec = BogoliubovSpec(Fraction(3, 5), Fraction(4, 5))
    cutoff = 3
    real = build_theta_fermion(spec, cutoff)
    theta = real.theta * 1
    for i in range(min(real.space.dimension - 1, 12)):
        theta.add_entry(i + 1, i, Fraction(1, 100))
    broken = DefectRealization(real.space, theta, None)
    # identity preservation fails
    assert vacuum_preservation_deviation(broken) != 0
    # anticommutator preservation fails
    assert check_ope_preservation(broken) != 0
    # composition law fails
    other = build_theta_fermion(BogoliubovSpec(Fraction(5, 13), Fraction(12, 13)), cutoff)
    direct = build_theta_fermion(spec.compose(other.source), cutoff)
    assert defect.max_matrix_deviation(compose_defects(broken, other), direct) != 0


# ---------------------------------------------------------------------------
# reflection phases

def test_trivial_ring_has_only_the_identity_phase():
    sols = solve_reflection_phases(trivial_ring())
    assert len(sols) == 1
    assert sols[0].zetas == {"1": Fraction(0)}


def test_ising_ring_phases_are_signs():
    sols = solve_reflection_phases(ising_ring())
    phases = sorted(s.zetas["psi"] for s in sols)
    assert phases == [Fraction(0), Fraction(1, 2)]  # +1 and -1
    assert all(s.zetas["1"] == 0 for s in sols)


def test_z3_ring_phases_are_cube_roots():
    sols = solve_reflection_phases(z3_parafermion_ring())
    phases = sorted(s.zetas["psi1"] for s in sols)
    assert phases == [Fraction(0), Fraction(1, 3), Fraction(2, 3)]
    for s in sols:
        # conjugate sector carries the conjugate phase
        assert s.zetas["psi2"] == (-s.zetas["psi1"]) % 1


def test_phase_bound_filters_high_order_solutions():
    ring = FusionRing(labels=("1", "p1", "p2", "p3", "p4"), identity="1",
                      pattern=frozenset({("1", "1", "1"),
                                         ("p1", "p1", "p2"), ("p1", "p2", "p3"),
                                         ("p1", "p3", "p4"), ("p1", "p4", "1"),
                                         ("p4", "p1", "1"), ("p2", "p3", "1"),
                                         ("p3", "p2", "1"),
                                         ("1", "p1", "p1"), ("1", "p2", "p2"),
                                         ("1", "p3", "p3"), ("1", "p4", "p4")},),
                      conjugation={"1": "1", "p1": "p4", "p2": "p3", "p3": "p2", "p4": "p1"})
    # Z5-type constraints: solutions are fifth roots; with max_order 4 only
    # the trivial assignment survives
    low = solve_reflection_phases(ring, max_order=4)
    assert len(low) == 1 and all(p == 0 for p in low[0].zetas.values())
    full = solve_reflection_phases(ring, max_order=5)
    assert sorted(s.zetas["p1"] for s in full) == [Fraction(0), Fraction(1, 5),
                                                   Fraction(2, 5), Fraction(3, 5),
                                                   Fraction(4, 5)]


def test_ring_validation():
    with pytest.raises(ValueError, match="involution"):
        FusionRing(labels=("1", "a", "b"), identity="1",
                   pattern=frozenset({("1", "1", "1"), ("a", "b", "1"), ("b", "a", "1")}),
                   conjugation={"1": "1", "a": "b", "b": "a2"})
    with pytest.raises(ValueError, match="identity"):
        FusionRing(labels=("1", "a"), identity="1",
                   pattern=frozenset({("1", "1", "1")}),
                   conjugation={"1": "1", "a": "a"})


def test_ring_json_round_trip():
    text = """{
      "labels": ["1", "psi"],
      "identity": "1",
      "fusion": [["1","1","1"], ["1","psi","psi"], ["psi","1","psi"], ["psi","psi","1"]],
      "conjugation": {"1": "1", "psi": "psi"}
    }"""
    ring = FusionRing.from_json(text)
    sols = solve_reflection_phases(ring)
    assert sorted(s.zetas["psi"] for s in sols) == [Fraction(0), Fraction(1, 2)]
