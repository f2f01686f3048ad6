"""Defect map construction and every algebraic consistency check."""

import functools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neqcft import cli, defect, fock
from neqcft.defect import (REFLECTION, TRANSMISSION, BogoliubovSpec,
                           DefectRealization, FusionRing, build_mode_automorphism,
                           build_theta_fermion, check_intertwining,
                           check_momentum_continuity, check_ope_preservation,
                           ising_ring, solve_reflection_phases,
                           trivial_ring, vacuum_preservation_deviation,
                           z3_parafermion_ring)
from neqcft.fock import GradedOperator
from oracles import check_grading, max_matrix_deviation, reflection_block_mixing

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


def test_exact_operators_store_ints_over_one_denominator():
    # the exact layer's storage, checked without a timer: a regression to
    # per-entry Fraction storage fails here
    real = build_theta_fermion(BogoliubovSpec(Fraction(3, 5), Fraction(4, 5)), 4)
    space = real.space
    stored = [(real.theta, 625)]
    stored += [(fock.mode_operator(space.left, v), 1) for v in fock.mode_values("fermion", 4)]
    stored += [(defect.total_virasoro(space, n), 2) for n in range(-2, 3)]
    for op, den in stored:
        assert op.exact and den % op.denominator == 0
        assert all(type(v) is int for c in op.columns.values() for v in c.values())


def test_skewed_operators_store_ints_beside_floats():
    # the skewed control of the CLI, checked without a timer: its exact
    # entries stay int numerators, so a regression to per-entry Fraction
    # storage fails here, and only the skew entries are floats
    real = build_theta_fermion(BogoliubovSpec(Fraction(3, 5), Fraction(4, 5)), 4)
    theta = cli._skewed(real, 0.01).theta
    for op in (theta, fock.invert_graded(theta), theta @ defect.total_virasoro(real.space, 1)):
        assert not op.exact
        assert {type(v) for c in op.columns.values() for v in c.values()} == {int, float}
    floats = {(row, col) for col, c in theta.columns.items() for row, v in c.items()
              if type(v) is float}
    assert floats == {(i + 1, i) for i in range(12)}


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
    assert reflection_block_mixing(real) == 0


def test_generic_angle_does_not_factorize():
    real = build_theta_fermion(BogoliubovSpec(Fraction(3, 5), Fraction(4, 5)), 4)
    assert reflection_block_mixing(real) != 0


def test_vacuum_preserved_for_every_angle():
    for spec in RATIONAL_POINTS:
        real = build_theta_fermion(spec, 3)
        assert vacuum_preservation_deviation(real) == 0


def test_realization_is_level_and_parity_preserving():
    real = build_theta_fermion(BogoliubovSpec(Fraction(3, 5), Fraction(4, 5)), 4)
    assert real.theta.level_shift == 0 and real.theta.parity_shift == 0
    check_grading(real.theta)


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


# oracles for the column-restricted checks: form every product in full,
# then mask the columns above the safe level

def _intertwining_full(real, n):
    ltot = defect.total_virasoro(real.space, n)
    comm = real.theta @ ltot - ltot @ real.theta
    return comm.max_abs_entry(max_col_level=real.space.cutoff - abs(n))


def _ope_full(real):
    space, theta = real.space, real.theta
    raw, images = defect._mode_images(space, fock.mode_values("fermion", Fraction(3, 2)),
                                      real.mode_map)
    if images is None:
        inv = fock.invert_graded(theta)
        images = {k: theta @ op @ inv for k, op in raw.items()}
    dev = 0
    for a in raw:
        resid = theta @ raw[a] - images[a] @ theta
        dev = max(dev, resid.max_abs_entry(max_col_level=space.cutoff - abs(a[1])))
        for b in raw:
            anti = images[a] @ images[b] + images[b] @ images[a]
            if a[0] == b[0] and a[1] + b[1] == 0:
                anti = anti - GradedOperator.identity(space)
            safe = space.cutoff - max(abs(a[1]), abs(b[1]))
            dev = max(dev, anti.max_abs_entry(max_col_level=safe))
    return dev


@st.composite
def pythagorean_points(draw):
    # (p^2 - q^2, 2pq) / (p^2 + q^2), with random signs and order
    p = draw(st.integers(1, 9))
    q = draw(st.integers(0, 9))
    a, b, c = p * p - q * q, 2 * p * q, p * p + q * q
    if draw(st.booleans()):
        a, b = b, a
    return BogoliubovSpec(Fraction(draw(st.sampled_from((1, -1))) * a, c),
                          Fraction(draw(st.sampled_from((1, -1))) * b, c))


def _rotation(spec):
    c, s = spec.cos_a, spec.sin_a
    return [[c, -s], [s, c]]


_ENTRIES = st.fractions(min_value=-2, max_value=2, max_denominator=12)


@st.composite
def mode_matrices(draw):
    """Exact and float rotations, a skewed rotation, and general and singular 2x2 matrices."""
    kind = draw(st.sampled_from(("exact", "float", "skew", "general", "singular")))
    if kind == "exact":
        return _rotation(draw(pythagorean_points()))
    if kind == "float":
        return _rotation(BogoliubovSpec.from_angle(draw(st.floats(-math.pi, math.pi))))
    if kind == "skew":
        m = _rotation(draw(pythagorean_points()))
        m[0][1] += draw(_ENTRIES.filter(bool)) / 50
        return m
    entries = st.one_of(_ENTRIES, st.floats(-2, 2))
    a, b, k = draw(entries), draw(entries), draw(entries)
    if kind == "singular":
        return [[a, b], [k * a, k * b]]
    return [[a, b], [k, draw(entries)]]


def _theta_oracle(matrix, cutoff):
    """Theta without reusing a column: each state's mode images applied to the vacuum, right to left."""
    space = defect.scattering_space(cutoff)

    @functools.cache
    def image(factor, value):
        a = fock.graded_tensor(fock.mode_operator(space.left, value), "left", space)
        b = fock.graded_tensor(fock.mode_operator(space.right, value), "right", space)
        row = matrix[0] if factor == "A" else matrix[1]
        return row[0] * a + row[1] * b

    vacuum = GradedOperator.identity(space).restrict_columns(0)
    columns = {}
    for col, (i, j) in enumerate(space.pairs):
        modes = [("A", v) for v in space.left.states[i].occupied]
        modes += [("B", v) for v in space.right.states[j].occupied]
        state = functools.reduce(lambda acc, key: image(*key) @ acc, reversed(modes), vacuum)
        column = state.column(space.vacuum_index)
        if column:
            columns[col] = column
    return columns


def _typed_entries(columns):
    return [(col, [(row, val, type(val)) for row, val in c.items()]) for col, c in columns.items()]


@settings(max_examples=30, deadline=None)
@given(mode_matrices(), st.integers(1, 6))
def test_mode_automorphism_matches_vacuum_walk_oracle(matrix, cutoff):
    # same values, same types and same order of columns and rows, so the
    # float reports built on Theta keep their trailing digits
    theta = build_mode_automorphism(matrix, cutoff).theta
    assert _typed_entries(theta.to_dict()) == _typed_entries(_theta_oracle(matrix, cutoff))


@settings(max_examples=25, deadline=None)
@given(pythagorean_points(), st.integers(2, 5), st.integers(-2, 2))
def test_intertwining_on_random_pythagorean_points(spec, cutoff, n):
    real = build_theta_fermion(spec, cutoff)
    assert check_intertwining(real, n) == 0 == _intertwining_full(real, n)


@settings(max_examples=10, deadline=None)
@given(pythagorean_points(), st.integers(1, 4))
def test_ope_preservation_on_random_pythagorean_points(spec, cutoff):
    real = build_theta_fermion(spec, cutoff)
    assert check_ope_preservation(real) == 0 == _ope_full(real)


@settings(max_examples=8, deadline=None)
@given(pythagorean_points(), st.integers(3, 4), st.integers(-2, 0), st.integers(1, 12),
       st.fractions(min_value=Fraction(-1, 2), max_value=HALF, max_denominator=100).filter(bool))
def test_skewed_realizations_deviate_alike_with_and_without_restriction(spec, cutoff, n, count, eps):
    # the corruption of `--skew`: eps on the first `count` subdiagonal entries.
    # Theta|0> picks up eps |1>, and L_n |1> != 0 for n <= 0, so the vacuum
    # column alone makes the deviation nonzero.  Theta is orthogonal and the
    # corruption has norm |eps| < 1, so every level block stays invertible.
    real = build_theta_fermion(spec, cutoff)
    theta = real.theta * 1
    for i in range(count):
        theta.add_entry(i + 1, i, eps)
    broken = DefectRealization(real.space, theta, None)
    dev = check_intertwining(broken, n)
    assert dev != 0 and dev == _intertwining_full(broken, n)
    assert check_ope_preservation(broken) == _ope_full(broken) != 0


def test_intertwining_float_angles():
    for alpha in (0.3, 1.1):
        real = build_theta_fermion(BogoliubovSpec.from_angle(alpha), 4)
        for n in range(-2, 3):
            assert abs(check_intertwining(real, n)) <= 1e-12


def test_intertwining_empty_safe_subspace():
    real = build_theta_fermion(TRANSMISSION, 2)
    with pytest.raises(ValueError, match="safe subspace"):
        check_intertwining(real, 3)


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
    vac = space.vacuum_index
    for pos in ("left", "right"):
        stress = fock.graded_tensor(gen, pos, space).restrict_columns(0)
        state = stress.column(vac)
        assert state and (real.theta @ stress).column(vac) == state


def test_reflection_swaps_stress_chirality():
    # at pure reflection the incoming right stress maps to the outgoing
    # anti-chiral right one: the chiral-slot state lands in the anti-chiral
    # slot with coefficient +1
    real = build_theta_fermion(REFLECTION, 4)
    space = real.space
    from neqcft import virasoro
    gen = virasoro.build_virasoro("fermion", -2, space.right)
    vac = space.vacuum_index
    incoming = fock.graded_tensor(gen, "right", space).restrict_columns(0)
    outgoing = fock.graded_tensor(gen, "left", space).column(vac)
    image = (real.theta @ incoming).column(vac)
    assert image == outgoing


@settings(max_examples=15, deadline=None)
@given(pythagorean_points(), pythagorean_points(), st.integers(2, 5))
def test_composition_law(a, b, cutoff):
    ra = build_theta_fermion(a, cutoff)
    rb = build_theta_fermion(b, cutoff)
    direct = build_theta_fermion(a.compose(b), cutoff)
    assert max_matrix_deviation(ra.theta @ rb.theta, direct.theta) == 0
    ident = DefectRealization(ra.space, GradedOperator.identity(ra.space))
    inv = build_theta_fermion(a.inverse(), cutoff)
    assert max_matrix_deviation(ra.theta @ inv.theta, ident.theta) == 0


def test_composition_law_float():
    ra = build_theta_fermion(BogoliubovSpec.from_angle(0.4), 3)
    rb = build_theta_fermion(BogoliubovSpec.from_angle(0.9), 3)
    direct = build_theta_fermion(BogoliubovSpec.from_angle(1.3), 3)
    assert max_matrix_deviation(ra.theta @ rb.theta, direct.theta) <= 1e-12


def test_inverse_law():
    spec = BogoliubovSpec(Fraction(8, 17), Fraction(15, 17))
    real = build_theta_fermion(spec, 4)
    inv = build_theta_fermion(spec.inverse(), 4)
    ident = DefectRealization(real.space, GradedOperator.identity(real.space))
    assert max_matrix_deviation(real.theta @ inv.theta, ident.theta) == 0
    assert max_matrix_deviation(inv.theta @ real.theta, ident.theta) == 0


def test_compose_refuses_foreign_spaces():
    fermions = fock.enumerate_basis("fermion", 2)
    bosons = fock.enumerate_basis("boson", 2)
    a = GradedOperator.identity(fermions)
    b = GradedOperator.identity(bosons)
    with pytest.raises(ValueError, match="do not compose"):
        a @ b


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
    assert not check_momentum_continuity(real)


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
    assert max_matrix_deviation(broken.theta @ other.theta, direct.theta) != 0


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


def _zn_ring(names, listed):
    """The Z_n fusion ring whose label ``names[j]`` stands for j mod n, its labels in the order ``listed``."""
    n = len(names)
    return FusionRing(labels=tuple(listed), identity=names[0],
                      pattern=frozenset((names[j], names[k], names[(j + k) % n])
                                        for j in range(n) for k in range(n)),
                      conjugation={names[j]: names[-j % n] for j in range(n)})


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 6), st.data())
def test_zn_ring_phases_are_exactly_the_nth_roots(n, data):
    # zeta_j = omega^j for the n n-th roots of unity omega, whatever the
    # labels are called and in whichever order they are listed
    names = data.draw(st.permutations([f"g{j}" for j in range(n)]))
    ring = _zn_ring(names, data.draw(st.permutations(names)))
    sols = solve_reflection_phases(ring, max_order=n)
    got = {tuple(s.zetas[names[j]] for j in range(n)) for s in sols}
    assert len(sols) == n
    assert got == {tuple(Fraction(p * j % n, n) for j in range(n)) for p in range(n)}


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


def test_phase_bound_below_one_is_refused():
    for max_order in (0, -3):
        with pytest.raises(ValueError, match="max_order must be >= 1"):
            solve_reflection_phases(ising_ring(), max_order=max_order)


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
