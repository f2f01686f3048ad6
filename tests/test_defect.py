"""Defect map construction and every algebraic consistency check."""

import functools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neqcft import defect, fock
from neqcft.defect import (BogoliubovSpec, DefectRealization, FusionRing, build_mode_automorphism,
                           build_theta_fermion, check_intertwining,
                           check_momentum_continuity, check_ope_preservation,
                           ising_ring, solve_reflection_phases,
                           trivial_ring, vacuum_preservation_deviation,
                           z3_parafermion_ring)
from neqcft.fock import GradedOperator
from oracles import (REFLECTION, TRANSMISSION, cell, check_grading, column, compose, inverse,
                     level_shift, max_matrix_deviation, mode_values, reflection_block_mixing,
                     to_dict, vacuum_index)

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


def _conjugated_mode(real, spec, k, value):
    # Theta(a)^-1 is Theta(-a), the inverse the group law gives
    space = real.theta.space
    m = fock.graded_tensor(fock.mode_operator(space.factors[k], value), k, space)
    inv = build_theta_fermion(inverse(spec), space.cutoff)
    return real.theta @ m @ inv.theta


def test_spec_validation():
    with pytest.raises(ValueError):
        BogoliubovSpec(Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        BogoliubovSpec(0.9, 0.9)
    spec = BogoliubovSpec(Fraction(3, 5), Fraction(4, 5))
    m = build_theta_fermion(spec, 1).mode_map
    # the map Theta is built from is orthogonal with determinant one
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
    space = real.theta.space
    stored = [(real.theta, 625)]
    stored += [(fock.mode_operator(space.factors[0], v), 1) for v in mode_values("fermion", 4)]
    stored += [(defect.total_virasoro(space, n), 2) for n in range(-2, 3)]
    for op, den in stored:
        assert op.exact and den % op.denominator == 0
        assert all(type(v) is int for c in op.columns.values() for v in c.values())


def test_skewed_operators_store_ints_beside_floats():
    # the skewed control of the CLI: an inexact operator holds only floats,
    # over denominator 1, and so do its products and sums with exact ones;
    # the skew lands on its 12 subdiagonal entries and nowhere else
    real = build_theta_fermion(BogoliubovSpec(Fraction(3, 5), Fraction(4, 5)), 4)
    theta = defect.skewed(real, 0.01).theta
    ltot = defect.total_virasoro(real.theta.space, 1)
    comm = theta @ ltot
    comm.accumulate(ltot @ theta, -1)
    for op in (theta, theta @ ltot, ltot @ theta, comm, theta - real.theta):
        assert not op.exact and op.denominator == 1
        assert {type(v) for c in op.columns.values() for v in c.values()} == {float}
    moved = {(row, col) for col, c in (theta - real.theta).columns.items() for row in c}
    assert moved == {(i + 1, i) for i in range(12)}


@pytest.mark.parametrize("spec", [BogoliubovSpec(Fraction(3, 5), Fraction(4, 5)),
                                  BogoliubovSpec.from_angle(0.7)])
def test_skewed_control_leaves_the_realization_it_breaks_unchanged(spec):
    # the skewed control is a new realization that claims the map of the one
    # it breaks, and shares no column map with it: the Theta it was built
    # from keeps its columns, their stored order and its denominator
    def stored(op):
        return [(j, list(c.items())) for j, c in op.columns.items()], op.denominator, op.exact

    real = build_theta_fermion(spec, 4)
    theta = real.theta
    before = stored(theta)
    broken = defect.skewed(real, 0.01)
    assert broken is not real and broken.theta is not theta
    assert broken.mode_map is real.mode_map
    assert stored(theta) == before
    assert not any(broken.theta.columns[j] is c for j, c in theta.columns.items())
    assert broken.theta.columns != theta.columns


def test_transmission_relabels_sides():
    # at cos=1 the map is the identity matrix: the incoming right fermion is
    # read out as the outgoing left one with no mixing
    real = build_theta_fermion(TRANSMISSION, 3)
    ident = GradedOperator.identity(real.theta.space)
    assert (real.theta - ident).max_abs_entry() == 0


def test_reflection_action_on_modes():
    # pure reflection: chiral factor 1 maps to anti-chiral factor 0 with +1,
    # factor 0 maps to factor 1 with -1
    real = build_theta_fermion(REFLECTION, 3)
    space = real.theta.space
    for value in (-HALF, Fraction(-3, 2)):
        conj_b = _conjugated_mode(real, REFLECTION, 1, value)
        target = fock.graded_tensor(fock.mode_operator(space.factors[0], value), 0, space)
        assert (conj_b - target).restrict_columns(space.cutoff - abs(value)).max_abs_entry() == 0
        conj_a = _conjugated_mode(real, REFLECTION, 0, value)
        target = fock.graded_tensor(fock.mode_operator(space.factors[1], value), 1, space)
        assert (conj_a + target).restrict_columns(space.cutoff - abs(value)).max_abs_entry() == 0


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


def test_vacuum_deviation_is_the_largest_entry_of_theta_minus_one_on_the_vacuum():
    real = build_theta_fermion(BogoliubovSpec(Fraction(3, 5), Fraction(4, 5)), 3)
    vac = vacuum_index(real.theta.space)
    cases = [
        (vac, -1, 1),                               # the vacuum column removed
        (vac, 1, 1),                                # the vacuum entry set to 2
        (1, Fraction(1, 100), Fraction(1, 100)),    # a stray exact entry
        (1, 0.01, 0.01),                            # a stray float entry
    ]
    for row, value, want in cases:
        theta = real.theta + cell(real.theta, row, vac, value)
        assert (vac in theta.columns) == (value != -1)
        dev = vacuum_preservation_deviation(DefectRealization(theta, real.mode_map))
        # the report prints str(dev): a float stays a float, an exact value a fraction
        assert dev == want and str(dev) == str(want), (row, value)


def test_realization_is_level_and_parity_preserving():
    real = build_theta_fermion(BogoliubovSpec(Fraction(3, 5), Fraction(4, 5)), 4)
    assert level_shift(real.theta) == 0 and real.theta.parity_shift == 0
    check_grading(real.theta)


def test_mode_conjugation_matches_defining_relations():
    spec = BogoliubovSpec(Fraction(3, 5), Fraction(4, 5))
    real = build_theta_fermion(spec, 3)
    space = real.theta.space
    c, s = spec.cos_a, spec.sin_a
    for value in (-HALF, HALF, Fraction(-3, 2)):
        ma = fock.graded_tensor(fock.mode_operator(space.factors[0], value), 0, space)
        mb = fock.graded_tensor(fock.mode_operator(space.factors[1], value), 1, space)
        safe = space.cutoff - abs(value)
        # incoming anti-chiral left -> cos * (anti-chiral right) - sin * (chiral left)
        resid = _conjugated_mode(real, spec, 0, value)
        resid.accumulate(ma, -c)
        resid.accumulate(mb, s)
        assert resid.restrict_columns(safe).max_abs_entry() == 0
        # incoming chiral right -> cos * (chiral left) + sin * (anti-chiral right)
        resid = _conjugated_mode(real, spec, 1, value)
        resid.accumulate(ma, -s)
        resid.accumulate(mb, -c)
        assert resid.restrict_columns(safe).max_abs_entry() == 0


def test_intertwining_exact_on_rational_grid():
    for spec in RATIONAL_POINTS:
        real = build_theta_fermion(spec, 5)
        for n in range(-2, 3):
            assert check_intertwining(real, n) == 0, (spec, n)


# oracles for the column-restricted checks: form every product in full,
# then mask the columns above the safe level

def _intertwining_full(real, n):
    ltot = defect.total_virasoro(real.theta.space, n)
    comm = real.theta @ ltot - ltot @ real.theta
    return comm.restrict_columns(real.theta.space.cutoff - abs(n)).max_abs_entry()


def _image(space, row, value):
    """row[0] c^0_value + row[1] c^1_value, each embedded mode accumulated with its nonzero coefficient."""
    out = GradedOperator(space, -int(2 * value), 1, {})
    for k, x in enumerate(row):
        if x:
            out.accumulate(fock.graded_tensor(fock.mode_operator(space.factors[k], value), k, space), x)
    return out


def _ope_full(real):
    # every ordered pair, the images as accumulated sums, and the full
    # products masked to the safe columns afterwards
    space, theta, matrix = real.theta.space, real.theta, real.mode_map
    values = mode_values("fermion", Fraction(3, 2))
    raw = {(k, v): fock.graded_tensor(fock.mode_operator(space.factors[k], v), k, space)
           for v in values for k in (0, 1)}
    images = {(k, v): _image(space, matrix[k], v) for k, v in raw}
    dev = 0
    keys = sorted(raw, key=str)
    for a in keys:
        resid = theta @ raw[a] - images[a] @ theta
        dev = max(dev, resid.restrict_columns(space.cutoff - abs(a[1])).max_abs_entry())
        for b in keys:
            anti = images[a] @ images[b] + images[b] @ images[a]
            if a[0] == b[0] and a[1] + b[1] == 0:
                anti = anti - GradedOperator.identity(space)
            safe = space.cutoff - max(abs(a[1]), abs(b[1]))
            dev = max(dev, anti.restrict_columns(safe).max_abs_entry())
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
    """Theta without reusing a column: each state's mode images applied to the vacuum, right to left.

    A nonzero float in the matrix makes Theta inexact, and then every column
    is per-entry float arithmetic from the vacuum up, each exact entry of a
    mode image read as n / d.
    """
    space = defect.scattering_space(cutoff)
    inexact = any(type(x) is float and x for row in matrix for x in row)

    @functools.cache
    def image(k, value):
        op = _image(space, matrix[k], value)
        return op.floats() if inexact else op

    vacuum = GradedOperator.identity(space).restrict_columns(0)
    if inexact:
        vacuum = vacuum.floats()
    columns = {}
    for col, (i, j) in enumerate(space.states):
        modes = [(0, Fraction(t, 2)) for t in space.factors[0].states[i]]
        modes += [(1, Fraction(t, 2)) for t in space.factors[1].states[j]]
        state = functools.reduce(lambda acc, key: image(*key) @ acc, reversed(modes), vacuum)
        image_column = column(state, vacuum_index(space))
        if image_column:
            columns[col] = image_column
    return columns


def _typed_entries(columns):
    return [(col, [(row, val, type(val)) for row, val in c.items()]) for col, c in columns.items()]


@settings(max_examples=30, deadline=None)
@given(mode_matrices(), st.integers(1, 6))
def test_mode_automorphism_matches_vacuum_walk_oracle(matrix, cutoff):
    # same values, same types and same order of columns and rows, so the
    # float reports built on Theta keep their trailing digits; a float Theta
    # holds only floats
    theta = build_mode_automorphism(matrix, cutoff).theta
    assert _typed_entries(to_dict(theta)) == _typed_entries(_theta_oracle(matrix, cutoff))


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
    # column alone makes the deviation nonzero.  The broken Theta keeps the
    # rotation it was built from, and misses it by the corruption.
    real = build_theta_fermion(spec, cutoff)
    skew = GradedOperator(real.theta.space, 0, 0, {i: {i + 1: eps.numerator} for i in range(count)},
                          eps.denominator)
    broken = DefectRealization(real.theta + skew, real.mode_map)
    dev = check_intertwining(broken, n)
    assert dev != 0 and dev == _intertwining_full(broken, n)
    assert check_ope_preservation(broken) == _ope_full(broken) != 0


def _abs(op):
    """The exact operator of the absolute values of an exact operator's entries."""
    return GradedOperator(op.space, op.twice_shift, op.parity_shift,
                          {j: {r: abs(v) for r, v in c.items()} for j, c in op.columns.items()},
                          op.denominator)


def _largest(a, y):
    """The largest entry of |a| |y| + |y| |a|, for exact operators."""
    m = _abs(a) @ _abs(y)
    m.accumulate(_abs(y) @ _abs(a))
    return m.max_abs_entry()


@settings(max_examples=10, deadline=None)
@given(pythagorean_points(), st.integers(3, 4),
       st.one_of(st.floats(1e-3, 0.5), st.floats(-0.5, -1e-3)))
def test_skewed_control_at_an_exact_point_loses_only_rounding(spec, cutoff, eps):
    # `--skew` in floats against the same control in exact arithmetic, with
    # the skew taken as Fraction(eps).  Each entry of a deviation operator is
    # D = P1 - P2, two products of the skewed Theta with an exact operator Y
    # (L_n; b_s and its image B_s), each a sum of at most K = dim terms.  With
    # u = 2^-53 and A = |Theta| + |skew| entrywise, a float of the skewed
    # Theta, fl(n/d) or fl(fl(n/d) + eps), is within 2u(1 + u) A of its exact
    # value, and an entry of Y, read as fl(n/d), within u |Y|.  The K-term
    # sums add gamma_K = K u / (1 - K u) and the subtraction one u more, so
    # |fl(D) - D| <= (K + 4) u M to first order, M the entry of A|Y| + |Y|A;
    # K + 6 covers the higher orders.  The largest |entry| moves by at most
    # the largest move of an entry, so the deviation keeps a relative error
    # of at most (K + 6) u M / D: the float path loses only rounding.
    real = build_theta_fermion(spec, cutoff)
    space = real.theta.space
    q = Fraction(eps)
    skew = GradedOperator(space, 0, 0, {i: {i + 1: q.numerator}
                                        for i in range(min(space.dimension - 1, 12))},
                          q.denominator)
    exact = DefectRealization(real.theta + skew, real.mode_map)
    floats = defect.skewed(real, eps)
    assert exact.theta.exact and not floats.theta.exact
    a = _abs(real.theta) + _abs(skew)
    unit = (space.dimension + 6) * Fraction(1, 2 ** 53)
    for n in range(-2, 3):
        got, want = check_intertwining(floats, n), check_intertwining(exact, n)
        assert abs(Fraction(got) - want) <= unit * _largest(a, defect.total_virasoro(space, n)), n
    raw, images = defect._mode_images(space, fock.twice_mode_values("fermion", Fraction(3, 2)),
                                      real.mode_map)
    # the anticommutators of the images are exact on both paths
    got, want = check_ope_preservation(floats), check_ope_preservation(exact)
    assert want != 0
    assert abs(Fraction(got) - want) <= unit * max(_largest(a, raw[k]) + _largest(a, images[k])
                                                   for k in raw)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(("alpha", "skew", "alpha-skew")), st.floats(-3.0, 3.0),
       st.sampled_from(RATIONAL_POINTS), st.sampled_from([Fraction(t, 2) for t in range(2, 9)]),
       st.one_of(st.floats(1e-3, 0.5), st.floats(-0.5, -1e-3)))
def test_ope_preservation_matches_full_products_on_float_and_skewed_maps(kind, alpha, spec,
                                                                        cutoff, eps):
    # the float path of `--alpha` and the float corruption of `--skew`: each
    # unordered pair formed once gives the deviation, value and type, of
    # every ordered pair formed in full
    if kind != "skew":
        spec = BogoliubovSpec.from_angle(alpha)
    real = build_theta_fermion(spec, cutoff)
    if kind != "alpha":
        real = defect.skewed(real, eps)
    got, ref = check_ope_preservation(real), _ope_full(real)
    assert got == ref and type(got) is type(ref)


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
    space = real.theta.space
    from neqcft import virasoro
    gen = virasoro.build_virasoro("fermion", -2, space.factors[1])
    vac = vacuum_index(space)
    for k in (0, 1):
        stress = fock.graded_tensor(gen, k, space).restrict_columns(0)
        state = column(stress, vac)
        assert state and column(real.theta @ stress, vac) == state


def test_reflection_swaps_stress_chirality():
    # at pure reflection the incoming right stress maps to the outgoing
    # anti-chiral right one: the chiral-slot state lands in the anti-chiral
    # slot with coefficient +1
    real = build_theta_fermion(REFLECTION, 4)
    space = real.theta.space
    from neqcft import virasoro
    gen = virasoro.build_virasoro("fermion", -2, space.factors[1])
    vac = vacuum_index(space)
    incoming = fock.graded_tensor(gen, 1, space).restrict_columns(0)
    outgoing = column(fock.graded_tensor(gen, 0, space), vac)
    image = column(real.theta @ incoming, vac)
    assert image == outgoing


@settings(max_examples=15, deadline=None)
@given(pythagorean_points(), pythagorean_points(), st.integers(2, 5))
def test_composition_law(a, b, cutoff):
    ra = build_theta_fermion(a, cutoff)
    rb = build_theta_fermion(b, cutoff)
    direct = build_theta_fermion(compose(a, b), cutoff)
    assert max_matrix_deviation(ra.theta @ rb.theta, direct.theta) == 0
    ident = DefectRealization(GradedOperator.identity(ra.theta.space), _rotation(TRANSMISSION))
    inv = build_theta_fermion(inverse(a), cutoff)
    assert max_matrix_deviation(ra.theta @ inv.theta, ident.theta) == 0


def test_composition_law_float():
    ra = build_theta_fermion(BogoliubovSpec.from_angle(0.4), 3)
    rb = build_theta_fermion(BogoliubovSpec.from_angle(0.9), 3)
    direct = build_theta_fermion(BogoliubovSpec.from_angle(1.3), 3)
    assert max_matrix_deviation(ra.theta @ rb.theta, direct.theta) <= 1e-12


def test_inverse_law():
    spec = BogoliubovSpec(Fraction(8, 17), Fraction(15, 17))
    real = build_theta_fermion(spec, 4)
    inv = build_theta_fermion(inverse(spec), 4)
    ident = DefectRealization(GradedOperator.identity(real.theta.space), _rotation(TRANSMISSION))
    assert max_matrix_deviation(real.theta @ inv.theta, ident.theta) == 0
    assert max_matrix_deviation(inv.theta @ real.theta, ident.theta) == 0


def test_compose_refuses_foreign_spaces():
    fermions = fock.enumerate_basis("fermion", 2)
    bosons = fock.enumerate_basis("boson", 2)
    a = GradedOperator.identity(fermions)
    b = GradedOperator.identity(bosons)
    with pytest.raises(ValueError, match="do not compose"):
        a @ b


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
    space = real.theta.space
    skew = GradedOperator(space, 0, 0, {i: {i + 1: 1} for i in range(min(space.dimension - 1, 12))}, 100)
    broken = DefectRealization(real.theta + skew, real.mode_map)
    # identity preservation fails
    assert vacuum_preservation_deviation(broken) != 0
    # anticommutator preservation fails
    assert check_ope_preservation(broken) != 0
    # composition law fails
    other_spec = BogoliubovSpec(Fraction(5, 13), Fraction(12, 13))
    other = build_theta_fermion(other_spec, cutoff)
    direct = build_theta_fermion(compose(spec, other_spec), cutoff)
    assert max_matrix_deviation(broken.theta @ other.theta, direct.theta) != 0


# ---------------------------------------------------------------------------
# reflection phases

def test_trivial_ring_has_only_the_identity_phase():
    sols = solve_reflection_phases(trivial_ring())
    assert len(sols) == 1
    assert sols[0] == {"1": Fraction(0)}


def test_ising_ring_phases_are_signs():
    sols = solve_reflection_phases(ising_ring())
    phases = sorted(s["psi"] for s in sols)
    assert phases == [Fraction(0), Fraction(1, 2)]  # +1 and -1
    assert all(s["1"] == 0 for s in sols)


def test_z3_ring_phases_are_cube_roots():
    sols = solve_reflection_phases(z3_parafermion_ring())
    phases = sorted(s["psi1"] for s in sols)
    assert phases == [Fraction(0), Fraction(1, 3), Fraction(2, 3)]
    for s in sols:
        # conjugate sector carries the conjugate phase
        assert s["psi2"] == (-s["psi1"]) % 1


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
    got = {tuple(s[names[j]] for j in range(n)) for s in sols}
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
    assert len(low) == 1 and all(p == 0 for p in low[0].values())
    full = solve_reflection_phases(ring, max_order=5)
    assert sorted(s["p1"] for s in full) == [Fraction(0), Fraction(1, 5),
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
    assert sorted(s["psi"] for s in sols) == [Fraction(0), Fraction(1, 2)]
