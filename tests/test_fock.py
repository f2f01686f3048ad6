"""Fock space enumeration, mode algebra and graded tensor products."""

import functools
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neqcft import defect, fock
from neqcft.defect import BogoliubovSpec, build_theta_fermion
from neqcft.fock import (BOSON, FERMION, GradedOperator, ProductSpace, enumerate_basis,
                         graded_tensor, join_columns, mode_operator)
from oracles import (cell, check_grading, column, level_shift, mode_values, to_dict,
                     vacuum_index)

HALF = Fraction(1, 2)


def counting_oracle(species, cutoff):
    """Independent dimension count from the level generating function.

    Works in half-level integer units: fermions contribute distinct odd
    parts, bosons even parts with repetition.
    """
    budget = int(2 * Fraction(cutoff))
    dp = [0] * (budget + 1)
    dp[0] = 1
    if species == FERMION:
        part = 1
        while part <= budget:
            for u in range(budget, part - 1, -1):
                dp[u] += dp[u - part]
            part += 2
    else:
        part = 2
        while part <= budget:
            for u in range(part, budget + 1):
                dp[u] += dp[u - part]
            part += 2
    return sum(dp)


def test_dimension_matches_partition_count():
    for species in (FERMION, BOSON):
        for cutoff in (0, 1, 2, Fraction(5, 2), 3, 4, 5, 6, 7, 8):
            space = enumerate_basis(species, cutoff)
            assert space.dimension == counting_oracle(species, cutoff), (species, cutoff)


def test_enumerate_fermion_level_zero_is_vacuum_only():
    space = enumerate_basis(FERMION, 0)
    assert space.dimension == 1
    assert space.states[0] == ()


def test_enumerate_fermion_level_two():
    # a state is the ascending tuple of twice its mode values
    space = enumerate_basis(FERMION, 2)
    assert space.states == ((), (-1,), (-3,), (-3, -1))
    assert space.dimension == 4


def test_enumerate_boson_level_two():
    space = enumerate_basis(BOSON, 2)
    assert space.states == ((), (-2,), (-4,), (-2, -2))
    assert space.dimension == 4


def test_enumeration_is_deterministic():
    a = enumerate_basis(FERMION, Fraction(9, 2))
    b = enumerate_basis(FERMION, Fraction(9, 2))
    assert a.states == b.states
    levels = list(a.twice_levels)
    assert levels == sorted(levels)


def test_state_invariants():
    fermions = enumerate_basis(FERMION, 2)
    j = fermions.index_of((-3, -1))
    assert fermions.twice_levels[j] == 4 and fermions.parity(j) == 0
    bosons = enumerate_basis(BOSON, 4)
    assert bosons.parity(bosons.index_of((-4, -2, -2))) == 0


def _vacuum(space):
    """The vacuum as the one column of an operator on ``space``."""
    return GradedOperator.identity(space).restrict_columns(0)


def test_annihilator_kills_vacuum():
    space = enumerate_basis(FERMION, 2)
    assert column(mode_operator(space, HALF), space.vacuum_index) == {}


def test_pauli_exclusion():
    space = enumerate_basis(FERMION, 2)
    create = mode_operator(space, -HALF)
    one = space.index_of((-1,))
    assert column(create, space.vacuum_index) == {one: 1}
    assert column(create, one) == {}
    assert to_dict(create @ create) == {}


def test_anticommutator_on_single_state():
    # b_{1/2} b_{-1/2} |0> = |0>, and {b_{1/2}, b_{-1/2}} acts as 1 on b_{-3/2}|0>
    space = enumerate_basis(FERMION, 3)
    vac = space.vacuum_index
    lo, hi = mode_operator(space, HALF), mode_operator(space, -HALF)
    assert column(lo @ hi, vac) == {vac: 1}
    anti = lo @ hi + hi @ lo
    state = space.index_of((-3,))
    assert column(anti, state) == {state: 1}


def test_species_mismatch_raises():
    fermions = enumerate_basis(FERMION, 3)
    bosons = enumerate_basis(BOSON, 2)
    with pytest.raises(ValueError, match="half-odd"):
        mode_operator(fermions, 1)
    with pytest.raises(ValueError, match="nonzero integer"):
        mode_operator(bosons, HALF)
    with pytest.raises(ValueError, match="do not compose"):
        mode_operator(bosons, -1) @ _vacuum(fermions)


def test_operators_refuse_foreign_spaces():
    # both spaces have dimension 4, which used to be enough to combine them
    fermions = enumerate_basis(FERMION, 2)
    bosons = enumerate_basis(BOSON, 2)
    assert fermions.dimension == bosons.dimension
    a = mode_operator(bosons, -1)
    b = mode_operator(fermions, -HALF)
    with pytest.raises(ValueError):
        a @ _vacuum(fermions)
    with pytest.raises(ValueError):
        a @ b
    with pytest.raises(ValueError, match="different spaces"):
        a + GradedOperator(fermions, a.twice_shift, a.parity_shift, {})


def test_operators_on_equal_spaces_compose():
    first = enumerate_basis(FERMION, 3)
    second = enumerate_basis(FERMION, 3)
    assert first is not second and first == second
    create = mode_operator(first, -HALF)
    destroy = mode_operator(second, HALF)
    anti = create @ destroy + destroy @ create
    assert (anti - GradedOperator.identity(second)).restrict_columns(Fraction(5, 2)).max_abs_entry() == 0
    assert to_dict(create @ _vacuum(second)) == {second.vacuum_index: {first.index_of((-1,)): 1}}


def test_truncation_is_flagged():
    # b_{-3/2}|0> sits above cutoff 1, so the vacuum column of the operator
    # is absent there; one level higher it is present
    low = enumerate_basis(FERMION, 1)
    assert to_dict(mode_operator(low, Fraction(-3, 2))) == {}
    high = enumerate_basis(FERMION, 2)
    out = column(mode_operator(high, Fraction(-3, 2)), high.vacuum_index)
    assert out == {high.index_of((-3,)): 1}


def _values_upto(species, bound):
    out = []
    v = HALF if species == FERMION else Fraction(1)
    while v <= bound:
        out.extend([v, -v])
        v += 1
    return out


def test_fermion_anticommutation_relations():
    cutoff = Fraction(7, 2)
    space = enumerate_basis(FERMION, cutoff)
    values = _values_upto(FERMION, cutoff)
    for s in values:
        for sp in values:
            a = mode_operator(space, s)
            b = mode_operator(space, sp)
            anti = a @ b + b @ a
            expect = GradedOperator(space, anti.twice_shift, anti.parity_shift, {})
            if s + sp == 0:
                expect = expect + GradedOperator.identity(space)
            safe = cutoff - max(abs(s), abs(sp))
            assert (anti - expect).restrict_columns(safe).max_abs_entry() == 0, (s, sp)


def test_boson_commutation_relations():
    cutoff = Fraction(4)
    space = enumerate_basis(BOSON, cutoff)
    values = _values_upto(BOSON, 3)
    for m in values:
        for n in values:
            a = mode_operator(space, m)
            b = mode_operator(space, n)
            comm = a @ b - b @ a
            expect = GradedOperator(space, comm.twice_shift, comm.parity_shift, {})
            if m + n == 0:
                expect.accumulate(GradedOperator.identity(space), m)
            safe = cutoff - max(abs(m), abs(n))
            assert (comm - expect).restrict_columns(safe).max_abs_entry() == 0, (m, n)


def test_mode_operator_grading():
    space = enumerate_basis(FERMION, 3)
    op = mode_operator(space, Fraction(-3, 2))
    assert level_shift(op) == Fraction(3, 2) and op.parity_shift == 1
    check_grading(op)


def _stored(columns):
    """Columns and their entries in stored order."""
    return [(j, list(c.items())) for j, c in columns.items()]


def _mode_operator_on_every_state(space, value):
    # oracle: the mode applied to every state, its image looked up and dropped
    # when it lies outside the space
    twice = int(2 * value)
    act = fock._apply_fermion if space.species == FERMION else fock._apply_boson
    cols = {}
    for j, state in enumerate(space.states):
        res = act(twice, state)
        if res is not None and (row := space.index_of(res[1])) is not None:
            cols[j] = {row: res[0]}
    return cols


@pytest.mark.parametrize("species, cutoff", [
    (FERMION, 0), (FERMION, 4), (FERMION, Fraction(9, 2)), (FERMION, Fraction(13, 2)),
    (BOSON, 1), (BOSON, 5), (BOSON, Fraction(11, 2)), (BOSON, 7)])
def test_mode_operator_matches_the_construction_on_every_state(species, cutoff):
    # only the columns whose image level lies in [0, cutoff] are visited;
    # the others gave no entry, so the columns and their order are unchanged
    space = enumerate_basis(species, cutoff)
    for value in mode_values(species, cutoff + 2):
        op = mode_operator(space, value)
        assert _stored(op.columns) == _stored(_mode_operator_on_every_state(space, value)), value
        assert (op.twice_shift, op.parity_shift, op.denominator, op.exact) == (
            -int(2 * value), 1 if species == FERMION else 0, 1, True)
        assert level_shift(op) == -value and type(level_shift(op)) is Fraction


def test_graded_tensor_identity():
    f = enumerate_basis(FERMION, 2)
    p = ProductSpace((f, f), f.cutoff)
    ident = graded_tensor(GradedOperator.identity(f), 0, p) \
        @ graded_tensor(GradedOperator.identity(f), 1, p)
    assert (ident - GradedOperator.identity(p)).max_abs_entry() == 0


def test_graded_tensor_left_factor_carries_no_sign():
    f = enumerate_basis(FERMION, 2)
    p = ProductSpace((f, f), f.cutoff)
    create = mode_operator(f, -HALF)
    left = graded_tensor(create, 0, p)
    target = p.index_of((f.index_of((-1,)), f.vacuum_index))
    assert column(left, vacuum_index(p)) == {target: 1}


def test_graded_tensor_koszul_sign():
    # right-factor creation across an occupied left factor picks up -1
    f = enumerate_basis(FERMION, 2)
    p = ProductSpace((f, f), f.cutoff)
    create_l = graded_tensor(mode_operator(f, -HALF), 0, p)
    create_r = graded_tensor(mode_operator(f, -HALF), 1, p)
    target = p.index_of((f.index_of((-1,)), f.index_of((-1,))))
    assert column(create_r @ create_l, vacuum_index(p)) == {target: -1}


def test_graded_tensor_order_swap_matches_parities():
    f = enumerate_basis(FERMION, 3)
    p = ProductSpace((f, f), f.cutoff)
    cases = [(-HALF, Fraction(-3, 2)), (-HALF, -HALF), (Fraction(3, 2), -HALF)]
    for va, vb in cases:
        a = graded_tensor(mode_operator(f, va), 0, p)
        b = graded_tensor(mode_operator(f, vb), 1, p)
        sign = (-1) ** (1 * 1)  # both operators are odd
        safe = p.cutoff - max(abs(va), abs(vb))
        diff = a @ b
        diff.accumulate(b @ a, -sign)
        assert diff.restrict_columns(safe).max_abs_entry() == 0, (va, vb)
    # even x odd commutes without sign
    l0 = mode_operator(f, -HALF) @ mode_operator(f, HALF)  # even parity
    a = graded_tensor(l0, 0, p)
    b = graded_tensor(mode_operator(f, -HALF), 1, p)
    safe = p.cutoff - HALF
    assert ((a @ b) - (b @ a)).restrict_columns(safe).max_abs_entry() == 0


def test_insertion_signs_match_brute_force():
    """Sign of a creation product against explicit reordering of operators."""
    space = enumerate_basis(FERMION, Fraction(9, 2))
    seqs = [
        (Fraction(-3, 2), -HALF),
        (-HALF, Fraction(-3, 2)),
        (Fraction(-5, 2), -HALF, Fraction(-3, 2)),
        (-HALF, Fraction(-3, 2), Fraction(-5, 2)),
    ]
    for seq in seqs:
        product = functools.reduce(operator.matmul, [mode_operator(space, v) for v in seq])
        # parity of the permutation sorting seq ascending
        perm = sorted(range(len(seq)), key=lambda i: seq[i])
        inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                         if perm[i] > perm[j])
        want_sign = -1 if inversions % 2 else 1
        idx = space.index_of(tuple(sorted(int(2 * v) for v in seq)))
        assert column(product, space.vacuum_index) == {idx: want_sign}, seq



# ---------------------------------------------------------------------------
# the operator kernel against a plain dict-of-values oracle: every entry held
# by value, an exact operator's as Fractions and an inexact one's as floats;
# an operation with an inexact operand or factor reads each exact entry as its
# float, so each float is the one per-entry float arithmetic gives

# pairs of spaces of equal dimension and different species
_KERNEL_SPACES = {
    enumerate_basis(FERMION, 2): enumerate_basis(BOSON, 2),
    enumerate_basis(BOSON, 2): enumerate_basis(FERMION, 2),
    enumerate_basis(FERMION, Fraction(7, 2)): enumerate_basis(BOSON, 3),
    enumerate_basis(BOSON, 3): enumerate_basis(FERMION, Fraction(7, 2)),
}
_EXACT = st.one_of(st.integers(-3, 3), st.fractions(min_value=-2, max_value=2, max_denominator=6))
# bounded away from zero, so no product underflows
_FLOATS = st.one_of(st.floats(1e-3, 2.0), st.floats(-2.0, -1e-3))


def _oracle_add(d, row, col, value):
    """One entry added: a column that cancels to zero goes at once."""
    _oracle_accumulate(d.setdefault(col, {}), row, value)
    if not d[col]:
        del d[col]


def _oracle_accumulate(column, row, value):
    s = column.get(row, 0) + value
    if s:
        column[row] = s
    else:
        column.pop(row, None)


def _build(space, exact, floats):
    """An operator accumulated from one-entry operators, exact then float cells, and its oracle.

    The first float cell turns the operator into its floats.
    """
    op = GradedOperator(space, 0, 0, {})
    oracle = ({}, True)
    for (row, col), v in exact:
        op.accumulate(cell(op, row, col, v))
        _oracle_add(oracle[0], row, col, Fraction(v))
    if floats:
        oracle = _oracle_floats(oracle)
    for (row, col), v in floats:
        op.accumulate(cell(op, row, col, v))
        _oracle_add(oracle[0], row, col, v)
    return op, oracle


@st.composite
def _operators(draw, space):
    """An operator built by ``accumulate``, with its oracle ``({col: {row: value}}, exact)``.

    The kernel does not read the grading, so entries go anywhere.  Exact
    entries mix ints and Fractions of several denominators, and some are
    added again negated so that they cancel; a float operator then takes
    float entries on top of its exact ones.
    """
    cells = st.tuples(st.integers(0, space.dimension - 1), st.integers(0, space.dimension - 1))
    exact = draw(st.lists(st.tuples(cells, _EXACT), max_size=10))
    if exact and draw(st.booleans()):
        exact += [(cell, -v) for cell, v in draw(st.lists(st.sampled_from(exact), max_size=5))]
    floats = draw(st.lists(st.tuples(cells, _FLOATS), max_size=4)) if draw(st.booleans()) else []
    return _build(space, exact, floats)


def _values(op):
    """A built operator's entries as oracle input."""
    return to_dict(op), op.exact


def _oracle_floats(a):
    """An oracle operator with each exact entry read as its correctly rounded float."""
    return {j: {r: float(v) for r, v in c.items()} for j, c in a[0].items()}, False


def _oracle_common(*ops):
    """The operands as they are when all are exact, else each read as its floats."""
    return ops if all(exact for _, exact in ops) else tuple(_oracle_floats(a) for a in ops)


# a product or a sum drops a column only once every term of it is in

def _oracle_matmul(a, b):
    a, b = _oracle_common(a, b)
    out = {}
    for j, mid in b[0].items():
        column = {}
        for m, v1 in mid.items():
            for row, v2 in a[0].get(m, {}).items():
                _oracle_accumulate(column, row, v2 * v1)
        if column:
            out[j] = column
    return out, a[1] and b[1]


def _oracle_sum(a, b, sign):
    a, b = _oracle_common(a, b)
    out = {j: dict(c) for j, c in a[0].items()}
    for j, c in b[0].items():
        column = out.setdefault(j, {})
        for row, v in c.items():
            _oracle_accumulate(column, row, sign * v)
        if not column:
            del out[j]
    return out, a[1] and b[1]


def _oracle_scale(a, scalar):
    """``scalar * a``, as ``accumulate(a, scalar)`` into an empty operator gives it."""
    if not (a[1] and isinstance(scalar, (int, Fraction))):
        a, scalar = _oracle_floats(a), float(scalar)
    scaled = {j: {r: v * scalar for r, v in c.items() if v * scalar} for j, c in a[0].items()}
    return {j: c for j, c in scaled.items() if c}, a[1]


def _oracle_restrict(space, a, level):
    return {j: c for j, c in a[0].items() if space.twice_levels[j] <= 2 * level}, a[1]


def _oracle_join(parts):
    parts = _oracle_common(*parts)
    cols = {}
    for values, _ in parts:
        cols.update(values)
    return dict(sorted(cols.items())), all(exact for _, exact in parts)


def _oracle_max_abs(space, a, level=None):
    """The first largest |entry| in stored order; an exact operator gives a Fraction."""
    kept = [abs(v) for j, c in a[0].items() for v in c.values()
            if level is None or space.twice_levels[j] <= 2 * level]
    best = max(kept, default=0)
    return Fraction(best) if a[1] else best


def _typed(d):
    """Entries with their types, in stored order."""
    return [(j, [(r, v, type(v)) for r, v in c.items()]) for j, c in d.items()]


def _assert_matches(op, want, level):
    values, exact = want
    assert op.exact == exact
    assert _typed(to_dict(op)) == _typed(values)
    space = op.space
    for col in range(space.dimension):
        assert _typed({0: column(op, col)}) == _typed({0: values.get(col, {})})
        for row in range(space.dimension):
            got, ref = op.entry(row, col), values.get(col, {}).get(row, 0)
            assert got == ref and type(got) is (Fraction if exact else type(ref))
    for kept, bound in ((op, None), (op.restrict_columns(level), level)):
        best, ref = kept.max_abs_entry(), _oracle_max_abs(space, want, bound)
        assert best == ref and type(best) is type(ref)


def _columns_of(op, want, keep):
    """The operator and its oracle on the columns in ``keep`` only."""
    part = GradedOperator(op.space, op.twice_shift, op.parity_shift,
                          {j: c for j, c in op.columns.items() if j in keep}, op.denominator, op.exact)
    return part, ({j: c for j, c in want[0].items() if j in keep}, want[1])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kernel_matches_dict_oracle(data):
    space = data.draw(st.sampled_from(list(_KERNEL_SPACES)))
    a, da = data.draw(_operators(space))
    b, db = data.draw(_operators(space))
    scalar = data.draw(st.one_of(_EXACT, _FLOATS, st.just(0.0)))
    level = data.draw(st.sampled_from([Fraction(k, 2) for k in range(-1, 9)]))
    scaled = GradedOperator(space, 0, 0, {})
    scaled.accumulate(a, scalar)
    # disjoint columns of a, b and the scaled a, for join_columns
    owner = data.draw(st.lists(st.integers(0, 2), min_size=space.dimension, max_size=space.dimension))
    sources = [(a, da), (b, db), (scaled, _oracle_scale(da, scalar))]
    parts = [_columns_of(op, want, {j for j, k in enumerate(owner) if k == i})
             for i, (op, want) in enumerate(sources)]
    cases = [
        (a @ b, _oracle_matmul(da, db)),
        (a + b, _oracle_sum(da, db, 1)),
        (a - b, _oracle_sum(da, db, -1)),
        (scaled, _oracle_scale(da, scalar)),
        (a.restrict_columns(level), _oracle_restrict(space, da, level)),
        (a @ b.restrict_columns(level), _oracle_matmul(da, _oracle_restrict(space, db, level))),
        (join_columns([p for p, _ in parts]), _oracle_join([w for _, w in parts])),
    ]
    for op, want in cases:
        _assert_matches(op, want, level)
    # equal dimensions are not enough to combine operators
    foreign, _ = data.draw(_operators(_KERNEL_SPACES[space]))
    for combine in (operator.matmul, operator.add, operator.sub):
        with pytest.raises(ValueError):
            combine(a, foreign)
        with pytest.raises(ValueError):
            combine(foreign, a)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_inexact_results_hold_only_floats_over_one(data):
    # the stored form follows exactness: a result with an inexact operand or
    # factor holds only floats, over denominator 1, and an exact one only ints
    space = data.draw(st.sampled_from(list(_KERNEL_SPACES)))
    a, _ = data.draw(_operators(space))
    b, _ = data.draw(_operators(space))
    factor = data.draw(st.one_of(_EXACT, _FLOATS, st.just(0.0)))
    exact_factor = isinstance(factor, (int, Fraction))
    into = a + GradedOperator(space, 0, 0, {})
    into.accumulate(b, factor)
    scaled = GradedOperator(space, 0, 0, {})
    scaled.accumulate(a, factor)
    owner = data.draw(st.lists(st.integers(0, 2), min_size=space.dimension, max_size=space.dimension))
    parts = [GradedOperator(space, 0, 0, {j: c for j, c in op.columns.items() if owner[j] == i},
                            op.denominator, op.exact)
             for i, op in enumerate((a, b, scaled))]
    cases = [
        (a, a.exact), (b, b.exact),
        (a @ b, a.exact and b.exact), (b @ a, a.exact and b.exact),
        (a + b, a.exact and b.exact), (a - b, a.exact and b.exact),
        (into, a.exact and b.exact and exact_factor), (scaled, a.exact and exact_factor),
        (join_columns(parts), a.exact and b.exact and exact_factor),
    ]
    for op, exact in cases:
        stored = {type(v) for c in op.columns.values() for v in c.values()}
        assert op.exact == exact
        if exact:
            assert stored <= {int}
        else:
            assert op.denominator == 1 and stored <= {float}


@pytest.mark.parametrize("columns, exact, want", [
    # an int numerator over 4 and a float of equal value: the first in stored order wins
    ({0: {0: 1}, 1: {1: 0.25}}, False, Fraction(1, 4)),
    ({1: {1: 0.25}, 0: {0: 1}}, False, 0.25),
    ({0: {0: -1, 1: -0.25}}, False, Fraction(1, 4)),
    ({0: {1: -0.25, 0: -1}}, False, 0.25),
    # a larger entry wins wherever it is stored
    ({0: {0: 1}, 1: {1: 0.5}}, False, 0.5),
    ({1: {1: 0.5}, 0: {0: 1}}, False, 0.5),
    ({0: {0: -3}, 1: {1: 0.5}}, False, Fraction(3, 4)),
    ({1: {1: 0.5}, 0: {0: 3}}, False, Fraction(3, 4)),
    ({0: {0: 1, 1: -3}}, True, Fraction(3, 4)),
    ({}, True, Fraction(0)),
    ({}, False, 0),
])
def test_max_abs_entry_is_the_first_largest_entry_in_stored_order(columns, exact, want):
    space = enumerate_basis(FERMION, Fraction(1))
    got = GradedOperator(space, 0, 0, columns, 4, exact).max_abs_entry()
    assert got == want and type(got) is type(want)


# ---------------------------------------------------------------------------
# the defect checks on float Theta against the same oracle

def _oracle_theta(space, matrix):
    """Theta by value: each state's mode images applied to the vacuum, right to left.

    A float in the matrix makes Theta inexact, and then every column is
    walked in floats from the vacuum up.
    """
    images = {}

    def image(k, value):
        if (k, value) not in images:
            a = _oracle_scale(_values(defect._embedded_mode(space, 0, int(2 * value))), matrix[k][0])
            b = _oracle_scale(_values(defect._embedded_mode(space, 1, int(2 * value))), matrix[k][1])
            images[(k, value)] = _oracle_sum(a, b, 1)
        return images[(k, value)]

    vac = vacuum_index(space)
    vacuum = ({vac: {vac: Fraction(1)}}, True)
    if not all(isinstance(x, (int, Fraction)) for row in matrix for x in row):
        vacuum = _oracle_floats(vacuum)
    columns, exact = {}, True
    for col, (i, j) in enumerate(space.states):
        modes = [(0, Fraction(t, 2)) for t in space.factors[0].states[i]]
        modes += [(1, Fraction(t, 2)) for t in space.factors[1].states[j]]
        state = vacuum
        for key in reversed(modes):
            state = _oracle_matmul(image(*key), state)
        exact = exact and state[1]
        if state[0]:
            columns[col] = state[0][vac]
    return columns, exact


def _oracle_intertwining(space, theta, n):
    safe = space.cutoff - abs(n)
    ltot = _values(defect.total_virasoro(space, n))
    comm = _oracle_sum(_oracle_matmul(theta, _oracle_restrict(space, ltot, safe)),
                       _oracle_matmul(ltot, _oracle_restrict(space, theta, safe)), -1)
    return _oracle_max_abs(space, comm, safe)


def _oracle_ope(space, theta, matrix):
    values = mode_values(FERMION, Fraction(3, 2))
    raw = {(k, v): _values(defect._embedded_mode(space, k, int(2 * v))) for v in values for k in (0, 1)}
    images = {(k, v): _oracle_sum(_oracle_scale(raw[(0, v)], matrix[k][0]),
                                  _oracle_scale(raw[(1, v)], matrix[k][1]), 1)
              for (k, v) in raw}
    ident = ({j: {j: Fraction(1)} for j in range(space.dimension)}, True)
    dev = 0
    keys = sorted(raw, key=str)
    for a in keys:
        safe = space.cutoff - abs(a[1])
        resid = _oracle_sum(_oracle_matmul(theta, _oracle_restrict(space, raw[a], safe)),
                            _oracle_matmul(images[a], _oracle_restrict(space, theta, safe)), -1)
        dev = max(dev, _oracle_max_abs(space, resid, safe))
        for b in keys:
            safe = space.cutoff - max(abs(a[1]), abs(b[1]))
            if safe < 0:
                continue
            anti = _oracle_sum(_oracle_matmul(images[a], _oracle_restrict(space, images[b], safe)),
                               _oracle_matmul(images[b], _oracle_restrict(space, images[a], safe)), 1)
            expect = ident if a[0] == b[0] and a[1] + b[1] == 0 else ({}, True)
            dev = max(dev, _oracle_max_abs(space, _oracle_sum(anti, expect, -1), safe))
    return dev


_POINTS = [(Fraction(3, 5), Fraction(4, 5)), (Fraction(-3, 5), Fraction(4, 5)),
           (Fraction(4, 5), Fraction(-3, 5)), (Fraction(5, 13), Fraction(12, 13))]


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(("skew", "alpha", "alpha-skew")), st.integers(3, 5), st.data())
def test_float_theta_checks_match_value_oracle(kind, cutoff, data):
    # a skewed or float Theta, built and checked on floats only, gives the
    # deviations (value and type) that per-entry float arithmetic gives, each
    # exact entry read as n / d
    if kind == "skew":
        spec = BogoliubovSpec(*data.draw(st.sampled_from(_POINTS)))
    else:
        spec = BogoliubovSpec.from_angle(data.draw(st.floats(-3.0, 3.0)))
    real = build_theta_fermion(spec, cutoff)
    space = real.theta.space
    theta, matrix = _oracle_theta(space, real.mode_map), real.mode_map
    if kind != "alpha":
        eps = data.draw(st.one_of(st.floats(1e-3, 0.5), st.floats(-0.5, -1e-3)))
        real = defect.skewed(real, eps)
        theta = _oracle_floats(theta)
        for i in range(min(space.dimension - 1, 12)):
            _oracle_add(theta[0], i + 1, i, eps)
    assert real.theta.exact == theta[1] and _typed(to_dict(real.theta)) == _typed(theta[0])
    ltot = defect.total_virasoro(space, -1)
    want = _oracle_matmul(theta, _values(ltot))
    assert _typed(to_dict(real.theta @ ltot)) == _typed(want[0])
    for n in range(-2, 3):
        got, ref = defect.check_intertwining(real, n), _oracle_intertwining(space, theta, n)
        assert got == ref and type(got) is type(ref), n
    got, ref = defect.check_ope_preservation(real), _oracle_ope(space, theta, matrix)
    assert got == ref and type(got) is type(ref)
