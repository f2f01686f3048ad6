"""Fock space enumeration, mode algebra and graded tensor products."""

import functools
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neqcft.fock import (BOSON, FERMION, FockState, GradedOperator, enumerate_basis,
                         graded_tensor, mode_operator, tensor_space)

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
    assert space.states[0].occupied == ()


def test_enumerate_fermion_level_two():
    space = enumerate_basis(FERMION, 2)
    occs = [s.occupied for s in space.states]
    assert occs == [(), (-HALF,), (Fraction(-3, 2),), (Fraction(-3, 2), -HALF)]
    assert space.dimension == 4


def test_enumerate_boson_level_two():
    space = enumerate_basis(BOSON, 2)
    occs = [s.occupied for s in space.states]
    assert occs == [(), (-1,), (-2,), (-1, -1)]
    assert space.dimension == 4


def test_enumeration_is_deterministic():
    a = enumerate_basis(FERMION, Fraction(9, 2))
    b = enumerate_basis(FERMION, Fraction(9, 2))
    assert [s.occupied for s in a.states] == [s.occupied for s in b.states]
    levels = [s.level for s in a.states]
    assert levels == sorted(levels)


def test_state_invariants():
    with pytest.raises(ValueError):
        FockState(FERMION, (-HALF, -HALF))  # Pauli
    with pytest.raises(ValueError):
        FockState(FERMION, (-HALF, Fraction(-3, 2)))  # wrong order
    with pytest.raises(ValueError):
        FockState(FERMION, (-1,))  # not half-odd
    with pytest.raises(ValueError):
        FockState(BOSON, (Fraction(-1, 2),))
    st = FockState(FERMION, (Fraction(-3, 2), -HALF))
    assert st.level == 2 and st.parity == 0
    assert FockState(BOSON, (-2, -1, -1)).parity == 0


def _vacuum(space):
    """The vacuum as the one column of an operator on ``space``."""
    return GradedOperator.identity(space).restrict_columns(0)


def test_annihilator_kills_vacuum():
    space = enumerate_basis(FERMION, 2)
    assert mode_operator(space, HALF).column(space.vacuum_index) == {}


def test_pauli_exclusion():
    space = enumerate_basis(FERMION, 2)
    create = mode_operator(space, -HALF)
    one = space.index_of((-HALF,))
    assert create.column(space.vacuum_index) == {one: 1}
    assert create.column(one) == {}
    assert (create @ create).to_dict() == {}


def test_anticommutator_on_single_state():
    # b_{1/2} b_{-1/2} |0> = |0>, and {b_{1/2}, b_{-1/2}} acts as 1 on b_{-3/2}|0>
    space = enumerate_basis(FERMION, 3)
    vac = space.vacuum_index
    lo, hi = mode_operator(space, HALF), mode_operator(space, -HALF)
    assert (lo @ hi).column(vac) == {vac: 1}
    anti = lo @ hi + hi @ lo
    state = space.index_of((Fraction(-3, 2),))
    assert anti.column(state) == {state: 1}


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
        a + GradedOperator.zero(fermions, fermions, a.level_shift, a.parity_shift)


def test_operators_on_equal_spaces_compose():
    first = enumerate_basis(FERMION, 3)
    second = enumerate_basis(FERMION, 3)
    assert first is not second and first == second
    create = mode_operator(first, -HALF)
    destroy = mode_operator(second, HALF)
    anti = create @ destroy + destroy @ create
    assert (anti - GradedOperator.identity(second)).max_abs_entry(max_col_level=Fraction(5, 2)) == 0
    assert (create @ _vacuum(second)).to_dict() == {second.vacuum_index: {first.index_of((-HALF,)): 1}}


def test_truncation_is_flagged():
    # b_{-3/2}|0> sits above cutoff 1, so the vacuum column of the operator
    # is absent there; one level higher it is present
    low = enumerate_basis(FERMION, 1)
    assert mode_operator(low, Fraction(-3, 2)).to_dict() == {}
    high = enumerate_basis(FERMION, 2)
    out = mode_operator(high, Fraction(-3, 2)).column(high.vacuum_index)
    assert out == {high.index_of((Fraction(-3, 2),)): 1}


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
            expect = GradedOperator.zero(space, space, anti.level_shift, anti.parity_shift)
            if s + sp == 0:
                expect = expect + GradedOperator.identity(space)
            safe = cutoff - max(abs(s), abs(sp))
            assert (anti - expect).max_abs_entry(max_col_level=safe) == 0, (s, sp)


def test_boson_commutation_relations():
    cutoff = Fraction(4)
    space = enumerate_basis(BOSON, cutoff)
    values = _values_upto(BOSON, 3)
    for m in values:
        for n in values:
            a = mode_operator(space, m)
            b = mode_operator(space, n)
            comm = a @ b - b @ a
            expect = GradedOperator.zero(space, space, comm.level_shift, comm.parity_shift)
            if m + n == 0:
                expect = expect + m * GradedOperator.identity(space)
            safe = cutoff - max(abs(m), abs(n))
            assert (comm - expect).max_abs_entry(max_col_level=safe) == 0, (m, n)


def test_mode_operator_grading():
    space = enumerate_basis(FERMION, 3)
    op = mode_operator(space, Fraction(-3, 2))
    assert op.level_shift == Fraction(3, 2) and op.parity_shift == 1
    op.check_grading()


def test_graded_tensor_identity():
    f = enumerate_basis(FERMION, 2)
    p = tensor_space(f, f, 2)
    ident = graded_tensor(GradedOperator.identity(f), "left", p) \
        @ graded_tensor(GradedOperator.identity(f), "right", p)
    assert (ident - GradedOperator.identity(p)).max_abs_entry() == 0


def test_graded_tensor_left_factor_carries_no_sign():
    f = enumerate_basis(FERMION, 2)
    p = tensor_space(f, f, 2)
    create = mode_operator(f, -HALF)
    left = graded_tensor(create, "left", p)
    target = p.index_of((f.index_of((-HALF,)), f.vacuum_index))
    assert left.column(p.vacuum_index) == {target: 1}


def test_graded_tensor_koszul_sign():
    # right-factor creation across an occupied left factor picks up -1
    f = enumerate_basis(FERMION, 2)
    p = tensor_space(f, f, 2)
    create_l = graded_tensor(mode_operator(f, -HALF), "left", p)
    create_r = graded_tensor(mode_operator(f, -HALF), "right", p)
    target = p.index_of((f.index_of((-HALF,)), f.index_of((-HALF,))))
    assert (create_r @ create_l).column(p.vacuum_index) == {target: -1}


def test_graded_tensor_order_swap_matches_parities():
    f = enumerate_basis(FERMION, 3)
    p = tensor_space(f, f, 3)
    cases = [(-HALF, Fraction(-3, 2)), (-HALF, -HALF), (Fraction(3, 2), -HALF)]
    for va, vb in cases:
        a = graded_tensor(mode_operator(f, va), "left", p)
        b = graded_tensor(mode_operator(f, vb), "right", p)
        sign = (-1) ** (1 * 1)  # both operators are odd
        safe = p.cutoff - max(abs(va), abs(vb))
        assert ((a @ b) - sign * (b @ a)).max_abs_entry(max_col_level=safe) == 0, (va, vb)
    # even x odd commutes without sign
    l0 = mode_operator(f, -HALF) @ mode_operator(f, HALF)  # even parity
    a = graded_tensor(l0, "left", p)
    b = graded_tensor(mode_operator(f, -HALF), "right", p)
    safe = p.cutoff - HALF
    assert ((a @ b) - (b @ a)).max_abs_entry(max_col_level=safe) == 0


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
        idx = space.index_of(tuple(sorted(seq)))
        assert product.column(space.vacuum_index) == {idx: want_sign}, seq



# ---------------------------------------------------------------------------
# the operator kernel against a plain dict-of-values oracle

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
    c = d.setdefault(col, {})
    s = c.get(row, 0) + value
    if s:
        c[row] = s
    else:
        c.pop(row, None)
        if not c:
            del d[col]


@st.composite
def _operators(draw, space):
    """An operator built with add_entry, with its oracle ``({col: {row: value}}, exact)``.

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
    op = GradedOperator.zero(space, space, 0, 0)
    oracle = {}
    for (row, col), v in exact:
        op.add_entry(row, col, v)
        _oracle_add(oracle, row, col, Fraction(v))
    for (row, col), v in floats:
        op.add_entry(row, col, v)
        _oracle_add(oracle, row, col, v)
    return op, (oracle, not floats)


def _oracle_matmul(a, b):
    out = {}
    for j, mid in b[0].items():
        for m, v1 in mid.items():
            for row, v2 in a[0].get(m, {}).items():
                _oracle_add(out, row, j, v2 * v1)
    return out, a[1] and b[1]


def _oracle_sum(a, b, sign):
    out = {j: dict(c) for j, c in a[0].items()}
    for j, c in b[0].items():
        for row, v in c.items():
            _oracle_add(out, row, j, sign * v)
    return out, a[1] and b[1]


def _oracle_scale(a, scalar):
    exact = a[1] and isinstance(scalar, (int, Fraction))
    scaled = {j: {r: v * scalar for r, v in c.items() if v * scalar} for j, c in a[0].items()}
    return {j: c for j, c in scaled.items() if c}, exact


def _oracle_restrict(space, a, level):
    return {j: c for j, c in a[0].items() if space.level(j) <= level}, a[1]


def _typed(d):
    return {j: {r: (v, type(v)) for r, v in c.items()} for j, c in d.items()}


def _assert_matches(op, want, level):
    values, exact = want
    assert op.exact == exact
    assert _typed(op.to_dict()) == _typed(values)
    space = op.domain
    for col in range(space.dimension):
        assert _typed({0: op.column(col)}) == _typed({0: values.get(col, {})})
        for row in range(space.dimension):
            got, ref = op.entry(row, col), values.get(col, {}).get(row, 0)
            assert got == ref and type(got) is (Fraction if exact else type(ref))
    for bound in (None, level):
        kept = [abs(v) for j, c in values.items() for v in c.values()
                if bound is None or space.level(j) <= bound]
        best = op.max_abs_entry(max_col_level=bound)
        assert best == max(kept, default=0)
        assert type(best) is Fraction or not exact


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kernel_matches_dict_oracle(data):
    space = data.draw(st.sampled_from(list(_KERNEL_SPACES)))
    a, da = data.draw(_operators(space))
    b, db = data.draw(_operators(space))
    scalar = data.draw(st.one_of(_EXACT, _FLOATS, st.just(0.0)))
    level = data.draw(st.sampled_from([Fraction(k, 2) for k in range(-1, 9)]))
    cases = [
        (a @ b, _oracle_matmul(da, db)),
        (a + b, _oracle_sum(da, db, 1)),
        (a - b, _oracle_sum(da, db, -1)),
        (a * scalar, _oracle_scale(da, scalar)),
        (scalar * a, _oracle_scale(da, scalar)),
        (a.restrict_columns(level), _oracle_restrict(space, da, level)),
        (a @ b.restrict_columns(level), _oracle_matmul(da, _oracle_restrict(space, db, level))),
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
