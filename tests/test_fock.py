"""Fock space enumeration, mode algebra and graded tensor products."""

import functools
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neqcft import cli, defect
from neqcft.defect import BogoliubovSpec, build_theta_fermion
from neqcft.fock import (BOSON, FERMION, FockState, GradedOperator, enumerate_basis,
                         graded_tensor, invert_graded, join_columns, mode_operator, mode_values,
                         tensor_space)
from oracles import check_grading

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
    check_grading(op)


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
# the operator kernel against a plain dict-of-values oracle: every entry held
# by value, exact ones as Fractions and the rest as floats, so each float is
# the one per-entry arithmetic gives

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
    """add_entry: a column that cancels to zero goes at once."""
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
    """An operator built with add_entry from exact then float cells, and its oracle."""
    op = GradedOperator.zero(space, space, 0, 0)
    oracle = {}
    for (row, col), v in exact:
        op.add_entry(row, col, v)
        _oracle_add(oracle, row, col, Fraction(v))
    for (row, col), v in floats:
        op.add_entry(row, col, v)
        _oracle_add(oracle, row, col, v)
    return op, (oracle, not floats)


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
    return _build(space, exact, floats)


def _values(op):
    """A built operator's entries as oracle input."""
    return op.to_dict(), op.exact


# a product or a sum drops a column only once every term of it is in

def _oracle_matmul(a, b):
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
    out = {j: dict(c) for j, c in a[0].items()}
    for j, c in b[0].items():
        column = out.setdefault(j, {})
        for row, v in c.items():
            _oracle_accumulate(column, row, sign * v)
        if not column:
            del out[j]
    return out, a[1] and b[1]


def _oracle_scale(a, scalar):
    exact = a[1] and isinstance(scalar, (int, Fraction))
    scaled = {j: {r: v * scalar for r, v in c.items() if v * scalar} for j, c in a[0].items()}
    return {j: c for j, c in scaled.items() if c}, exact


def _oracle_restrict(space, a, level):
    return {j: c for j, c in a[0].items() if space.level(j) <= level}, a[1]


def _oracle_join(parts):
    cols = {}
    for values, _ in parts:
        cols.update(values)
    return dict(sorted(cols.items())), all(exact for _, exact in parts)


def _oracle_max_abs(space, a, level=None):
    """The first largest |entry| in stored order; an exact operator gives a Fraction."""
    kept = [abs(v) for j, c in a[0].items() for v in c.values()
            if level is None or space.level(j) <= level]
    best = max(kept, default=0)
    return Fraction(best) if a[1] else best


def _oracle_invert(space, a):
    """Gauss-Jordan with partial pivoting on every level block's values."""
    values, exact = a
    blocks = {}
    for n, level in enumerate(space.twice_levels):
        blocks.setdefault(level, []).append(n)
    zero = Fraction(0) if exact else 0
    out = {}
    for level, idx in blocks.items():
        k = len(idx)
        m = [[values.get(c, {}).get(r, zero) for c in idx] for r in idx]
        inv = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
        for col in range(k):
            piv, best = None, 0
            for r in range(col, k):
                if abs(m[r][col]) > best:
                    piv, best = r, abs(m[r][col])
            if piv is None:
                raise ValueError(f"singular level block at level {Fraction(level, 2)}")
            m[col], m[piv] = m[piv], m[col]
            inv[col], inv[piv] = inv[piv], inv[col]
            p = m[col][col]
            m[col] = [x / p for x in m[col]]
            inv[col] = [x / p for x in inv[col]]
            for r in range(k):
                f = m[r][col]
                if r != col and f != 0:
                    m[r] = [x - f * y for x, y in zip(m[r], m[col])]
                    inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
        for ci, c in enumerate(idx):
            for ri, r in enumerate(idx):
                _oracle_add(out, r, c, inv[ri][ci])
    return out, all(type(v) is Fraction for c in out.values() for v in c.values())


def _typed(d):
    """Entries with their types, in stored order."""
    return [(j, [(r, v, type(v)) for r, v in c.items()]) for j, c in d.items()]


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
        best, ref = op.max_abs_entry(max_col_level=bound), _oracle_max_abs(space, want, bound)
        assert best == ref and type(best) is type(ref)


def _columns_of(op, want, keep):
    """The operator and its oracle on the columns in ``keep`` only."""
    part = GradedOperator(op.domain, op.codomain, op.level_shift, op.parity_shift,
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
    # disjoint columns of a, b and a * scalar, for join_columns
    owner = data.draw(st.lists(st.integers(0, 2), min_size=space.dimension, max_size=space.dimension))
    sources = [(a, da), (b, db), (a * scalar, _oracle_scale(da, scalar))]
    parts = [_columns_of(op, want, {j for j, k in enumerate(owner) if k == i})
             for i, (op, want) in enumerate(sources)]
    cases = [
        (a @ b, _oracle_matmul(da, db)),
        (a + b, _oracle_sum(da, db, 1)),
        (a - b, _oracle_sum(da, db, -1)),
        (a * scalar, _oracle_scale(da, scalar)),
        (scalar * a, _oracle_scale(da, scalar)),
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


@st.composite
def _level_graded(draw, space):
    """A grading-preserving operator: dense exact level blocks, some of them carrying floats."""
    exact, floats = [], []
    blocks = {}
    for n, level in enumerate(space.twice_levels):
        blocks.setdefault(level, []).append(n)
    for idx in blocks.values():
        cells = [(r, c) for r in idx for c in idx]
        exact += zip(cells, draw(st.lists(_EXACT, min_size=len(cells), max_size=len(cells))))
        if draw(st.booleans()):
            floats += draw(st.lists(st.tuples(st.sampled_from(cells), _FLOATS), min_size=1, max_size=3))
    return _build(space, exact, floats)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([enumerate_basis(BOSON, 5), enumerate_basis(FERMION, 6)]), st.data())
def test_invert_graded_matches_value_gauss_jordan(space, data):
    # exact blocks are inverted on ints and float blocks on values; both give
    # the oracle's entries, types and order, and a singular block raises alike
    op, want = data.draw(_level_graded(space))
    try:
        inverse = _oracle_invert(space, want)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            invert_graded(op)
        assert str(info.value) == str(exc)
        return
    _assert_matches(invert_graded(op), inverse, space.cutoff)


# ---------------------------------------------------------------------------
# the defect checks on float Theta against the same oracle

def _oracle_theta(space, matrix):
    """Theta by value: each state's mode images applied to the vacuum, right to left."""
    images = {}

    def image(factor, value):
        if (factor, value) not in images:
            row = matrix[0] if factor == "A" else matrix[1]
            a = _oracle_scale(_values(defect._embedded_mode(space, "A", value)), row[0])
            b = _oracle_scale(_values(defect._embedded_mode(space, "B", value)), row[1])
            images[(factor, value)] = _oracle_sum(a, b, 1)
        return images[(factor, value)]

    vac = space.vacuum_index
    columns, exact = {}, True
    for col, (i, j) in enumerate(space.pairs):
        modes = [("A", v) for v in space.left.states[i].occupied]
        modes += [("B", v) for v in space.right.states[j].occupied]
        state = ({vac: {vac: Fraction(1)}}, True)
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
    raw = {(f, v): _values(defect._embedded_mode(space, f, v)) for v in values for f in ("A", "B")}
    if matrix is None:
        inv = _oracle_invert(space, theta)
        images = {k: _oracle_matmul(_oracle_matmul(theta, op), inv) for k, op in raw.items()}
    else:
        images = {(f, v): _oracle_sum(_oracle_scale(raw[("A", v)], row[0]),
                                      _oracle_scale(raw[("B", v)], row[1]), 1)
                  for (f, v) in raw for row in [matrix[0] if f == "A" else matrix[1]]}
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
    # a skewed or float Theta, built and checked on ints beside floats, gives
    # the deviations (value and type) that per-entry arithmetic gives
    if kind == "skew":
        spec = BogoliubovSpec(*data.draw(st.sampled_from(_POINTS)))
    else:
        spec = BogoliubovSpec.from_angle(data.draw(st.floats(-3.0, 3.0)))
    real = build_theta_fermion(spec, cutoff)
    space = real.space
    theta, matrix = _oracle_theta(space, real.mode_map), real.mode_map
    if kind != "alpha":
        eps = data.draw(st.one_of(st.floats(1e-3, 0.5), st.floats(-0.5, -1e-3)))
        real = cli._skewed(real, eps)
        for i in range(min(space.dimension - 1, 12)):
            _oracle_add(theta[0], i + 1, i, eps)
        theta, matrix = (theta[0], False), None
    assert real.theta.exact == theta[1] and _typed(real.theta.to_dict()) == _typed(theta[0])
    ltot = defect.total_virasoro(space, -1)
    want = _oracle_matmul(theta, _values(ltot))
    assert _typed((real.theta @ ltot).to_dict()) == _typed(want[0])
    for n in range(-2, 3):
        got, ref = defect.check_intertwining(real, n), _oracle_intertwining(space, theta, n)
        assert got == ref and type(got) is type(ref), n
    got, ref = defect.check_ope_preservation(real), _oracle_ope(space, theta, matrix)
    assert got == ref and type(got) is type(ref)
