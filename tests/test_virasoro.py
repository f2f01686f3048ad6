"""Virasoro algebra on the truncated spaces: central charges, commutators, ladders."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neqcft import virasoro
from neqcft.fock import (BOSON, FERMION, GradedOperator, enumerate_basis, mode_operator,
                         twice_mode_values)
from neqcft.virasoro import (build_virasoro, central_charge_probe, commutator_deviation,
                             level_spectrum_deviation)
from oracles import (cell, check_grading, column, gram_diagonal, hermiticity_deviation,
                     level_shift, to_dict)

HALF = Fraction(1, 2)


def _apply(gen, twice):
    """The generator's image of one basis state, given by twice its mode values: the state's column."""
    return column(gen, gen.space.index_of(twice))


def test_l0_is_diagonal_with_level_eigenvalues():
    for model in (FERMION, BOSON):
        space = enumerate_basis(model, 5)
        assert level_spectrum_deviation(model, space) == 0


def test_fermion_weight_one_half():
    space = enumerate_basis(FERMION, 3)
    l0 = build_virasoro(FERMION, 0, space)
    amps = _apply(l0, (-1,))
    assert amps == {space.index_of((-1,)): HALF}


def test_lowering_ladder_matches_factorial_rule():
    # (L_-1)^n applied to the weight-1/2 state gives n! times a single mode
    space = enumerate_basis(FERMION, Fraction(11, 2))
    lm1 = build_virasoro(FERMION, -1, space)
    power = lm1
    fact = 1
    for n in range(1, 5):
        fact *= n
        target = space.index_of((-(2 * n + 1),))
        assert _apply(power, (-1,)) == {target: Fraction(fact)}, n
        power = lm1 @ power


def test_vacuum_annihilation():
    for model in (FERMION, BOSON):
        space = enumerate_basis(model, 4)
        for n in (-1, 0, 1, 2, 3):
            gen = build_virasoro(model, n, space)
            assert _apply(gen, ()) == {}, (model, n)


def test_primary_state_structure():
    # L_n psi = 0 for n >= 1, L_0 psi = psi/2, L_-1 psi = the next mode
    space = enumerate_basis(FERMION, 4)
    psi = (-1,)
    assert _apply(build_virasoro(FERMION, 1, space), psi) == {}
    assert _apply(build_virasoro(FERMION, 2, space), psi) == {}
    assert _apply(build_virasoro(FERMION, 0, space), psi) == {space.index_of(psi): HALF}
    assert _apply(build_virasoro(FERMION, -1, space), psi) == {
        space.index_of((-3,)): Fraction(1)}


def test_boson_current_primary_structure():
    # the weight-1 state a_-1|0> is primary: annihilated by L_1 and L_2,
    # L_0 eigenvalue 1, L_-1 gives the descendant a_-2|0>
    space = enumerate_basis(BOSON, 4)
    cur = (-2,)
    assert _apply(build_virasoro(BOSON, 1, space), cur) == {}
    assert _apply(build_virasoro(BOSON, 2, space), cur) == {}
    assert _apply(build_virasoro(BOSON, 0, space), cur) == {space.index_of(cur): Fraction(1)}
    assert _apply(build_virasoro(BOSON, -1, space), cur) == {
        space.index_of((-4,)): Fraction(1)}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_commutator_law_beyond_default_range(data):
    # half-integer cutoffs exercise the mode window of the fermion generators
    model = data.draw(st.sampled_from((FERMION, BOSON)))
    twice = data.draw(st.integers(6, 14).filter(lambda t: model == FERMION or t % 2 == 0))
    cutoff = Fraction(twice, 2)
    top = int(cutoff)
    m = data.draw(st.integers(-top, top))
    n = data.draw(st.integers(-top, top).filter(lambda k: k == m or abs(m + k) <= top))
    space = enumerate_basis(model, cutoff)
    central = central_charge_probe(model, 2, space)
    assert commutator_deviation(model, m, n, space, central) == 0


def _commutator_full(model, m, n, space, central):
    # oracle: the full products, masked to the safe columns afterwards
    lm = build_virasoro(model, m, space)
    ln = build_virasoro(model, n, space)
    diff = lm @ ln - ln @ lm
    if m != n:
        diff.accumulate(build_virasoro(model, m + n, space), n - m)
    if m + n == 0:
        diff.accumulate(GradedOperator.identity(space), -Fraction(central) * (m ** 3 - m) / 12)
    return diff.restrict_columns(space.cutoff - max(abs(m), abs(n))).max_abs_entry()


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_restricted_commutator_matches_full_products(data):
    # a wrong central charge is the corruption: it must show up alike on both sides
    model = data.draw(st.sampled_from((FERMION, BOSON)))
    twice = data.draw(st.integers(4, 10).filter(lambda t: model == FERMION or t % 2 == 0))
    cutoff = Fraction(twice, 2)
    top = int(cutoff)
    m = data.draw(st.integers(-top, top))
    n = data.draw(st.integers(-top, top).filter(lambda k: k == m or abs(m + k) <= top))
    true_c = HALF if model == FERMION else Fraction(1)
    central = data.draw(st.sampled_from((true_c, true_c + Fraction(1, 3), Fraction(0))))
    space = enumerate_basis(model, cutoff)
    dev = commutator_deviation(model, m, n, space, central=central)
    assert dev == _commutator_full(model, m, n, space, central)
    if central == true_c:
        assert dev == 0


def _sum_of_products(model, n, space):
    # oracle: L_n as the sum of its products of two mode matrices, each
    # product formed in full and accumulated with its Fraction coefficient
    twice = twice_mode_values(model, space.cutoff)
    op = GradedOperator(space, -2 * n, 0, {})
    for t2 in twice:
        t1 = 2 * n - t2
        if t1 not in twice:
            continue
        coeff = Fraction(t2 + 1, 4) if model == FERMION else HALF
        left, inner, sign = virasoro._normal_order(model, t1, t2)
        op.accumulate(mode_operator(space, Fraction(left, 2)) @ mode_operator(space, Fraction(inner, 2)),
                      coeff * sign)
    return op.normalize()


@pytest.mark.parametrize("model, cutoff", [
    (FERMION, 3), (FERMION, Fraction(7, 2)), (FERMION, 6), (FERMION, Fraction(13, 2)),
    (FERMION, Fraction(21, 2)), (BOSON, 3), (BOSON, Fraction(7, 2)), (BOSON, 6), (BOSON, Fraction(13, 2)),
    (BOSON, 10)])
def test_one_pass_generators_match_the_sum_of_products(model, cutoff):
    # the same entries, in the same stored order, over the same denominator
    space = enumerate_basis(model, cutoff)
    top = int(cutoff)
    for n in range(-top, top + 1):
        gen, want = build_virasoro(model, n, space), _sum_of_products(model, n, space)
        assert [(j, list(c.items())) for j, c in gen.columns.items()] == \
            [(j, list(c.items())) for j, c in want.columns.items()], n
        assert (gen.denominator, gen.twice_shift, gen.parity_shift, gen.exact) == \
            (want.denominator, want.twice_shift, 0, True)


def _corrupt_one(k_bad):
    """build_virasoro with 1/7 added to the first stored entry of L_k_bad, the same object each call."""
    built = {}

    def build(model, k, space):
        gen = build_virasoro(model, k, space)
        if k != k_bad:
            return gen
        if (model, space) not in built:
            j, col = next(iter(to_dict(gen).items()), (0, {0: 0}))
            built[(model, space)] = _corrupt(gen, next(iter(col)), j, Fraction(1, 7))
        return built[(model, space)]
    return build


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_commutator_deviation_is_symmetric_and_zero_on_the_diagonal(data):
    # what the virasoro-check loop relies on to read each unordered pair once:
    # the (n, m) deviation operator is the negative of the (m, n) one, and the
    # (m, m) one is zero, whatever the central charge and whichever generator
    # is corrupt
    model = data.draw(st.sampled_from((FERMION, BOSON)))
    cutoff = Fraction(data.draw(st.integers(4, 12)), 2)
    top = int(cutoff)
    m = data.draw(st.integers(-top, top))
    n = data.draw(st.integers(-top, top).filter(lambda k: abs(m + k) <= top))
    true_c = HALF if model == FERMION else Fraction(1)
    central = data.draw(st.sampled_from((true_c, true_c + Fraction(1, 3), Fraction(0))))
    bad = data.draw(st.sampled_from((None, m, n, m + n)))
    space = enumerate_basis(model, cutoff)
    with pytest.MonkeyPatch.context() as mp:
        if bad is not None:
            mp.setattr(virasoro, "build_virasoro", _corrupt_one(bad))
        dev = commutator_deviation(model, m, n, space, central)
        assert dev == commutator_deviation(model, n, m, space, central)
        assert commutator_deviation(model, m, m, space, central) == 0
        assert commutator_deviation(model, n, n, space, central) == 0


def test_central_charge_probe_shares_the_callers_space():
    # generators are cached by space value; a probe on a space of its own would
    # leave the caller's checks with operators on a different object
    build_virasoro.cache_clear()
    space = enumerate_basis(FERMION, 4)
    assert central_charge_probe(FERMION, 2, space) == HALF
    assert build_virasoro(FERMION, 2, space).space is space
    assert central_charge_probe(FERMION, 2, enumerate_basis(FERMION, 4)) == HALF


def _corrupt(op, row, col, delta):
    return op + cell(op, row, col, delta)


@pytest.mark.parametrize("model", [FERMION, BOSON])
def test_level_spectrum_negative_controls(monkeypatch, model):
    space = enumerate_basis(model, 4)
    l0 = build_virasoro(model, 0, space)
    j = space.index_of((-4,) if model == BOSON else (-3, -1))
    level = Fraction(space.twice_levels[j], 2)
    corrupted = [
        (_corrupt(l0, j, j, Fraction(1, 7)), Fraction(1, 7)),              # wrong diagonal entry
        (_corrupt(l0, 0, j, Fraction(-1, 3)), Fraction(1, 3)),             # stray off-diagonal entry
        (_corrupt(l0, j, j, -level), level),                               # missing diagonal entry
    ]
    assert level != 0 and level_spectrum_deviation(model, space) == 0
    for bad, want in corrupted:
        monkeypatch.setattr(virasoro, "build_virasoro", lambda *_, op=bad: op)
        assert level_spectrum_deviation(model, space) == want


def test_central_charge_probe_values():
    assert central_charge_probe(FERMION, 2, enumerate_basis(FERMION, 4)) == HALF
    assert central_charge_probe(BOSON, 2, enumerate_basis(BOSON, 4)) == 1
    assert central_charge_probe(FERMION, 3, enumerate_basis(FERMION, 5)) == HALF
    assert central_charge_probe(BOSON, 3, enumerate_basis(BOSON, 5)) == 1


def test_central_term_absent_at_m_one():
    # [L_1, L_-1] = 2 L_0 exactly
    for model in (FERMION, BOSON):
        space = enumerate_basis(model, 4)
        central = central_charge_probe(model, 2, space)
        assert commutator_deviation(model, 1, -1, space, central) == 0


def test_probe_input_validation():
    with pytest.raises(ValueError):
        central_charge_probe(FERMION, 1, enumerate_basis(FERMION, 4))
    with pytest.raises(ValueError):
        central_charge_probe(FERMION, 3, enumerate_basis(FERMION, 2))


def test_build_rejects_undersized_cutoff():
    space = enumerate_basis(FERMION, 2)
    with pytest.raises(ValueError):
        build_virasoro(FERMION, 3, space)


def test_full_commutator_law():
    for model in (FERMION, BOSON):
        space = enumerate_basis(model, 6)
        c = central_charge_probe(model, 2, space)
        for m in range(-2, 3):
            for n in range(-2, 3):
                assert commutator_deviation(model, m, n, space, central=c) == 0, (model, m, n)


def test_hermiticity_under_mode_conjugation():
    for model in (FERMION, BOSON):
        space = enumerate_basis(model, 4)
        for n in (0, 1, 2):
            assert hermiticity_deviation(model, n, space) == 0, (model, n)


def _hermiticity_dense(ln, lmn, space):
    # oracle: every entry pair of the space, stored or not
    gram = gram_diagonal(space)
    return max(abs(ln.entry(i, j) * gram[i] - lmn.entry(j, i) * gram[j])
               for i in range(space.dimension) for j in range(space.dimension))


@pytest.mark.parametrize("model", [FERMION, BOSON])
def test_hermiticity_negative_controls(monkeypatch, model):
    # a stray entry in L_n, or one missing from it, shows up alike in the
    # walk over the stored entries and in the dense oracle
    space = enumerate_basis(model, 4)
    ln, lmn = build_virasoro(model, 2, space), build_virasoro(model, -2, space)
    j, col = next(iter(to_dict(ln).items()))
    i = next(iter(col))
    for bad in (_corrupt(ln, 0, space.dimension - 1, Fraction(1, 3)),
                _corrupt(ln, i, j, -ln.entry(i, j))):
        monkeypatch.setattr(virasoro, "build_virasoro",
                            lambda _model, n, _space, bad=bad: bad if n == 2 else lmn)
        dev = hermiticity_deviation(model, 2, space)
        assert dev != 0 and dev == _hermiticity_dense(bad, lmn, space)


def test_generator_grading_invariant():
    for model in (FERMION, BOSON):
        space = enumerate_basis(model, 4)
        for n in (-2, -1, 0, 1, 2):
            gen = build_virasoro(model, n, space)
            assert level_shift(gen) == -n
            assert gen.parity_shift == 0
            check_grading(gen)


def test_boson_gram_matrix():
    space = enumerate_basis(BOSON, 4)
    gram = gram_diagonal(space)
    # a_{-1}^2 |0> has norm^2 = 2, a_{-2} |0> has norm^2 = 2, a_{-2} a_{-1}^2 -> 4
    assert gram[space.index_of((-2, -2))] == 2
    assert gram[space.index_of((-4,))] == 2
    assert gram[space.index_of((-4, -2, -2))] == 4
