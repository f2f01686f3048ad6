"""Helpers that only the tests use: grading, block-structure and hermiticity oracles for
operators, readers of operators and spaces, the rotations the tests compose, the
cancelled normal form of a symbolic coefficient, the scattering rules of one field
factor written out case by case, the CLI's subcommands and the committed record of
its reports."""

import argparse
import json
import pathlib
from fractions import Fraction

import sympy as sp

from neqcft import cli, ness, virasoro
from neqcft.defect import BogoliubovSpec
from neqcft.fock import BOSON, GradedOperator, ProductSpace, twice_mode_values

TRANSMISSION = BogoliubovSpec(1, 0)
REFLECTION = BogoliubovSpec(0, 1)


def compose(a, b):
    """The rotation by the sum of the angles of the BogoliubovSpecs ``a`` and ``b``."""
    return BogoliubovSpec(a.cos_a * b.cos_a - a.sin_a * b.sin_a,
                          a.sin_a * b.cos_a + a.cos_a * b.sin_a)


def inverse(spec):
    """The rotation by minus the angle of ``spec``."""
    return BogoliubovSpec(spec.cos_a, -spec.sin_a)


def mode_values(species, bound):
    """Mode values v of the species with |v| <= bound, in ascending order."""
    return [Fraction(t, 2) for t in twice_mode_values(species, bound)]


def level_shift(op):
    """The level an operator adds, as a Fraction."""
    return Fraction(op.twice_shift, 2)


def column(op, col):
    """Column ``col`` of ``op`` by value, ``{row: entry}`` in stored order; empty when zero."""
    den = op.denominator
    return {row: Fraction(val, den) if type(val) is int else val
            for row, val in op.columns.get(col, {}).items()}


def to_dict(op):
    """Every nonzero column of ``op`` by value, ``{col: {row: entry}}`` in stored order."""
    return {j: column(op, j) for j in op.columns}


def vacuum_index(space):
    """The index of the vacuum of a StateSpace or a ProductSpace."""
    if isinstance(space, ProductSpace):
        return space.index_of(tuple(f.vacuum_index for f in space.factors))
    return space.vacuum_index


def parity(space, n):
    """The fermion parity of basis state ``n`` of a StateSpace or a ProductSpace."""
    if isinstance(space, ProductSpace):
        return sum(f.parity(i) for f, i in zip(space.factors, space.states[n])) % 2
    return space.parity(n)


def cell(like, row, col, value):
    """The operator with the one entry ``value`` at (row, col), on the space and grading of ``like``.

    A float is stored as itself and an exact value over its own denominator,
    so ``op.accumulate(cell(op, row, col, value))`` adds ``value`` at that
    place as it stands, a float 1.0 included.
    """
    if isinstance(value, float):
        return GradedOperator(like.space, like.twice_shift, like.parity_shift,
                              {col: {row: value}}, exact=False)
    value = Fraction(value)
    return GradedOperator(like.space, like.twice_shift, like.parity_shift,
                          {col: {row: value.numerator}}, value.denominator)


def check_grading(op):
    """Raise AssertionError unless every entry of ``op`` shifts level and parity by its grading."""
    for j, c in op.columns.items():
        for row in c:
            dl2 = op.space.twice_levels[row] - op.space.twice_levels[j]
            dp = (parity(op.space, row) - parity(op.space, j)) % 2
            if dl2 != op.twice_shift or dp != op.parity_shift:
                raise AssertionError(
                    f"entry ({row},{j}) violates grading: dl={Fraction(dl2, 2)}, dp={dp}")
    return True


def max_matrix_deviation(a, b):
    """Largest entry of the difference of two operators on one space."""
    return (a - b).max_abs_entry()


def reflection_block_mixing(real):
    """Largest entry connecting a one-factor state to a mixed or same-factor state.

    A pure reflection must send factor-0-only states to factor-1-only states
    and back, with no mixing; returns the worst off-block entry over those
    columns.
    """
    space = real.theta.space
    vac0, vac1 = (f.vacuum_index for f in space.factors)
    dev = 0
    for col, (i, j) in enumerate(space.states):
        a_only = j == vac1 and i != vac0
        b_only = i == vac0 and j != vac1
        if not (a_only or b_only):
            continue
        for row, val in column(real.theta, col).items():
            ri, rj = space.states[row]
            ok = (ri == vac0) if a_only else (rj == vac1)
            if not ok:
                dev = max(dev, abs(val))
    return dev


def gram_diagonal(space):
    """Norms squared of the basis states under b_s^dag = b_{-s}, a_n^dag = a_{-n}.

    This hermitian structure is a convention, consistent with a real
    fermion.  Fermionic states are orthonormal; a bosonic mode occupied n
    times at value -k contributes n! * k^n.
    """
    out = []
    for state in space.states:
        g = 1
        if space.species == BOSON:
            run = {}
            for t in state:
                run[t] = run.get(t, 0) + 1
            for t, n in run.items():
                for r in range(1, n + 1):
                    g *= r * (-t // 2)
        out.append(Fraction(g))
    return out


def hermiticity_deviation(model, n, space):
    """Check L_n^dag = L_{-n} against the gram matrix of the basis.

    Walks the stored entries of L_n and L_{-n}; where both are zero the
    condition holds on its own.
    """
    ln = virasoro.build_virasoro(model, n, space)
    lmn = virasoro.build_virasoro(model, -n, space)
    gram = gram_diagonal(space)
    # (i, j) for the stored L_n[i, j] and for the stored L_{-n}[j, i]
    pairs = {(i, j) for j in ln.columns for i in ln.columns[j]}
    pairs.update((i, j) for i in lmn.columns for j in lmn.columns[i])
    dev = 0
    for i, j in pairs:
        d = abs(ln.entry(i, j) * gram[i] - lmn.entry(j, i) * gram[j])
        if d > dev:
            dev = d
    return dev


def cancelled_normal_form(expr):
    """The normal form ``ness.canonical`` gives, with ``cancel`` run on every input."""
    expr = ness.rewrite_squares(expr, sp.sin(ness.ALPHA), 1 - sp.cos(ness.ALPHA) ** 2)
    return sp.factor_terms(sp.cancel(expr))


def evolved_factor(f, t, c, s, regime):
    """``ness.evolve`` of one psi factor at the symmetric point, one case per chirality and side.

    ``c, s`` are the cosine and sine of the rotation, as ``ness.theta_pair`` gives them.
    """
    crossing = regime == ness.AFTER
    if not f.bar and f.side == "l":
        return ness.FieldExpression.from_field(f.shifted(-t))
    if f.bar and f.side == "r":
        return ness.FieldExpression.from_field(f.shifted(t))
    km = (-1) ** f.deriv
    if not f.bar and f.side == "r":
        if not crossing:
            return ness.FieldExpression.from_field(f.shifted(-t))
        trans = ness.LocalField("psi", "l", bar=False, deriv=f.deriv, position=f.position - t)
        refl = ness.LocalField("psi", "r", bar=True, deriv=f.deriv, position=t - f.position)
        return ness.FieldExpression(((c, (trans,)), (km * s, (refl,))))
    # anti-chiral on the left
    if not crossing:
        return ness.FieldExpression.from_field(f.shifted(t))
    trans = ness.LocalField("psi", "r", bar=True, deriv=f.deriv, position=f.position + t)
    refl = ness.LocalField("psi", "l", bar=False, deriv=f.deriv, position=-f.position - t)
    return ness.FieldExpression(((c, (trans,)), (-km * s, (refl,))))


def scattered_factor(f, c, s):
    """``ness.apply_smatrix`` of one psi factor, one case per chirality and side."""
    if not f.bar and f.side == "l":
        return ness.FieldExpression.from_field(f)
    if f.bar and f.side == "r":
        return ness.FieldExpression.from_field(f)
    km = (-1) ** f.deriv
    if not f.bar and f.side == "r":
        partner = ness.fermion("l", -f.position, bar=True, deriv=f.deriv)
        return ness.FieldExpression(((s, (f,)), (-km * c, (partner,))))
    partner = ness.fermion("r", -f.position, deriv=f.deriv)
    return ness.FieldExpression(((s, (f,)), (km * c, (partner,))))


def subcommands():
    """The subcommand names of the CLI parser, sorted."""
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sorted(action.choices)


def recorded_reports():
    """tests/reports.jsonl: one [argv, exit code, stdout, stderr, {file written: text}] per command."""
    path = pathlib.Path(__file__).resolve().parent / "reports.jsonl"
    return [json.loads(line) for line in path.read_text().splitlines()]
