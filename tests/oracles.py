"""Helpers that only the tests use: grading and block-structure oracles for operators."""

from fractions import Fraction


def check_grading(op):
    """Raise AssertionError unless every entry of ``op`` shifts level and parity by its grading."""
    want = 2 * op.level_shift
    for j, c in op.columns.items():
        for row in c:
            dl2 = op.codomain.twice_levels[row] - op.domain.twice_levels[j]
            dp = (op.codomain.parity(row) - op.domain.parity(j)) % 2
            if dl2 != want or dp != op.parity_shift:
                raise AssertionError(
                    f"entry ({row},{j}) violates grading: dl={Fraction(dl2, 2)}, dp={dp}")
    return True


def max_matrix_deviation(a, b):
    """Largest entry of the difference of two operators on one space."""
    return (a - b).max_abs_entry()


def reflection_block_mixing(real):
    """Largest entry connecting a one-factor state to a mixed or same-factor state.

    A pure reflection must send A-only states to B-only states and back,
    with no mixing; returns the worst off-block entry over those columns.
    """
    space = real.space
    dev = 0
    for col, (i, j) in enumerate(space.pairs):
        a_only = j == space.right.vacuum_index and i != space.left.vacuum_index
        b_only = i == space.left.vacuum_index and j != space.right.vacuum_index
        if not (a_only or b_only):
            continue
        for row, val in real.theta.column(col).items():
            ri, rj = space.pairs[row]
            ok = (ri == space.left.vacuum_index) if a_only else (rj == space.right.vacuum_index)
            if not ok:
                dev = max(dev, abs(val))
    return dev
