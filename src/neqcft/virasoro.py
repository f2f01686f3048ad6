"""Virasoro generators on truncated Fock spaces, built from mode bilinears.

Fermion model (c = 1/2):
    L_n = (1/2) sum_m m :b_{n-m+1/2} b_{m-1/2}:
Boson model (c = 1, zero-charge sector):
    L_n = (1/2) sum_m :a_{n-m} a_m:        (a_0 excluded)

Normal ordering puts annihilation modes (positive index) to the right and
drops the contraction, which is exactly the subtraction that makes
L_0|0> = 0; the central term of the algebra then emerges on its own and is
probed independently via <0|[L_m, L_-m]|0>.

Each generator is a finite sum of products of truncated mode matrices, one
per mode pair with |s| <= cutoff.  The annihilator acts first, so no
intermediate state lies above the final one and the product of truncated
matrices equals the truncated product exactly.  Generators are built once
per (model, n, space), from mode matrices built once per (space, value),
and shared, which is safe because spaces and built operators are never
mutated.  The checks multiply only the columns they read, those of the
safe subspace.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from . import fock
from .fock import FERMION, BOSON, GradedOperator, enumerate_basis

HALF = Fraction(1, 2)

MODELS = (FERMION, BOSON)


def _normal_order(species, s1, s2):
    # returns (first_applied, second_applied, sign): annihilators to the right,
    # contraction dropped
    if s1 > 0 and s2 < 0:
        sign = -1 if species == FERMION else 1
        return s2, s1, sign  # :b_{s1} b_{s2}: = sign * b_{s2} b_{s1}
    return s1, s2, 1


@functools.cache
def build_virasoro(model, n, space):
    """Matrix of L_n on the truncated space, built once per (model, n, space).

    Mode values run as the ints 2s; the coefficients are halves, so L_n is
    summed over denominator 2 and reduced when finished.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    if space.species != model:
        raise ValueError("state space species does not match the model")
    if abs(n) > space.cutoff:
        raise ValueError(f"cutoff {space.cutoff} too small to represent L_{n}")
    twice = fock.twice_mode_values(model, space.cutoff)
    present = set(twice)
    op = GradedOperator.zero(space, space, Fraction(-n), 0)
    for t2 in twice:
        t1 = 2 * n - t2
        if t1 not in present:
            continue  # a_0 is excluded; modes with |s| > cutoff vanish on the space
        # fermion: m/2 with s2 = m - 1/2
        coeff = Fraction(t2 + 1, 4) if model == FERMION else HALF
        left_mode, inner_first, sign = _normal_order(model, t1, t2)
        term = (fock.mode_operator(space, Fraction(left_mode, 2))
                @ fock.mode_operator(space, Fraction(inner_first, 2)))
        op.accumulate(term, coeff * sign)
    return op.normalize()


def central_charge_probe(model, m, space):
    """12 <0|[L_m, L_-m]|0> / (m^3 - m), which must equal c exactly.

    ``space`` is the truncated space to probe, or a cutoff to enumerate one
    at; passing the space shares its generators with the caller's checks.
    """
    if m < 2:
        raise ValueError("probe needs m >= 2 (the central term vanishes below)")
    if not isinstance(space, fock.StateSpace):
        space = enumerate_basis(model, Fraction(space))
    if space.cutoff < m:
        raise ValueError(f"cutoff {space.cutoff} < m = {m}: matrix elements missing")
    lp = build_virasoro(model, m, space)
    lm = build_virasoro(model, -m, space)
    vac = space.vacuum_index
    # the vacuum is the only state at level 0, so only its column is formed
    comm = lp @ lm.restrict_columns(0) - lm @ lp.restrict_columns(0)
    return Fraction(12) * comm.entry(vac, vac) / (m ** 3 - m)


def commutator_deviation(model, m, n, space, central=None):
    """Largest entry of [L_m, L_n] - (m-n) L_{m+n} - central term, on the safe subspace."""
    if central is None:
        central = central_charge_probe(model, 2, space)
    safe = space.cutoff - max(abs(m), abs(n))
    lm = build_virasoro(model, m, space)
    ln = build_virasoro(model, n, space)
    comm = lm @ ln.restrict_columns(safe) - ln @ lm.restrict_columns(safe)
    expect = GradedOperator.zero(space, space, Fraction(-(m + n)), 0)
    if m != n:
        expect = expect + (m - n) * build_virasoro(model, m + n, space).restrict_columns(safe)
    if m + n == 0:
        cterm = Fraction(central) * (m ** 3 - m) / 12
        expect = expect + cterm * GradedOperator.identity(space)
    return (comm - expect).max_abs_entry(max_col_level=safe)


def hermiticity_deviation(model, n, space):
    """Check L_n^dag = L_{-n} against the gram matrix of the basis.

    Walks the stored entries of L_n and L_{-n}; where both are zero the
    condition holds on its own.
    """
    ln = build_virasoro(model, n, space)
    lmn = build_virasoro(model, -n, space)
    gram = fock.gram_diagonal(space)
    # (i, j) for the stored L_n[i, j] and for the stored L_{-n}[j, i]
    pairs = {(i, j) for j in ln.columns for i in ln.columns[j]}
    pairs.update((i, j) for i in lmn.columns for j in lmn.columns[i])
    dev = 0
    for i, j in pairs:
        d = abs(ln.entry(i, j) * gram[i] - lmn.entry(j, i) * gram[j])
        if d > dev:
            dev = d
    return dev


def level_spectrum_deviation(model, space):
    """L_0 must be diagonal with eigenvalue equal to the state level.

    Walks the stored entries of L_0 and its diagonal; every other entry is
    zero, as it should be.
    """
    l0 = build_virasoro(model, 0, space)
    dev = 0
    for j in range(space.dimension):
        col = l0.column(j)
        for i, val in col.items():
            d = abs(val - space.level(j)) if i == j else abs(val)
            if d > dev:
                dev = d
        if j not in col and abs(space.level(j)) > dev:
            dev = abs(space.level(j))
    return dev
