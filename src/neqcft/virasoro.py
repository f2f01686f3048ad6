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
matrices equals the truncated product exactly.  A mode matrix has one entry
per column at most, so the sum is built in one pass: each product's column
is one entry, composed by two lookups and added straight into one int
accumulator, with no product operator formed.  Generators are built once
per (model, n, space), from mode matrices built once per (space, value),
and shared, which is safe because spaces and built operators are never
mutated.  The checks multiply only the columns they read, those of the
safe subspace.  [L_n, L_m] - (n-m) L_{n+m} - central term is the negative
of the same operator at (m, n), and zero at m = n, so a caller checks each
unordered pair once.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from . import fock
from .fock import FERMION, BOSON, GradedOperator

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

    Mode values run as the ints 2s, and each mode matrix is looked up once.
    The coefficients are quarters (fermion) or halves (boson), so L_n is
    summed in one pass as int numerators over 4 or 2, and reduced when
    finished.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    if space.species != model:
        raise ValueError("state space species does not match the model")
    if abs(n) > space.cutoff:
        raise ValueError(f"cutoff {space.cutoff} too small to represent L_{n}")
    twice = fock.twice_mode_values(model, space.cutoff)
    modes = {t: fock.mode_operator(space, Fraction(t, 2)).columns for t in twice}
    cols = {}
    for t2 in twice:
        t1 = 2 * n - t2
        if t1 not in modes:
            continue  # a_0 is excluded; modes with |s| > cutoff vanish on the space
        # fermion: m/2 with s2 = m - 1/2, in quarters; boson: 1/2, in halves
        coeff = t2 + 1 if model == FERMION else 1
        if not coeff:
            continue
        left_mode, inner_first, sign = _normal_order(model, t1, t2)
        coeff *= sign
        left = modes[left_mode]
        for j, inner in modes[inner_first].items():
            (mid, v1), = inner.items()
            image = left.get(mid)
            if image is None:
                continue
            (row, v2), = image.items()
            # no entry sums to zero: at n != 0 only a pair (s1, s2) and its swap
            # meet at one entry, with coefficients adding to (s2 - s1)/2 or 1,
            # and at n = 0 only the diagonal level terms meet, all positive
            acc = cols.setdefault(j, {})
            acc[row] = acc.get(row, 0) + coeff * v2 * v1
    return GradedOperator(space, -2 * n, 0, cols, 4 if model == FERMION else 2).normalize()


def central_charge_probe(model, m, space):
    """12 <0|[L_m, L_-m]|0> / (m^3 - m) on the truncated ``space``, which must equal c exactly.

    The probe builds its generators on the caller's space, so the caller's
    checks share them.
    """
    if m < 2:
        raise ValueError("probe needs m >= 2 (the central term vanishes below)")
    if space.cutoff < m:
        raise ValueError(f"cutoff {space.cutoff} < m = {m}: matrix elements missing")
    lp = build_virasoro(model, m, space)
    lm = build_virasoro(model, -m, space)
    vac = space.vacuum_index
    # the vacuum is the only state at level 0, so only its column is formed
    comm = lp @ lm.restrict_columns(0)
    comm.accumulate(lm @ lp.restrict_columns(0), -1)
    return Fraction(12) * comm.entry(vac, vac) / (m ** 3 - m)


def commutator_deviation(model, m, n, space, central):
    """Largest entry of [L_m, L_n] - (m-n) L_{m+n} - central term, on the safe subspace."""
    safe = space.cutoff - max(abs(m), abs(n))
    lm = build_virasoro(model, m, space)
    ln = build_virasoro(model, n, space)
    # the products are fresh, so the expected terms are subtracted in place
    comm = lm @ ln.restrict_columns(safe)
    comm.accumulate(ln @ lm.restrict_columns(safe), -1)
    if m != n:
        comm.accumulate(build_virasoro(model, m + n, space).restrict_columns(safe), n - m)
    if m + n == 0:
        comm.accumulate(GradedOperator.identity(space).restrict_columns(safe),
                        -Fraction(central) * (m ** 3 - m) / 12)
    return comm.max_abs_entry()


def level_spectrum_deviation(model, space):
    """Largest entry of L_0 minus the diagonal of the state levels: L_0 must be that diagonal."""
    levels = GradedOperator(space, 0, 0,
                            {j: {j: t} for j, t in enumerate(space.twice_levels) if t}, 2)
    return (build_virasoro(model, 0, space) - levels).max_abs_entry()
