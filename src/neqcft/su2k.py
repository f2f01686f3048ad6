"""Global-rotation decomposition of the u(1) stress tensor inside su(2)_k.

The left u(1) current sits inside the su(2)_k triplet as J0 = sqrt(k/2) J,
so T_u1 = (1/2) J^2 = (1/k) J0 J0.  A global rotation mixes
J0 -> s J0 + (rbar J+ + r J-)/sqrt(2) with s^2 + r rbar = 1, and the
rotated bilinear is reduced with exactly three rewrite rules:

    J+ J- + J- J+  ->  (k+2) T_su2 - J0 J0
    J0 J0          ->  k T_u1
    T_su2          ->  T_u1 + T_Zk

applied in this order, each as one assignment that moves the whole
coefficient of its source onto its targets, so nothing but T_u1 and T_Zk
is left and no closure check is needed.  Everything with net u(1) charge
is kept as a separate lump, the sum of its coefficients; those
operators average to zero in the product Gibbs state, which the negative
control below can override to show the current would notice.

The k = 2 point doubles as a cross-check: there the parafermion side is a
single Majorana fermion and the rotated dynamics is a pure reflection of
one left fermion plus a mode rotation between the other and the right
fermion, so the current can be recomputed entirely through the fermion
scattering engine.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import sympy as sp

from . import ness

S_PARAM = sp.Symbol("s", real=True)
RR_PARAM = sp.Symbol("r_rbar", nonnegative=True)
K_PARAM = sp.Symbol("k", positive=True)
BETA = sp.Symbol("beta", real=True)


@dataclass(frozen=True)
class RotationParams:
    """Rotation data (k, s, r rbar, beta) with s^2 + r rbar = 1."""

    k: object
    s: object
    rr_bar: object
    beta: object = 0

    def __post_init__(self):
        for name in ("k", "s", "rr_bar", "beta"):
            object.__setattr__(self, name, ness.to_sympy(getattr(self, name)))
        if self.s.is_number and self.rr_bar.is_number:
            if ness.canonical(self.s ** 2 + self.rr_bar - 1) != 0:
                raise ValueError("s^2 + r rbar must equal 1")
            if self.rr_bar < 0 or self.rr_bar > 1:
                raise ValueError("r rbar must lie in [0, 1]")

    @classmethod
    def symbolic(cls, k=K_PARAM):
        return cls(k, S_PARAM, RR_PARAM, BETA)

    @classmethod
    def from_rr_bar(cls, k, rr_bar):
        rr = ness.to_sympy(rr_bar)
        return cls(k, sp.sqrt(1 - rr), rr)

    @property
    def r(self):
        return sp.sqrt(self.rr_bar) * sp.exp(sp.I * self.beta)

    @property
    def rbar(self):
        return sp.sqrt(self.rr_bar) * sp.exp(-sp.I * self.beta)


def _reduce_s(expr, params):
    # the constraint s^2 = 1 - r rbar, applied as a rewrite
    return ness.rewrite_squares(expr, params.s, 1 - params.rr_bar)


@functools.cache
def rotate_u1_stress(params):
    """Image of T_u1 = (1/k) J0 J0 under the global rotation, reduced to stress form.

    Returns the coefficients of T_u1 and T_Zk and the charged lump, the sum
    of the coefficients of the terms with net u(1) charge.  Memoized per
    (frozen, hashable) ``RotationParams``: the decomposition, its unit sum
    and the current all start from it.
    """
    k = params.k
    s, rr = params.s, params.rr_bar
    r, rbar = params.r, params.rbar
    # (s J0 + (rbar J+ + r J-)/sqrt(2))^2, coefficient 1/k, orders kept symmetrized
    j0j0, jpm = s ** 2 / k, rr / (2 * k)
    charged = (s * rbar / (sp.sqrt(2) * k) + s * r / (sp.sqrt(2) * k)
               + rbar ** 2 / (2 * k) + r ** 2 / (2 * k))
    # {J+, J-} -> (k+2) T_su2 - J0J0
    t_su2, j0j0 = (k + 2) * jpm, j0j0 - jpm
    # J0J0 -> k T_u1
    t_u1 = k * j0j0
    # T_su2 -> T_u1 + T_Zk
    t_u1, t_zk = t_u1 + t_su2, t_su2
    return _reduce_s(t_u1, params), _reduce_s(t_zk, params), charged


def parafermion_central_charge(k):
    k = sp.sympify(k)
    return 2 * (k - 1) / (k + 2)


def decomposition_coefficients(params):
    """(coefficient of T_u1, coefficient of T_Zk) after the rotation."""
    return rotate_u1_stress(params)[:2]


def unit_sum_deviation(params):
    """c-weighted sum of the decomposition coefficients minus the left central charge."""
    cu1, czk = decomposition_coefficients(params)
    cr = parafermion_central_charge(params.k)
    return ness.canonical(_reduce_s(cu1 * 1 + czk * cr, params) - 1)


def energy_current_k(params, weights=None, charged_value=0):
    """Steady current from the rotated left stress tensor.

    ``charged_value`` assigns a fake average to every charged term;
    it exists so the vanishing of charged averages can be tested as a load
    bearing assumption rather than silently dropped.
    """
    weights = weights or ness.GibbsWeights()
    tl, tr = sp.sympify(weights.t_left), sp.sympify(weights.t_right)
    cu1, czk, charged = rotate_u1_stress(params)
    omega_tl = ness.stress_average(1, tl)
    omega_tr = ness.stress_average(parafermion_central_charge(params.k), tr)
    scattered_tbar = cu1 * omega_tl + czk * omega_tr
    if charged_value != 0:
        scattered_tbar += charged_value * charged
    j = omega_tl - scattered_tbar
    return ness.canonical(_reduce_s(j, params))


def closed_form_current(params, weights=None):
    """Reference closed form (pi/12)((k-1)/k)(r rbar)(T_l^2 - T_r^2)."""
    weights = weights or ness.GibbsWeights()
    tl, tr = sp.sympify(weights.t_left), sp.sympify(weights.t_right)
    k = params.k
    return sp.pi / 12 * (k - 1) / k * params.rr_bar * (tl ** 2 - tr ** 2)


def fermionize_k2(params):
    """The k = 2 current recomputed through the fermion scattering engine.

    At k = 2 the left theory fermionizes into two Majorana fields; one of
    them reflects off the impurity while the other rotates into the right
    fermion with cos of the effective angle equal to |r|.  A field name
    enters no coefficient, so both sectors scatter as psi does.

    Returns the effective rotation (cos, sin) = (|r|, s), the current summed
    over the two sectors, and the current of the algebraic route
    (energy_current_k); the two must agree.
    """
    if sp.sympify(params.k) != 2:
        raise ValueError("fermionization cross-check is specific to k = 2")
    effective = (sp.sqrt(params.rr_bar), params.s)
    # the rotating field with the right fermion, both c = 1/2 sectors
    j_pair = ness.energy_current(effective)
    # the other field decouples through a pure reflection and carries nothing
    j_reflected = ness.energy_current((0, 1))
    return effective, ness.canonical(j_pair + j_reflected), energy_current_k(params)
