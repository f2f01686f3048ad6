"""Reference values computed apart from neqcft, used to check its reports.

Nothing here imports the package under test: basis dimensions come from
partition generating functions, transmission from its closed form, the
Landauer current from a Gauss-Legendre quadrature of that closed form, and
the energy currents from their textbook formulas.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def fermion_dimension(cutoff):
    """Coefficient sum up to q^cutoff of prod (1 + q^r), r = 1/2, 3/2, ...

    Counted in half-units: subsets of distinct odd numbers with sum <= 2 cutoff.
    """
    top = int(2 * Fraction(cutoff))
    coeff = [1] + [0] * top
    for part in range(1, top + 1, 2):
        for total in range(top, part - 1, -1):
            coeff[total] += coeff[total - part]
    return sum(coeff)


def boson_dimension(cutoff):
    """Coefficient sum up to q^cutoff of prod 1 / (1 - q^n), n >= 1."""
    top = int(Fraction(cutoff))
    coeff = [1] + [0] * top
    for part in range(1, top + 1):
        for total in range(part, top + 1):
            coeff[total] += coeff[total - part]
    return sum(coeff)


def transmission(lam, omega, coupling=1.0):
    """T(w) = 4 lam^2 v^2 / ((1 - lam^2)^2 + 4 lam^2 v^2), v^2 = 1 - (w / 2t)^2."""
    v2 = 1.0 - (omega / (2.0 * coupling)) ** 2
    return 4 * lam ** 2 * v2 / ((1 - lam ** 2) ** 2 + 4 * lam ** 2 * v2)


def transmission_dc(lam):
    return 4 * lam ** 2 / (1 + lam ** 2) ** 2


def _fermi(omega, temperature):
    if temperature == 0:
        return np.zeros_like(omega)
    return 0.5 * (1.0 - np.tanh(omega / (2.0 * temperature)))


def landauer(lam, t_left, t_right, coupling=1.0, panels=400, order=20):
    """(1/2 pi) int_0^{2t} w T(w) [f_l(w) - f_r(w)] dw by composite Gauss-Legendre."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, 2.0 * coupling, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    w = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    jac = np.repeat(half, order) * np.tile(weights, panels)
    integrand = w * transmission(lam, w, coupling) * (_fermi(w, t_left) - _fermi(w, t_right))
    return float(np.sum(jac * integrand) / (2.0 * math.pi))


def cft_current(cos_a, t_left, t_right):
    """J = (pi cos^2 a / 24)(T_l^2 - T_r^2)."""
    return math.pi * float(cos_a) ** 2 / 24.0 * (t_left ** 2 - t_right ** 2)


def entropy_production(cos_a, t_left, t_right):
    """sigma = (1/T_r - 1/T_l) J."""
    return (1.0 / t_right - 1.0 / t_left) * cft_current(cos_a, t_left, t_right)


def su2k_current(k, rr_bar, t_left, t_right):
    """J = (pi/12)((k-1)/k)(r rbar)(T_l^2 - T_r^2)."""
    return math.pi / 12.0 * (k - 1) / k * float(rr_bar) * (t_left ** 2 - t_right ** 2)


def zn_characters(n):
    """Phases (as fractions of a turn) of psi_1 .. psi_{n-1} for each character of Z_n."""
    return {tuple(Fraction(j * a % n, n) for a in range(1, n)) for j in range(n)}
