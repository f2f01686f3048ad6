"""Free-fermion lattice oracle for energy transport through a defect bond.

The model is a critical Majorana hopping chain,

    H = (i/2) sum_m t_m gamma_m gamma_{m+1},    {gamma_m, gamma_n} = 2 delta_mn,

with uniform couplings except for one rescaled central bond (the defect).
A chain of N fermionic sites carries 2N Majorana operators; the left half
is Majoranas 0..N-1.  Writing H = (i/4) gamma^T A gamma with A real
antisymmetric, Heisenberg evolution is gamma(t) = exp(A t) gamma, so the
covariance matrix C_mn = (i/2) <[gamma_m, gamma_n]> evolves by orthogonal
conjugation and Gaussian states stay Gaussian.

The partitioning protocol prepares the two decoupled halves in Gibbs
states at different temperatures, couples them through the defect bond and
reads off the energy current at the defect once the front has passed.  The
current operator is derived from the discrete continuity equation: with
E_j the energy to the left of bond j plus half the bond energy,
dE_j/dt = i[H, E_j] is again quadratic and its expectation is a matrix
contraction against C (current_form).  Splitting the bond energy
symmetrically makes the equilibrium current vanish identically rather than
only after the transient.  At the defect the contraction needs only two
covariance entries, which steady_current evaluates from four rows of the
propagator.

The protocol runs in real arithmetic.  iA is Hermitian tridiagonal with
imaginary off-diagonals; the gauge D = diag(i^m) turns it into the real
symmetric D* (iA) D = tridiag(0, -t), so one tridiagonal eigensolve gives
real orthogonal modes of the defect chain, from which propagator_rows
builds any rows of exp(A t).  The uniform Gibbs halves need
no eigensolve at all: their modes are the sine waves of the open chain
(the covariance method of Peschel, J. Phys. A 36 (2003) L205), summed by
one FFT.  Memory is O(N^2), with the 2N x 2N mode matrix the largest array.

Everything here is double precision; tolerances are module constants or
stated per operation.
The dispersion is eps(k) = -2 t sin k on Majorana sites, so the band is
(0, 2t) for positive energies and the maximal group velocity is 2t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.linalg


class PlateauError(RuntimeError):
    """No usable plateau window in a current series."""


@dataclass(frozen=True)
class ChainSpec:
    """Partitioning-protocol chain: site count, bond scale, defect strength."""

    sites: int
    coupling: float = 1.0
    defect: float = 1.0

    def __post_init__(self):
        if self.sites % 2 or self.sites < 40:
            raise ValueError("site count must be even and >= 40")
        if not 0.0 <= self.defect <= 1.0:
            raise ValueError("defect scale must lie in [0, 1]")
        if self.coupling <= 0:
            raise ValueError("coupling must be positive")

    @property
    def majoranas(self):
        return 2 * self.sites

    @property
    def defect_bond(self):
        # bond between Majoranas N-1 and N, i.e. between the two halves
        return self.sites - 1

    @property
    def v_max(self):
        return 2.0 * self.coupling

    def bonds(self):
        t = np.full(self.majoranas - 1, self.coupling)
        t[self.defect_bond] *= self.defect
        return t


def quadratic_form(bonds):
    """Antisymmetric A with H = (i/4) gamma^T A gamma for the given bond strengths."""
    n = len(bonds) + 1
    a = np.zeros((n, n))
    idx = np.arange(n - 1)
    a[idx, idx + 1] = bonds
    a[idx + 1, idx] = -bonds
    return a


# Re and Im of i^d, indexed by d mod 4
_RE_I_POW = np.array([1.0, 0.0, -1.0, 0.0])
_IM_I_POW = np.array([0.0, 1.0, 0.0, -1.0])


def gibbs_covariance(n_sites, temperature, coupling=1.0):
    """Covariance of the Gibbs state of a decoupled uniform chain.

    With iA = U diag(eps) U*, the covariance is C = i U tanh(eps / 2T) U*.
    In the gauge D = diag(i^m) the L = 2 n_sites Majorana chain has the
    open-chain sine modes sqrt(2/(L+1)) sin(q_k (m+1)), q_k = pi k/(L+1),
    with eps_k = -2t cos q_k.  Then C_mn = Re(i^(m-n+1)) G_mn with
    G_mn = f(m-n) - f(m+n+2) and f(d) = sum_k tanh(eps_k / 2T) cos(q_k d) / (L+1),
    all of f from one FFT of length 2(L+1).
    temperature = 0 gives the ground state (iC has eigenvalues +-1),
    numpy.inf the maximally mixed state (C = 0).
    """
    if temperature < 0:
        raise ValueError("temperature must be >= 0")
    size = 2 * n_sites
    eps = -2.0 * coupling * np.cos(np.pi * np.arange(1, size + 1) / (size + 1))
    occ = np.zeros(2 * (size + 1))
    if temperature == 0:
        occ[1:size + 1] = np.sign(eps)
    elif not math.isinf(temperature):
        # a subnormal temperature overflows eps / 2T to +-inf, and tanh(+-inf) = +-1
        # is the exact limit
        with np.errstate(over="ignore"):
            occ[1:size + 1] = np.tanh(eps / (2.0 * temperature))
    f = np.fft.fft(occ).real / (size + 1)
    m = np.arange(size)
    diff = m[:, None] - m[None, :]
    g = f[np.abs(diff)] - f[m[:, None] + m[None, :] + 2]
    return _RE_I_POW[(diff + 1) % 4] * g


def _chain_modes(bonds):
    """Eigenpairs of D* (iA) D = tridiag(0, -t): iA = (D v) diag(eps) (D v)*."""
    return scipy.linalg.eigh_tridiagonal(np.zeros(len(bonds) + 1), -np.asarray(bonds))


def propagator_rows(evals, v, rows, t):
    """The given rows of the one-particle propagator exp(A t), in real arithmetic.

    With the real orthogonal modes v and energies evals of D* (iA) D (see
    _chain_modes),

        exp(A t)[r, n] = Re(i^(r-n)) P[r, n] + Im(i^(r-n)) Q[r, n],
        P = v cos(eps t) v^T,   Q = v sin(eps t) v^T.
    """
    rows = np.asarray(rows)
    gauge = (rows[:, None] - np.arange(len(evals))[None, :]) % 4
    et = evals * t
    v_rows = v[rows, :]
    return (_RE_I_POW[gauge] * ((v_rows * np.cos(et)) @ v.T)
            + _IM_I_POW[gauge] * ((v_rows * np.sin(et)) @ v.T))


def _left_energy_form(bonds, j):
    # energy strictly left of bond j plus half the bond itself
    b = np.array(bonds, dtype=float)
    b[j] *= 0.5
    b[j + 1:] = 0.0
    return quadratic_form(b)


def current_form(bonds, j):
    """Quadratic form K of the current operator at bond j: J = -(1/4) sum K.C.

    Derived from the continuity equation: dE_j/dt = i[H, E_j] is the
    quadratic form (i/4) gamma^T [B_j, A] gamma, so the rightward current
    is minus its expectation.
    """
    nb = len(bonds)
    if not 1 <= j <= nb - 2:
        raise ValueError(f"bond {j} is not interior")
    a = quadratic_form(bonds)
    b = _left_energy_form(bonds, j)
    return b @ a - a @ b


# ---------------------------------------------------------------------------
# single-particle scattering off the defect bond

def transmission(defect, omega, coupling=1.0):
    """Transmission probability through the defect bond at energy omega.

    Matching plane waves e^{ik m} across the bond scaled by lam gives

        T(w) = 4 lam^2 v^2 / ((1 - lam^2)^2 + 4 lam^2 v^2),   v^2 = 1 - (w / 2t)^2,

    where v is the group velocity in units of its band maximum 2t.  The
    numerator never exceeds the denominator, so T stays in [0, 1] without
    clamping.
    """
    if not 0 < omega < 2 * coupling:
        raise ValueError(f"energy {omega} outside the open band (0, {2 * coupling})")
    v2 = 1.0 - (omega / (2.0 * coupling)) ** 2
    x = 4.0 * defect * defect * v2
    return float(x / ((1.0 - defect * defect) ** 2 + x))


def transmission_dc(defect, coupling=1.0):
    """Low-energy limit of the transmission (the lattice analog of cos^2 a).

    The omega -> 0 limit of transmission, 4 lam^2 / (1 + lam^2)^2; it does not
    depend on the coupling.
    """
    lam2 = defect * defect
    return float(4.0 * lam2 / (1.0 + lam2) ** 2)


def fermi_occupation(omega, temperature):
    if temperature == 0:
        return 0.0 if omega > 0 else 1.0
    x = omega / temperature
    if x > 700:
        return 0.0
    return 1.0 / (math.exp(x) + 1.0)


def landauer_current(transmission_fn, t_left, t_right, coupling=1.0, rel_tol=1e-8):
    """J = (1/2 pi) int dw w T(w) [f_l(w) - f_r(w)] over the positive band."""

    def integrand(w):
        df = fermi_occupation(w, t_left) - fermi_occupation(w, t_right)
        return w * transmission_fn(w) * df / (2 * math.pi)

    val, err = scipy.integrate.quad(integrand, 0.0, 2 * coupling,
                                    epsabs=1e-14, epsrel=rel_tol, limit=200)
    if err > max(rel_tol * abs(val), 1e-12):
        raise RuntimeError(f"quadrature did not converge (estimate {err:.2e})")
    return val


# ---------------------------------------------------------------------------
# partitioning protocol

# plateau window in units of N / v_max: past the local transient and safely
# before the boundary revival at N / (2 v_max)
PLATEAU_WINDOW = (0.25, 0.45)
# largest deviation of the propagator rows from orthonormality
ORTH_TOL = 1e-10


@dataclass
class PlateauStats:
    start: float
    end: float
    mean: float
    stderr: float


@dataclass
class CurrentSeries:
    """Defect-bond current over time with the detected plateau."""

    times: np.ndarray
    values: np.ndarray
    plateau: PlateauStats
    orth_drift: float  # largest deviation of the propagator rows from orthonormality

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("t,current\n")
            for t, v in zip(self.times, self.values):
                fh.write(f"{t:.10g},{v:.12e}\n")


def steady_current(spec, t_left, t_right, samples=60):
    """Run the partitioning protocol and extract the plateau current.

    The evolution is done spectrally and in real arithmetic: only the four
    rows of exp(A t) around the defect are needed for the current (see
    propagator_rows).  They are contracted against the two Gibbs halves
    separately, so no 2N x 2N covariance is formed and memory stays O(N^2).
    Each sample checks that the rows stay orthonormal to ORTH_TOL; the
    largest deviation is kept as orth_drift.  The samples run from t = 0 to
    the end of PLATEAU_WINDOW, and the plateau is their mean inside it.
    """
    n = spec.sites
    w0, w1 = PLATEAU_WINDOW
    lo, hi = w0 * n / spec.v_max, w1 * n / spec.v_max
    bonds = spec.bonds()
    c_left = gibbs_covariance(n // 2, t_left, spec.coupling)
    c_right = gibbs_covariance(n // 2, t_right, spec.coupling)
    evals, v = _chain_modes(bonds)

    jc = spec.defect_bond
    rows = np.array([jc - 1, jc, jc + 1, jc + 2])
    t_def = bonds[jc]
    t_lm = bonds[jc - 1]
    t_rp = bonds[jc + 1]

    times = np.linspace(0.0, hi, samples)
    values = np.empty(samples)
    drift = 0.0
    for i, t in enumerate(times):
        w_rows = propagator_rows(evals, v, rows, t)
        gram = w_rows @ w_rows.T
        dev = float(np.max(np.abs(gram - np.eye(len(rows)))))
        if dev > ORTH_TOL:
            raise RuntimeError("propagator rows lost orthonormality")
        drift = max(drift, dev)
        w_left, w_right = w_rows[:, :n], w_rows[:, n:]
        block = w_left @ c_left @ w_left.T + w_right @ c_right @ w_right.T
        # J = -(t_def/4) (t_{j-1} C[j-1,j+1] + t_{j+1} C[j,j+2])
        values[i] = -0.25 * t_def * (t_lm * block[0, 2] + t_rp * block[1, 3])

    mask = (times >= lo) & (times <= hi)
    if mask.sum() < 4:
        raise PlateauError(
            f"plateau window [{lo:.1f}, {hi:.1f}] holds {int(mask.sum())} samples; "
            "increase samples")
    vals = values[mask]
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    return CurrentSeries(times, values, PlateauStats(float(lo), float(hi), mean, stderr), drift)


def transport_summary(spec, t_left, t_right, series):
    """Three-way comparison: plateau of a steady_current series, Landauer integral, constant-T form."""
    tdc = transmission_dc(spec.defect, spec.coupling)
    landauer = landauer_current(lambda w: transmission(spec.defect, w, spec.coupling),
                                t_left, t_right, spec.coupling)
    cft = math.pi * tdc / 24.0 * (t_left ** 2 - t_right ** 2)
    plateau = series.plateau
    return {
        "spec": {"sites": spec.sites, "coupling": spec.coupling, "defect": spec.defect,
                 "T_l": t_left, "T_r": t_right},
        "plateau_mean": plateau.mean,
        "plateau_stderr": plateau.stderr,
        "plateau_window": [plateau.start, plateau.end],
        "landauer": landauer,
        "transmission_dc": tdc,
        "cft_prediction": cft,
        "orth_drift": series.orth_drift,
        "ratios": {
            "plateau_over_landauer": plateau.mean / landauer if landauer else None,
            "landauer_over_cft": landauer / cft if cft else None,
        },
    }
