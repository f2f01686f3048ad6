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
contraction against C.  Splitting the bond energy symmetrically makes the
equilibrium current vanish identically rather than only after the
transient.  At the defect the contraction needs only two covariance
entries, which steady_current evaluates from four rows of the propagator.

The protocol runs in real arithmetic.  iA is Hermitian tridiagonal with
imaginary off-diagonals; the gauge D = diag(i^m) turns it into the real
symmetric D* (iA) D = tridiag(0, -t), whose real orthogonal modes are known
in closed form (_chain_spectrum): the chain is mirror symmetric about the
defect, so each mode is sin(k(m+1)) on the left half and s = +-1 times its
mirror image on the right, with eps = -2t cos k and k a root of the secular
equation sin(k(N+1)) = s lam sin(kN), one in each interval
(pi(j-1)/N, pi j/N); the norms are closed forms too.  The modes are never
stored: _mode_rows builds any rows of the two N x N left-half parity
blocks from the roots, one sine per entry, and _mode_blocks builds all of
them _MODE_ROWS rows at a time by angle addition about the centre of each
block, from one table of cos(kj) and sin(kj), 0 <= j <= _MODE_ROWS/2, and
one sine and cosine of the centre per mode and block.  propagator_rows folds any row of exp(A t) onto a left row of the
two blocks, stacks the rows of all times into one left factor and
multiplies it by each block as it is built.  The uniform Gibbs halves are
the lam = 0 case: their modes are the sine waves of the open chain (the
covariance method of Peschel, J. Phys. A 36 (2003) L205), summed by one
FFT.  A half vanishes on the checkerboard of even lags m - n, and its
odd-lag block, a Hankel-minus-Toeplitz matrix of half the size, fixes the
rest; _gibbs_rows builds its rows in blocks as well, and steady_current
contracts only that block, with a quarter of the entries and half the
flops of the whole half.  Nothing is diagonalised numerically, and no
N x N array is formed: steady_current holds O(S N) floats for S samples.

The steady current is checked against the Landauer integral, which
landauer_current evaluates by one composite Gauss-Kronrod rule on fixed
panels graded toward both band ends and refuses when its error estimate
misses the threshold.  The module returns values and writes no file.

Everything here is double precision; tolerances are module constants or
stated per operation.
The dispersion is eps(k) = -2 t sin k on Majorana sites, so the band is
(0, 2t) for positive energies and the maximal group velocity is 2t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


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


# Re and Im of i^d, indexed by d mod 4
_RE_I_POW = np.array([1.0, 0.0, -1.0, 0.0])
_IM_I_POW = np.array([0.0, 1.0, 0.0, -1.0])


def _require_temperatures(*temperatures):
    if any(t < 0 for t in temperatures):
        raise ValueError("temperature must be >= 0")


def _gibbs_rows(n_sites, temperature, coupling=1.0):
    """Rows of the odd-lag block of the covariance of the Gibbs state of a decoupled uniform chain.

    With iA = U diag(eps) U*, the covariance is C = i U tanh(eps / 2T) U*.
    In the gauge D = diag(i^m) the L = 2 n_sites Majorana chain has the
    open-chain sine modes sqrt(2/(L+1)) sin(q_k (m+1)), q_k = pi k/(L+1),
    with eps_k = -2t cos q_k.  Then C_mn = Re(i^(m-n+1)) (f(m-n) - f(m+n+2))
    with f(d) = sum_k tanh(eps_k / 2T) cos(q_k d) / (L+1), all of f from one
    FFT of length 2(L+1).  C vanishes at even lags m - n, and being
    antisymmetric it is fixed by its n_sites x n_sites block

        G[a, q] = C[2a, 2q+1] = h(a+q+1) - h(a-q-1),   C[2a+1, 2q] = -G[q, a],

    with h(k) = (-1)^k f(2k+1) for k >= 0 and h(-k-1) = -h(k): a Hankel
    minus a Toeplitz matrix, each read as sliding windows of one vector.
    Every entry is +-(f(|m-n|) - f(m+n+2)) with the rounding of that one
    difference.  temperature = 0 gives the ground state (iC has eigenvalues
    +-1), numpy.inf the maximally mixed state (C = 0).

    Returns rows(a0, a1), which builds G[a0:a1] as a fresh (a1 - a0, n_sites)
    array; in between only O(L) floats are held.
    """
    _require_temperatures(temperature)
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
    h = f[1:2 * size:2].copy()  # f(2k+1) for k = 0..size-1
    h[1::2] *= -1
    hankel = sliding_window_view(h[1:], n_sites)
    # h(k) for k = n_sites-1 down to -n_sites, so row a reads h(a-q-1) at column q
    toeplitz = sliding_window_view(np.concatenate([h[n_sites - 1::-1], -h[:n_sites]]), n_sites)[::-1]

    def rows(a0, a1):
        return hankel[a0:a1] - toeplitz[a0:a1]

    return rows


def gibbs_covariance(n_sites, temperature, coupling=1.0):
    """Covariance of the Gibbs state of a decoupled uniform chain, assembled from _gibbs_rows."""
    g = _gibbs_rows(n_sites, temperature, coupling)(0, n_sites)
    c = np.zeros((2 * n_sites, 2 * n_sites))
    c[0::2, 1::2] = g
    c[1::2, 0::2] = -g.T
    return c


# bisection steps for the secular roots: halving the bracket pi/N this often
# leaves less than its last bit
_ROOT_STEPS = 60
# rows of the parity blocks built per step (even), which bounds the temporaries
# and the angle-addition table
_MODE_ROWS = 64
# rows of the odd-lag block of a Gibbs half built per step, likewise
_GIBBS_ROWS = 64


def _chain_spectrum(spec):
    """Energies and normalisations of the modes of D* (iA) D = tridiag(0, -t), in closed form.

    The 2N-site chain is mirror symmetric about its central bond lam t.  A
    mode with mirror parity s = +-1 is sin(k(m+1)) on the left half
    (m = 0..N-1) and s times its mirror image on the right; the bulk rows
    give eps = -2t cos k, and the rows at the defect hold when

        sin(k(N+1)) = s lam sin(kN).

    Each sector has exactly one root in every bracket (pi(j-1)/N, pi j/N),
    j = 1..N.  With k = pi(j-1)/N + d the equation reads
    sin(pi(j-1)/N + d(N+1)) = s lam sin(dN), positive just above d = 0 and
    negative just below d = pi/N, so one vectorised bisection in d finds all
    2N roots.  The left half of a mode has the squared norm

        sum_{m=1..N} sin^2(km) = N/2 - sin(Nk) cos((N+1)k) / (2 sin k),

    and with the phases reduced exactly, sin(Nk) cos((N+1)k) =
    sin(Nd) cos(pi(j-1)/N + (N+1)d) and, for k > pi/2,
    sin k = sin(pi(N-j+1)/N - d); each mode has equal weight on the two
    halves.

    Returns the energies eps, the offsets d and the scales that normalise
    the modes, each of shape (2, N): index 0 holds the even modes and 1 the
    odd ones.
    """
    n = spec.sites
    j = np.arange(n)  # j - 1, for the brackets j = 1..N
    bracket = j * (np.pi / n)
    parity = np.array([[1.0], [-1.0]])
    lo = np.zeros((2, n))
    hi = np.full((2, n), np.pi / n)
    for _ in range(_ROOT_STEPS):
        d = 0.5 * (lo + hi)
        above = np.sin(bracket + d * (n + 1)) > parity * spec.defect * np.sin(d * n)
        lo = np.where(above, d, lo)
        hi = np.where(above, hi, d)
    d = 0.5 * (lo + hi)
    evals = -2.0 * spec.coupling * np.cos(bracket + d)
    # sin k from pi - k when k > pi/2, where k itself has lost the low bits of pi - k
    sin_k = np.sin(np.where(2 * j < n, bracket + d, (n - j) * (np.pi / n) - d))
    weight = n - np.sin(n * d) * np.cos(bracket + (n + 1) * d) / sin_k
    return evals, d, 1.0 / np.sqrt(weight)


def _phase(d, m):
    """The phases k m of every mode for each integer in the column m, shape (2, len(m), N).

    With k = pi(j-1)/N + d they are reduced exactly, as
    ((j-1) m mod 2N) pi/N + d m; the product k m itself would lose the low
    bits of the phase, and the modes their orthogonality, as N grows.
    """
    n = d.shape[1]
    return (m * np.arange(n)) % (2 * n) * (np.pi / n) + m * d[:, None, :]


def _mode_rows(d, scale, rows):
    """The given left-half rows of the normalised modes, shape (2, len(rows), N).

    Row m of parity p is scale_p sin(k_p (m+1)), one mode per column, one
    sine per entry; the full orthogonal mode matrix is
    v = [[L_e, L_o], [F L_e, -F L_o]] with F the row reversal and L_p all N
    rows of parity p, and it is never formed (see propagator_rows).
    """
    out = _phase(d, np.asarray(rows)[:, None] + 1)
    np.sin(out, out=out)
    out *= scale[:, None, :]
    return out


def _mode_blocks(d):
    """All left-half rows of both parities, unnormalised, _MODE_ROWS rows at a time.

    Row m of parity p is sin(k_p (m+1)).  The block of rows b0..b0+2h-1,
    h = _MODE_ROWS / 2, is built by angle addition about its centre
    c = b0+1+h,

        sin(k(c+j)) = sin(kc) cos(kj) + cos(kc) sin(kj),   -h <= j < h,

    from one table of cos(kj) and sin(kj), 0 <= j <= h, made once (cos is
    even in j and sin odd, so it serves both halves of every block), and one
    sine and one cosine of kc per mode and block; each entry is one
    two-term sum, with no temporary.  Every phase is reduced exactly
    (_phase).  Yields (b0, block) with block of shape (2, b1 - b0, N): a view
    of one buffer, which the next block overwrites.
    """
    n = d.shape[1]
    h = _MODE_ROWS // 2
    phase = _phase(d, np.arange(h + 1)[:, None])
    table = np.empty((2, h + 1, 2, n))  # (parity, j, (cos, sin), mode)
    np.cos(phase, out=table[:, :, 0])
    np.sin(phase, out=table[:, :, 1])
    del phase
    block = np.empty((2, 2 * h, n))
    for b0 in range(0, n, 2 * h):
        centre = _phase(d, np.array([[b0 + 1 + h]]))[:, 0]
        shift = np.stack([np.sin(centre), np.cos(centre)], axis=1)  # (parity, (sin, cos), mode)
        # rows c+j for j = 0..h-1, then c-j for j = h..1, where sin(kj) changes sign
        np.einsum("pjtn,ptn->pjn", table[:, :h], shift, out=block[:, h:])
        shift[:, 1] *= -1
        np.einsum("pjtn,ptn->pjn", table[:, h:0:-1], shift, out=block[:, :h])
        yield b0, block[:, :n - b0]


def propagator_rows(spec, rows, times):
    """The given rows of the one-particle propagator exp(A t) at each time, in real arithmetic.

    With the modes v = [[L_e, L_o], [F L_e, -F L_o]] and energies eps of
    D* (iA) D (see _chain_spectrum and _mode_rows),

        exp(A t)[r, n] = Re(i^(r-n)) P[r, n] + Im(i^(r-n)) Q[r, n],
        P = v cos(eps t) v^T,   Q = v sin(eps t) v^T.

    The mirror symmetry folds every row onto the left half: row r reads the
    left row l = r of L_e and L_o with sigma = +1 when r < N, and its mirror
    image l = 2N-1-r with sigma = -1 otherwise.  With
    A_p = (L_p[l] o trig(eps_p t)) L_p^T for p in {e, o} and trig in
    {cos, sin}, the left columns of the row are A_e + sigma A_o and the
    right columns are the reversal of A_e - sigma A_o.  The left factors of
    all (time, left row, trig) triples are stacked once, each carrying the
    squared norm of its mode; then each block of unnormalised rows of L_e
    and L_o from _mode_blocks is multiplied, folded and gauged into its left
    columns and their mirror images, so memory is
    O(len(times) len(rows) N).  Returns an array of shape
    (len(times), len(rows), 2N).
    """
    evals, d, scale = _chain_spectrum(spec)
    n = spec.sites
    rows = np.asarray(rows)
    times = np.asarray(times, dtype=float)
    mirrored = rows >= n
    left, pick = np.unique(np.where(mirrored, 2 * n - 1 - rows, rows), return_inverse=True)
    trig = np.empty((2, len(times), 2, n))  # (parity, time, trig, mode)
    et = evals[:, None, :] * times[None, :, None]
    np.cos(et, out=trig[:, :, 0])
    np.sin(et, out=trig[:, :, 1])
    del et
    # one factor of scale normalises the left row, the other the block rows
    weighted = _mode_rows(d, scale * scale, left)[:, None, :, None, :] * trig[:, :, None]
    del trig
    weighted = weighted.reshape(2, -1, n)  # (parity, time x row x trig, mode)
    shape = (2, len(times), len(left), 2, -1)  # (parity, time, left row, trig, col)
    gauge = (rows[:, None] - np.arange(2 * n)) % 4  # i^(r - col), every column
    re_gauge, im_gauge = _RE_I_POW[gauge], _IM_I_POW[gauge]
    # a row with sigma = +1 reads A_e + A_o on its left columns and A_e - A_o
    # on their mirror images 2N-1-col, a row with sigma = -1 the other way round
    reads = mirrored.astype(int)
    out = np.empty((len(times), len(rows), 2 * n))
    for b0, block in _mode_blocks(d):
        b1 = b0 + block.shape[1]
        a = np.matmul(weighted, block.transpose(0, 2, 1)).reshape(shape)
        # (A_e, A_o) -> (A_e + A_o, A_e - A_o), in place
        e_minus_o = a[0] - a[1]
        a[0] += a[1]
        a[1] = e_minus_o
        del e_minus_o
        for cols, which in ((slice(b0, b1), reads), (slice(2 * n - 1 - b0, 2 * n - 1 - b1, -1), 1 - reads)):
            folded = a[which, :, pick].transpose(1, 0, 2, 3)  # (time, row, trig, col)
            np.multiply(re_gauge[:, cols], folded[:, :, 0], out=out[:, :, cols])
            out[:, :, cols] += im_gauge[:, cols] * folded[:, :, 1]
    return out


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
    if coupling <= 0:
        raise ValueError("coupling must be positive")
    if not 0 < omega < 2 * coupling:
        raise ValueError(f"energy {omega} outside the open band (0, {2 * coupling})")
    v2 = 1.0 - (omega / (2.0 * coupling)) ** 2
    x = 4.0 * defect * defect * v2
    return float(x / ((1.0 - defect * defect) ** 2 + x))


def transmission_dc(defect):
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


def fermi_difference(omega, t_left, t_right):
    """f(w, T_l) - f(w, T_r), without the cancellation between nearby temperatures.

    With x = w / T the difference is sinh((x_r - x_l)/2) / (2 cosh(x_l/2) cosh(x_r/2)),
    where x_r - x_l = w (T_l - T_r) / (T_l T_r) and T_l - T_r is exact for
    nearby floats.  A zero temperature, or an x past the cut of
    fermi_occupation, takes the plain difference: one of its terms is then
    exactly 0 or 1, and nothing cancels.
    """
    if t_left == 0 or t_right == 0 or omega / t_left > 700 or omega / t_right > 700:
        return fermi_occupation(omega, t_left) - fermi_occupation(omega, t_right)
    return (math.sinh(0.5 * omega * (t_left - t_right) / (t_left * t_right))
            / (2.0 * math.cosh(0.5 * omega / t_left) * math.cosh(0.5 * omega / t_right)))


# relative accuracy asked of the Landauer quadrature
QUAD_REL_TOL = 1e-8

# 21-point Gauss-Kronrod rule on [-1, 1], one row per node x >= 0: node,
# Kronrod weight, weight of the 10-point Gauss rule on every other node
_GK_TABLE = np.array([
    (0.995657163025808081, 0.011694638867371874, 0.0),
    (0.973906528517171720, 0.032558162307964727, 0.066671344308688138),
    (0.930157491355708226, 0.054755896574351996, 0.0),
    (0.865063366688984511, 0.075039674810919953, 0.149451349150580593),
    (0.780817726586416897, 0.093125454583697606, 0.0),
    (0.679409568299024406, 0.109387158802297642, 0.219086362515982044),
    (0.562757134668604683, 0.123491976262065851, 0.0),
    (0.433395394129247191, 0.134709217311473326, 0.269266719309996355),
    (0.294392862701460198, 0.142775938577060081, 0.0),
    (0.148874338981631211, 0.147739104901338491, 0.295524224714752870),
    (0.0, 0.149445554002916906, 0.0),
])
_GK_NODES, _KRONROD_WEIGHTS, _GAUSS_WEIGHTS = np.concatenate(
    [_GK_TABLE, _GK_TABLE[:-1] * [-1.0, 1.0, 1.0]]).T


def _gauss_kronrod(f, a, b):
    """Kronrod estimate of int_a^b f and its distance from the embedded Gauss estimate."""
    half = 0.5 * (b - a)
    fx = np.array([f(x) for x in 0.5 * (a + b) + half * _GK_NODES])
    kronrod = half * float(_KRONROD_WEIGHTS @ fx)
    return kronrod, abs(kronrod - half * float(_GAUSS_WEIGHTS @ fx))


def landauer_current(transmission_fn, t_left, t_right, coupling=1.0):
    """J = (1/2 pi) int dw w T(w) [f_l(w) - f_r(w)] over the positive band.

    A composite 21-point Gauss-Kronrod rule on 80 fixed panels, which halve
    toward both band ends down to 2^-40 of the band.  The error estimate is
    the sum over the panels of the distance between the Kronrod and the
    embedded Gauss sums; J is returned when the estimate is at most
    max(1e-14, QUAD_REL_TOL |J|), and RuntimeError is raised otherwise.
    """
    _require_temperatures(t_left, t_right)
    if coupling <= 0:
        raise ValueError("coupling must be positive")

    def integrand(w):
        return w * transmission_fn(w) * fermi_difference(w, t_left, t_right) / (2 * math.pi)

    # the integrand varies fastest at the band ends: the Fermi factors on the
    # scale T near w = 0, and the transmission of a nearly perfect bond on the
    # scale (1 - lam^2)^2 t / 4 lam^2 below w = 2t
    band = 2.0 * coupling
    grade = 2.0 ** -np.arange(40, 0, -1)
    cuts = np.concatenate([[0.0], band * grade, band * (1.0 - grade[-2::-1]), [band]]).tolist()
    parts = [_gauss_kronrod(integrand, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    val = math.fsum(part for part, _ in parts)
    err = math.fsum(part_err for _, part_err in parts)
    if err > max(1e-14, QUAD_REL_TOL * abs(val)):
        raise RuntimeError(f"quadrature did not converge (estimate {err:.2e})")
    return val


def low_temperature_current(t0, t_left, t_right):
    """(pi T0 / 24)(T_l^2 - T_r^2): the Landauer current at constant transmission T0."""
    return math.pi * t0 / 24 * (t_left ** 2 - t_right ** 2)


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


def steady_current(spec, t_left, t_right, samples=60):
    """Run the partitioning protocol and extract the plateau current.

    The evolution is done spectrally and in real arithmetic: only the four
    rows of exp(A t) around the defect are needed for the current.  The
    samples run from t = 0 to the end of PLATEAU_WINDOW, and the plateau is
    their mean inside it; a window holding fewer than four samples raises
    PlateauError, and a negative temperature ValueError, before any O(N^2)
    work.  The rows of all samples come from one propagator_rows call, one
    pass over blocks of mode rows, and every sample checks that its rows
    stay orthonormal to ORTH_TOL; the largest deviation is kept as
    orth_drift.  Each Gibbs half vanishes at even lags, so only its odd-lag
    block is built, _GIBBS_ROWS rows at a time, each contracted against the
    odd entries of the rows of all samples as it is built: a quarter of the
    entries of the half and half of its flops.  No N x N array is formed:
    memory is O(S N) for S samples.
    """
    n = spec.sites
    w0, w1 = PLATEAU_WINDOW
    lo, hi = w0 * n / spec.v_max, w1 * n / spec.v_max
    times = np.linspace(0.0, hi, samples)
    mask = (times >= lo) & (times <= hi)
    if mask.sum() < 4:
        raise PlateauError(
            f"plateau window [{lo:.1f}, {hi:.1f}] holds {int(mask.sum())} samples; "
            "increase samples")
    # both reservoirs are checked before the O(S N^2) propagator rows
    _require_temperatures(t_left, t_right)

    jc = spec.defect_bond
    rows = np.array([jc - 1, jc, jc + 1, jc + 2])
    w_rows = propagator_rows(spec, rows, times)
    gram = w_rows @ w_rows.transpose(0, 2, 1)
    dev = np.max(np.abs(gram - np.eye(len(rows))), axis=(1, 2))
    if np.any(dev > ORTH_TOL):
        raise RuntimeError("propagator rows lost orthonormality")
    drift = float(dev.max())

    # C[j-1, j+1] and C[j, j+2] of C(t) = W C0 W^T, one Gibbs half of C0 at a
    # time.  A half is nonzero only at odd lags, where its odd-lag block G
    # (see _gibbs_rows) gives sum_mn y_m C0[m, n] x_n = y_e.(G x_o) - x_e.(G y_o)
    # for the even (e) and odd (o) entries of two rows x, y of W.
    m = n // 2
    c = np.zeros((samples, 2))  # C[j-1, j+1] and C[j, j+2]
    g_w = np.empty((samples * len(rows), m))  # G times the odd entries of every row
    for start, temperature in ((0, t_left), (n, t_right)):
        w_even = w_rows[:, :, start:start + n:2]
        w_odd = np.ascontiguousarray(w_rows[:, :, start + 1:start + n:2]).reshape(-1, m)
        g_rows = _gibbs_rows(m, temperature, spec.coupling)
        for a0 in range(0, m, _GIBBS_ROWS):
            a1 = min(a0 + _GIBBS_ROWS, m)
            g_w[:, a0:a1] = w_odd @ g_rows(a0, a1).T
        g_w_rows = g_w.reshape(samples, len(rows), m)
        # x = rows j-1, j and y = rows j+1, j+2
        c -= (np.einsum("skn,skn->sk", w_even[:, 2:], g_w_rows[:, :2])
              - np.einsum("skn,skn->sk", w_even[:, :2], g_w_rows[:, 2:]))
    bonds = spec.bonds()
    # J = -(t_def/4) (t_{j-1} C[j-1,j+1] + t_{j+1} C[j,j+2])
    values = -0.25 * bonds[jc] * (bonds[jc - 1] * c[:, 0] + bonds[jc + 1] * c[:, 1])

    vals = values[mask]
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    return CurrentSeries(times, values, PlateauStats(float(lo), float(hi), mean, stderr), drift)

