"""Lattice oracle: Gibbs states, evolution invariants, scattering, transport."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neqcft import cli, lattice
from neqcft.lattice import (ChainSpec, PlateauError, gibbs_covariance,
                            landauer_current, propagator_rows, steady_current,
                            transmission, transmission_dc)


# ---------------------------------------------------------------------------
# dense quadratic forms: H = (i/4) gamma^T A gamma and the bond current

def quadratic_form(bonds):
    """Antisymmetric A with H = (i/4) gamma^T A gamma for the given bond strengths."""
    n = len(bonds) + 1
    a = np.zeros((n, n))
    idx = np.arange(n - 1)
    a[idx, idx + 1] = bonds
    a[idx + 1, idx] = -bonds
    return a


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
    is minus its expectation.  Splitting the bond energy symmetrically makes
    the equilibrium current vanish identically.  At the defect the
    contraction needs only C[j-1, j+1] and C[j, j+2], which is what
    steady_current evaluates.
    """
    nb = len(bonds)
    if not 1 <= j <= nb - 2:
        raise ValueError(f"bond {j} is not interior")
    a = quadratic_form(bonds)
    b = _left_energy_form(bonds, j)
    return b @ a - a @ b


# ---------------------------------------------------------------------------
# brute-force oracle: explicit Majorana matrices in the 2^n dimensional space

def jw_majoranas(n_sites):
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    out = []
    for j in range(n_sites):
        for op in (x, y):
            mats = [z] * j + [op] + [eye] * (n_sites - 1 - j)
            m = mats[0]
            for k in mats[1:]:
                m = np.kron(m, k)
            out.append(m)
    return out


def exact_gibbs_covariance(n_sites, temperature, coupling=1.0):
    g = jw_majoranas(n_sites)
    m = 2 * n_sites
    a = quadratic_form(np.full(m - 1, coupling))
    ham = sum(0.25j * a[i, j] * (g[i] @ g[j])
              for i in range(m) for j in range(m) if a[i, j] != 0)
    ham = (ham + ham.conj().T) / 2
    w, v = np.linalg.eigh(ham)
    rho = (v * np.exp(-(w - w.min()) / temperature)) @ v.conj().T
    rho /= np.trace(rho).real
    c = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            c[i, j] = (0.5j * np.trace(rho @ (g[i] @ g[j] - g[j] @ g[i]))).real
    return c


def dense_gibbs_covariance(n_sites, temperature, coupling=1.0):
    """Independent oracle: C = i U occ U* from a dense complex eigensolve of iA."""
    a = quadratic_form(np.full(2 * n_sites - 1, coupling))
    evals, u = np.linalg.eigh(1j * a)
    if temperature == 0:
        occ = np.sign(evals)
    elif math.isinf(temperature):
        occ = np.zeros_like(evals)
    else:
        occ = np.tanh(evals / (2.0 * temperature))
    c = (1j * (u * occ) @ u.conj().T).real
    return 0.5 * (c - c.T)


@settings(max_examples=60, deadline=None)
@given(n_sites=st.integers(2, 60),
       temperature=st.one_of(st.just(0.0), st.just(math.inf), st.floats(0.01, 5.0)),
       coupling=st.floats(0.5, 2.0))
def test_closed_form_gibbs_matches_dense_eigensolve(n_sites, temperature, coupling):
    got = gibbs_covariance(n_sites, temperature, coupling)
    ref = dense_gibbs_covariance(n_sites, temperature, coupling)
    assert np.max(np.abs(got - ref)) <= 1e-12


def test_gibbs_covariance_matches_exact_density_matrix():
    for temp in (0.1, 0.5, 2.0):
        exact = exact_gibbs_covariance(4, temp)
        got = gibbs_covariance(4, temp)
        assert np.max(np.abs(exact - got)) < 1e-12, temp


def test_ground_state_covariance_is_pure():
    c = gibbs_covariance(6, 0.0)
    ev = np.linalg.eigvalsh(1j * c)
    assert np.max(np.abs(np.abs(ev) - 1.0)) < 1e-10


def test_infinite_temperature_covariance_vanishes():
    assert np.max(np.abs(gibbs_covariance(6, np.inf))) == 0.0


def test_covariance_validation():
    # a Gaussian-state covariance is real antisymmetric with iC in [-1, 1]
    for temp in (0.0, 0.3, 2.0, math.inf):
        c = gibbs_covariance(6, temp)
        assert np.max(np.abs(c + c.T)) == 0.0, temp
        ev = np.linalg.eigvalsh(1j * c)
        assert ev.min() >= -1 - 1e-12 and ev.max() <= 1 + 1e-12, temp


@pytest.mark.parametrize("temp", [1e-310, 5e-324])
def test_subnormal_temperature_is_the_ground_state(temp):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = gibbs_covariance(20, temp)
    assert np.array_equal(got, gibbs_covariance(20, 0.0))


def test_negative_temperature_rejected():
    with pytest.raises(ValueError):
        gibbs_covariance(4, -0.1)


# ---------------------------------------------------------------------------
# evolution invariants, with every row of the engine's propagator

def _small_protocol(n_sites=60, lam=0.8, tl=0.3, tr=0.1):
    spec = ChainSpec(sites=n_sites, defect=lam)
    a = quadratic_form(spec.bonds())
    half = n_sites // 2
    c0 = np.zeros((2 * n_sites, 2 * n_sites))
    c0[:n_sites, :n_sites] = gibbs_covariance(half, tl)
    c0[n_sites:, n_sites:] = gibbs_covariance(half, tr)
    return spec, a, c0


def evolve(spec, c0, t):
    """C(t) = R C0 R^T with R = exp(A t) assembled from all rows of propagator_rows."""
    r = propagator_rows(spec, np.arange(spec.majoranas), [t])[0]
    return r @ c0 @ r.T


def chain_modes(spec):
    """Energies (2, N) and the two N x N parity blocks L_e, L_o: every row of _mode_rows."""
    evals, d, scale = lattice._chain_spectrum(spec)
    return evals, lattice._mode_rows(d, scale, np.arange(spec.sites))


def energy(a, c):
    """<H> for H = (i/4) gamma^T A gamma in the Gaussian state C."""
    return 0.25 * float(np.sum(a * c))


def test_zero_time_evolution_is_identity():
    spec, _, c0 = _small_protocol()
    assert np.max(np.abs(evolve(spec, c0, 0.0) - c0)) < 1e-12


def test_energy_conservation_along_evolution():
    spec, a, c0 = _small_protocol()
    e0 = energy(a, c0)
    for t in (3.0, 7.0, 12.0):
        ct = evolve(spec, c0, t)
        assert abs(energy(a, ct) - e0) <= 1e-10 * max(1.0, abs(e0)), t


def test_antisymmetry_and_spectrum_preserved():
    spec, _, c0 = _small_protocol()
    s0 = np.sort(np.linalg.eigvalsh(1j * c0))
    ct = evolve(spec, c0, 9.0)
    assert np.max(np.abs(ct + ct.T)) < 1e-10
    st = np.sort(np.linalg.eigvalsh(1j * ct))
    assert np.max(np.abs(st - s0)) < 1e-10


def test_nonorthogonal_propagator_is_detected(monkeypatch):
    # one odd mode is 1.001 times too long in every row built from it, so the
    # rows of exp(A t) are no longer orthonormal
    spec = ChainSpec(sites=60, defect=0.8)
    mode_rows = lattice._mode_rows

    def one_mode_scaled(d, scale, rows):
        scale = scale.copy()
        scale[1, -1] *= 1.001
        return mode_rows(d, scale, rows)

    monkeypatch.setattr(lattice, "_mode_rows", one_mode_scaled)
    with pytest.raises(RuntimeError, match="orthonormality"):
        steady_current(spec, 0.3, 0.1, samples=10)


def test_one_nonorthogonal_sample_is_detected(monkeypatch):
    # only one sample, in the middle of the series, goes wrong
    rows_at = lattice.propagator_rows

    def one_sample_scaled(spec, rows, times):
        w = rows_at(spec, rows, times)
        w[len(times) // 2] *= 1.001
        return w

    monkeypatch.setattr(lattice, "propagator_rows", one_sample_scaled)
    with pytest.raises(RuntimeError, match="orthonormality"):
        steady_current(ChainSpec(sites=60, defect=0.8), 0.3, 0.1, samples=35)


@settings(max_examples=40, deadline=None)
@given(half_sites=st.integers(20, 200),
       lam=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-9, 1.0)),
       coupling=st.floats(0.5, 2.0))
def test_closed_form_modes_match_tridiagonal_eigensolve(half_sites, lam, coupling):
    spec = ChainSpec(sites=2 * half_sites, coupling=coupling, defect=lam)
    evals, (l_even, l_odd) = chain_modes(spec)
    evals = evals.ravel()
    v = np.block([[l_even, l_odd], [l_even[::-1], -l_odd[::-1]]])
    bonds = spec.bonds()
    ref = scipy.linalg.eigh_tridiagonal(np.zeros(spec.majoranas), -bonds, eigvals_only=True)
    assert np.max(np.abs(np.sort(evals) - ref)) <= 1e-13
    m = -(np.diag(bonds, 1) + np.diag(bonds, -1))
    assert np.max(np.abs(m @ v - v * evals)) <= 1e-13
    assert np.max(np.abs(v.T @ v - np.eye(spec.majoranas))) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(half_sites=st.integers(20, 1500),
       lam=st.one_of(st.sampled_from([0.0, 1e-9, 1.0]), st.floats(0.0, 1.0, exclude_min=True)))
def test_closed_form_mode_norms_match_summed_norms(half_sites, lam):
    # N - sin(Nd) cos(pi(j-1)/N + (N+1)d) / sin k against 2 sum_m sin^2(k m),
    # summed over the exactly reduced phases, 256 modes at a time
    spec = ChainSpec(sites=2 * half_sites, defect=lam)
    _, d, scale = lattice._chain_spectrum(spec)
    n = spec.sites
    m1 = np.arange(1, n + 1)
    summed = np.empty((2, n))
    for j0 in range(0, n, 256):
        j = np.arange(j0, min(j0 + 256, n))[:, None]
        phase = (j * m1) % (2 * n) * (np.pi / n)
        for p in range(2):
            summed[p, j0:j0 + len(j)] = 2 * np.sum(np.sin(phase + d[p, j] * m1) ** 2, axis=1)
    assert np.max(np.abs(scale ** -2 / summed - 1)) <= 1e-14


@settings(max_examples=25, deadline=None)
@given(half_sites=st.integers(20, 1500),
       lam=st.one_of(st.sampled_from([0.0, 1e-9, 1.0]), st.floats(0.0, 1.0)),
       middle=st.floats(0.0, 1.0))
@example(half_sites=20, lam=0.0, middle=0.0)  # one block of 40 rows, the first and the last
@example(half_sites=1024, lam=1.0, middle=0.5)  # N = 2048, no ragged tail
@example(half_sites=1499, lam=0.7, middle=0.5)  # N = 2998, a tail of 54 rows
def test_angle_addition_mode_blocks_match_direct_sines(half_sites, lam, middle):
    # the first block, one in the middle and the last, ragged unless
    # _MODE_ROWS divides N, against one sine per entry.  Both sides take sines
    # of exactly reduced phases up to 3 pi, where one rounding of a phase is
    # up to 9e-16, and each is about 2e-15 (direct) and 3e-15 (angle
    # addition) off a long-double evaluation at N = 3000
    spec = ChainSpec(sites=2 * half_sites, defect=lam)
    _, d, scale = lattice._chain_spectrum(spec)
    n = spec.sites
    starts = range(0, n, lattice._MODE_ROWS)
    wanted = {starts[0], starts[round(middle * (len(starts) - 1))], starts[-1]}
    unit = np.ones_like(scale)
    seen = set()
    for b0, block in lattice._mode_blocks(d):
        assert block.shape == (2, min(lattice._MODE_ROWS, n - b0), n)
        if b0 in wanted:
            direct = lattice._mode_rows(d, unit, np.arange(b0, b0 + block.shape[1]))
            assert np.max(np.abs(block - direct)) <= 5e-15
            seen.add(b0)
    assert seen == wanted


@settings(max_examples=30, deadline=None)
@given(half_sites=st.integers(20, 100),
       lam=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-9, 1.0)),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
def test_folded_propagator_rows_match_dense_eigensolve(half_sites, lam, fractions):
    # every row, on both sides of the mirror fold, at times t in [0, N/4].  The
    # oracle is exp(A t) = U exp(-i eps t) U* from a dense eigensolve of iA:
    # scipy.linalg.expm itself is off by 1.2e-13 at N = 94, lam = 0, t = 16.9
    spec = ChainSpec(sites=2 * half_sites, defect=lam)
    times = [f * spec.sites / 4 for f in fractions]
    got = propagator_rows(spec, np.arange(spec.majoranas), times)
    eps, u = np.linalg.eigh(1j * quadratic_form(spec.bonds()))
    for t, r in zip(times, got):
        ref = ((u * np.exp(-1j * eps * t)) @ u.conj().T).real
        assert np.max(np.abs(r - ref)) <= 1e-13


def test_front_spreads_at_the_group_velocity():
    # sharp temperature step, homogeneous chain: the disturbed region grows
    # at the maximal group velocity v = 2t of eps(k) = -2 t sin k
    spec, _, c0 = _small_protocol(n_sites=120, lam=1.0, tl=0.5, tr=0.05)
    bonds = spec.bonds()
    center = 119
    interior = range(1, len(bonds) - 1)
    forms = {}
    for j in interior:
        k = current_form(bonds, j)
        nz = np.nonzero(k)
        forms[j] = (nz, k[nz])
    fronts = []
    times = (12.0, 20.0, 28.0)
    for t in times:
        ct = evolve(spec, c0, t)
        prof = {j: abs(0.25 * np.sum(vals * ct[nz])) for j, (nz, vals) in forms.items()}
        threshold = 1e-4 * prof[center]
        active = [j for j in interior if prof[j] > threshold]
        fronts.append(max(abs(j - center) for j in active))
    v_fit = np.polyfit(times, fronts, 1)[0]
    assert abs(v_fit - 2.0) < 0.3, v_fit


# ---------------------------------------------------------------------------
# bond current

def test_current_form_is_local():
    bonds = np.full(19, 1.0)
    k = current_form(bonds, 9)
    nz = np.argwhere(k != 0)
    assert nz.size > 0
    assert np.all(np.abs(nz - 9) <= 2)


def test_current_form_interior_only():
    bonds = np.full(9, 1.0)
    with pytest.raises(ValueError):
        current_form(bonds, 0)


def test_steady_current_memory_is_below_one_dense_block():
    # at most three times the (S, 4, 2N) propagator rows that steady_current
    # returns from propagator_rows: those rows, their stacked left factor and
    # the tables and buffers of one block of mode rows.  One N x N float
    # array is 4.2 times as large here, and the dense (2, N, N) parity blocks
    # 8.3 times
    samples = 60
    spec = ChainSpec(sites=2000, defect=0.7)
    row_bytes = samples * 4 * spec.majoranas * 8
    tracemalloc.start()
    try:
        steady_current(spec, 0.1, 0.05, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * row_bytes, peak / row_bytes


def test_equilibrium_current_vanishes():
    spec = ChainSpec(sites=120, defect=0.6)
    series = steady_current(spec, 0.2, 0.2, samples=30)
    assert abs(series.plateau.mean) < 1e-10


def dense_current_series(spec, t_left, t_right, times):
    """Independent oracle: -(1/4) sum K.C(t) with the continuity-equation form K,
    the full C(t) = R C0 R^T and the dense Gibbs halves.

    R = exp(A t) comes from one dense complex eigensolve of the Hermitian iA
    per chain, iA = U diag(w) U^H, as R = U diag(exp(-i w t)) U^H.
    """
    bonds = spec.bonds()
    a = quadratic_form(bonds)
    k = current_form(bonds, spec.defect_bond)
    half = spec.sites // 2
    c0 = scipy.linalg.block_diag(dense_gibbs_covariance(half, t_left, spec.coupling),
                                 dense_gibbs_covariance(half, t_right, spec.coupling))
    w, u = np.linalg.eigh(1j * a)
    uh = u.conj().T
    out = []
    for t in times:
        r = ((u * np.exp(-1j * w * t)) @ uh).real
        out.append(-0.25 * np.sum(k * (r @ c0 @ r.T)))
    return np.array(out)


def _check_against_dense(spec, t_left, t_right, samples):
    series = steady_current(spec, t_left, t_right, samples=samples)
    ref = dense_current_series(spec, t_left, t_right, series.times)
    assert np.max(np.abs(series.values - ref)) <= 1e-14
    assert 0.0 <= series.orth_drift <= 1e-10


@settings(max_examples=15, deadline=None)
@given(half_sites=st.integers(20, 60),
       lam=st.one_of(st.just(0.0), st.floats(1e-9, 1.0)),
       t_left=st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
       t_right=st.one_of(st.just(0.0), st.floats(0.01, 1.0)))
def test_steady_current_matches_dense_propagator(half_sites, lam, t_left, t_right):
    _check_against_dense(ChainSpec(sites=2 * half_sites, defect=lam), t_left, t_right, samples=10)


@pytest.mark.parametrize("lam, t_left, t_right", [(0.6, 0.3, 0.05), (1.0, 0.0, 0.4)])
def test_steady_current_matches_dense_propagator_across_row_blocks(lam, t_left, t_right):
    # at least two full blocks and a ragged tail of both block steps: the N
    # left rows of the parity blocks in steps of _MODE_ROWS, and the N/2 rows
    # of the odd-lag block of a Gibbs half in steps of _GIBBS_ROWS
    sites = 4 * max(lattice._MODE_ROWS, lattice._GIBBS_ROWS) + 6
    for rows, step in ((sites, lattice._MODE_ROWS), (sites // 2, lattice._GIBBS_ROWS)):
        assert rows >= 2 * step and rows % step
    _check_against_dense(ChainSpec(sites=sites, defect=lam), t_left, t_right, samples=10)


@settings(max_examples=40, deadline=None)
@given(half_sites=st.integers(20, 100),
       lam=st.one_of(st.just(0.0), st.floats(1e-9, 1.0)),
       temperature=st.one_of(st.just(0.0), st.floats(0.01, 1.0)))
def test_equal_temperatures_carry_no_current(half_sites, lam, temperature):
    spec = ChainSpec(sites=2 * half_sites, defect=lam)
    series = steady_current(spec, temperature, temperature)
    assert np.max(np.abs(series.values)) <= 1e-15


def test_cut_chain_carries_nothing():
    spec = ChainSpec(sites=120, defect=0.0)
    series = steady_current(spec, 0.3, 0.1, samples=30)
    assert series.plateau.mean == 0.0


def test_hot_left_drives_positive_current():
    series = steady_current(ChainSpec(sites=120), 0.3, 0.1, samples=30)
    assert series.plateau.mean > 0


# ---------------------------------------------------------------------------
# scattering and Landauer

def transfer_matrix_transmission(defect, omega, coupling=1.0, n_sites=400):
    """Independent oracle: wave matching through an explicit transfer-matrix product.

    The bulk recursion phi_{m+1} = -i(w/t) phi_m + phi_{m-1} has unimodular
    roots z^2 + i(w/t) z - 1 = 0, i.e. e^{ik} with eps(k) = -2 t sin k; the
    root with negative real part is the right mover.  The product runs over
    an auxiliary chain of n_sites Majorana sites with the defect at its
    center; the bulk factors only contribute phases.  The matching loses
    precision at the band edges, where the two roots merge, and overflows
    for defects far below 1e-3.
    """
    if defect == 0.0:
        return 0.0
    b = 1j * omega / coupling
    disc = np.sqrt(b * b + 4)
    z1, z2 = (-b - disc) / 2, (-b + disc) / 2
    if z1.real > z2.real:
        z1, z2 = z2, z1
    bonds = np.full(n_sites - 1, float(coupling))
    bonds[n_sites // 2] *= defect
    m_tot = np.eye(2, dtype=complex)
    for m in range(1, n_sites - 1):
        tm, tp = bonds[m], bonds[m - 1]
        m_tot = np.array([[-1j * omega / tm, tp / tm], [1.0, 0.0]], dtype=complex) @ m_tot
    w = np.array([[z1, z2], [1.0, 1.0]], dtype=complex)
    w_inv = np.array([[1.0, -z2], [-1.0, z1]], dtype=complex) / (z1 - z2)
    g = w_inv @ m_tot @ w
    return float(abs(np.linalg.det(g) / g[1, 1]) ** 2)


@settings(max_examples=200, deadline=None)
@given(lam=st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
       coupling=st.floats(0.5, 2.0),
       band_fraction=st.floats(1e-3, 1 - 1e-3))
def test_closed_form_transmission_matches_transfer_matrix(lam, coupling, band_fraction):
    omega = 2 * coupling * band_fraction
    got = transmission(lam, omega, coupling)
    assert 0.0 <= got <= 1.0
    assert abs(got - transfer_matrix_transmission(lam, omega, coupling)) <= 1e-10


def test_transmission_perfect_chain():
    for w in (0.2, 0.7, 1.4):
        assert abs(transmission(1.0, w) - 1.0) < 1e-10


def test_transmission_cut_chain():
    assert transmission(0.0, 0.5) == 0.0


def test_transmission_band_edges_rejected():
    with pytest.raises(ValueError):
        transmission(0.5, 2.5)
    with pytest.raises(ValueError):
        transmission(0.5, 0.0)


def test_transmission_low_energy_limit_is_reproducible():
    t0 = transmission_dc(0.5)
    assert abs(t0 - 4 * 0.25 / 1.25 ** 2) < 1e-12  # 4 lam^2 / (1 + lam^2)^2
    # the transfer-matrix oracle gives the same limit at any chain length
    for n_sites in (400, 800):
        assert abs(transfer_matrix_transmission(0.5, 1e-6, n_sites=n_sites) - t0) < 1e-9
    # the limit is approached smoothly
    assert abs(transmission(0.5, 1e-4) - t0) < 1e-4


def test_transmission_dc_closed_form_at_the_ends():
    assert transmission_dc(0.0) == 0.0
    assert transmission_dc(1.0) == 1.0
    assert transmission_dc(0.5) == 0.64
    for lam in (0.0, 1.0):
        assert abs(transmission(lam, 1e-6) - transmission_dc(lam)) < 1e-12


def test_transmission_survives_extreme_defect_values():
    t = transmission(1e-9, 0.5)
    assert 0.0 <= t < 1e-12
    assert transmission(0.999999, 0.5) > 0.999


def test_zero_temperature_reservoir():
    # T_r = 0 is the ground-state limit and must work end to end
    spec = ChainSpec(sites=120)
    series = steady_current(spec, 0.1, 0.0, samples=30)
    j_ref = landauer_current(lambda w: 1.0, 0.1, 0.0)
    assert abs(series.plateau.mean / j_ref - 1) < 0.05


def test_transmission_monotone_in_defect_at_low_energy():
    vals = [transmission_dc(lam) for lam in (0.2, 0.5, 0.8, 1.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert abs(vals[-1] - 1.0) < 1e-9


def test_landauer_against_quadratic_integral():
    # T == 1 and T_r = 0: the integral is pi T^2 / 24 up to an exponentially
    # small band-edge correction
    j = landauer_current(lambda w: 1.0, 0.1, 0.0)
    assert abs(j - math.pi * 0.01 / 24) < 1e-8
    assert abs(j - 1.3090e-3) < 1e-6


def test_landauer_equilibrium_vanishes():
    assert landauer_current(lambda w: 1.0, 0.07, 0.07) == 0.0


def test_landauer_constant_transmission_scales_linearly():
    j1 = landauer_current(lambda w: 1.0, 0.1, 0.05)
    j_half = landauer_current(lambda w: 0.5, 0.1, 0.05)
    assert abs(j_half - 0.5 * j1) < 1e-12


def test_gauss_kronrod_rule_degrees():
    # the 21-point Kronrod rule is exact through degree 31, its Gauss subrule through 19
    x = lattice._GK_NODES
    for p in range(32):
        exact = 2.0 / (p + 1) if p % 2 == 0 else 0.0
        assert abs(lattice._KRONROD_WEIGHTS @ x ** p - exact) <= 1e-15, p
        if p < 20:
            assert abs(lattice._GAUSS_WEIGHTS @ x ** p - exact) <= 1e-15, p


def library_landauer_current(transmission_fn, t_left, t_right, coupling):
    """Independent oracle: the same integral by QUADPACK, summed over a partition
    graded toward both band ends, each panel to 1e-14 of a first whole-band estimate.
    f(w, T_l) - f(w, T_r) is 1/(e^x_l + 1) - 1/(e^x_r + 1) with x = w/T, rewritten as
    sinh((x_r - x_l)/2) / (2 cosh(x_l/2) cosh(x_r/2)) so that nearby temperatures do not
    cancel; a zero temperature or an x past 700 has an occupation of exactly 0."""
    def occupation(w, temperature):
        return 0.0 if temperature == 0 or w / temperature > 700 else 1.0 / (math.exp(w / temperature) + 1.0)

    def integrand(w):
        if min(t_left, t_right) == 0 or w / t_left > 700 or w / t_right > 700:
            df = occupation(w, t_left) - occupation(w, t_right)
        else:
            half_gap = 0.5 * w * (t_left - t_right) / (t_left * t_right)
            df = math.sinh(half_gap) / (2 * math.cosh(0.5 * w / t_left) * math.cosh(0.5 * w / t_right))
        return w * transmission_fn(w) * df / (2 * math.pi)

    band = 2 * coupling
    scale = abs(scipy.integrate.quad(integrand, 0.0, band)[0])
    cuts = sorted({0.0, band} | {band * 2.0 ** -k for k in range(1, 41)}
                  | {band * (1 - 2.0 ** -k) for k in range(1, 41)})
    return math.fsum(scipy.integrate.quad(integrand, lo, hi, epsabs=1e-14 * scale,
                                          epsrel=1e-12)[0]
                     for lo, hi in zip(cuts, cuts[1:]))


_reservoir_temperature = st.one_of(st.just(0.0), st.floats(0.005, 2.0))


@settings(max_examples=100, deadline=None)
@given(lam=st.floats(0.0, 1.0), t_left=_reservoir_temperature,
       t_right=_reservoir_temperature, coupling=st.floats(0.5, 2.0))
@example(lam=1.44e-159, t_left=0.0, t_right=1.0, coupling=2.0)
@example(lam=1.0, t_left=0.005, t_right=0.0050000000000001, coupling=0.5)
def test_landauer_matches_library_quadrature(lam, t_left, t_right, coupling):
    # below lam ~ 1.5e-154 the current is a subnormal float, which carries
    # fewer than ten significant digits; the floor of a few subnormal steps
    # loosens no comparison whose |ref| is above about 2e-313
    fn = lambda w: transmission(lam, w, coupling)  # noqa: E731
    got = landauer_current(fn, t_left, t_right, coupling)
    ref = library_landauer_current(fn, t_left, t_right, coupling)
    assert abs(got - ref) <= 1e-10 * abs(ref) + 4 * math.ulp(0.0)


def test_landauer_refuses_an_integrand_its_panels_cannot_resolve():
    # a transmission that oscillates faster than the graded panels resolve
    with pytest.raises(RuntimeError, match="quadrature did not converge"):
        landauer_current(lambda w: math.sin(50 * w) ** 2, 0.5, 0.0)


_any_temperature = st.one_of(st.just(0.0), st.floats(1e-12, 1e4))


@settings(max_examples=100, deadline=None)
@given(lam=st.floats(0.0, 1.0 - 1e-12), t0=st.floats(0.0, 1.0), t_left=_any_temperature,
       t_right=_any_temperature, coupling=st.floats(1e-2, 1e2))
@example(lam=0.0, t0=0.0, t_left=0.0, t_right=0.0, coupling=1.0)
@example(lam=0.7, t0=1.0, t_left=0.1, t_right=0.1, coupling=1.0)
@example(lam=0.7, t0=1.0, t_left=0.1, t_right=0.10000000000000002, coupling=1.0)
@example(lam=1.0 - 1e-12, t0=1.0, t_left=1e4, t_right=9999.999999999998, coupling=1e-2)
@example(lam=1.0 - 1e-12, t0=1.0, t_left=1e-12, t_right=1e4, coupling=1e2)
@example(lam=1e-12, t0=1e-12, t_left=1e-12, t_right=0.0, coupling=1e-2)
@example(lam=0.5, t0=0.75, t_left=1e-6, t_right=0.0, coupling=1.0)
@example(lam=0.5, t0=1.0, t_left=0.01, t_right=0.005, coupling=1.0)
# subnormal currents: J one step off at the smallest normal t0, 41 steps off at coupling 100
@example(lam=0.0, t0=2.2250738585072014e-308, t_left=0.0, t_right=6.103515625e-05, coupling=1.0)
@example(lam=0.0, t0=3.3590061e-316, t_left=0.6666666666666666, t_right=2.0, coupling=100.0)
def test_landauer_converges_over_the_parameter_domain(lam, t0, t_left, t_right, coupling):
    # the fixed panels meet the error threshold for the lattice transmission
    # and for a constant one, or landauer_current would raise
    currents = [landauer_current(fn, t_left, t_right, coupling)
                for fn in (lambda w: transmission(lam, w, coupling), lambda w: t0)]
    for j in currents:
        assert math.isfinite(j)
        assert j * (t_left - t_right) >= 0
        if t_left == t_right:
            assert j == 0
    # where the graded panels resolve the Fermi scale and the band edge is far,
    # a constant transmission gives the closed form (pi t0 / 24)(T_l^2 - T_r^2)
    band = 2 * coupling
    temps = [t for t in (t_left, t_right) if t > 0]
    if temps and max(temps) <= band / 100 and min(temps) >= 2.0 ** -36 * band:
        ref = math.pi * t0 / 24 * (t_left ** 2 - t_right ** 2)
        # below 2^-1022 a rounding errs by up to half a step absolute, not relative: a node
        # value by 1.5 steps, each of a panel's 21 weighted terms by 0.5, each of the 80
        # panel totals and the closed form's last products by a few more, under
        # (7 band + 44) steps in all; that floor lies below 1e-8 |ref| for every normal
        # ref, so it loosens only the comparison of a subnormal current
        floor = (7 * band + 44) * math.ulp(0.0)
        assert abs(currents[1] - ref) <= 1e-8 * abs(ref) + 1e-15 * t0 * max(temps) ** 2 + floor


@pytest.mark.parametrize("coupling", [1e-2, 1.0, 1e2])
@pytest.mark.parametrize("t0", [1.0, 0.3, 1e-3])
def test_landauer_meets_the_closed_form_down_to_the_finest_panel(t0, coupling):
    # the panels halve toward w = 0 down to 2^-40 of the band, so a constant
    # transmission meets (pi t0 / 24) T^2 from T = 2^-40 band up to band / 100;
    # panels graded only to 2^-36 miss by 1e-10 at the bottom, and graded to
    # 2^-30 they return a J 9e-5 off at 2^-36 band without raising
    band = 2 * coupling
    for temp in np.geomspace(2.0 ** -40 * band, band / 100, 25).tolist():
        ref = math.pi * t0 * temp ** 2 / 24
        assert abs(landauer_current(lambda w: t0, temp, 0.0, coupling) / ref - 1) <= 1e-12, temp


# ---------------------------------------------------------------------------
# partitioning protocol against the Landauer integral

def test_plateau_matches_landauer_homogeneous():
    spec = ChainSpec(sites=400, defect=1.0)
    series = steady_current(spec, 0.1, 0.05, samples=50)
    j_ref = landauer_current(lambda w: 1.0, 0.1, 0.05)
    assert abs(series.plateau.mean / j_ref - 1) < 0.03


def test_plateau_matches_landauer_with_defect():
    spec = ChainSpec(sites=400, defect=0.7)
    series = steady_current(spec, 0.1, 0.05, samples=50)
    j_ref = landauer_current(lambda w: transmission(0.7, w), 0.1, 0.05)
    assert abs(series.plateau.mean / j_ref - 1) < 0.03
    # and the three-way check against the low-temperature closed form
    t0 = transmission_dc(0.7)
    cft = math.pi * t0 / 24 * (0.1 ** 2 - 0.05 ** 2)
    assert abs(series.plateau.mean / cft - 1) < 0.05


def test_plateau_independent_of_chain_length():
    results = []
    for n in (400, 600, 800):
        series = steady_current(ChainSpec(sites=n, defect=0.7), 0.1, 0.05, samples=40)
        results.append((series.plateau.mean, series.plateau.stderr))
    base = results[0][0]
    for mean, stderr in results[1:]:
        assert abs(mean - base) <= 3 * max(results[0][1], stderr, 1e-9 * abs(base))


def test_current_antisymmetric_under_temperature_swap():
    spec = ChainSpec(sites=200, defect=0.8)
    a = steady_current(spec, 0.1, 0.05, samples=40).plateau
    b = steady_current(spec, 0.05, 0.1, samples=40).plateau
    assert abs(a.mean + b.mean) <= 3 * (a.stderr + b.stderr) + 1e-12


def test_low_temperature_scaling_exponent():
    spec = ChainSpec(sites=400)
    temps = [0.02, 0.04, 0.06, 0.08]
    means = [steady_current(spec, t, t / 2, samples=50).plateau.mean for t in temps]
    p = np.polyfit(np.log(temps), np.log(means), 1)[0]
    assert abs(p - 2.0) <= 0.1, p


def test_plateau_error_when_window_empty(monkeypatch):
    # six samples over [0, 0.45 N / v_max] leave three in the window, which
    # is known before the Gibbs halves or the modes are built
    def unreachable(*args):
        raise AssertionError("O(N^2) work before the plateau check")

    monkeypatch.setattr(lattice, "_gibbs_rows", unreachable)
    monkeypatch.setattr(lattice, "_chain_spectrum", unreachable)
    monkeypatch.setattr(lattice, "_mode_rows", unreachable)
    spec = ChainSpec(sites=120)
    with pytest.raises(PlateauError, match="holds 3 samples"):
        steady_current(spec, 0.2, 0.1, samples=6)


@pytest.mark.parametrize("t_left, t_right", [(-1.0, 0.05), (0.1, -0.5)])
def test_negative_temperature_fails_before_the_propagator_rows(monkeypatch, t_left, t_right):
    # either reservoir is checked before the O(S N^2) rows of exp(A t) are built
    def unreachable(*args):
        raise AssertionError("propagator rows built before the temperature check")

    monkeypatch.setattr(lattice, "propagator_rows", unreachable)
    with pytest.raises(ValueError, match="temperature must be >= 0"):
        steady_current(ChainSpec(sites=120), t_left, t_right)


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec(sites=41)
    with pytest.raises(ValueError):
        ChainSpec(sites=20)
    with pytest.raises(ValueError):
        ChainSpec(sites=100, defect=1.5)


def test_series_csv_and_summary(tmp_path, capsys):
    spec = ChainSpec(sites=120, defect=0.9)
    series = steady_current(spec, 0.2, 0.1, samples=30)
    # the command line writes the series the library returns, one row per sample
    path = tmp_path / "series.csv"
    assert cli.main(["lattice-run", "--sites", "120", "--lam", "0.9", "--Tl", "0.2", "--Tr", "0.1",
                     "--samples", "30", "--series-out", str(path)]) == 0
    capsys.readouterr()
    assert path.read_text().splitlines() == ["t,current"] + [
        f"{t:.10g},{v:.12e}" for t, v in zip(series.times, series.values)]
    # the plateau summary lies inside its window and meets the Landauer integral
    plateau = series.plateau
    inside = series.values[(series.times >= plateau.start) & (series.times <= plateau.end)]
    assert plateau.mean == float(np.mean(inside)) and plateau.stderr > 0
    landauer = lattice.landauer_current(lambda w: lattice.transmission(0.9, w), 0.2, 0.1)
    assert abs(plateau.mean / landauer - 1) <= 0.03
