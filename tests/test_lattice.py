"""Lattice oracle: Gibbs states, evolution invariants, scattering, transport."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from neqcft import lattice
from neqcft.lattice import (ChainSpec, PlateauError, current_form,
                            gibbs_covariance, landauer_current,
                            propagator_rows, quadratic_form, steady_current,
                            transmission, transmission_dc)


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
    bonds = np.full(2 * n_sites - 1, 1.0)
    bonds[n_sites - 1] *= lam
    a = quadratic_form(bonds)
    half = n_sites // 2
    c0 = np.zeros((2 * n_sites, 2 * n_sites))
    c0[:n_sites, :n_sites] = gibbs_covariance(half, tl)
    c0[n_sites:, n_sites:] = gibbs_covariance(half, tr)
    return bonds, a, c0


def evolve(bonds, c0, t):
    """C(t) = R C0 R^T with R = exp(A t) assembled from all rows of propagator_rows."""
    evals, v = lattice._chain_modes(bonds)
    r = propagator_rows(evals, v, np.arange(len(bonds) + 1), t)
    return r @ c0 @ r.T


def energy(a, c):
    """<H> for H = (i/4) gamma^T A gamma in the Gaussian state C."""
    return 0.25 * float(np.sum(a * c))


def test_zero_time_evolution_is_identity():
    bonds, _, c0 = _small_protocol()
    assert np.max(np.abs(evolve(bonds, c0, 0.0) - c0)) < 1e-12


def test_energy_conservation_along_evolution():
    bonds, a, c0 = _small_protocol()
    e0 = energy(a, c0)
    for t in (3.0, 7.0, 12.0):
        ct = evolve(bonds, c0, t)
        assert abs(energy(a, ct) - e0) <= 1e-10 * max(1.0, abs(e0)), t


def test_antisymmetry_and_spectrum_preserved():
    bonds, _, c0 = _small_protocol()
    s0 = np.sort(np.linalg.eigvalsh(1j * c0))
    ct = evolve(bonds, c0, 9.0)
    assert np.max(np.abs(ct + ct.T)) < 1e-10
    st = np.sort(np.linalg.eigvalsh(1j * ct))
    assert np.max(np.abs(st - s0)) < 1e-10


def test_nonorthogonal_propagator_is_detected(monkeypatch):
    chain_modes = lattice._chain_modes

    def scaled_modes(bonds):
        evals, v = chain_modes(bonds)
        return evals, 1.001 * v  # rows of exp(A t) no longer orthonormal

    monkeypatch.setattr(lattice, "_chain_modes", scaled_modes)
    with pytest.raises(RuntimeError, match="orthonormality"):
        steady_current(ChainSpec(sites=60, defect=0.8), 0.3, 0.1, samples=10)


def test_front_spreads_at_the_group_velocity():
    # sharp temperature step, homogeneous chain: the disturbed region grows
    # at the maximal group velocity v = 2t of eps(k) = -2 t sin k
    bonds, _, c0 = _small_protocol(n_sites=120, lam=1.0, tl=0.5, tr=0.05)
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
        ct = evolve(bonds, c0, t)
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


def test_equilibrium_current_vanishes():
    spec = ChainSpec(sites=120, defect=0.6)
    series = steady_current(spec, 0.2, 0.2, samples=30)
    assert abs(series.plateau.mean) < 1e-10


def dense_current_series(spec, t_left, t_right, times):
    """Independent oracle: -(1/4) sum K.C(t) with the continuity-equation form K,
    the full C(t) = R C0 R^T from dense expm(A t) and the dense Gibbs halves."""
    bonds = spec.bonds()
    a = quadratic_form(bonds)
    k = current_form(bonds, spec.defect_bond)
    half = spec.sites // 2
    c0 = scipy.linalg.block_diag(dense_gibbs_covariance(half, t_left, spec.coupling),
                                 dense_gibbs_covariance(half, t_right, spec.coupling))
    out = []
    for t in times:
        r = scipy.linalg.expm(a * t)
        out.append(-0.25 * np.sum(k * (r @ c0 @ r.T)))
    return np.array(out)


@settings(max_examples=15, deadline=None)
@given(half_sites=st.integers(20, 60),
       lam=st.one_of(st.just(0.0), st.floats(1e-9, 1.0)),
       t_left=st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
       t_right=st.one_of(st.just(0.0), st.floats(0.01, 1.0)))
def test_steady_current_matches_dense_propagator(half_sites, lam, t_left, t_right):
    spec = ChainSpec(sites=2 * half_sites, defect=lam)
    series = steady_current(spec, t_left, t_right, samples=10)
    ref = dense_current_series(spec, t_left, t_right, series.times)
    assert np.max(np.abs(series.values - ref)) <= 1e-14
    assert 0.0 <= series.orth_drift <= 1e-10


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


def test_plateau_error_when_window_empty():
    # six samples over [0, 0.45 N / v_max] leave three in the window
    spec = ChainSpec(sites=120)
    with pytest.raises(PlateauError, match="holds 3 samples"):
        steady_current(spec, 0.2, 0.1, samples=6)


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec(sites=41)
    with pytest.raises(ValueError):
        ChainSpec(sites=20)
    with pytest.raises(ValueError):
        ChainSpec(sites=100, defect=1.5)


def test_series_csv_and_summary(tmp_path):
    spec = ChainSpec(sites=120, defect=0.9)
    series = steady_current(spec, 0.2, 0.1, samples=30)
    path = tmp_path / "series.csv"
    series.to_csv(path)
    text = path.read_text().splitlines()
    assert text[0] == "t,current"
    assert len(text) == 31
    summary = lattice.transport_summary(spec, 0.2, 0.1, series)
    for key in ("plateau_mean", "landauer", "cft_prediction", "ratios"):
        assert key in summary
