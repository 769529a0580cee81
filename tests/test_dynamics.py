import time

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm

from lsw import models
from lsw.dynamics import (
    emission_intensity,
    evolve,
    min_state_eigenvalue,
    trace_drift,
)
from lsw.exceptions import ToleranceNotMetError, ValidationError
from lsw.operators import spin_operators
from lsw.superop import to_dense, vectorize


def test_zero_generator_constant_trajectory(rng):
    rho0 = np.eye(3, dtype=complex) / 3
    times = np.linspace(0, 4, 9)
    traj = evolve(np.zeros((9, 9), dtype=complex), rho0, times)
    assert np.abs(traj.states - vectorize(rho0)).max() == 0.0


def test_qubit_decay_analytic():
    l0, _ = models.decaying_qubit(gamma=1.0, omega=0.0)
    rho0 = np.zeros((2, 2), dtype=complex)
    rho0[0, 0] = 1.0
    times = np.linspace(0, 6, 61)
    traj = evolve(l0, rho0, times)
    jp, jm, _ = spin_operators(1)
    excited = traj.expectation(jp @ jm).real
    assert np.abs(excited - np.exp(-times)).max() < 1e-9


def test_dense_and_sparse_paths_agree():
    p = models.SuperradianceParams.from_sqrt_n_g(4, 0.2, gamma=1.0, omega=0.2)
    m = models.superradiance_model(p, sparse=False)
    gen = to_dense(m.l0 + m.v)
    times = np.linspace(0, 10, 21)
    y0 = vectorize(m.initial_state)
    reference = np.array([expm(gen * t) @ y0 for t in times])
    for g in (gen, sp.csr_matrix(gen)):
        traj = evolve(g, m.initial_state, times)
        assert np.abs(traj.states - reference).max() < 1e-10
        assert trace_drift(traj) < 1e-8
        for k in (0, len(times) // 2, len(times) - 1):
            state = traj.operator(k)
            assert np.abs(state - state.conj().T).max() < 1e-8


def test_steady_state_gives_zero_intensity():
    l0, _ = models.decaying_qubit(gamma=1.0, omega=0.2)
    sigma = np.zeros((2, 2), dtype=complex)
    sigma[1, 1] = 1.0
    times = np.linspace(0, 3, 7)
    traj = evolve(l0, sigma, times)
    _, _, jz = spin_operators(1)
    intensity = emission_intensity(traj, jz, to_dense(l0))
    assert np.abs(intensity).max() < 1e-12


def test_intensity_matches_finite_difference():
    # pure collective decay: intensity equals the loss rate of <Iz>, checked
    # against a centered finite difference of the expectation value
    p = models.SuperradianceParams(n_spins=4, g=0.1, gamma=1.0, omega=0.0)
    m = models.superradiance_model(p, sparse=False)
    rate, _ = models.second_order_rates(p)
    gen = models.collective_decay_generator(m, rate, 0.0)
    dn = m.dims[1]
    mu0 = np.zeros((dn, dn), dtype=complex)
    mu0[0, 0] = 1.0
    h = 1e-4 / rate
    times = np.array([0.0, h, 2 * h])
    traj = evolve(gen, mu0, times)
    intensity = emission_intensity(traj, m.iz, gen)
    iz_vals = traj.expectation(m.iz).real
    finite_diff = -(iz_vals[2] - iz_vals[0]) / (2 * h)
    assert abs(intensity[1] - finite_diff) <= 1e-5 * abs(finite_diff)
    # initial intensity: rate times the ladder expectation, with the 1/sqrt(N)
    # step in <Iz> per emission from the normalized collective operators
    expected0 = (
        rate * np.trace((m.iplus @ m.iminus) @ mu0).real / np.sqrt(p.n_spins)
    )
    assert abs(intensity[0] - expected0) < 1e-10


def test_collective_burst_appears_for_eight_spins():
    p = models.SuperradianceParams.from_sqrt_n_g(8, 0.2, gamma=1.0, omega=0.2)
    m = models.superradiance_model(p, sparse=False)
    gen = to_dense(m.l0 + m.v)
    times = np.linspace(0.0, 1200.0, 241)
    traj = evolve(gen, m.initial_state, times)
    intensity = emission_intensity(traj, m.iz_full, gen)
    baseline = intensity[np.searchsorted(times, 5.0)]
    assert intensity.max() > 1.2 * baseline
    assert min_state_eigenvalue(traj) > -1e-6
    assert trace_drift(traj) < 1e-8


def test_dense_path_non_uniform_grid():
    l0, _ = models.decaying_qubit(gamma=1.0, omega=0.0)
    rho0 = np.zeros((2, 2), dtype=complex)
    rho0[0, 0] = 1.0
    times = np.array([0.0, 0.3, 0.35, 1.0, 2.7])
    traj = evolve(l0, rho0, times)
    jp, jm, _ = spin_operators(1)
    excited = traj.expectation(jp @ jm).real
    assert np.abs(excited - np.exp(-times)).max() < 1e-9


def test_validation_errors():
    l0, _ = models.decaying_qubit()
    rho0 = np.zeros((2, 2), dtype=complex)
    rho0[0, 0] = 1.0
    with pytest.raises(ValidationError):
        evolve(l0, rho0, np.array([1.0, 2.0]))  # must start at 0
    with pytest.raises(ValidationError):
        evolve(l0, rho0, np.array([0.0, 2.0, 1.0]))
    with pytest.raises(ValidationError):
        evolve(l0, 2 * rho0, np.array([0.0, 1.0]))


def test_unreachable_tolerance_raises():
    # too stiff: expm_multiply would run for minutes, so it is refused up front
    gen = np.diag([-1e12, -1.0, -1.0, -1e12]).astype(complex)
    rho0 = np.eye(2, dtype=complex) / 2
    times = np.array([0.0, 10.0])
    start = time.perf_counter()
    with pytest.raises(ToleranceNotMetError, match="stiff"):
        evolve(gen, rho0, times)
    assert time.perf_counter() - start < 1.0
    # e^1000 overflows: the non-finite state is the only signal
    with pytest.raises(ToleranceNotMetError, match="non-finite"):
        evolve(np.diag([100.0] * 4).astype(complex), rho0, times)
