import itertools

import numpy as np
import pytest

from lsw import models
from lsw.spectral import decompose
from lsw.superop import (
    devectorize,
    lindblad_superop,
    to_dense,
    trace_functional,
    vectorize,
)
from lsw.sw import correction_terms, generator_terms, reduced_effective


def test_model_dimensions_and_eigenvalue_multiplicity():
    p = models.SuperradianceParams(n_spins=1, g=0.1, gamma=1.0, omega=0.2)
    m = models.superradiance_model(p)
    assert m.dims == (2, 2)
    assert to_dense(m.l0).shape == (16, 16)
    eigs = np.linalg.eigvals(to_dense(m.l0))
    for lam in models.electron_eigenvalues(1.0, 0.2):
        assert np.sum(np.abs(eigs - lam) < 1e-9) == 4  # nuclear multiplicity


@pytest.mark.parametrize("n", [1, 2, 8, 16, 24])
def test_superradiance_perturbation_is_its_ancilla_form(n):
    # one coupling definition: the model's V is its ancilla's, bit for bit
    p = models.SuperradianceParams.from_sqrt_n_g(n, 0.2, gamma=1.0, omega=0.2)
    got = models.superradiance_model(p).v.tocsr()
    want = models.superradiance_ancilla(p).perturbation(sparse=True).tocsr()
    assert got.nnz == want.nnz
    assert np.abs(got - want).max() == 0


def test_eigenbasis_blocks_match_printed_matrix():
    # entrywise comparison of the perturbation blocks in the electron
    # eigenbasis against the explicit flip/z vertex structure
    p = models.SuperradianceParams(n_spins=1, g=0.37, gamma=1.0, omega=0.2)
    m = models.superradiance_model(p)
    blocks = models.eigenbasis_blocks(m)
    g = p.g
    dn = m.dims[1]
    eye = np.eye(dn, dtype=complex)
    ip, im, iz = m.iplus, m.iminus, m.iz

    expected = np.empty((4, 4), dtype=object)
    expected[0, 0] = np.zeros((dn * dn, dn * dn), dtype=complex)
    expected[0, 1] = -1j * g / 2 * (np.kron(im, eye) - np.kron(eye, im.T))
    expected[0, 2] = -1j * g / 2 * (np.kron(ip, eye) - np.kron(eye, ip.T))
    expected[0, 3] = -1j * g * (np.kron(iz, eye) - np.kron(eye, iz.T))
    expected[1, 0] = 1j * g / 2 * np.kron(eye, ip.T)
    expected[1, 1] = 1j * g * np.kron(eye, iz.T)
    expected[1, 2] = np.zeros_like(expected[0, 0])
    expected[1, 3] = -1j * g / 2 * (np.kron(ip, eye) + np.kron(eye, ip.T))
    expected[2, 0] = -1j * g / 2 * np.kron(im, eye)
    expected[2, 1] = np.zeros_like(expected[0, 0])
    expected[2, 2] = -1j * g * np.kron(iz, eye)
    expected[2, 3] = 1j * g / 2 * (np.kron(im, eye) + np.kron(eye, im.T))
    expected[3, 0] = np.zeros_like(expected[0, 0])
    expected[3, 1] = -1j * g / 2 * np.kron(im, eye)
    expected[3, 2] = 1j * g / 2 * np.kron(eye, ip.T)
    expected[3, 3] = -1j * g * (np.kron(iz, eye) - np.kron(eye, iz.T))
    for i in range(4):
        for j in range(4):
            assert np.abs(blocks[i, j] - expected[i, j]).max() < 1e-12, (i, j)


def test_slow_block_vanishes():
    p = models.SuperradianceParams(n_spins=2, g=0.2, gamma=1.0, omega=0.1)
    m = models.superradiance_model(p)
    blocks = models.eigenbasis_blocks(m)
    assert np.abs(blocks[0, 0]).max() < 1e-12


def test_blocks_consistent_with_hermiticity_conservation(rng):
    # V(mu^dagger) = (V mu)^dagger on the full space
    p = models.SuperradianceParams(n_spins=2, g=0.2, gamma=1.0, omega=0.1)
    m = models.superradiance_model(p)
    v = to_dense(m.v)
    d = 2 * m.dims[1]
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    lhs = devectorize(v @ vectorize(x.conj().T))
    rhs = devectorize(v @ vectorize(x)).conj().T
    assert np.abs(lhs - rhs).max() < 1e-12


def test_zero_coupling_kills_all_orders():
    p = models.SuperradianceParams(n_spins=2, g=0.0, gamma=1.0, omega=0.2)
    m = models.superradiance_model(p)
    assert np.abs(to_dense(m.v)).max() == 0.0
    sd = decompose(to_dense(m.l0))
    gen = generator_terms(sd, to_dense(m.v), 3)
    series = correction_terms(gen, sd, to_dense(m.v))
    for mat in series.slow_terms:
        assert np.abs(mat).max() == 0.0


def test_initial_state_polarized_dark():
    p = models.SuperradianceParams(n_spins=3, g=0.1)
    m = models.superradiance_model(p)
    rho0 = m.initial_state
    assert abs(np.trace(rho0) - 1) < 1e-14
    # electron in the decay dark state, nuclei at maximal Iz = (N/2)/sqrt(N)
    iz_full = m.iz_full
    assert abs(np.trace(iz_full @ rho0) - np.sqrt(3) / 2) < 1e-12
    assert np.abs(to_dense(m.l0) @ vectorize(rho0)).max() < 1e-12


def test_random_lindblad_deterministic():
    a = models.random_lindblad_model(3, 2, seed=5)
    b = models.random_lindblad_model(3, 2, seed=5)
    assert np.array_equal(a.hamiltonian, b.hamiltonian)
    for (ra, la), (rb, lb) in zip(a.jumps, b.jumps):
        assert ra == rb and np.array_equal(la, lb)
    assert np.array_equal(a.perturbations[0], b.perturbations[0])


def test_random_lindblad_generator_properties():
    spec = models.random_lindblad_model(4, 3, seed=8)
    l0, _ = lindblad_superop(spec, sparse=False)
    assert np.abs(trace_functional(4) @ l0).max() < 1e-10
    assert np.linalg.eigvals(l0).real.max() <= 1e-10


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("omega", [0.0, 0.2, 1.0])
@pytest.mark.parametrize("g", [0.02, 0.1])
def test_second_order_grid_matches_derived_closed_form(gamma, omega, g):
    p = models.SuperradianceParams(n_spins=2, g=g, gamma=gamma, omega=omega)
    m = models.superradiance_model(p)
    sd = decompose(to_dense(m.l0))
    gen = generator_terms(sd, to_dense(m.v), 2)
    series = correction_terms(gen, sd, to_dense(m.v))
    red = reduced_effective(series, sd, m.dims, 2, cumulative=False).matrix
    rate, shift = models.second_order_rates(p)
    target = models.collective_decay_generator(m, rate, shift)
    assert np.abs(red - target).max() <= 1e-9 * np.abs(target).max()


def _slow_spectrum_deviation(vertex):
    # exact eigenvalues of the full L0 + V at N=1 and weak coupling, without
    # the SW engine: the three slow non-zero ones are {-rate, -rate/2 +- i shift}
    # of the closed form for the given flip-flop vertex (a multiple of g)
    g = 1e-4
    worst = 0.0
    for gamma in (0.5, 1.0, 2.0):
        for omega in (0.0, 0.2, 1.0):
            p = models.SuperradianceParams(n_spins=1, g=g, gamma=gamma, omega=omega)
            m = models.superradiance_model(p)
            w = np.linalg.eigvals(to_dense(m.l0) + to_dense(m.v))
            slow = w[np.argsort(np.abs(w))[1:4]]  # drop the steady state
            lam = vertex * g
            denom = (gamma / 2) ** 2 + omega**2
            rate = lam**2 * gamma / denom
            shift = -(lam**2) * omega / denom
            ref = np.array([-rate, -rate / 2 + 1j * shift, -rate / 2 - 1j * shift])
            # best pairing: the +- pair may come out in either order
            dev = min(
                np.abs(slow[list(perm)] - ref).max()
                for perm in itertools.permutations(range(3))
            )
            worst = max(worst, dev / rate)
    return worst


def test_full_spectrum_matches_half_g_vertex_closed_form():
    assert _slow_spectrum_deviation(0.5) < 1e-3
    # the vertex-g constants miss the exact spectrum by a factor of 4
    assert _slow_spectrum_deviation(1.0) >= 0.75


@pytest.mark.parametrize("n_spins", [1, 2, 4])
def test_third_order_matches_eigenvalue_assembly(n_spins):
    p = models.SuperradianceParams(n_spins=n_spins, g=0.08, gamma=1.3, omega=0.4)
    m = models.superradiance_model(p)
    sd = decompose(to_dense(m.l0))
    gen = generator_terms(sd, to_dense(m.v), 3)
    series = correction_terms(gen, sd, to_dense(m.v))
    red = reduced_effective(series, sd, m.dims, 3, cumulative=False).matrix
    target = models.third_order_generator(m)
    assert np.abs(red - target).max() <= 1e-9 * np.abs(target).max()


def test_regrouped_form_deviation_scales_quadratically():
    rels = []
    ratios = (0.05, 0.02, 0.01)
    for gr in ratios:
        p = models.SuperradianceParams(n_spins=2, g=gr, gamma=1.0, omega=0.0)
        m = models.superradiance_model(p)
        sd = decompose(to_dense(m.l0))
        gen = generator_terms(sd, to_dense(m.v), 3)
        series = correction_terms(gen, sd, to_dense(m.v))
        l23 = reduced_effective(series, sd, m.dims, 3, cumulative=True).matrix
        reg = models.regrouped_generator(m)
        rels.append(np.linalg.norm(l23 - reg) / np.linalg.norm(l23))
    slope = np.polyfit(np.log(ratios), np.log(rels), 1)[0]
    assert abs(slope - 2.0) < 0.3


def test_degenerate_slow_model_structure():
    spec = models.degenerate_slow_model(seed=11)
    l0, v = lindblad_superop(spec, sparse=False)
    sd = decompose(l0)
    assert sd.slow_dim == 2
    assert sd.gap > 0
    assert np.abs(trace_functional(3) @ v).max() < 1e-10


def test_random_ancilla_unique_steady_state():
    from lsw.qrt import steady_state

    for seed in (1, 2, 3):
        model = models.random_ancilla_model(3, 2, seed=seed)
        sigma = steady_state(model.l0)
        assert abs(np.trace(sigma) - 1) < 1e-10


def test_perturbative_flag():
    weak = models.SuperradianceParams.from_sqrt_n_g(4, 0.05, gamma=1.0)
    strong = models.SuperradianceParams.from_sqrt_n_g(4, 0.9, gamma=1.0)
    assert not weak.perturbative_flag()
    assert strong.perturbative_flag()
