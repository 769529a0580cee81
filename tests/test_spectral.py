import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm

from conftest import dense_full_space, model_fleet, random_density
from lsw import models, superop
from lsw.exceptions import DefectiveOperatorError, EmptySlowSpaceError, ToleranceNotMetError
from lsw.spectral import (
    assemble,
    charge_sector,
    check_perturbative_limit,
    decompose,
    fast_inverse,
    projectors,
    resolvent_apply,
    spectral_norm,
    to_eigen,
)
from lsw.superop import DENSE_ENTRIES, hat_apply, to_dense, vectorize
from lsw.sw import split_blocks


def vec_dn_dn():
    dn = np.zeros((2, 2), dtype=complex)
    dn[1, 1] = 1.0
    return vectorize(dn)


def test_qubit_eigensystem_matches_table(qubit_table):
    l0, _ = qubit_table
    sd = decompose(to_dense(l0))
    expected = np.sort_complex(np.array([0, -0.5 + 0.2j, -0.5 - 0.2j, -1]))
    assert np.abs(np.sort_complex(sd.eigenvalues) - expected).max() < 1e-10
    assert sd.slow_dim == 1
    # right zero vector is |dn><dn|, left zero vector is the identity functional
    r0 = sd.right[:, sd.slow[0]]
    r0 = r0 / r0[3]
    assert np.abs(r0 - vec_dn_dn()).max() < 1e-10
    l0vec = sd.left[sd.slow[0], :]
    l0vec = l0vec / l0vec[0]
    assert np.abs(l0vec - vectorize(np.eye(2))).max() < 1e-10


def test_zero_generator_is_all_slow():
    sd = decompose(np.zeros((9, 9), dtype=complex))
    assert sd.slow_dim == 9
    assert np.isinf(sd.gap)
    assert np.abs(fast_inverse(sd)).max() == 0.0


def test_completeness_random_model():
    l0 = models.random_lindblad_model(3, 2, seed=31).l0
    sd = decompose(l0)
    resolution = sd.right @ sd.left
    assert np.abs(resolution - np.eye(9)).max() < 1e-9
    assert np.abs(sd.left @ sd.right - np.eye(9)).max() < 1e-9


def test_projector_action_decaying_qubit(qubit_table, rng):
    l0, _ = qubit_table
    sd = decompose(to_dense(l0))
    pq = projectors(sd)
    rho = random_density(rng, 2)
    out = pq.p @ vectorize(rho)
    assert np.abs(out - np.trace(rho) * vec_dn_dn()).max() < 1e-10


def test_projector_identities(qubit_table):
    l0, _ = qubit_table
    sd = decompose(to_dense(l0))
    pq = projectors(sd)
    eye = np.eye(4)
    assert np.abs(pq.p @ pq.p - pq.p).max() < 1e-9
    assert np.abs(pq.q @ pq.q - pq.q).max() < 1e-9
    assert np.abs(pq.p @ pq.q).max() < 1e-9
    assert np.abs(pq.p + pq.q - eye).max() < 1e-9
    assert np.abs(pq.p @ to_dense(l0)).max() < 1e-9
    assert np.abs(to_dense(l0) @ pq.p).max() < 1e-9


def test_projector_not_orthogonal(qubit_table):
    l0, _ = qubit_table
    sd = decompose(to_dense(l0))
    pq = projectors(sd)
    assert np.abs(pq.p - pq.p.conj().T).max() > 0.1


def test_all_slow_projector_is_identity():
    sd = decompose(np.zeros((4, 4), dtype=complex))
    pq = projectors(sd)
    assert np.abs(pq.p - np.eye(4)).max() < 1e-12


def test_projectors_first_calls_race_free():
    # eight threads make the first projectors() call on a fresh copy of a
    # decomposition at once, with thread switches forced every microsecond;
    # each must get both P and Q
    l0 = models.random_lindblad_model(5, 2, 0).l0
    base = decompose(to_dense(l0))  # projectors() builds P and Q from it on each call
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(200):
                sd, barrier = replace(base), threading.Barrier(8)

                def first_call(sd=sd, barrier=barrier):
                    barrier.wait(timeout=10)
                    return projectors(sd)

                futures = [pool.submit(first_call) for _ in range(8)]
                for future in futures:
                    pq = future.result(timeout=10)
                    assert pq.p is not None and pq.q is not None
    finally:
        sys.setswitchinterval(interval)


def test_fast_inverse_eigenvalues(qubit_table):
    l0, _ = qubit_table
    sd = decompose(to_dense(l0))
    finv = fast_inverse(sd)
    eigs = np.linalg.eigvals(finv)
    expected = {0.0, 1 / (-0.5 + 0.2j), 1 / (-0.5 - 0.2j), -1.0}
    for lam in expected:
        assert min(abs(eigs - lam)) < 1e-10


def test_fast_inverse_is_inverse_on_fast_space(qubit_table):
    l0, _ = qubit_table
    sd = decompose(to_dense(l0))
    pq = projectors(sd)
    finv = fast_inverse(sd)
    assert np.abs(finv @ to_dense(l0) - pq.q).max() < 1e-9
    assert np.abs(finv @ pq.q - finv).max() < 1e-12
    assert np.abs(pq.q @ finv - finv).max() < 1e-12


def test_fast_inverse_laplace_quadrature_oracle():
    # -integral_0^T exp(L0 t) Q dt with Simpson steps reproduces the inverse
    l0 = models.random_lindblad_model(3, 2, seed=17).l0
    sd = decompose(l0)
    pq = projectors(sd)
    finv = fast_inverse(sd)
    t_final = 50.0 / sd.gap
    n_steps = 4096  # even, Simpson weights
    dt = t_final / n_steps
    prop = expm(l0 * dt)
    integral = np.zeros_like(l0)
    current = pq.q.astype(complex)
    weights = np.ones(n_steps + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    for w in weights:
        integral += w * current
        current = prop @ current
    integral *= dt / 3.0
    assert np.abs(-integral - finv).max() < 1e-6


def test_resolvent_block_diagonal_input_vanishes(qubit_table, rng):
    l0, _ = qubit_table
    sd = decompose(to_dense(l0))
    pq = projectors(sd)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    block_diag = pq.p @ a @ pq.p + pq.q @ a @ pq.q
    assert np.abs(resolvent_apply(sd, block_diag)).max() < 1e-9


def test_resolvent_inverts_hat_with_l0(qubit_table, rng):
    l0, _ = qubit_table
    sd = decompose(to_dense(l0))
    pq = projectors(sd)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    x = pq.p @ a @ pq.q + pq.q @ a @ pq.p  # block-off-diagonal
    recovered = resolvent_apply(sd, hat_apply(x, to_dense(l0)))
    assert np.abs(recovered - x).max() < 1e-9


def test_resolvent_of_v_is_minus_first_generator_term():
    # two independent formulas: R0(V) against the explicit block assembly
    p = models.SuperradianceParams(n_spins=2, g=0.3, gamma=1.0, omega=0.2)
    m = models.superradiance_model(p)
    sd = decompose(to_dense(m.l0))
    pq = projectors(sd)
    finv = fast_inverse(sd)
    v = to_dense(m.v)
    s1_blocks = (pq.p @ v @ pq.q) @ finv - finv @ (pq.q @ v @ pq.p)
    assert np.abs(resolvent_apply(sd, v) + s1_blocks).max() < 1e-9


def test_resolvent_output_block_off_diagonal(rng):
    l0, v = dense_full_space(models.random_lindblad_model(3, 2, seed=23))
    sd = decompose(l0)
    pq = projectors(sd)
    out = resolvent_apply(sd, v)
    assert spectral_norm(pq.p @ out @ pq.p) + spectral_norm(pq.q @ out @ pq.q) <= 1e-10


@pytest.mark.parametrize("backend", ["sector", "dense"])
@pytest.mark.parametrize("dense_entries", [0, DENSE_ENTRIES])
def test_block_wrappers_match_projector_definitions(backend, dense_entries, monkeypatch):
    # DENSE_ENTRIES 0 keeps the sector backend's sparse blocks as CSR, so
    # the wrappers take the sparse branches of blocks and scaled
    monkeypatch.setattr(superop, "DENSE_ENTRIES", dense_entries)
    params = models.SuperradianceParams(n_spins=3, g=0.3, gamma=1.0, omega=0.2)
    m = models.superradiance_model(params)
    sd = charge_sector(m.ancilla).spectral if backend == "sector" else decompose(m.l0)
    pq = projectors(sd)
    p, q, finv, a = (to_dense(x) for x in (pq.p, pq.q, fast_inverse(sd), m.v))
    tol = 1e-12 * np.abs(a).max()
    want = q @ finv @ a @ p - p @ a @ finv @ q
    assert np.abs(to_dense(resolvent_apply(sd, m.v)) - want).max() <= tol
    diag, off = split_blocks(sd, m.v)
    assert np.abs(to_dense(diag) - (p @ a @ p + q @ a @ q)).max() <= tol
    assert np.abs(to_dense(off) - (p @ a @ q + q @ a @ p)).max() <= tol
    assert np.abs(finv @ to_dense(m.l0) - q).max() < 1e-12


def test_perturbative_limit_reports():
    p = models.SuperradianceParams.from_sqrt_n_g(4, 0.2, gamma=1.0, omega=0.2)
    m = models.superradiance_model(p)
    sd = decompose(to_dense(m.l0))
    assert m.ancilla.perturbation_norm() > 0
    assert check_perturbative_limit(sd, m.ancilla.perturbation_norm(), epsilon=0.0) is True
    assert abs(sd.gap - abs(-0.5 + 0.2j)) < 1e-12
    assert check_perturbative_limit(sd, 0.0, epsilon=1.0) is True
    assert check_perturbative_limit(sd, m.ancilla.perturbation_norm(), epsilon=1e3) is False


def test_sparse_spectral_norm_is_seed_free_and_scales():
    # the global seed does not reach the last bit, and the SVD keeps huge
    # entries finite
    p = models.SuperradianceParams(n_spins=8, g=1.0, gamma=1.0, omega=0.2)
    v = models.superradiance_model(p).v
    norms = []
    for seed in (0, 1):
        np.random.seed(seed)
        norms.append(spectral_norm(v))
    assert norms[0] == norms[1]
    assert abs(norms[0] - np.linalg.norm(to_dense(v), 2)) <= 1e-12 * norms[0]
    assert abs(spectral_norm(v * 1e300) / 1e300 - norms[0]) <= 1e-12 * norms[0]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_spectral_norm_refuses_non_finite_entries(bad):
    a = np.eye(4)
    a[1, 2] = bad
    for operand in (a, sp.csr_matrix(a)):
        with pytest.raises(ToleranceNotMetError):
            spectral_norm(operand)


def test_spectrum_preserved_by_converged_transform(rng):
    # block spectra of the numerically converged transform reproduce eig(L)
    from lsw.sw import generator_terms

    l0, v = dense_full_space(models.random_lindblad_model(2, 1, seed=5))
    sd = decompose(l0)
    pq = projectors(sd)
    eps = 1e-3
    gen = generator_terms(sd, to_eigen(sd, v), 8)
    a, b = gen.total_blocks(eps, gen.nmax)
    s = sd.right @ assemble(sd, sf=a, fs=b) @ sd.left  # the full-space image of S
    full = l0 + eps * v
    transformed = expm(-s) @ full @ expm(s)
    slow_block = sd.left[sd.slow, :] @ transformed @ sd.right[:, sd.slow]
    fast_block = sd.left[sd.fast, :] @ transformed @ sd.right[:, sd.fast]
    block_eigs = np.concatenate(
        [np.atleast_1d(np.linalg.eigvals(slow_block)), np.linalg.eigvals(fast_block)]
    )
    exact = np.linalg.eigvals(full)
    assert np.abs(np.sort_complex(block_eigs) - np.sort_complex(exact)).max() < 1e-8


def test_defective_operator_rejected():
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(DefectiveOperatorError):
        decompose(jordan)


def test_empty_slow_space_rejected():
    with pytest.raises(EmptySlowSpaceError):
        decompose(np.eye(4, dtype=complex))


@pytest.mark.parametrize("name,l0,v", model_fleet())
def test_fleet_biorthonormality_and_completeness(name, l0, v):
    sd = decompose(l0)
    dim = sd.dim
    assert np.abs(sd.left @ sd.right - np.eye(dim)).max() < 1e-9
    assert np.abs(sd.right @ sd.left - np.eye(dim)).max() < 1e-9
    for i in sd.slow:
        assert abs(sd.eigenvalues[i]) <= sd.zero_tol * max(
            1.0, np.abs(sd.eigenvalues).max()
        )
    if sd.fast.size:
        assert np.abs(sd.eigenvalues[sd.fast]).min() >= sd.gap
