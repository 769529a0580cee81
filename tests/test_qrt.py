import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import random_hermitian
from lsw import models
from lsw.exceptions import (
    DegenerateSteadyStateError,
    DimensionMismatchError,
    NotPositiveError,
    SingularBlochMatrixError,
)
from lsw.operators import hermitian_basis, spin_operators
from lsw.qrt import (
    CLOSURE_TOL,
    AncillaModel,
    BlochSystem,
    close_operator_set,
    coefficient_matrix,
    coefficient_matrix_resolvent_oracle,
    effective_master_equation_2,
    lindblad_decomposition,
    steady_state,
)
from lsw.spectral import charge_sector, decompose, spectral_norm, to_eigen
from lsw.superop import (
    LindbladSpec,
    devectorize,
    hamiltonian_superop,
    lindblad_superop,
    to_dense,
    trace_functional,
    vectorize,
)


def qubit_l0(gamma=1.0, omega=0.2, rabi=0.0):
    jp, jm, jz = spin_operators(1)
    h = omega * (jp @ jm) + 0.5 * rabi * (jp + jm)
    spec = LindbladSpec(hdim=2, hamiltonian=h, jumps=[(gamma, jm)])
    return lindblad_superop(spec)


def test_steady_state_decaying_qubit():
    sigma = steady_state(qubit_l0())
    expected = np.zeros((2, 2), dtype=complex)
    expected[1, 1] = 1.0
    assert np.abs(sigma - expected).max() < 1e-12


def test_steady_state_depolarizing_is_maximally_mixed():
    jp, jm, jz = spin_operators(1)
    jumps = [(1.0, jp), (1.0, jm), (1.0, jp + jm)]
    spec = LindbladSpec(hdim=2, hamiltonian=np.zeros((2, 2)), jumps=jumps)
    l0 = lindblad_superop(spec)
    sigma = steady_state(to_dense(l0))
    assert np.abs(sigma - np.eye(2) / 2).max() < 1e-12


def test_steady_state_matches_long_time_integration():
    l0 = qubit_l0(gamma=0.8, omega=0.3, rabi=0.6)
    sigma = steady_state(l0)
    sd = decompose(l0)
    t_final = 100.0 / sd.gap
    rho0 = np.eye(2, dtype=complex) / 2
    evolved = devectorize(expm(l0 * t_final) @ vectorize(rho0))
    assert np.abs(evolved - sigma).max() < 1e-8


def dark_levels_l0(levels):
    # one jump empties level 1 into level 0 and every other level is dark,
    # so each level but 1 holds a steady population; distinct energies make
    # every coherence rotate
    jump = np.zeros((levels, levels), dtype=complex)
    jump[0, 1] = 1.0
    energies = np.diag(np.arange(levels, dtype=float))
    spec = LindbladSpec(hdim=levels, hamiltonian=energies, jumps=[(1.0, jump)])
    return lindblad_superop(spec)


def test_steady_state_degenerate_rejected():
    # two dark populations: the zero eigenvalue is not simple
    with pytest.raises(DegenerateSteadyStateError, match="dimension 2"):
        steady_state(dark_levels_l0(3))


def test_steady_state_three_dim_kernel_rejected():
    with pytest.raises(DegenerateSteadyStateError, match="dimension 3"):
        steady_state(dark_levels_l0(4))


def assert_matches_zero_mode(l0):
    # the bordered solve against the hermitized, trace-normalized zero mode
    # of the eigen route
    sigma = steady_state(l0)
    sd = decompose(l0)
    assert sd.slow_dim == 1
    mode = devectorize(sd.right[:, sd.slow[0]])
    mode = mode / np.trace(mode)
    mode = 0.5 * (mode + mode.conj().T)
    assert np.abs(sigma - mode).max() <= 1e-12
    assert np.linalg.norm(l0 @ vectorize(sigma)) <= 1e-12 * np.linalg.norm(l0, 2)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(dim=st.integers(2, 16), seed=st.integers(0, 2**16))
@example(dim=16, seed=0)
@example(dim=15, seed=1)
def test_steady_state_matches_eigen_route_random_ancillas(dim, seed):
    assert_matches_zero_mode(models.random_ancilla_model(dim, 1, seed).l0)


@pytest.mark.parametrize("rabi", [0.25, 0.2499, 0.2501, 0.3])
def test_steady_state_matches_eigen_route_near_exceptional_point(rabi):
    # at gamma = 1, omega = 0 the resonantly driven qubit has an exceptional
    # point at rabi = 0.25 among its fast eigenvalues
    assert_matches_zero_mode(qubit_l0(gamma=1.0, omega=0.0, rabi=rabi))


def test_degenerate_slow_model_steady_state_rejected():
    # two steady populations: the frame generator's kernel is two-dimensional
    for seed in (3, 11):
        with pytest.raises(DegenerateSteadyStateError, match="dimension 2"):
            steady_state(models.degenerate_slow_model(seed).l0)


def test_pure_hamiltonian_ancilla_rejected():
    jp, jm, jz = spin_operators(1)
    l0 = to_dense(hamiltonian_superop(0.7 * jz))
    with pytest.raises(DegenerateSteadyStateError):
        close_operator_set(l0, [jp + jm])


def test_malformed_l0_rejected_with_dimension_mismatch():
    # a 5 x 5 generator is no superoperator: numpy's broadcast error once
    # surfaced from inside the closure
    coupling = [(np.eye(2), np.diag([1.0, -1.0]))]
    for l0 in (np.diag([0, -1, -1, -1, -1]).astype(complex), np.zeros((4, 9)), np.zeros(4)):
        model = AncillaModel(l0=l0, couplings=coupling)
        with pytest.raises(DimensionMismatchError, match="l0 has shape"):
            model.validate()
        with pytest.raises(DimensionMismatchError):
            effective_master_equation_2(model)
    assert AncillaModel(l0=qubit_l0(), couplings=coupling).validate().l0.shape == (4, 4)


def assert_norm_is_exact(model):
    """The closed-form ||V|| equals the dense SVD norm of the assembled V."""
    want = spectral_norm(model.full_space()[1])
    assert abs(model.perturbation_norm() - want) <= 1e-13 * want


@pytest.mark.parametrize("n_spins", [1, 2, 5, 8, 16])
def test_perturbation_norm_superradiance(n_spins):
    p = models.SuperradianceParams.from_sqrt_n_g(n_spins, 0.2, gamma=1.0, omega=0.2)
    assert_norm_is_exact(models.superradiance_ancilla(p))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    dim_a=st.integers(2, 6),
    dim_s=st.integers(1, 3),
    n_couplings=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_perturbation_norm_random_ancilla(dim_a, dim_s, n_couplings, seed):
    assert_norm_is_exact(models.random_ancilla_model(dim_a, n_couplings, seed, dim_system=dim_s))


def test_perturbation_norm_non_commuting_couplings():
    # neither the ancilla nor the system operators commute across the two
    # pairs, and a negative epsilon counts by its modulus
    jp, jm, jz = spin_operators(1)
    couplings = [(jp + jm, jz), (jp @ jm, jp + jm)]
    for a, b in [(couplings[0][k], couplings[1][k]) for k in (0, 1)]:
        assert np.abs(a @ b - b @ a).max() > 0.5
    model = AncillaModel(l0=qubit_l0(), couplings=couplings, epsilon=-0.7)
    assert_norm_is_exact(model)
    assert model.perturbation_norm() > 0


def dense_frame_reference(l0, seed_ops):
    """(sigma, Bloch matrix, coefficient matrix) over the dense frame: the
    complex bordered solve on L0, the adjoint as conj(F) L0^dag F^T by dense
    products, one vector at a time through the closure, and the full
    covariance Tr(E_m E_n sigma) before the seed block is read."""
    l0 = to_dense(l0)
    dim = math.isqrt(l0.shape[0])
    bordered = np.array(l0, dtype=complex)
    bordered[0] = trace_functional(dim)
    sigma = devectorize(np.linalg.solve(bordered, np.eye(1, dim * dim, dtype=complex)[0]))
    sigma = 0.5 * (sigma + sigma.conj().T)
    frame = np.array(hermitian_basis(dim, traceless=False)).reshape(dim * dim, dim * dim)
    adjoint = (frame.conj() @ l0.conj().T @ frame.T).real
    deltas = [a - np.trace(a @ sigma).real * np.eye(dim) for a in seed_ops]
    seeds = (np.reshape(deltas, (-1, dim * dim)) @ frame.conj().T).real
    scale = max(np.linalg.norm(seeds, axis=1))
    basis = np.zeros((dim * dim, dim * dim))
    basis[0] = (vectorize(sigma) @ frame.conj().T).real / np.linalg.norm(sigma)
    size = 1

    def adjoin(vec):
        nonlocal size
        for _ in range(2):
            vec = vec - basis[:size].T @ (basis[:size] @ vec)
        if np.linalg.norm(vec) > CLOSURE_TOL * scale:
            basis[size] = vec / np.linalg.norm(vec)
            size += 1

    for vec in seeds:
        adjoin(vec)
    cursor = 1
    while cursor < size < dim * dim:
        adjoin(adjoint @ basis[cursor])
        cursor += 1
    coords = basis[1:size]
    flat = coords @ frame
    ops = flat.reshape(-1, dim, dim)
    covariance = flat @ (ops @ sigma).transpose(0, 2, 1).reshape(len(ops), dim * dim).T
    bloch = coords @ adjoint.T @ coords.T
    s = coords @ seeds.T
    return sigma, bloch, -s.T @ np.linalg.solve(bloch, covariance) @ s


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    dim=st.integers(2, 16),
    dim_s=st.integers(1, 3),
    n_couplings=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
@example(dim=16, dim_s=3, n_couplings=3, seed=7)
@example(dim=11, dim_s=1, n_couplings=2, seed=1311)
def test_frame_route_matches_dense_frame_reference(dim, dim_s, n_couplings, seed):
    # the sparse frame, the real steady-state solve, the block closure and the
    # seed columns of the covariance agree with the dense-frame route at the
    # rounding level.  Measured over these examples: Bloch matrix 1.45e-12
    # relative on the d=11 example and at most 6e-14 on the others (1e-16
    # relative noise on that L0 moves the reference's own Bloch matrix by up to
    # 1.6e-12: the closure basis amplifies rounding), coefficient matrix
    # 2.3e-15 relative, sigma 3.6e-16, basis orthonormality 1.0e-15
    model = models.random_ancilla_model(dim, n_couplings, seed, dim_system=dim_s)
    ops = [a for a, _ in model.couplings]
    sigma, bloch, a_matrix = dense_frame_reference(model.l0, ops)
    bs = close_operator_set(model.l0, ops)
    cm = coefficient_matrix(bs)
    assert bs.bloch.shape == bloch.shape
    assert np.abs(bs.bloch - bloch).max() <= 5e-12 * np.abs(bloch).max()
    assert np.abs(cm.a_matrix - a_matrix).max() <= 1e-14 * np.abs(a_matrix).max()
    assert np.abs(bs.sigma - sigma).max() <= 2e-15
    vecs = np.array([vectorize(op) for op in bs.ops])
    gram = (vecs.conj() @ vecs.T).real
    assert np.abs(gram - np.eye(len(vecs))).max() <= 1e-14


def test_close_operator_set_driven_qubit_bloch_matrix():
    # seeds sx, sy, sz close onto a three-dimensional evolution matrix
    l0 = qubit_l0(gamma=1.0, omega=0.4, rabi=0.3)
    jp, jm, _ = spin_operators(1)
    sx = jp + jm
    sy = -1j * (jp - jm)
    sz = np.diag([1.0, -1.0]).astype(complex)
    bs = close_operator_set(l0, [sx, sy, sz])
    assert len(bs.ops) == 3
    adjoint = l0.conj().T
    for i, op in enumerate(bs.ops):
        image = adjoint @ vectorize(op)
        recon = sum(bs.bloch[i, k] * vectorize(bs.ops[k]) for k in range(len(bs.ops)))
        assert np.abs(image - recon).max() < 1e-10


def test_close_operator_set_random_single_seed():
    # dimension 16 closes onto all 255 deviation directions
    for dim in (3, 16):
        model = models.random_ancilla_model(dim, 1, seed=2)
        bs = close_operator_set(model.l0, [model.couplings[0][0]])
        vecs = np.array([vectorize(op) for op in bs.ops])
        images = vecs @ model.l0.conj()  # row i is L0^dag applied to op i
        assert np.abs(images - bs.bloch @ vecs).max() < 1e-10
        # orthonormal under the real Hilbert-Schmidt product, Hermitian,
        # and zero-mean in the steady state
        gram = (vecs.conj() @ vecs.T).real
        assert np.abs(gram - np.eye(len(vecs))).max() < 1e-12
        assert max(np.abs(op - op.conj().T).max() for op in bs.ops) < 1e-12
        assert max(abs(np.trace(op @ bs.sigma)) for op in bs.ops) < 1e-12


def test_identity_couplings_give_zero_coefficient_matrix():
    l0 = qubit_l0()
    bs = close_operator_set(l0, [np.eye(2, dtype=complex), 2.0 * np.eye(2, dtype=complex)])
    cm = coefficient_matrix(bs)
    assert cm.a_matrix.shape == (2, 2)
    assert np.abs(cm.a_matrix).max() == 0.0


def test_coefficient_matrix_single_coupling_routes_agree():
    l0 = qubit_l0(gamma=1.0, omega=0.2)
    jp, jm, _ = spin_operators(1)
    sx = jp + jm
    bs = close_operator_set(l0, [sx])
    cm = coefficient_matrix(bs)
    sigma = steady_state(l0)
    oracle = coefficient_matrix_resolvent_oracle(l0, sigma, [sx])
    assert cm.a_matrix.shape == (1, 1)
    assert np.abs(cm.a_matrix - oracle).max() < 1e-10


def test_coefficient_matrix_quadrature_oracle():
    # direct time integration of the correlator reproduces the solve
    l0 = qubit_l0(gamma=1.0, omega=0.2)
    sz = np.diag([1.0, -1.0]).astype(complex)
    sigma = steady_state(l0)
    mean = np.trace(sz @ sigma).real
    delta = sz - mean * np.eye(2)
    sd = decompose(l0)
    t_final = 60.0 / sd.gap
    n_steps = 6000
    dt = t_final / n_steps
    prop = expm(l0 * dt)
    vec = vectorize(delta @ sigma)
    vals = np.empty(n_steps + 1, dtype=complex)
    for k in range(n_steps + 1):
        vals[k] = np.trace(delta @ devectorize(vec))
        if k < n_steps:
            vec = prop @ vec
    quad = np.trapezoid(vals, dx=dt)
    bs = close_operator_set(l0, [sz])
    cm = coefficient_matrix(bs)
    assert abs(cm.a_matrix[0, 0] - quad) < 1e-6


def test_singular_bloch_matrix_rejected():
    # one basis operator and one seed: the covariance's seed column is 1 x 1
    bs = BlochSystem(
        ops=[np.diag([1.0, -1.0]).astype(complex)],
        bloch=np.array([[0.0]], dtype=complex),
        steady_means=np.array([0.0]),
        seed_covariance=np.array([[1.0]], dtype=complex),
        seed_coeffs=np.array([[1.0]]),
        sigma=np.eye(2, dtype=complex) / 2,
        seed_count=1,
    )
    with pytest.raises(SingularBlochMatrixError):
        coefficient_matrix(bs)


# the last three have the shape of the qrt-mix benchmark: three couplings
# and a three-level system, at ancilla dimensions where the closure used to
# lose orthogonality
TWO_ROUTE_CASES = [
    (2, 1, 2, 2),
    (3, 2, 2, 2),
    (4, 3, 2, 2),
    (8, 4, 3, 3),
    (12, 5, 3, 3),
    (16, 6, 3, 3),
]


@pytest.mark.parametrize(
    "dim,seed,n_couplings,dim_system",
    TWO_ROUTE_CASES,
    ids=[f"{dim}-{seed}" for dim, seed, _, _ in TWO_ROUTE_CASES],
)
def test_two_route_equality_random_models(dim, seed, n_couplings, dim_system):
    model = models.random_ancilla_model(dim, n_couplings, seed=seed, dim_system=dim_system)
    ops = [a for a, _ in model.couplings]
    bs = close_operator_set(model.l0, ops)
    cm = coefficient_matrix(bs)
    sigma = steady_state(model.l0)
    oracle = coefficient_matrix_resolvent_oracle(model.l0, sigma, ops)
    assert np.abs(cm.a_matrix - oracle).max() < 1e-10


def test_dissipation_positivity_many_models():
    # fifty random ancilla generators and couplings: the Hermitian part of
    # the coefficient matrix is positive semidefinite in every case
    worst = np.inf
    for seed in range(50):
        dim = 2 + seed % 3
        model = models.random_ancilla_model(dim, 2, seed=1000 + seed)
        ops = [a for a, _ in model.couplings]
        bs = close_operator_set(model.l0, ops)
        cm = coefficient_matrix(bs)
        worst = min(worst, cm.eigmin_dissipation)
    assert worst >= -1e-9


def test_time_translation_invariance_of_correlators():
    # pre-evolving the steady state by any time leaves the correlation
    # data (and hence the coefficient matrix) unchanged
    model = models.random_ancilla_model(3, 2, seed=7)
    ops = [a for a, _ in model.couplings]
    sigma = steady_state(model.l0)
    for t in (0.7, 3.1):
        shifted = devectorize(expm(model.l0 * t) @ vectorize(sigma))
        assert np.abs(shifted - sigma).max() < 1e-10
        a1 = coefficient_matrix_resolvent_oracle(model.l0, sigma, ops)
        a2 = coefficient_matrix_resolvent_oracle(model.l0, shifted, ops)
        assert np.abs(a1 - a2).max() < 1e-10


def test_effective_generator_matches_block_route():
    # the correlation-function route and the block-decoupling route give
    # the same reduced second order for the collective-decay model
    from lsw.spectral import decompose as dec
    from lsw.sw import correction_terms, generator_terms, reduced_effective

    p = models.SuperradianceParams(n_spins=2, g=0.15, gamma=1.0, omega=0.3)
    m = models.superradiance_model(p)
    sd = dec(to_dense(m.l0))
    gen = generator_terms(sd, to_eigen(sd, to_dense(m.v)), 2)
    series = correction_terms(gen, sd)
    red2 = reduced_effective(series, sd, m.dims, 2, cumulative=False).matrix

    am = models.superradiance_ancilla(p)
    eff = effective_master_equation_2(am)
    assert np.abs(am.epsilon * eff.first_order).max() < 1e-12
    l2 = am.epsilon**2 * eff.second_order
    assert np.abs(l2 - red2).max() <= 1e-9 * np.abs(red2).max()


@pytest.mark.parametrize("dim_a,dim_s", [(2, 2), (3, 2), (4, 3), (6, 3)])
def test_recursion_on_ancilla_model_matches_qrt(dim_a, dim_s):
    # the third route: the decoupling recursion on the model's own block and
    # perturbation reproduces both correlation-function orders
    from lsw.sw import correction_terms, generator_terms, reduced_effective

    anc = models.random_ancilla_model(dim_a, 3, seed=dim_a, dim_system=dim_s)
    sector = charge_sector(anc)
    sd = sector.spectral
    series = correction_terms(generator_terms(sd, sector.v, 3), sd)
    eff = effective_master_equation_2(anc)
    for n, want in ((1, eff.first_order), (2, eff.second_order)):
        got = reduced_effective(series, sd, (dim_a, dim_s), n, cumulative=False).matrix
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    third = reduced_effective(series, sd, (dim_a, dim_s), 3, cumulative=False).matrix
    assert np.abs(third).max() > 1e-3  # QRT stops at order 2; the recursion does not


def test_identity_system_operators_cancel():
    model = models.random_ancilla_model(2, 2, seed=4)
    couplings = [(a, np.eye(2, dtype=complex)) for a, _ in model.couplings]
    neutral = AncillaModel(l0=model.l0, couplings=couplings, epsilon=1.0)
    eff = effective_master_equation_2(neutral)
    assert np.abs(eff.second_order).max() < 1e-10


def test_traceless_couplings_kill_first_order():
    l0 = qubit_l0()
    jp, jm, _ = spin_operators(1)
    sx = jp + jm
    model = AncillaModel(l0=l0, couplings=[(sx, np.diag([1.0, -1.0]).astype(complex))])
    eff = effective_master_equation_2(model)
    assert np.abs(eff.first_order).max() < 1e-12


def test_lindblad_decomposition_single_coupling_rate():
    l0 = qubit_l0(gamma=1.0, omega=0.2)
    jp, jm, _ = spin_operators(1)
    sx = jp + jm
    s_sys = random_hermitian(np.random.default_rng(3), 2)
    model = AncillaModel(l0=l0, couplings=[(sx, s_sys)])
    eff = effective_master_equation_2(model)
    jumps, _ = lindblad_decomposition(eff.coefficient, [s_sys])
    assert len(jumps) == 1
    rate, op = jumps[0]
    assert abs(rate - eff.coefficient.dissipation[0, 0].real) < 1e-12
    assert np.abs(op - s_sys).max() < 1e-12


def test_lindblad_decomposition_superradiance_recast():
    p = models.SuperradianceParams(n_spins=2, g=0.15, gamma=1.0, omega=0.3)
    am = models.superradiance_ancilla(p)
    eff = effective_master_equation_2(am)
    system_ops = [s for _, s in am.couplings]
    jumps, h_eff = lindblad_decomposition(eff.coefficient, system_ops)
    assert len(jumps) == 1
    rate, op = jumps[0]
    m = models.superradiance_model(p)
    derived_rate, derived_shift = models.second_order_rates(p)
    # the jump is proportional to the collective lowering operator and the
    # generator it carries has the derived rate (epsilon**2 = g**2 applied)
    overlap = np.abs(np.vdot(vectorize(op), vectorize(m.iminus)))
    assert overlap > (1 - 1e-10) * np.linalg.norm(op) * np.linalg.norm(m.iminus)
    scale = np.linalg.norm(op) ** 2 / np.linalg.norm(m.iminus) ** 2
    assert abs(am.epsilon**2 * rate * scale - derived_rate) < 1e-12
    ipim = m.iplus @ m.iminus
    assert np.abs(am.epsilon**2 * h_eff - derived_shift * ipim).max() < 1e-12


def test_lindblad_decomposition_round_trip(rng):
    model = models.random_ancilla_model(3, 2, seed=6, dim_system=3)
    eff = effective_master_equation_2(model)
    system_ops = [s for _, s in model.couplings]
    jumps, h_eff = lindblad_decomposition(eff.coefficient, system_ops)
    rebuilt = to_dense(hamiltonian_superop(h_eff))
    for rate, op in jumps:
        from lsw.superop import dissipator_superop

        rebuilt = rebuilt + rate * to_dense(dissipator_superop(op))
    assert np.abs(rebuilt - eff.second_order).max() < 1e-9


def test_second_order_trace_and_hermiticity_preserving(rng):
    model = models.random_ancilla_model(3, 2, seed=9, dim_system=3)
    eff = effective_master_equation_2(model)
    for _ in range(5):
        mu = random_hermitian(rng, 3)
        out = devectorize(eff.second_order @ vectorize(mu))
        assert abs(np.trace(out)) < 1e-10
        assert np.abs(out - out.conj().T).max() < 1e-10


def test_not_positive_guard():
    from lsw.qrt import CoefficientMatrix

    bad = CoefficientMatrix(
        a_matrix=np.array([[-1.0]], dtype=complex),
        dissipation=np.array([[-2.0]], dtype=complex),
        hamiltonian_part=np.zeros((1, 1), dtype=complex),
    )
    with pytest.raises(NotPositiveError):
        lindblad_decomposition(bad, [np.eye(2, dtype=complex)])
