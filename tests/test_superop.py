import numpy as np
import pytest
import scipy.sparse as sp

from conftest import dense_full_space, lindblad_rhs, random_density, random_hermitian
from lsw import models
from lsw.exceptions import DimensionMismatchError
from lsw.operators import hermitian_basis, spin_operators
from lsw.qrt import AncillaModel
from lsw.superop import (
    LindbladSpec,
    devectorize,
    factor_order,
    hamiltonian_superop,
    hat_apply,
    kossakowski_matrix,
    lift,
    lindblad_superop,
    sandwich_superop,
    to_dense,
    trace_functional,
    vectorize,
)


def test_vectorize_identity():
    assert np.array_equal(vectorize(np.eye(2)), np.array([1, 0, 0, 1], dtype=complex))


def test_vectorize_single_entry():
    up_dn = np.zeros((2, 2), dtype=complex)
    up_dn[0, 1] = 1.0  # |up><dn| in the (up, dn) ordering
    assert np.array_equal(vectorize(up_dn), np.array([0, 1, 0, 0], dtype=complex))


def test_devectorize_round_trip(rng):
    r = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.array_equal(devectorize(vectorize(r)), r)


def test_devectorize_rejects_non_square_length():
    with pytest.raises(DimensionMismatchError):
        devectorize(np.zeros(5, dtype=complex))


def test_sandwich_identity():
    assert np.array_equal(sandwich_superop(np.eye(2), np.eye(2)), np.eye(4))


def test_sandwich_decay_action():
    jp, jm, _ = spin_operators(1)
    up = np.zeros((2, 2), dtype=complex)
    up[0, 0] = 1.0
    dn = np.zeros((2, 2), dtype=complex)
    dn[1, 1] = 1.0
    out = sandwich_superop(jm, jp) @ vectorize(up)
    assert np.array_equal(devectorize(out), dn)


def test_sandwich_random_triple(rng):
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    r = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    out = devectorize(sandwich_superop(a, b) @ vectorize(r))
    assert np.abs(out - a @ r @ b).max() < 1e-12


def test_sandwich_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        sandwich_superop(np.eye(2), np.eye(3))


def test_lindblad_qubit_eigenvalues(qubit_table):
    l0, _ = qubit_table
    eigs = np.sort_complex(np.linalg.eigvals(to_dense(l0)))
    expected = np.sort_complex(np.array([0, -0.5 + 0.2j, -0.5 - 0.2j, -1]))
    assert np.abs(eigs - expected).max() < 1e-12


def test_lindblad_empty_spec_is_zero():
    spec = LindbladSpec(hdim=2, hamiltonian=np.zeros((2, 2)))
    l0 = lindblad_superop(spec)
    v = AncillaModel(l0, []).perturbation()
    assert np.abs(l0).max() == 0.0
    assert np.abs(to_dense(v)).max() == 0.0


def test_lindblad_matches_direct_rhs(rng):
    jumps = [(rate, rng.standard_normal((3, 3, 2)) @ [1, 1j]) for rate in (0.7, 1.2)]
    spec = LindbladSpec(hdim=3, hamiltonian=random_hermitian(rng, 3), jumps=jumps)
    h_v = random_hermitian(rng, 3)
    l0 = lindblad_superop(spec)
    v = to_dense(AncillaModel(l0, [(h_v, np.eye(1))]).perturbation())
    rho = random_density(rng, 3)
    for eps in (0.0, 0.37):
        lhs = devectorize((l0 + eps * v) @ vectorize(rho))
        rhs = lindblad_rhs(spec, rho, h_v, epsilon=eps)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_hat_apply_self_and_identity(rng):
    s = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.abs(hat_apply(s, s)).max() == 0.0
    assert np.abs(hat_apply(np.eye(4), s)).max() == 0.0


def test_hat_apply_commutator_oracle(rng):
    s = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    l = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    direct = np.array(
        [
            [sum(l[i, k] * s[k, j] - s[i, k] * l[k, j] for k in range(4)) for j in range(4)]
            for i in range(4)
        ]
    )
    assert np.abs(hat_apply(s, l) - direct).max() < 1e-12


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generator_trace_preservation(seed):
    l0, v = dense_full_space(models.random_lindblad_model(3, 2, seed=seed))
    tr = trace_functional(3)
    assert np.abs(tr @ l0).max() < 1e-10
    assert np.abs(tr @ v).max() < 1e-10


def test_generator_hermiticity_preservation(rng):
    l0 = models.random_lindblad_model(3, 2, seed=9).l0
    rho = random_hermitian(rng, 3)
    out = devectorize(l0 @ vectorize(rho))
    assert np.abs(out - out.conj().T).max() < 1e-12


def test_generator_spectrum_in_left_half_plane():
    for seed in (11, 12, 13):
        l0 = models.random_lindblad_model(4, 3, seed=seed).l0
        assert np.linalg.eigvals(l0).real.max() <= 1e-10


def test_sparse_dense_construction_agree():
    # the commutator superoperator: CSR for V, dense for L0, the same entries
    model = models.random_lindblad_model(3, 2, seed=21)
    h_v = model.couplings[0][0]
    dense = hamiltonian_superop(h_v)
    for sparse in (hamiltonian_superop(h_v, sparse=True), model.perturbation()):
        assert sp.issparse(sparse)
        assert np.abs(to_dense(sparse) - dense).max() < 1e-14


def _kron_lift(a, dim_s, vec_cols):
    """a (x) 1_S through scipy's kron, its indices reordered, then CSR."""
    m = sp.kron(a, sp.identity(dim_s * dim_s, dtype=complex), format="coo")
    order = factor_order(int(np.sqrt(a.shape[0])), dim_s)
    cols = order[m.col] if vec_cols else m.col
    return sp.csr_matrix((m.data, (order[m.row], cols)), shape=m.shape)


@pytest.mark.parametrize("vec_cols", [True, False])
def test_lift_csr_layout_matches_kron_route(vec_cols, rng):
    blocks = [(models.superradiance_model(models.SuperradianceParams(n_spins=4, g=1.0)).l_a, 5)]
    for dim_a, dim_s in ((1, 3), (2, 2), (3, 1), (4, 3)):
        a = rng.standard_normal((dim_a**2, dim_a**2, 2)) @ [1, 1j]
        a[rng.random(a.shape) < 0.4] = 0
        blocks += [(a, dim_s), (sp.csr_matrix(a.real), dim_s)]
        if not vec_cols:
            blocks.append((a[:, :1], dim_s))
    for a, dim_s in blocks:
        got, want = lift(a, dim_s, vec_cols), _kron_lift(a, dim_s, vec_cols)
        assert got.shape == want.shape and got.data.dtype == complex
        assert np.array_equal(got.data, want.data)  # kron of an all-zero block is float
        for x, y in ((got.indices, want.indices), (got.indptr, want.indptr)):
            assert x.dtype == y.dtype and np.array_equal(x, y)


def test_spec_validation_rejects_non_hermitian_hamiltonian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    spec = LindbladSpec(hdim=2, hamiltonian=bad)
    with pytest.raises(ValueError):
        spec.validate()


def test_spec_validation_rejects_negative_rate():
    jm = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    spec = LindbladSpec(hdim=2, hamiltonian=np.zeros((2, 2)), jumps=[(-0.5, jm)])
    with pytest.raises(ValueError):
        spec.validate()


def test_spec_validation_rejects_wrong_shape():
    spec = LindbladSpec(hdim=3, hamiltonian=np.zeros((2, 2)))
    with pytest.raises(DimensionMismatchError):
        spec.validate()


def test_kossakowski_of_pure_dissipator():
    # a single decay channel must give a PSD rank-one traceless block
    jp, jm, _ = spin_operators(1)
    spec = LindbladSpec(hdim=2, hamiltonian=np.zeros((2, 2)), jumps=[(0.7, jm)])
    l0 = lindblad_superop(spec)
    chi = kossakowski_matrix(l0)
    herm = 0.5 * (chi + chi.conj().T)
    eigs = np.linalg.eigvalsh(herm)
    assert eigs.min() > -1e-12
    assert np.sum(eigs > 1e-12) == 1
    assert abs(eigs.max() - 0.7) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_kossakowski_recovers_coefficients(rng, d):
    # G(rho) = sum_mn c_mn F_m rho F_n† over the traceless basis gives back c
    basis = hermitian_basis(d, traceless=True)
    n = len(basis)
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g = sum(
        c[m, k] * sandwich_superop(fm, fk.conj().T)
        for m, fm in enumerate(basis)
        for k, fk in enumerate(basis)
    )
    chi = kossakowski_matrix(g)
    assert np.abs(chi - c).max() < 1e-12
    # the contraction against the pairwise inner products it replaced
    loop = np.array([[np.vdot(np.kron(fm, fk.conj()), g) for fk in basis] for fm in basis])
    assert np.abs(chi - loop).max() < 1e-13
