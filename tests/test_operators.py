import numpy as np
import pytest

from lsw.operators import (
    hermitian_basis,
    hermitian_frame,
    spin_operators,
    tensor,
)


def test_spin_half_matrices():
    jp, jm, jz = spin_operators(1)
    assert np.array_equal(jz, np.diag([0.5, -0.5]))
    assert np.array_equal(jp, np.array([[0, 1], [0, 0]], dtype=complex))
    assert np.array_equal(jm, jp.conj().T)


def test_spin_half_commutator_exact():
    jp, jm, jz = spin_operators(1)
    assert np.array_equal(jp @ jm - jm @ jp, 2 * jz)


def test_spin_two_ladder_product_diagonal():
    # j = 2: diagonal of J+J- is j(j+1) - m(m-1) for m = 2..-2
    jp, jm, _ = spin_operators(4)
    expected = np.array([4.0, 6.0, 6.0, 4.0, 0.0])
    assert np.allclose(np.diag(jp @ jm).real, expected, atol=1e-12)


@pytest.mark.parametrize("two_j", [0, 1, 2, 3, 5, 9])
def test_su2_commutators(two_j):
    jp, jm, jz = spin_operators(two_j)
    assert np.abs((jz @ jp - jp @ jz) - jp).max() < 1e-12
    assert np.abs((jz @ jm - jm @ jz) + jm).max() < 1e-12
    assert np.abs((jp @ jm - jm @ jp) - 2 * jz).max() < 1e-12


def test_tensor_identity():
    assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_ladder_action():
    jp, jm, _ = spin_operators(1)
    up = np.array([1, 0], dtype=complex)
    dn = np.array([0, 1], dtype=complex)
    state = np.kron(dn, up)  # |down> x |up>
    flipped = tensor(jp, jm) @ state
    assert np.allclose(flipped, np.kron(up, dn), atol=1e-15)


def test_tensor_mixed_product(rng):
    a, b, c, d = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(4))
    lhs = tensor(a, b) @ tensor(c, d)
    rhs = tensor(a @ c, b @ d)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_tensor_associative_exact(rng):
    # integer entries keep every product exactly representable
    a, b, c = (rng.integers(-9, 9, size=(2, 2)).astype(float) for _ in range(3))
    assert np.array_equal(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))
    x, y, z = (rng.standard_normal((2, 2)) for _ in range(3))
    assert np.abs(tensor(tensor(x, y), z) - tensor(x, tensor(y, z))).max() < 1e-15


def test_hermitian_basis_orthonormal():
    basis = hermitian_basis(3, traceless=True)
    assert len(basis) == 8
    for i, fi in enumerate(basis):
        assert np.abs(fi - fi.conj().T).max() < 1e-14
        assert abs(np.trace(fi)) < 1e-14
        for j, fj in enumerate(basis):
            expected = 1.0 if i == j else 0.0
            assert abs(np.trace(fi.conj().T @ fj) - expected) < 1e-13


def loop_built_basis(dim):
    """The normalized identity, the diagonal and the off-diagonal generalized
    Gell-Mann matrices, built one dense matrix at a time."""
    basis = [np.eye(dim, dtype=complex) / np.sqrt(dim)]
    for k in range(1, dim):
        d = np.zeros(dim, dtype=complex)
        d[:k] = 1.0
        d[k] = -k
        basis.append(np.diag(d) / np.sqrt(k * (k + 1)))
    for i in range(dim):
        for j in range(i + 1, dim):
            sym = np.zeros((dim, dim), dtype=complex)
            sym[i, j] = sym[j, i] = 1.0 / np.sqrt(2)
            asym = np.zeros((dim, dim), dtype=complex)
            asym[i, j] = -1j / np.sqrt(2)
            asym[j, i] = 1j / np.sqrt(2)
            basis += [sym, asym]
    return np.array(basis)


@pytest.mark.parametrize("dim", range(1, 10))
def test_hermitian_frame_is_the_dense_basis(dim):
    # the sparse frame holds the dense basis row by row, and the dense basis
    # keeps every bit of the loop-built one, signs of zeros included
    frame = hermitian_frame(dim)
    dense = np.array(hermitian_basis(dim, traceless=False)).reshape(dim * dim, dim * dim)
    assert np.array_equal(frame.toarray(), dense)
    assert np.diff(frame.indptr).max() == max(dim, 2 if dim > 1 else 1)
    want = loop_built_basis(dim)
    assert np.array_equal(dense.view(np.uint64), want.reshape(dim * dim, -1).view(np.uint64))
    traceless = hermitian_basis(dim, traceless=True)
    assert len(traceless) == dim * dim - 1
    assert all(np.array_equal(a.view(np.uint64), b.view(np.uint64)) for a, b in zip(traceless, want[1:]))
