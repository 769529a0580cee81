"""Finite-dimensional operator construction: spin ladders, tensor products."""

import numpy as np
import scipy.sparse as sp


def spin_operators(two_j):
    """Return the ladder and z operators (J+, J-, Jz) for spin j = two_j/2.

    The basis is ordered from highest to lowest magnetic quantum number,
    so the fully polarized state |j, m=j> is the first basis vector.
    Conventions: Jz|m> = m|m>, J±|m> = sqrt(j(j+1) - m(m±1)) |m±1>.

    Parameters
    ----------
    two_j : int
        Twice the spin quantum number (0, 1, 2, ...).

    Returns
    -------
    (jplus, jminus, jz) : complex ndarrays of shape (two_j+1, two_j+1)
    """
    two_j = int(two_j)
    if two_j < 0:
        raise ValueError("two_j must be a nonnegative integer")
    dim = two_j + 1
    j = two_j / 2.0
    m = j - np.arange(dim)
    jz = np.diag(m).astype(complex)
    jplus = np.zeros((dim, dim), dtype=complex)
    if dim > 1:
        lower = m[1:]  # raising |m> -> |m+1> moves column k to row k-1
        jplus[np.arange(dim - 1), np.arange(1, dim)] = np.sqrt(
            j * (j + 1) - lower * (lower + 1)
        )
    jminus = jplus.conj().T
    return jplus, jminus, jz


def tensor(*ops):
    """Kronecker product with the first factor's index slowest.

    The convention is fixed package-wide: in bipartite models the ancilla
    (first) factor is the slow index.
    """
    if not ops:
        raise ValueError("tensor() needs at least one operator")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def hermitian_frame(dim):
    """The orthonormal Hermitian basis of :func:`hermitian_basis` as the rows
    of a sparse dim**2 x dim**2 CSR matrix of row-stacked operators, in its
    one order: the normalized identity, the dim - 1 diagonal generalized
    Gell-Mann matrices, then for each i < j the symmetric and the
    antisymmetric one.  Diagonal row k > 0 has k + 1 nonzeros, the identity
    dim, every other row 2.  The matrix is unitary.
    """
    k = np.arange(dim)
    width = np.where(k > 0, k + 1, dim)
    row = np.repeat(k, width)
    level = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width)
    kr = k[row]  # row k > 0 holds 1, ..., 1, -k over sqrt(k (k + 1))
    numer = np.where((kr > 0) & (level == kr), -kr, 1)
    denom = np.where(kr > 0, np.sqrt(kr * (kr + 1.0)), np.sqrt(dim))
    i, j = np.triu_indices(dim, 1)
    r = dim + 2 * np.arange(i.size)
    rows = np.concatenate((row, np.stack((r, r, r + 1, r + 1), 1).ravel()))
    pair = (i * dim + j, j * dim + i)
    cols = np.concatenate((level * (dim + 1), np.stack(pair * 2, 1).ravel()))
    numer = np.concatenate((numer, np.tile([1, 1, -1j, 1j], i.size)))
    denom = np.concatenate((denom, np.full(4 * i.size, np.sqrt(2))))
    # numpy's complex-over-real division: the same bits as scaling each dense
    # basis matrix by its norm, the -0.0 real part of -1j / sqrt(2) included
    return sp.csr_matrix((numer / denom, (rows, cols)), shape=(dim * dim, dim * dim))


def hermitian_basis(dim, traceless=True):
    """Orthonormal Hermitian basis under the Hilbert-Schmidt inner product,
    the rows of :func:`hermitian_frame` as dense matrices.

    With ``traceless=True`` returns the dim**2 - 1 generalized Gell-Mann
    matrices; otherwise prepends the normalized identity.
    """
    frame = hermitian_frame(dim).tocoo()
    dense = np.zeros(frame.shape, dtype=complex)
    dense[frame.row, frame.col] = frame.data  # assigned, not summed as by toarray: -0.0 stays
    return list(dense.reshape(-1, dim, dim)[int(traceless) :])
