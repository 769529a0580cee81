"""Finite-dimensional operator construction: spin ladders, tensor products."""

import numpy as np


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


def hermitian_basis(dim, traceless=True):
    """Orthonormal Hermitian basis under the Hilbert-Schmidt inner product.

    With ``traceless=True`` returns the dim**2 - 1 generalized Gell-Mann
    matrices; otherwise prepends the normalized identity.
    """
    basis = []
    if not traceless:
        basis.append(np.eye(dim, dtype=complex) / np.sqrt(dim))
    for k in range(1, dim):
        d = np.zeros(dim, dtype=complex)
        d[:k] = 1.0
        d[k] = -k
        basis.append(np.diag(d) / np.sqrt(k * (k + 1)))
    for i in range(dim):
        for j in range(i + 1, dim):
            sym = np.zeros((dim, dim), dtype=complex)
            sym[i, j] = sym[j, i] = 1.0 / np.sqrt(2)
            basis.append(sym)
            asym = np.zeros((dim, dim), dtype=complex)
            asym[i, j] = -1j / np.sqrt(2)
            asym[j, i] = 1j / np.sqrt(2)
            basis.append(asym)
    return basis
