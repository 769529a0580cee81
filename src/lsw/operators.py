"""Finite-dimensional operator construction: spin ladders, tensor products."""

import numpy as np

from .superop import from_entries


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


def frame_parts(dim):
    """The two kinds of row of :func:`hermitian_frame`, for applying it by
    index arithmetic: rows 0 to dim - 1 (the normalized identity and the
    diagonal generalized Gell-Mann matrices) as a real dim x dim block over
    the diagonal components k (dim + 1), and the pairs i < j
    (``np.triu_indices``) of rows dim + 2 p, (e_ij + e_ji) / sqrt2, and
    dim + 2 p + 1, (-i e_ij + i e_ji) / sqrt2.  Row k > 0 of the block holds
    1, ..., 1, -k over sqrt(k (k + 1)), row 0 is 1 / sqrt(dim)."""
    k = np.arange(dim)
    width = np.where(k > 0, k + 1, dim)
    row = np.repeat(k, width)
    level = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width)
    kr = k[row]
    numer = np.where((kr > 0) & (level == kr), -kr, 1)
    denom = np.where(kr > 0, np.sqrt(kr * (kr + 1.0)), np.sqrt(dim))
    i, j = np.triu_indices(dim, 1)
    block = np.zeros((dim, dim))  # dense at any size: at most d_A**2 entries
    # times the reciprocal, as numpy's complex division scales: the bits of
    # each dense basis matrix divided by its norm
    block[row, level] = numer * (1 / denom)
    return block, i, j


def _frame_entries(dim):
    """(data, rows, cols) of :func:`hermitian_frame`, row by row."""
    block, i, j = frame_parts(dim)
    row, level = np.nonzero(block)
    r = dim + 2 * np.arange(i.size)
    rows = np.concatenate((row, np.stack((r, r, r + 1, r + 1), 1).ravel()))
    pair = (i * dim + j, j * dim + i)
    cols = np.concatenate((level * (dim + 1), np.stack(pair * 2, 1).ravel()))
    # numpy's complex-over-real division, as for the block: the -0.0 real
    # part of -1j / sqrt(2) included
    pairs = np.tile([1, 1, -1j, 1j], i.size) / np.full(4 * i.size, np.sqrt(2))
    return np.concatenate((block[row, level], pairs)), rows, cols


def hermitian_frame(dim):
    """The orthonormal Hermitian basis of :func:`hermitian_basis` as the rows
    of a dim**2 x dim**2 matrix of row-stacked operators, stored by
    ``superop.from_entries`` (dense up to its limit, CSR above), in its one
    order (:func:`frame_parts`): the normalized identity, the dim - 1
    diagonal generalized Gell-Mann matrices, then for each i < j the
    symmetric and the antisymmetric one.  Diagonal row k > 0 has k + 1
    nonzeros, the identity dim, every other row 2.  The matrix is unitary.
    """
    return from_entries(*_frame_entries(dim), (dim * dim, dim * dim))


def hermitian_basis(dim, traceless=True):
    """Orthonormal Hermitian basis under the Hilbert-Schmidt inner product,
    the rows of :func:`hermitian_frame` as dense matrices.

    With ``traceless=True`` returns the dim**2 - 1 generalized Gell-Mann
    matrices; otherwise prepends the normalized identity.
    """
    data, rows, cols = _frame_entries(dim)
    dense = np.zeros((dim**4,), dtype=complex)
    dense[rows * dim * dim + cols] = data  # assigned, not summed from +0.0: -0.0 stays
    return list(dense.reshape(-1, dim, dim)[int(traceless) :])
