"""Vectorization and superoperator assembly for Markovian generators.

Row-stacking convention throughout: the component i*d + j of vec(rho) is
rho[i, j], so the map rho -> A rho B has matrix kron(A, B.T).
"""

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .exceptions import DimensionMismatchError, ValidationError
from .operators import hermitian_basis

# superoperators denser than this are stored dense (entries scale as d**4)
SPARSE_FILL_THRESHOLD = 0.1
# and so are those with at most this many entries (64 x 64), however sparse:
# on superradiance sectors at order 3 (one BLAS thread) dense blocks ran the
# engine at N=16 (blocks up to 49 x 49) in 0.7 ms against 3.6 ms by fill
# alone, while a limit of 16384 made N=64 and N=100 (blocks from 65 x 65)
# 2.8 and 3.5 times slower: dense products lose the sparsity the terms keep
DENSE_ENTRIES = 4096
HERM_TOL = 1e-12  # largest entry of H - H^dag accepted for a Hermitian operator


def vectorize(rho):
    """Row-stack an operator into a length-d**2 vector."""
    return np.asarray(rho, dtype=complex).reshape(-1)


def devectorize(v):
    """Inverse of :func:`vectorize`."""
    v = np.asarray(v)
    d = math.isqrt(v.size)
    if d * d != v.size:
        raise DimensionMismatchError(f"vector of length {v.size} is not a square operator")
    return v.reshape(d, d)


def to_dense(m):
    return m.toarray() if sp.issparse(m) else np.asarray(m)


def to_csr(m):
    return m.tocsr() if sp.issparse(m) else sp.csr_matrix(m)


def all_finite(m):
    """Whether every stored entry of m, dense or sparse, is finite."""
    return bool(np.isfinite(m.data if sp.issparse(m) else m).all())


def compact(m):
    """m in the cheaper storage for products: dense once it is as full as
    ``SPARSE_FILL_THRESHOLD``, since sparse products of full matrices cost
    far more than dense ones, or once it has at most ``DENSE_ENTRIES``
    entries, where a sparse product's overhead outweighs its savings."""
    size = m.shape[0] * m.shape[1]
    if sp.issparse(m) and (size <= DENSE_ENTRIES or m.nnz / size >= SPARSE_FILL_THRESHOLD):
        return m.toarray()
    return m


def factor_order(dim_a, dim_s):
    """Row-stacked operators on A (x) S reordered with the ancilla pair outer.

    Entry ((i * dim_a + j) * dim_s + a) * dim_s + b is the vec index of
    |i a><j b|.  In this order a generator acting on the ancilla only is
    L_A (x) 1, block by block.
    """
    i, j, a, b = np.unravel_index(
        np.arange((dim_a * dim_s) ** 2), (dim_a, dim_a, dim_s, dim_s)
    )
    return (i * dim_s + a) * dim_a * dim_s + j * dim_s + b


def row_entries(m, rows):
    """(i, column, value) of every stored entry of row ``rows[i]`` of CSR m,
    row by row in stored order."""
    counts = np.diff(m.indptr)[rows]
    first = np.cumsum(counts) - counts
    src = np.arange(counts.sum()) + np.repeat(m.indptr[rows] - first, counts)
    return np.repeat(np.arange(rows.size), counts), m.indices[src], m.data[src]


def lift(a, dim_s, vec_cols=True):
    """a (x) 1_S as CSR, for a block a on the ancilla pair of A (x) S.

    The kron with the identity on the dim_s**2 subsystem pairs lists every
    index in :func:`factor_order`; rows, and columns if ``vec_cols``, are
    mapped back to row-stacked vec indices.  Built from a's nonzeros
    directly: kron row r * n + p (n = dim_s**2) holds row r of a at kron
    columns c * n + p, and for a fixed pair p both orders increase with c,
    so each row keeps a's sorted columns.
    """
    a = sp.csr_matrix(a, dtype=complex, copy=True)
    a.sum_duplicates()
    n = dim_s * dim_s
    order = factor_order(math.isqrt(a.shape[0]), dim_s)
    kron_row = np.empty(a.shape[0] * n, dtype=int)  # the kron row that each output row holds
    kron_row[order] = np.arange(kron_row.size)
    rows, pairs = np.divmod(kron_row, n)
    out_row, cols, data = row_entries(a, rows)
    cols = cols * n + pairs[out_row]
    if vec_cols:
        cols = order[cols]
    indptr = np.concatenate(([0], np.cumsum(np.diff(a.indptr)[rows])))
    shape = (a.shape[0] * n, a.shape[1] * n)
    return sp.csr_matrix((data, cols, indptr), shape=shape)


def _kron(a, b, sparse=False):
    if sparse:
        return sp.kron(sp.csr_matrix(a), sp.csr_matrix(b), format="csr")
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def sandwich_superop(a, b):
    """Matrix of the map rho -> A rho B, dense."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"sandwich factors {a.shape} vs {b.shape}")
    return _kron(a, b.T)


def hamiltonian_superop(h, sparse=False):
    """Matrix of the commutator generator rho -> -i [H, rho], CSR when
    ``sparse`` (the perturbation V), dense otherwise."""
    h = np.asarray(h, dtype=complex)
    eye = np.eye(h.shape[0])
    return -1j * (_kron(h, eye, sparse) - _kron(eye, h.T, sparse))


def dissipator_superop(l):
    """Matrix of rho -> L rho L† - (1/2){L†L, rho}, dense."""
    l = np.asarray(l, dtype=complex)
    eye = np.eye(l.shape[0])
    ldl = l.conj().T @ l
    return _kron(l, l.conj()) - 0.5 * _kron(ldl, eye) - 0.5 * _kron(eye, ldl.T)


def hat_apply(generator, target):
    """Commutator map attached to a superoperator: returns [target, generator].

    This is the matrix the decoupling recursion composes; both arguments are
    superoperator matrices of equal shape, dense or sparse.
    """
    if generator.shape != target.shape:
        raise DimensionMismatchError(
            f"hat_apply on shapes {generator.shape} vs {target.shape}"
        )
    return compact(target @ generator - generator @ target)


def trace_functional(d):
    """Row vector representing Tr(.) on vectorized operators (vec of identity)."""
    return vectorize(np.eye(d))


@dataclass
class LindbladSpec:
    """Defining data of an unperturbed generator L0; perturbations belong to
    ``qrt.AncillaModel``."""

    hdim: int
    hamiltonian: np.ndarray
    jumps: Sequence = field(default_factory=list)  # (rate, operator) pairs

    def validate(self):
        d = self.hdim
        h = np.asarray(self.hamiltonian)
        if h.shape != (d, d):
            raise DimensionMismatchError(f"hamiltonian has shape {h.shape}, expected ({d}, {d})")
        if np.max(np.abs(h - h.conj().T)) > HERM_TOL:
            raise ValidationError(f"hamiltonian is not Hermitian to {HERM_TOL}")
        for i, (rate, l) in enumerate(self.jumps):
            if rate < 0:
                raise ValidationError(f"jump {i} has negative rate {rate}")
            if np.asarray(l).shape != (d, d):
                raise DimensionMismatchError(f"jump operator {i} has wrong shape")
        return self


def lindblad_superop(spec):
    """The dense L0 of a :class:`LindbladSpec`: -i[H0, .] plus every jump term."""
    spec.validate()
    l0 = hamiltonian_superop(spec.hamiltonian)
    for rate, l in spec.jumps:
        l0 = l0 + rate * dissipator_superop(l)
    return l0


def kossakowski_matrix(g):
    """Coefficient matrix of a generator over the traceless Hermitian basis.

    Writing G(rho) = sum_mn chi_mn F_m rho F_n† over an orthonormal operator
    basis {F_0 = 1/sqrt(d), F_1, ...}, returns the (d**2-1)-dimensional
    traceless block of chi.  For a generator in standard dissipative form
    this block is Hermitian and positive semidefinite; its smallest
    eigenvalue is the structural diagnostic reported by the CLI.
    """
    g = to_dense(g)
    d = math.isqrt(g.shape[0])
    f = np.array(hermitian_basis(d, traceless=True)).reshape(-1, d, d)
    # chi_ij = <F_i (x) conj(F_j), G>, one contraction over the four indices of G
    return np.einsum("iac,jbd,abcd->ij", f.conj(), f, g.reshape(d, d, d, d), optimize=True)
