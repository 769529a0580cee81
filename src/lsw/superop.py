"""Vectorization and superoperator assembly for Markovian generators.

Row-stacking convention throughout: the component i*d + j of vec(rho) is
rho[i, j], so the map rho -> A rho B has matrix kron(A, B.T).
"""

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .exceptions import DimensionMismatchError
from .operators import hermitian_basis

# superoperators denser than this are stored dense (entries scale as d**4)
SPARSE_FILL_THRESHOLD = 0.1
# Hilbert dimensions with d**2 above this default to sparse assembly
SPARSE_AUTO_DIM = 1024


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


def fill_ratio(m):
    if sp.issparse(m):
        return m.nnz / (m.shape[0] * m.shape[1])
    m = np.asarray(m)
    return np.count_nonzero(m) / m.size


def _kron(a, b, sparse):
    if sparse:
        return sp.kron(sp.csr_matrix(a), sp.csr_matrix(b), format="csr")
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def sandwich_superop(a, b, sparse=False):
    """Matrix of the map rho -> A rho B."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"sandwich factors {a.shape} vs {b.shape}")
    return _kron(a, b.T, sparse)


def hamiltonian_superop(h, sparse=False):
    """Matrix of the commutator generator rho -> -i [H, rho]."""
    h = np.asarray(h, dtype=complex)
    eye = np.eye(h.shape[0])
    return -1j * (_kron(h, eye, sparse) - _kron(eye, h.T, sparse))


def dissipator_superop(l, sparse=False):
    """Matrix of rho -> L rho L† - (1/2){L†L, rho}."""
    l = np.asarray(l, dtype=complex)
    eye = np.eye(l.shape[0])
    ldl = l.conj().T @ l
    return (
        _kron(l, l.conj(), sparse)
        - 0.5 * _kron(ldl, eye, sparse)
        - 0.5 * _kron(eye, ldl.T, sparse)
    )


def hat_apply(generator, target):
    """Commutator map attached to a superoperator: returns [target, generator].

    This is the matrix the decoupling recursion composes; both arguments are
    superoperator matrices of equal shape.
    """
    generator = np.asarray(generator)
    target = np.asarray(target)
    if generator.shape != target.shape:
        raise DimensionMismatchError(
            f"hat_apply on shapes {generator.shape} vs {target.shape}"
        )
    return target @ generator - generator @ target


def trace_functional(d):
    """Row vector representing Tr(.) on vectorized operators (vec of identity)."""
    return vectorize(np.eye(d))


@dataclass
class LindbladSpec:
    """Defining data of a generator L0 plus a Hamiltonian perturbation V.

    The perturbation prefactor ``epsilon`` is metadata only; it is never
    folded into the assembled V so that one V serves whole epsilon scans.
    """

    hdim: int
    hamiltonian: np.ndarray
    jumps: Sequence = field(default_factory=list)  # (rate, operator) pairs
    perturbations: Sequence = field(default_factory=list)  # Hamiltonian terms of V
    epsilon: float = 1.0

    def validate(self, herm_tol=1e-12):
        d = self.hdim
        ops = [("hamiltonian", self.hamiltonian)] + [
            (f"perturbation {i}", h) for i, h in enumerate(self.perturbations)
        ]
        for name, h in ops:
            h = np.asarray(h)
            if h.shape != (d, d):
                raise DimensionMismatchError(f"{name} has shape {h.shape}, expected ({d}, {d})")
            if np.max(np.abs(h - h.conj().T)) > herm_tol:
                raise ValueError(f"{name} is not Hermitian to {herm_tol}")
        for i, (rate, l) in enumerate(self.jumps):
            if rate < 0:
                raise ValueError(f"jump {i} has negative rate {rate}")
            if np.asarray(l).shape != (d, d):
                raise DimensionMismatchError(f"jump operator {i} has wrong shape")
        return self


def lindblad_superop(spec, sparse="auto"):
    """Assemble (L0, V) from a :class:`LindbladSpec`.

    L0 collects all jump terms and -i[H0, .]; V is the sum of -i[H_t, .]
    over the perturbation Hamiltonians, without the epsilon prefactor.
    Storage is sparse when requested, or under the auto policy when the
    superoperator is both large and sufficiently empty.
    """
    spec.validate()
    d = spec.hdim
    want_sparse = bool(sparse) if sparse != "auto" else d * d > SPARSE_AUTO_DIM
    l0 = hamiltonian_superop(spec.hamiltonian, want_sparse)
    for rate, l in spec.jumps:
        l0 = l0 + rate * dissipator_superop(l, want_sparse)
    if spec.perturbations:
        v = sum(hamiltonian_superop(h, want_sparse) for h in spec.perturbations)
    else:
        shape = (d * d, d * d)
        v = sp.csr_matrix(shape, dtype=complex) if want_sparse else np.zeros(shape, complex)
    if sparse == "auto" and want_sparse:
        if fill_ratio(l0) >= SPARSE_FILL_THRESHOLD:
            l0 = to_dense(l0)
        if fill_ratio(v) >= SPARSE_FILL_THRESHOLD:
            v = to_dense(v)
    return l0, v


def kossakowski_matrix(g):
    """Coefficient matrix of a generator over the traceless Hermitian basis.

    Writing G(rho) = sum_mn chi_mn F_m rho F_n† over an orthonormal operator
    basis {F_0 = 1/sqrt(d), F_1, ...}, returns the (d**2-1)-dimensional
    traceless block of chi.  For a generator in standard dissipative form
    this block is Hermitian and positive semidefinite; its smallest
    eigenvalue is the structural diagnostic reported by the CLI.
    """
    g = to_dense(g)
    dsq = g.shape[0]
    d = math.isqrt(dsq)
    basis = hermitian_basis(d, traceless=True)
    n = len(basis)
    chi = np.empty((n, n), dtype=complex)
    for i, fi in enumerate(basis):
        for j, fj in enumerate(basis):
            chi[i, j] = np.vdot(np.kron(fi, fj.conj()), g)
    return chi
