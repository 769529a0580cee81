"""Biorthonormal eigensystem of a generator and the slow/fast splitting.

The slow set collects eigenvalues at zero (relative tolerance), the fast
set everything else.  Left eigenvectors are rows of the inverse of the
right-eigenvector matrix, which enforces biorthonormality and completeness
up to inversion error and avoids any eigenvector pairing ambiguity.

Two backends build the same :class:`SpectralData`.  The dense one
diagonalizes the full D x D generator.  The product one serves a
generator that acts on an ancilla factor only, L0 = L_A (x) 1_S: it
diagonalizes the d_A**2 x d_A**2 block L_A and lifts every D x D object
(eigenvectors, projectors, fast inverse) to a sparse kron with the
subsystem identity.  The model declares the factorization: it hands
``decompose`` its block L_A and the subsystem dimension; nothing about
the structure of L0 is detected from its entries.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .exceptions import DefectiveOperatorError, EmptySlowSpaceError, ZeroGapError
from .superop import compact, lift, to_csr, to_dense

DEFAULT_ZERO_TOL = 1e-9
DEFAULT_COND_LIMIT = 1e8


@dataclass(frozen=True)
class Projectors:
    p: object
    q: object
    slow_dim: int


@dataclass(frozen=True)
class SpectralData:
    """Eigensystem of L0 with the slow/fast partition, built whole.

    ``left @ right == identity`` by construction; ``gap`` is the smallest
    modulus among fast eigenvalues (+inf when the fast set is empty).
    ``backend`` is ``"dense"`` (ndarrays) or ``"product"`` (CSR matrices
    for every D x D member); ``pq`` and ``finv`` are the projectors and the
    fast inverse.
    """

    operator: object
    eigenvalues: np.ndarray
    right: object  # columns are right eigenvectors
    left: object  # rows are left eigenvectors
    slow: np.ndarray  # indices of zero modes
    fast: np.ndarray
    gap: float
    condition: float
    zero_tol: float
    pq: Projectors
    finv: object
    backend: str

    @property
    def dim(self):
        return self.eigenvalues.size

    @property
    def slow_dim(self):
        return self.slow.size


def _eig(l0, zero_tol):
    """Eigensystem of a dense generator and its zero/non-zero split."""
    w, right = np.linalg.eig(l0)
    condition = np.linalg.cond(right)
    if not np.isfinite(condition) or condition > DEFAULT_COND_LIMIT:
        raise DefectiveOperatorError(
            f"right-eigenvector condition number {condition:.3e} exceeds {DEFAULT_COND_LIMIT:.1e}"
        )
    left = np.linalg.inv(right)
    scale = max(1.0, float(np.abs(w).max(initial=0.0)))
    mods = np.abs(w)
    slow = np.flatnonzero(mods <= zero_tol * scale)
    if slow.size == 0:
        raise EmptySlowSpaceError(
            f"no eigenvalue within {zero_tol:.1e} * {scale:.3e} of zero"
        )
    fast = np.flatnonzero(mods > zero_tol * scale)
    gap = float(mods[fast].min()) if fast.size else np.inf
    return w, right, left, slow, fast, gap, float(condition)


def _split_operators(w, right, left, slow, fast, gap):
    """Slow projector, its complement and the fast inverse of one eigensystem."""
    if fast.size and gap <= 0:
        raise ZeroGapError("fast eigenvalues reach down to zero modulus")
    dim = w.size
    p = right[:, slow] @ left[slow, :]
    if fast.size == 0:
        finv = np.zeros((dim, dim), dtype=complex)
    else:
        finv = (right[:, fast] / w[fast]) @ left[fast, :]
    return p, np.eye(dim, dtype=complex) - p, finv


def decompose(l0, zero_tol=DEFAULT_ZERO_TOL, dim_s=1):
    """Diagonalize a generator and split its spectrum at zero.

    Returns the spectral data of ``l0 (x) 1_S`` for a subsystem of Hilbert
    dimension ``dim_s``: the dense backend for ``dim_s == 1``, otherwise the
    product backend, whose D x D members are CSR lifts of ``l0``'s.

    Raises
    ------
    DefectiveOperatorError
        If the right-eigenvector matrix has condition number above
        ``DEFAULT_COND_LIMIT`` (no usable biorthonormal system).
    EmptySlowSpaceError
        If no eigenvalue is classified as zero; either ``zero_tol`` is too
        small or the input is not a trace-preserving generator.
    """
    l0 = to_dense(l0)
    w, right, left, slow, fast, gap, condition = _eig(l0, zero_tol)
    p, q, finv = _split_operators(w, right, left, slow, fast, gap)
    n = dim_s * dim_s

    def lifted(a, vec_rows=True, vec_cols=True):
        return a if n == 1 else lift(a, dim_s, vec_rows, vec_cols)

    # eigenvector k of l0 lifts to the n eigenvectors k * n + (subsystem pair)
    full_slow = (slow[:, None] * n + np.arange(n)).ravel()
    return SpectralData(
        operator=lifted(l0),
        eigenvalues=np.repeat(w, n),
        right=lifted(right, vec_cols=False),
        left=lifted(left, vec_rows=False),
        slow=full_slow,
        fast=(fast[:, None] * n + np.arange(n)).ravel(),
        gap=gap,
        condition=condition,
        zero_tol=zero_tol,
        pq=Projectors(p=lifted(p), q=lifted(q), slow_dim=full_slow.size),
        finv=lifted(finv),
        backend="dense" if n == 1 else "product",
    )


def as_operand(sd, a):
    """A superoperator in the storage of sd's backend.

    Dense on the dense backend; CSR on the product backend unless it is as
    full as ``superop.SPARSE_FILL_THRESHOLD`` (see ``superop.compact``).
    """
    return compact(to_csr(a)) if sd.backend == "product" else to_dense(a)


def projectors(sd):
    """Spectral projectors P (slow) and Q = 1 - P; generally non-orthogonal."""
    return sd.pq


def fast_inverse(sd):
    """Inverse of L0 restricted to the fast space, zero on the slow space."""
    return sd.finv


def resolvent_apply(sd, a):
    """Invert the block-off-diagonal action of L0 on a superoperator.

    Returns Q L0inv A P - P A L0inv Q; for block-off-diagonal X this is the
    unique block-off-diagonal solution of [solution, L0] = A.
    """
    p = sd.pq.p
    return compact(sd.finv @ (a @ p) - (p @ a) @ sd.finv)


def eigen_blocks(sd, a):
    """Blocks of a superoperator in the eigenbasis coordinates.

    Returns (a_pp, a_pq, a_qp, a_qq) with a_pq the slow-row/fast-column
    block ⟨l_slow| A |r_fast⟩ and so on.
    """
    a = as_operand(sd, a)
    ls, lf = sd.left[sd.slow, :], sd.left[sd.fast, :]
    rs, rf = sd.right[:, sd.slow], sd.right[:, sd.fast]
    return tuple(to_dense(x) for x in (ls @ a @ rs, ls @ a @ rf, lf @ a @ rs, lf @ a @ rf))


def spectral_norm(a):
    """Largest singular value, for dense or sparse input."""
    if sp.issparse(a):
        if min(a.shape) <= 2 or a.nnz == 0:
            return spectral_norm(to_dense(a))
        return float(spla.svds(a.astype(complex), k=1, return_singular_vectors=False)[0])
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


@dataclass
class GapReport:
    gap: float
    perturbation_norm: float
    epsilon: float
    ok: bool


def check_perturbative_limit(sd, v, epsilon):
    """Check the gap condition gap > 2 * epsilon * ||V|| (spectral norm)."""
    norm = spectral_norm(v)
    return GapReport(
        gap=sd.gap,
        perturbation_norm=norm,
        epsilon=float(epsilon),
        ok=bool(sd.gap > 2.0 * abs(epsilon) * norm),
    )
