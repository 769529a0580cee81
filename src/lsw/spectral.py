"""Biorthonormal eigensystem of a generator and the slow/fast splitting.

The slow set collects eigenvalues at zero (relative tolerance), the fast
set everything else.  Left eigenvectors are rows of the inverse of the
right-eigenvector matrix, which enforces biorthonormality and completeness
up to inversion error and avoids any eigenvector pairing ambiguity.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .exceptions import DefectiveOperatorError, EmptySlowSpaceError, ZeroGapError
from .superop import to_dense

DEFAULT_ZERO_TOL = 1e-9
DEFAULT_COND_LIMIT = 1e8


@dataclass
class SpectralData:
    """Eigensystem of L0 with the slow/fast partition.

    ``left @ right == identity`` by construction; ``gap`` is the smallest
    modulus among fast eigenvalues (+inf when the fast set is empty).
    """

    operator: np.ndarray
    eigenvalues: np.ndarray
    right: np.ndarray  # columns are right eigenvectors
    left: np.ndarray  # rows are left eigenvectors
    slow: np.ndarray  # indices of zero modes
    fast: np.ndarray
    gap: float
    condition: float
    zero_tol: float
    _pq: "Projectors" = field(default=None, repr=False)  # assigned once, whole
    _finv: np.ndarray = field(default=None, repr=False)

    @property
    def dim(self):
        return self.eigenvalues.size

    @property
    def slow_dim(self):
        return self.slow.size


@dataclass
class Projectors:
    p: np.ndarray
    q: np.ndarray
    slow_dim: int


def decompose(l0, zero_tol=DEFAULT_ZERO_TOL, cond_limit=DEFAULT_COND_LIMIT):
    """Diagonalize a generator and split its spectrum at zero.

    Raises
    ------
    DefectiveOperatorError
        If the right-eigenvector matrix has condition number above
        ``cond_limit`` (no usable biorthonormal system).
    EmptySlowSpaceError
        If no eigenvalue is classified as zero; either ``zero_tol`` is too
        small or the input is not a trace-preserving generator.
    """
    l0 = to_dense(l0)
    w, right = np.linalg.eig(l0)
    condition = np.linalg.cond(right)
    if not np.isfinite(condition) or condition > cond_limit:
        raise DefectiveOperatorError(
            f"right-eigenvector condition number {condition:.3e} exceeds {cond_limit:.1e}"
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
    return SpectralData(
        operator=l0,
        eigenvalues=w,
        right=right,
        left=left,
        slow=slow,
        fast=fast,
        gap=gap,
        condition=float(condition),
        zero_tol=zero_tol,
    )


def projectors(sd):
    """Spectral projectors P (slow) and Q = 1 - P; generally non-orthogonal."""
    if sd._pq is None:
        p = sd.right[:, sd.slow] @ sd.left[sd.slow, :]
        sd._pq = Projectors(p=p, q=np.eye(sd.dim, dtype=complex) - p, slow_dim=sd.slow_dim)
    return sd._pq


def fast_inverse(sd):
    """Inverse of L0 restricted to the fast space, zero on the slow space."""
    if sd._finv is None:
        if sd.fast.size and sd.gap <= 0:
            raise ZeroGapError("fast eigenvalues reach down to zero modulus")
        if sd.fast.size == 0:
            sd._finv = np.zeros((sd.dim, sd.dim), dtype=complex)
        else:
            sd._finv = (sd.right[:, sd.fast] / sd.eigenvalues[sd.fast]) @ sd.left[sd.fast, :]
    return sd._finv


def resolvent_apply(sd, a):
    """Invert the block-off-diagonal action of L0 on a superoperator.

    Returns Q L0inv A P - P A L0inv Q; for block-off-diagonal X this is the
    unique block-off-diagonal solution of [solution, L0] = A.
    """
    pq = projectors(sd)
    finv = fast_inverse(sd)
    a = np.asarray(a)
    return finv @ (a @ pq.p) - (pq.p @ a) @ finv


def eigen_blocks(sd, a):
    """Blocks of a superoperator in the eigenbasis coordinates.

    Returns (a_pp, a_pq, a_qp, a_qq) with a_pq the slow-row/fast-column
    block ⟨l_slow| A |r_fast⟩ and so on.
    """
    a = to_dense(a)
    ls, lf = sd.left[sd.slow, :], sd.left[sd.fast, :]
    rs, rf = sd.right[:, sd.slow], sd.right[:, sd.fast]
    return ls @ a @ rs, ls @ a @ rf, lf @ a @ rs, lf @ a @ rf


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
