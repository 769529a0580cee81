"""Biorthonormal eigensystem of a generator and the slow/fast splitting.

The slow set collects eigenvalues at zero (relative tolerance), the fast
set everything else.  Left eigenvectors are rows of the inverse of the
right-eigenvector matrix, which enforces biorthonormality and completeness
up to inversion error and avoids any eigenvector pairing ambiguity.

Two backends build the same :class:`SpectralData`.  The dense reference,
:func:`decompose`, diagonalizes a full D x D generator; on L_A alone it is
all the CLI's ``spectrum`` needs, since L0 = L_A (x) 1_S repeats each of
L_A's eigenvalues d_S**2 times.  The structured one, :class:`AncillaBasis`
(:func:`charge_sector` for order 0), serves L0 = L_A (x) 1_S as the model
declares it: it diagonalizes the block L_A once and builds coherence-order
sectors (the whole space for trivial charges) from the model's operators,
with V's blocks and sparse vec-space eigenvectors R_k (x) |a><b|.  In
eigen coordinates the slow/fast split is the four blocks of :func:`blocks`,
joined by :func:`assemble`, and the fast inverse scales a block's rows or
columns (:func:`scaled`).  This is the one split: the recursion in
:mod:`lsw.sw` runs on it, and the full-space wrappers
(:func:`resolvent_apply`, ``sw.split_blocks``) are built on it.

This module is the one place coherence-order sectors are built: the same
:meth:`AncillaBasis.block` also runs in L_A's own basis |i><j|
(:meth:`AncillaBasis.vec`), for propagation (the CLI's ``evolve``).
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import superop
from .exceptions import (
    DefectiveOperatorError,
    EmptySlowSpaceError,
    MixedChargeError,
    ToleranceNotMetError,
    ValidationError,
)
from .superop import all_finite, compact, row_entries, to_csr, to_dense

DEFAULT_ZERO_TOL = 1e-9
DEFAULT_COND_LIMIT = 1e8


@dataclass(frozen=True)
class Projectors:
    p: object
    q: object


@dataclass(frozen=True)
class SpectralData:
    """Eigensystem of L0 with the slow/fast partition.

    ``left @ right == identity`` by construction; ``gap`` is the smallest
    modulus among fast eigenvalues (+inf when the fast set is empty).
    ``right`` is D x m and ``left`` m x D for m coordinates: ndarrays on the
    ``"dense"`` backend (m = D), CSC and CSR on the ``"sector"`` one.
    ``l0_eigen``, ``left @ L0 @ right``, is diag(eigenvalues) up to rounding.
    """

    l0_eigen: object
    eigenvalues: np.ndarray
    right: object  # columns are right eigenvectors
    left: object  # rows are left eigenvectors
    slow: np.ndarray  # indices of zero modes
    fast: np.ndarray
    gap: float
    condition: float
    zero_tol: float
    backend: str

    @property
    def dim(self):
        return self.eigenvalues.size

    @property
    def slow_dim(self):
        return self.slow.size


def decompose(l0, zero_tol=DEFAULT_ZERO_TOL):
    """Diagonalize a dense generator and split its spectrum at zero: the
    dense reference backend.  Raises DefectiveOperatorError when the
    right-eigenvector condition number exceeds ``DEFAULT_COND_LIMIT``, and
    EmptySlowSpaceError when no eigenvalue is zero to ``zero_tol`` (the
    tolerance is too small, or L0 is not trace preserving)."""
    l0 = to_dense(l0)
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
    return SpectralData(
        l0_eigen=left @ l0 @ right,
        eigenvalues=w,
        right=right,
        left=left,
        slow=slow,
        fast=fast,
        gap=float(mods[fast].min()) if fast.size else np.inf,
        condition=float(condition),
        zero_tol=zero_tol,
        backend="dense",
    )


@dataclass(frozen=True)
class ChargeSector:
    """One coherence-order sector of L_A (x) 1_S + V in L0's eigen coordinates.

    Coordinate m is R_k (x) |a><b| for (k, a, b) = ``index[:, m]``, in the
    order of the whole space's eigen index (k * d_S + a) * d_S + b.
    ``spectral`` has those vec-space vectors as ``right`` and ``left``; ``v``
    is V's block.  ``right`` and ``left`` here are L_A's eigenvectors
    (columns vec R_k, rows l_k).
    """

    spectral: SpectralData
    v: object
    index: np.ndarray
    right: np.ndarray
    left: np.ndarray


def _entries(alpha, k, d_s, cols, rows_a, rows_b, values):
    """alpha[k', k[cols]] * values at (k', rows_a, rows_b), every k', zeros dropped."""
    to_k = np.arange(alpha.shape[0])[:, None]
    data = (alpha[to_k, k[cols]] * values).ravel()
    rows = ((to_k * d_s + rows_a) * d_s + rows_b).ravel()
    keep = data != 0
    return rows[keep], np.tile(cols, alpha.shape[0])[keep], data[keep]


def _place(keys, size, rows, cols, data):
    """The entries whose row (of ``size`` whole-space ones) is in their
    column's sector as a CSR block on the stacked ``keys``, and the others."""
    rows = keys[cols] - keys[cols] % size + rows
    pos = np.minimum(np.searchsorted(keys, rows), keys.size - 1)
    inside = keys[pos] == rows
    block = sp.csr_matrix((data[inside], (pos[inside], cols[inside])), shape=(keys.size,) * 2)
    return block, (rows[~inside], cols[~inside], data[~inside])


class AncillaBasis:
    """What the coherence-order sectors of an ancilla model share, for L_A's
    eigenvectors R_k (this constructor, see :func:`charge_sector`) or its own
    basis |i><j| (:meth:`vec`): L_A in those coordinates (``l0_eigen``), their
    vectors (columns of ``right``, rows of ``left``), the order ``q_k`` of
    each and the charges ``q_a`` and ``q_s``."""

    def __init__(self, model, charges=None, zero_tol=DEFAULT_ZERO_TOL):
        sd = decompose(model.l0, zero_tol)
        vec_order = self._declare(model, charges, zero_tol)
        self.q_k = np.empty(sd.dim, dtype=int)
        for k, r in enumerate(sd.right.T):
            found = np.unique(vec_order[abs(r) > zero_tol * abs(r).max()])
            if found.size != 1:
                raise MixedChargeError(
                    f"ancilla eigenvector {k} spans coherence orders {found.tolist()}"
                )
            self.q_k[k] = found[0]
        self.eigenvalues, self.right, self.left = sd.eigenvalues, sd.right, sd.left
        self.slow, self.condition, self.l0_eigen = sd.slow, sd.condition, sd.l0_eigen

    @classmethod
    def vec(cls, model, charges=None, zero_tol=DEFAULT_ZERO_TOL):
        """L_A's own basis |i><j|, for propagation: coordinate k = i d_A + j
        has order q_A[i] - q_A[j], ``right`` and ``left`` are None (the
        identity) and ``l0_eigen`` is L_A.  Nothing is diagonalized, so a
        defective L_A builds too; only :meth:`block` applies.  An entry of L_A
        that maps one order to another (beyond ``zero_tol`` of its largest)
        raises ValidationError."""
        basis = cls.__new__(cls)
        basis.q_k = basis._declare(model, charges, zero_tol)
        basis.right = basis.left = None
        basis.l0_eigen = l_a = to_dense(model.l0)
        leak = l_a[np.not_equal.outer(basis.q_k, basis.q_k)]
        if abs(leak).max(initial=0.0) > zero_tol * abs(l_a).max(initial=0.0):
            raise ValidationError(
                "L_A does not conserve the declared charge: it maps an ancilla "
                "coherence order to others"
            )
        return basis

    def _declare(self, model, charges, zero_tol):
        """Keep the model, the tolerance and the charges (all zero for None);
        return the order q_A[i] - q_A[j] of L_A's vec component i d_A + j."""
        if charges is None:
            charges = np.zeros(math.isqrt(np.shape(model.l0)[0]), int), np.zeros(model.dim_s, int)
        self.q_a, self.q_s = (np.asarray(q) for q in charges)
        self.model, self.zero_tol = model, zero_tol
        return np.subtract.outer(self.q_a, self.q_a).reshape(-1)

    def coordinates(self, op):
        """A superoperator on A in the basis's coordinates, left @ op @ right."""
        return op if self.right is None else self.left @ op @ self.right

    def orders(self):
        """The orders of the sectors that hold a zero mode of L0, ascending."""
        return np.unique(np.add.outer(self.q_k[self.slow], np.subtract.outer(self.q_s, self.q_s)))

    def orders_of(self, op):
        """The coherence orders of an operator's nonzero entries on A (x) S, ascending."""
        charge = np.add.outer(self.q_a, self.q_s).reshape(-1)
        rows, cols = op.nonzero()
        return np.unique(charge[rows] - charge[cols])

    def block(self, orders, max_dim=np.inf):
        """The coherence orders ``orders`` on their stacked coordinates: the
        index (k, a, b) of each, the dimension of each order, and L0 and V
        as block-diagonal CSR matrices.

        Coordinate (k, a, b) is c_k (x) |a><b| for L_A's coordinate vector c_k,
        of order q_k + q_S[a] - q_S[b], keyed label * D + (k d_S + a) d_S + b.
        An order larger than ``max_dim`` is refused before anything is built."""
        orders, q_s, q_k = np.asarray(orders), self.q_s, self.q_k
        d_s, n_k = q_s.size, q_k.size
        # per order and (k, a), the b of charge q_S[a] + q_k - order, ascending
        by_charge = np.argsort(q_s, kind="stable")
        wanted = ((q_s + q_k[:, None]).ravel() - orders[:, None]).ravel()
        lo = np.searchsorted(q_s[by_charge], wanted, "left")
        counts = np.searchsorted(q_s[by_charge], wanted, "right") - lo
        dims = counts.reshape(orders.size, -1).sum(1)
        if dims.max() > max_dim:
            raise ValidationError(
                f"charge sector dimension {dims.max()} exceeds the limit {max_dim} "
                "(reduce the model size)"
            )
        total, size = int(dims.sum()), n_k * d_s * d_s
        ka = np.repeat(np.arange(counts.size) % (n_k * d_s), counts)
        b = by_charge[np.repeat(lo - (np.cumsum(counts) - counts), counts) + np.arange(total)]
        k, a = np.divmod(ka, d_s)
        keys = np.repeat(np.arange(orders.size) * size, dims) + ka * d_s + b  # increasing
        # L_A's entries between orders (rounding at most) never meet in a sector
        every = np.arange(total)
        l0, _ = _place(keys, size, *_entries(self.l0_eigen, k, d_s, every, a, b, 1.0))
        return np.array([k, a, b]), dims, l0, self.perturbation_block(k, a, b, keys, size)

    def sectors(self, orders, max_dim=np.inf):
        """The :class:`ChargeSector` of each coherence order in ``orders``, with
        V's block, cut from :meth:`block` (eigen coordinates only)."""
        index, dims, l0_eigen, v = self.block(orders, max_dim)
        k, a, b = index
        total, is_slow = k.size, np.isin(k, self.slow)
        # row m of left is l_k (x) <a b|, column m of right R_k (x) |a><b|: entry
        # (i, j) of R_k is at vec index (i d_S + a) h + j d_S + b, h = d_A d_S
        d_a, d_s = math.isqrt(self.q_k.size), self.q_s.size
        h, vectors = d_a * d_s, []
        for factor in (self.left, self.right.T):
            m, ij, values = row_entries(sp.csr_matrix(factor), k)
            i, j = np.divmod(ij, d_a)
            at = (i * d_s + a[m]) * h + j * d_s + b[m]
            vectors.append(sp.csr_matrix((values, (m, at)), shape=(total, h * h)))
        out = []
        for order, start, stop in zip(orders, np.cumsum(dims) - dims, np.cumsum(dims)):
            cut = slice(start, stop)
            if not is_slow[cut].any():
                raise EmptySlowSpaceError(f"the order-{order} sector holds no zero mode of L0")
            eigenvalues, fast = self.eigenvalues[k[cut]], np.flatnonzero(~is_slow[cut])
            sd = SpectralData(
                l0_eigen=l0_eigen[cut, cut],
                eigenvalues=eigenvalues,
                right=vectors[1][cut].T,  # CSC
                left=vectors[0][cut],
                slow=np.flatnonzero(is_slow[cut]),
                fast=fast,
                gap=float(abs(eigenvalues[fast]).min(initial=np.inf)),
                condition=self.condition,
                zero_tol=self.zero_tol,
                backend="sector",
            )
            out.append(ChargeSector(sd, v[cut, cut], index[:, cut], self.right, self.left))
        return out

    def perturbation_block(self, k, a, b, keys, size):
        """V on the stacked coordinates (k, a, b) of :meth:`block`,
        block-diagonal, with the checks of :func:`charge_sector`."""
        d_s, coeff = self.q_s.size, -1j * self.model.epsilon
        eye_a = np.eye(math.isqrt(self.q_k.size))
        parts = [(np.zeros(0, int), np.zeros(0, int), np.zeros(0, complex))]
        with np.errstate(over="ignore", invalid="ignore"):
            for op_a, op_s in self.model.couplings:
                s = sp.csr_matrix(op_s, dtype=complex)
                alpha_l = self.coordinates(np.kron(op_a, eye_a))
                alpha_r = self.coordinates(np.kron(eye_a, np.transpose(op_a)))
                cols, to_a, values = row_entries(s.T.tocsr(), a)  # S[to_a, a]
                parts.append(_entries(alpha_l, k, d_s, cols, to_a, b[cols], coeff * values))
                cols, to_b, values = row_entries(s, b)  # S^T[to_b, b] = S[b, to_b]
                parts.append(_entries(alpha_r, k, d_s, cols, a[cols], to_b, -coeff * values))
            v, (rows, cols, data) = _place(keys, size, *(np.concatenate(p) for p in zip(*parts)))
        if not all_finite(v):
            raise ToleranceNotMetError(
                "V's block has non-finite entries: epsilon * V exceeds float64"
            )
        v.eliminate_zeros()  # the entries that cancel across couplings
        _, where = np.unique(rows * keys.size + cols, return_inverse=True)
        leak = np.bincount(where, data.real) + 1j * np.bincount(where, data.imag)
        if abs(leak).max(initial=0.0) > self.zero_tol * abs(v.data).max(initial=0.0):
            raise ValidationError(
                "the couplings do not conserve the declared charge: they map a "
                "coherence order to others"
            )
        return v


def charge_sector(model, charges=None, zero_tol=DEFAULT_ZERO_TOL, max_dim=np.inf):
    """The coherence-order-0 sector of an ancilla model's generator, from its
    operators, with V's block: what ``effective`` and ``compare`` run on.

    ``charges = (q_A, q_S)`` holds an integer per ancilla and per system
    basis state; the vec component |i a><j b| has coherence order
    q_A[i] - q_A[j] + q_S[a] - q_S[b].  Each eigenvector R_k of L_A must
    have one order q_k, read from its support (``MixedChargeError``
    otherwise); R_k (x) |a><b| is in the order-q sector of
    :meth:`AncillaBasis.sectors` when q_k + q_S[a] - q_S[b] = q, and with
    ``charges=None`` (all zero) order 0 is the whole space.  With l_k the left eigenvectors,

        V = -i eps sum_c (aL_c (x) S_c (x) 1 - aR_c (x) 1 (x) S_c^T),
        aL_c[k, k'] = l_k . vec(A_c R_k'),  aR_c[k, k'] = l_k . vec(R_k' A_c)

    in eigen coordinates, for the couplings (A_c, S_c).  A single coupling
    need not conserve the charge: the entries that leave the sector are
    summed over all couplings and must cancel (``ValidationError``), those
    inside that cancel are dropped, and a non-finite one raises
    ``ToleranceNotMetError``.  A sector larger than ``max_dim`` is refused
    before it is built, and one without a zero mode of L0 raises
    ``EmptySlowSpaceError``.  No full-space matrix is formed: the eigenvectors
    hold at most d_A**2 entries each.
    """
    return AncillaBasis(model, charges, zero_tol).sectors([0], max_dim)[0]


def to_eigen(sd, a):
    """A superoperator in L0's eigen coordinates: entry (i, j) is <l_i|A|r_j>.
    ``a`` is taken dense, or on the sector backend as CSR until it is as full
    as ``superop.compact`` allows."""
    a = compact(to_csr(a)) if sd.backend == "sector" else to_dense(a)
    return compact(sd.left @ a @ sd.right)


def from_eigen(sd, a):
    """The full-space superoperator whose eigen coordinates are ``a``."""
    return compact(sd.right @ a @ sd.left)


def blocks(sd, a):
    """The blocks (ss, sf, fs, ff) of an eigen-coordinate matrix, in the
    storage ``compact`` picks for each: sliced from CSR only where the
    largest block may stay sparse, else from the dense matrix."""
    sides = (sd.slow, sd.fast)
    if sp.issparse(a) and max(sd.slow.size, sd.fast.size) ** 2 > superop.DENSE_ENTRIES:
        a = to_csr(a)
        return tuple(compact(a[rows][:, cols]) for rows in sides for cols in sides)
    a = to_dense(a)
    return tuple(a[np.ix_(rows, cols)] for rows in sides for cols in sides)


def assemble(sd, ss=None, sf=None, fs=None, ff=None):
    """The dense eigen-coordinate matrix with the given slow/fast blocks
    (None is zero)."""
    out, sides = np.zeros((sd.dim, sd.dim), dtype=complex), (sd.slow, sd.fast)
    for i, x in enumerate((ss, sf, fs, ff)):
        if x is not None:
            out[np.ix_(sides[i // 2], sides[i % 2])] = to_dense(x)
    return out


def scaled(x, weights, axis):
    """x with its rows (axis 0) or columns (axis 1) multiplied by ``weights``."""
    if not sp.issparse(x):
        return x * (weights[:, None] if axis == 0 else weights)
    x = to_csr(x).copy()
    x.data *= np.repeat(weights, np.diff(x.indptr)) if axis == 0 else weights[x.indices]
    return x


def projectors(sd):
    """Spectral projectors P (slow) and Q = 1 - P; generally non-orthogonal."""
    p, q = (compact(sd.right[:, m] @ sd.left[m, :]) for m in (sd.slow, sd.fast))
    return Projectors(p=p, q=q)


def fast_inverse(sd):
    """Inverse of L0 restricted to the fast space, zero on the slow space."""
    inverse = np.zeros(sd.dim, complex)
    inverse[sd.fast] = 1.0 / sd.eigenvalues[sd.fast]
    return from_eigen(sd, sp.diags(inverse, format="csr"))


def resolvent_apply(sd, a):
    """Invert the block-off-diagonal action of L0 on a superoperator.

    Returns Q L0inv A P - P A L0inv Q; for block-off-diagonal X this is the
    unique block-off-diagonal solution of [solution, L0] = A.  In eigen
    coordinates it scales A's :func:`blocks`: sf by -1/lambda_f by column and
    fs by 1/lambda_f by row, for the fast eigenvalues lambda_f.
    """
    _, a_sf, a_fs, _ = blocks(sd, to_eigen(sd, a))
    inverse = 1.0 / sd.eigenvalues[sd.fast]
    return from_eigen(sd, assemble(sd, sf=scaled(a_sf, -inverse, 1), fs=scaled(a_fs, inverse, 0)))


def spectral_norm(a):
    """Largest singular value of a dense or sparse matrix, by a dense SVD; a
    non-finite entry raises ToleranceNotMetError."""
    if not all_finite(a):
        raise ToleranceNotMetError("spectral norm of a matrix with non-finite entries")
    a = to_dense(a)
    return float(np.linalg.norm(a, 2)) if a.size else 0.0


def check_perturbative_limit(sd, v_norm, epsilon):
    """Whether the gap condition gap > 2 * epsilon * ||V|| holds, for the
    spectral norm ``v_norm`` (``AncillaModel.perturbation_norm``)."""
    return bool(sd.gap > 2.0 * abs(epsilon) * v_norm)
