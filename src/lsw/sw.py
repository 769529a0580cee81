"""Order-by-order block decoupling of a perturbed generator.

A non-unitary similarity transform exp(-S) (L0 + eps V) exp(S) with
block-off-diagonal S removes the slow/fast coupling order by order in eps.
This module computes the generator terms S_n by recursion, the resulting
correction series acting in the slow space, and diagnostics: the
off-diagonal residual of the truncated transform and the reduction of the
slow-space generator to a subsystem when the slow space factorizes.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import expm, lu_factor, lu_solve

from .exceptions import (
    NonProductSlowSpaceError,
    OrderUnavailableError,
    ZeroGapError,
)
from .spectral import as_operand, eigen_blocks, resolvent_apply, spectral_norm
from .superop import hat_apply, to_dense, vectorize, zeros_like

MAX_ORDER = 8

# Even Taylor coefficients of x*coth(x) and odd ones of tanh(x/2), exact
# rationals, enough for series terms up to MAX_ORDER.
_XCOTH = {0: 1.0, 2: 1.0 / 3.0, 4: -1.0 / 45.0, 6: 2.0 / 945.0}
_TANH_HALF = {1: 1.0 / 2.0, 3: -1.0 / 24.0, 5: 1.0 / 240.0, 7: -17.0 / 40320.0}


@lru_cache(maxsize=None)
def _compositions(total, parts):
    """Ordered tuples of positive integers of length `parts` summing to `total`."""
    if parts == 1:
        return ((total,),)
    out = []
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return tuple(out)


def split_blocks(sd, v):
    """Block-diagonal and block-off-diagonal parts of a superoperator."""
    pq = sd.pq
    v = as_operand(sd, v)
    v_diag = pq.p @ v @ pq.p + pq.q @ v @ pq.q
    return v_diag, v - v_diag


@dataclass
class SWGenerator:
    """Terms S_1..S_nmax of the block-off-diagonal transform generator."""

    terms: list
    nmax: int

    def total(self, epsilon, order=None):
        order = self.nmax if order is None else order
        if order > self.nmax:
            raise OrderUnavailableError(f"order {order} > computed nmax {self.nmax}")
        s = zeros_like(self.terms[0])
        for n in range(1, order + 1):
            s += epsilon**n * self.terms[n - 1]
        return s


def _chain(s_terms, ks, memo):
    """Nested commutator maps of S_{k1}..S_{kp} applied to x, rightmost first.

    ``memo`` maps suffixes of ``ks`` to their chains and starts as
    ``{(): x}``.  The chain of ``ks`` is the map of S_{ks[0]} applied to the
    chain of ``ks[1:]``, so each distinct suffix costs one :func:`hat_apply`
    per memo, and the terms are bit-identical to applying the maps one by one.
    """
    if ks not in memo:
        memo[ks] = hat_apply(s_terms[ks[0] - 1], _chain(s_terms, ks[1:], memo))
    return memo[ks]


def generator_terms(sd, v, nmax):
    """Solve the decoupling condition for S order by order.

    Order n collects the commutator chains of lower-order terms acting on
    the diagonal and off-diagonal parts of the perturbation, resolved
    against L0.  The first terms reduce to S_1 = -R0(V_offdiag) and
    S_2 = -R0([V_diag, S_1]).
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    if nmax > MAX_ORDER:
        raise OrderUnavailableError(f"series coefficients tabulated up to order {MAX_ORDER}")
    if sd.fast.size and sd.gap <= 0:
        raise ZeroGapError("cannot invert L0 on the fast space")
    v_diag, v_off = split_blocks(sd, v)
    terms = []
    chains = {(): v_off}
    for n in range(1, nmax + 1):
        if n == 1:
            rhs = v_off
        else:
            rhs = hat_apply(terms[n - 2], v_diag)  # [V_diag, S_{n-1}]
            for two_m, coeff in _XCOTH.items():
                if two_m == 0 or two_m > n - 1:
                    continue
                for ks in _compositions(n - 1, two_m):
                    rhs = rhs + coeff * _chain(terms, ks, chains)
        terms.append(-resolvent_apply(sd, rhs))
    return SWGenerator(terms=terms, nmax=nmax)


@dataclass
class EffectiveSeries:
    """Per-order corrections W_n and their slow-space restrictions."""

    corrections: list  # full-space superoperators W_1..W_nmax
    slow_terms: list  # slow_dim x slow_dim matrices <l_a|W_n|r_b>
    epsilon: float
    nmax: int
    spectral: object = field(repr=False, default=None)


def correction_terms(gen, sd, v, epsilon=1.0):
    """Expand the transformed generator's slow-space correction.

    W_1 is the block-diagonal part of V; higher orders are odd commutator
    chains of the S_k applied to the off-diagonal part, with the tanh(x/2)
    series coefficients.
    """
    v_diag, v_off = split_blocks(sd, v)
    chains = {(): v_off}
    corrections = [v_diag]
    for n in range(2, gen.nmax + 1):
        w = zeros_like(v_diag)
        for p, coeff in _TANH_HALF.items():
            if p > n - 1:
                continue
            for ks in _compositions(n - 1, p):
                w = w + coeff * _chain(gen.terms, ks, chains)
        corrections.append(w)
    ls, rs = sd.left[sd.slow, :], sd.right[:, sd.slow]
    slow_terms = [to_dense(ls @ w @ rs) for w in corrections]
    return EffectiveSeries(
        corrections=corrections,
        slow_terms=slow_terms,
        epsilon=epsilon,
        nmax=gen.nmax,
        spectral=sd,
    )


def effective_liouvillian(series, order, epsilon=None, cumulative=True):
    """Slow-space generator summed to the requested order (or a single order)."""
    if not 1 <= order <= series.nmax:
        raise OrderUnavailableError(f"order {order} outside computed range 1..{series.nmax}")
    eps = series.epsilon if epsilon is None else epsilon
    if cumulative:
        out = np.zeros_like(series.slow_terms[0])
        for n in range(1, order + 1):
            out += eps**n * series.slow_terms[n - 1]
        return out
    return eps**order * series.slow_terms[order - 1]


def closed_form_slow_orders(sd, v):
    """First three slow-space orders from the printed closed forms.

    Evaluated entirely in eigenbasis coordinates (an independent route from
    the recursion): order 1 is the slow block of V, order 2 the slow-fast
    round trip through the fast inverse, order 3 adds the fast-space block
    and the anticommutator counterterm.
    """
    v_pp, v_pq, v_qp, v_qq = eigen_blocks(sd, v)
    if sd.fast.size == 0:
        z = np.zeros_like(v_pp)
        return v_pp, z, z
    inv = 1.0 / sd.eigenvalues[sd.fast]
    l1 = v_pp
    l2 = -(v_pq * inv) @ v_qp
    bounce = (v_pq * inv) @ v_qq @ (inv[:, None] * v_qp)
    through = (v_pq * inv**2) @ v_qp
    l3 = bounce - 0.5 * (v_pp @ through + through @ v_pp)
    return l1, l2, l3


def decoupling_residual(sd, v, gen, epsilon, order):
    """Norm of the slow/fast coupling left after the truncated transform.

    Builds S(eps) through the requested order and returns the sum of the
    spectral norms of the two off-diagonal blocks P T Q and Q T P of
    T = exp(-S) (L0 + eps V) exp(S).  One exponential E = exp(S) is
    computed (scaling and squaring, densified) and LU-factored; E^-1 is
    only ever applied through that factorization.  With R_s, L_s the slow
    right and left eigenvectors (P = R_s L_s), only the thin products
    L_s T = (L_s E^-1) L E and T R_s = E^-1 L (E R_s) are formed, and
    each block's norm comes from its rank-slow_dim factors:

        P T Q = R_s X,  X = L_s T - (L_s T R_s) L_s,   ||P T Q|| = ||K X||
        Q T P = Y L_s,  Y = T R_s - R_s (L_s T R_s),   ||Q T P|| = ||Y M^H||

    where K and M are the triangular factors of qr(R_s) and qr(L_s^H).
    This agrees with the full D x D products and SVDs to rounding (about
    1e-16 absolute on the residuals of the shipped scan).
    """
    e = expm(to_dense(gen.total(epsilon, order)))
    e_lu = lu_factor(e)
    l_full = sd.operator + epsilon * as_operand(sd, v)
    ls = to_dense(sd.left[sd.slow, :])
    rs = to_dense(sd.right[:, sd.slow])
    ls_t = (lu_solve(e_lu, ls.T, trans=1).T @ l_full) @ e
    t_rs = lu_solve(e_lu, l_full @ (e @ rs))
    slow_block = ls_t @ rs
    k = np.linalg.qr(rs, mode="r")
    m = np.linalg.qr(ls.conj().T, mode="r")
    pq_norm = spectral_norm(k @ (ls_t - slow_block @ ls))
    qp_norm = spectral_norm((t_rs - rs @ slow_block) @ m.conj().T)
    return pq_norm + qp_norm


@dataclass
class ReducedEffective:
    """Subsystem generator extracted from a product-structured slow space."""

    matrix: np.ndarray  # acts on the subsystem's vectorized operator space
    ancilla_state: np.ndarray  # the fixed ancilla factor of the slow space


def _unit(dim, k, l):
    e = np.zeros((dim, dim), dtype=complex)
    e[k, l] = 1.0
    return e


def reduced_effective(series, sd, dims, order, epsilon=None, cumulative=True, tol=1e-8):
    """Reduce the slow-space generator to the subsystem factor.

    ``dims = (dim_ancilla, dim_system)``.  Requires the slow space to be
    exactly the product of one fixed ancilla state with the full subsystem
    operator space; the projector is checked against that structure and
    NonProductSlowSpaceError is raised otherwise.
    """
    dim_a, dim_s = dims
    if sd.slow_dim != dim_s * dim_s:
        raise NonProductSlowSpaceError(
            f"slow dimension {sd.slow_dim} != dim_system**2 = {dim_s * dim_s}"
        )
    if dim_a * dim_a * dim_s * dim_s != sd.dim:
        raise NonProductSlowSpaceError("dims do not factor the full space")
    pq = sd.pq

    # extract the fixed ancilla state from the projector's action
    trial = np.kron(np.eye(dim_a, dtype=complex) / dim_a, _unit(dim_s, 0, 0))
    image = (pq.p @ vectorize(trial)).reshape(dim_a, dim_s, dim_a, dim_s)
    sigma = image[:, 0, :, 0]
    trace = np.trace(sigma)
    if abs(trace) < tol:
        raise NonProductSlowSpaceError("projector image has vanishing ancilla trace")
    sigma = sigma / trace

    # verify P chi = sigma (x) Tr_A(chi) on the subsystem units
    # (column k * dim_s + l is vec(sigma (x) |k><l|))
    eye = np.eye(dim_s, dtype=complex)
    embed = np.einsum("ij,ak,bl->iajbkl", sigma, eye, eye).reshape(sd.dim, -1)
    drift = np.linalg.norm(pq.p @ embed - embed, axis=0)
    if np.any(drift > tol * np.maximum(1.0, np.linalg.norm(embed, axis=0))):
        raise NonProductSlowSpaceError("slow projector does not fix the product-state basis")

    # effective generator applied to the embedded units, then traced down
    ls, rs = sd.left[sd.slow, :], sd.right[:, sd.slow]
    slow_mat = effective_liouvillian(series, order, epsilon=epsilon, cumulative=cumulative)
    images = rs @ (slow_mat @ (ls @ embed))
    reduced = np.einsum(
        "iaibc->abc", images.reshape(dim_a, dim_s, dim_a, dim_s, -1)
    ).reshape(dim_s * dim_s, -1)
    return ReducedEffective(matrix=reduced, ancilla_state=sigma)


def match_eigenvalues(reference, candidates):
    """Pair two eigenvalue sets by minimal total distance.

    Returns the elements of ``candidates`` reordered to match ``reference``.
    Used to compare effective and exact slow spectra, where the assignment
    at small perturbation strength fixes the pairing.
    """
    # imported here: scipy.optimize is slow to import and no CLI task needs it
    from scipy.optimize import linear_sum_assignment

    reference = np.asarray(reference)
    candidates = np.asarray(candidates)
    cost = np.abs(reference[:, None] - candidates[None, :])
    rows, cols = linear_sum_assignment(cost)
    out = np.empty_like(reference)
    out[rows] = candidates[cols]
    return out
