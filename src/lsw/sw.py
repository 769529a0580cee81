"""Order-by-order block decoupling of a perturbed generator.

A non-unitary similarity transform exp(-S) (L0 + eps V) exp(S) with
block-off-diagonal S removes the slow/fast coupling order by order in eps.
This module computes the generator terms S_n by recursion, the resulting
correction series acting in the slow space, and diagnostics: the
off-diagonal residual of the truncated transform and the reduction of the
slow-space generator to a subsystem when the slow space factorizes.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

from .exceptions import (
    NonProductSlowSpaceError,
    OrderUnavailableError,
    ZeroGapError,
)
from .spectral import as_operand, eigen_blocks, resolvent_apply, spectral_norm
from .superop import hat_apply, lift, to_dense, trace_functional, vectorize, zeros_like

MAX_ORDER = 8
REDUCTION_TOL = 1e-8  # smallest ancilla trace, largest relative product defect

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
    T = exp(-S) (L0 + eps V) exp(S).  In the eigenbasis of L0, S is
    [[0, A], [B, 0]] with A = <l_s|S|r_f> and B = <l_f|S|r_s>, so
    exp(+-S) is fixed by functions of the slow_dim x slow_dim matrix
    X = A B:

        exp(+-S) = [[C, +-Sh A], [+-B Sh, 1 + B G A]],
        C = cosh(sqrt X),  Sh = sinh(sqrt X) / sqrt X,  G = (C - 1) / X.

    One exponential of the 2 slow_dim x 2 slow_dim matrix [[0, 1], [X/4, 0]]
    gives C4 = cosh(sqrt(X/4)) and Sh4 = sinh(sqrt(X/4)) / sqrt(X/4), and
    one doubling step C = 2 C4^2 - 1, Sh = Sh4 C4, G = Sh4^2 / 2 the rest.
    With R_s, L_s the slow right and left eigenvectors (P = R_s L_s), only
    thin products with these blocks are formed: the rows <l_s|T|r_f> and
    the columns <l_f|T|r_s>, so each off-diagonal block has rank at most
    slow_dim and its norm comes from a small factor:

        P T Q = R_s <l_s|T|r_f> L_f,   ||P T Q|| = ||K <l_s|T|r_f> L_f||
        Q T P = R_f <l_f|T|r_s> L_s,   ||Q T P|| = ||R_f <l_f|T|r_s> M^H||

    where K and M are the triangular factors of qr(R_s) and qr(L_s^H).
    No D x D exponential, factorization or SVD is formed.  Returns inf
    when exp(+-S) is too large for these products in float64.
    """
    k = sd.slow_dim
    s = gen.total(epsilon, order)
    l_full = sd.operator + epsilon * as_operand(sd, v)
    ls, lf = sd.left[sd.slow, :], sd.left[sd.fast, :]
    rs, rf = sd.right[:, sd.slow], sd.right[:, sd.fast]
    a = to_dense((ls @ s) @ rf)
    b = to_dense(lf @ (s @ rs))
    zero, one = np.zeros((k, k)), np.eye(k)
    quarter = expm(np.block([[zero, one], [(a @ b) / 4, zero]]))
    c4, sh4 = quarter[:k, :k], quarter[:k, k:]
    c, sh, g = 2 * c4 @ c4 - one, sh4 @ c4, sh4 @ sh4 / 2
    sh_a, b_sh, g_a = sh @ a, b @ sh, g @ a
    # <l_s|T|r_f>: the slow rows of exp(-S), through L, into the fast columns of exp(S)
    rows = (c @ ls - sh_a @ lf) @ l_full
    rows_s, rows_f = rows @ rs, rows @ rf
    t_sf = rows_s @ sh_a + rows_f + (rows_f @ b) @ g_a
    # <l_f|T|r_s>: the slow columns of exp(S), through L, into the fast rows of exp(-S)
    cols = l_full @ (rs @ c + rf @ b_sh)
    cols_s, cols_f = ls @ cols, lf @ cols
    t_fs = cols_f - b_sh @ cols_s + b @ (g_a @ cols_f)
    r_tri = np.linalg.qr(to_dense(rs), mode="r")
    l_tri = np.linalg.qr(to_dense(ls).conj().T, mode="r")
    pq_factor = r_tri @ (t_sf @ lf)
    qp_factor = (rf @ t_fs) @ l_tri.conj().T
    if not (np.isfinite(pq_factor).all() and np.isfinite(qp_factor).all()):
        return np.inf  # exp(+-S) overflowed: the residual is beyond float64
    return spectral_norm(pq_factor) + spectral_norm(qp_factor)


@dataclass
class ReducedEffective:
    """Subsystem generator extracted from a product-structured slow space."""

    matrix: np.ndarray  # acts on the subsystem's vectorized operator space
    ancilla_state: np.ndarray  # the fixed ancilla factor of the slow space


def reduced_effective(series, sd, dims, order, epsilon=None, cumulative=True):
    """Reduce the slow-space generator to the subsystem factor.

    ``dims = (dim_ancilla, dim_system)``.  Requires the slow space to be
    exactly sigma (x) B(H_S) for one fixed ancilla state sigma; the slow
    right vectors are checked against that structure and
    NonProductSlowSpaceError is raised otherwise.  With B = Tr_A R_s (the
    subsystem images of the slow vectors) and E: X -> sigma (x) X, the
    reduction is the basis change B M B^-1 of the slow block M, where
    B^-1 = L_s E.
    """
    dim_a, dim_s = dims
    if sd.slow_dim != dim_s * dim_s:
        raise NonProductSlowSpaceError(
            f"slow dimension {sd.slow_dim} != dim_system**2 = {dim_s * dim_s}"
        )
    if dim_a * dim_a * dim_s * dim_s != sd.dim:
        raise NonProductSlowSpaceError("dims do not factor the full space")
    ls, rs = sd.left[sd.slow, :], sd.right[:, sd.slow]
    tr_a = lift(vectorize(np.eye(dim_a))[:, None], dim_s, vec_cols=False).T
    b = tr_a @ rs  # column k is vec Tr_A r_k
    traces = trace_functional(dim_s) @ b
    k = int(np.argmax(abs(traces)))
    if abs(traces[k]) < REDUCTION_TOL:
        raise NonProductSlowSpaceError("slow vectors have vanishing ancilla trace")
    r_k = to_dense(rs[:, [k]]).reshape(dim_a, dim_s, dim_a, dim_s)
    sigma = np.einsum("iaja->ij", r_k) / traces[k]
    embed = lift(vectorize(sigma)[:, None], dim_s, vec_cols=False)  # X -> sigma (x) X
    if abs(rs - embed @ b).max() > REDUCTION_TOL * max(1.0, abs(rs).max()):
        raise NonProductSlowSpaceError("slow vectors are not sigma (x) X for one sigma")
    slow_mat = effective_liouvillian(series, order, epsilon=epsilon, cumulative=cumulative)
    return ReducedEffective(matrix=to_dense(b @ (slow_mat @ (ls @ embed))), ancilla_state=sigma)


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
