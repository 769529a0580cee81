"""Order-by-order block decoupling of a perturbed generator.

A non-unitary similarity transform exp(-S) (L0 + eps V) exp(S) with
block-off-diagonal S removes the slow/fast coupling order by order in eps.
This module computes the generator terms S_n by recursion, the resulting
correction series acting in the slow space, and diagnostics: the
off-diagonal residual of the truncated transform and the reduction of the
slow-space generator to a subsystem when the slow space factorizes.

The recursion runs on the four slow/fast blocks of L0's eigen coordinates
(Bravyi, DiVincenzo & Loss, arXiv:1105.0675).  An odd operator (S_n, the
off-diagonal part of V) is held as its pair (sf, fs), an even one (the
diagonal part of V, the corrections W_n) as its pair (ss, ff); a commutator
with S flips the parity and costs four block products.  The commutator
chains are summed per depth p and order j in the table

    U(0, 0) = V_off,   U(p, j) = sum_k [U(p - 1, j - k), S_k],

so order n costs a number of commutators polynomial in n.  Each block is
stored as ``superop.compact`` picks: dense when small or full, CSR otherwise.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dynamics import expm
from .exceptions import NonProductSlowSpaceError, OrderUnavailableError, ToleranceNotMetError
from .spectral import assemble, blocks, from_eigen, gram_factors, scaled, spectral_norm, to_eigen
from .superop import all_finite, compact, lift, to_dense, trace_functional, vectorize

MAX_ORDER = 8
REDUCTION_TOL = 1e-8  # smallest ancilla trace, largest relative product defect

# Even Taylor coefficients of x*coth(x) and odd ones of tanh(x/2), exact
# rationals, enough for series terms up to MAX_ORDER.
_XCOTH = {0: 1.0, 2: 1.0 / 3.0, 4: -1.0 / 45.0, 6: 2.0 / 945.0}
_TANH_HALF = {1: 1.0 / 2.0, 3: -1.0 / 24.0, 5: 1.0 / 240.0, 7: -17.0 / 40320.0}


def split_blocks(sd, v):
    """Block-diagonal and block-off-diagonal parts of a superoperator."""
    ss, sf, fs, ff = blocks(sd, to_eigen(sd, v))
    return from_eigen(sd, assemble(sd, ss=ss, ff=ff)), from_eigen(sd, assemble(sd, sf=sf, fs=fs))


def _add(x, y, coeff=1.0):
    """x + coeff * y for dense or sparse blocks of one shape: dense if either
    is, else in the storage ``compact`` picks."""
    y = y if coeff == 1.0 else coeff * y
    dense = isinstance(x, np.ndarray), isinstance(y, np.ndarray)
    if all(dense):
        return x + y
    if not any(dense):
        return compact(x + y)
    return to_dense(x) + to_dense(y)


def _combine(terms):
    """sum_i c_i X_i, left to right, for (c_i, X_i) in ``terms``: X_i pairs
    of one parity."""
    (c, x), *rest = terms
    total = x if c == 1.0 else (c * x[0], c * x[1])
    for c, x in rest:
        total = (_add(total[0], x[0], c), _add(total[1], x[1], c))
    return total


def _commutator(s, x, even):
    """[X, S] for S = (A, B), its blocks (sf, fs), and X's pair: (ss, ff) if
    ``even``, else (sf, fs).  The result is the pair of the other parity:

        even X:  (X_ss A - A X_ff,  X_ff B - B X_ss)
        odd X:   (X_sf B - A X_fs,  X_fs A - B X_sf)
    """
    a, b = s
    if even:
        x_ss, x_ff = x
        return _add(x_ss @ a, a @ x_ff, -1.0), _add(x_ff @ b, b @ x_ss, -1.0)
    x_sf, x_fs = x
    return _add(x_sf @ b, a @ x_fs, -1.0), _add(x_fs @ a, b @ x_sf, -1.0)


@dataclass
class SWGenerator:
    """Terms S_1..S_nmax of the block-off-diagonal transform generator and
    the blocks of V, all in L0's eigen coordinates.

    ``blocks[n - 1]`` is S_n's pair (<l_s|S_n|r_f>, <l_f|S_n|r_s>) and
    ``v_blocks`` is V's (ss, sf, fs, ff)."""

    blocks: list
    nmax: int
    v_blocks: tuple
    spectral: object  # the SpectralData the terms were built from

    @cached_property
    def residual_factors(self):
        """The square factors (K, J, M, N) of ``spectral.gram_factors``, slow
        or fast sized, that carry the residual's norms from eigen
        coordinates to the full space; taken once for all residuals."""
        return gram_factors(self.spectral)

    @cached_property
    def l0_blocks(self):
        """The blocks (ss, sf, fs, ff) of ``spectral.l0_eigen``."""
        return blocks(self.spectral, self.spectral.l0_eigen)

    def total_blocks(self, epsilon, order):
        """The dense blocks (A, B) = (<l_s|S(eps)|r_f>, <l_f|S(eps)|r_s>) of
        S(eps) = sum_n eps**n S_n through ``order``; stacked along the
        leading axes for an array of epsilons."""
        if order > self.nmax:
            raise OrderUnavailableError(f"order {order} > computed nmax {self.nmax}")
        eps = np.asarray(epsilon)
        slow, fast = self.spectral.slow.size, self.spectral.fast.size
        a = np.zeros(eps.shape + (slow, fast), dtype=complex)
        b = np.zeros(eps.shape + (fast, slow), dtype=complex)
        for n in range(1, order + 1):
            # Python's float power: numpy's rounds some eps**n differently
            power = np.reshape([e**n for e in eps.ravel().tolist()], eps.shape)[..., None, None]
            a += power * to_dense(self.blocks[n - 1][0])
            b += power * to_dense(self.blocks[n - 1][1])
        return a, b


def _summed_chain(s_blocks, table, p, j):
    """U(p, j), the sum over k_1 + ... + k_p = j of the nested commutators
    [...[V_off, S_k_p]..., S_k_1] for the S_k pairs ``s_blocks``: odd for
    even p, even for odd p.  It is sum_k [U(p - 1, j - k), S_k] for p >= 1,
    with U(0, 0) = V_off and U(0, j) = 0 otherwise; ``table`` starts as
    {(0, 0): V_off's pair} and keeps every entry computed."""
    if (p, j) not in table:
        ks = range(1, j - p + 2) if p > 1 else [j]
        table[p, j] = _combine([
            (1.0, _commutator(s_blocks[k - 1], _summed_chain(s_blocks, table, p - 1, j - k),
                              even=p % 2 == 0))
            for k in ks
        ])
    return table[p, j]


def generator_terms(sd, v, nmax):
    """Solve the decoupling condition for S order by order, for V in L0's
    eigen coordinates (a sector's block, or ``to_eigen`` of a full V).

    V is split once into its slow/fast blocks.  Order n resolves

        rhs_n = [V_diag, S_{n-1}] + sum_{m >= 1} c_2m U(2m, n - 1)

    against L0 (rhs_1 = V_off), for the x coth(x) coefficients c_2m and
    the chain table U (:func:`_summed_chain`): S_n's blocks are
    rhs_sf / lambda_f by column and -rhs_fs / lambda_f by row, for the
    fast eigenvalues lambda_f.  So S_1 = -R0(V_offdiag) and
    S_2 = -R0([V_diag, S_1]).  Every block keeps ``superop.compact``'s
    storage.  A term beyond float64 raises ToleranceNotMetError, without
    overflow warnings.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    if nmax > MAX_ORDER:
        raise OrderUnavailableError(f"series coefficients tabulated up to order {MAX_ORDER}")
    v_ss, v_sf, v_fs, v_ff = v_blocks = blocks(sd, v)
    gen = SWGenerator(blocks=[], nmax=nmax, v_blocks=v_blocks, spectral=sd)
    table = {(0, 0): (v_sf, v_fs)}
    inverse = 1.0 / sd.eigenvalues[sd.fast]
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, nmax + 1):
            if n == 1:
                rhs_sf, rhs_fs = v_sf, v_fs
            else:
                rhs_sf, rhs_fs = _combine(
                    [(1.0, _commutator(gen.blocks[n - 2], (v_ss, v_ff), even=True))]
                    + [(c, _summed_chain(gen.blocks, table, two_m, n - 1))
                       for two_m, c in _XCOTH.items() if 0 < two_m <= n - 1]
                )
            term = (scaled(rhs_sf, inverse, 1), scaled(rhs_fs, -inverse, 0))
            if not (all_finite(term[0]) and all_finite(term[1])):
                raise ToleranceNotMetError(f"generator term S_{n} is beyond float64")
            gen.blocks.append(term)
    return gen


@dataclass
class EffectiveSeries:
    """Per-order corrections W_n and their slow-space restrictions.

    ``blocks[n - 1]`` is W_n's pair (ss, ff) in L0's eigen coordinates and
    ``slow_terms[n - 1]`` its dense slow_dim x slow_dim block
    <l_a|W_n|r_b>."""

    blocks: list
    slow_terms: list
    epsilon: float
    nmax: int
    spectral: object = field(repr=False)


def correction_terms(gen, sd, epsilon=1.0):
    """Expand the transformed generator's slow-space correction.

    W_1 is the block-diagonal part of V, and W_n = sum_p c_p U(p, n - 1)
    over odd p, for the tanh(x/2) coefficients c_p and the chain table U
    (:func:`_summed_chain`) of ``gen``'s terms, built anew here so that a
    generator holds no table.  V's blocks are taken from ``gen``.
    """
    v_ss, v_sf, v_fs, v_ff = gen.v_blocks
    w_blocks, table = [(v_ss, v_ff)], {(0, 0): (v_sf, v_fs)}
    for n in range(2, gen.nmax + 1):
        w_blocks.append(_combine([
            (c, _summed_chain(gen.blocks, table, p, n - 1))
            for p, c in _TANH_HALF.items() if p <= n - 1
        ]))
    return EffectiveSeries(
        blocks=w_blocks,
        slow_terms=[to_dense(ss) for ss, _ in w_blocks],
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

    Evaluated entirely in eigenbasis coordinates, from V's (an independent
    route from the recursion): order 1 is the slow block of V, order 2 the
    slow-fast round trip through the fast inverse, order 3 adds the
    fast-space block and the anticommutator counterterm.
    """
    v_pp, v_pq, v_qp, v_qq = (to_dense(x) for x in blocks(sd, v))
    inv = 1.0 / sd.eigenvalues[sd.fast]
    l1 = v_pp
    l2 = -(v_pq * inv) @ v_qp
    bounce = (v_pq * inv) @ v_qq @ (inv[:, None] * v_qp)
    through = (v_pq * inv**2) @ v_qp
    l3 = bounce - 0.5 * (v_pp @ through + through @ v_pp)
    return l1, l2, l3


def decoupling_residual(sd, gen, epsilon, order):
    """Norm of the slow/fast coupling left after the truncated transform:
    ||P T Q|| + ||Q T P||, the sum of :func:`decoupling_blocks`."""
    return sum(decoupling_blocks(sd, gen, epsilon, order))


def decoupling_blocks(sd, gen, epsilon, order):
    """Spectral norms of the two off-diagonal blocks left by the truncated transform.

    Builds S(eps) through the requested order and returns the spectral
    norms of P T Q and Q T P, in that order, for
    T = exp(-S) (L0 + eps V) exp(S) and the V that ``gen`` was built from:
    two floats for a scalar ``epsilon``, two arrays for an array of them,
    every epsilon in one pass over stacked matrices.
    In L0's eigen coordinates, each slow/fast block of L0 + eps V is that
    block of ``sd.l0_eigen`` (``gen.l0_blocks``) plus eps times V's
    (``gen.v_blocks``), and S is [[0, A], [B, 0]] with A = <l_s|S|r_f> and
    B = <l_f|S|r_s> (``gen.total_blocks``), so exp(+-S) is fixed by functions of the
    slow_dim x slow_dim matrix X = A B:

        exp(+-S) = [[C, +-Sh A], [+-B Sh, 1 + B G A]],
        C = cosh(sqrt X),  Sh = sinh(sqrt X) / sqrt X,  G = (C - 1) / X.

    One exponential of the 2 slow_dim x 2 slow_dim matrix [[0, 1], [X/4, 0]]
    (``dynamics.expm``, one stacked call for every epsilon) gives
    C4 = cosh(sqrt(X/4)) and Sh4 = sinh(sqrt(X/4)) / sqrt(X/4), and one
    doubling step C = 2 C4^2 - 1, Sh = Sh4 C4, G = Sh4^2 / 2 the rest.
    Only the blocks <l_s|T|r_f> and <l_f|T|r_s> are formed.  With R_s, L_s
    the slow right and left eigenvectors (P = R_s L_s), each off-diagonal
    block has rank at most slow_dim and its norm is that of a slow x fast
    matrix:

        P T Q = R_s <l_s|T|r_f> L_f,   ||P T Q|| = ||K <l_s|T|r_f> J^H||
        Q T P = R_f <l_f|T|r_s> L_s,   ||Q T P|| = ||M <l_f|T|r_s> N^H||

    for the square factors K, J, M, N of the Gram matrices of R_s, L_f^H,
    R_f and L_s^H (``gen.residual_factors``).  No D-long vector is read and
    no D x D exponential, factorization or SVD is formed.  An epsilon whose
    exp(+-S) is too large for these products in float64 gets (inf, inf),
    without overflow warnings.
    """
    k, eps = sd.slow_dim, np.asarray(epsilon)
    e = eps.reshape(-1, 1, 1)
    a, b = gen.total_blocks(eps.reshape(-1), order)
    l_ss, l_sf, l_fs, l_ff = (
        to_dense(l0) + e * to_dense(v) for l0, v in zip(gen.l0_blocks, gen.v_blocks)
    )
    r_slow, l_fast, r_fast, l_slow = gen.residual_factors
    with np.errstate(over="ignore", invalid="ignore"):
        one = np.eye(k)
        generator = np.zeros((e.size, 2 * k, 2 * k), dtype=complex)
        generator[:, :k, k:], generator[:, k:, :k] = one, (a @ b) / 4
        quarter = expm(generator)
        c4, sh4 = quarter[:, :k, :k], quarter[:, :k, k:]
        c, sh, g = 2 * c4 @ c4 - one, sh4 @ c4, sh4 @ sh4 / 2
        sh_a, b_sh, g_a = sh @ a, b @ sh, g @ a
        # <l_s|T|r_f>: the slow rows of exp(-S), through L, into the fast columns of exp(S)
        rows_s = c @ l_ss - sh_a @ l_fs
        rows_f = c @ l_sf - sh_a @ l_ff
        t_sf = rows_s @ sh_a + rows_f + (rows_f @ b) @ g_a
        # <l_f|T|r_s>: the slow columns of exp(S), through L, into the fast rows of exp(-S)
        cols_s = l_ss @ c + l_sf @ b_sh
        cols_f = l_fs @ c + l_ff @ b_sh
        t_fs = cols_f - b_sh @ cols_s + b @ (g_a @ cols_f)
        pq_factor = (r_slow @ t_sf) @ l_fast.conj().T
        qp_factor = r_fast @ (t_fs @ l_slow.conj().T)
    finite = np.isfinite(pq_factor).all(axis=(1, 2)) & np.isfinite(qp_factor).all(axis=(1, 2))
    pq_factor[~finite] = qp_factor[~finite] = 0  # exp(+-S) overflowed: beyond float64
    norms = [np.where(finite, spectral_norm(x), np.inf) for x in (pq_factor, qp_factor)]
    return tuple(float(x[0]) for x in norms) if eps.ndim == 0 else tuple(norms)


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
