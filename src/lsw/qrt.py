"""Second-order adiabatic elimination via steady-state correlation functions.

For an ancilla with fast dissipative dynamics weakly coupled to a system
through Hermitian pairs A_a (x) S_a, the reduced system generator is fixed
by the integrated correlation matrix of the ancilla deviations.  The
quantum regression theorem turns that integral into a linear solve against
the Bloch matrix of the closed operator set, so no fast-space inverse of
the full generator is ever needed.  The route runs in the real Hermitian
frame: a Hermitian operator is its real coordinates over the pair frame
``spectral.hermitian_frame`` of every |i><j|, where the generator is a real
matrix, so the steady state and the closure take real arithmetic, every
change of frame is index arithmetic (``spectral.frame_coordinates``,
``frame_operators`` and ``frame_generator``), and the covariance is formed
for the seed columns alone.

The Bloch matrix M must be stable before it is inverted.  By Lindblad's
dissipation inequality (Lindblad 1976, Commun. Math. Phys. 48, 119) the
steady-state-weighted Gram matrix of the closure operators is a Lyapunov
matrix for M, so two Cholesky factorizations certify stability
(:func:`stability_certified`); only when they fail does the dense
eigenvalue test run, the one check that refuses.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .exceptions import (
    DegenerateSteadyStateError,
    DimensionMismatchError,
    NotPositiveError,
    SingularBlochMatrixError,
    ValidationError,
)
from .spectral import (
    DEFAULT_ZERO_TOL,
    decompose,
    fast_inverse,
    frame_coordinates,
    frame_generator,
    frame_operators,
    hermitian_frame,
)
from .superop import (
    HERM_TOL,
    devectorize,
    hamiltonian_superop,
    lift,
    sandwich_superop,
    to_dense,
    vectorize,
)

CLOSURE_TOL = 1e-10
PSD_TOL = 1e-10  # most negative steady-state eigenvalue accepted
STABILITY_TOL = 1e-12  # largest Bloch eigenvalue real part accepted, relative
RATE_TOL = 1e-9  # dissipation rates within +-RATE_TOL are zero


@dataclass
class AncillaModel:
    """Fast ancilla generator plus Hermitian coupling pairs (A_a, S_a): the
    generator L0 (x) 1_S + V on A (x) S, with V = -i[epsilon sum_a A_a (x) S_a, .].
    The one place a perturbation is defined, assembled or measured."""

    l0: np.ndarray  # superoperator on the ancilla space, (dA**2, dA**2)
    couplings: Sequence  # (ancilla_op, system_op) pairs
    epsilon: float = 1.0

    @property
    def dim_s(self):
        """System dimension, read from its operators (1 without couplings)."""
        return np.shape(self.couplings[0][1])[0] if self.couplings else 1

    def validate(self):
        shape = np.shape(self.l0)
        dim_a = math.isqrt(shape[0]) if len(shape) == 2 else 0
        if len(shape) != 2 or shape[0] != shape[1] or dim_a**2 != shape[0]:
            raise DimensionMismatchError(f"l0 has shape {shape}, expected (d**2, d**2)")
        for i, (a, s) in enumerate(self.couplings):
            for name, op, d in (("ancilla", a, dim_a), ("system", s, self.dim_s)):
                op = np.asarray(op)
                if op.shape != (d, d):
                    raise DimensionMismatchError(
                        f"coupling {i}: {name} operator has shape {op.shape}, expected ({d}, {d})"
                    )
                if np.max(np.abs(op - op.conj().T)) > HERM_TOL:
                    raise ValidationError(f"coupling {i}: {name} operator not Hermitian")
        return self

    def coupling_hamiltonian(self):
        """H = sum_a A_a (x) S_a on A (x) S, without epsilon (zero without couplings)."""
        hdim = math.isqrt(self.l0.shape[0]) * self.dim_s
        return sum((np.kron(a, s) for a, s in self.couplings), np.zeros((hdim, hdim), complex))

    def perturbation(self):
        """V = -i[epsilon H, .] on the row-stacked A (x) S space, as CSR."""
        return hamiltonian_superop(self.epsilon * self.coupling_hamiltonian(), sparse=True)

    def perturbation_norm(self):
        """||V||_2 without assembling V: |epsilon| (h_max - h_min) over the
        eigenvalues h of H.  -i[H, .] is normal with eigenvalues -i(h_i - h_j),
        so its largest singular value is the spread of H's spectrum."""
        h = np.linalg.eigvalsh(self.coupling_hamiltonian())
        return abs(self.epsilon) * float(h[-1] - h[0])

    def full_space(self):
        """(L0, V) on A (x) S as CSR, the one place either is assembled:
        L0 = L_A (x) 1_S by ``lift`` and V by ``perturbation``."""
        return lift(self.l0, self.dim_s), self.perturbation()


def _frame_generator(l0):
    """(F, R): the real Hermitian frame F (``spectral.hermitian_frame``) of
    every |i><j| of L0's operator space, i d + j in row-stacked order, and
    L0 in it, the real R = conj(F) L0 F^T.  Hermitian X has real coordinates
    x = conj(F) vec X (``spectral.frame_coordinates``), and L0 maps them by
    R; R^T is the adjoint generator, since F is unitary and the real
    Hilbert-Schmidt product is the dot product of coordinates.  F is applied
    by index arithmetic, so there is no d**4 matrix to build."""
    dim = math.isqrt(np.shape(l0)[0])
    frame = hermitian_frame(*np.divmod(np.arange(dim * dim), dim))
    return frame, frame_generator(frame, to_dense(l0), conj=True)


def steady_state(l0, zero_tol=DEFAULT_ZERO_TOL, framed=None):
    """Unique fixed point of the generator, trace-normalized.

    No eigendecomposition, and real arithmetic throughout: the kernel
    dimension counts the singular values of the frame generator R of
    :func:`_frame_generator`, L0's own since F is unitary, at most
    ``zero_tol * max(1, s_max)`` (the relative rule ``decompose`` applies to
    eigenvalue moduli).  The trace functional is the sum of the d diagonal
    coordinates, t = F vec 1; Tr o L0 = 0 makes t^T R = 0, so R's row 0, of
    |0><0|, is minus the sum of the other diagonal rows, and with a
    one-dimensional kernel R with that row replaced by t is nonsingular and
    maps the trace-one fixed point to e_0.  Real coordinates give a
    Hermitian state.  Without eigenvectors, ``decompose``'s
    eigenvector-condition refusal (DefectiveOperatorError) does not apply.

    ``framed`` is ``_frame_generator(l0)`` when the caller has built it.
    Raises DegenerateSteadyStateError when the kernel is not
    one-dimensional, and NotPositiveError when the fixed point fails
    positivity.
    """
    frame, gen = framed or _frame_generator(l0)
    sv = np.linalg.svd(gen, compute_uv=False)
    nullity = int(np.count_nonzero(sv <= zero_tol * max(1.0, sv[0])))
    if nullity != 1:
        raise DegenerateSteadyStateError(f"kernel of the generator has dimension {nullity}")
    # numpy's solve, not scipy's: scipy calls its own bundled LAPACK, whose
    # first call faulted in about 1.3 MB more of library pages
    bordered = gen.copy()
    bordered[0] = frame_coordinates(frame, np.eye(math.isqrt(gen.shape[0])).ravel()).real
    x = np.linalg.solve(bordered, np.eye(1, gen.shape[0])[0])
    sigma = devectorize(frame_operators(frame, x))
    low = np.linalg.eigvalsh(sigma).min()
    if low < -PSD_TOL:
        raise NotPositiveError(f"steady state has eigenvalue {low:.3e}")
    return sigma


@dataclass
class BlochSystem:
    """Closed operator set with its mean-deviation evolution matrix.

    ``ops`` stacks an orthonormal Hermitian basis (under the real part of the
    Hilbert-Schmidt product) spanning the seed deviations and everything
    their adjoint evolution generates.  ``seed_coeffs[:, a]`` expresses the
    a-th seed deviation in that basis.
    """

    ops: np.ndarray  # (n, d, d), E_m = ops[m]
    bloch: np.ndarray  # M with d<dA_i>/dt = sum_k M_ik <dA_k>
    steady_means: np.ndarray  # <A_a> over the seed operators
    seed_covariance: np.ndarray  # Tr(E_m dA_a sigma), shape (len(ops), n_seeds)
    seed_coeffs: np.ndarray  # real, shape (len(ops), n_seeds)
    sigma: np.ndarray
    seed_count: int


def close_operator_set(l0, seed_ops, zero_tol=DEFAULT_ZERO_TOL):
    """Close the seed operators under the adjoint evolution.

    Works in the real coordinates of :func:`_frame_generator`, where the
    adjoint generator is R^T and the real Hilbert-Schmidt product is a dot
    product.  The seed deviations, then in turn the images of the vectors
    each pass added, are orthonormalized against a basis whose first row is
    the direction of sigma; since Tr(X sigma) = <sigma, X>, that row keeps
    every later vector a deviation and is dropped at the end.  A pass
    projects its whole block off the basis it starts from with two block
    passes, then orthonormalizes the block's vectors one by one, two passes
    each, against those the block has added, deflating any that fall below
    ``CLOSURE_TOL`` of the largest seed.  The deviation space is invariant,
    so the loop ends at the latest once it is spanned.  ``zero_tol`` is the
    kernel rule of :func:`steady_state`.
    """
    frame, gen = framed = _frame_generator(l0)
    dim = math.isqrt(gen.shape[0])
    sigma = steady_state(l0, zero_tol=zero_tol, framed=framed)

    means = np.array([np.trace(np.asarray(a) @ sigma).real for a in seed_ops])
    deltas = [np.asarray(a, dtype=complex) - m * np.eye(dim) for a, m in zip(seed_ops, means)]
    seeds = frame_coordinates(frame, np.reshape(deltas, (-1, dim * dim)).T, True).real.T
    scale = max(np.linalg.norm(seeds, axis=1), default=1.0) or 1.0

    basis = np.zeros((dim * dim, dim * dim))
    basis[0] = frame_coordinates(frame, vectorize(sigma), True).real
    basis[0] /= np.linalg.norm(basis[0])
    size = 1

    def adjoin(block):
        """Append what ``block`` adds to the basis; return the added rows."""
        nonlocal size
        start = size
        for _ in range(2):
            block = block - (block @ basis[:start].T) @ basis[:start]
        for vec in block:
            if size == dim * dim:  # deviation space spanned
                break
            for _ in range(2):
                vec = vec - basis[start:size].T @ (basis[start:size] @ vec)
            norm = np.linalg.norm(vec)
            if norm > CLOSURE_TOL * scale:
                basis[size] = vec / norm
                size += 1
        return basis[start:size]

    frontier = adjoin(seeds)
    while frontier.size and size < dim * dim:
        frontier = adjoin(frontier @ gen)

    coords = basis[1:size]
    # Tr(E_m dA_a sigma) = c_m . (conj(F) vec(dA_a sigma)), for E_m = devec(F^T c_m)
    products = np.reshape([d @ sigma for d in deltas], (-1, dim * dim))
    return BlochSystem(
        ops=frame_operators(frame, coords.T).T.reshape(-1, dim, dim),
        bloch=coords @ gen @ coords.T,
        steady_means=means,
        seed_covariance=coords @ frame_coordinates(frame, products.T, True),
        seed_coeffs=coords @ seeds.T,
        sigma=sigma,
        seed_count=len(deltas),
    )


@dataclass
class CoefficientMatrix:
    """Integrated deviation-correlation matrix and its two generator parts."""

    a_matrix: np.ndarray
    dissipation: np.ndarray  # A + A†, Hermitian
    hamiltonian_part: np.ndarray  # (A - A†) / 2i, Hermitian

    @property
    def eigmin_dissipation(self):
        if self.dissipation.size == 0:
            return 0.0
        return float(np.linalg.eigvalsh(self.dissipation).min())


def stability_certified(bs):
    """Whether a Lyapunov certificate proves every eigenvalue of the Bloch
    matrix M to have real part at most -tau, which the eigenvalue test of
    :func:`coefficient_matrix` would accept.

    With E_m = ``bs.ops[m]``, a deviation X = sum_m c_m E_m flows as
    c' = M^T c, and G_mn = Re Tr(sigma E_m E_n), formed as Re(Y Y^H) over
    the rows Y_m = vec(E_m sigma^(1/2)), gives Tr(sigma X^2) = c^T G c.
    Lindblad's dissipation inequality makes that non-increasing, so
    G M^T + M G is negative semidefinite.  The certificate asks for more:
    Cholesky factorizations of G and of H = -(G M^T + M G) / 2 - tau G.  For
    an eigenpair M^T v = lambda v, v^H H v = -(Re lambda + tau) v^H G v, so
    both succeeding gives Re lambda < -tau for every eigenvalue, and
    tau >= STABILITY_TOL max(1, ||M||_F) >= STABILITY_TOL max(1, rho(M)).
    tau also carries a rounding allowance of n eps ||M||_F sigma_max /
    sigma_min: H's products and the factorizations round at about
    n eps ||M||_F ||G||, and for orthonormal E_m the eigenvalues of G lie
    in [sigma_min, sigma_max], so relative to G that is the allowance.  A
    sigma singular to rounding (sigma_min <= eps sigma_max: a pure steady
    state) leaves no such bound, and a complex, non-finite or empty M no
    such proof; these return False, as does any failed factorization.
    """
    m = bs.bloch
    if m.size == 0 or np.iscomplexobj(m) or not np.isfinite(m).all():
        return False
    eps = np.finfo(float).eps
    p, u = np.linalg.eigh(bs.sigma)
    if not p[0] > eps * p[-1]:
        return False
    root = (u * np.sqrt(p)) @ u.conj().T
    y = (np.reshape(bs.ops, (-1, p.size)) @ root).reshape(m.shape[0], -1)
    gram = y.real @ y.real.T
    gram += y.imag @ y.imag.T
    del y
    fro = float(np.linalg.norm(m))
    tau = STABILITY_TOL * max(1.0, fro) + m.shape[0] * eps * fro * p[-1] / p[0]
    try:
        np.linalg.cholesky(gram)
        h = gram @ m.T
        h += h.T
        h *= -0.5
        gram *= tau
        h -= gram
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return False
    return True


def coefficient_matrix(bs):
    """Integrate the regression evolution against the equal-time covariance.

    The correlation matrix entry (i, j) integrates the mean of the i-th
    deviation evolved from the j-th deviation applied to the steady state,
    which the regression theorem closes as -M^{-1} C.  Only the seed block
    is read, -s^T M^{-1} (C s) over the seed coordinates s, so the solve
    takes the k seed columns C s of the covariance as its right-hand sides.

    M must be stable: where :func:`stability_certified` cannot prove it,
    the dense eigenvalue test refuses any eigenvalue with real part above
    ``-STABILITY_TOL * max(1, max |lambda|)`` (SingularBlochMatrixError).
    In exact arithmetic the certificate accepts only what that test accepts.
    """
    k = bs.seed_count
    if len(bs.ops) == 0:
        zero = np.zeros((k, k), dtype=complex)
        return CoefficientMatrix(zero, zero.copy(), zero.copy())
    if not stability_certified(bs):
        eigs = np.linalg.eigvals(bs.bloch)
        scale = max(1.0, float(np.abs(eigs).max()))
        if np.max(eigs.real) > -STABILITY_TOL * scale:
            raise SingularBlochMatrixError(
                f"Bloch matrix eigenvalue with real part {np.max(eigs.real):.3e}"
            )
    a = -bs.seed_coeffs.T @ np.linalg.solve(bs.bloch, bs.seed_covariance)
    dissipation = a + a.conj().T
    ham = (a - a.conj().T) / 2j
    return CoefficientMatrix(
        a_matrix=a,
        dissipation=0.5 * (dissipation + dissipation.conj().T),
        hamiltonian_part=0.5 * (ham + ham.conj().T),
    )


def coefficient_matrix_resolvent_oracle(l0, sigma, ops):
    """Independent route: integrate correlators with the fast-space inverse.

    Entry (i, j) is -Tr(dA_i devec(L0inv vec(dA_j sigma))); the slow
    component of dA_j sigma vanishes because its trace does, so the
    fast-space inverse integrates the full correlator.
    """
    l0 = to_dense(l0)
    dim = sigma.shape[0]
    eye = np.eye(dim, dtype=complex)
    sd = decompose(l0)
    finv = fast_inverse(sd)
    deltas = [
        np.asarray(a, dtype=complex) - np.trace(np.asarray(a) @ sigma).real * eye
        for a in ops
    ]
    k = len(deltas)
    out = np.zeros((k, k), dtype=complex)
    for j in range(k):
        integrated = devectorize(finv @ vectorize(deltas[j] @ sigma))
        for i in range(k):
            out[i, j] = -np.trace(deltas[i] @ integrated)
    return out


@dataclass
class EffectiveMasterEquation:
    """System-space generators at first and second order (epsilon excluded),
    assembled on first access from the coefficient matrix and Bloch system."""

    coefficient: CoefficientMatrix
    bloch: BlochSystem = field(repr=False)
    system_ops: list = field(repr=False)

    @cached_property
    def first_order(self):
        """Coupling of the system to the steady means of the ancilla operators."""
        return sum(
            mean * hamiltonian_superop(s)
            for mean, s in zip(self.bloch.steady_means, self.system_ops)
        )

    @cached_property
    def second_order(self):
        """Dissipator over the system operators plus the induced Hamiltonian."""
        ops, diss = self.system_ops, self.coefficient.dissipation
        eye = np.eye(ops[0].shape[0], dtype=complex)
        second = sum(
            0.5 * diss[i, j] * (
                2.0 * sandwich_superop(sj, si)
                - sandwich_superop(si @ sj, eye)
                - sandwich_superop(eye, si @ sj)
            )
            for i, si in enumerate(ops)
            for j, sj in enumerate(ops)
            if diss[i, j] != 0
        )
        return second + hamiltonian_superop(_induced_hamiltonian(self.coefficient, ops))


def effective_master_equation_2(model, zero_tol=DEFAULT_ZERO_TOL):
    """Reduced system generator after eliminating the ancilla, to second order.

    First order couples the system to the steady means of the ancilla
    operators; second order combines the Hermitian part of the coefficient
    matrix into a dissipator over the system coupling operators and its
    anti-Hermitian part into an induced Hamiltonian.  ``zero_tol`` is the
    kernel rule of :func:`steady_state`.
    """
    model.validate()
    bs = close_operator_set(model.l0, [a for a, _ in model.couplings], zero_tol=zero_tol)
    return EffectiveMasterEquation(
        coefficient=coefficient_matrix(bs),
        bloch=bs,
        system_ops=[np.asarray(s, dtype=complex) for _, s in model.couplings],
    )


def _induced_hamiltonian(cm, system_ops):
    """Hermitized sum_ij ham_ij S_i S_j of the coefficient matrix."""
    h = sum(
        cm.hamiltonian_part[i, j] * (si @ sj)
        for i, si in enumerate(system_ops)
        for j, sj in enumerate(system_ops)
    )
    return 0.5 * (h + h.conj().T)


def lindblad_decomposition(cm, system_ops):
    """Diagonalize the dissipative part into jump operators and rates.

    Returns (jumps, h_eff) with jumps a list of (rate, operator) in the
    normalization where the generator is sum_a rate_a * D[op_a] plus
    -i[h_eff, .].  Rates in [-RATE_TOL, RATE_TOL] are dropped as zero;
    anything below -RATE_TOL signals an upstream bug and raises
    NotPositiveError.
    """
    system_ops = [np.asarray(s, dtype=complex) for s in system_ops]
    half = 0.5 * cm.dissipation
    kappa, u = np.linalg.eigh(half)
    jumps = []
    for alpha in range(kappa.size):
        rate = float(kappa[alpha])
        if rate < -RATE_TOL:
            raise NotPositiveError(f"dissipation eigenvalue {rate:.3e} below -{RATE_TOL:.1e}")
        if rate <= RATE_TOL:
            continue
        op = sum(u[i, alpha].conjugate() * system_ops[i] for i in range(len(system_ops)))
        jumps.append((2.0 * rate, op))
    return jumps, _induced_hamiltonian(cm, system_ops)
