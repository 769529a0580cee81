"""Second-order adiabatic elimination via steady-state correlation functions.

For an ancilla with fast dissipative dynamics weakly coupled to a system
through Hermitian pairs A_a (x) S_a, the reduced system generator is fixed
by the integrated correlation matrix of the ancilla deviations.  The
quantum regression theorem turns that integral into a linear solve against
the Bloch matrix of the closed operator set, so no fast-space inverse of
the full generator is ever needed.  The route runs in the real Hermitian
frame: a Hermitian operator is its real coordinates over the orthonormal
basis ``operators.hermitian_frame``, where the generator is a real matrix,
so the steady state and the closure take real arithmetic, every change of
frame is a sparse product, and the covariance is formed for the seed
columns alone.
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
from .operators import hermitian_frame
from .spectral import DEFAULT_ZERO_TOL, decompose, fast_inverse
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
    """(F, R): the Hermitian frame F (``operators.hermitian_frame``) of L0's
    dimension and L0 in it, the real R = conj(F) L0 F^T, by two sparse-dense
    products.  Hermitian X has real coordinates x = conj(F) vec X, and L0 maps
    them by R; R^T is the adjoint generator, since F is unitary and the real
    Hilbert-Schmidt product is the dot product of coordinates."""
    l0 = to_dense(l0)
    frame = hermitian_frame(math.isqrt(l0.shape[0]))
    return frame, (frame.conj() @ (frame @ l0.T).T).real


def steady_state(l0, zero_tol=DEFAULT_ZERO_TOL):
    """Unique fixed point of the generator, trace-normalized.

    No eigendecomposition, and real arithmetic throughout: the kernel
    dimension counts the singular values of the frame generator R of
    :func:`_frame_generator`, L0's own since F is unitary, at most
    ``zero_tol * max(1, s_max)`` (the relative rule ``decompose`` applies to
    eigenvalue moduli).  Tr o L0 = 0 makes R's row 0, the coordinate along
    1/sqrt(d), zero, so with a one-dimensional kernel R with that row
    replaced by the trace functional sqrt(d) e_0 is nonsingular and maps the
    trace-one fixed point to e_0.  Real coordinates give a Hermitian state.
    Without eigenvectors, ``decompose``'s eigenvector-condition refusal
    (DefectiveOperatorError) does not apply.

    Raises DegenerateSteadyStateError when the kernel is not
    one-dimensional, and NotPositiveError when the fixed point fails
    positivity.
    """
    frame, gen = _frame_generator(l0)
    sv = np.linalg.svd(gen, compute_uv=False)
    nullity = int(np.count_nonzero(sv <= zero_tol * max(1.0, sv[0])))
    if nullity != 1:
        raise DegenerateSteadyStateError(f"kernel of the generator has dimension {nullity}")
    # numpy's solve, not scipy's: scipy calls its own bundled LAPACK, whose
    # first call faulted in about 1.3 MB more of library pages
    e0 = np.eye(1, gen.shape[0])[0]
    bordered = gen.copy()
    bordered[0] = math.sqrt(math.isqrt(gen.shape[0])) * e0  # Tr X = sqrt(d) x_0
    sigma = devectorize(frame.T @ np.linalg.solve(bordered, e0))
    low = np.linalg.eigvalsh(sigma).min()
    if low < -PSD_TOL:
        raise NotPositiveError(f"steady state has eigenvalue {low:.3e}")
    return sigma


@dataclass
class BlochSystem:
    """Closed operator set with its mean-deviation evolution matrix.

    ``ops`` is an orthonormal Hermitian basis (under the real part of the
    Hilbert-Schmidt product) spanning the seed deviations and everything
    their adjoint evolution generates.  ``seed_coeffs[:, a]`` expresses the
    a-th seed deviation in that basis.
    """

    ops: list
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
    frame, gen = _frame_generator(l0)
    dim = math.isqrt(gen.shape[0])
    sigma = steady_state(l0, zero_tol=zero_tol)

    means = np.array([np.trace(np.asarray(a) @ sigma).real for a in seed_ops])
    deltas = [np.asarray(a, dtype=complex) - m * np.eye(dim) for a, m in zip(seed_ops, means)]
    seeds = (frame.conj() @ np.reshape(deltas, (-1, dim * dim)).T).real.T
    scale = max(np.linalg.norm(seeds, axis=1), default=1.0) or 1.0

    basis = np.zeros((dim * dim, dim * dim))
    basis[0] = (frame.conj() @ vectorize(sigma)).real
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
    # Tr(E_m dA_a sigma) = c_m . (F vec (dA_a sigma)^T), for E_m = devec(F^T c_m)
    products = np.reshape([(d @ sigma).T for d in deltas], (-1, dim * dim))
    return BlochSystem(
        ops=list((coords @ frame).reshape(-1, dim, dim)),
        bloch=coords @ gen @ coords.T,
        steady_means=means,
        seed_covariance=coords @ (frame @ products.T),
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


def coefficient_matrix(bs):
    """Integrate the regression evolution against the equal-time covariance.

    The correlation matrix entry (i, j) integrates the mean of the i-th
    deviation evolved from the j-th deviation applied to the steady state,
    which the regression theorem closes as -M^{-1} C.  Only the seed block
    is read, -s^T M^{-1} (C s) over the seed coordinates s, so the solve
    takes the k seed columns C s of the covariance as its right-hand sides.
    """
    k = bs.seed_count
    if len(bs.ops) == 0:
        zero = np.zeros((k, k), dtype=complex)
        return CoefficientMatrix(zero, zero.copy(), zero.copy())
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
