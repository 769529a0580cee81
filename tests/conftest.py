import math

import numpy as np
import pytest

from lsw import models, qrt, spectral, superop


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def qubit_table():
    """Decaying qubit at gamma=1, omega=0.2 with its known eigensystem."""
    l0, spec = models.decaying_qubit(gamma=1.0, omega=0.2)
    return l0, spec


def random_density(rng, dim):
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = x @ x.conj().T
    return rho / np.trace(rho)


def random_hermitian(rng, dim):
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (x + x.conj().T)


def lindblad_rhs(spec, rho, perturbation=0.0, epsilon=0.0):
    """Direct evaluation of the master-equation right-hand side, with the
    Hamiltonian H0 + epsilon * perturbation."""
    h = np.asarray(spec.hamiltonian, dtype=complex) + epsilon * np.asarray(perturbation)
    out = -1j * (h @ rho - rho @ h)
    for rate, l in spec.jumps:
        l = np.asarray(l, dtype=complex)
        ldl = l.conj().T @ l
        out = out + rate * (l @ rho @ l.conj().T - 0.5 * (ldl @ rho + rho @ ldl))
    return out


def random_spec(dim, n_jumps, seed):
    """The L0 data that ``models.random_lindblad_model(dim, n_jumps, seed)``
    draws, in its order: H0, then each jump's operator and rate."""
    rng = np.random.default_rng(seed)
    h0 = models._hermitian(rng, dim)
    jumps = []
    for _ in range(n_jumps):
        op = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        jumps.append((float(rng.uniform(0.5, 1.5)), op))
    return superop.LindbladSpec(hdim=dim, hamiltonian=h0, jumps=jumps), rng


def dense_full_space(model):
    """(L0, V) of an ancilla model on its full space, as dense arrays."""
    return tuple(superop.to_dense(m) for m in model.full_space())


def model_fleet():
    """Small collection of generators used by the structural-invariant suite."""
    fleet = []
    l0, spec = models.decaying_qubit(gamma=1.0, omega=0.2)
    fleet.append(("decaying_qubit", superop.to_dense(l0), None))
    for n in (1, 2, 4):
        p = models.SuperradianceParams(n_spins=n, g=0.1, gamma=1.0, omega=0.2)
        m = models.superradiance_model(p)
        fleet.append((f"superradiance_n{n}", superop.to_dense(m.l0), superop.to_dense(m.v)))
    for dim, seed in ((2, 3), (3, 5), (4, 7)):
        l0, v = dense_full_space(models.random_lindblad_model(dim, 2, seed))
        fleet.append((f"random_d{dim}_s{seed}", l0, v))
    return fleet


def vec_sector(model, charges, rho0):
    """The block the CLI's evolve propagates: the coherence orders of rho0 in
    L_A's own basis.  Returns the generator L0 + V there, the state's
    coordinates and the whole-space (row, column) of each coordinate, at
    which an operator's functional is read transposed."""
    basis = spectral.AncillaBasis.vec(model, charges)
    (k, a, b), _, l0, v = basis.block(basis.orders_of(rho0))
    i, j = np.divmod(k, math.isqrt(basis.q_k.size))
    rows, cols = i * model.dim_s + a, j * model.dim_s + b
    return l0 + v, np.asarray(rho0[rows, cols]).reshape(-1), rows, cols


def dense_frame(rows, cols):
    """The Hermitian frame of ``spectral.hermitian_frame`` as a dense matrix,
    built one row at a time from its definition: coordinate m is
    |rows[m]><cols[m]| and its partner p is |cols[m]><rows[m]|; a self-paired
    m keeps e_m, and a pair m < p gives (e_m + e_p) / sqrt2 at row m and
    i (e_m - e_p) / sqrt2 at row p."""
    rows, cols = np.asarray(rows).tolist(), np.asarray(cols).tolist()
    where = {rc: m for m, rc in enumerate(zip(rows, cols))}
    f = np.zeros((len(rows),) * 2, dtype=complex)
    for m, (r, c) in enumerate(zip(rows, cols)):
        p = where[c, r]
        f[m, m] = 1.0 if p == m else np.sqrt(0.5) if m < p else -1j * np.sqrt(0.5)
        if p != m:
            f[m, p] = np.sqrt(0.5) if m < p else 1j * np.sqrt(0.5)
    return f


def u1_symmetric_model(q_a, q_s, seed):
    """Random U(1)-symmetric ancilla model, its charges and its rng.

    L_A's Hamiltonian is block-diagonal in q_A, one jump lowers q_A by 1 and
    one keeps it.  With a system (``q_s`` of size 2 or more), a flip-flop
    A_+ (x) S_- + h.c., as two Hermitian pairs neither of which conserves
    the charge alone, and a z-type pair couple it.  Every coherence order
    q_A[i] - q_A[j] + q_S[a] - q_S[b] is conserved.
    """
    rng = np.random.default_rng(seed)
    q_a, q_s = np.asarray(q_a), np.asarray(q_s)
    order_a, order_s = (np.subtract.outer(q, q) for q in (q_a, q_s))

    def gaussian(order, shift):  # entries (i, j) that shift the charge by `shift`
        x = rng.standard_normal(order.shape) + 1j * rng.standard_normal(order.shape)
        return x * (order == shift)

    spec = superop.LindbladSpec(
        hdim=q_a.size,
        hamiltonian=random_hermitian(rng, q_a.size) * (order_a == 0),
        jumps=[(0.5, gaussian(order_a, -1)), (0.5, gaussian(order_a, 0))],
    )
    couplings = []
    if q_s.size > 1:
        up, down = gaussian(order_a, 1), gaussian(order_s, -1)
        # A_+ (x) S_- + h.c. = (A_x (x) S_x + A_y (x) S_y) / 2
        couplings = [
            (0.5 * (up + up.conj().T), down + down.conj().T),
            (-0.5j * (up - up.conj().T), -1j * (down.conj().T - down)),
            (random_hermitian(rng, q_a.size) * (order_a == 0),
             random_hermitian(rng, q_s.size) * (order_s == 0)),
        ]
    model = qrt.AncillaModel(superop.lindblad_superop(spec), couplings, epsilon=0.7).validate()
    return model, (q_a, q_s), rng
