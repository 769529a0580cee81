"""Ready-made model builders and closed-form reference generators.

The flagship model is a radiatively decaying spin-1/2 coupled to a
collective nuclear spin through a flip-flop plus z-type interaction.  With
homogeneous couplings (weights 1/sqrt(N)) the nuclear side reduces to a
single spin J = N/2, so the symmetric sector of dimension N+1 carries the
whole dynamics and the fully polarized initial state stays inside it.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError
from .operators import spin_operators, tensor
from .qrt import AncillaModel
from .superop import (
    LindbladSpec,
    factor_order,
    hamiltonian_superop,
    lift,
    lindblad_superop,
    sandwich_superop,
    to_dense,
)


def _qubit_ops():
    sp_, sm_, sz_ = spin_operators(1)
    return sp_, sm_, sp_ @ sm_  # ladder ops and the excited-state projector


@dataclass
class SuperradianceParams:
    """Collective-decay model parameters.

    ``g`` is the overall coupling; with homogeneous weights the collective
    operators carry 1/sqrt(N), so the collective enhancement appears as
    g*sqrt(N) against the emission rate ``gamma`` and detuning ``omega``.
    """

    n_spins: int
    g: float
    gamma: float = 1.0
    omega: float = 0.0

    @classmethod
    def from_sqrt_n_g(cls, n_spins, sqrt_n_g, gamma=1.0, omega=0.0):
        return cls(n_spins=n_spins, g=sqrt_n_g / np.sqrt(n_spins), gamma=gamma, omega=omega)

    @property
    def collective_coupling(self):
        return self.g * np.sqrt(self.n_spins)

    def perturbative_flag(self, gap=None):
        """True when the collective coupling crowds the unperturbed scales."""
        scale = self.gamma if gap is None else min(self.gamma, gap)
        return self.collective_coupling > 0.5 * scale


@dataclass
class SuperradianceModel:
    ancilla: AncillaModel  # electron ancilla, nuclear system: the one coupling definition
    l_a: np.ndarray  # electron block of L0, the ancilla's generator
    l0: object  # lift of l_a to the full space (CSR)
    v: object  # the ancilla's perturbation (CSR)
    iz: np.ndarray
    iplus: np.ndarray
    iminus: np.ndarray
    dims: tuple  # (electron, nuclear) Hilbert dimensions
    charges: tuple  # (electron, nuclear) integer charge of each basis state
    initial_state: np.ndarray  # fully polarized nuclei, electron in its dark state
    electron_steady: np.ndarray
    params: SuperradianceParams

    @property
    def iz_full(self):
        return tensor(np.eye(2), self.iz)

    @property
    def charge(self):
        """Charge of each full-space basis state: the electron's plus the nuclear."""
        return np.add.outer(*self.charges).reshape(-1)


def collective_ops(n_spins):
    """Collective operators (I+, I-, Iz) with homogeneous 1/sqrt(N) weights."""
    jp, jm, jz = spin_operators(n_spins)
    root = np.sqrt(n_spins)
    return jp / root, jm / root, jz / root


def superradiance_model(params):
    """Assemble the collective-decay model from its ancilla form.

    The unperturbed part acts on the electron factor only: decay at rate
    gamma and detuning omega on the excited-state projector, so L0 is the
    lift of the electron block.  The perturbation is the ancilla's,
    -i g [ (1/2)(s+ I- + s- I+) + s+ s- Iz , . ].

    The model declares the charge M = s_z + I_z in integer steps: the
    electron's excitation number plus the ladder index of I_z.  The
    Hamiltonian conserves it and the jump s- lowers it by one, so the
    coherence order M - M' of a state is conserved.
    """
    ancilla = superradiance_ancilla(params)
    n = int(params.n_spins)
    ip, im, iz = collective_ops(n)
    dn = n + 1

    electron_steady = np.zeros((2, 2), dtype=complex)
    electron_steady[1, 1] = 1.0  # the decay dark state
    polarized = np.zeros((dn, dn), dtype=complex)
    polarized[0, 0] = 1.0  # highest-weight state m = N/2 comes first
    return SuperradianceModel(
        ancilla=ancilla,
        l_a=ancilla.l0,
        l0=lift(ancilla.l0, dn),
        v=ancilla.perturbation(sparse=True),
        iz=iz,
        iplus=ip,
        iminus=im,
        dims=(2, dn),
        charges=(np.array([1, 0]), np.arange(n, -1, -1)),
        initial_state=tensor(electron_steady, polarized),
        electron_steady=electron_steady,
        params=params,
    )


def superradiance_ancilla(params):
    """The collective-decay model with the electron as the ancilla.

    The interaction splits into Hermitian pairs: (sx/2, Ix), (sy/2, Iy) for
    the flip-flop and (s+s-, Iz) for the z term, with epsilon = g.
    """
    n = int(params.n_spins)
    if n < 1:
        raise ValidationError("n_spins must be >= 1")
    sp_, sm_, ne = _qubit_ops()
    sx = sp_ + sm_
    sy = -1j * (sp_ - sm_)
    ip, im, iz = collective_ops(n)
    ix = 0.5 * (ip + im)
    iy = (ip - im) / 2j
    l0_el, _ = decaying_qubit(params.gamma, params.omega)
    couplings = [(0.5 * sx, ix), (0.5 * sy, iy), (ne, iz)]
    return AncillaModel(l0=l0_el, couplings=couplings, epsilon=params.g)


def decaying_qubit(gamma=1.0, omega=0.0):
    """Single decaying qubit: the unperturbed electron block on its own."""
    sp_, sm_, ne = _qubit_ops()
    spec = LindbladSpec(hdim=2, hamiltonian=omega * ne, jumps=[(gamma, sm_)])
    l0, _ = lindblad_superop(spec, sparse=False)
    return l0, spec


# electron-block eigensystem used for golden block comparisons: right
# vectors as columns, biorthonormal left vectors as rows (plain dot pairing)
_ELECTRON_RIGHT = np.array(
    [
        [0, 0, 0, 1],  # |dn><dn|
        [0, 0, 1, 0],  # |dn><up|
        [0, 1, 0, 0],  # |up><dn|
        [1, 0, 0, -1],  # |up><up| - |dn><dn|
    ],
    dtype=complex,
).T
_ELECTRON_LEFT = np.array(
    [
        [1, 0, 0, 1],  # <up,up| + <dn,dn|
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [1, 0, 0, 0],
    ],
    dtype=complex,
)


def electron_eigenvalues(gamma, omega):
    return np.array(
        [0.0, -gamma / 2 + 1j * omega, -gamma / 2 - 1j * omega, -gamma], dtype=complex
    )


def eigenbasis_blocks(model):
    """Blocks of the perturbation in the electron eigenbasis.

    Returns a 4x4 array of nuclear superoperators B[i, j] such that the
    full perturbation is sum_ij |r_i><l_j| (x) B[i, j].  B[0, 0] is the
    slow block, B[1:, 0] the upward block, B[0, 1:] the downward block and
    B[1:, 1:] the fast block.
    """
    da, dn = model.dims
    dsq = dn * dn
    v = to_dense(model.v)

    # electron pair (i j) as the outer index, nuclear pair (a b) inner
    order = factor_order(da, dn)
    v_fact = v[np.ix_(order, order)]

    blocks = np.empty((4, 4), dtype=object)
    for i in range(4):
        li = _ELECTRON_LEFT[i]
        for j in range(4):
            rj = _ELECTRON_RIGHT[:, j]
            acc = np.zeros((dsq, dsq), dtype=complex)
            for u in range(4):
                if li[u] == 0:
                    continue
                row = v_fact[u * dsq : (u + 1) * dsq]
                for w in range(4):
                    if rj[w] == 0:
                        continue
                    acc += li[u] * rj[w] * row[:, w * dsq : (w + 1) * dsq]
            blocks[i, j] = acc
    return blocks


def second_order_rates(params):
    """Effective collective decay rate and frequency shift at second order.

    Derived by eliminating the electron: the flip-flop vertex carries g/2,
    and the intermediate coherence relaxes at gamma/2 -+ i*omega, giving
    rate = g**2 gamma / (4 ((gamma/2)**2 + omega**2)) and
    shift = -g**2 omega / (4 ((gamma/2)**2 + omega**2)).
    """
    denom = (params.gamma / 2.0) ** 2 + params.omega**2
    rate = params.g**2 * params.gamma / (4.0 * denom)
    shift = -(params.g**2) * params.omega / (4.0 * denom)
    return rate, shift


def collective_decay_generator(model, rate, shift):
    """Nuclear-space generator: collective decay plus an I+I- rotation."""
    dn = model.dims[1]
    eye = np.eye(dn, dtype=complex)
    ipim = model.iplus @ model.iminus
    out = rate * (
        sandwich_superop(model.iminus, model.iplus)
        - 0.5 * (sandwich_superop(eye, ipim) + sandwich_superop(ipim, eye))
    )
    out = out + shift * (-1j) * (
        sandwich_superop(ipim, eye) - sandwich_superop(eye, ipim)
    )
    return out


def third_order_generator(model):
    """Third-order nuclear generator assembled from the electron eigenvalues.

    Four terms, one per intermediate path through the fast space; each pairs
    two flip vertices (g/2 each) with one z vertex (g).
    """
    p = model.params
    lam2 = -p.gamma / 2 + 1j * p.omega
    lam3 = np.conj(lam2)
    lam4 = -p.gamma + 0j
    g = p.g
    ip, im, iz = model.iplus, model.iminus, model.iz
    dn = model.dims[1]
    eye = np.eye(dn, dtype=complex)
    out = (1j * g**3 / (4 * lam2**2)) * (
        sandwich_superop(im, ip @ iz) - sandwich_superop(eye, ip @ iz @ im)
    )
    out += (-1j * g**3 / (4 * lam2 * lam4)) * (
        sandwich_superop(iz @ im, ip) - sandwich_superop(im, ip @ iz)
    )
    out += (1j * g**3 / (4 * lam3**2)) * (
        sandwich_superop(ip @ iz @ im, eye) - sandwich_superop(iz @ im, ip)
    )
    out += (-1j * g**3 / (4 * lam3 * lam4)) * (
        sandwich_superop(iz @ im, ip) - sandwich_superop(im, ip @ iz)
    )
    return out


def regrouped_generator(model):
    """Resummed form of orders two plus three at zero detuning.

    The commutator correction to the collective jump exponentiates into a
    z-rotation of the jump operator with angle 2 g / gamma, leaving the
    anticommutator and an extra Hermitian term; the leftover differs from
    the plain sum at relative order (g/gamma)**2.  Only valid at omega = 0.
    """
    p = model.params
    if p.omega != 0:
        raise ValidationError("regrouped form derived at omega = 0 only")
    rate, _ = second_order_rates(p)
    theta = 2.0 * p.g / p.gamma
    dn = model.dims[1]
    eye = np.eye(dn, dtype=complex)
    phase = np.diag(np.exp(-1j * theta * np.diag(model.iz)))
    jump = phase @ model.iminus
    ipim = model.iplus @ model.iminus
    out = rate * (
        sandwich_superop(jump, jump.conj().T)
        - 0.5 * (sandwich_superop(eye, ipim) + sandwich_superop(ipim, eye))
    )
    h_extra = -(p.g / p.gamma) * rate * (model.iplus @ model.iz @ model.iminus)
    out = out + hamiltonian_superop(h_extra)
    return out


def random_lindblad_model(dim, n_jumps, seed):
    """Random Hermitian Hamiltonian, Gaussian jump operators, seeded."""
    if dim < 2 or n_jumps < 0 or seed < 0:
        raise ValidationError("random model needs dimension >= 2, jumps >= 0 and seed >= 0")
    rng = np.random.default_rng(seed)

    def herm(d):
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return 0.5 * (x + x.conj().T)

    h0 = herm(dim)
    jumps = []
    for _ in range(n_jumps):
        op = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        jumps.append((float(rng.uniform(0.5, 1.5)), op))
    perturbation = herm(dim)
    return LindbladSpec(hdim=dim, hamiltonian=h0, jumps=jumps, perturbations=[perturbation])


def random_ancilla_model(dim_ancilla, n_couplings, seed, dim_system=2):
    """Random dissipative ancilla with Hermitian coupling pairs."""
    if dim_ancilla < 2 or n_couplings < 1 or dim_system < 1 or seed < 0:
        raise ValidationError(
            "random ancilla needs dimension >= 2, couplings >= 1, system_dimension >= 1, seed >= 0"
        )
    rng = np.random.default_rng(seed)

    def herm(d):
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return 0.5 * (x + x.conj().T)

    spec = LindbladSpec(
        hdim=dim_ancilla,
        hamiltonian=herm(dim_ancilla),
        jumps=[
            (
                float(rng.uniform(0.5, 1.5)),
                rng.standard_normal((dim_ancilla, dim_ancilla))
                + 1j * rng.standard_normal((dim_ancilla, dim_ancilla)),
            )
            for _ in range(2)
        ],
    )
    l0, _ = lindblad_superop(spec, sparse=False)
    couplings = [(herm(dim_ancilla), herm(dim_system)) for _ in range(n_couplings)]
    return AncillaModel(l0=to_dense(l0), couplings=couplings, epsilon=1.0)


def degenerate_slow_model(seed, dim=3):
    """Generator with a two-dimensional slow space plus a random perturbation.

    One jump empties level 1 into level 0 while level 2 stays dark, so two
    populations are steady; distinct level energies push every coherence
    into the fast set.  The Hermitian perturbation mixes everything.
    """
    rng = np.random.default_rng(seed)
    energies = np.concatenate([[0.0], np.sort(rng.uniform(0.8, 2.5, size=dim - 1))])
    h0 = np.diag(energies).astype(complex)
    jump = np.zeros((dim, dim), dtype=complex)
    jump[0, 1] = 1.0
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    perturbation = 0.5 * (x + x.conj().T)
    return LindbladSpec(
        hdim=dim,
        hamiltonian=h0,
        jumps=[(float(rng.uniform(0.8, 1.2)), jump)],
        perturbations=[perturbation],
    )
