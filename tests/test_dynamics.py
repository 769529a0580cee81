import time
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import u1_symmetric_model, vec_sector
from lsw import dynamics, models
from lsw.dynamics import (
    DENSE_STEP_FLOOR,
    DENSE_STEP_RATIO,
    emission_intensity,
    evolve,
    min_state_eigenvalue,
    one_norm,
    trace_drift,
)
from lsw.exceptions import DimensionMismatchError, ToleranceNotMetError, ValidationError
from lsw.operators import spin_operators
from lsw.superop import devectorize, lift, to_dense, vectorize

# evolve steps densely when spans * k^3 <= DENSE_STEP_RATIO * ||G||_1 t_max
# + DENSE_STEP_FLOOR * steps; the tests below pick inputs on both sides of
# that rule and check which way each run took


def decaying_qubit_with_spectator(dim_s):
    """Qubit decay (x) 1_S, the excited-state projector and the state that
    starts excited next to a maximally mixed spectator.  The spectator
    multiplies the sector dimension by dim_s**2 and leaves ||G||_1 alone:
    dim_s=1 steps densely on the grids below, dim_s=10 takes expm_multiply.
    """
    l0, _ = models.decaying_qubit(gamma=1.0, omega=0.0)
    jp, jm, _ = spin_operators(1)
    rho0 = np.zeros((2, 2), dtype=complex)
    rho0[0, 0] = 1.0
    spectator = np.eye(dim_s) / dim_s
    return lift(l0, dim_s), np.kron(rho0, spectator), np.kron(jp @ jm, np.eye(dim_s))


def test_zero_generator_constant_trajectory(rng):
    rho0 = np.eye(3, dtype=complex) / 3
    times = np.linspace(0, 4, 9)
    traj = evolve(np.zeros((9, 9), dtype=complex), rho0, times)
    assert np.abs(traj.states - vectorize(rho0)).max() == 0.0


def test_qubit_decay_analytic():
    times = np.linspace(0, 6, 61)
    for dim_s, stepper in ((1, "expm"), (10, "expm_multiply")):
        gen, rho0, excited_op = decaying_qubit_with_spectator(dim_s)
        traj = evolve(gen, rho0, times)
        assert traj.stepper == stepper
        excited = traj.expectation(excited_op).real
        assert np.abs(excited - np.exp(-times)).max() < 1e-9


def test_dense_and_sparse_paths_agree():
    p = models.SuperradianceParams.from_sqrt_n_g(4, 0.2, gamma=1.0, omega=0.2)
    m = models.superradiance_model(p)
    gen = to_dense(m.l0 + m.v)
    y0 = vectorize(m.initial_state)
    # the whole space, k = 100 and ||G||_1 = 2.12, five steps: dense from
    # t_max = 15.4
    for t_max, stepper in ((10.0, "expm_multiply"), (40.0, "expm")):
        times = np.linspace(0, t_max, 6)
        reference = np.array([expm(gen * t) @ y0 for t in times])
        for g in (gen, sp.csr_matrix(gen)):
            traj = evolve(g, m.initial_state, times)
            assert traj.stepper == stepper
            assert np.abs(traj.states - reference).max() < 1e-10
            assert trace_drift(traj) < 1e-8
            for k in (0, len(times) // 2, len(times) - 1):
                state = devectorize(traj.states[k])
                assert np.abs(state - state.conj().T).max() < 1e-8


def test_steady_state_gives_zero_intensity():
    l0, _ = models.decaying_qubit(gamma=1.0, omega=0.2)
    sigma = np.zeros((2, 2), dtype=complex)
    sigma[1, 1] = 1.0
    times = np.linspace(0, 3, 7)
    traj = evolve(l0, sigma, times)
    _, _, jz = spin_operators(1)
    intensity = emission_intensity(traj, jz, to_dense(l0))
    assert np.abs(intensity).max() < 1e-12


def test_intensity_matches_finite_difference():
    # pure collective decay: intensity equals the loss rate of <Iz>, checked
    # against a centered finite difference of the expectation value
    p = models.SuperradianceParams(n_spins=4, g=0.1, gamma=1.0, omega=0.0)
    m = models.superradiance_model(p)
    rate, _ = models.second_order_rates(p)
    gen = models.collective_decay_generator(m, rate, 0.0)
    dn = m.dims[1]
    mu0 = np.zeros((dn, dn), dtype=complex)
    mu0[0, 0] = 1.0
    h = 1e-4 / rate
    times = np.array([0.0, h, 2 * h])
    traj = evolve(gen, mu0, times)
    intensity = emission_intensity(traj, m.iz, gen)
    iz_vals = traj.expectation(m.iz).real
    finite_diff = -(iz_vals[2] - iz_vals[0]) / (2 * h)
    assert abs(intensity[1] - finite_diff) <= 1e-5 * abs(finite_diff)
    # initial intensity: rate times the ladder expectation, with the 1/sqrt(N)
    # step in <Iz> per emission from the normalized collective operators
    expected0 = (
        rate * np.trace((m.iplus @ m.iminus) @ mu0).real / np.sqrt(p.n_spins)
    )
    assert abs(intensity[0] - expected0) < 1e-10


def test_collective_burst_appears_for_eight_spins():
    p = models.SuperradianceParams.from_sqrt_n_g(8, 0.2, gamma=1.0, omega=0.2)
    m = models.superradiance_model(p)
    gen = to_dense(m.l0 + m.v)
    times = np.linspace(0.0, 1200.0, 241)
    traj = evolve(gen, m.initial_state, times)
    intensity = emission_intensity(traj, m.iz_full, gen)
    baseline = intensity[np.searchsorted(times, 5.0)]
    assert intensity.max() > 1.2 * baseline
    assert min_state_eigenvalue(traj) > -1e-6
    assert trace_drift(traj) < 1e-8


def test_dense_path_non_uniform_grid():
    times = np.array([0.0, 0.3, 0.35, 1.0, 2.7])
    for dim_s, stepper in ((1, "expm"), (10, "expm_multiply")):
        gen, rho0, excited_op = decaying_qubit_with_spectator(dim_s)
        traj = evolve(gen, rho0, times)
        assert traj.stepper == stepper
        excited = traj.expectation(excited_op).real
        assert np.abs(excited - np.exp(-times)).max() < 1e-9


def test_validation_errors():
    l0, _ = models.decaying_qubit()
    rho0 = np.zeros((2, 2), dtype=complex)
    rho0[0, 0] = 1.0
    with pytest.raises(ValidationError):
        evolve(l0, rho0, np.array([1.0, 2.0]))  # must start at 0
    with pytest.raises(ValidationError):
        evolve(l0, rho0, np.array([0.0, 2.0, 1.0]))
    with pytest.raises(ValidationError):
        evolve(l0, 2 * rho0, np.array([0.0, 1.0]))


def test_nan_initial_state_refused():
    l0, _ = models.decaying_qubit()
    rho0 = np.full((2, 2), np.nan, dtype=complex)
    with pytest.raises(ValidationError, match="trace"):
        evolve(l0, rho0, np.array([0.0, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_generator_is_refused(bad):
    # a NaN norm slips past a plain `scale > MAX_NORM_TIME`
    gen = to_dense(models.decaying_qubit()[0]).copy()
    gen[0, 0] = bad
    with pytest.raises(ToleranceNotMetError, match="not finite"):
        evolve(gen, np.eye(2, dtype=complex) / 2, np.array([0.0, 1.0]))


def test_unreachable_tolerance_raises():
    # too stiff: expm_multiply would run for minutes, so it is refused up front
    gen = np.diag([-1e12, -1.0, -1.0, -1e12]).astype(complex)
    rho0 = np.eye(2, dtype=complex) / 2
    times = np.array([0.0, 10.0])
    start = time.perf_counter()
    with pytest.raises(ToleranceNotMetError, match="stiff"):
        evolve(gen, rho0, times)
    assert time.perf_counter() - start < 1.0
    # e^1000 overflows: the non-finite state is the only signal.  With
    # ||G||_1 t_max = 1000, the 4-dim sector steps densely and the 400-dim
    # one takes expm_multiply, as the decaying twin of each shows
    for dim, stepper in ((2, "expm"), (20, "expm_multiply")):
        rho0 = np.eye(dim, dtype=complex) / dim
        decay = evolve(np.diag([-100.0] * dim**2).astype(complex), rho0, times)
        assert decay.stepper == stepper
        assert np.abs(decay.states[-1]).max() == 0.0
        with pytest.raises(ToleranceNotMetError, match="non-finite"):
            evolve(np.diag([100.0] * dim**2).astype(complex), rho0, times)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    rows=st.integers(1, 40),
    cols=st.integers(1, 40),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
    cplx=st.booleans(),
)
def test_one_norm_is_scipys_bit_for_bit(rows, cols, density, seed, cplx):
    # propagate's ||G||_1 without importing scipy.sparse.linalg: the same
    # expression, so the same bits and the same stepper choice
    import scipy.sparse.linalg as spla

    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((rows, cols)) * 10.0 ** rng.uniform(-8, 8, (rows, cols))
    if cplx:
        dense = dense + 1j * rng.standard_normal((rows, cols))
    g = sp.csr_matrix(np.where(rng.random((rows, cols)) < density, dense, 0))
    assert one_norm(g) == spla.norm(g, 1)


def expected_stepper(k, scale, spans, steps, floor):
    dense = spans * k**3 <= DENSE_STEP_RATIO * scale + floor * (steps - 1)
    return "expm" if dense else "expm_multiply"


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    q_a=st.lists(st.integers(0, 3), min_size=2, max_size=4),
    q_s=st.lists(st.integers(0, 2), min_size=1, max_size=3),
    seed=st.integers(0, 2**16),
    two_orders=st.booleans(),
    uniform=st.booleans(),
    stepper=st.sampled_from(["expm", "expm_multiply"]),
)
def test_charge_sector_matches_full_space_expm(q_a, q_s, seed, two_orders, uniform, stepper):
    # the block the CLI's evolve propagates (the coherence orders of rho0,
    # built from the operators in L_A's own basis) and whole-space evolve,
    # the reference, both against expm of the whole-space generator; a
    # system of dimension 1 leaves L_A uncoupled
    model, charges, rng = u1_symmetric_model(q_a, q_s, seed)
    gen = to_dense(sum(model.full_space()))
    charge = np.add.outer(*charges).reshape(-1)
    order = np.subtract.outer(charge, charge)
    # a positive order-0 part, plus one nonzero order when asked and present
    x = rng.standard_normal(order.shape) + 1j * rng.standard_normal(order.shape)
    rho0 = (x @ x.conj().T) * (order == 0)
    orders = [0]
    nonzero = np.unique(order[order != 0])
    if two_orders and nonzero.size:
        orders.append(int(rng.choice(nonzero)))
        rho0 = rho0 + 0.3 * x * (order == orders[1])
    rho0 = rho0 / np.trace(rho0)
    times = np.linspace(0.0, 3.0, 7) if uniform else np.array([0.0, 0.3, 1.1, 3.0])
    inside = np.flatnonzero(np.isin(order.reshape(-1), orders))
    spans = 1 if uniform else times.size - 1

    def norm(g):
        return np.abs(g).sum(axis=0).max()

    floor = DENSE_STEP_FLOOR
    if stepper == "expm_multiply":
        # spaces this small step densely at any scale by the per-point
        # floor; without it, shrink the grid below the rule's threshold for
        # the sector; the whole space, larger and with no smaller norm,
        # stays below it too
        floor = 0.0
        ratio = spans * inside.size**3 / (DENSE_STEP_RATIO * norm(gen) * times[-1])
        times = times * (0.5 * ratio)
    reference = np.array([expm(gen * t) @ vectorize(rho0) for t in times])
    block, y0, rows, cols = vec_sector(model, charges, rho0)
    with mock.patch.object(dynamics, "DENSE_STEP_FLOOR", floor):
        states, used = dynamics.propagate(block, y0, times)
        whole = evolve(gen, rho0, times)
    at = rows * charge.size + cols  # each coordinate's whole-space vec index
    assert np.array_equal(np.sort(at), inside)
    assert np.abs(states - reference[:, at]).max() < 1e-10
    # the sector is closed: nothing reaches the other orders
    assert np.abs(np.delete(reference, inside, axis=1)).max(initial=0.0) < 1e-10
    # a sector the generator barely moves may fall below the threshold
    scale = norm(block.toarray()) * times[-1]
    assert used == expected_stepper(inside.size, scale, spans, times.size, floor)
    assert whole.stepper == expected_stepper(order.size, norm(gen) * times[-1], spans, times.size, floor)
    if stepper == "expm_multiply":
        assert used == whole.stepper == stepper
    assert np.abs(whole.states - reference).max() < 1e-10
    assert trace_drift(whole) < 1e-10
    # the batched eigenvalue scan reads the same numbers as one state at a time
    lows = [np.linalg.eigvalsh(0.5 * (r + r.conj().T)).min() for r in map(devectorize, whole.states)]
    assert min_state_eigenvalue(whole) == float(min(lows))
    # an observable's functional, read transposed at the sector index, gives
    # the whole-space expectation and emission intensity
    op = rng.standard_normal(order.shape) + 1j * rng.standard_normal(order.shape)
    f = op[cols, rows]
    for got, want in (
        (states @ f, whole.expectation(op)),
        (-np.real(states @ (block.T @ f)), emission_intensity(whole, op, gen)),
    ):
        assert np.abs(got - want).max() <= 1e-10 * max(1.0, np.abs(want).max())


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    q_a=st.lists(st.integers(0, 3), min_size=2, max_size=4),
    q_s=st.lists(st.integers(0, 2), min_size=1, max_size=3),
    seed=st.integers(0, 2**16),
    two_orders=st.booleans(),
)
def test_sector_readers_match_full_states(q_a, q_s, seed, two_orders):
    # the evolve task holds only the sector block's states; every reader
    # must give what the whole-space readers give on those states placed at
    # their vec index: the functional and its image under the block to
    # rounding of their terms, the trace and eigenvalue scans bit for bit
    # since the states outside the sector are zero; and the whole-space
    # states, propagated apart, agree to propagation accuracy
    model, charges, rng = u1_symmetric_model(q_a, q_s, seed)
    gen = to_dense(sum(model.full_space()))
    charge = np.add.outer(*charges).reshape(-1)
    order = np.subtract.outer(charge, charge)
    x = rng.standard_normal(order.shape) + 1j * rng.standard_normal(order.shape)
    rho0 = (x @ x.conj().T) * (order == 0)
    nonzero = np.unique(order[order != 0])
    if two_orders and nonzero.size:
        rho0 = rho0 + 0.3 * x * (order == rng.choice(nonzero))
    rho0 = rho0 / np.trace(rho0)
    times = np.linspace(0.0, 2.0, 5)
    block, y0, rows, cols = vec_sector(model, charges, rho0)
    states, used = dynamics.propagate(block, y0, times)
    at = rows * charge.size + cols
    full = np.zeros((times.size, order.size), dtype=complex)
    full[:, at] = states
    placed = dynamics.Trajectory(times, full, used)
    whole = evolve(gen, rho0, times)
    assert np.abs(whole.states - full).max() < 1e-10
    for k in range(times.size):
        assert np.array_equal(devectorize(full[k])[rows, cols], states[k])

    op = rng.standard_normal(order.shape) + 1j * rng.standard_normal(order.shape)
    f = op[cols, rows]
    image = block.T @ f
    terms_image = np.abs(block.T) @ np.abs(f)
    assert np.abs(image - (gen.T @ op.T.reshape(-1))[at]).max() <= 1e-14 * terms_image.max()
    for got, want, terms in (
        (states @ f, placed.expectation(op), np.abs(states) @ np.abs(f)),
        (-np.real(states @ image), emission_intensity(placed, op, gen), np.abs(states) @ terms_image),
    ):
        assert np.all(np.abs(got - want) <= 1e-13 * terms)

    d = order.shape[0]
    traces = full[:, np.arange(d) * (d + 1)].sum(axis=1)
    assert trace_drift(placed) == float(np.max(np.abs(traces - 1.0)))
    assert trace_drift(placed) < 1e-10
    lows = [np.linalg.eigvalsh(0.5 * (r + r.conj().T)).min() for r in map(devectorize, full)]
    assert min_state_eigenvalue(placed) == float(min(lows))


def test_wrong_charge_raises():
    # the flip-flop raises the electron and lowers the nuclei, so a charge
    # that counts the electron with the wrong sign is not conserved by V;
    # whole-space evolve checks the shapes only
    p = models.SuperradianceParams(n_spins=2, g=0.1)
    m = models.superradiance_model(p)
    (q_e, q_n), rho0 = m.charges, m.initial_state
    assert vec_sector(m.ancilla, (q_e, q_n), rho0)[1].size == 10
    with pytest.raises(ValidationError, match="do not conserve"):
        vec_sector(m.ancilla, (-q_e, q_n), rho0)
    with pytest.raises(DimensionMismatchError):
        evolve(m.l0 + m.v, m.electron_steady, np.linspace(0, 1, 3))
