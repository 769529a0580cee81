"""Exact and effective time evolution, observables, emission intensity."""

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .exceptions import ToleranceNotMetError, ValidationError
from .superop import devectorize, to_csr, vectorize

# expm_multiply does not fail on very stiff input, it runs (nearly) forever;
# propagations with ||G||_1 * t_max above this are refused up front
MAX_NORM_TIME = 1e6


@dataclass
class Trajectory:
    """Vectorized states on a fixed time grid."""

    times: np.ndarray
    states: np.ndarray  # shape (n_times, d**2)

    @property
    def hdim(self):
        return int(round(self.states.shape[1] ** 0.5))

    def operator(self, index):
        return devectorize(self.states[index])

    def expectation(self, op):
        """Tr(op rho(t)) along the trajectory."""
        flat = np.asarray(op, dtype=complex).T.reshape(-1)
        return self.states @ flat


def _validate_times(times):
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValidationError("times must be a one-dimensional grid")
    if abs(times[0]) > 0:
        raise ValidationError("time grid must start at 0")
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise ValidationError("times must be strictly increasing")
    return times


def evolve(generator, rho0, times):
    """Propagate rho0 under a fixed generator, landing exactly on `times`.

    Uses the action of the matrix exponential (Al-Mohy & Higham 2011,
    ``scipy.sparse.linalg.expm_multiply``), exact to double precision for a
    time-independent generator.  A uniform grid is one call; any other grid
    is one call per interval.
    """
    times = _validate_times(times)
    rho0 = np.asarray(rho0, dtype=complex)
    trace = np.trace(rho0)
    if abs(trace - 1.0) > 1e-8:
        raise ValidationError(f"initial state has trace {trace:.6g}, expected 1")
    y0 = vectorize(rho0)
    g = to_csr(generator)
    t_max = times[-1]
    scale = spla.norm(g, 1) * t_max
    if scale > MAX_NORM_TIME:
        raise ToleranceNotMetError(
            f"||G||_1 * t_max = {scale:.3g} exceeds {MAX_NORM_TIME:.0e}; "
            "the generator is too stiff to propagate over this span"
        )

    # an overflow shows up as a non-finite state, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        if times.size > 1 and np.array_equal(times, np.linspace(0.0, t_max, times.size)):
            states = spla.expm_multiply(
                g, y0, start=0.0, stop=t_max, num=times.size, endpoint=True
            )
        else:
            states = np.empty((times.size, y0.size), dtype=complex)
            states[0] = y0
            for i, dt in enumerate(np.diff(times), start=1):
                states[i] = spla.expm_multiply(dt * g, states[i - 1])
    if not np.all(np.isfinite(states)):
        raise ToleranceNotMetError("propagation produced a non-finite state")
    return Trajectory(times=times, states=states)


def emission_intensity(traj, op, generator):
    """Instantaneous loss rate of <op>: -Tr(op * G rho(t)) along a trajectory.

    The sign makes decay from a polarized state register as positive
    emitted intensity.
    """
    derivs = (generator @ traj.states.T).T
    flat = np.asarray(op, dtype=complex).T.reshape(-1)
    return -np.real(derivs @ flat)


def trace_drift(traj):
    """Maximum deviation of the state trace from one along the trajectory."""
    d = traj.hdim
    idx = np.arange(d) * d + np.arange(d)
    traces = traj.states[:, idx].sum(axis=1)
    return float(np.max(np.abs(traces - 1.0)))


def min_state_eigenvalue(traj):
    """Smallest eigenvalue of the hermitized state along the trajectory."""
    lows = []
    for k in range(traj.times.size):
        rho = traj.operator(k)
        rho = 0.5 * (rho + rho.conj().T)
        lows.append(np.linalg.eigvalsh(rho).min())
    return float(min(lows))
