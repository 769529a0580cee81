"""Exact and effective time evolution, observables, emission intensity.

``propagate`` is the one vector propagator.  A small dimension k steps
with its one-step propagator ``expm(h G)``, computed once per grid span at
O(k^3) cost however long the span; otherwise ``expm_multiply`` acts on the
state with a number of matvecs that grows with ||G||_1 t_max, and at
least a fixed cost per output point.  The stiffness guard and the
non-finite check cover both ways.  ``scipy.sparse.linalg`` is imported on
the ``expm_multiply`` way alone, so a CLI start that never takes it does
not load it.

``evolve`` is the whole-space reference: it propagates every vec component
of a state under a full generator.  Coherence-order sectors (Buca &
Prosen, arXiv:1203.0943) are built in :mod:`lsw.spectral` from a model's
operators; the CLI propagates those blocks with ``propagate`` directly.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .exceptions import DimensionMismatchError, ToleranceNotMetError, ValidationError
from .superop import to_csr, vectorize

# expm_multiply does not fail on very stiff input, it runs (nearly) forever;
# propagations with ||G||_1 * t_max above this are refused up front
MAX_NORM_TIME = 1e6

# step densely when spans * k^3 <= DENSE_STEP_RATIO * ||G||_1 t_max +
# DENSE_STEP_FLOOR * steps, for `steps` output points after t = 0 (one BLAS
# thread throughout).  expm_multiply costs at least 0.17-0.25 ms per output
# point whatever the scale (k = 20-250, ||G||_1 t_max = 0.1-1), which is
# 5e4 k^3 of dense stepping at 4e-9 s per k^3.  On the burst sector over
# t_max = 200 on 401 points (scale 420), dense / expm_multiply took
# 0.066 / 0.206 s at k=250 and 0.258 / 0.229 s at k=402.  At scale 4,200
# they took 0.14 / 0.31 s at k=402, 0.32 / 0.40 s at 474, 0.46 / 0.43 s at
# 502, 0.55 / 0.42 s at 550 and 1.10 / 0.50 s at 698, crossing near k=490:
# k^3 = 1.18e8 = 2.3e4 * 4,200 + 5e4 * 400.  The N=1000 reduced block
# (k=1001, scale 35, 401 points) took 1.15 / 0.19 s
DENSE_STEP_RATIO = 2.3e4
DENSE_STEP_FLOOR = 5e4


@dataclass
class Trajectory:
    """Vectorized states on a fixed time grid: row k of ``states`` is vec rho(t_k)."""

    times: np.ndarray
    states: np.ndarray  # shape (n_times, d**2)
    stepper: str  # "expm" (dense one-step propagator) or "expm_multiply"

    def expectation(self, op):
        """Tr(op rho(t)) along the trajectory."""
        return self.states @ np.asarray(op, dtype=complex).T.reshape(-1)


def _validate_times(times):
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValidationError("times must be a one-dimensional grid")
    if abs(times[0]) > 0:
        raise ValidationError("time grid must start at 0")
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise ValidationError("times must be strictly increasing")
    return times


def one_norm(g):
    """||g||_1 of a sparse matrix, its largest absolute column sum: the
    expression of ``scipy.sparse.linalg.norm(g, 1)``, which stays unimported
    until ``expm_multiply`` is needed."""
    return abs(g).sum(axis=0).max()


def propagate(generator, y0, times):
    """The states exp(t G) y0 at every t in ``times``, as rows, and the stepper.

    Exact to double precision for a time-independent generator.  Each grid
    span steps with the dense propagator ``expm(h G)`` (scaling and
    squaring, Al-Mohy & Higham 2009) when ``spans * k**3 <=
    DENSE_STEP_RATIO * ||G||_1 t_max + DENSE_STEP_FLOOR * steps`` for
    dimension k and ``steps`` output points after t = 0, and by
    ``expm_multiply`` (Al-Mohy & Higham 2011) otherwise; the stepper is
    ``"expm"`` or ``"expm_multiply"``.  Either way ||G||_1 t_max above
    ``MAX_NORM_TIME`` is refused and a non-finite state raises.
    """
    times = _validate_times(times)
    g = to_csr(generator)
    y0 = np.asarray(y0, dtype=complex)
    if g.shape != (y0.size, y0.size):
        raise DimensionMismatchError(
            f"generator of shape {g.shape} does not act on vectors of size {y0.size}"
        )
    t_max = times[-1]
    scale = one_norm(g) * t_max
    if not scale <= MAX_NORM_TIME:  # NaN fails too
        raise ToleranceNotMetError(
            f"||G||_1 * t_max = {scale:.3g} is not finite or exceeds {MAX_NORM_TIME:.0e}; "
            "the generator is too stiff to propagate over this span"
        )

    # a uniform grid is one span, any other grid one span per interval;
    # an overflow shows up as a non-finite state, checked below
    uniform = times.size > 1 and np.array_equal(times, np.linspace(0.0, t_max, times.size))
    spans = [(t_max, times.size)] if uniform else [(dt, 2) for dt in np.diff(times)]
    dense = (
        len(spans) * y0.size**3
        <= DENSE_STEP_RATIO * scale + DENSE_STEP_FLOOR * (times.size - 1)
    )
    states = [y0]
    with np.errstate(over="ignore", invalid="ignore"):
        for stop, num in spans:
            if dense:
                step = expm(g.toarray() * (stop / (num - 1)))
                for _ in range(num - 1):
                    states.append(step @ states[-1])
            else:
                import scipy.sparse.linalg as spla

                states.extend(
                    spla.expm_multiply(
                        g, states[-1], start=0.0, stop=stop, num=num, endpoint=True
                    )[1:]
                )
    states = np.array(states)
    if not np.all(np.isfinite(states)):
        raise ToleranceNotMetError("propagation produced a non-finite state")
    return states, "expm" if dense else "expm_multiply"


def evolve(generator, rho0, times):
    """Propagate rho0 under a fixed generator on the whole space, landing
    exactly on ``times``, by :func:`propagate`, whose stepper the trajectory
    records: the reference the sector blocks are checked against."""
    times = _validate_times(times)
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.ndim != 2 or rho0.shape[0] != rho0.shape[1]:
        raise DimensionMismatchError(f"initial state of shape {rho0.shape} is not square")
    trace = np.trace(rho0)
    if not abs(trace - 1.0) <= 1e-8:  # NaN fails too
        raise ValidationError(f"initial state has trace {trace:.6g}, expected 1")
    states, stepper = propagate(generator, vectorize(rho0), times)
    return Trajectory(times=times, states=states, stepper=stepper)


def emission_intensity(traj, op, generator):
    """Instantaneous loss rate of <op>: -Tr(op * G rho(t)) along a trajectory.

    The sign makes decay from a polarized state register as positive
    emitted intensity.
    """
    flat = np.asarray(op, dtype=complex).T.reshape(-1)
    return -np.real(traj.states @ (generator.T @ flat))


def trace_drift(traj):
    """Maximum deviation of the state trace from one along the trajectory."""
    d = math.isqrt(traj.states.shape[1])
    traces = traj.states[:, np.arange(d) * (d + 1)].sum(axis=1)
    return float(np.max(np.abs(traces - 1.0)))


def min_state_eigenvalue(traj):
    """Smallest eigenvalue of the hermitized state along the trajectory."""
    d = math.isqrt(traj.states.shape[1])
    rho = traj.states.reshape(-1, d, d)
    return float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().transpose(0, 2, 1))).min())
