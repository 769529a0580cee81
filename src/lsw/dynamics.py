"""Exact and effective time evolution, observables, emission intensity.

``propagate`` is the one vector propagator.  A small dimension k steps
with its one-step propagator ``expm(h G)``, computed once per grid span at
O(k^3) cost however long the span; otherwise ``expm_multiply`` acts on the
state with a number of matvecs that grows with ||G||_1 t_max, and at
least a fixed cost per output point.  The stiffness guard and the
non-finite check cover both ways.  ``expm`` is numpy's scaling and
squaring, batched over stacks; it also gives ``sw.decoupling_blocks`` its
exp(+-S), so no module of the package imports ``scipy.linalg``.  A dense
generator stays dense; ``scipy.sparse`` and ``scipy.sparse.linalg`` are
imported on the ``expm_multiply`` way alone (``superop.scipy_sparse``), so a
CLI start that never takes it does not load them.

``evolve`` is the whole-space reference: it propagates every vec component
of a state under a full generator.  Coherence-order sectors (Buca &
Prosen, arXiv:1203.0943) are built in :mod:`lsw.spectral` from a model's
operators; the CLI propagates those blocks, in their real Hermitian frame,
with ``propagate`` directly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatchError, ToleranceNotMetError, ValidationError
from .superop import scipy_sparse, to_csr, to_dense, vectorize

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
# (k=1001, scale 35, 401 points) took 1.15 / 0.19 s.  Those dense times are
# scipy.linalg.expm's.  With :func:`expm`, which squares once from k=450 on
# that sector (scipy's norm estimates skipped the squaring up to k=490),
# dense / expm_multiply took 0.27 / 0.28 s at k=434 and 0.31 / 0.27 s at
# 450 and 466, so the crossing now sits near k=440.  Those sectors are
# complex.  The CLI's evolve steps its block in a real frame, where the N=100
# burst block (k=402, scale 82,857, 201 points) took 0.044 / 1.52 s, against
# 0.18 / 1.97 s complex, and the N=350 one (k=1402, past the rule's k=1,242
# at that scale) 2.49 / 2.15 s; the constants were not re-tuned for real blocks
DENSE_STEP_RATIO = 2.3e4
DENSE_STEP_FLOOR = 5e4

# Pade degree m, theta_m, 1 / |c_{2m+1}| of the rounding test and the
# coefficients b_0..b_m of p_m (Al-Mohy & Higham 2009, Table 3.1, eq. (5.1))
_PADE_DEGREES = (
    (3, 1.495585217958292e-2, 100800.0, (120.0, 60.0, 12.0, 1.0)),
    (5, 2.539398330063230e-1, 10059033600.0, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    (7, 9.504178996162932e-1, 4487938430976000.0,
     (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0)),
    (9, 2.097847961257068, 5914384781877411840000.0,
     (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0, 2162160.0,
      110880.0, 3960.0, 90.0, 1.0)),
    (13, 4.25, 113250775606021113483283660800000000.0,
     (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
      129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
      40840800.0, 960960.0, 16380.0, 182.0, 1.0)),
)
# per degree: theta_m, log2(|c_{2m+1}| / u) / 2m for the unit roundoff
# u = 2^-53, b_0, b_1, and the rows of b_3..b_7 and b_2..b_6 on A^2, A^4,
# A^6, then (m > 7) those of b_9..b_13 and b_8..b_12, which A^6 multiplies
_PADE = {
    m: (theta, (53 - math.log2(c)) / (2 * m), b[0], b[1], np.array([
        np.pad(row, (0, 3 - len(row))) for row in (b[3:8:2], b[2:7:2], b[9::2], b[8::2])
    ][: 4 if m > 7 else 2]))
    for m, theta, c, b in _PADE_DEGREES
}


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
    """||g||_1 of a dense or sparse matrix, its largest absolute column sum:
    the expression of ``scipy.sparse.linalg.norm(g, 1)``, which stays
    unimported until ``expm_multiply`` is needed."""
    return abs(g).sum(axis=0).max()


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def expm(a):
    """exp(A) of a square matrix, or of every matrix of a stack (..., n, n).

    Scaling and squaring with a Pade approximant of degree 3, 5, 7, 9 or 13
    (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970, 2009).  The
    degree and the squarings s come from d_4 = ||A^4||_1^(1/4) and
    d_6 = ||A^6||_1^(1/6), which bound the higher powers' d_8 <= d_4 and
    d_10 <= (d_4^4 d_6^6)^(1/10), so a non-normal A is not scaled by its
    larger ||A||_1; the rounding test ell, from the 1-norm of |A|^(2m+1)
    (formed only where cheaper bounds leave it open), adds squarings where
    the approximant's evaluation needs them.  A stack is evaluated at once:
    one degree, one solve and one squaring loop, with s per matrix.  A
    matrix with a non-finite entry, or a non-finite ||A^4|| or ||A^6|| (an
    A too large for float64), gives NaN, and squaring stops where the
    iterate is no longer finite, all without a warning.
    """
    a = np.asarray(a, dtype=np.result_type(a, float))
    x = a.reshape(-1, *a.shape[-2:])
    eye = np.eye(x.shape[-1], dtype=x.dtype)
    even = np.empty((3, *x.shape), x.dtype)  # A^2, A^4, A^6, in place
    a2, a4, a6 = even
    np.matmul(x, x, out=a2)
    np.matmul(a2, a2, out=a4)
    np.matmul(a4, a2, out=a6)
    norm1 = np.abs(x).sum(-2).max(-1)
    norm4, norm6 = np.abs(even[1:]).sum(-2).max(-1)
    eta = np.maximum(norm4**0.25, norm6 ** (1 / 6))
    bad = ~np.isfinite(norm1 + eta)

    def squarings(m, log_c, s):
        # max(s, ell(A, m)), ell = max(ceil(log2(alpha / u) / 2m), 0) for
        # alpha = || |A|^(2m+1) ||_1 / (||A||_1 / |c_{2m+1}|).  With
        # B = |A| / ||A||_1, || |A|^(2m+1) || = ||A||^(2m+1) ||B^(2m+1)||, and
        # ||B^(2m+1)|| <= ||B^2||^m <= 1; the power is formed, as the row
        # 1^T B (B^2)^m whose largest entry is its 1-norm, only where these
        # bounds leave ell above s
        log_c = log_c + np.log2(norm1)
        if np.all(np.ceil(log_c) <= s):
            return s
        absx = np.abs(x) / norm1[:, None, None]
        square = absx @ absx
        if np.all(np.ceil(log_c + np.log2(square.sum(-2).max(-1)) / 2) <= s):
            return s
        row = np.ones((x.shape[0], 1, x.shape[-1])) @ absx
        for _ in range(m):
            row = row @ square
        ell = np.ceil(np.log2(row.max(-1)[:, 0]) / (2 * m) + log_c)
        return np.where(ell > s, ell, s)  # NaN (A = 0) gives s

    s, largest = np.zeros(x.shape[0]), eta.max()
    for m, (theta, log_c, b0, b1, coef) in _PADE.items():
        if m == 13:
            s = np.ceil(np.log2(np.maximum(norm4**0.25, norm4**0.1 * norm6**0.1) / theta))
            s = np.where(bad, 0, squarings(m, log_c, np.where(s > 0, s, 0)))
        elif largest <= theta and not squarings(m, log_c, s).any():
            break
    w = 2.0 ** -s[:, None, None]
    if s.any():
        even *= w ** np.array([2, 4, 6])[:, None, None, None]
    # U = A (b_1 + b_3 A^2 + ...) and V = b_0 + b_2 A^2 + ..., the terms of
    # degree 8 and up as A^6 times A^2, A^4, A^6.  What is computed lands in
    # the slots of the powers once they are read, and the combinations are
    # released before the solve: a fresh temporary of this size costs page
    # faults on every call
    combos = (coef @ even.reshape(3, -1)).reshape(-1, *x.shape)
    combos[0] += b1 * eye
    combos[1] += b0 * eye
    if m > 7:
        combos[:2] += np.matmul(a6, combos[2:], out=even[:2])
    u = np.matmul(x, combos[0], out=a2)
    u *= w
    q = np.subtract(combos[1], u, out=a4)
    p = np.add(combos[1], u, out=a6)
    del combos
    if bad.any():
        q[bad] = eye  # their result is NaN whatever q is
    r = np.linalg.solve(q, p)
    for i in range(int(s.max())):
        more = (s > i) & np.isfinite(r).all(axis=(-2, -1))
        if more.all():
            r = r @ r
        elif more.any():
            r[more] = r[more] @ r[more]
        else:
            break
    if bad.any():
        r[bad] = np.nan
    return r.reshape(a.shape)


def propagate(generator, y0, times):
    """The states exp(t G) y0 at every t in ``times``, as rows, and the stepper.

    Exact to double precision for a time-independent generator.  Each grid
    span steps with the dense propagator ``expm(h G)`` (:func:`expm`) when
    ``spans * k**3 <= DENSE_STEP_RATIO * ||G||_1 t_max + DENSE_STEP_FLOOR *
    steps`` for dimension k and ``steps`` output points after t = 0, and by
    ``expm_multiply`` (Al-Mohy & Higham 2011) otherwise; the stepper is
    ``"expm"`` or ``"expm_multiply"``.  Either way ||G||_1 t_max above
    ``MAX_NORM_TIME`` is refused and a non-finite state raises.

    The states are float64 when G and y0 are both real (a Hermiticity
    preserving G in a real Hermitian frame, ``spectral.frame_generator``),
    so the steps are real products; a complex G or y0 gives complex states.
    """
    times = _validate_times(times)
    g = generator if isinstance(generator, np.ndarray) else to_csr(generator)
    y0 = np.asarray(y0)
    y0 = y0.astype(np.result_type(g.dtype, y0.dtype, float), copy=False)
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
                step = expm(to_dense(g) * (stop / (num - 1)))
                for _ in range(num - 1):
                    states.append(step @ states[-1])
            else:
                states.extend(
                    scipy_sparse(linalg=True).expm_multiply(
                        to_csr(g), states[-1], start=0.0, stop=stop, num=num, endpoint=True
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
