"""Batch front-end: config ingestion, engine runs, CSV emission.

Every output file is plain CSV with all numerics printed to 17 significant
digits (round-trip safe) and deterministic for a fixed config and seed.
Tasks hand over whole columns; each column's dtype picks one format, which
is applied to a chunk of rows at a time.  Matrices are written one row per
``%`` format, with the row and column indices already in the template; a
real matrix prints its imaginary part as ``0``.
Exit codes: 0 success, 2 config/validation error, 3 numerical failure or
an allocation failure.
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import yaml

from . import dynamics, models, qrt, superop, sw
from .exceptions import (
    DefectiveOperatorError,
    DimensionMismatchError,
    LswError,
    NonProductSlowSpaceError,
    ToleranceNotMetError,
    ValidationError,
)
from .expr import parse_operator_expr
from .operators import spin_operators
from .spectral import AncillaBasis, charge_sector, check_perturbative_limit, decompose, hermitian_frame
from .superop import LindbladSpec, lindblad_superop, vectorize

TASKS = ("spectrum", "effective", "evolve", "compare", "ancilla-qrt", "decoupling-scan")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# spectral tasks hold superoperators on the whole space (D x D, stored
# sparse where they stay sparse), compare and a scan with declared charges
# hold sector-sized ones and evolve a dense L_A; refuse configs past this
# size (D, the largest sector dimension for compare and such a scan, d_A**2
# for evolve) instead of crashing on an allocation
SPECTRAL_DIM_LIMIT = 4500
SPECTRAL_TASKS = ("spectrum", "effective", "decoupling-scan")

# libyaml's safe loader where PyYAML was built with it: the pure-Python
# parser took 2-4 ms of a 16-22 ms run on the shipped configs
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

MAX_SYMBOL_DEPTH = 50  # nested symbol lookups; each recurses through the parser

# a decoupling residual at most this many roundings of ||L0 + epsilon V||_1 is
# flagged as possible noise (configs/decoupling_scan.yaml: 3.9 at order 3; the
# flagged ones at orders 4-8 are 2e-4 to 0.98, above a true floor near 8e-20)
FLOOR_ROUNDINGS = 2

# the engine's eigen coordinates amplify rounding by about condition**2 of
# L_A's eigenvectors; compare, effective and decoupling-scan refuse past this
# estimate of the relative error (an exceptional point of L_A: 4.5e7**2 eps
# = 0.45 on a driven decaying qubit at Omega = gamma / 8, where the scan's
# residuals were 14 to 830 times too large; 1.07e-9 at condition 2.2e3)
EIGEN_ERROR_TOL = 1e-8


def _check_task(task, kind, dim_a, dim_s, charged=False):
    """The one task check, made from the config before the model's L0 is
    built: ``compare`` runs on the superradiance model alone, ``ancilla-qrt``
    needs a system (d_S > 1), and a spectral task on A (x) S, of
    superoperator dimension (d_A d_S)**2, or ``evolve``, whose dense L_A
    has dimension d_A**2, is refused past ``SPECTRAL_DIM_LIMIT``.  On a
    model that declares charges (``charged``) ``decoupling-scan`` runs per
    sector: here only its dense L_A is checked, and its largest sector by
    ``AncillaBasis.sectors`` before any sector is built."""
    if task == "compare" and kind != "superradiance":
        raise ValidationError("compare runs on the superradiance model")
    if task == "ancilla-qrt" and dim_s == 1:
        raise ValidationError(
            f"model kind {kind!r} has no system to reduce to: "
            "ancilla-qrt needs couplings to a system of dimension 2 or more"
        )
    per_sector = task == "evolve" or (charged and task == "decoupling-scan")
    dim = dim_a**2 if per_sector else (dim_a * dim_s) ** 2
    if (task in SPECTRAL_TASKS or task == "evolve") and dim > SPECTRAL_DIM_LIMIT:
        raise ValidationError(
            f"task {task!r}: superoperator dimension {dim} exceeds the spectral "
            f"limit {SPECTRAL_DIM_LIMIT} (reduce the model size)"
        )


def _check_condition(condition):
    """Refuse eigen coordinates of L_A whose rounding error estimate
    condition**2 * eps exceeds ``EIGEN_ERROR_TOL``: L_A is at or near an
    exceptional point, where its eigenvectors are nearly parallel."""
    error = condition**2 * np.finfo(float).eps
    if not error <= EIGEN_ERROR_TOL:
        raise DefectiveOperatorError(
            f"L_A's eigenvector condition number {condition:.3g} gives the error estimate "
            f"condition**2 * eps = {error:.2g}, above {EIGEN_ERROR_TOL:g}: L_A is at or "
            "near an exceptional point"
        )


# rows of a column file formatted per chunk, one `.tolist()` per column and
# chunk, so a long column never turns into one list of Python objects at
# once; matrices do not come through here (`_write_matrix` goes row by row)
CSV_CHUNK_ROWS = 1024

# one `%` format per column dtype kind; a complex column takes two fields
_CSV_FORMATS = {"i": "%d", "f": "%.17g", "c": "%.17g%+.17gj"}


def _write_csv(path, header, columns):
    """Write equal-length columns (scalars broadcast) under a header.

    Each column's dtype picks its format: ``%d`` for ints, ``%.17g`` for
    floats, ``%.17g%+.17gj`` for complex and ``%s`` for anything else.
    """
    columns = np.broadcast_arrays(*map(np.atleast_1d, columns))
    line = ",".join(_CSV_FORMATS.get(c.dtype.kind, "%s") for c in columns) + "\n"
    fields = []
    for c in columns:
        fields += [c.real, c.imag] if c.dtype.kind == "c" else [c]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(fields[0]), CSV_CHUNK_ROWS):
            chunk = [f[start : start + CSV_CHUNK_ROWS].tolist() for f in fields]
            fh.writelines(map(line.__mod__, zip(*chunk)))
    return path


def _write_matrix(path, m):
    """Row-major (row, col, re, im) lines of a matrix, one ``%`` per row.

    The indices are written into each row's template, so only the values
    are formatted; a real matrix prints ``im`` as ``0``, the bytes of its
    complex cast.
    """
    m = np.asarray(m)
    rows, cols = m.shape
    cell = "%.17g,%.17g\n" if m.dtype.kind == "c" else "%.17g,0\n"
    tail = [f",{j},{cell}" for j in range(cols)]
    if m.dtype.kind == "c":
        m = np.stack([m.real, m.imag], -1).reshape(rows, 2 * cols)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("row,col,re,im\n")
        fh.writelines(str(i).join([""] + tail) % tuple(r.tolist()) for i, r in enumerate(m))
    return path


def _number(key, value, integral=False, low=None):
    """A numeric config value: an integral number as an int when ``integral``,
    a finite float otherwise, at least ``low`` if given.  Bools and strings
    are refused, naming the key."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{key} must be a number, got {value!r}")
    if integral and not (isinstance(value, int) or value.is_integer()):
        raise ValidationError(f"{key} must be an integer, got {value!r}")
    if not (integral or math.isfinite(value)):
        raise ValidationError(f"{key} must be finite, got {value!r}")
    value = int(value) if integral else float(value)
    if low is not None and value < low:
        raise ValidationError(f"{key} must be >= {low}, got {value}")
    return value


def _shaped(key, value, kind=dict, required=()):
    """The config section or entry ``value`` at ``key``, as a ``kind`` (dict
    or list; None reads as empty) holding the ``required`` keys; for a list
    with ``required``, every entry must be such a mapping.  Any other shape
    is refused, naming the key."""
    value = kind() if value is None else value
    if not isinstance(value, kind):
        shape = "list" if kind is list else "mapping"
        raise ValidationError(f"{key} must be a {shape}, got {value!r}")
    if kind is list and required:
        return [_shaped(f"{key}[{i}]", e, dict, required) for i, e in enumerate(value)]
    for k in required:
        if k not in value:
            raise ValidationError(f"{key} needs {k!r}")
    return value


class _Symbols(dict):
    """The config symbol table: each symbol is built from its definition the
    first time an expression (or the declaration loop) looks it up, so a
    definition may name a symbol declared after it."""

    def __init__(self, defs):
        super().__init__()
        self.defs, self.pending, self.depth = defs, set(), 0
        for name in defs:  # every declared symbol is built, used or not
            self[name]

    def __contains__(self, name):
        return name in self.defs

    def __missing__(self, name):
        if name in self.pending:
            raise ValidationError(f"symbol {name!r} refers back to itself")
        if self.depth == MAX_SYMBOL_DEPTH:
            raise ValidationError(f"symbol {name!r} nests lookups deeper than {MAX_SYMBOL_DEPTH}")
        self.pending.add(name)
        self.depth += 1
        self[name] = _symbol(name, self.defs[name], self)
        self.depth -= 1
        return self[name]


def _symbol(name, d, symbols):
    """One symbol's matrix from its definition (spin, identity, matrix or expr)."""
    key = f"symbol {name!r}"
    d = _shaped(key, d)
    if "spin" in d:
        jp, jm, jz = spin_operators(_number(f"{key}: spin", d["spin"], integral=True, low=0))
        component = d.get("component", "z")
        if component not in ("plus", "minus", "z"):
            raise ValidationError(f"{key}: component must be plus/minus/z")
        return {"plus": jp, "minus": jm, "z": jz}[component]
    if "identity" in d:
        dim = _number(f"{key}: identity", d["identity"], integral=True, low=1)
        return np.eye(dim, dtype=complex)
    if "matrix" in d:
        try:
            entries = np.asarray(d["matrix"], dtype=float)
        except (TypeError, ValueError):
            raise ValidationError(f"{key}: matrix needs numbers in rows of equal length") from None
        if entries.ndim == 3 and entries.shape[2] == 2:
            return entries[..., 0] + 1j * entries[..., 1]
        if entries.ndim == 2:
            return entries.astype(complex)
        raise ValidationError(f"{key}: matrix must be 2-d (or 2-d of [re, im] pairs)")
    if "expr" in d:
        return _evaluate(d["expr"], symbols)
    raise ValidationError(f"{key}: needs one of spin/identity/matrix/expr")


# overflow and inf * 0 make non-finite entries, which the operator's finite
# check refuses; numpy's RuntimeWarning would only precede that refusal
@np.errstate(over="ignore", invalid="ignore")
def _evaluate(text, symbols):
    return parse_operator_expr(str(text), symbols)


def _custom_model(cfg, task):
    """(AncillaModel, rho0, observables) of a custom model: on A (x) S with
    ``couplings``; on A alone with ``perturbations``, each paired with 1_1.
    Every operator is parsed, and the task checked, before L0 is built."""
    dim = _number("model.dimension", cfg.get("dimension", 0), integral=True, low=2)
    symbols = _Symbols(_shaped("model.symbols", cfg.get("symbols")))

    def parse(text):
        op = _evaluate(text, symbols)
        if not np.isfinite(op).all():
            raise ValidationError(f"operator {str(text)!r} has non-finite entries")
        return op

    ham_text = cfg.get("hamiltonian")
    hamiltonian = parse(ham_text) if ham_text else np.zeros((dim, dim), complex)
    jumps = _shaped("model.jumps", cfg.get("jumps"), list, ("rate", "operator"))
    jumps = [
        (_number(f"model.jumps[{i}].rate", j["rate"]), parse(j["operator"]))
        for i, j in enumerate(jumps)
    ]
    spec = LindbladSpec(hdim=dim, hamiltonian=hamiltonian, jumps=jumps).validate()
    couplings = [
        (parse(p["ancilla"]), parse(p["system"]))
        for p in _shaped("model.couplings", cfg.get("couplings"), list, ("ancilla", "system"))
    ]
    perturbations = _shaped("model.perturbations", cfg.get("perturbations"), list)
    perturbations = [(parse(t), np.eye(1)) for t in perturbations]
    if couplings and perturbations:
        raise ValidationError("custom model: give couplings or perturbations, not both")
    pairs = couplings or perturbations
    epsilon = _number("model.epsilon", cfg.get("epsilon", 1.0))
    dim_s = np.shape(pairs[0][1])[0] if pairs else 1
    hdim = dim * dim_s
    rho0_text = cfg.get("initial")
    if rho0_text:
        rho0 = parse(rho0_text)
        trace = np.trace(rho0)
        if trace == 0 or not np.isfinite(trace):
            raise ValidationError(
                f"initial state has trace {trace:.6g}; it cannot be normalized"
            )
        rho0 = rho0 / trace
    else:  # a model on A (x) S has no default initial state
        rho0 = np.eye(dim, dtype=complex) / dim if hdim == dim else None
    observables = _shaped("model.observables", cfg.get("observables"))
    observables = {name: parse(text) for name, text in observables.items()}
    operators = [("initial state", rho0)] if rho0_text else []
    operators += [(f"observable {name!r}", op) for name, op in observables.items()]
    for name, op in operators:
        if op.shape != (hdim, hdim):
            raise DimensionMismatchError(f"{name} has shape {op.shape}, expected ({hdim}, {hdim})")
    _check_task(task, "custom", dim, dim_s)
    ancilla = qrt.AncillaModel(lindblad_superop(spec), pairs, epsilon).validate()
    return ancilla, rho0, observables


class Run:
    """Validated run description assembled from config plus CLI overrides,
    with the model's parts built from it (``ancilla``, ``rho0``,
    ``observables`` and ``charges``, see ``_build_model``)."""

    def __init__(self, task, cfg, order=None, epsilon=None, out=None):
        if task not in TASKS:
            raise ValidationError(f"unknown task {task!r}")
        self.task = task
        self.cfg = cfg
        order = cfg.get("order", 2) if order is None else order
        epsilon = cfg.get("epsilon", 1.0) if epsilon is None else epsilon
        self.order = _number("order", order, integral=True)
        self.epsilon = _number("epsilon", epsilon)
        self.out = str(out if out is not None else cfg.get("output", "lsw_out"))
        times = _shaped("times", cfg.get("times"))
        self.t_max = _number("times.t_max", times.get("t_max", 10.0))
        self.n_points = _number("times.n_points", times.get("n_points", 201), integral=True, low=2)
        tol = _shaped("tolerances", cfg.get("tolerances"))
        self.zero_tol = _number("tolerances.zero_tol", tol.get("zero_tol", 1e-9))
        epsilons = _shaped("epsilons", cfg.get("epsilons", [1e-2, 1e-3, 1e-4]), list)
        self.epsilons = [_number("epsilons", e) for e in epsilons]
        if not 1 <= self.order <= sw.MAX_ORDER:
            raise ValidationError(f"order must be in [1, {sw.MAX_ORDER}]")
        if not self.t_max > 0:
            raise ValidationError("times.t_max must be > 0")
        if not self.zero_tol > 0:
            raise ValidationError("tolerances.zero_tol must be > 0")
        if not self.zero_tol < 1:  # relative: at 1 or more no eigenvector keeps a support
            raise ValidationError(f"tolerances.zero_tol must be < 1, got {self.zero_tol}")
        if not all(e > 0 for e in self.epsilons):
            raise ValidationError("every entry of epsilons must be > 0")
        if task == "decoupling-scan" and len(set(self.epsilons)) < 2:
            raise ValidationError(
                "decoupling-scan fits a slope: epsilons needs two or more distinct entries"
            )
        self.ancilla, self.rho0, self.observables, self.charges = _build_model(self)

    @property
    def times(self):
        try:
            return np.linspace(0.0, self.t_max, self.n_points)
        except MemoryError:
            raise ValidationError(
                f"times.n_points = {self.n_points} is more points than memory can hold"
            ) from None


def _superradiance_params(mcfg):
    """Superradiance parameters from a model section (`sqrt_n_g` or `g`)."""
    n = _number("model.n_spins", mcfg.get("n_spins", 2), integral=True, low=1)
    gamma = _number("model.gamma", mcfg.get("gamma", 1.0), low=0)
    omega = _number("model.omega", mcfg.get("omega", 0.0))
    if "sqrt_n_g" in mcfg:
        return models.SuperradianceParams.from_sqrt_n_g(
            n, _number("model.sqrt_n_g", mcfg["sqrt_n_g"]), gamma=gamma, omega=omega
        )
    return models.SuperradianceParams(
        n_spins=n, g=_number("model.g", mcfg.get("g", 0.1)), gamma=gamma, omega=omega
    )


def _build_model(run):
    """The one model registry: (ancilla, rho0, observables, charges), the
    AncillaModel, its initial state (None: none on A (x) S), its observables
    by name and the (q_A, q_S) of ``charge_sector`` (None: none declared).
    Nothing of the full space is assembled here; decoupling-scan's rounding
    floor calls ``AncillaModel.full_space``.  The task check (``_check_task``)
    comes before any L0 is built.  Superradiance's burst state and ``iz``
    observable are built, as CSR, for evolve alone, the one task that reads
    them."""
    mcfg = _shaped("model", run.cfg.get("model"), dict, ("kind",))
    kind = mcfg["kind"]
    charges = None
    if kind == "superradiance":
        params = _superradiance_params(mcfg)
        _check_task(run.task, kind, 2, params.n_spins + 1, charged=True)
        ancilla, rho0, observables = models.superradiance_ancilla(params), None, {}
        charges = models.superradiance_charges(params.n_spins)
        if run.task == "evolve":
            n = params.n_spins
            rho0 = sp.kron(*models.superradiance_initial(n), format="csr")
            observables = {"iz": sp.kron(np.eye(2), models.collective_ops(n)[2], format="csr")}
    elif kind == "decaying-qubit":
        _check_task(run.task, kind, 2, 1)
        l0, _ = models.decaying_qubit(
            gamma=_number("model.gamma", mcfg.get("gamma", 1.0), low=0),
            omega=_number("model.omega", mcfg.get("omega", 0.0)),
        )
        jp, jm, _ = spin_operators(1)
        rho0 = np.zeros((2, 2), complex)
        rho0[0, 0] = 1.0
        ancilla, observables = qrt.AncillaModel(l0=l0, couplings=[]), {"excited": jp @ jm}
    elif kind == "random":
        dim = _number("model.dimension", mcfg.get("dimension", 3), integral=True, low=2)
        _check_task(run.task, kind, dim, 1)
        ancilla = models.random_lindblad_model(
            dim,
            _number("model.jumps", mcfg.get("jumps", 2), integral=True),
            _number("model.seed", mcfg.get("seed", 0), integral=True),
        )
        rho0, observables = np.eye(dim, dtype=complex) / dim, {}
    elif kind == "random-ancilla":
        dim_a = _number("model.dimension", mcfg.get("dimension", 2), integral=True, low=2)
        dim_s = _number(
            "model.system_dimension", mcfg.get("system_dimension", 2), integral=True, low=1
        )
        _check_task(run.task, kind, dim_a, dim_s)
        ancilla = models.random_ancilla_model(
            dim_a,
            _number("model.couplings", mcfg.get("couplings", 2), integral=True),
            _number("model.seed", mcfg.get("seed", 0), integral=True),
            dim_system=dim_s,
        )
        rho0, observables = None, {}
    elif kind == "custom":
        ancilla, rho0, observables = _custom_model(mcfg, run.task)
    else:
        raise ValidationError(f"unknown model kind {kind!r}")
    return ancilla, rho0, observables, charges


def _task_spectrum(run):
    """L0 = L_A (x) 1_S: L_A's eigenvalues and slow set, each repeated d_S**2
    times as in the whole space's eigen order (k d_S + a) d_S + b, and L_A's gap."""
    ancilla = run.ancilla
    sd = decompose(ancilla.l0, run.zero_tol)
    ok = check_perturbative_limit(sd, ancilla.perturbation_norm(), run.epsilon)
    copies = ancilla.dim_s**2
    eigenvalues = np.repeat(sd.eigenvalues, copies)
    order = np.lexsort((eigenvalues.imag, eigenvalues.real))  # deterministic listing
    lam, slow = eigenvalues[order], np.repeat(np.isin(np.arange(sd.dim), sd.slow), copies)
    subspace = np.where(slow[order], "slow", "fast")
    path = _write_csv(
        run.out + "_spectrum.csv",
        ["index", "re", "im", "subspace", "gap", "perturbative_ok"],
        [np.arange(order.size), lam.real, lam.imag, subspace, sd.gap, int(ok)],
    )
    return [path]


def _task_effective(run):
    sector = charge_sector(run.ancilla, None, run.zero_tol)
    _check_condition(sector.spectral.condition)
    sd, gen = sector.spectral, sw.generator_terms(sector.spectral, sector.v, run.order)
    series = sw.correction_terms(gen, sd, epsilon=run.epsilon)
    paths = [
        _write_matrix(f"{run.out}_effective_order{n}.csv", mat)
        for n, mat in enumerate(series.slow_terms[: run.order], start=1)
    ]
    total = sw.effective_liouvillian(series, run.order)
    hdim = math.isqrt(sd.right.shape[0])
    trace_row = superop.trace_functional(hdim) @ sd.right[:, sd.slow]
    trace_resids = [
        float(np.abs(trace_row @ mat).max()) if mat.size else 0.0
        for mat in series.slow_terms[: run.order]
    ]
    chi = superop.kossakowski_matrix(
        sd.right[:, sd.slow] @ total @ sd.left[sd.slow, :]
    )
    herm = 0.5 * (chi + chi.conj().T)
    eigmin = float(np.linalg.eigvalsh(herm).min()) if herm.size else 0.0
    paths.append(
        _write_csv(
            f"{run.out}_effective_diagnostics.csv",
            ["order", "trace_residual"],
            [np.arange(1, run.order + 1), trace_resids],
        )
    )
    paths.append(
        _write_csv(
            f"{run.out}_effective_psd.csv",
            ["order", "kossakowski_eigmin"],
            [run.order, eigmin],
        )
    )
    return paths


def _task_evolve(run):
    """The coherence orders of rho0 and rho0^H in L_A's own basis: coordinate
    (k, a, b), k = i d_A + j, is |i a><j b|, where rho0 and each functional
    are read.  The block is propagated in its real Hermitian frame F: the
    generator R = Re(F G F^H) (G maps Hermitian operators to Hermitian ones,
    so the imaginary part is rounding), the state F y0, real when rho0 is
    Hermitian, and each functional f read as conj(F) f."""
    rho0, ancilla = run.rho0, run.ancilla
    if rho0 is None:
        raise ValidationError(
            "evolve needs an initial state: a model on A (x) S has no default one"
        )
    basis = AncillaBasis.vec(ancilla, run.charges, run.zero_tol)
    orders = basis.orders_of(rho0)
    (k, a, b), _, l0, v = basis.block(np.union1d(orders, -orders))
    i, j = np.divmod(k, math.isqrt(basis.q_k.size))
    rows, cols = i * ancilla.dim_s + a, j * ancilla.dim_s + b
    frame = hermitian_frame(rows, cols)

    def at(op, r, c, f):  # f @ the entries op[r, c], real where exactly so
        x = f @ np.asarray(op[r, c]).reshape(-1)
        return x if x.imag.any() else x.real

    # a copy: .real views the complex entries with a stride, which every
    # sparse product would first copy
    generator = (frame @ (l0 + run.epsilon * v) @ frame.conj().T).real.copy()
    generator.eliminate_zeros()
    states, _ = dynamics.propagate(generator, at(rho0, rows, cols, frame), run.times)
    series = [states @ at(op, cols, rows, frame.conj()) for op in run.observables.values()]
    names = list(run.observables)
    header = ["time"] + [f"re_{k}" for k in names] + [f"im_{k}" for k in names]
    columns = [run.times] + [s.real for s in series] + [s.imag for s in series]
    return [_write_csv(run.out + "_trajectory.csv", header, columns)]


def _task_compare(run):
    """Exact and order-2, order-2+3 emission of the burst, in the
    coherence-order-0 sector of the polarized state (4N+2 coordinates, the
    N+1 nuclear populations slow), in L0's eigen coordinates."""
    ancilla = run.ancilla
    n = ancilla.dim_s - 1
    sector = charge_sector(ancilla, run.charges, run.zero_tol, max_dim=SPECTRAL_DIM_LIMIT)
    _check_condition(sector.spectral.condition)
    sd, v = sector.spectral, sector.v
    if sd.slow_dim != n + 1:
        raise NonProductSlowSpaceError(
            f"the sector has {sd.slow_dim} slow modes, not the {n + 1} nuclear "
            "populations: the electron needs exactly one steady state"
        )
    gen = sw.generator_terms(sd, v, 3)
    series = sw.correction_terms(gen, sd, epsilon=run.epsilon)
    # coordinate (k, a, b) is R_k (x) |a><b|: rho0 = sum y0 R_k (x) |a><b|,
    # and Tr(I_z X) = f . x for X with coordinates x
    k, a, b = sector.index
    electron, nuclei = models.superradiance_initial(n)
    y0 = (sector.left @ vectorize(electron))[k] * nuclei[a, b]
    iz = models.collective_ops(n)[2]
    f = (superop.trace_functional(electron.shape[0]) @ sector.right)[k] * iz[b, a]
    slow = sd.slow
    times = run.times

    def intensity(generator, start, functional):
        states, _ = dynamics.propagate(generator, start, times)
        return -np.real(states @ (generator.T @ functional))

    i_exact = intensity(sd.l0_eigen + run.epsilon * v, y0, f)
    i_two = intensity(sw.effective_liouvillian(series, 2), y0[slow], f[slow])
    i_three = intensity(sw.effective_liouvillian(series, 3), y0[slow], f[slow])

    path = _write_csv(
        run.out + "_compare.csv",
        ["time", "intensity_exact", "intensity_order2", "intensity_order2plus3"],
        [times, i_exact, i_two, i_three],
    )
    err2 = float(np.trapezoid(np.abs(i_exact - i_two), times))
    err23 = float(np.trapezoid(np.abs(i_exact - i_three), times))
    ratio = err2 / err23 if err23 > 0 else np.inf
    print(f"integrated |error| order2 / order2+3 = {ratio:.17g}")
    return [path]


def _task_ancilla_qrt(run):
    eff = qrt.effective_master_equation_2(run.ancilla, zero_tol=run.zero_tol)
    jumps, h_eff = qrt.lindblad_decomposition(eff.coefficient, eff.system_ops)
    return [
        _write_matrix(run.out + "_coefficient.csv", eff.coefficient.a_matrix),
        _write_matrix(run.out + "_bloch.csv", eff.bloch.bloch),
        _write_csv(
            run.out + "_jumps.csv",
            ["index", "rate"],
            [np.arange(len(jumps)), np.array([rate for rate, _ in jumps], dtype=float)],
        ),
        _write_matrix(run.out + "_hamiltonian.csv", h_eff),
    ]


def _task_decoupling_scan(run):
    """max_q ||P_q T Q_q|| + max_q ||Q_q T P_q||: L0, V and each S_n keep every
    coherence order q, and Hermiticity maps q to -q with equal norms, so only the
    q >= 0 holding a zero mode are built (one whole-space sector without charges),
    each refused past ``SPECTRAL_DIM_LIMIT``; every epsilon of a sector in one
    ``sw.decoupling_blocks`` call."""
    basis = AncillaBasis(run.ancilla, run.charges, run.zero_tol)
    _check_condition(basis.condition)
    if basis.slow.size == basis.eigenvalues.size:
        raise ValidationError("decoupling-scan: L0 has no fast mode to decouple (zero residual)")
    eps, orders, blocks = np.asarray(run.epsilons), basis.orders(), []
    orders = orders[orders >= 0]
    # built a few orders at a time, about SPECTRAL_DIM_LIMIT coordinates a pass
    passes = np.cumsum(basis.dims(orders, SPECTRAL_DIM_LIMIT)) // SPECTRAL_DIM_LIMIT
    for group in np.split(orders, np.flatnonzero(np.diff(passes)) + 1):
        for sector in basis.sectors(group):
            sd, gen = sector.spectral, sw.generator_terms(sector.spectral, sector.v, run.order)
            blocks.append(sw.decoupling_blocks(sd, gen, eps, run.order))
    res = np.max(blocks, axis=0).sum(0)
    if not np.all(np.isfinite(res)):
        raise ToleranceNotMetError(f"decoupling residuals {res.tolist()} are not all finite")
    if not np.all(res > 0):
        raise ValidationError("decoupling-scan: the model has no perturbation (zero residual)")
    slope = float(np.polyfit(np.log(eps), np.log(res), 1)[0])
    header = ["epsilon", "residual", "fitted_slope"]
    path = _write_csv(run.out + "_decoupling.csv", header, [eps, res, slope])
    l0, v = run.ancilla.full_space()
    for e, r in zip(eps, res):
        floor = FLOOR_ROUNDINGS * np.finfo(float).eps * abs(l0 + e * v).sum(0).max()
        if r <= floor:
            msg = f"residual {r:.3g} at epsilon {e:g} is at the rounding floor {floor:.3g}"
            print(f"warning: {msg}; the fitted slope does not measure the order", file=sys.stderr)
    return [path]


_TASK_FN = {
    "spectrum": _task_spectrum,
    "effective": _task_effective,
    "evolve": _task_evolve,
    "compare": _task_compare,
    "ancilla-qrt": _task_ancilla_qrt,
    "decoupling-scan": _task_decoupling_scan,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="lsw",
        description="Effective slow-space generators for Markovian master equations",
    )
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--config", required=True, help="YAML run configuration")
    parser.add_argument("--order", type=int, default=None, help="perturbative order")
    parser.add_argument("--epsilon", type=float, default=None, help="perturbation strength")
    parser.add_argument("--out", default=None, help="output path prefix")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            cfg = _shaped("config root", yaml.load(fh, Loader=YAML_LOADER))
        run = Run(args.task, cfg, order=args.order, epsilon=args.epsilon, out=args.out)
    # RecursionError: symbols nesting parentheses, each within both caps;
    # MemoryError: an operator too large to allocate
    except (OSError, yaml.YAMLError, LswError, ValueError, KeyError, TypeError,
            RecursionError, MemoryError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        paths = _TASK_FN[run.task](run)
    # OSError: an output path that cannot be written
    except (ValidationError, DimensionMismatchError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (LswError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"numerical error: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    for path in paths:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
