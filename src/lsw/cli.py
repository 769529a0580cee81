"""Batch front-end: config ingestion, engine runs, CSV emission.

Every output file is plain CSV with all numerics printed to 17 significant
digits (round-trip safe) and deterministic for a fixed config and seed.
Tasks hand over whole columns; each column's dtype picks one format, which
is applied to a chunk of rows at a time.
Exit codes: 0 success, 2 config/validation error, 3 numerical failure.
"""

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import yaml

from . import dynamics, models, qrt, superop, sw
from .exceptions import DimensionMismatchError, LswError, ToleranceNotMetError, ValidationError
from .expr import parse_operator_expr
from .operators import spin_operators
from .spectral import as_operand, check_perturbative_limit, decompose
from .superop import LindbladSpec, lift, lindblad_superop, to_csr

TASKS = ("spectrum", "effective", "evolve", "compare", "ancilla-qrt", "decoupling-scan")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# spectral tasks hold D x D superoperators, dense ones for models whose L0
# does not factor; refuse configs past this size instead of crashing on an
# allocation
SPECTRAL_DIM_LIMIT = 4500

MAX_SYMBOL_DEPTH = 50  # nested symbol lookups; each recurses through the parser

# a decoupling residual at most this many roundings of ||L0 + epsilon V||_1 is
# noise (configs/decoupling_scan.yaml: 0.2-1.05 at orders 4-8, 4 at order 3)
FLOOR_ROUNDINGS = 2


def _decomposed(run):
    """Size check, then L0's eigensystem and V in the chosen backend's storage.

    L0 = L_A (x) 1_S for the model's ancilla block L_A; a system dimension
    above 1 selects the product backend, and only the dense backend
    densifies V.
    """
    anc = run.model["ancilla"]
    dim = anc.l0.shape[0] * anc.dim_s**2
    if dim > SPECTRAL_DIM_LIMIT:
        raise ValidationError(
            f"task {run.task!r}: superoperator dimension {dim} exceeds the spectral "
            f"limit {SPECTRAL_DIM_LIMIT} (reduce the model size)"
        )
    sd = decompose(anc.l0, zero_tol=run.zero_tol, dim_s=anc.dim_s)
    return sd, as_operand(sd, run.model["v"])


# rows formatted per chunk, one `.tolist()` per column and chunk: formatting
# a whole file as one string raised the peak RSS of a round of seven
# ancilla-qrt runs (4.2 MB of CSV) from 99 to 110 MB
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


def _matrix_columns(m):
    """Row-major (row, col, re, im) columns of a matrix."""
    m = np.asarray(m, dtype=complex)
    rows, cols = np.indices(m.shape)
    return [rows.ravel(), cols.ravel(), m.real.ravel(), m.imag.ravel()]


def _write_matrix(path, m):
    return _write_csv(path, ["row", "col", "re", "im"], _matrix_columns(m))


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
        return parse_operator_expr(str(d["expr"]), symbols)
    raise ValidationError(f"{key}: needs one of spin/identity/matrix/expr")


def _custom_model(cfg):
    """(AncillaModel, rho0, observables) of a custom model: on A (x) S with
    ``couplings``; on A alone with ``perturbations``, each paired with 1_1."""
    dim = _number("model.dimension", cfg.get("dimension", 0), integral=True, low=2)
    symbols = _Symbols(_shaped("model.symbols", cfg.get("symbols")))

    def parse(text):
        op = parse_operator_expr(str(text), symbols)
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
    l0, _ = lindblad_superop(LindbladSpec(hdim=dim, hamiltonian=hamiltonian, jumps=jumps))
    couplings = [
        (parse(p["ancilla"]), parse(p["system"]))
        for p in _shaped("model.couplings", cfg.get("couplings"), list, ("ancilla", "system"))
    ]
    perturbations = _shaped("model.perturbations", cfg.get("perturbations"), list)
    perturbations = [(parse(t), np.eye(1)) for t in perturbations]
    if couplings and perturbations:
        raise ValidationError("custom model: give couplings or perturbations, not both")
    epsilon = _number("model.epsilon", cfg.get("epsilon", 1.0))
    ancilla = qrt.AncillaModel(l0, couplings or perturbations, epsilon).validate()
    hdim = dim * ancilla.dim_s
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
    for name, op in observables.items():
        if op.shape != (hdim, hdim):
            raise DimensionMismatchError(
                f"observable {name!r} has shape {op.shape}, expected ({hdim}, {hdim})"
            )
    return ancilla, rho0, observables


class Run:
    """Validated run description assembled from config plus CLI overrides,
    with the model built from it (``model``, see ``_build_model``)."""

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
        if not all(e > 0 for e in self.epsilons):
            raise ValidationError("every entry of epsilons must be > 0")
        if task == "decoupling-scan" and len(self.epsilons) < 2:
            raise ValidationError("decoupling-scan fits a slope: epsilons needs two or more entries")
        self.model = _build_model(self)

    @property
    def times(self):
        return np.linspace(0.0, self.t_max, self.n_points)

    def workers(self):
        cap = os.environ.get("LSW_THREADS", "")
        if cap.strip().isdigit():
            return max(1, int(cap))
        return min(4, os.cpu_count() or 1)


def _superradiance_params(mcfg):
    """Superradiance parameters from a model section (`sqrt_n_g` or `g`)."""
    n = _number("model.n_spins", mcfg.get("n_spins", 2), integral=True)
    gamma = _number("model.gamma", mcfg.get("gamma", 1.0))
    omega = _number("model.omega", mcfg.get("omega", 0.0))
    if "sqrt_n_g" in mcfg:
        return models.SuperradianceParams.from_sqrt_n_g(
            n, _number("model.sqrt_n_g", mcfg["sqrt_n_g"]), gamma=gamma, omega=omega
        )
    return models.SuperradianceParams(
        n_spins=n, g=_number("model.g", mcfg.get("g", 0.1)), gamma=gamma, omega=omega
    )


def _build_model(run):
    """The one model registry: a dict with the kind, the AncillaModel under
    ``ancilla``, ``rho0`` (None: none on A (x) S) and the observables, plus
    superradiance's full model and charge.  Every task but ancilla-qrt
    also gets ``l0`` = L_A (x) 1_S and ``v`` from ``AncillaModel.perturbation``
    (CSR for a system dimension above 1)."""
    mcfg = _shaped("model", run.cfg.get("model"), dict, ("kind",))
    kind = mcfg["kind"]
    assemble = run.task != "ancilla-qrt"
    if kind == "superradiance":
        params = _superradiance_params(mcfg)
        if not assemble:
            return {"kind": kind, "ancilla": models.superradiance_ancilla(params)}
        model = models.superradiance_model(params)
        return {
            "kind": kind,
            "ancilla": model.ancilla,
            "l0": model.l0,
            "v": model.v,
            "rho0": model.initial_state,
            "observables": {"iz": model.iz_full},
            "model": model,
            "charge": model.charge,
        }
    if kind == "decaying-qubit":
        l0, _ = models.decaying_qubit(
            gamma=_number("model.gamma", mcfg.get("gamma", 1.0)),
            omega=_number("model.omega", mcfg.get("omega", 0.0)),
        )
        jp, jm, _ = spin_operators(1)
        rho0 = np.zeros((2, 2), complex)
        rho0[0, 0] = 1.0
        ancilla, observables = qrt.AncillaModel(l0=l0, couplings=[]), {"excited": jp @ jm}
    elif kind == "random":
        spec = models.random_lindblad_model(
            _number("model.dimension", mcfg.get("dimension", 3), integral=True),
            _number("model.jumps", mcfg.get("jumps", 2), integral=True),
            _number("model.seed", mcfg.get("seed", 0), integral=True),
        )
        # V comes from the ancilla model; the spec's own would be built and dropped
        l0, _ = lindblad_superop(LindbladSpec(spec.hdim, spec.hamiltonian, spec.jumps))
        ancilla = qrt.AncillaModel(l0=l0, couplings=[(h, np.eye(1)) for h in spec.perturbations])
        rho0, observables = np.eye(spec.hdim, dtype=complex) / spec.hdim, {}
    elif kind == "random-ancilla":
        ancilla = models.random_ancilla_model(
            _number("model.dimension", mcfg.get("dimension", 2), integral=True),
            _number("model.couplings", mcfg.get("couplings", 2), integral=True),
            _number("model.seed", mcfg.get("seed", 0), integral=True),
            dim_system=_number(
                "model.system_dimension", mcfg.get("system_dimension", 2), integral=True
            ),
        )
        rho0, observables = None, {}
    elif kind == "custom":
        ancilla, rho0, observables = _custom_model(mcfg)
    else:
        raise ValidationError(f"unknown model kind {kind!r}")
    built = {"kind": kind, "ancilla": ancilla, "rho0": rho0, "observables": observables}
    if assemble:
        dim_s = ancilla.dim_s
        built["l0"] = ancilla.l0 if dim_s == 1 else lift(ancilla.l0, dim_s)
        built["v"] = ancilla.perturbation(sparse=dim_s > 1)
    return built


def _task_spectrum(run):
    sd, _ = _decomposed(run)
    report = check_perturbative_limit(sd, run.model["v"], run.epsilon)
    order = np.lexsort((sd.eigenvalues.imag, sd.eigenvalues.real))  # deterministic listing
    lam = sd.eigenvalues[order]
    subspace = np.where(np.isin(order, sd.slow), "slow", "fast")
    path = _write_csv(
        run.out + "_spectrum.csv",
        ["index", "re", "im", "subspace", "gap", "perturbative_ok"],
        [np.arange(order.size), lam.real, lam.imag, subspace, sd.gap, int(report.ok)],
    )
    return [path]


def _generators_for(run):
    sd, v = _decomposed(run)
    return sd, v, sw.generator_terms(sd, v, run.order)


def _task_effective(run):
    sd, v, gen = _generators_for(run)
    series = sw.correction_terms(gen, sd, v, epsilon=run.epsilon)
    paths = [
        _write_matrix(f"{run.out}_effective_order{n}.csv", mat)
        for n, mat in enumerate(series.slow_terms[: run.order], start=1)
    ]
    total = sw.effective_liouvillian(series, run.order)
    hdim = math.isqrt(sd.dim)
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
    built = run.model
    if built["rho0"] is None:
        raise ValidationError(
            "evolve needs an initial state: a model on A (x) S has no default one"
        )
    gen = built["l0"] + run.epsilon * built["v"]
    traj = dynamics.evolve(gen, built["rho0"], run.times, built.get("charge"))
    header = ["time"] + [f"re_{k}" for k in built["observables"]] + [
        f"im_{k}" for k in built["observables"]
    ]
    series = [traj.expectation(op) for op in built["observables"].values()]
    columns = [traj.times] + [s.real for s in series] + [s.imag for s in series]
    return [_write_csv(run.out + "_trajectory.csv", header, columns)]


def _task_compare(run):
    if run.model["kind"] != "superradiance":
        raise ValidationError("compare runs on the superradiance model")
    model = run.model["model"]
    gen_exact = to_csr(model.l0 + model.v)
    times = run.times
    sd, v = _decomposed(run)
    gen = sw.generator_terms(sd, v, 3)
    series = sw.correction_terms(gen, sd, v)
    red2 = sw.reduced_effective(series, sd, model.dims, 2, cumulative=True).matrix
    red23 = sw.reduced_effective(series, sd, model.dims, 3, cumulative=True).matrix

    dn = model.dims[1]
    mu0 = np.zeros((dn, dn), dtype=complex)
    mu0[0, 0] = 1.0

    def exact():
        traj = dynamics.evolve(gen_exact, model.initial_state, times, model.charge)
        return dynamics.emission_intensity(traj, model.iz_full, gen_exact)

    def reduced(mat):
        traj = dynamics.evolve(mat, mu0, times, model.charges[1])
        return dynamics.emission_intensity(traj, model.iz, mat)

    with ThreadPoolExecutor(max_workers=run.workers()) as pool:
        f_exact = pool.submit(exact)
        f_two = pool.submit(reduced, red2)
        f_three = pool.submit(reduced, red23)
        i_exact, i_two, i_three = f_exact.result(), f_two.result(), f_three.result()

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
    model = run.model["ancilla"]
    if model.dim_s == 1:
        raise ValidationError(
            f"model kind {run.model['kind']!r} has no system to reduce to: "
            "ancilla-qrt needs couplings to a system of dimension 2 or more"
        )
    eff = qrt.effective_master_equation_2(model, zero_tol=run.zero_tol)
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
    sd, v, gen = _generators_for(run)

    def residual(eps):
        return sw.decoupling_residual(sd, v, gen, eps, run.order)

    with ThreadPoolExecutor(max_workers=run.workers()) as pool:
        residuals = list(pool.map(residual, run.epsilons))
    eps = np.asarray(run.epsilons)
    res = np.asarray(residuals)
    if not np.all(np.isfinite(res)):
        raise ToleranceNotMetError(f"decoupling residuals {res.tolist()} are not all finite")
    if not np.all(res > 0):
        raise ValidationError("decoupling-scan: the model has no perturbation (zero residual)")
    slope = float(np.polyfit(np.log(eps), np.log(res), 1)[0])
    header = ["epsilon", "residual", "fitted_slope"]
    path = _write_csv(run.out + "_decoupling.csv", header, [eps, res, slope])
    for e, r in zip(eps, res):
        floor = FLOOR_ROUNDINGS * np.finfo(float).eps * abs(run.model["l0"] + e * v).sum(0).max()
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
            cfg = _shaped("config root", yaml.safe_load(fh))
        run = Run(args.task, cfg, order=args.order, epsilon=args.epsilon, out=args.out)
    # RecursionError: symbols nesting parentheses, each within both caps
    except (OSError, yaml.YAMLError, LswError, ValueError, KeyError, TypeError,
            RecursionError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        paths = _TASK_FN[run.task](run)
    except (ValidationError, DimensionMismatchError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (LswError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    for path in paths:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
