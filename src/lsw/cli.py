"""Batch front-end: config ingestion, engine runs, CSV emission.

Every output file is plain CSV with all numerics printed to 17 significant
digits (round-trip safe) and deterministic for a fixed config and seed.
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
from .exceptions import (
    DimensionMismatchError,
    ExprSyntaxError,
    LswError,
    UnknownSymbolError,
    ValidationError,
)
from .expr import parse_operator_expr
from .operators import spin_operators
from .spectral import check_perturbative_limit, decompose
from .superop import LindbladSpec, lindblad_superop, to_csr, to_dense

TASKS = ("spectrum", "effective", "evolve", "compare", "ancilla-qrt", "decoupling-scan")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# full eigendecompositions are dense; refuse configs that would densify
# something enormous instead of crashing on the allocation
DENSE_SPECTRAL_LIMIT = 4500


def _require_dense_tractable(obj, task):
    dim = obj.shape[0]
    if dim > DENSE_SPECTRAL_LIMIT:
        raise ValidationError(
            f"task {task!r} needs a dense eigendecomposition; superoperator "
            f"dimension {dim} exceeds {DENSE_SPECTRAL_LIMIT} (reduce the model size)"
        )
    return to_dense(obj)


def _fmt(x):
    if isinstance(x, (complex, np.complexfloating)):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    if isinstance(x, (float, np.floating)):
        return f"{x:.17g}"
    return str(x)


def _write_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def _matrix_rows(m):
    """Row-major (row, col, re, im) records of a matrix."""
    m = np.asarray(m)
    rows = []
    for i in range(m.shape[0]):
        for j in range(m.shape[1]):
            rows.append((i, j, float(m[i, j].real), float(m[i, j].imag)))
    return rows


def _build_symbols(defs):
    """Materialize the config symbol table in declaration order."""
    symbols = {}
    for name, d in (defs or {}).items():
        if not isinstance(d, dict):
            raise ValidationError(f"symbol {name!r}: definition must be a mapping")
        if "spin" in d:
            two_j = int(d["spin"])
            jp, jm, jz = spin_operators(two_j)
            component = d.get("component", "z")
            try:
                symbols[name] = {"plus": jp, "minus": jm, "z": jz}[component]
            except KeyError:
                raise ValidationError(
                    f"symbol {name!r}: component must be plus/minus/z"
                ) from None
        elif "identity" in d:
            symbols[name] = np.eye(int(d["identity"]), dtype=complex)
        elif "matrix" in d:
            entries = np.asarray(d["matrix"], dtype=float)
            if entries.ndim == 3 and entries.shape[2] == 2:
                symbols[name] = entries[..., 0] + 1j * entries[..., 1]
            elif entries.ndim == 2:
                symbols[name] = entries.astype(complex)
            else:
                raise ValidationError(
                    f"symbol {name!r}: matrix must be 2-d (or 2-d of [re, im] pairs)"
                )
        elif "expr" in d:
            symbols[name] = parse_operator_expr(str(d["expr"]), symbols)
        else:
            raise ValidationError(
                f"symbol {name!r}: needs one of spin/identity/matrix/expr"
            )
    return symbols


def _custom_spec(cfg):
    dim = int(cfg.get("dimension", 0))
    if dim < 2:
        raise ValidationError("custom model needs dimension >= 2")
    symbols = _build_symbols(cfg.get("symbols"))
    ham_text = cfg.get("hamiltonian")
    hamiltonian = (
        parse_operator_expr(str(ham_text), symbols)
        if ham_text
        else np.zeros((dim, dim), complex)
    )
    jumps = []
    for j in cfg.get("jumps", []) or []:
        jumps.append((float(j["rate"]), parse_operator_expr(str(j["operator"]), symbols)))
    perturbations = [
        parse_operator_expr(str(t), symbols) for t in cfg.get("perturbations", []) or []
    ]
    spec = LindbladSpec(
        hdim=dim, hamiltonian=hamiltonian, jumps=jumps, perturbations=perturbations
    )
    return spec, symbols


class Run:
    """Validated run description assembled from config plus CLI overrides."""

    def __init__(self, task, cfg, order=None, epsilon=None, out=None):
        if task not in TASKS:
            raise ValidationError(f"unknown task {task!r}")
        self.task = task
        self.cfg = cfg
        self.order = int(order if order is not None else cfg.get("order", 2))
        self.epsilon = float(epsilon if epsilon is not None else cfg.get("epsilon", 1.0))
        self.out = str(out if out is not None else cfg.get("output", "lsw_out"))
        times = cfg.get("times", {}) or {}
        self.t_max = float(times.get("t_max", 10.0))
        self.n_points = int(times.get("n_points", 201))
        tol = cfg.get("tolerances", {}) or {}
        self.zero_tol = float(tol.get("zero_tol", 1e-9))
        self.epsilons = [float(e) for e in cfg.get("epsilons", [1e-2, 1e-3, 1e-4])]
        if not 1 <= self.order <= sw.MAX_ORDER:
            raise ValidationError(f"order must be in [1, {sw.MAX_ORDER}]")
        if self.n_points < 2:
            raise ValidationError("times.n_points must be >= 2")
        if self.t_max <= 0:
            raise ValidationError("times.t_max must be > 0")

    @property
    def times(self):
        return np.linspace(0.0, self.t_max, self.n_points)

    def workers(self):
        cap = os.environ.get("LSW_THREADS", "")
        if cap.strip().isdigit():
            return max(1, int(cap))
        return min(4, os.cpu_count() or 1)


def _model_kind(cfg):
    model = cfg.get("model")
    if not isinstance(model, dict) or "kind" not in model:
        raise ValidationError("config needs a model section with a kind")
    return model["kind"], model


def _superradiance_params(mcfg):
    """Superradiance parameters from a model section (`sqrt_n_g` or `g`)."""
    n = int(mcfg.get("n_spins", 2))
    gamma = float(mcfg.get("gamma", 1.0))
    omega = float(mcfg.get("omega", 0.0))
    if "sqrt_n_g" in mcfg:
        return models.SuperradianceParams.from_sqrt_n_g(
            n, float(mcfg["sqrt_n_g"]), gamma=gamma, omega=omega
        )
    return models.SuperradianceParams(
        n_spins=n, g=float(mcfg.get("g", 0.1)), gamma=gamma, omega=omega
    )


def _build_model(run):
    """Return a dict with l0, v, initial state and observables for the task."""
    kind, mcfg = _model_kind(run.cfg)
    if kind == "superradiance":
        model = models.superradiance_model(_superradiance_params(mcfg))
        return {
            "kind": kind,
            "l0": model.l0,
            "v": model.v,
            "rho0": model.initial_state,
            "observables": {"iz": model.iz_full},
            "model": model,
        }
    if kind == "decaying-qubit":
        l0, _ = models.decaying_qubit(
            gamma=float(mcfg.get("gamma", 1.0)), omega=float(mcfg.get("omega", 0.0))
        )
        jp, jm, _ = spin_operators(1)
        rho0 = np.zeros((2, 2), complex)
        rho0[0, 0] = 1.0
        return {
            "kind": kind,
            "l0": l0,
            "v": np.zeros_like(to_dense(l0)),
            "rho0": rho0,
            "observables": {"excited": jp @ jm},
        }
    if kind == "random":
        spec = models.random_lindblad_model(
            int(mcfg.get("dimension", 3)),
            int(mcfg.get("jumps", 2)),
            int(mcfg.get("seed", 0)),
        )
        l0, v = lindblad_superop(spec, sparse=False)
        rho0 = np.eye(spec.hdim, dtype=complex) / spec.hdim
        return {"kind": kind, "l0": l0, "v": v, "rho0": rho0, "observables": {}}
    if kind == "custom":
        spec, symbols = _custom_spec(mcfg)
        l0, v = lindblad_superop(spec, sparse=False)
        rho0_text = mcfg.get("initial")
        if rho0_text:
            rho0 = parse_operator_expr(str(rho0_text), symbols)
            rho0 = rho0 / np.trace(rho0)
        else:
            rho0 = np.eye(spec.hdim, dtype=complex) / spec.hdim
        observables = {
            name: parse_operator_expr(str(text), symbols)
            for name, text in (mcfg.get("observables") or {}).items()
        }
        return {
            "kind": kind,
            "l0": l0,
            "v": v,
            "rho0": rho0,
            "observables": observables,
            "symbols": symbols,
        }
    raise ValidationError(f"unknown model kind {kind!r}")


def _task_spectrum(run):
    built = _build_model(run)
    l0 = _require_dense_tractable(built["l0"], run.task)
    sd = decompose(l0, zero_tol=run.zero_tol)
    report = check_perturbative_limit(sd, built["v"], run.epsilon)
    rows = []
    flags = {int(i): "slow" for i in sd.slow}
    order = np.lexsort((sd.eigenvalues.imag, sd.eigenvalues.real))  # deterministic listing
    for rank, i in enumerate(order):
        lam = sd.eigenvalues[i]
        rows.append(
            (
                rank,
                float(lam.real),
                float(lam.imag),
                flags.get(int(i), "fast"),
                sd.gap,
                int(report.ok),
            )
        )
    path = _write_csv(
        run.out + "_spectrum.csv",
        ["index", "re", "im", "subspace", "gap", "perturbative_ok"],
        rows,
    )
    return [path]


def _series_for(run, built):
    l0 = _require_dense_tractable(built["l0"], run.task)
    v = to_dense(built["v"])
    sd = decompose(l0, zero_tol=run.zero_tol)
    gen = sw.generator_terms(sd, v, run.order)
    series = sw.correction_terms(gen, sd, v, epsilon=run.epsilon)
    return sd, gen, series


def _task_effective(run):
    built = _build_model(run)
    sd, _, series = _series_for(run, built)
    paths = []
    for n in range(1, run.order + 1):
        mat = series.slow_terms[n - 1]
        paths.append(
            _write_csv(
                f"{run.out}_effective_order{n}.csv",
                ["row", "col", "re", "im"],
                _matrix_rows(mat),
            )
        )
    total = sw.effective_liouvillian(series, run.order)
    hdim = math.isqrt(sd.dim)
    trace_row = superop.trace_functional(hdim) @ sd.right[:, sd.slow]
    diag_rows = []
    for n in range(1, run.order + 1):
        mat = series.slow_terms[n - 1]
        trace_resid = float(np.abs(trace_row @ mat).max()) if mat.size else 0.0
        diag_rows.append((n, trace_resid))
    chi = superop.kossakowski_matrix(
        sd.right[:, sd.slow] @ total @ sd.left[sd.slow, :]
    )
    herm = 0.5 * (chi + chi.conj().T)
    eigmin = float(np.linalg.eigvalsh(herm).min()) if herm.size else 0.0
    paths.append(
        _write_csv(
            f"{run.out}_effective_diagnostics.csv",
            ["order", "trace_residual"],
            diag_rows,
        )
    )
    paths.append(
        _write_csv(
            f"{run.out}_effective_psd.csv",
            ["order", "kossakowski_eigmin"],
            [(run.order, eigmin)],
        )
    )
    return paths


def _task_evolve(run):
    built = _build_model(run)
    gen = built["l0"] + run.epsilon * built["v"]
    traj = dynamics.evolve(gen, built["rho0"], run.times)
    header = ["time"] + [f"re_{k}" for k in built["observables"]] + [
        f"im_{k}" for k in built["observables"]
    ]
    ops = list(built["observables"].values())
    rows = []
    for idx, t in enumerate(traj.times):
        vals = [traj.expectation(op)[idx] for op in ops]
        rows.append(
            tuple([float(t)] + [float(v.real) for v in vals] + [float(v.imag) for v in vals])
        )
    return [_write_csv(run.out + "_trajectory.csv", header, rows)]


def _task_compare(run):
    built = _build_model(run)
    if built["kind"] != "superradiance":
        raise ValidationError("compare runs on the superradiance model")
    model = built["model"]
    gen_exact = to_csr(model.l0 + model.v)
    times = run.times
    l0 = _require_dense_tractable(model.l0, run.task)
    v = to_dense(model.v)
    sd = decompose(l0, zero_tol=run.zero_tol)
    gen = sw.generator_terms(sd, v, 3)
    series = sw.correction_terms(gen, sd, v)
    red2 = sw.reduced_effective(series, sd, model.dims, 2, cumulative=True).matrix
    red23 = sw.reduced_effective(series, sd, model.dims, 3, cumulative=True).matrix

    dn = model.dims[1]
    mu0 = np.zeros((dn, dn), dtype=complex)
    mu0[0, 0] = 1.0

    def exact():
        traj = dynamics.evolve(gen_exact, model.initial_state, times)
        return dynamics.emission_intensity(traj, model.iz_full, gen_exact)

    def reduced(mat):
        traj = dynamics.evolve(mat, mu0, times)
        return dynamics.emission_intensity(traj, model.iz, mat)

    with ThreadPoolExecutor(max_workers=run.workers()) as pool:
        f_exact = pool.submit(exact)
        f_two = pool.submit(reduced, red2)
        f_three = pool.submit(reduced, red23)
        i_exact, i_two, i_three = f_exact.result(), f_two.result(), f_three.result()

    rows = [
        (float(t), float(a), float(b), float(c))
        for t, a, b, c in zip(times, i_exact, i_two, i_three)
    ]
    path = _write_csv(
        run.out + "_compare.csv",
        ["time", "intensity_exact", "intensity_order2", "intensity_order2plus3"],
        rows,
    )
    err2 = float(np.trapezoid(np.abs(i_exact - i_two), times))
    err23 = float(np.trapezoid(np.abs(i_exact - i_three), times))
    ratio = err2 / err23 if err23 > 0 else np.inf
    print(f"integrated |error| order2 / order2+3 = {_fmt(ratio)}")
    return [path]


def _ancilla_from_config(run):
    kind, mcfg = _model_kind(run.cfg)
    if kind == "superradiance":
        return models.superradiance_ancilla(_superradiance_params(mcfg))
    if kind == "random-ancilla":
        return models.random_ancilla_model(
            int(mcfg.get("dimension", 2)),
            int(mcfg.get("couplings", 2)),
            int(mcfg.get("seed", 0)),
            dim_system=int(mcfg.get("system_dimension", 2)),
        )
    if kind == "custom":
        spec, symbols = _custom_spec(mcfg)
        l0, _ = lindblad_superop(spec, sparse=False)
        couplings = []
        for pair in mcfg.get("couplings", []) or []:
            couplings.append(
                (
                    parse_operator_expr(str(pair["ancilla"]), symbols),
                    parse_operator_expr(str(pair["system"]), symbols),
                )
            )
        if not couplings:
            raise ValidationError("custom ancilla model needs a couplings list")
        return qrt.AncillaModel(
            l0=to_dense(l0), couplings=couplings, epsilon=float(mcfg.get("epsilon", 1.0))
        )
    raise ValidationError(f"model kind {kind!r} has no ancilla form")


def _task_ancilla_qrt(run):
    model = _ancilla_from_config(run)
    eff = qrt.effective_master_equation_2(model)
    system_ops = [s for _, s in model.couplings]
    jumps, h_eff = qrt.lindblad_decomposition(eff.coefficient, system_ops)
    paths = [
        _write_csv(
            run.out + "_coefficient.csv",
            ["row", "col", "re", "im"],
            _matrix_rows(eff.coefficient.a_matrix),
        ),
        _write_csv(
            run.out + "_bloch.csv",
            ["row", "col", "re", "im"],
            _matrix_rows(eff.bloch.bloch),
        ),
        _write_csv(
            run.out + "_jumps.csv",
            ["index", "rate"],
            [(i, float(rate)) for i, (rate, _) in enumerate(jumps)],
        ),
        _write_csv(
            run.out + "_hamiltonian.csv",
            ["row", "col", "re", "im"],
            _matrix_rows(h_eff),
        ),
    ]
    return paths


def _task_decoupling_scan(run):
    built = _build_model(run)
    sd, gen, _ = _series_for(run, built)
    v = to_dense(built["v"])

    def residual(eps):
        return sw.decoupling_residual(sd, v, gen, eps, run.order)

    with ThreadPoolExecutor(max_workers=run.workers()) as pool:
        residuals = list(pool.map(residual, run.epsilons))
    eps = np.asarray(run.epsilons)
    res = np.asarray(residuals)
    slope = float(np.polyfit(np.log(eps), np.log(res), 1)[0]) if eps.size > 1 else 0.0
    rows = [(float(e), float(r), slope) for e, r in zip(eps, res)]
    return [
        _write_csv(
            run.out + "_decoupling.csv", ["epsilon", "residual", "fitted_slope"], rows
        )
    ]


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
            cfg = yaml.safe_load(fh) or {}
        if not isinstance(cfg, dict):
            raise ValidationError("config root must be a mapping")
        run = Run(args.task, cfg, order=args.order, epsilon=args.epsilon, out=args.out)
    except (OSError, yaml.YAMLError, LswError, ValueError, KeyError, TypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        paths = _TASK_FN[run.task](run)
    except (ValidationError, UnknownSymbolError, ExprSyntaxError, DimensionMismatchError) as exc:
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
