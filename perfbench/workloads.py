"""Workload definitions: which CLI task each sample runs, and its output check.

A sample is the unit that ``wall_s`` times: one ``lsw.cli.main`` call for
``burst16``, ``scan8`` and ``evolve24``, and one round of seven
``ancilla-qrt`` calls (one per ancilla dimension) for ``qrt-mix``.  Every
CLI call is one operation for ``attempted`` and ``failed``.

All paths are relative to the checkout root, which is the working
directory of every benchmark process.
"""

import csv
import hashlib
from pathlib import Path

import numpy as np
import yaml

HERE = Path(__file__).resolve().parent

# task, config file (read as-is unless generated per operation)
WORKLOADS = {
    "burst16": ("compare", Path("configs/burst_compare.yaml")),
    "scan8": ("decoupling-scan", HERE / "configs" / "scan8.yaml"),
    "evolve24": ("evolve", HERE / "configs" / "evolve24.yaml"),
    "qrt-mix": ("ancilla-qrt", HERE / "configs" / "qrt-mix.yaml"),
}

# qrt-mix runs a fixed number of rounds for a given --seconds, so that one
# seed always gives the same operations and the same failures.  One round
# plus its worker's start-up takes about this long on the seed code
# (2-vCPU KVM guest).
QRT_ROUND_S = 3.2

# recorded criterion-7 ratio of the integrated order-2 and order-2+3 errors
BURST_ERROR_RATIO = 5.4909
BURST_RATIO_BAND = 0.02
BURST_PEAK_MIN = 1.2
SCAN_SLOPE_BAND = 0.3
QRT_ROUTE_TOL = 1e-8  # criterion 6
# RK45 runs at rtol 1e-9 / atol 1e-12; the reference is expm_multiply
EVOLVE_REL_TOL = 1e-6


def config_hash(name):
    return hashlib.sha256(WORKLOADS[name][1].read_bytes()).hexdigest()[:16]


def fixed_samples(name, seconds):
    """Samples in one run, or None when ``--seconds`` alone ends the run."""
    if name != "qrt-mix":
        return None
    return max(2, round(seconds / QRT_ROUND_S))


def qrt_model_seed(seed, round_index, dim):
    """Model seed of one qrt-mix operation, fixed by the benchmark seed."""
    return int(np.random.SeedSequence([seed, round_index, dim]).generate_state(1)[0])


def sample_ops(name, seed, index, workdir):
    """Operations of one sample: dicts with the CLI argv and output prefix."""
    task, config = WORKLOADS[name]
    base = Path(workdir) / f"s{index:03d}"
    base.mkdir(parents=True)
    if name != "qrt-mix":
        out = str(base / name)
        return [{"argv": [task, "--config", str(config), "--out", out], "out": out}]
    template = yaml.safe_load(config.read_text())
    ops = []
    for dim in template["ancilla_dimensions"]:
        model_seed = qrt_model_seed(seed, index, dim)
        cfg = {"model": dict(template["model"], dimension=dim, seed=model_seed)}
        path = base / f"dim{dim}.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = str(base / f"dim{dim}")
        ops.append(
            {
                "argv": [task, "--config", str(path), "--out", out],
                "out": out,
                "label": f"dim={dim}",
                "dim": dim,
                "model_seed": model_seed,
            }
        )
    return ops


def _read_columns(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {h: np.array([float(r[i]) for r in body]) for i, h in enumerate(header)}


def _read_matrix(path):
    cols = _read_columns(path)
    n = int(cols["row"].max()) + 1
    m = np.zeros((n, int(cols["col"].max()) + 1), dtype=complex)
    m[cols["row"].astype(int), cols["col"].astype(int)] = cols["re"] + 1j * cols["im"]
    return m


class Checker:
    """Output checks, run after the timed worker has exited.

    ``check(name, op)`` returns ``(ok, detail)``.  References that cost real
    time (the evolve24 propagation) are computed once per run.
    """

    def __init__(self):
        self._evolve_ref = None

    def check(self, name, op):
        return getattr(self, "_" + name.replace("-", "_"))(op)

    def _burst16(self, op):
        c = _read_columns(op["out"] + "_compare.csv")
        t, exact = c["time"], c["intensity_exact"]
        err2 = np.trapezoid(np.abs(exact - c["intensity_order2"]), t)
        err23 = np.trapezoid(np.abs(exact - c["intensity_order2plus3"]), t)
        ratio = err2 / err23
        peak = exact.max() / exact[np.searchsorted(t, 5.0)]
        ok = (
            abs(ratio - BURST_ERROR_RATIO) < BURST_RATIO_BAND * BURST_ERROR_RATIO
            and peak > BURST_PEAK_MIN
        )
        return ok, f"error ratio {ratio:.5f}, peak/baseline {peak:.3f}"

    def _scan8(self, op):
        c = _read_columns(op["out"] + "_decoupling.csv")
        slope = float(c["fitted_slope"][0])
        order = yaml.safe_load(WORKLOADS["scan8"][1].read_text())["order"]
        ok = bool(np.all(np.isfinite(c["residual"]))) and abs(slope - (order + 1)) <= SCAN_SLOPE_BAND
        return ok, f"fitted slope {slope:.4f} (target {order + 1})"

    def _evolve_reference(self):
        if self._evolve_ref is None:
            from scipy.sparse.linalg import expm_multiply

            from lsw import models
            from lsw.superop import to_csr, vectorize

            mcfg = yaml.safe_load(WORKLOADS["evolve24"][1].read_text())
            m, times = mcfg["model"], mcfg["times"]
            params = models.SuperradianceParams.from_sqrt_n_g(
                m["n_spins"], m["sqrt_n_g"], gamma=m["gamma"], omega=m["omega"]
            )
            model = models.superradiance_model(params)
            states = expm_multiply(
                to_csr(model.l0 + model.v),
                vectorize(model.initial_state),
                start=0.0,
                stop=float(times["t_max"]),
                num=int(times["n_points"]),
                endpoint=True,
            )
            self._evolve_ref = (states @ model.iz_full.T.reshape(-1)).real
        return self._evolve_ref

    def _evolve24(self, op):
        got = _read_columns(op["out"] + "_trajectory.csv")["re_iz"]
        ref = self._evolve_reference()
        if got.shape != ref.shape:
            return False, f"{got.size} points, expected {ref.size}"
        diff = float(np.abs(got - ref).max() / np.abs(ref).max())
        return diff <= EVOLVE_REL_TOL, f"re_iz vs expm_multiply: max rel diff {diff:.2e}"

    def _qrt_mix(self, op):
        from lsw import models, qrt

        template = yaml.safe_load(WORKLOADS["qrt-mix"][1].read_text())["model"]
        model = models.random_ancilla_model(
            op["dim"],
            template["couplings"],
            op["model_seed"],
            dim_system=template["system_dimension"],
        )
        ops = [a for a, _ in model.couplings]
        oracle = qrt.coefficient_matrix_resolvent_oracle(
            model.l0, qrt.steady_state(model.l0), ops
        )
        got = _read_matrix(op["out"] + "_coefficient.csv")
        if got.shape != oracle.shape:
            return False, f"coefficient shape {got.shape}, expected {oracle.shape}"
        diff = float(np.abs(got - oracle).max())
        return diff < QRT_ROUTE_TOL, f"route diff {diff:.2e}"
