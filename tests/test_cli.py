import re
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from lsw import cli, dynamics, models, spectral
from lsw.superop import lift, to_dense
from lsw.sw import match_eigenvalues


def write_config(tmp_path, payload, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def read_columns(path):
    header, rows = read_csv(Path(path))
    return {h: np.array([float(r[i]) for r in rows]) for i, h in enumerate(header)}


def read_matrix(path):
    c = read_columns(path)
    n = int(c["row"].max()) + 1
    m = np.zeros((n, int(c["col"].max()) + 1), dtype=complex)
    m[c["row"].astype(int), c["col"].astype(int)] = c["re"] + 1j * c["im"]
    return m


def record_trajectories(monkeypatch):
    """Patch dynamics.evolve to keep every trajectory it returns."""
    real = dynamics.evolve
    trajs = []

    def recorded(*args):
        trajs.append(real(*args))
        return trajs[-1]

    monkeypatch.setattr(dynamics, "evolve", recorded)
    return trajs


def run_on_backend(monkeypatch, task, cfg, out, dense):
    """Run a CLI task, on the dense backend if asked; return the backends used."""
    real = spectral.decompose
    used = []

    def recorded(block, zero_tol, dim_s):
        if dense:  # the same L0, handed over whole
            block, dim_s = to_dense(lift(block, dim_s)), 1
        sd = real(block, zero_tol=zero_tol, dim_s=dim_s)
        used.append(sd.backend)
        return sd

    monkeypatch.setattr(cli, "decompose", recorded)
    assert cli.main([task, "--config", cfg, "--out", str(out)]) == 0
    monkeypatch.undo()
    return used


def run_both_backends(tmp_path, monkeypatch, task, payload):
    """Output prefixes of a superradiance task run on the product and the dense backend."""
    cfg = write_config(tmp_path, payload)
    product, dense = tmp_path / "product", tmp_path / "dense"
    assert run_on_backend(monkeypatch, task, cfg, product, dense=False) == ["product"]
    assert run_on_backend(monkeypatch, task, cfg, dense, dense=True) == ["dense"]
    return f"{product}_", f"{dense}_"


def reference_fmt(x):
    """The per-cell formatter the columnar writer must reproduce byte for byte."""
    if isinstance(x, (complex, np.complexfloating)):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    if isinstance(x, (float, np.floating)):
        return f"{x:.17g}"
    return str(x)


def reference_csv(header, rows):
    lines = [header] + [[reference_fmt(x) for x in row] for row in rows]
    return "".join(",".join(line) + "\n" for line in lines).encode()


def reference_matrix_rows(m):
    return [
        (i, j, float(m[i, j].real), float(m[i, j].imag))
        for i in range(m.shape[0])
        for j in range(m.shape[1])
    ]


def test_write_csv_matches_reference_formatter(tmp_path):
    nan, inf = float("nan"), float("inf")
    floats = np.array([-0.0, nan, inf, -inf, 5e-324, 1e16, 0.1, 1 / 3, -2.5e-300, 1.0])
    n = floats.size
    cplx = np.array(
        [complex(1.0, -0.0), complex(-0.0, -0.0), complex(nan, inf), 1e16 - 5e-324j]
        + [complex(x, -x) for x in floats[4:]]
    )
    ints = np.arange(n, dtype=np.int64) - 3
    py_ints = [2**40, -1, 0, 7, 2, 3, 4, 5, 6, 8]
    labels = np.array(["slow", "fast"] * (n // 2))
    flags = np.arange(n) % 3 == 0
    header = ["i", "pyint", "scalar", "x", "z", "label", "flag"]
    path = cli._write_csv(
        tmp_path / "cells.csv", header, [ints, py_ints, 7, floats, cplx, labels, flags]
    )
    rows = [
        (ints[k], py_ints[k], 7, floats[k], cplx[k], labels[k], flags[k]) for k in range(n)
    ]
    assert path.read_bytes() == reference_csv(header, rows)

    matrix_header = ["row", "col", "re", "im"]
    real = np.array([[1.5, -0.0, nan], [inf, 5e-324, -1e16]])
    cplx_matrix = real.astype(complex)
    cplx_matrix.imag = real[::-1]
    for m in (real, cplx_matrix, np.zeros((0, 0))):
        got = cli._write_csv(tmp_path / "m.csv", matrix_header, cli._matrix_columns(m))
        assert got.read_bytes() == reference_csv(matrix_header, reference_matrix_rows(m))
    assert (tmp_path / "m.csv").read_text() == "row,col,re,im\n"  # 0 x 0: header only
    cli._write_csv(tmp_path / "m.csv", matrix_header, cli._matrix_columns(real))
    lines = (tmp_path / "m.csv").read_text().splitlines()[1:]
    assert len(lines) == real.size and all(line.endswith(",0") for line in lines)

    # a column longer than two chunks
    long = 2 * cli.CSV_CHUNK_ROWS + 5
    values = np.random.default_rng(0).standard_normal(long) * np.logspace(-8, 8, long)
    path = cli._write_csv(tmp_path / "long.csv", ["k", "v"], [np.arange(long), values])
    assert path.read_bytes() == reference_csv(["k", "v"], zip(range(long), values))


def test_spectrum_decaying_qubit(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "model": {"kind": "decaying-qubit", "gamma": 1.0, "omega": 0.2},
            "output": str(tmp_path / "qb"),
        },
    )
    assert cli.main(["spectrum", "--config", cfg]) == 0
    header, rows = read_csv(tmp_path / "qb_spectrum.csv")
    assert header == ["index", "re", "im", "subspace", "gap", "perturbative_ok"]
    assert len(rows) == 4
    eigs = sorted((float(r[1]), float(r[2])) for r in rows)
    expected = sorted([(0.0, 0.0), (-0.5, 0.2), (-0.5, -0.2), (-1.0, 0.0)])
    for got, want in zip(eigs, expected):
        assert abs(got[0] - want[0]) < 1e-12
        assert abs(got[1] - want[1]) < 1e-12
    slow_rows = [r for r in rows if r[3] == "slow"]
    assert len(slow_rows) == 1


def test_spectrum_deterministic_bytes(tmp_path, monkeypatch):
    cfg = write_config(
        tmp_path,
        {
            "model": {"kind": "random", "dimension": 3, "jumps": 2, "seed": 4},
            "output": str(tmp_path / "rnd"),
        },
    )
    assert cli.main(["spectrum", "--config", cfg]) == 0
    first = (tmp_path / "rnd_spectrum.csv").read_bytes()
    assert cli.main(["spectrum", "--config", cfg]) == 0
    assert (tmp_path / "rnd_spectrum.csv").read_bytes() == first

    # expm_multiply estimates matrix-power norms with scipy's onenormest,
    # which draws from the global RNG; the trajectory must not depend on it.
    # The uncharged 256-dim run over a short span takes expm_multiply, the
    # N=4 burst steps densely and draws nothing.
    cases = (
        ({"kind": "random", "dimension": 16, "jumps": 2, "seed": 4}, 0.2, "expm_multiply"),
        ({"kind": "superradiance", "n_spins": 4, "sqrt_n_g": 0.2, "gamma": 1.0,
          "omega": 0.2}, 400.0, "expm"),
    )
    for model, t_max, stepper in cases:
        cfg = write_config(
            tmp_path,
            {
                "model": model,
                "times": {"t_max": t_max, "n_points": 41},
                "output": str(tmp_path / "evo"),
            },
            name="evolve.yaml",
        )
        trajs, outputs = record_trajectories(monkeypatch), []
        for seed in (1, 2, 3):
            np.random.seed(seed)
            assert cli.main(["evolve", "--config", cfg]) == 0
            outputs.append((tmp_path / "evo_trajectory.csv").read_bytes())
        monkeypatch.undo()
        assert [t.stepper for t in trajs] == [stepper] * 3
        # the expm_multiply runs did draw from it, so the seeds were exercised
        drew = np.random.randint(2**31) != np.random.RandomState(3).randint(2**31)
        assert drew == (stepper == "expm_multiply")
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_effective_outputs(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "model": {"kind": "superradiance", "n_spins": 2, "g": 0.1, "gamma": 1.0, "omega": 0.2},
            "order": 2,
            "output": str(tmp_path / "eff"),
        },
    )
    assert cli.main(["effective", "--config", cfg]) == 0
    for suffix in ("order1", "order2", "diagnostics", "psd"):
        assert (tmp_path / f"eff_effective_{suffix}.csv").exists()
    header, rows = read_csv(tmp_path / "eff_effective_order2.csv")
    assert header == ["row", "col", "re", "im"]
    assert len(rows) == 81  # slow space is 9x9 for two collective spins
    _, diag = read_csv(tmp_path / "eff_effective_diagnostics.csv")
    for row in diag:
        assert float(row[1]) < 1e-9  # trace functional annihilated


def test_effective_eight_spins_finishes(tmp_path):
    # d = 18: the Kossakowski diagnostic contracts a (d**2 - 1)**2 block
    cfg = write_config(
        tmp_path,
        {
            "model": {"kind": "superradiance", "n_spins": 8, "g": 0.1, "gamma": 1.0, "omega": 0.2},
            "order": 2,
            "output": str(tmp_path / "eff"),
        },
    )
    start = time.perf_counter()
    assert cli.main(["effective", "--config", cfg]) == 0
    assert time.perf_counter() - start < 60.0
    eigmin = read_columns(tmp_path / "eff_effective_psd.csv")["kossakowski_eigmin"]
    assert np.isfinite(eigmin).all()


def test_evolve_custom_model_with_expressions(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "model": {
                "kind": "custom",
                "dimension": 2,
                "symbols": {
                    "sp": {"spin": 1, "component": "plus"},
                    "sm": {"spin": 1, "component": "minus"},
                },
                "hamiltonian": "0.0*sp*sm",
                "jumps": [{"rate": 1.0, "operator": "sm"}],
                "initial": "sp*sm",
                "observables": {"excited": "sp*sm"},
            },
            "times": {"t_max": 4.0, "n_points": 41},
            "output": str(tmp_path / "cust"),
        },
    )
    assert cli.main(["evolve", "--config", cfg]) == 0
    header, rows = read_csv(tmp_path / "cust_trajectory.csv")
    assert header == ["time", "re_excited", "im_excited"]
    times = np.array([float(r[0]) for r in rows])
    vals = np.array([float(r[1]) for r in rows])
    assert np.abs(vals - np.exp(-times)).max() < 1e-8


def test_custom_initial_with_zero_trace_exits_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "model": {
                "kind": "custom",
                "dimension": 2,
                "symbols": {"Jz": {"spin": 1, "component": "z"}},
                "jumps": [{"rate": 1.0, "operator": "Jz"}],
                "initial": "Jz",
            },
            "output": str(tmp_path / "zt"),
        },
    )
    assert cli.main(["evolve", "--config", cfg]) == 2
    assert "trace" in capsys.readouterr().err
    assert not list(tmp_path.glob("zt*"))


def test_custom_model_matches_builtin_spectrum(tmp_path):
    # flip-flop + z interaction written as expressions reproduces the
    # builtin generator
    n = 2
    cfg_custom = {
        "model": {
            "kind": "custom",
            "dimension": 2 * (n + 1),
            "symbols": {
                "sp": {"spin": 1, "component": "plus"},
                "sm": {"spin": 1, "component": "minus"},
                "Jp": {"spin": n, "component": "plus"},
                "Jm": {"spin": n, "component": "minus"},
                "Jz": {"spin": n, "component": "z"},
                "id2": {"identity": 2},
                "idn": {"identity": n + 1},
                "Ip": {"expr": f"{1 / np.sqrt(n):.17g}*Jp"},
                "Im": {"expr": f"{1 / np.sqrt(n):.17g}*Jm"},
                "Iz": {"expr": f"{1 / np.sqrt(n):.17g}*Jz"},
            },
            "hamiltonian": "0.2*(sp*sm kron idn)",
            "jumps": [{"rate": 1.0, "operator": "sm kron idn"}],
            "perturbations": [
                "0.1*(0.5*(sp kron Im + sm kron Ip) + sp*sm kron Iz)"
            ],
        },
    }
    built = cli.Run("spectrum", cfg_custom).model
    p = models.SuperradianceParams(n_spins=n, g=0.1, gamma=1.0, omega=0.2)
    m = models.superradiance_model(p)
    assert np.abs(to_dense(built["l0"]) - to_dense(m.l0)).max() < 1e-12
    assert np.abs(to_dense(built["v"]) - to_dense(m.v)).max() < 1e-12


def test_compare_task_small_model(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "model": {"kind": "superradiance", "n_spins": 2, "sqrt_n_g": 0.2, "gamma": 1.0, "omega": 0.2},
            "times": {"t_max": 60.0, "n_points": 31},
            "output": str(tmp_path / "cmp"),
        },
    )
    assert cli.main(["compare", "--config", cfg]) == 0
    header, rows = read_csv(tmp_path / "cmp_compare.csv")
    assert header == ["time", "intensity_exact", "intensity_order2", "intensity_order2plus3"]
    assert len(rows) == 31


def test_ancilla_qrt_task(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "model": {"kind": "random-ancilla", "dimension": 2, "couplings": 2, "seed": 3},
            "output": str(tmp_path / "anc"),
        },
    )
    assert cli.main(["ancilla-qrt", "--config", cfg]) == 0
    for suffix in ("coefficient", "bloch", "jumps", "hamiltonian"):
        assert (tmp_path / f"anc_{suffix}.csv").exists()
    _, rows = read_csv(tmp_path / "anc_jumps.csv")
    for row in rows:
        assert float(row[1]) >= 0.0


def test_ancilla_qrt_honours_zero_tol(tmp_path, capsys):
    # a zero tolerance of half the largest singular value counts fast modes
    # into the kernel, so the steady state is refused as degenerate
    model = {"kind": "random-ancilla", "dimension": 4, "couplings": 3, "system_dimension": 3, "seed": 5}
    default = write_config(tmp_path, {"model": model, "output": str(tmp_path / "ok")}, "ok.yaml")
    assert cli.main(["ancilla-qrt", "--config", default]) == 0
    loose = write_config(
        tmp_path,
        {"model": model, "tolerances": {"zero_tol": 0.5}, "output": str(tmp_path / "loose")},
        "loose.yaml",
    )
    assert cli.main(["ancilla-qrt", "--config", loose]) == 3
    assert "kernel" in capsys.readouterr().err
    assert not list(tmp_path.glob("loose_*"))


@pytest.mark.parametrize(
    "task,model",
    [
        ("ancilla-qrt", {"kind": "random-ancilla", "couplings": 0}),
        ("ancilla-qrt", {"kind": "random-ancilla", "system_dimension": 0}),
        ("ancilla-qrt", {"kind": "random-ancilla", "dimension": 0}),
        ("ancilla-qrt", {"kind": "random-ancilla", "seed": -1}),
        ("spectrum", {"kind": "random", "seed": -1}),
    ],
    ids=["no-couplings", "system-dim-0", "ancilla-dim-0", "ancilla-seed-neg", "random-seed-neg"],
)
def test_bad_random_model_parameters_exit_2(tmp_path, capsys, task, model):
    cfg = write_config(tmp_path, {"model": model, "output": str(tmp_path / "bad")})
    assert cli.main([task, "--config", cfg]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not list(tmp_path.glob("bad*"))


_QUBIT_SYMBOLS = {
    "sp": {"spin": 1, "component": "plus"},
    "sm": {"spin": 1, "component": "minus"},
    "sz": {"spin": 1, "component": "z"},
}


@pytest.mark.parametrize(
    "task,model",
    [
        ("spectrum", {"hamiltonian": "sp", "jumps": [{"rate": 1.0, "operator": "sm"}]}),
        ("spectrum", {"jumps": [{"rate": -1.0, "operator": "sm"}]}),
        (
            "ancilla-qrt",
            {
                "jumps": [{"rate": 1.0, "operator": "sm"}],
                "couplings": [{"ancilla": "sm", "system": "sz"}],
            },
        ),
        (
            "spectrum",
            {
                "couplings": [{"ancilla": "sp+sm", "system": "sz"}],
                "perturbations": ["sp+sm"],
            },
        ),
    ],
    ids=[
        "non-hermitian-hamiltonian",
        "negative-rate",
        "non-hermitian-coupling",
        "couplings-and-perturbations",
    ],
)
def test_invalid_custom_model_exits_2(tmp_path, capsys, task, model):
    model = {"kind": "custom", "dimension": 2, "symbols": _QUBIT_SYMBOLS, **model}
    cfg = write_config(tmp_path, {"model": model, "output": str(tmp_path / "bad")})
    assert cli.main([task, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err
    assert not list(tmp_path.glob("bad*"))


@pytest.mark.parametrize(
    "task,section,key",
    [
        ("spectrum", {"tolerances": {"zero_tol": float("nan")}}, "zero_tol"),
        ("spectrum", {"tolerances": {"zero_tol": -1e-9}}, "zero_tol"),
        ("spectrum", {"tolerances": {"zero_tol": float("inf")}}, "zero_tol"),
        ("ancilla-qrt", {"tolerances": {"zero_tol": 0.0}}, "zero_tol"),
        ("evolve", {"times": {"t_max": float("nan")}}, "t_max"),
        ("evolve", {"times": {"t_max": float("inf")}}, "t_max"),
        ("spectrum", {"model": {"kind": "random", "jumps": -1}}, "jumps"),
    ],
    ids=["zero-tol-nan", "zero-tol-negative", "zero-tol-inf", "zero-tol-zero", "t-max-nan", "t-max-inf", "jumps-negative"],
)
def test_bad_numeric_keys_exit_2_naming_the_key(tmp_path, capsys, task, section, key):
    model = {"kind": "random-ancilla"} if task == "ancilla-qrt" else {"kind": "random"}
    cfg = write_config(tmp_path, {"model": model, "output": str(tmp_path / "bad"), **section})
    assert cli.main([task, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and key in err
    assert not list(tmp_path.glob("bad*"))


def test_decoupling_scan_task(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "model": {"kind": "superradiance", "n_spins": 2, "g": 1.0, "gamma": 1.0, "omega": 0.2},
            "order": 1,
            "epsilons": [1e-2, 1e-3],
            "output": str(tmp_path / "scan"),
        },
    )
    assert cli.main(["decoupling-scan", "--config", cfg]) == 0
    header, rows = read_csv(tmp_path / "scan_decoupling.csv")
    assert header == ["epsilon", "residual", "fitted_slope"]
    slope = float(rows[0][2])
    assert abs(slope - 2.0) < 0.3


@pytest.mark.parametrize("epsilons", [[0.0, 0.01, 0.001], [-0.01, 0.001], [0.01, float("nan")]])
def test_decoupling_scan_bad_epsilons_exit_2(tmp_path, capsys, epsilons):
    cfg = write_config(
        tmp_path,
        {
            "model": {"kind": "superradiance", "n_spins": 2, "g": 1.0, "gamma": 1.0, "omega": 0.2},
            "order": 1,
            "epsilons": epsilons,
            "output": str(tmp_path / "scan"),
        },
    )
    assert cli.main(["decoupling-scan", "--config", cfg]) == 2
    assert "epsilons" in capsys.readouterr().err
    assert not list(tmp_path.glob("scan*"))


@pytest.mark.parametrize("epsilons", [[], [0.01]])
def test_decoupling_scan_needs_two_epsilons(tmp_path, capsys, epsilons):
    # one residual fixes no slope; the scan must not report one
    cfg = write_config(
        tmp_path,
        {
            "model": {"kind": "superradiance", "n_spins": 2, "g": 1.0, "gamma": 1.0, "omega": 0.2},
            "order": 1,
            "epsilons": epsilons,
            "output": str(tmp_path / "scan"),
        },
    )
    assert cli.main(["decoupling-scan", "--config", cfg]) == 2
    assert "two or more" in capsys.readouterr().err
    assert not list(tmp_path.glob("scan*"))
    # the other tasks do not read epsilons
    assert cli.main(["spectrum", "--config", cfg]) == 0
    assert (tmp_path / "scan_spectrum.csv").exists()


def test_invalid_order_exits_2_without_output(tmp_path):
    out = tmp_path / "bad"
    cfg = write_config(
        tmp_path,
        {
            "model": {"kind": "decaying-qubit"},
            "order": 0,
            "output": str(out),
        },
    )
    assert cli.main(["effective", "--config", cfg]) == 2
    assert not list(tmp_path.glob("bad*"))


def test_unknown_symbol_exits_2(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "model": {
                "kind": "custom",
                "dimension": 2,
                "symbols": {"sm": {"spin": 1, "component": "minus"}},
                "jumps": [{"rate": 1.0, "operator": "missing"}],
            },
            "output": str(tmp_path / "u"),
        },
    )
    assert cli.main(["spectrum", "--config", cfg]) == 2


def test_degenerate_ancilla_exits_3(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "model": {
                "kind": "custom",
                "dimension": 3,
                "symbols": {
                    "up0": {"matrix": [[0, 1, 0], [0, 0, 0], [0, 0, 0]]},
                    "probe": {"matrix": [[1, 0, 0], [0, 0, 0], [0, 0, -1]]},
                    "sys": {"matrix": [[1, 0], [0, -1]]},
                },
                "hamiltonian": "0.5*(up0*up0† - up0†*up0)",
                "jumps": [{"rate": 1.0, "operator": "up0"}],
                "couplings": [{"ancilla": "probe", "system": "sys"}],
            },
            "output": str(tmp_path / "deg"),
        },
    )
    assert cli.main(["ancilla-qrt", "--config", cfg]) == 3


def test_missing_config_exits_2(tmp_path):
    assert cli.main(["spectrum", "--config", str(tmp_path / "nope.yaml")]) == 2


def test_thread_cap_honored(tmp_path, monkeypatch):
    monkeypatch.setenv("LSW_THREADS", "1")
    cfg = write_config(
        tmp_path,
        {
            "model": {"kind": "superradiance", "n_spins": 2, "g": 1.0, "gamma": 1.0, "omega": 0.2},
            "order": 1,
            "epsilons": [1e-2, 1e-3],
            "output": str(tmp_path / "capped"),
        },
    )
    run = cli.Run("decoupling-scan", {"model": {"kind": "decaying-qubit"}})
    assert run.workers() == 1
    assert cli.main(["decoupling-scan", "--config", cfg]) == 0


def test_oversized_spectral_task_exits_2(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "model": {"kind": "superradiance", "n_spins": 100, "sqrt_n_g": 0.2},
            "output": str(tmp_path / "huge"),
        },
    )
    assert cli.main(["spectrum", "--config", cfg]) == 2
    assert not list(tmp_path.glob("huge*"))


def test_compare_product_backend_matches_dense(tmp_path, monkeypatch):
    product, dense = run_both_backends(
        tmp_path,
        monkeypatch,
        "compare",
        {
            "model": {"kind": "superradiance", "n_spins": 4, "sqrt_n_g": 0.2, "gamma": 1.0, "omega": 0.2},
            "times": {"t_max": 400.0, "n_points": 41},
        },
    )
    got, want = read_columns(product + "compare.csv"), read_columns(dense + "compare.csv")
    for name in ("intensity_exact", "intensity_order2", "intensity_order2plus3"):
        assert np.abs(got[name] - want[name]).max() <= 1e-12 * np.abs(want[name]).max()


def test_decoupling_scan_product_backend_matches_dense(tmp_path, monkeypatch):
    product, dense = run_both_backends(
        tmp_path,
        monkeypatch,
        "decoupling-scan",
        {
            "model": {"kind": "superradiance", "n_spins": 4, "g": 1.0, "gamma": 1.0, "omega": 0.2},
            "order": 4,
            "epsilons": [0.08, 0.04, 0.02],
        },
    )
    got, want = read_columns(product + "decoupling.csv"), read_columns(dense + "decoupling.csv")
    assert np.abs(got["residual"] / want["residual"] - 1).max() <= 1e-10
    assert abs(got["fitted_slope"][0] - want["fitted_slope"][0]) <= 1e-6


def test_spectrum_product_backend_matches_dense(tmp_path, monkeypatch):
    product, dense = run_both_backends(
        tmp_path,
        monkeypatch,
        "spectrum",
        {"model": {"kind": "superradiance", "n_spins": 4, "g": 0.1, "gamma": 1.0, "omega": 0.2}},
    )
    spectra = []
    for prefix in (product, dense):
        _, rows = read_csv(Path(prefix + "spectrum.csv"))
        spectra.append(np.array([float(r[1]) + 1j * float(r[2]) for r in rows]))
        slow = np.array([r[3] == "slow" for r in rows])
        assert slow.sum() == 25  # N=4: the nuclear operator space
        assert np.abs(spectra[-1][slow]).max() < 1e-12 < np.abs(spectra[-1][~slow]).min()
    got, want = spectra
    assert np.abs(match_eigenvalues(want, got) - want).max() <= 1e-12


def test_effective_product_backend_matches_dense(tmp_path, monkeypatch):
    # the per-order matrices are written in each backend's own slow basis,
    # so what must agree is their spectra and the basis-free diagnostics
    order = 3
    product, dense = run_both_backends(
        tmp_path,
        monkeypatch,
        "effective",
        {
            "model": {"kind": "superradiance", "n_spins": 2, "g": 0.1, "gamma": 1.0, "omega": 0.2},
            "order": order,
        },
    )
    totals = {product: 0, dense: 0}
    for n in range(1, order + 1):
        for prefix in totals:
            totals[prefix] = totals[prefix] + read_matrix(f"{prefix}effective_order{n}.csv")
        want = np.linalg.eigvals(totals[dense])
        got = match_eigenvalues(want, np.linalg.eigvals(totals[product]))
        assert np.abs(got - want).max() <= 1e-10
    assert read_columns(product + "effective_diagnostics.csv")["trace_residual"].max() < 1e-9
    got = read_columns(product + "effective_psd.csv")["kossakowski_eigmin"][0]
    want = read_columns(dense + "effective_psd.csv")["kossakowski_eigmin"][0]
    assert abs(got - want) <= 1e-10


def test_burst_sectors_step_densely(tmp_path, monkeypatch):
    # the shipped N=16 burst and an N=24 one: each charge sector is small
    # against ||G||_1 t_max (about 4,200 and 8,400), so every propagation,
    # the exact one and both reduced ones, steps with its dense propagator
    shipped = Path(__file__).resolve().parent.parent / "configs" / "burst_compare.yaml"
    burst = yaml.safe_load(shipped.read_text())
    n24 = dict(burst, model=dict(burst["model"], n_spins=24))
    n24["times"] = {"t_max": 4000.0, "n_points": 201}
    trajs = record_trajectories(monkeypatch)
    for task, payload in (("compare", burst), ("evolve", n24)):
        cfg = write_config(tmp_path, dict(payload, output=str(tmp_path / task)))
        assert cli.main([task, "--config", cfg]) == 0
    used = sorted((t.sector_dim, t.stepper) for t in trajs)
    assert used == [(17, "expm"), (17, "expm"), (66, "expm"), (98, "expm")]


def test_charge_sector_matches_withheld_charge(tmp_path, monkeypatch):
    cfg = write_config(
        tmp_path,
        {
            "model": {"kind": "superradiance", "n_spins": 4, "sqrt_n_g": 0.2, "gamma": 1.0, "omega": 0.2},
            "times": {"t_max": 400.0, "n_points": 41},
        },
    )
    real = dynamics.evolve
    # N=4: the diagonal charge sector has 18 of 100 components, the
    # reduced nuclear one 5 of 25
    cases = (
        ("evolve", "trajectory", [18], [100]),
        ("compare", "compare", [5, 5, 18], [25, 25, 100]),
    )
    for task, suffix, sector_dims, full_dims in cases:
        columns = {}
        for withheld, dims in ((False, sector_dims), (True, full_dims)):
            used = []

            def recorded(generator, rho0, times, charge=None):
                traj = real(generator, rho0, times, None if withheld else charge)
                used.append(traj.sector_dim)
                return traj

            monkeypatch.setattr(dynamics, "evolve", recorded)
            out = tmp_path / f"{task}_{withheld}"
            assert cli.main([task, "--config", cfg, "--out", str(out)]) == 0
            monkeypatch.undo()
            assert sorted(used) == dims
            columns[withheld] = read_columns(f"{out}_{suffix}.csv")
        got, want = columns[False], columns[True]
        for name in want:
            scale = 1.0 if name.startswith("im_") else np.abs(want[name]).max()
            assert np.abs(got[name] - want[name]).max() <= 1e-12 * scale


_CUSTOM_QUBIT = {
    "kind": "custom",
    "dimension": 2,
    "symbols": {**_QUBIT_SYMBOLS, "id3": {"identity": 3}},
    "hamiltonian": "0.2*sp*sm",
    "jumps": [{"rate": 1.0, "operator": "sm"}],
}

# one model form per row, its exit code per task in cli.TASKS order
_EXIT_CODES = {
    "superradiance": (
        {"kind": "superradiance", "n_spins": 2, "g": 0.1, "omega": 0.2},
        [0, 0, 0, 0, 0, 0],
    ),
    "decaying-qubit": ({"kind": "decaying-qubit", "omega": 0.2}, [0, 0, 0, 2, 2, 2]),
    "random": ({"kind": "random", "dimension": 3, "seed": 1}, [0, 0, 0, 2, 2, 0]),
    "custom-perturbations": (
        {**_CUSTOM_QUBIT, "perturbations": ["0.3*(sp+sm)"]},
        [0, 0, 0, 2, 2, 0],
    ),
    "custom-couplings": (
        {
            **_CUSTOM_QUBIT,
            "couplings": [
                {"ancilla": "sp+sm", "system": "sz"},
                {"ancilla": "sp*sm", "system": "sp+sm"},
            ],
        },
        [0, 0, 2, 2, 0, 0],
    ),
    "random-ancilla": (
        {"kind": "random-ancilla", "dimension": 2, "system_dimension": 2, "seed": 1},
        [0, 0, 2, 2, 0, 0],
    ),
}


def test_exit_code_matrix(tmp_path, capsys):
    # every task on every model form: one registry, so each either runs or
    # is refused with a message, never a traceback
    for form, (model, codes) in _EXIT_CODES.items():
        payload = {"model": model, "order": 2, "times": {"t_max": 2.0, "n_points": 5}}
        cfg = write_config(tmp_path, payload, f"{form}.yaml")
        got = [cli.main([task, "--config", cfg, "--out", str(tmp_path / form)]) for task in cli.TASKS]
        err = capsys.readouterr().err
        assert got == codes, form
        assert "Traceback" not in err and err.count("configuration error:") == codes.count(2)
    # the couplings are no longer ignored: a scan at order 2 has slope 3
    slope = read_columns(tmp_path / "custom-couplings_decoupling.csv")["fitted_slope"][0]
    assert abs(slope - 3.0) < 0.01


def test_custom_couplings_model_lives_on_both_factors(tmp_path, monkeypatch):
    model = _EXIT_CODES["custom-couplings"][0]
    built = cli.Run("evolve", {"model": model}).model
    assert built["ancilla"].dim_s == 2 and built["l0"].shape == (16, 16)
    cfg = write_config(tmp_path, {"model": model, "order": 2})
    assert run_on_backend(monkeypatch, "effective", cfg, tmp_path / "eff", dense=False) == ["product"]
    # with an initial state on A (x) S, evolve runs
    cfg = write_config(
        tmp_path,
        {"model": {**model, "initial": "(sp*sm) kron (sp*sm)"}, "times": {"t_max": 1.0, "n_points": 3}},
    )
    assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path / "evo")]) == 0


@pytest.mark.parametrize(
    "task,model,name",
    [
        ("ancilla-qrt", {"couplings": [{"ancilla": "id3", "system": "sz"}]}, "coupling 0: ancilla"),
        (
            "ancilla-qrt",
            {
                "couplings": [
                    {"ancilla": "sp+sm", "system": "sz"},
                    {"ancilla": "sp*sm", "system": "id3"},
                ]
            },
            "coupling 1: system",
        ),
        ("evolve", {"observables": {"big": "id3"}}, "observable 'big'"),
    ],
    ids=["ancilla-operator", "system-operators-differ", "observable"],
)
def test_wrong_sized_operator_exits_2(tmp_path, capsys, task, model, name):
    cfg = write_config(tmp_path, {"model": {**_CUSTOM_QUBIT, **model}, "output": str(tmp_path / "bad")})
    assert cli.main([task, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and name in err and "shape" in err
    assert not list(tmp_path.glob("bad*"))


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "task,payload,key",
    [
        ("spectrum", {"model": {"kind": "superradiance", "n_spins": "two"}}, "n_spins"),
        ("spectrum", {"model": {"kind": "superradiance", "n_spins": 2.5}}, "n_spins"),
        ("spectrum", {"model": {"kind": "random", "dimension": 3.7}}, "dimension"),
        ("spectrum", {"model": {"kind": "decaying-qubit"}, "order": 2.7}, "order"),
        ("spectrum", {"model": {"kind": "decaying-qubit"}, "order": True}, "order"),
        ("evolve", {"model": {"kind": "decaying-qubit"}, "times": {"n_points": 3.9}}, "n_points"),
        ("spectrum", {"model": {"kind": "superradiance", "gamma": _NAN}}, "gamma"),
        ("evolve", {"model": {"kind": "superradiance", "gamma": _NAN}}, "gamma"),
        ("evolve", {"model": {"kind": "decaying-qubit"}, "epsilon": _NAN}, "epsilon"),
        ("evolve", {"model": {"kind": "decaying-qubit", "omega": _INF}}, "omega"),
    ],
    ids=[
        "n-spins-string", "n-spins-fraction", "dimension-fraction", "order-fraction",
        "order-bool", "n-points-fraction", "gamma-nan-spectrum", "gamma-nan-evolve",
        "epsilon-nan", "omega-inf",
    ],
)
def test_numeric_config_values_exit_2_naming_the_key(tmp_path, capsys, task, payload, key):
    cfg = write_config(tmp_path, {**payload, "output": str(tmp_path / "bad")})
    assert cli.main([task, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and key in err
    assert not list(tmp_path.glob("bad*"))


def test_decoupling_scan_refuses_zero_and_non_finite_residuals(tmp_path, capsys, monkeypatch):
    cfg = write_config(
        tmp_path, {"model": {"kind": "decaying-qubit"}, "output": str(tmp_path / "scan")}
    )
    assert cli.main(["decoupling-scan", "--config", cfg]) == 2
    assert "no perturbation" in capsys.readouterr().err
    monkeypatch.setattr(cli.sw, "decoupling_residual", lambda *args: float("nan"))
    cfg = write_config(
        tmp_path,
        {"model": {"kind": "random", "seed": 1}, "output": str(tmp_path / "scan")},
    )
    assert cli.main(["decoupling-scan", "--config", cfg]) == 3
    assert "not all finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("scan*"))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_decoupling_scan_exits_3_when_the_transform_overflows(tmp_path, capsys):
    # at epsilon 2 the order-8 exp(+-S) of the N=2 model overflows float64
    model = {"kind": "superradiance", "n_spins": 2, "gamma": 1.0, "omega": 0.2, "g": 1.0}
    cfg = write_config(
        tmp_path,
        {"model": model, "order": 8, "epsilons": [2.0, 1.0], "output": str(tmp_path / "scan")},
    )
    assert cli.main(["decoupling-scan", "--config", cfg]) == 3
    assert "not all finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("scan*"))


def test_readme_examples_build_and_run(tmp_path):
    # the README's config examples go through the one registry unchanged
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```yaml\n(.*?)```", readme, re.S)
    assert len(blocks) == 2
    for i, text in enumerate(blocks):
        cfg = yaml.safe_load(text)
        built = cli.Run("spectrum", cfg).model
        assert built["v"].shape == built["l0"].shape
        # written with sorted keys: `flip` now precedes the symbols it names
        path = write_config(tmp_path, cfg, f"readme{i}.yaml")
        assert cli.main(["spectrum", "--config", path, "--out", str(tmp_path / f"ex{i}")]) == 0


def test_symbols_resolve_by_name(tmp_path):
    # a definition may name symbols declared after it
    model = {
        "kind": "custom",
        "dimension": 2,
        "symbols": {"x": {"expr": "sp + sm"}, "sp": _QUBIT_SYMBOLS["sp"], "sm": _QUBIT_SYMBOLS["sm"]},
        "hamiltonian": "x",
        "jumps": [{"rate": 1.0, "operator": "sm"}],
    }
    forward = cli.Run("spectrum", {"model": model}).model
    backward = cli.Run("spectrum", {"model": {**model, "hamiltonian": "sp + sm"}}).model
    assert np.array_equal(forward["l0"], backward["l0"])


@pytest.mark.parametrize(
    "symbols,name",
    [
        ({"a": {"expr": "2*a"}}, "'a'"),
        ({"a": {"expr": "b"}, "b": {"expr": "sp*a"}, **_QUBIT_SYMBOLS}, "'a'"),
        ({"unused": {"spin": -3}, **_QUBIT_SYMBOLS}, "'unused'"),
    ],
    ids=["self", "through-another", "unused-is-built"],
)
def test_symbol_definition_errors_exit_2(tmp_path, capsys, symbols, name):
    model = {"kind": "custom", "dimension": 2, "symbols": symbols, "hamiltonian": "sz"}
    cfg = write_config(tmp_path, {"model": model, "output": str(tmp_path / "bad")})
    assert cli.main(["spectrum", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and name in err
    assert not list(tmp_path.glob("bad*"))


@pytest.mark.parametrize(
    "payload,key",
    [
        ({"times": 5}, "times"),
        ({"tolerances": [1]}, "tolerances"),
        ({"epsilons": 0.1}, "epsilons"),
        ({"model": 5}, "model"),
        ({"model": {"gamma": 1.0}}, "model needs 'kind'"),
        ({"model": {**_CUSTOM_QUBIT, "jumps": [5]}}, "model.jumps[0]"),
        ({"model": {**_CUSTOM_QUBIT, "jumps": [{"rate": 1.0}]}}, "model.jumps[0] needs 'operator'"),
        ({"model": {**_CUSTOM_QUBIT, "observables": ["sm"]}}, "model.observables"),
        ({"model": {**_CUSTOM_QUBIT, "symbols": [1, 2]}}, "model.symbols"),
        ({"model": {**_CUSTOM_QUBIT, "symbols": {"sm": 5}}}, "symbol 'sm'"),
        ({"model": {**_CUSTOM_QUBIT, "perturbations": "sp"}}, "model.perturbations"),
        (
            {"model": {**_CUSTOM_QUBIT, "couplings": [{"ancilla": "sz"}]}},
            "model.couplings[0] needs 'system'",
        ),
        ({"model": {**_CUSTOM_QUBIT, "symbols": {"sm": {"matrix": [[1, 0], [0]]}}}}, "symbol 'sm'"),
        ({"model": {**_CUSTOM_QUBIT, "symbols": {"sm": {"matrix": [["a", 0], [0, 1]]}}}}, "symbol 'sm'"),
        ({"model": {**_CUSTOM_QUBIT, "symbols": {"sm": {"spin": -3}}}}, "symbol 'sm'"),
    ],
    ids=[
        "times-number", "tolerances-list", "epsilons-number", "model-number", "model-without-kind",
        "jump-entry-number", "jump-without-operator", "observables-list", "symbols-list",
        "symbol-number", "perturbations-string", "coupling-without-system", "ragged-matrix",
        "string-matrix-entry", "negative-spin",
    ],
)
def test_config_shapes_exit_2_naming_the_key(tmp_path, capsys, payload, key):
    payload = {"model": {"kind": "decaying-qubit"}, **payload, "output": str(tmp_path / "bad")}
    cfg = write_config(tmp_path, payload)
    for task in ("evolve", "ancilla-qrt"):
        assert cli.main([task, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and key in err and "Traceback" not in err
    assert not list(tmp_path.glob("bad*"))


def test_decoupling_scan_warns_at_rounding_floor(tmp_path, capsys):
    # configs/decoupling_scan.yaml: order 4 reaches the rounding floor at
    # epsilon 1e-4 (2.2e-16); order 3 stays above it (1.8e-15 there)
    shipped = str(Path(__file__).resolve().parent.parent / "configs" / "decoupling_scan.yaml")
    warned = {}
    for order in ("3", "4"):
        out = str(tmp_path / f"o{order}")
        assert cli.main(["decoupling-scan", "--config", shipped, "--order", order, "--out", out]) == 0
        warned[order] = [line for line in capsys.readouterr().err.splitlines() if "rounding floor" in line]
    assert warned["3"] == []
    assert len(warned["4"]) == 1 and "epsilon 0.0001 " in warned["4"][0]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0 in the product
@pytest.mark.parametrize(
    "model",
    [
        {"hamiltonian": "1e999*sz"},
        {"symbols": {**_QUBIT_SYMBOLS, "y": {"matrix": [[0, float("nan")], [0, 0]]}}, "perturbations": ["y"]},
    ],
    ids=["overflowing-literal", "nan-matrix-entry"],
)
def test_non_finite_operator_exits_2(tmp_path, capsys, model):
    cfg = write_config(tmp_path, {"model": {**_CUSTOM_QUBIT, **model}, "output": str(tmp_path / "bad")})
    assert cli.main(["decoupling-scan", "--config", cfg]) == 2
    assert "non-finite" in capsys.readouterr().err


def _symbol_chain(length, parens=0):
    """Symbols s0 .. s{length-1}, each defined as the next inside ``parens``
    parentheses, ending at sz."""
    chain = {f"s{i}": {"expr": "(" * parens + f"s{i + 1}" + ")" * parens} for i in range(length)}
    return {**chain, f"s{length}": _QUBIT_SYMBOLS["sz"]}


@pytest.mark.parametrize(
    "symbols,hamiltonian,message",
    [
        (_QUBIT_SYMBOLS, "(" * 300 + "sz" + ")" * 300, "nested deeper than 100 (position 100)"),
        (_symbol_chain(300), "s0", "symbol 's50' nests lookups deeper than 50"),
        (_symbol_chain(49, parens=99), "s0", "maximum recursion depth"),
    ],
    ids=["parentheses", "symbol-chain", "parentheses-in-symbol-chain"],
)
def test_deep_nesting_exits_2_without_traceback(tmp_path, capsys, symbols, hamiltonian, message):
    model = {"kind": "custom", "dimension": 2, "symbols": symbols, "hamiltonian": hamiltonian}
    cfg = write_config(tmp_path, {"model": model, "output": str(tmp_path / "deep")})
    assert cli.main(["spectrum", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and message in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("deep*"))


def test_symbol_depth_counts_nesting_not_declarations(tmp_path):
    # many symbols, each one lookup deep: nothing nests past the cap
    symbols = {**_QUBIT_SYMBOLS, **{f"x{i}": {"expr": "sz"} for i in range(300)}}
    model = {"kind": "custom", "dimension": 2, "symbols": symbols, "hamiltonian": "x299"}
    cfg = write_config(tmp_path, {"model": model, "output": str(tmp_path / "wide")})
    assert cli.main(["spectrum", "--config", cfg]) == 0
    chain = {"kind": "custom", "dimension": 2, "symbols": _symbol_chain(49), "hamiltonian": "s0"}
    cfg = write_config(tmp_path, {"model": chain, "output": str(tmp_path / "deep")}, "chain.yaml")
    assert cli.main(["spectrum", "--config", cfg]) == 0
