import re
import threading
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import u1_symmetric_model

from lsw import cli, dynamics, models, qrt, spectral, superop, sw
from lsw.superop import to_dense
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


def run_on_backend(monkeypatch, task, cfg, out, dense):
    """Run a CLI task, on the dense reference backend if asked (the whole
    space, any charges withheld); return the backend of every sector built."""
    real, real_basis = spectral.AncillaBasis.sectors, spectral.AncillaBasis
    used = []

    def recorded(basis, orders, max_dim=np.inf):
        sectors = real(basis, orders, max_dim)
        if dense:  # the same L0 and V, handed over whole
            l0, v = basis.model.full_space()
            sd = spectral.decompose(l0, basis.zero_tol)
            sectors = [spectral.ChargeSector(sd, spectral.to_eigen(sd, v), None, None, None)]
        used.extend(sector.spectral.backend for sector in sectors)
        return sectors

    monkeypatch.setattr(spectral.AncillaBasis, "sectors", recorded)
    if dense:

        class Whole(real_basis):  # the eigen basis without charges; ``vec`` as it is
            def __init__(self, model, charges, zero_tol):
                super().__init__(model, None, zero_tol)

        monkeypatch.setattr(cli, "AncillaBasis", Whole)
    assert cli.main([task, "--config", cfg, "--out", str(out)]) == 0
    monkeypatch.undo()
    return used


def run_both_backends(tmp_path, monkeypatch, task, payload, sectors=1):
    """Output prefixes of a task run on its charge sectors (the structured
    backend; ``sectors`` of them) and on the dense one."""
    cfg = write_config(tmp_path, payload)
    product, dense = tmp_path / "product", tmp_path / "dense"
    assert run_on_backend(monkeypatch, task, cfg, product, dense=False) == ["sector"] * sectors
    assert run_on_backend(monkeypatch, task, cfg, dense, dense=True) == ["dense"]
    return f"{product}_", f"{dense}_"


def spectrum_both_ways(tmp_path, payload):
    """Output prefixes of the spectrum task and of the dense reference: the
    same columns from `decompose` of the whole-space L0 (`full_space()`)."""
    cfg, task, dense = write_config(tmp_path, payload), tmp_path / "task", tmp_path / "dense"
    assert cli.main(["spectrum", "--config", cfg, "--out", str(task)]) == 0
    run = cli.Run("spectrum", payload)
    ancilla = run.ancilla
    sd = spectral.decompose(ancilla.full_space()[0], run.zero_tol)
    ok = spectral.check_perturbative_limit(sd, ancilla.perturbation_norm(), run.epsilon)
    order = np.lexsort((sd.eigenvalues.imag, sd.eigenvalues.real))
    lam, subspace = sd.eigenvalues[order], np.where(np.isin(order, sd.slow), "slow", "fast")
    cli._write_csv(
        f"{dense}_spectrum.csv",
        ["index", "re", "im", "subspace", "gap", "perturbative_ok"],
        [np.arange(order.size), lam.real, lam.imag, subspace, sd.gap, int(ok)],
    )
    return f"{task}_", f"{dense}_"


def record_propagations(monkeypatch):
    """Patch dynamics.propagate to keep (dimension, stepper) of every call."""
    real = dynamics.propagate
    used = []

    def recorded(generator, y0, times):
        states, stepper = real(generator, y0, times)
        used.append((states.shape[1], stepper))
        return states, stepper

    monkeypatch.setattr(dynamics, "propagate", recorded)
    return used


def full_space_compare(mcfg, times, dense=False):
    """The compare columns by the full-space library route, charge withheld:
    L0 + V propagated on all of its D components, and the order-2 and
    order-2+3 generators of ``reduced_effective`` on all of the nuclear
    operator space, from the whole-space sector (or the dense) spectral backend."""
    p = models.SuperradianceParams.from_sqrt_n_g(
        mcfg["n_spins"], mcfg["sqrt_n_g"], gamma=mcfg["gamma"], omega=mcfg["omega"]
    )
    m = models.superradiance_model(p)
    gen_exact = m.l0 + m.v
    traj = dynamics.evolve(gen_exact, m.initial_state, times)
    columns = {"intensity_exact": dynamics.emission_intensity(traj, m.iz_full, gen_exact)}
    if dense:
        sd = spectral.decompose(to_dense(m.l0))
        v = spectral.to_eigen(sd, m.v)
    else:
        sector = spectral.charge_sector(m.ancilla)
        sd, v = sector.spectral, sector.v
    series = sw.correction_terms(sw.generator_terms(sd, v, 3), sd)
    _, mu0 = models.superradiance_initial(p.n_spins)
    for order, name in ((2, "intensity_order2"), (3, "intensity_order2plus3")):
        red = sw.reduced_effective(series, sd, m.dims, order).matrix
        columns[name] = dynamics.emission_intensity(dynamics.evolve(red, mu0, times), m.iz, red)
    return columns


def assert_columns_match(got, want):
    """Every column within 1e-12 of its largest entry."""
    for name in want:
        assert np.abs(got[name] - want[name]).max() <= 1e-12 * np.abs(want[name]).max()


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
    odd_imag = np.array([[1 - 0.0j, complex(2, nan)], [complex(-0.0, inf), complex(nan, -inf)]])
    rng = np.random.default_rng(1)
    big = rng.standard_normal((255, 255)) * np.logspace(-8, 8, 255)
    matrices = [
        real,
        cplx_matrix,
        np.zeros((0, 0)),
        np.arange(-4, 8).reshape(3, 4),
        np.arange(6).reshape(3, 2) % 3 == 0,
        odd_imag,
        np.full((1, 1), 0.1),
        np.zeros((0, 3)),
        np.zeros((3, 0)),
        np.zeros((0, 3), dtype=complex),
        big,
        big + 1j * rng.standard_normal((255, 255)),
    ]
    for m in matrices:
        got = cli._write_matrix(tmp_path / "m.csv", m)
        assert got.read_bytes() == reference_csv(matrix_header, reference_matrix_rows(m))
        if m.size == 0:
            assert got.read_text() == "row,col,re,im\n"  # header only
    cli._write_matrix(tmp_path / "m.csv", real)
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
        used, outputs = record_propagations(monkeypatch), []
        for seed in (1, 2, 3):
            np.random.seed(seed)
            assert cli.main(["evolve", "--config", cfg]) == 0
            outputs.append((tmp_path / "evo_trajectory.csv").read_bytes())
        monkeypatch.undo()
        assert [s for _, s in used] == [stepper] * 3
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
    l0, v = cli.Run("spectrum", cfg_custom).ancilla.full_space()
    p = models.SuperradianceParams(n_spins=n, g=0.1, gamma=1.0, omega=0.2)
    m = models.superradiance_model(p)
    assert np.abs(to_dense(l0) - to_dense(m.l0)).max() < 1e-12
    assert np.abs(to_dense(v) - to_dense(m.v)).max() < 1e-12


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


def test_compare_scales_v_by_the_run_epsilon(tmp_path):
    # the run's epsilon scales V in every curve: at epsilon 0.5 they are
    # those of the model with g halved
    model = {"kind": "superradiance", "n_spins": 4, "g": 0.1, "gamma": 1.0, "omega": 0.2}
    times = {"t_max": 400.0, "n_points": 41}
    cfg = write_config(tmp_path, {"model": model, "times": times}, "eps.yaml")
    half = write_config(tmp_path, {"model": {**model, "g": 0.05}, "times": times}, "half.yaml")
    assert cli.main(["compare", "--config", cfg, "--epsilon", "0.5", "--out", str(tmp_path / "eps")]) == 0
    assert cli.main(["compare", "--config", half, "--out", str(tmp_path / "half")]) == 0
    got, want = (read_columns(tmp_path / f"{name}_compare.csv") for name in ("eps", "half"))
    assert_columns_match(got, want)


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


def test_shipped_ancilla_qrt_matches_reference_formatter(tmp_path):
    # configs/ancilla_qrt_d16.yaml: every CSV byte for byte what the
    # reference formatter makes of the QRT results on the same model
    shipped = Path(__file__).resolve().parent.parent / "configs" / "ancilla_qrt_d16.yaml"
    out = str(tmp_path / "q16")
    assert cli.main(["ancilla-qrt", "--config", str(shipped), "--out", out]) == 0
    mcfg = yaml.safe_load(shipped.read_text())["model"]
    model = models.random_ancilla_model(
        mcfg["dimension"], mcfg["couplings"], mcfg["seed"], dim_system=mcfg["system_dimension"]
    )
    eff = qrt.effective_master_equation_2(model)
    jumps, h_eff = qrt.lindblad_decomposition(eff.coefficient, eff.system_ops)
    matrix_header = ["row", "col", "re", "im"]
    expected = {
        "coefficient": reference_csv(matrix_header, reference_matrix_rows(eff.coefficient.a_matrix)),
        "bloch": reference_csv(matrix_header, reference_matrix_rows(eff.bloch.bloch)),
        "jumps": reference_csv(["index", "rate"], [(k, r) for k, (r, _) in enumerate(jumps)]),
        "hamiltonian": reference_csv(matrix_header, reference_matrix_rows(h_eff)),
    }
    assert eff.bloch.bloch.shape == (255, 255)
    for name, want in expected.items():
        assert Path(f"{out}_{name}.csv").read_bytes() == want, name


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
        ("spectrum", {"tolerances": {"zero_tol": 1}}, "zero_tol"),
        ("effective", {"tolerances": {"zero_tol": 1.0}}, "zero_tol"),
        ("evolve", {"tolerances": {"zero_tol": 1}}, "zero_tol"),
        ("spectrum", {"tolerances": {"zero_tol": 10}}, "zero_tol"),
        ("effective", {"tolerances": {"zero_tol": 10.0}}, "zero_tol"),
        ("evolve", {"tolerances": {"zero_tol": 10}}, "zero_tol"),
        ("evolve", {"times": {"t_max": float("nan")}}, "t_max"),
        ("evolve", {"times": {"t_max": float("inf")}}, "t_max"),
        ("spectrum", {"model": {"kind": "random", "jumps": -1}}, "jumps"),
    ],
    ids=[
        "zero-tol-nan", "zero-tol-negative", "zero-tol-inf", "zero-tol-zero",
        "zero-tol-one-spectrum", "zero-tol-one-effective", "zero-tol-one-evolve",
        "zero-tol-ten-spectrum", "zero-tol-ten-effective", "zero-tol-ten-evolve",
        "t-max-nan", "t-max-inf", "jumps-negative",
    ],
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


@pytest.mark.parametrize("epsilons", [[], [0.01], [0.01, 0.01]])
def test_decoupling_scan_needs_two_epsilons(tmp_path, capsys, epsilons):
    # one residual, or one epsilon twice, fixes no slope; the scan must not
    # report one
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


@pytest.mark.parametrize(
    "text",
    ["model: {kind: random\n", "model:\n  kind: random\n dimension: 3\n", "a: b: c\n", "model: &a [*b]\n"],
    ids=["open-flow-mapping", "bad-indent", "nested-mapping-value", "undefined-alias"],
)
def test_malformed_yaml_exits_2_naming_the_place(tmp_path, capsys, text):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text)
    assert cli.main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "bad")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and f'in "{cfg}", line' in err
    assert not list(tmp_path.glob("bad_*"))


def test_compare_and_scan_start_no_thread(tmp_path, monkeypatch):
    # every task runs on the calling thread: starting one fails the run
    def refuse(self):
        raise RuntimeError("a task started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    model = {"kind": "superradiance", "n_spins": 2, "g": 1.0, "gamma": 1.0, "omega": 0.2}
    cfg = write_config(
        tmp_path,
        {
            "model": model,
            "order": 2,
            "epsilons": [1e-2, 1e-3],
            "times": {"t_max": 10.0, "n_points": 11},
            "output": str(tmp_path / "serial"),
        },
    )
    assert cli.main(["compare", "--config", cfg]) == 0
    assert cli.main(["decoupling-scan", "--config", cfg]) == 0


@pytest.mark.parametrize("n_spins", [0, -1])
def test_nonpositive_n_spins_with_sqrt_n_g_exits_2_without_warning(tmp_path, capsys, n_spins):
    model = {"kind": "superradiance", "n_spins": n_spins, "sqrt_n_g": 0.2}
    cfg = write_config(tmp_path, {"model": model, "output": str(tmp_path / "bad")})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["spectrum", "--config", cfg]) == 2
    assert not caught
    err = capsys.readouterr().err
    assert err == f"configuration error: model.n_spins must be >= 1, got {n_spins}\n"


def test_spectrum_with_huge_coupling_exits_0(tmp_path):
    # ||V|| ~ 1.7e160: the sparse norm's products of V with itself would
    # overflow without its power-of-two scaling
    model = {"kind": "superradiance", "n_spins": 2, "g": 1.0e160}
    cfg = write_config(tmp_path, {"model": model, "output": str(tmp_path / "huge")})
    assert cli.main(["spectrum", "--config", cfg]) == 0
    header, rows = read_csv(tmp_path / "huge_spectrum.csv")
    assert {r[header.index("perturbative_ok")] for r in rows} == {"0"}


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


def test_compare_product_backend_matches_dense(tmp_path):
    # compare runs in the charge sector built from the operators; its CSV
    # matches the full-space route on the dense backend
    mcfg = {"kind": "superradiance", "n_spins": 4, "sqrt_n_g": 0.2, "gamma": 1.0, "omega": 0.2}
    times = {"t_max": 400.0, "n_points": 41}
    cfg = write_config(tmp_path, {"model": mcfg, "times": times})
    out = tmp_path / "sector"
    assert cli.main(["compare", "--config", cfg, "--out", str(out)]) == 0
    got = read_columns(f"{out}_compare.csv")
    assert_columns_match(got, full_space_compare(mcfg, got["time"], dense=True))


@pytest.mark.parametrize("n_spins", [4, 16])
def test_compare_matches_full_space_route(tmp_path, n_spins):
    shipped = Path(__file__).resolve().parent.parent / "configs" / "burst_compare.yaml"
    payload = yaml.safe_load(shipped.read_text())
    payload["model"]["n_spins"] = n_spins
    cfg = write_config(tmp_path, dict(payload, output=str(tmp_path / "burst")))
    assert cli.main(["compare", "--config", cfg]) == 0
    got = read_columns(tmp_path / "burst_compare.csv")
    assert_columns_match(got, full_space_compare(payload["model"], got["time"]))


def test_compare_n100_runs_by_default(tmp_path):
    # N=100: D = 40,804, the sector 402 with 101 slow populations
    cfg = write_config(
        tmp_path,
        {
            "model": {"kind": "superradiance", "n_spins": 100, "sqrt_n_g": 0.2, "gamma": 1.0,
                      "omega": 0.2},
            "times": {"t_max": 40000.0, "n_points": 201},
            "output": str(tmp_path / "n100"),
        },
    )
    start = time.perf_counter()
    assert cli.main(["compare", "--config", cfg]) == 0
    elapsed = time.perf_counter() - start
    c = read_columns(tmp_path / "n100_compare.csv")
    exact = c["intensity_exact"]
    assert exact.max() > 1.2 * exact[np.searchsorted(c["time"], 5.0)]
    assert elapsed < 10.0


def test_oversized_compare_exits_2(tmp_path, capsys):
    # N=2000: the sector has 8,002 coordinates, past SPECTRAL_DIM_LIMIT
    cfg = write_config(
        tmp_path,
        {
            "model": {"kind": "superradiance", "n_spins": 2000, "sqrt_n_g": 0.2},
            "output": str(tmp_path / "huge"),
        },
    )
    assert cli.main(["compare", "--config", cfg]) == 2
    assert "sector dimension 8002" in capsys.readouterr().err
    assert not list(tmp_path.glob("huge*"))


def forbid(monkeypatch, name, modules=(superop, qrt, models, cli, spectral, sw)):
    """Make the function ``name`` raise under every name it is imported as."""
    def assembled(*args, **kwargs):
        raise AssertionError(f"{name} ran")

    for module in modules:
        if hasattr(module, name):
            monkeypatch.setattr(module, name, assembled)


def forbid_full_space(monkeypatch):
    """Make the assembly method and `lift` raise."""
    forbid(monkeypatch, "lift")
    forbid(monkeypatch, "full_space", (qrt.AncillaModel,))


@pytest.mark.parametrize(
    "task, n_spins, message",
    [
        ("spectrum", 40, "task 'spectrum': superoperator dimension 6724 exceeds the spectral limit"),
        ("effective", 40, "task 'effective': superoperator dimension 6724 exceeds the spectral limit"),
        ("decoupling-scan", 1125, "charge sector dimension 4502 exceeds the limit 4500"),
    ],
    ids=["spectrum", "effective", "decoupling-scan"],
)
def test_oversized_spectral_task_refused_before_assembly(
    tmp_path, capsys, monkeypatch, task, n_spins, message
):
    # N=40: D = 4 * 41**2 = 6,724, past SPECTRAL_DIM_LIMIT.  The scan runs per
    # coherence order and is refused by its largest sector, 4N+2 = 4,502 at
    # N=1125 (N=1124 fits).  The size check comes before anything of the full
    # space is built: neither the assembly method nor `lift` (under every
    # name it is imported as) may run
    forbid_full_space(monkeypatch)
    cfg = write_config(
        tmp_path,
        {
            "model": {"kind": "superradiance", "n_spins": n_spins, "sqrt_n_g": 0.2},
            "output": str(tmp_path / "big"),
        },
    )
    assert cli.main([task, "--config", cfg]) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("big*"))


@pytest.mark.parametrize(
    "model",
    [
        {"kind": "random", "dimension": 68},
        {"kind": "random-ancilla", "dimension": 34, "system_dimension": 2},
        {"kind": "custom", "dimension": 68},
        {
            "kind": "custom",
            "dimension": 34,
            "symbols": {"a": {"identity": 34}, "s": {"spin": 1}},
            "couplings": [{"ancilla": "a", "system": "s"}],
        },
    ],
    ids=["random", "random-ancilla", "custom", "custom-couplings"],
)
def test_oversized_model_refused_before_l0(tmp_path, capsys, monkeypatch, model):
    # D = 68**2 = 4,624, past SPECTRAL_DIM_LIMIT: d_A and d_S come from the
    # config, so the d**4 dense L0 is never assembled
    forbid(monkeypatch, "lindblad_superop")
    cfg = write_config(tmp_path, {"model": model, "output": str(tmp_path / "big")})
    for task in cli.SPECTRAL_TASKS:
        assert cli.main([task, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"task {task!r}: superoperator dimension 4624 exceeds the spectral limit" in err
    assert not list(tmp_path.glob("big*"))


@pytest.mark.parametrize("task", ["spectrum", "ancilla-qrt"])
def test_unwritable_output_exits_2(tmp_path, capsys, task):
    # the output prefix lies under a regular file, so no output directory
    # can be made: a configuration error naming the path, not a traceback
    blocker = tmp_path / "file"
    blocker.write_text("")
    model = {"kind": "superradiance", "n_spins": 2, "g": 0.1}
    cfg = write_config(tmp_path, {"model": model})
    assert cli.main([task, "--config", cfg, "--out", str(blocker / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and str(blocker) in err
    assert "Traceback" not in err


def test_compare_without_decay_exits_3(tmp_path, capsys):
    # gamma = 0 leaves two steady electron states: the sector's slow space
    # is not the nuclear populations alone
    cfg = write_config(
        tmp_path,
        {
            "model": {"kind": "superradiance", "n_spins": 4, "sqrt_n_g": 0.2, "gamma": 0.0},
            "output": str(tmp_path / "undamped"),
        },
    )
    assert cli.main(["compare", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error:") and "Traceback" not in err
    assert not list(tmp_path.glob("undamped*"))


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
        sectors=5,  # the coherence orders 0 to N
    )
    got, want = read_columns(product + "decoupling.csv"), read_columns(dense + "decoupling.csv")
    assert np.abs(got["residual"] / want["residual"] - 1).max() <= 1e-10
    assert abs(got["fitted_slope"][0] - want["fitted_slope"][0]) <= 1e-6


def test_spectrum_product_backend_matches_dense(tmp_path):
    # L_A's eigenvalues, each repeated d_S**2 times, are the whole space's
    product, dense = spectrum_both_ways(
        tmp_path,
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
    used = record_propagations(monkeypatch)
    for task, payload in (("compare", burst), ("evolve", n24)):
        cfg = write_config(tmp_path, dict(payload, output=str(tmp_path / task)))
        assert cli.main([task, "--config", cfg]) == 0
    assert sorted(used) == [(17, "expm"), (17, "expm"), (66, "expm"), (98, "expm")]


def test_charge_sector_matches_withheld_charge(tmp_path, monkeypatch):
    # evolve propagates the coherence orders of the initial state, built
    # from the operators; whole-space evolve, charge withheld, propagates
    # every component.  N=4: the diagonal sector has 18 of 100 components
    times = {"t_max": 400.0, "n_points": 41}
    mcfg = {"kind": "superradiance", "n_spins": 4, "sqrt_n_g": 0.2, "gamma": 1.0, "omega": 0.2}
    coupled = {
        **_EXIT_CODES["custom-couplings"][0],
        "initial": "(sp*sm) kron (sp*sm) + 0.3 * (sp kron sm + sm kron sp)",
        "observables": {"ee": "(sp*sm) kron (sp*sm)", "coh": "sp kron sm", "x": "(sp+sm) kron sz"},
    }
    # a driven qubit from a non-Hermitian initial state: the block's real
    # frame carries its anti-Hermitian part in the imaginary part of the state
    qubit = {
        **_CUSTOM_QUBIT,
        "hamiltonian": "0.3*(sp + sm) + 0.2*sz",
        "initial": "sp*sm + 0.3*sp",
        "observables": {"x": "sp + sm", "coh": "sm"},
    }
    cases = [
        (mcfg, times, 18),
        ({"kind": "random", "dimension": 4, "seed": 3}, {"t_max": 2.0, "n_points": 21}, 16),
        ({"kind": "decaying-qubit", "omega": 0.2}, {"t_max": 6.0, "n_points": 31}, 4),
        (coupled, {"t_max": 3.0, "n_points": 31}, 16),
        (qubit, {"t_max": 6.0, "n_points": 31}, 4),
    ]
    for i, (model, grid, dim) in enumerate(cases):
        payload = {"model": model, "times": grid, "epsilon": 0.8}
        cfg = write_config(tmp_path, payload, f"evolve{i}.yaml")
        used = record_propagations(monkeypatch)
        assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path / f"e{i}")]) == 0
        monkeypatch.undo()
        assert [d for d, _ in used] == [dim]
        got = read_columns(tmp_path / f"e{i}_trajectory.csv")
        run = cli.Run("evolve", payload)
        l0, v = run.ancilla.full_space()
        rho0 = superop.to_dense(run.rho0)
        traj = dynamics.evolve(l0 + run.epsilon * v, rho0, run.times)
        for name, op in run.observables.items():
            op = superop.to_dense(op)
            want = traj.expectation(op)
            scale = np.abs(want).max()
            assert np.abs(got[f"re_{name}"] - want.real).max() <= 1e-12 * scale
            assert np.abs(got[f"im_{name}"] - want.imag).max() <= 1e-12 * scale
            # a Hermitian observable on a Hermitian state reads a real state
            # through a real functional: its imaginary part is exactly zero
            if np.array_equal(rho0, rho0.conj().T) and np.array_equal(op, op.conj().T):
                assert not got[f"im_{name}"].any()

    # compare propagates the sector alone; the full-space route, charge
    # withheld, propagates every component
    cfg = write_config(tmp_path, {"model": mcfg, "times": times}, "compare.yaml")
    used = record_propagations(monkeypatch)
    out = tmp_path / "compare"
    assert cli.main(["compare", "--config", cfg, "--out", str(out)]) == 0
    assert sorted(d for d, _ in used) == [5, 5, 18]
    used.clear()
    got = read_columns(f"{out}_compare.csv")
    want = full_space_compare(mcfg, got["time"])
    assert sorted(d for d, _ in used) == [25, 25, 100]
    assert_columns_match(got, want)


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


def test_spectral_tasks_without_couplings(tmp_path, monkeypatch, capsys):
    # decaying-qubit has no couplings: V's block is empty, effective runs on
    # the sector backend, spectrum lists the dense reference's spectrum, and
    # decoupling-scan refuses the zero residual
    payload = {"model": _EXIT_CODES["decaying-qubit"][0], "order": 3}
    cfg = write_config(tmp_path, payload)
    assert run_on_backend(monkeypatch, "effective", cfg, tmp_path / "dq", dense=False) == ["sector"]
    task, dense = spectrum_both_ways(tmp_path, payload)
    assert Path(task + "spectrum.csv").read_text() == Path(dense + "spectrum.csv").read_text()
    _, rows = read_csv(Path(task + "spectrum.csv"))
    assert [r[3] for r in rows].count("slow") == 1
    for n in (1, 2, 3):
        assert np.abs(read_matrix(tmp_path / f"dq_effective_order{n}.csv")).max() == 0
    capsys.readouterr()
    assert cli.main(["decoupling-scan", "--config", cfg, "--out", str(tmp_path / "scan")]) == 2
    assert capsys.readouterr().err == (
        "configuration error: decoupling-scan: the model has no perturbation (zero residual)\n"
    )
    assert not list(tmp_path.glob("scan*"))


def test_decoupling_scan_without_fast_mode_exits_2(tmp_path, capsys):
    # gamma = omega = 0: L0 = 0, every mode is slow and the residual is zero
    # although g = 1, so the refusal names L0, not the perturbation
    model = {"kind": "superradiance", "n_spins": 3, "g": 1.0, "gamma": 0.0, "omega": 0.0}
    cfg = write_config(tmp_path, {"model": model, "output": str(tmp_path / "scan")})
    assert cli.main(["decoupling-scan", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "configuration error: decoupling-scan: L0 has no fast mode to decouple (zero residual)\n"
    )
    assert not list(tmp_path.glob("scan*"))


@pytest.mark.parametrize("task", ["spectrum", "effective", "decoupling-scan"])
def test_system_free_model_sector_matches_dense(tmp_path, monkeypatch, task):
    # the random model lives on A alone (d_S = 1): its one sector is L_A's
    # eigenbasis, so both backends list the same spectrum and slow basis
    payload = {"model": _EXIT_CODES["random"][0], "order": 3, "epsilons": [0.1, 0.05, 0.02]}
    if task == "spectrum":
        sector, dense = spectrum_both_ways(tmp_path, payload)
        assert Path(sector + "spectrum.csv").read_text() == Path(dense + "spectrum.csv").read_text()
        return
    sector, dense = run_both_backends(tmp_path, monkeypatch, task, payload)
    if task == "effective":
        # one slow mode and a trace-preserving generator: every order is
        # zero up to rounding
        for n in (1, 2, 3):
            for prefix in (sector, dense):
                assert np.abs(read_matrix(f"{prefix}effective_order{n}.csv")).max() < 1e-13
    else:
        # the residuals fall to 1.7e-8; they agree to 2e-17, far below one
        # rounding of ||L0 + epsilon V||
        got, want = read_columns(sector + "decoupling.csv"), read_columns(dense + "decoupling.csv")
        assert np.abs(got["residual"] - want["residual"]).max() <= 1e-15


@pytest.mark.parametrize("g", [1.0e300, 1.0e160])
@pytest.mark.parametrize("task", ["effective", "decoupling-scan", "compare"])
def test_huge_coupling_exits_3_with_one_message(tmp_path, capsys, task, g):
    # g**2 overflows in the second generator term: the task stops there,
    # with one message and no numpy warning
    model = {"kind": "superradiance", "n_spins": 2, "g": g}
    cfg = write_config(tmp_path, {"model": model, "order": 3, "epsilons": [0.1, 0.05]})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([task, "--config", cfg, "--out", str(tmp_path / "huge")])
    err = capsys.readouterr().err
    assert code == 3 and not caught
    assert err.startswith("numerical error: generator term S_2") and err.count("\n") == 1
    assert not list(tmp_path.glob("huge*"))


def test_effective_assembles_no_full_space(tmp_path, monkeypatch):
    # effective takes L0's eigen coordinates and V's block from the model's
    # operators: neither the assembly method nor `lift` may run
    forbid_full_space(monkeypatch)
    model = {"kind": "superradiance", "n_spins": 2, "g": 0.1, "omega": 0.2}
    cfg = write_config(tmp_path, {"model": model, "order": 3})
    assert cli.main(["effective", "--config", cfg, "--out", str(tmp_path / "eff")]) == 0


def test_spectrum_assembles_no_full_space(tmp_path, monkeypatch):
    # spectrum takes the eigenvalues from L_A and ||V|| in closed form
    # from the couplings: neither the assembly method nor `lift` may
    # run, for a system of dimension 1 or more
    forbid_full_space(monkeypatch)
    for i, model in enumerate([_EXIT_CODES["superradiance"][0], _EXIT_CODES["random"][0]]):
        cfg = write_config(tmp_path, {"model": model}, f"m{i}.yaml")
        assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path / f"s{i}")]) == 0


def test_spectrum_builds_no_perturbation_block(tmp_path, monkeypatch):
    # spectrum reads the eigenvalues, the slow set and the gap: the
    # couplings are neither rotated nor placed into V's block, which
    # effective does need
    forbid(monkeypatch, "perturbation_block", (spectral.AncillaBasis,))
    for i, model in enumerate([_EXIT_CODES["superradiance"][0], _EXIT_CODES["random"][0]]):
        cfg = write_config(tmp_path, {"model": model}, f"m{i}.yaml")
        assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path / f"s{i}")]) == 0
    with pytest.raises(AssertionError, match="perturbation_block ran"):
        cli.main(["effective", "--config", cfg, "--out", str(tmp_path / "eff")])


def test_spectrum_builds_no_sector(tmp_path, monkeypatch):
    # spectrum reads L_A's eigensystem alone: with the sector builder made
    # to raise it writes the same bytes, for superradiance with its charges
    # and for a random ancilla on a qubit system
    payloads = [
        {"kind": "superradiance", "n_spins": 4, "g": 0.1, "gamma": 1.0, "omega": 0.2},
        {"kind": "random-ancilla", "dimension": 3, "system_dimension": 2, "seed": 1},
    ]
    for i, model in enumerate(payloads):
        cfg = write_config(tmp_path, {"model": model}, f"m{i}.yaml")
        assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path / f"plain{i}")]) == 0
        forbid(monkeypatch, "block", (spectral.AncillaBasis,))
        assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path / f"bare{i}")]) == 0
        monkeypatch.undo()
        plain, bare = (tmp_path / f"{prefix}{i}_spectrum.csv" for prefix in ("plain", "bare"))
        assert bare.read_bytes() == plain.read_bytes()


def test_custom_couplings_model_lives_on_both_factors(tmp_path, monkeypatch):
    model = _EXIT_CODES["custom-couplings"][0]
    ancilla = cli.Run("evolve", {"model": model}).ancilla
    assert ancilla.dim_s == 2 and ancilla.full_space()[0].shape == (16, 16)
    cfg = write_config(tmp_path, {"model": model, "order": 2})
    assert run_on_backend(monkeypatch, "effective", cfg, tmp_path / "eff", dense=False) == ["sector"]
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
        (
            "evolve",
            {"couplings": [{"ancilla": "sp+sm", "system": "sz"}], "initial": "sp*sm"},
            "initial state has shape (2, 2), expected (4, 4)",
        ),
    ],
    ids=["ancilla-operator", "system-operators-differ", "observable", "initial"],
)
def test_wrong_sized_operator_exits_2(tmp_path, capsys, task, model, name):
    cfg = write_config(tmp_path, {"model": {**_CUSTOM_QUBIT, **model}, "output": str(tmp_path / "bad")})
    assert cli.main([task, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and name in err and "shape" in err
    assert not list(tmp_path.glob("bad*"))


@pytest.mark.parametrize(
    "task,model,message",
    [
        ("compare", {"kind": "random", "dimension": 68}, "compare runs on the superradiance model"),
        ("ancilla-qrt", {"kind": "random", "dimension": 68}, "model kind 'random' has no system"),
        ("compare", {"kind": "decaying-qubit"}, "compare runs on the superradiance model"),
        ("ancilla-qrt", {"kind": "decaying-qubit"}, "model kind 'decaying-qubit' has no system"),
        ("compare", {"kind": "random-ancilla"}, "compare runs on the superradiance model"),
        (
            "ancilla-qrt",
            {"kind": "random-ancilla", "system_dimension": 1},
            "model kind 'random-ancilla' has no system",
        ),
        ("compare", {**_CUSTOM_QUBIT, "perturbations": ["sp+sm"]}, "compare runs on"),
        ("ancilla-qrt", {**_CUSTOM_QUBIT, "perturbations": ["sp+sm"]}, "model kind 'custom' has no system"),
        ("evolve", {"kind": "random", "dimension": 68}, "superoperator dimension 4624 exceeds"),
        (
            "evolve",
            {"kind": "random-ancilla", "dimension": 68, "system_dimension": 1},
            "superoperator dimension 4624 exceeds",
        ),
    ],
    ids=[
        "compare-random68", "qrt-random68", "compare-qubit", "qrt-qubit", "compare-random-ancilla",
        "qrt-random-ancilla-no-system", "compare-custom", "qrt-custom-perturbations",
        "evolve-random68", "evolve-random-ancilla68",
    ],
)
def test_task_refusals_come_before_the_model_is_built(tmp_path, capsys, monkeypatch, task, model, message):
    # {kind: random, dimension: 68} has a dense L_A of 4,624**2 entries: the
    # task and model kind alone refuse it, before any builder runs
    def refuse(*args, **kwargs):
        raise AssertionError("the model was built before the task was refused")

    for name in ("random_lindblad_model", "decaying_qubit", "random_ancilla_model"):
        monkeypatch.setattr(models, name, refuse)
    monkeypatch.setattr(cli, "lindblad_superop", refuse)
    cfg = write_config(tmp_path, {"model": model, "output": str(tmp_path / "bad")})
    assert cli.main([task, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and message in err
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
    monkeypatch.setattr(
        cli.sw, "decoupling_blocks", lambda sd, gen, eps, order: (eps * np.nan, eps * np.nan)
    )
    cfg = write_config(
        tmp_path,
        {"model": {"kind": "random", "seed": 1}, "output": str(tmp_path / "scan")},
    )
    assert cli.main(["decoupling-scan", "--config", cfg]) == 3
    assert "not all finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("scan*"))


def test_decoupling_scan_exits_3_when_the_transform_overflows(tmp_path, capsys):
    # at epsilon 2 the order-8 exp(+-S) of the N=2 model overflows float64;
    # the exit-3 message reports it, and no overflow warning from the
    # residual computations comes before it
    model = {"kind": "superradiance", "n_spins": 2, "gamma": 1.0, "omega": 0.2, "g": 1.0}
    cfg = write_config(
        tmp_path,
        {"model": model, "order": 8, "epsilons": [2.0, 1.0], "output": str(tmp_path / "scan")},
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["decoupling-scan", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "not all finite" in err
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not list(tmp_path.glob("scan*"))


def driven_qubit(omega):
    # an ancilla qubit driven by omega sx and decaying at rate 1, coupled to a
    # system qubit by sz (x) sx; at omega = 1/8 two fast eigenvalues of L_A
    # meet at -3/4 in a Jordan block, a Liouvillian exceptional point
    parts = (("sp", "plus"), ("sm", "minus"), ("sz", "z"))
    spin = {name: {"spin": 1, "component": c} for name, c in parts}
    model = {
        "kind": "custom",
        "dimension": 2,
        "symbols": dict(spin, sx={"expr": "sp + sm"}),
        "hamiltonian": f"{omega}*sx",
        "jumps": [{"rate": 1.0, "operator": "sm"}],
        "couplings": [{"ancilla": "sz", "system": "sx"}],
    }
    return {"model": model, "order": 3, "epsilon": 0.02, "epsilons": [0.04, 0.02, 0.01]}


def test_exceptional_point_exits_3(tmp_path, capsys):
    # L_A's eigenvector condition is 4.5e7 there, under decompose's limit, and
    # the eigen coordinates gave scan residuals 14 to 830 times too large and
    # split order-3 slow rates; the error estimate cond**2 eps = 0.44 refuses
    # both tasks, while spectrum, which reads only L_A's eigenvalues, runs
    cfg = write_config(tmp_path, dict(driven_qubit(0.125), output=str(tmp_path / "ep")))
    for task in ("effective", "decoupling-scan"):
        assert cli.main([task, "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "exceptional point" in err and "condition number 4.46e+07" in err
    assert not list(tmp_path.glob("ep*.csv"))
    assert cli.main(["spectrum", "--config", cfg]) == 0


def test_away_from_the_exceptional_point_runs(tmp_path):
    # at omega = 0.2 (condition 3.2) both tasks run; the residuals are those
    # the scan wrote before the check existed, to rounding, with slope 4
    cfg = write_config(tmp_path, dict(driven_qubit(0.2), output=str(tmp_path / "away")))
    for task in ("effective", "decoupling-scan"):
        assert cli.main([task, "--config", cfg]) == 0
    got = read_columns(tmp_path / "away_decoupling.csv")
    want = [2.0728241720894933e-05, 1.2944399539165623e-06, 8.0885715517125644e-08]
    np.testing.assert_allclose(got["residual"], want, rtol=1e-9)
    assert abs(got["fitted_slope"][0] - 4.0) < 1e-3


def test_condition_check_covers_the_eigen_coordinate_tasks(tmp_path, capsys, monkeypatch):
    # with no room for rounding, the three tasks that run the engine in L_A's
    # eigen coordinates refuse; spectrum, evolve and ancilla-qrt do not check
    monkeypatch.setattr(cli, "EIGEN_ERROR_TOL", 0.0)
    model = {"kind": "superradiance", "n_spins": 2, "gamma": 1.0, "omega": 0.2, "g": 1.0}
    cfg = write_config(tmp_path, {"model": model, "output": str(tmp_path / "run")})
    codes = {task: cli.main([task, "--config", cfg]) for task in cli.TASKS}
    assert codes == {
        "spectrum": 0, "effective": 3, "evolve": 0, "compare": 3, "ancilla-qrt": 0,
        "decoupling-scan": 3,
    }
    assert capsys.readouterr().err.count("exceptional point") == 3


def test_readme_examples_build_and_run(tmp_path):
    # the README's config examples go through the one registry unchanged
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```yaml\n(.*?)```", readme, re.S)
    assert len(blocks) == 2
    for i, text in enumerate(blocks):
        cfg = yaml.safe_load(text)
        l0, v = cli.Run("spectrum", cfg).ancilla.full_space()
        assert v.shape == l0.shape
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
    def l0(m):
        return cli.Run("spectrum", {"model": m}).ancilla.l0

    assert np.array_equal(l0(model), l0({**model, "hamiltonian": "sp + sm"}))


@pytest.mark.parametrize(
    "symbols,name",
    [
        ({"a": {"expr": "2*a"}}, "'a'"),
        ({"a": {"expr": "b"}, "b": {"expr": "sp*a"}, **_QUBIT_SYMBOLS}, "'a'"),
        ({"unused": {"spin": -3}, **_QUBIT_SYMBOLS}, "'unused'"),
        ({"a": {"expr": "b + $"}, **_QUBIT_SYMBOLS}, "unknown symbol 'b'"),
    ],
    ids=["self", "through-another", "unused-is-built", "unknown-before-bad-character"],
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


def _full_space_norms(ancilla, eps):
    """||L0 + epsilon V||_1 for each epsilon, on the assembled full space."""
    l0, v = ancilla.full_space()
    return np.array([abs(l0 + e * v).sum(0).max() for e in eps])


@pytest.mark.parametrize(
    "config",
    ["decoupling_scan.yaml", "decoupling_scan_n24.yaml", "decoupling_scan_n32.yaml",
     "decoupling_scan_n64.yaml"],
)
def test_scan_floor_norm_matches_the_full_space(config):
    # the rounding floor's ||L0 + eps V||_1 from the vec-basis blocks of the
    # orders q >= 0, against the full space it no longer assembles
    shipped = Path(__file__).resolve().parent.parent / "configs" / config
    run = cli.Run("decoupling-scan", yaml.safe_load(shipped.read_text()))
    eps = np.asarray(run.epsilons)
    got, want = cli._one_norms(run, eps), _full_space_norms(run.ancilla, eps)
    assert np.abs(got - want).max() <= 1e-14 * want.max()


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    q_a=st.lists(st.integers(0, 3), min_size=2, max_size=4),
    q_s=st.lists(st.integers(0, 2), min_size=1, max_size=3),
    seed=st.integers(0, 2**16),
)
def test_scan_floor_norm_matches_on_u1_models(q_a, q_s, seed):
    model, charges, _ = u1_symmetric_model(q_a, q_s, seed)
    eps = np.array([3.0, 0.1, 1e-4])
    for declared in (charges, None):
        run = SimpleNamespace(ancilla=model, charges=declared, zero_tol=1e-9)
        got, want = cli._one_norms(run, eps), _full_space_norms(model, eps)
        assert np.abs(got - want).max() <= 1e-14 * want.max()


def test_compare_warns_outside_the_perturbative_regime(tmp_path, capsys, monkeypatch):
    # at N=8 and g=1 the order-2+3 generator has an eigenvalue with real part
    # +0.399 and the gap check fails; the shipped burst's read 0 exactly and
    # print nothing.  The warning changes neither the exit code nor the CSV
    shipped = Path(__file__).resolve().parent.parent / "configs" / "burst_compare.yaml"
    assert cli.main(["compare", "--config", str(shipped), "--out", str(tmp_path / "burst")]) == 0
    assert capsys.readouterr().err == ""
    model = {"kind": "superradiance", "n_spins": 8, "g": 1.0, "gamma": 1.0, "omega": 0.2}
    cfg = write_config(tmp_path, {"model": model, "times": {"t_max": 20.0, "n_points": 11}})
    assert cli.main(["compare", "--config", cfg, "--out", str(tmp_path / "warned")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: the order-2+3 effective generator")
    assert "real part +0.399" in err[0] and "the gap check fails" in err[0]
    monkeypatch.setattr(cli, "GROWTH_TOL", np.inf)
    assert cli.main(["compare", "--config", cfg, "--out", str(tmp_path / "quiet")]) == 0
    assert capsys.readouterr().err == ""
    quiet, warned = (tmp_path / f"{name}_compare.csv" for name in ("quiet", "warned"))
    assert quiet.read_bytes() == warned.read_bytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")  # pytest captures warnings off stderr
@pytest.mark.parametrize(
    "model",
    [
        {"hamiltonian": "1e999*sz"},
        {"symbols": {**_QUBIT_SYMBOLS, "y": {"expr": "1e999*sz"}}, "perturbations": ["y"]},
        {"symbols": {**_QUBIT_SYMBOLS, "y": {"matrix": [[0, float("nan")], [0, 0]]}}, "perturbations": ["y"]},
    ],
    ids=["overflowing-literal", "overflowing-symbol", "nan-matrix-entry"],
)
def test_non_finite_operator_exits_2(tmp_path, capsys, model):
    # inf * 0 in the product is refused by the finite check alone: the
    # refusal is the one line on stderr, with no RuntimeWarning before it
    cfg = write_config(tmp_path, {"model": {**_CUSTOM_QUBIT, **model}, "output": str(tmp_path / "bad")})
    assert cli.main(["decoupling-scan", "--config", cfg]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error:") and "non-finite" in err[0]


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


def test_oversized_time_grid_exits_2_and_allocation_failure_exits_3(tmp_path, capsys, monkeypatch):
    # 10**17 points (711 PiB) exceed any address space, so numpy refuses the
    # grid at once whatever the kernel's overcommit policy: nothing is allocated
    model = {"kind": "decaying-qubit"}
    huge = {"model": model, "times": {"t_max": 1, "n_points": 10**17}, "output": str(tmp_path / "huge")}
    assert cli.main(["evolve", "--config", write_config(tmp_path, huge)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "times.n_points" in err
    assert "Traceback" not in err
    # any other allocation failure in a task is a numerical error
    def refuse(*args):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(dynamics, "propagate", refuse)
    small = {"model": model, "times": {"t_max": 1, "n_points": 5}, "output": str(tmp_path / "huge")}
    assert cli.main(["evolve", "--config", write_config(tmp_path, small)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: out of memory") and "Traceback" not in err
    # an operator too large to allocate is a config error; 10**8 x 10**8
    # complex entries (142 PiB) are refused at once as well
    model = {"kind": "custom", "dimension": 2, "symbols": {"big": {"identity": 10**8}}}
    cfg = write_config(tmp_path, {"model": model, "output": str(tmp_path / "huge")})
    assert cli.main(["spectrum", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: Unable to allocate") and "Traceback" not in err
    assert not list(tmp_path.glob("huge*"))


def test_negative_gamma_exits_2_and_sign_flips_run(tmp_path, capsys):
    # a negative decay rate is no model: the config reader refuses it,
    # naming the key.  A sign flip of g (the coupling phase), omega (the
    # detuning) or a model's epsilon is a physical model, and runs
    times = {"t_max": 2.0, "n_points": 5}
    for kind in ("superradiance", "decaying-qubit"):
        payload = {"model": {"kind": kind, "gamma": -1.0}, "times": times, "output": str(tmp_path / "refused")}
        cfg = write_config(tmp_path, payload)
        for task in ("spectrum", "evolve"):
            assert cli.main([task, "--config", cfg]) == 2
            err = capsys.readouterr().err
            assert err.startswith("configuration error: model.gamma must be >= 0"), err
    assert not list(tmp_path.glob("refused*"))
    flipped = [
        {"kind": "superradiance", "n_spins": 2, "g": -0.1, "omega": -0.2},
        {"kind": "decaying-qubit", "omega": -0.2},
        {**_CUSTOM_QUBIT, "perturbations": ["0.3*(sp+sm)"], "epsilon": -0.5},
    ]
    for i, model in enumerate(flipped):
        cfg = write_config(tmp_path, {"model": model, "times": times, "output": str(tmp_path / f"ok{i}")})
        assert cli.main(["evolve", "--config", cfg]) == 0


def test_evolve_task_reads_the_sector_block_only(tmp_path, monkeypatch):
    # evolve builds its block from the operators: neither the assembly
    # method, `lift` nor whole-space evolve may run
    forbid_full_space(monkeypatch)
    forbid(monkeypatch, "evolve", (dynamics,))
    mcfg = {"kind": "superradiance", "n_spins": 4, "sqrt_n_g": 0.2, "gamma": 1.0, "omega": 0.2}
    cfg = write_config(tmp_path, {"model": mcfg, "times": {"t_max": 400.0, "n_points": 41}})
    assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path / "evolve")]) == 0
    assert len(read_columns(tmp_path / "evolve_trajectory.csv")["re_iz"]) == 41


def test_defective_l_a_evolves(tmp_path, capsys):
    # a cascade 2 -> 1 -> 0 at equal rates: L_A is defective (a Jordan block
    # at -1), so it has no eigen coordinates and spectrum refuses it, while
    # evolve, in L_A's own basis, gives the ground population exactly
    symbols = {
        "a": {"matrix": [[0, 1, 0], [0, 0, 0], [0, 0, 0]]},
        "b": {"matrix": [[0, 0, 0], [0, 0, 1], [0, 0, 0]]},
        "p0": {"matrix": [[1, 0, 0], [0, 0, 0], [0, 0, 0]]},
        "p2": {"matrix": [[0, 0, 0], [0, 0, 0], [0, 0, 1]]},
    }
    model = {
        "kind": "custom", "dimension": 3, "symbols": symbols,
        "jumps": [{"rate": 1.0, "operator": "a"}, {"rate": 1.0, "operator": "b"}],
        "initial": "p2", "observables": {"ground": "p0"},
    }
    cfg = write_config(tmp_path, {"model": model, "times": {"t_max": 10.0, "n_points": 101}})
    assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path / "cascade")]) == 0
    got = read_columns(tmp_path / "cascade_trajectory.csv")
    t = got["time"]
    assert np.abs(got["re_ground"] - (1 - np.exp(-t) - t * np.exp(-t))).max() <= 1e-12
    capsys.readouterr()
    assert cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path / "cascade")]) == 3
    assert "condition number" in capsys.readouterr().err
