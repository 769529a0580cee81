import numpy as np
import yaml

from lsw import cli, models
from lsw.superop import to_dense


def write_config(tmp_path, payload, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


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


def test_spectrum_deterministic_bytes(tmp_path):
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
    # which draws from the global RNG; the trajectory must not depend on it
    cfg = write_config(
        tmp_path,
        {
            "model": {"kind": "superradiance", "n_spins": 4, "sqrt_n_g": 0.2,
                      "gamma": 1.0, "omega": 0.2},
            "times": {"t_max": 400.0, "n_points": 41},
            "output": str(tmp_path / "evo"),
        },
        name="evolve.yaml",
    )
    outputs = []
    for seed in (1, 2, 3):
        np.random.seed(seed)
        assert cli.main(["evolve", "--config", cfg]) == 0
        outputs.append((tmp_path / "evo_trajectory.csv").read_bytes())
    # the runs did draw from it, so the seeds were exercised
    assert np.random.randint(2**31) != np.random.RandomState(3).randint(2**31)
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
    built = cli._build_model(cli.Run("spectrum", cfg_custom))
    p = models.SuperradianceParams(n_spins=n, g=0.1, gamma=1.0, omega=0.2)
    m = models.superradiance_model(p, sparse=False)
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
