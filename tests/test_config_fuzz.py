"""Exit-code contract under hostile configs: every task on every model kind
either runs or exits 2/3 with a message, and nothing is raised.

Each drawn config is a valid one from a small grammar (every model kind,
small sizes) with up to three of its keys, at any depth, replaced by a
hostile value or deleted.  Sizes (`n_spins`, `dimension`, `n_points`, ...)
come only from small ranges, so no drawn config asks for a large
allocation.
"""

import contextlib
import io

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lsw import cli

DELETE = object()
HOSTILE = [0, -1, float("nan"), float("inf"), "x", "(", "2", [1], {"a": 1}, None, DELETE]

_QUBIT = {
    "x": {"expr": "sp + sm"},  # names symbols declared after it
    "sp": {"spin": 1, "component": "plus"},
    "sm": {"spin": 1, "component": "minus"},
    "sz": {"spin": 1, "component": "z"},
    "y": {"matrix": [[[0, 0], [0, -1]], [[0, 1], [0, 0]]]},
    "id": {"identity": 2},
}

_CUSTOM = {
    "kind": st.just("custom"),
    "dimension": st.just(2),
    "symbols": st.just(_QUBIT),
    "hamiltonian": st.sampled_from(["0.2*sp*sm", "y*y + x"]),
    "jumps": st.just([{"rate": 1.0, "operator": "sm"}]),
    "epsilon": st.sampled_from([1.0, 0.5]),
}

_MODELS = [
    {
        "kind": st.just("superradiance"),
        "n_spins": st.sampled_from([1, 2]),
        "gamma": st.just(1.0),
        "omega": st.sampled_from([0.0, 0.2]),
        "g": st.sampled_from([0.1, 1.0]),
    },
    {"kind": st.just("decaying-qubit"), "gamma": st.just(1.0), "omega": st.sampled_from([0.0, 0.2])},
    {
        "kind": st.just("random"),
        "dimension": st.sampled_from([2, 3]),
        "jumps": st.sampled_from([1, 2]),
        "seed": st.sampled_from([0, 1]),
    },
    {
        "kind": st.just("random-ancilla"),
        "dimension": st.sampled_from([2, 3]),
        "couplings": st.sampled_from([1, 2]),
        "seed": st.sampled_from([0, 1]),
        "system_dimension": st.sampled_from([2, 3]),
    },
    {
        **_CUSTOM,
        "perturbations": st.just(["x", "0.5*y"]),
        "observables": st.just({"e": "sp*sm"}),
        "initial": st.just("sp*sm"),
    },
    {
        **_CUSTOM,
        "couplings": st.just([{"ancilla": "x", "system": "sz"}, {"ancilla": "y", "system": "id"}]),
        "observables": st.just({"e": "sz kron sz"}),
        "initial": st.just("(sp*sm) kron (sp*sm)"),
    },
]

valid_configs = st.fixed_dictionaries(
    {
        "model": st.one_of(*(st.fixed_dictionaries(m) for m in _MODELS)),
        "order": st.sampled_from([1, 2, 3]),
        "epsilon": st.sampled_from([1.0, 0.1]),
        "times": st.fixed_dictionaries(
            {"t_max": st.sampled_from([1.0, 2.0]), "n_points": st.sampled_from([2, 5])}
        ),
        "tolerances": st.just({"zero_tol": 1e-9}),
        "epsilons": st.just([1e-2, 1e-3]),
    }
)


def _paths(node, prefix=()):
    """Every key or index path below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _replaced(node, path, value):
    """A copy of ``node`` with ``path`` set to ``value`` (DELETE: removed)."""
    node = dict(node) if isinstance(node, dict) else list(node)
    key, rest = path[0], path[1:]
    if rest:
        node[key] = _replaced(node[key], rest, value)
    elif value is DELETE:
        del node[key]
    else:
        node[key] = value
    return node


@st.composite
def hostile_configs(draw):
    cfg = draw(valid_configs)
    for _ in range(draw(st.integers(0, 3))):
        paths = list(_paths(cfg))
        if paths:
            cfg = _replaced(cfg, draw(st.sampled_from(paths)), draw(st.sampled_from(HOSTILE)))
    return cfg


@settings(
    derandomize=True,
    database=None,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(task=st.sampled_from(cli.TASKS), cfg=hostile_configs())
def test_hostile_configs_keep_the_exit_code_contract(tmp_path_factory, task, cfg):
    tmp = tmp_path_factory.mktemp("fuzz")
    path = tmp / "run.yaml"
    path.write_text(yaml.safe_dump(cfg))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([task, "--config", str(path), "--out", str(tmp / "out")])
    assert code in (0, 2, 3), (code, err.getvalue())
    if code:
        assert err.getvalue().startswith(("configuration error:", "numerical error:"))
