"""Span recorder for the traced run, wrapped around the layers from outside.

``Tracer.install()`` replaces each function in ``LAYERS`` by a wrapper that
records a span (name, thread, parent, start, end, attributes).  The
wrapper is put everywhere the function object is bound inside the ``lsw``
package, so calls through a name imported into another module
(``lsw.cli.decompose``, ``lsw.sw.hat_apply``, ...) are recorded too.
Spans stay in memory; the worker writes them out when it ends.

A span opened on a thread with no open span of its own (a pool worker of
``compare`` or ``decoupling-scan``) gets the latest ``cli.main`` span as
parent.
"""

import sys
import threading
import time


def _dim(args, kwargs, result):
    return {"dim": int(args[0].shape[0])}


def _hat_flop(args, kwargs, result):
    # two dense complex D x D products, 8 real flops per multiply-add
    d = int(args[0].shape[0])
    return {"flop": 16 * d**3}


def _state_points(args, kwargs, result):
    return {"state_points": int(result.states.shape[0])}


def _basis(args, kwargs, result):
    return {"basis": len(result.ops)}


# module -> {function: attribute extractor or None}
LAYERS = {
    "lsw.cli": {"main": None},
    "lsw.models": {"superradiance_model": None, "random_ancilla_model": None},
    "lsw.superop": {"lindblad_superop": None, "hat_apply": _hat_flop},
    "lsw.spectral": {"decompose": _dim, "resolvent_apply": None, "spectral_norm": None},
    "lsw.sw": {
        "split_blocks": None,
        "generator_terms": None,
        "correction_terms": None,
        "reduced_effective": None,
        "decoupling_residual": None,
    },
    "lsw.dynamics": {"evolve": _state_points, "emission_intensity": None},
    "lsw.qrt": {
        "steady_state": None,
        "close_operator_set": _basis,
        "coefficient_matrix": None,
        "lindblad_decomposition": None,
    },
}

ROOT = "cli.main"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, thread, parent, start, end, attrs]
        self._root = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []  # (namespace, attribute, original)

    def _wrap(self, name, fn, extract):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else (None if name == ROOT else tracer._root)
            span = [name, threading.get_ident(), parent, 0.0, 0.0, None]
            with tracer._lock:
                tracer.spans.append(span)
                index = len(tracer.spans) - 1
            if name == ROOT:
                tracer._root = index
            stack.append(index)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if extract is not None:
                span[5] = extract(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Patch every binding of the layer functions in the loaded lsw modules."""
        modules = [m for k, m in sys.modules.items() if k == "lsw" or k.startswith("lsw.")]
        for modname, funcs in LAYERS.items():
            short = modname.split(".", 1)[1]
            for fname, extract in funcs.items():
                original = getattr(sys.modules[modname], fname)
                wrapped = self._wrap(f"{short}.{fname}", original, extract)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapped)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def _union(intervals):
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _critical(intervals):
    """Sum over groups of overlapping intervals of the longest one in each."""
    total, end, longest = 0.0, float("-inf"), 0.0
    for a, b in sorted(intervals):
        if a >= end:
            total += longest
            longest = 0.0
        longest = max(longest, b - a)
        end = max(end, b)
    return total + longest


def sample_layers(spans):
    """Per-layer quantities of one sample's spans.

    Times are summed over calls and threads.  ``self_s`` is a span's
    duration minus the part of it covered by its children.
    """
    children = {}
    for i, span in enumerate(spans):
        children.setdefault(span[2], []).append(i)
    out = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for i, (name, _, _, start, end, attrs) in enumerate(spans):
        add(f"{name}.s", end - start)
        add(f"{name}.calls", 1)
        kids = [(spans[k][3], spans[k][4]) for k in children.get(i, [])]
        add(f"{name}.self_s", end - start - _union(kids))
        for key, value in (attrs or {}).items():
            if key == "dim":
                out[f"{name}.dim"] = max(out.get(f"{name}.dim", 0), value)
            else:
                add(f"{name}.{key}", value)
    evolves = [(s[3], s[4]) for s in spans if s[0] == "dynamics.evolve"]
    out["dynamics.evolve.critical_s"] = _critical(evolves)
    out["cli.self_s"] = out.get(f"{ROOT}.self_s", 0.0)
    if "superop.hat_apply.flop" in out:
        out["superop.hat_apply.gflop_computed"] = out.pop("superop.hat_apply.flop") / 1e9
    return out
