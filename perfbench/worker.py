"""Worker: a fresh process that runs one sample of a workload through lsw.cli.main.

Started by run.py with the checkout's ``src`` on PYTHONPATH, once per
sample, so every sample sees what a user of the ``lsw`` command sees: a
fresh process.  It writes the sample's outputs under ``--workdir`` and
leaves ``sample-<n>.json`` there with the time it took to import
``lsw.cli``, the per-operation exit codes and times, its own peak RSS, its
environment and, with ``--trace 1``, the recorded spans.  Output checks
happen in run.py after this process exits.
"""

import time

_import_start = time.perf_counter()
import lsw.cli  # noqa: E402  first, so that this is a fresh interpreter's import

IMPORT_S = time.perf_counter() - _import_start

import argparse  # noqa: E402
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path

import numpy as np
import scipy

import lsw._kernels
from spans import Tracer
from workloads import WORKLOADS, sample_ops


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "LSW_THREADS": os.environ.get("LSW_THREADS"),
        "using_numba": bool(lsw._kernels.USING_NUMBA),
    }


def run_op(op):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = lsw.cli.main(op["argv"])
        except Exception:  # a crash outside the CLI's exit-code contract
            code = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    prefix = Path(op["out"])
    files = sorted(prefix.parent.glob(prefix.name + "_*.csv"))
    return dict(
        op,
        exit=code,
        s=seconds,
        csv_bytes=sum(f.stat().st_size for f in files),
        stderr=err.getvalue()[-2000:],
    )


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sample", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    src = Path.cwd().resolve() / "src"
    if Path(lsw.cli.__file__).resolve().parent.parent != src:
        sys.exit(f"lsw imported from {lsw.cli.__file__}, expected under {src}")

    ops = sample_ops(args.workload, args.seed, args.sample, args.workdir)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        results = [run_op(op) for op in ops]
    finally:
        if tracer:
            tracer.uninstall()
    report = {
        "traced": bool(args.trace),
        "import_s": IMPORT_S,
        "wall_s": sum(r["s"] for r in results),
        "ops": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "environment": environment(),
        "spans": tracer.spans if tracer else [],
    }
    Path(args.workdir, f"sample-{args.sample:03d}.json").write_text(json.dumps(report))


if __name__ == "__main__":
    main()
