"""lsw benchmark: one workload through the public CLI, checked and measured.

Run from the root of a checkout:

    python3 perfbench/run.py --workload burst16 --seed 1 --seconds 24 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json: the median
time to import ``lsw.cli`` in a fresh interpreter (``setup_s``), the median
wall time of one sample, the peak RSS of the process that ran the
workload, and the share of operations that succeeded with checked output.
``--trace 1`` prints the per-layer metrics from spans recorded around the
layer functions, with the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  See NOTES.md for the workloads and what each metric should
move.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One OpenBLAS thread in this process and in every worker; the CLI's pool
# (LSW_THREADS) is the only parallelism.  With a BLAS thread per core on
# top of the pool, a busy neighbour on one core of a small host slowed a
# burst16 sample by 40% and a qrt-mix round by 70%; with one BLAS thread,
# by 5% or less.  It also keeps results from depending on the core count:
# which qrt-mix tasks fail for a seed changed with the BLAS thread count.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from spans import sample_layers  # noqa: E402
from workloads import WORKLOADS, Checker, config_hash, fixed_samples  # noqa: E402

SETUP_IMPORTS = 9
DEADLINE_S = 170.0  # the whole run, checks included, ends before this
CHECK_RESERVE_S = 25.0
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import lsw.cli; print(time.perf_counter() - t)"
)
# a tail percentile needs at least this many samples beyond it
TAIL_BEYOND = 10


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["LSW_THREADS"] = str(len(os.sched_getaffinity(0)))
    return env


def measure_setup(env, deadline, samples):
    """Median time for a fresh interpreter to import lsw.cli.

    Every worker times its own import; import-only interpreters make up
    the count to at least SETUP_IMPORTS.
    """
    times = [s["import_s"] for s in samples]
    while len(times) < SETUP_IMPORTS:
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET],
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            fail(f"import lsw.cli failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip()))
    return statistics.median(times)


def tail_note(values):
    n = len(values)
    for p in (99.9, 99, 90):
        if n * (100 - p) / 100 >= TAIL_BEYOND:
            q = statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]
            return f"p{p:g} {q:.4f} s"
    return f"no tail percentile (needs {TAIL_BEYOND} samples beyond it)"


def check_ops(name, samples):
    """Check every operation, outside the timed worker.

    A failure is a non-zero exit or an output that fails its check.  Outputs
    are not correct when an operation crashed past the CLI's exit codes or
    exited 0 without readable outputs.  Returns attempted, failed, correct
    and per-label lines with one example of each kind of failure.
    """
    checker = Checker()
    attempted = failed = 0
    correct = True
    by_label = {}
    for sample in samples:
        for op in sample["ops"]:
            attempted += 1
            if op["exit"] is None:
                correct = False
                kind, ok = "crashed", False
                detail = op["stderr"].strip().splitlines()[-1]
            elif op["exit"] != 0:
                kind, ok = f"exit {op['exit']}", False
                detail = (op["stderr"].strip().splitlines() or [""])[-1]
            else:
                try:
                    ok, detail = checker.check(name, op)
                    kind = "passed" if ok else "check failed"
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    correct = False
                    kind, ok, detail = "unreadable output", False, repr(exc)
            failed += not ok
            entry = by_label.setdefault(op.get("label", name), [0, 0, {}])
            entry[0] += 1
            entry[1] += not ok
            entry[2].setdefault(kind, detail)
    lines = []
    for label, (n, bad, kinds) in by_label.items():
        lines.append(f"{label}: {n} attempted, {bad} failed")
        lines += [f"    {kind}, e.g. {detail}" for kind, detail in kinds.items()]
    return attempted, failed, correct, lines


def run_samples(args, env, workdir, deadline):
    """Run one fresh worker process per sample for about ``args.seconds``.

    Another sample starts only if it should end at most half a sample past
    ``--seconds``; the time counted includes each worker's start-up.  A
    workload with a fixed sample count (qrt-mix) runs exactly that many.  With
    ``--trace 1`` samples alternate untraced and traced, untraced first, so
    the tracing overhead is measured within one run.
    """
    worker = str(Path(__file__).resolve().parent / "worker.py")
    count = fixed_samples(args.workload, args.seconds)
    samples = []
    start = time.monotonic()
    while True:
        index = len(samples)
        traced = args.trace and index % 2 == 1
        cmd = [
            sys.executable, worker,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--sample", str(index),
            "--trace", str(int(traced)),
            "--workdir", str(workdir),
        ]
        begun = time.monotonic()
        try:
            proc = subprocess.run(
                cmd,
                env=env,
                capture_output=True,
                text=True,
                timeout=max(1.0, deadline - CHECK_RESERVE_S - begun),
            )
        except subprocess.TimeoutExpired:
            fail("worker did not finish in time")
        if proc.returncode != 0:
            fail(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        samples.append(json.loads((workdir / f"sample-{index:03d}.json").read_text()))
        now = time.monotonic()
        if count is not None:
            if len(samples) >= count:
                return samples
        elif args.seconds - (now - start) < (now - begun) / 2 and (
            not args.trace or len(samples) >= 2
        ):
            return samples


def per_layer(declared, samples):
    traced = [s for s in samples if s["traced"]]
    plain = [s for s in samples if not s["traced"]]
    layers = [sample_layers(s["spans"]) for s in traced]
    for layer, sample in zip(layers, traced):
        layer["cli.csv_bytes"] = sum(op["csv_bytes"] for op in sample["ops"])
    traced_wall = statistics.median(s["wall_s"] for s in traced)
    untraced_wall = statistics.median(s["wall_s"] for s in plain)
    values = {
        "trace.traced_wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    for m in declared:
        if m["name"] not in values:
            values[m["name"]] = statistics.median(l.get(m["name"], 0) for l in layers)
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd().resolve()
    bench_file = root / "BENCHMARK.json"
    if not (root / "src" / "lsw" / "cli.py").is_file():
        fail(f"no lsw sources under {root / 'src'}; run from the root of a checkout")
    config = WORKLOADS[args.workload][1]
    if not config.is_file() or not bench_file.is_file():
        fail(f"missing {config if not config.is_file() else bench_file}")
    spec = json.loads(bench_file.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(root / "src"))  # the checkers import lsw from the checkout

    env = child_env(root)
    scratch = root / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        samples = run_samples(args, env, workdir, deadline)
        setup_s = None if args.trace else measure_setup(env, deadline, samples)
        attempted, failed, correct, failures = check_ops(args.workload, samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    plain = [s["wall_s"] for s in samples if not s["traced"]]
    if args.trace:
        values = per_layer(declared, samples)
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(plain),
            # a worker's peak RSS takes a few values set by thread timing
            # (172, 179 or 186 MB on scan8); their mean is steadier than a
            # median that flips between them
            "peak_rss_mb": statistics.fmean(s["peak_rss_mb"] for s in samples),
            "ok_frac": (attempted - failed) / attempted,
        }
    environment = dict(
        samples[0]["environment"],
        seed=args.seed,
        workload=args.workload,
        config_sha256=config_hash(args.workload),
    )

    print(f"lsw benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("environment: " + json.dumps(environment, sort_keys=True))
    print(
        f"samples: {len(plain)} untraced, {len(samples) - len(plain)} traced; "
        f"untraced sample wall: median {statistics.median(plain):.4f} s, {tail_note(plain)}; "
        "each: " + ", ".join(f"{s['wall_s']:.3f}" for s in samples)
    )
    print(f"operations: {attempted} attempted, {failed} failed "
          f"(failed_frac {failed / attempted:.4f}), outputs correct: {correct}")
    for line in failures:
        print("  " + line)
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<40} {values[m['name']]:>16.6g} {m['unit']}")
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))


if __name__ == "__main__":
    main()
