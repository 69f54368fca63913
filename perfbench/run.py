"""Run one benchmark workload against the pikrig sources of this checkout.

    python3 perfbench/run.py --workload ode1d-calibrated --seed 1 --seconds 30 --trace 0

The workload's operations run in a closed loop, one call at a time, with
BLAS limited to one thread.  Whole rounds repeat until ``--seconds`` have
passed (at least one round; by default BENCHMARK.json's ``run_seconds``).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace
1`` the per-layer metrics: untraced and traced rounds in turn, with the
traced rounds' spans written to ``perfbench/out/``.  Each run also writes a record of the
machine (nproc, CPU model, BLAS build and threads) and of every round to
standard error, and appends it to ``--record FILE`` when given.
"""

import os

# Before anything imports numpy: one BLAS thread keeps timings steady.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
MIN_SETUP_SAMPLES = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", default=None, help="append the run record to this file")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# machine record


def blas_threads():
    """Thread count of every OpenBLAS loaded into this process."""
    import ctypes

    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            name = os.path.basename(path).lower()
            if "openblas" in name and ".so" in name:
                libs.add(path)
    found = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def machine_record():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# ---------------------------------------------------------------------------
# rounds


def dir_bytes(path):
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def run_check(op, value, evals):
    """The operation's check; a check that raises on a malformed output fails it."""
    try:
        return op.check(value, evals)
    except Exception as exc:
        return [f"check raised {type(exc).__name__}: {exc}"]


def run_round(ops, design, tracer=None):
    """Run every operation once; time each call, then check its output.

    A call that raises (a non-zero exit included) fails its operation; a
    check that reports problems or raises fails it too and makes the run
    incorrect.  Output directories are emptied before each call, so a
    check never reads an earlier round's files.
    """
    times = {}
    rnd = {"evals": 0, "attempted": 0, "failed": 0, "check_failures": 0, "op_s": times}
    for op in ops:
        rnd["attempted"] += 1
        if op.outdir is not None:
            shutil.rmtree(op.outdir, ignore_errors=True)
        design.reset_cov_eval_count()
        t0 = time.perf_counter()
        try:
            value = op.run()
        except Exception:  # a failure of the program fails the operation
            times[op.name] = time.perf_counter() - t0
            traceback.print_exc()
            rnd["failed"] += 1
            continue
        times[op.name] = time.perf_counter() - t0
        evals = design.cov_eval_count()
        rnd["evals"] += evals
        problems = run_check(op, value, evals)
        if problems:
            print(f"{op.name}: check failed: {'; '.join(problems)}", file=sys.stderr)
            rnd["failed"] += 1
            rnd["check_failures"] += 1
        if tracer is not None and op.outdir is not None:
            tracer.counts["cli.bytes_written"] += dir_bytes(op.outdir)
    rnd["wall_s"] = sum(times.values())
    return rnd


def upper_decile(values):
    """90th percentile, interpolated between order statistics.

    This host is mostly in one slow state, with short fast spells whose
    share drifts from minute to minute.  A repeat's time depends on how
    much fast time it caught, so the slow end of an operation's repeats
    varies least between runs; medians and minima spread up to 1.8 times
    as much (perfbench/README.md).
    """
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def route_times(ops, rounds):
    """wall_s, ck_s and lk_s: sums over operations of their upper-decile times."""
    best = {op.name: upper_decile(r["op_s"][op.name] for r in rounds) for op in ops}
    out = {"wall_s": sum(best.values())}
    for route in ("ck", "lk"):
        out[f"{route}_s"] = sum(best[op.name] for op in ops if op.route == route)
    return out


def rounds_for(seconds, fn):
    """Call ``fn(i)`` for whole rounds until ``seconds`` have passed."""
    start = time.perf_counter()
    out = [fn(0)]
    while time.perf_counter() - start < seconds:
        out.append(fn(len(out)))
    return out


def setup_sample(args):
    """Set-up time of a fresh process: imports plus the workload's inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end(args, ops, design, own_setup_s):
    setups = [own_setup_s]

    def round_then_setup(i):
        # one set-up sample after each round spreads them over the run
        rnd = run_round(ops, design)
        setups.append(setup_sample(args))
        return rnd

    rounds = rounds_for(args.seconds, round_then_setup)
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(setup_sample(args))
    evals = {r["evals"] for r in rounds}
    metrics = route_times(ops, rounds)
    metrics.update({
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cov_evals": rounds[0]["evals"],
    })
    repeatable = len(evals) == 1
    if not repeatable:
        print(f"cov_evals differ between rounds: {sorted(evals)}", file=sys.stderr)
    return metrics, rounds, {"setup_samples": setups, "cov_evals_repeat": repeatable}


def per_layer(args, ops, design):
    """Untraced and traced rounds in turn; layer metrics from the traced ones."""
    import tracer as tracing

    tracer = tracing.Tracer()
    untraced, layers = [], []

    def round_pair(i):
        untraced.append(run_round(ops, design))
        tracer.begin_round(i)
        tracer.install()
        try:
            rnd = run_round(ops, design, tracer)
        finally:
            tracer.uninstall()
        layers.append(tracer.round_metrics())
        return rnd

    traced = rounds_for(args.seconds, round_pair)
    os.makedirs(OUT, exist_ok=True)
    tracer.write_spans(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv"))
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(r["wall_s"] for r in untraced))
    return metrics, untraced + traced, {}


# ---------------------------------------------------------------------------


def main(argv=None):
    t0 = time.perf_counter()
    args = parse_args(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if not os.path.isfile(os.path.join(SRC, "pikrig", "__init__.py")):
        print(f"error: no pikrig sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    ops = workloads.WORKLOADS[args.workload](args.seed, workdir)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from pikrig import design

    try:
        if args.trace:
            values, rounds, extra = per_layer(args, ops, design)
            wanted = spec["per_layer"]
        else:
            values, rounds, extra = end_to_end(args, ops, design, setup_s)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_record(), "rounds": rounds,
        "values": values, "run_s": time.perf_counter() - t0, **extra,
    }
    print(json.dumps({"run_record": record}), file=sys.stderr)
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    result = {
        "correct": all(r["check_failures"] == 0 for r in rounds) and extra.get("cov_evals_repeat", True),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
