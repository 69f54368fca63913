"""Run one benchmark workload's operations over a range of seeds and report
every output check that fails.

Usage: python3 tools/scan_benchmark_checks.py WORKLOAD FIRST LAST

WORKLOAD is a name from ``perfbench/workloads.py`` (``ode1d-calibrated``,
``flow-cylinder`` or ``constraint-sweep``); FIRST and LAST bound the
benchmark seeds, both included.  For each seed the workload is built as
``perfbench/run.py --seed SEED`` builds it, and every operation runs once,
in order and in this process, with one BLAS thread, followed by its own
check from ``perfbench/checks.py``, fed the operation's covariance
evaluation count as ``perfbench/run.py`` feeds it.  A call that raises
fails its operation, as in the benchmark.  Nothing is timed, and the
benchmark's files are only imported, never changed.

Each failure is printed as one line ``seed SEED  OPERATION: PROBLEM``;
then a summary line.  The exit status is 1 if any operation failed, else
0.  The runs' own log lines and warnings are silenced.
"""

import os

# Before anything imports numpy: the benchmark runs with one BLAS thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import logging  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from pikrig import design  # noqa: E402


def run_op(op):
    """The problems of one operation: its check's, or the error it raised."""
    if op.outdir is not None:
        shutil.rmtree(op.outdir, ignore_errors=True)
    design.reset_cov_eval_count()
    try:
        value = op.run()
    except Exception as exc:
        return [f"raised {type(exc).__name__}: {exc}"]
    evals = design.cov_eval_count()
    try:
        return op.check(value, evals)
    except Exception as exc:
        return [f"check raised {type(exc).__name__}: {exc}"]


def scan(workload, seeds):
    """(seed, operation, problem) of every failing check, in run order."""
    failures = []
    for seed in seeds:
        with tempfile.TemporaryDirectory(prefix="scan-") as workdir:
            for op in workloads.WORKLOADS[workload](seed, workdir):
                for problem in run_op(op):
                    print(f"seed {seed}  {op.name}: {problem}", flush=True)
                    failures.append((seed, op.name, problem))
    return failures


def main(argv):
    if len(argv) != 3 or argv[0] not in workloads.WORKLOADS:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        print(f"workloads: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    first, last = int(argv[1]), int(argv[2])
    # a root handler first, so the CLI's basicConfig adds none
    logging.basicConfig(level=logging.ERROR)
    warnings.simplefilter("ignore")
    failures = scan(argv[0], range(first, last + 1))
    ops = {(s, name) for s, name, _ in failures}
    print(f"{argv[0]} seeds {first}-{last}: {len(ops)} failing operations "
          f"on {len({s for s, _ in ops})} seeds")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
