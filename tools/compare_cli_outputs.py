"""Compare the CLI outputs of two checkouts of pikrig over a fixed run matrix.

Usage: python3 tools/compare_cli_outputs.py PARENT CHANGE

PARENT and CHANGE are checkout directories (each with its own ``src``).
Each checkout runs the whole matrix in one subprocess, with its own
``src`` on PYTHONPATH and one BLAS thread, writing every run to a
temporary directory, into which the config files of ``CONFIG_RUNS`` are
written first.  Then every output file is compared:

* ``predictions.csv``, ``field_input.csv`` and ``trace.csv`` byte for byte;
* ``bench.csv`` without its ``*_s`` (timing) columns;
* ``report.json`` as JSON without ``timing``, ``config.output_dir`` and
  the ``*_s`` keys of the bench rows.

Every file that differs, or exists on one side only, is printed; the exit
status is 1 if any does, else 0.  Under each differing CSV or report file
goes, per CSV column or report key (list positions merged), the largest
absolute and relative difference of its numbers (relative to PARENT's
value), or a note that some value there is not a number on both sides.
"""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

ODE1D_METHODS = ("sk", "ok", "ck", "lk", "lk-interp")

# runs driven by a config file (name: (command, content of name.json)), so
# that values read from a file, nested kernel/counts blocks and integers in
# float fields included, are compared too
CONFIG_RUNS = {
    "flow-geometry": ("flow", {
        "method": "ck", "kernel": {"theta": 0.8, "sigma2": 10.0}, "counts": {"n": 10, "q1": 9},
        "radius": 0.8, "center_x": 0.3, "center_y": -0.2, "freestream_x": 1.5,
        "freestream_y": 0.25, "extent": 3, "obs_radius_factor": 2.5, "margin": 0.1,
        "aspect": 1.5, "cont_nx": 7, "cont_ny": 6, "pred_nx": 9, "pred_ny": 8,
    }),
    "ode1d-nested": ("ode1d", {
        "method": "ck", "kernel": {"theta": 1.2, "sigma2": "auto"},
        "counts": {"n": 5, "p": 8, "q": 12}, "seed": 3, "nugget": 0,
    }),
    # the lk run of the benchmark's flow-cylinder workload
    "flow-lk-grid60": ("flow", {"method": "lk", "pred_nx": 60, "pred_ny": 60}),
    # the interpolation variance rule at a theta no search evaluated
    "ode1d-interp-fixed-theta": ("ode1d", {
        "method": "lk-interp", "kernel": {"theta": 2.3, "sigma2": "auto"},
    }),
}


def run_matrix():
    """(name, argv) of every run: ode1d (plus lk and ck at a nugget of 1e-8,
    one ck run whose final solve escalates, and ck and sk at seed 331), scalar2d, flow (plus lk
    at a nugget of 1e-8), flow-csv,
    calibrate (at the default budget and at two others, and ck at four
    more seeds), bench (p = 200, 1500 and 4000), and one run per config
    file."""
    runs = [(f"ode1d-{m}-seed{s}", ["ode1d", "--method", m, "--seed", str(s)])
            for m in ODE1D_METHODS for s in (4, 5, 6, 7, 10)]
    runs.append(("ode1d-lk-nugget", ["ode1d", "--method", "lk", "--nugget", "1e-8"]))
    runs.append(("ode1d-ck-nugget", ["ode1d", "--method", "ck", "--nugget", "1e-8"]))
    # a long fixed lengthscale: the final solve escalates to a nugget of 1e-10
    runs.append(("ode1d-ck-theta8", ["ode1d", "--method", "ck", "--theta", "8", "--sigma2", "1"]))
    # observations in [1.59, 2.16] under collocation rows on [0, 2 pi]: ck's
    # bracket spans the rows' locations, sk's only the observations
    runs += [(f"ode1d-{m}-seed331", ["ode1d", "--method", m, "--seed", "331"]) for m in ("ck", "sk")]
    runs += [(f"scalar2d-{m}-{t}", ["scalar2d", "--method", m, "--target", t])
             for m in ("sk", "ck", "lk") for t in ("f1", "f2")]
    runs += [(f"flow-{m}", ["flow", "--method", m]) for m in ("ck", "lk")]
    # the step-2 criterion's escalation rule where it compares with a nugget above 0
    runs.append(("flow-lk-nugget", ["flow", "--method", "lk", "--nugget", "1e-8"]))
    # read back the velocity file of the flow-ck run (a path relative to the root)
    runs += [(f"flow-csv-{m}", ["flow", "--csv", "flow-ck/field_input.csv", "--method", m])
             for m in ("ck", "lk")]
    runs += [(f"calibrate-{m}", ["calibrate", "--method", m]) for m in ODE1D_METHODS]
    # the ck criterion trace at the other seeds the ode1d runs use
    runs += [(f"calibrate-ck-seed{s}", ["calibrate", "--method", "ck", "--seed", str(s)])
             for s in (4, 5, 6, 7)]
    # a short refinement (budget 9 leaves it four evaluations) and a long one
    runs += [(f"calibrate-{m}-budget{b}", ["calibrate", "--method", m, "--budget", str(b)])
             for m, b in (("ck", 9), ("lk-interp", 200))]
    # p = 4000: a 4004 x 4004 K+, assembled in many row panels
    runs += [(f"bench-p{p}", ["bench", "--p", str(p)]) for p in (200, 1500, 4000)]
    runs += [(name, [command, "--config", f"{name}.json"])
             for name, (command, _) in CONFIG_RUNS.items()]
    return runs


# Runs inside the child, in the root directory: every run of the matrix
# through pikrig.cli.main, each writing to the directory of its name.
CHILD = """
import json, sys
from pikrig import cli
for name, argv in json.loads(sys.argv[1]):
    cli.main(argv + ["--out", name])
"""


def run_checkout(checkout, root, runs):
    """Run ``runs`` with ``checkout``'s sources; outputs go under ``root``.

    Paths in the runs' argv and reports are relative to ``root``, so both
    sides write the same ``config`` into report.json.
    """
    threads = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"), **threads)
    os.makedirs(root)
    for name, (_, config) in CONFIG_RUNS.items():
        with open(os.path.join(root, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(config, fh)
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(runs)],
                          cwd=root, env=env, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"{checkout}: the run matrix failed\n{done.stderr}")


def _without_timing_columns(text):
    rows = list(csv.reader(io.StringIO(text)))
    keep = [i for i, h in enumerate(rows[0]) if not h.endswith("_s")] if rows else []
    return [[row[i] for i in keep] for row in rows]


def _report_without_timing(text):
    report = json.loads(text)
    report.pop("timing", None)
    report.get("config", {}).pop("output_dir", None)
    for row in report.get("extras", {}).get("rows", []):
        for key in [k for k in row if k.endswith("_s")]:
            del row[key]
    return report


def comparable(path):
    """The content of an output file as it is compared."""
    with open(path, "rb") as fh:
        data = fh.read()
    name = os.path.basename(path)
    if name == "report.json":
        return _report_without_timing(data.decode("utf-8"))
    if name == "bench.csv":
        return _without_timing_columns(data.decode("utf-8"))
    return data


def _number(value):
    """``value`` as a float if it is a number or a number's text, else itself."""
    if isinstance(value, bool):
        return value
    try:
        return float(value)
    except (TypeError, ValueError):
        return value


def _leaves(value, key=""):
    """{path: leaf} of a parsed report, list positions as [i]."""
    if isinstance(value, dict):
        items = ((f"{key}.{k}" if key else k, v) for k, v in value.items())
    elif isinstance(value, list):
        items = ((f"{key}[{i}]", v) for i, v in enumerate(value))
    else:
        return {key: _number(value)}
    return {p: leaf for k, v in items for p, leaf in _leaves(v, k).items()}


def leaves(path):
    """{path: value} of a compared CSV or report file: a CSV cell as
    ``column[row]``; None for any other file."""
    content = comparable(path)
    if path.endswith(".csv"):
        if isinstance(content, bytes):
            content = list(csv.reader(io.StringIO(content.decode("utf-8"))))
        header, *rows = content or [[]]
        return {f"{h}[{i}]": _number(cell) for i, row in enumerate(rows)
                for h, cell in zip(header, row)}
    return _leaves(content) if os.path.basename(path) == "report.json" else None


def differences(a, b):
    """{column or key: (largest absolute, largest relative difference), or
    None where a value differs without being a number on both sides}."""
    out = {}
    for path in sorted(a.keys() | b.keys()):
        x, y = a.get(path), b.get(path)
        numbers = all(isinstance(v, float) for v in (x, y))
        if x == y or numbers and math.isnan(x) and math.isnan(y):
            continue
        key = re.sub(r"\[\d+\]", "", path)
        if not numbers or out.get(key, 0) is None:
            out[key] = None
            continue
        d = abs(y - x)
        r = d / abs(x) if x else math.inf
        old = out.get(key, (0.0, 0.0))
        out[key] = (max(old[0], d), max(old[1], r))
    return out


def compare_outputs(parent_root, change_root, runs):
    """(path relative to a root, equal) of every output file of either side;
    a file on one side only is not equal."""
    results = []
    for name, _ in runs:
        sides = [os.path.join(r, name) for r in (parent_root, change_root)]
        files = set().union(*(os.listdir(d) if os.path.isdir(d) else () for d in sides))
        for f in sorted(files):
            a, b = (os.path.join(d, f) for d in sides)
            equal = os.path.exists(a) and os.path.exists(b) and comparable(a) == comparable(b)
            results.append((os.path.join(name, f), equal))
    return results


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    parent, change = (os.path.abspath(p) for p in argv)
    runs = run_matrix()
    with tempfile.TemporaryDirectory(prefix="pikrig_compare_") as tmp:
        roots = [os.path.join(tmp, side) for side in ("parent", "change")]
        for checkout, root in zip((parent, change), roots):
            run_checkout(checkout, root, runs)
        results = compare_outputs(*roots, runs)
        differ = [path for path, equal in results if not equal]
        for path in differ:
            print(f"differs: {path}")
            files = [os.path.join(root, path) for root in roots]
            sides = [leaves(f) if os.path.exists(f) else None for f in files]
            if None in sides:
                continue
            for key, diff in differences(*sides).items():
                print(f"    {key}: " + ("not a number on both sides" if diff is None
                                        else f"abs {diff[0]:.3g}, rel {diff[1]:.3g}"))
    print(f"{len(runs)} runs, {len(results)} files compared, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
