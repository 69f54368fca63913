"""Spans and counts around pikrig's layers, recorded from outside ``src/``.

``Tracer.install()`` replaces the public functions of each pikrig module
with wrappers, in the module that defines a function and in every pikrig
module that imported it by name (``make_spd_solver`` in ``calibration``
and ``uq``; scipy's ``cho_factor`` in ``predictors`` and ``uq``).  Each
wrapper records a span: name, start, end, parent.  Counts come from
deltas of ``design.cov_eval_count()`` and from returned objects
(calibration traces, UQ covariances).  ``kernel.deriv`` runs once per
covariance entry, so it is counted, not spanned; ``design.cov``, one
entry, is left alone.  ``uninstall()`` puts every original back.
"""

import collections
import csv
import functools
import math
import time

import pikrig
from pikrig import calibration, cli, design, flowlab, kernel, predictors, uq

MODULES = (pikrig, kernel, design, predictors, calibration, uq, flowlab, cli)

# Functions that get a plain span; the special cases are wrapped below.
SPANNED = {
    design: ("encode_pointwise", "encode_average", "extend_atoms"),
    predictors: (
        "simple_kriging", "ordinary_kriging", "co_kriging", "co_kriging_schur",
        "lagrangian_kriging", "assemble_co_kriging", "solve_co_kriging",
        "assemble_lagrangian", "solve_lagrangian", "mse_objective",
    ),
    calibration: (
        "loocv_mse_virtual", "sigma2_virtual", "loocv_ck_virtual",
        "interpolation_error_criterion", "sigma2_interpolation", "default_theta_bounds",
    ),
    uq: ("quadform_moments",),
    flowlab: (
        "cylinder_problem", "uniform_grid", "predict_flow_ck", "predict_flow_lk_twostep",
        "ingest_velocity_csv", "emit_velocity_csv", "cylinder_flow_oracle",
    ),
    cli: ("main", "write_csv", "write_report"),
}

LAGRANGIAN = ("predictors.lagrangian_kriging", "predictors.assemble_lagrangian",
              "predictors.solve_lagrangian")
CO_KRIGING = ("predictors.co_kriging", "predictors.co_kriging_schur",
              "predictors.assemble_co_kriging", "predictors.solve_co_kriging")
WRITERS = ("cli.write_csv", "cli.write_report", "flowlab.emit_velocity_csv")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, self_s, round]
        self.counts = collections.Counter()
        self.round = 0
        self._stack = []  # (span index, child seconds so far)
        self._patched = []

    # -- recording ---------------------------------------------------------

    def begin_round(self, rnd):
        """Start round ``rnd``: later spans carry it, and the counts restart."""
        self.round = rnd
        self.counts.clear()

    def call(self, name, fn, args, kwargs):
        parent = self._stack[-1][0] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, None, self.round])
        self._stack.append([idx, 0.0])
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            _, child_s = self._stack.pop()
            span = self.spans[idx]
            span[2] = end
            span[4] = (end - span[1]) - child_s
            if self._stack:
                self._stack[-1][1] += end - span[1]

    def spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return wrapper

    # -- special wrappers --------------------------------------------------

    def _deriv(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["kernel.deriv_calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _gram(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = design.cov_eval_count()
            try:
                return self.call("design.gram", fn, args, kwargs)
            finally:
                self.counts["design.entries"] += design.cov_eval_count() - before

        return wrapper

    def _cho_factor(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            self.counts["predictors.cholesky_attempts"] += 1
            dim = int(getattr(a, "shape", (0,))[0])
            self.counts["predictors.max_factor_dim"] = max(self.counts["predictors.max_factor_dim"], dim)
            try:
                return self.call("predictors.cho_factor", fn, (a,) + args, kwargs)
            except Exception:
                self.counts["predictors.cholesky_failures"] += 1
                raise

        return wrapper

    def _make_spd_solver(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            solve, eta = self.call("predictors.make_spd_solver", fn, args, kwargs)
            self.counts["predictors.factorizations"] += 1
            return self.spanned("predictors.solve", solve), eta

        return wrapper

    def _optimize_theta(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            res = self.call("calibration.optimize_theta", fn, args, kwargs)
            self.counts["calibration.criterion_evals"] += len(res.trace)
            self.counts["calibration.nonfinite_evals"] += sum(
                1 for _, v in res.trace if not math.isfinite(v)
            )
            return res

        return wrapper

    def _loocv_lk_explicit(self, fn):
        @functools.wraps(fn)
        def wrapper(k_unit, obs, *args, **kwargs):
            crits = self.call("calibration.loocv_lk_explicit", fn, (k_unit, obs) + args, kwargs)

            def folds(crit):
                @functools.wraps(crit)
                def counted(theta):
                    self.counts["calibration.lk_folds"] += obs.n
                    return crit(theta)

                return counted

            return tuple(folds(c) for c in crits)

        return wrapper

    def _var(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            res = self.call(name, fn, args, kwargs)
            q = res.covariance.shape[0]
            self.counts["uq.kstar_entries"] += q * (q + 1) // 2
            return res

        return wrapper

    def _build_flow_system(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts["flowlab.build_calls"] += 1
            return self.call("flowlab.build_flow_system", fn, args, kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def _replace(self, original, wrapper):
        for mod in MODULES:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self):
        targets = [
            (kernel.deriv, self._deriv(kernel.deriv)),
            (design.gram, self._gram(design.gram)),
            (predictors.cho_factor, self._cho_factor(predictors.cho_factor)),
            (predictors.make_spd_solver, self._make_spd_solver(predictors.make_spd_solver)),
            (calibration.optimize_theta, self._optimize_theta(calibration.optimize_theta)),
            (calibration.loocv_lk_explicit, self._loocv_lk_explicit(calibration.loocv_lk_explicit)),
            (uq.var_ck, self._var("uq.var_ck", uq.var_ck)),
            (uq.var_lk, self._var("uq.var_lk", uq.var_lk)),
            (flowlab.build_flow_system, self._build_flow_system(flowlab.build_flow_system)),
        ]
        for mod, names in SPANNED.items():
            prefix = mod.__name__.rsplit(".", 1)[-1]
            for name in names:
                fn = getattr(mod, name)
                targets.append((fn, self.spanned(f"{prefix}.{name}", fn)))
        for original, wrapper in targets:
            self._replace(original, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def round_metrics(self):
        """Per-layer metrics of the current round, from its spans and counts."""
        rnd, counts = self.round, self.counts
        total = collections.defaultdict(float)
        self_s = collections.defaultdict(float)
        calls = collections.Counter()
        for name, start, end, _, own, r in self.spans:
            if r == rnd:
                total[name] += end - start
                self_s[name] += own
                calls[name] += 1
        entries = counts["design.entries"]
        evals = counts["calibration.criterion_evals"]
        return {
            "kernel.deriv_calls": counts["kernel.deriv_calls"],
            "design.gram_calls": calls["design.gram"],
            "design.entries": entries,
            "design.gram_s": total["design.gram"],
            "design.ns_per_entry": 1e9 * total["design.gram"] / entries if entries else 0.0,
            "predictors.factorizations": counts["predictors.factorizations"],
            "predictors.cholesky_attempts": counts["predictors.cholesky_attempts"],
            "predictors.cholesky_failures": counts["predictors.cholesky_failures"],
            "predictors.max_factor_dim": counts["predictors.max_factor_dim"],
            "predictors.factor_s": total["predictors.cho_factor"],
            "predictors.solve_calls": calls["predictors.solve"],
            "predictors.solve_s": total["predictors.solve"],
            "predictors.lagrangian_self_s": sum(self_s[n] for n in LAGRANGIAN),
            "predictors.co_kriging_self_s": sum(self_s[n] for n in CO_KRIGING),
            "calibration.searches": calls["calibration.optimize_theta"],
            "calibration.criterion_evals": evals,
            "calibration.nonfinite_evals": counts["calibration.nonfinite_evals"],
            "calibration.search_s": total["calibration.optimize_theta"],
            "calibration.ms_per_eval": 1e3 * total["calibration.optimize_theta"] / evals if evals else 0.0,
            "calibration.lk_folds": counts["calibration.lk_folds"],
            "uq.var_calls": calls["uq.var_ck"] + calls["uq.var_lk"],
            "uq.var_s": total["uq.var_ck"] + total["uq.var_lk"],
            "uq.kstar_entries": counts["uq.kstar_entries"],
            "uq.quadform_calls": calls["uq.quadform_moments"],
            "uq.quadform_s": total["uq.quadform_moments"],
            "flowlab.build_calls": counts["flowlab.build_calls"],
            "flowlab.predict_s": total["flowlab.predict_flow_ck"] + total["flowlab.predict_flow_lk_twostep"],
            "cli.runs": calls["cli.main"],
            "cli.write_s": sum(total[n] for n in WRITERS),
            "cli.bytes_written": counts["cli.bytes_written"],
        }

    def write_spans(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "round", "name", "start_s", "end_s", "parent", "self_s"])
            for i, (name, start, end, parent, own, rnd) in enumerate(self.spans):
                out.writerow([i, rnd, name, repr(start), repr(end), parent, repr(own)])
