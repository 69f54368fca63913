"""The traced benchmark patches pikrig's public functions by name.

``perfbench/tracer.py`` wraps a fixed list of functions in every pikrig
module that holds them; a renamed or removed function breaks the traced
benchmark, so the contract is checked here.
"""

import importlib.util
import os

from pikrig import predictors, uq

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_patches_and_uninstall_restores():
    tracer = _load_tracer()
    before = {
        (mod.__name__, name): val
        for mod in tracer.MODULES
        for name, val in vars(mod).items()
    }
    originals = {name: getattr(uq, name) for name in ("var_ck", "var_lk")}
    originals["mse_objective"] = predictors.mse_objective
    t = tracer.Tracer()
    t.install()
    try:
        for mod, names in tracer.SPANNED.items():
            for name in names:
                assert getattr(mod, name) is not before[(mod.__name__, name)], name
        assert uq.var_ck is not originals["var_ck"]
        assert uq.var_lk is not originals["var_lk"]
        assert predictors.mse_objective is not originals["mse_objective"]
    finally:
        t.uninstall()
    for mod in tracer.MODULES:
        for name, val in vars(mod).items():
            assert val is before[(mod.__name__, name)], f"{mod.__name__}.{name}"
