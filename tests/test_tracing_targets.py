"""The benchmark's layer tracer wraps engine functions by name; a rename in
the engine must fail here, not silently break `perfbench/run.py --trace 1`."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("modname,path",
                         [(t[0], t[1]) for t in load_targets()])
def test_tracing_target_resolves(modname, path):
    owner = importlib.import_module(f"equirr.{modname}")
    if "." in path:
        cls_name, attr = path.split(".")
        assert attr in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, path))
