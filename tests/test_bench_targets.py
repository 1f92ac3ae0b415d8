"""Every function the benchmark wraps or calls still exists in the library.

``bench/tracing.py`` names its targets by module and attribute path; a
rename in ``src/`` would otherwise surface only when ``bench/run.py --trace
1`` fails.  The tracer reads a method from its class's own ``__dict__``, so
a method that moves to a base class resolves by ``hasattr`` yet fails there;
entering the real tracer catches that too.  Setting up every workload of
``bench/workloads.py`` runs the library calls a benchmark run starts with.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    """The module bench/<name>.py, which may import its siblings."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(BENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


@pytest.mark.parametrize("target", load_bench("tracing").TARGETS, ids=lambda t: f"{t[0]}:{t[1]}")
def test_trace_target_resolves(target):
    modname, path, _layer = target
    obj = importlib.import_module(modname)
    for attr in path.split("."):
        assert hasattr(obj, attr), f"{modname}.{path} is gone"
        obj = getattr(obj, attr)
    assert callable(obj)


def test_tracer_wraps_and_restores_every_binding():
    import lastfall.cli  # noqa: F401  (loads every module the targets name)

    tracer = load_bench("tracing").Tracer()
    with tracer:
        wrapped = list(tracer._undo)
        assert wrapped
        assert all(vars(owner)[attr] is not original for owner, attr, original in wrapped)
    assert all(vars(owner)[attr] is original for owner, attr, original in wrapped)


@pytest.mark.parametrize("name", sorted(load_bench("workloads").WORKLOADS))
def test_workload_setup_runs(name):
    load_bench("workloads").WORKLOADS[name](0).setup()
