"""What the benchmark relies on in routhkit must keep working.

Every workload of ``perfbench/workloads.py`` runs once at its smoke size
and must pass its checks, so a change to a name or signature a workload
calls fails here rather than in the benchmark run.

``perfbench/tracing.py`` replaces routhkit functions with counting
wrappers, looked up by module and attribute name; a required name that
disappears fails the traced benchmark run.  The private names it wraps
(the RK4 and DP45 step helpers, the ellipsoid flow factories, the
equatorial analysis) are optional there: if one disappears, the metrics it
feeds read 0 and the run still passes, so they are checked here too.  The
tracer module imports only the standard library, so it is loaded here by
path.
"""

import contextlib
import importlib
import importlib.util
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _load(name):
    """Import perfbench/<name>.py by path, leaving no bytecode beside it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module    # dataclasses look their module up here
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _wrapped_names():
    tracing = _load("tracing")
    names = [(m, a) for m, a, _ in tracing.SPANS + tracing.HOT + tracing.RHS_FACTORIES
             + tracing.OPTIONAL_SPANS + tracing.OPTIONAL_STEPS
             + tracing.OPTIONAL_RHS_FACTORIES]
    names += [(m, a) for m, a in tracing.SYSTEM_FACTORIES]
    return sorted(set(names))


@pytest.mark.parametrize("module_name, attr", _wrapped_names(),
                         ids=lambda x: x if isinstance(x, str) else None)
def test_traced_name_exists(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


WORKLOADS = _load("workloads").WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_smoke_run_passes(tmp_path, name):
    workload = WORKLOADS[name]
    ctx = workload.setup(1, str(tmp_path), True)
    outcome = workload.run(ctx, lambda _name: contextlib.nullcontext())
    failed = [(c.name, c.value, c.tolerance) for c in outcome.checks if not c.passed]
    assert outcome.checks and not failed
