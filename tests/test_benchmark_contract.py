"""Names the traced benchmark wraps must exist in routhkit.

``perfbench/tracing.py`` replaces routhkit functions with counting
wrappers, looked up by module and attribute name; a required name that
disappears fails the traced benchmark run.  The private names it wraps
(the RK4 and DP45 step helpers, the ellipsoid flow factories, the
equatorial analysis) are optional there: if one disappears, the metrics it
feeds read 0 and the run still passes, so they are checked here too.  The
tracer module imports only the standard library, so it is loaded here by
path.
"""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrapped_names():
    tracing = _load_tracing()
    names = [(m, a) for m, a, _ in tracing.SPANS + tracing.HOT + tracing.RHS_FACTORIES
             + tracing.OPTIONAL_SPANS + tracing.OPTIONAL_STEPS
             + tracing.OPTIONAL_RHS_FACTORIES]
    names += [(m, a) for m, a in tracing.SYSTEM_FACTORIES]
    return sorted(set(names))


@pytest.mark.parametrize("module_name, attr", _wrapped_names(),
                         ids=lambda x: x if isinstance(x, str) else None)
def test_traced_name_exists(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))
