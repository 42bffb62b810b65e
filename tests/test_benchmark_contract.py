"""Names the traced benchmark wraps must exist in routhkit.

``perfbench/tracing.py`` replaces routhkit functions with counting
wrappers, looked up by module and attribute name; a required name that
disappears fails the traced benchmark run.  The tracer module imports only
the standard library, so it is loaded here by path.
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


def _required_names():
    tracing = _load_tracing()
    names = [(m, a) for m, a, _ in tracing.SPANS + tracing.HOT + tracing.RHS_FACTORIES]
    names += [(m, a) for m, a in tracing.SYSTEM_FACTORIES]
    return sorted(set(names))


@pytest.mark.parametrize("module_name, attr", _required_names(),
                         ids=lambda x: x if isinstance(x, str) else None)
def test_traced_name_exists(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))
