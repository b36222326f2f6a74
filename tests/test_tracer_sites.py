"""The benchmark's tracer (perfbench/tracing.py) wraps workbench functions at
the module attributes where their callers look them up.  Renaming or dropping
one of those attributes breaks a traced benchmark run, so every call site it
names must keep resolving to a callable."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    # the tracer imports only the standard library, so it loads by path
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_site_resolves():
    layers = load_tracing().LAYERS
    assert layers
    missing = []
    for name, (sites, _) in layers.items():
        for module, attr in sites:
            if not callable(getattr(importlib.import_module(module), attr, None)):
                missing.append(f"{module}.{attr} ({name})")
    assert not missing, "traced call sites that do not resolve: " + ", ".join(missing)
