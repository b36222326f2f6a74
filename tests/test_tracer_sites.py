"""The benchmark's tracer (perfbench/tracing.py) wraps workbench functions at
the module attributes where their callers look them up, and reads units of
work from their results.  Renaming or dropping one of those attributes, or
changing what a traced quantum entry point returns, breaks a traced
benchmark run; these tests catch both."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from qlll.instance import QlllInstance
from qlll.quantum import ExactSolverConfig

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


def test_traced_quantum_entry_points_give_units():
    q1 = np.diag([0.0, 1.0]).astype(complex)
    inst = QlllInstance.build(2, 2, [([0], q1), ([1], q1)])
    cfg = ExactSolverConfig(p=2, m_prime=1.0)
    # (positional, keyword) arguments of one call per traced quantum layer
    calls = {
        "quantum.run_trajectory_batch": ((inst, 1, 4, 5), {}),
        "quantum.run_quantum_solver": ((inst, 1), {"max_steps": 5}),
        "quantum.run_exact_solver": ((inst, cfg, 1), {}),
        "quantum.run_converger": ((inst, 1, 3, 4), {}),
    }
    layers = load_tracing().LAYERS
    assert {name for name in layers if name.startswith("quantum.")} == set(calls)
    for name, (args, kwargs) in calls.items():
        sites, units = layers[name]
        for module, attr in sites:
            fn = getattr(importlib.import_module(module), attr)
            result = fn(*args, **kwargs)
            if units is not None:
                n = units(result, inspect.signature(fn).bind(*args, **kwargs).arguments)
                assert isinstance(n, (int, np.integer)) and n > 0, (name, n)
