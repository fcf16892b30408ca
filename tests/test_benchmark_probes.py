"""Every library function the benchmark wraps in a probe exists.

benchmark/run.py is read as source, not imported: importing it sets BLAS
thread variables for the whole process.
"""

import ast
import importlib
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "benchmark" / "run.py"
PROBE_LISTS = ("E2E_PROBES", "TRACE_PROBES")


def probed_names():
    names = []
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in PROBE_LISTS for t in node.targets
        ):
            names += [c.value for c in ast.walk(node.value)
                      if isinstance(c, ast.Constant) and isinstance(c.value, str)]
    return names


def test_every_probed_name_is_a_callable_of_the_package():
    names = probed_names()
    assert "minimizer.minimize" in names and "diagnostics.analyze_sweep" in names
    for name in names:
        module, function = name.split(".")
        assert callable(getattr(importlib.import_module(f"gp2d.{module}"), function, None)), name
