"""What the benchmark harness uses of the package exists in the form it uses.

benchmark/run.py and benchmark/probe.py are read as source, not imported:
importing run.py sets BLAS thread variables for the whole process.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

from gp2d.minimizer import MinimizerResult, minimize

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"
RUN_PY = BENCHMARK / "run.py"
PROBE_PY = BENCHMARK / "probe.py"
PROBE_LISTS = ("E2E_PROBES", "TRACE_PROBES")


def assigned(path, names):
    """The values assigned at module level in path to any of names."""
    return [node.value for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id in names for t in node.targets)]


def probed_names():
    return [c.value for value in assigned(RUN_PY, PROBE_LISTS) for c in ast.walk(value)
            if isinstance(c, ast.Constant) and isinstance(c.value, str)]


def test_every_probed_name_is_a_callable_of_the_package():
    names = probed_names()
    assert "minimizer.minimize" in names and "diagnostics.analyze_sweep" in names
    for name in names:
        module, function = name.split(".")
        assert callable(getattr(importlib.import_module(f"gp2d.{module}"), function, None)), name


def test_minimizer_result_has_every_field_the_probe_keeps():
    (keep,) = assigned(PROBE_PY, ("_KEEP",))
    (reader,) = [v for k, v in zip(keep.keys, keep.values) if k.value == "minimizer.minimize"]
    read = {node.attr for node in ast.walk(reader) if isinstance(node, ast.Attribute)}
    assert {"iters", "energy_trace", "converged", "resolution_warning"} <= read
    assert read <= {f.name for f in dataclasses.fields(MinimizerResult)}


def test_minimize_takes_the_positional_call_of_iteration_ms():
    (timer,) = [node for node in ast.parse(RUN_PY.read_text()).body
                if isinstance(node, ast.FunctionDef) and node.name == "iteration_ms"]
    (call,) = [node for node in ast.walk(timer)
               if isinstance(node, ast.Call) and ast.unparse(node.func) == "minimizer.minimize"]
    assert len(call.args) == 4 and not call.keywords
    params = list(inspect.signature(minimize).parameters.values())[:4]
    assert [p.name for p in params] == ["V", "a", "grid", "opts"]
    assert all(p.kind == p.POSITIONAL_OR_KEYWORD for p in params)
