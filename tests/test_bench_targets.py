"""Every function and method the bench tracer wraps exists in the package, so
a refactor that deletes or renames one fails here rather than in a traced
benchmark run. bench/tracer.py is only read, never imported."""
import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def tracer_table(name: str) -> tuple:
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no {name}")


@pytest.mark.parametrize("prefix, module, attr", tracer_table("FUNCTIONS"))
def test_wrapped_function_exists(prefix, module, attr):
    assert callable(getattr(importlib.import_module(f"abusivetext.{module}"), attr))


@pytest.mark.parametrize("prefix, module, cls, attr", tracer_table("METHODS"))
def test_wrapped_method_exists(prefix, module, cls, attr):
    owner = getattr(importlib.import_module(f"abusivetext.{module}"), cls)
    assert callable(owner.__dict__[attr])
