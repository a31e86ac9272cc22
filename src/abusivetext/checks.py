"""One type check for the fields of the dataclasses built from outside
input: run configs, their nested configs and the sections of a bundle.

A field's annotation names the type its value must have: an ``int`` field
takes an int and never a bool or a float (``4.0`` included); a ``float``
field takes a finite int or float, never a bool or a string; ``bool`` and
``str`` fields take only their own type; ``list[T]`` takes a list whose
items each pass ``T``; ``| None`` also admits None. Fields annotated with
any other type are not checked here. Annotations must be postponed (the
module has ``from __future__ import annotations``), and a scalar must be
spelled in one of those forms: anything else raises TypeError, so that no
field goes unchecked by mistake.
"""
from __future__ import annotations

import sys
from dataclasses import fields
from functools import lru_cache
from typing import Any

# annotation -> (accepted types, what the message says the value must be)
_KINDS = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "bool": ((bool,), "true or false"),
    "str": ((str,), "a string"),
}


@lru_cache(maxsize=None)
def checked_kind(annotation: Any) -> tuple[str, bool, bool] | None:
    """``(scalar, nullable, is_list)`` for an annotation checked here, or
    None for one left alone. Raises TypeError for an annotation that is not
    a string, or that names a scalar in a form this module would miss."""
    if not isinstance(annotation, str):
        raise TypeError(f"annotation {annotation!r} is not postponed")
    parts = [part.strip() for part in annotation.split("|")]
    nullable = "None" in parts
    rest = [part for part in parts if part != "None"]
    items = [part.removeprefix("list[").removesuffix("]") for part in rest]
    if len(rest) == 1 and rest[0] in _KINDS:
        return rest[0], nullable, False
    if len(rest) == 1 and rest[0].startswith("list[") and items[0] in _KINDS:
        return items[0], nullable, True
    if annotation.startswith(("Optional[", "Union[")) or any(
        item in _KINDS for item in items
    ):
        raise TypeError(f"annotation {annotation!r} must be T, T | None or list[T]")
    return None


def _check(name: str, value: Any, kind: str) -> None:
    types, what = _KINDS[kind]
    # bool is an int subclass, so a bool passes only a bool field.
    if isinstance(value, bool) != (kind == "bool") or not isinstance(value, types):
        raise ValueError(f"{name} must be {what}, got {type(value).__name__}")
    # Also false for NaN and for an int past the float range.
    if kind == "float" and not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name} must be finite")


def check_fields(obj: Any) -> None:
    """Raise ValueError naming the first field of dataclass ``obj`` whose
    value does not have its annotated type."""
    for f in fields(obj):
        checked = checked_kind(f.type)
        if checked is None:
            continue
        value = getattr(obj, f.name)
        kind, nullable, is_list = checked
        if value is None and nullable:
            continue
        if not is_list:
            _check(f.name, value, kind)
            continue
        if not isinstance(value, list):
            raise ValueError(f"{f.name} must be a list, got {type(value).__name__}")
        exact = _KINDS[kind][0][0]
        # One cheap pass over exact types first; float items must also be finite.
        if kind == "float" or not all(type(item) is exact for item in value):
            for item in value:
                _check(f.name, item, kind)
