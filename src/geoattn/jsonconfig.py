"""Typed reading of JSON objects into dataclasses.

A JSON object becomes a dataclass through the field annotations of that
dataclass: its keys must be fields, and each value must match its field's
type. An integer field takes a JSON integer only, so ``2.0`` and ``true``
are refused; a float field takes any finite JSON number, so ``NaN`` and
``Infinity`` are refused. Every problem raises :class:`ValidationFailure`
naming the key, which the command line maps to exit code 2.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import types
import typing


class ValidationFailure(Exception):
    """Raised for config/schema/input problems; maps to exit code 2."""


def check_keys(obj: dict, allowed, context: str) -> None:
    """Reject keys of ``obj`` outside ``allowed`` with a field diagnostic."""
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ValidationFailure(
            f"unknown key(s) in {context}: {', '.join(sorted(unknown))}"
        )


_JSON_TYPES = {int: "an integer", float: "a number", str: "a string", dict: "an object"}


def typed(value, hint, key: str):
    """``value`` checked against the field annotation ``hint``.

    ``int`` takes a JSON integer only; ``float`` any finite JSON number,
    returned as a float; ``tuple[...]`` a list, item by item and of the
    annotated length when it is fixed; ``dict[str, T]`` an object, value by
    value; a dataclass an object, as :func:`typed_dataclass` reads it;
    ``X | None`` also ``null``. Raises ValidationFailure naming ``key``.
    """
    args = typing.get_args(hint)
    origin = typing.get_origin(hint)
    if origin in (types.UnionType, typing.Union):
        if value is None:
            return None
        (hint,) = [a for a in args if a is not type(None)]
        return typed(value, hint, key)
    if dataclasses.is_dataclass(hint):
        return typed_dataclass(value, hint, key)
    if origin is dict:
        return {k: typed(v, args[1], f"{key}.{k}") for k, v in typed(value, dict, key).items()}
    if origin is tuple:
        fixed = args[-1] is not Ellipsis
        if isinstance(value, list) and (not fixed or len(value) == len(args)):
            items = args if fixed else args[:1] * len(value)
            return tuple(typed(v, h, f"{key}[{i}]") for i, (v, h) in enumerate(zip(value, items)))
        wanted = f"a list of {len(args)} items" if fixed else "a list"
    else:
        # bool is an int subclass in Python but not a JSON number
        if hint is float and type(value) in (int, float):
            # false for NaN, and for integers too large for a float as well as infinities
            if not -sys.float_info.max <= value <= sys.float_info.max:
                raise ValidationFailure(f"{key} must be finite, got {json.dumps(value)}")
            return float(value)
        if type(value) is hint:
            return value
        wanted = _JSON_TYPES[hint]
    raise ValidationFailure(f"{key} must be {wanted}, got {json.dumps(value)}")


def typed_dataclass(obj, cls, context: str, **fixed):
    """``cls`` from a JSON object whose keys are its init fields.

    A field without a default is required. A field whose type is a
    dataclass is a section, read the same way; an absent section takes its
    defaults. The ``fixed`` fields are set by the caller and are not JSON
    keys; a dotted name, such as ``"gat.seed"``, fixes a field of a section.
    The ValueError of the class's own checks becomes a ValidationFailure.
    """
    if not isinstance(obj, dict):
        raise ValidationFailure(f"{context} must be a JSON object, got {json.dumps(obj)}")
    fields = [f for f in dataclasses.fields(cls) if f.init and f.name not in fixed]
    check_keys(obj, [f.name for f in fields], context)
    hints = typing.get_type_hints(cls)
    kwargs = {k: v for k, v in fixed.items() if "." not in k}
    for f in fields:
        inner = {k.split(".", 1)[1]: v for k, v in fixed.items() if k.startswith(f"{f.name}.")}
        if inner:
            kwargs[f.name] = typed_dataclass(
                obj.get(f.name, {}), hints[f.name], f"{context}.{f.name}", **inner,
            )
        elif f.name in obj:
            kwargs[f.name] = typed(obj[f.name], hints[f.name], f"{context}.{f.name}")
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ValidationFailure(f"{context}: field {f.name!r} is required")
    try:
        return cls(**kwargs)
    except ValueError as err:
        raise ValidationFailure(f"{context}: {err}") from err
