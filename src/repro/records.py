"""One schema per record: decode and type-check dataclass records.

Every JSON record the program reads is a dataclass (a config with its
tunables and fault plan, the adaptive policy, the job server's
requests, payloads and views, a result record), and its field
annotations and defaults are its only schema.  :func:`decode` builds a
record from a JSON mapping; :func:`check` tests one already built, such
as a config that a sweep axis made with :func:`dataclasses.replace`.

- Unknown fields and missing required fields are errors; an absent
  field takes its dataclass default.
- A bool is not a number.  An int is accepted, and kept, where a float
  is expected.  Floats must be finite.
- A ``Literal[...]`` field accepts only its listed choices.
- A JSON list becomes a tuple for a tuple field.
- A nested record whose class defines ``from_dict`` decodes itself
  through it (a fault event dispatches on its ``kind``).

Every error is a :class:`ValueError` that starts with the path of the
field at fault, e.g. ``faults.events[2].at_s``.  Each class's field
table is computed once.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import reprlib
import typing
from collections.abc import Mapping, Sequence
from typing import Any, Callable, List, Literal, Tuple, Type, TypeVar, Union

__all__ = ["decode", "decode_as", "check"]

#: ``rule(value, path)`` returns ``value`` as its field holds it (a list
#: made a tuple, a mapping made a record) or raises a ValueError that
#: names ``path``.
Rule = Callable[[Any, str], Any]

R = TypeVar("R")


def decode(cls: Type[R], data: Mapping[str, Any]) -> R:
    """A ``cls`` record built from the JSON mapping ``data``."""
    if not isinstance(data, Mapping):
        raise _expected(cls.__name__, "an object", data)
    return _decode(cls, data, "")


def decode_as(tp: Any, value: Any, path: str) -> Any:
    """A JSON value that is not a record, decoded as the annotation
    ``tp`` says (errors name ``path``)."""
    return _rule(tp)(value, path)


def check(obj: Any) -> None:
    """Raise a ValueError naming the first field of the record ``obj``
    whose value its annotation does not admit (nested records too)."""
    _check(obj, "")


@functools.cache
def _table(cls: type) -> List[Tuple[str, Rule, bool, bool]]:
    """``(name, rule, init, required)`` for each field of ``cls``."""
    hints = typing.get_type_hints(cls)
    return [
        (
            f.name,
            _rule(hints[f.name]),
            f.init,
            f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING,
        )
        for f in dataclasses.fields(cls)
    ]


def _decode(cls: type, data: Mapping[str, Any], prefix: str) -> Any:
    kwargs = {}
    for name, rule, init, required in _table(cls):
        if not init:
            continue
        if name in data:
            kwargs[name] = rule(data[name], prefix + name)
        elif required:
            raise ValueError(f"{prefix}{name}: missing required field")
    if len(kwargs) != len(data):
        unknown = sorted(str(k) for k in data if k not in kwargs)
        known = [name for name, _, init, _ in _table(cls) if init]
        raise ValueError(
            f"{prefix}{unknown[0]}: unknown field; {cls.__name__} takes "
            f"{known}"
        )
    return cls(**kwargs)


def _check(obj: Any, prefix: str) -> None:
    for name, rule, _, _ in _table(type(obj)):
        rule(getattr(obj, name), prefix + name)


def _expected(path: str, what: str, value: Any) -> ValueError:
    return ValueError(f"{path}: expected {what}, got {reprlib.repr(value)}")


def _locate(checks: Any, path: str, step: str) -> None:
    """Re-run ``(key, rule, value)`` checks with each element's own path
    (``step`` formats the key), so the first failing one raises.  The
    container rules call this only after a failure, which keeps path
    strings off the path of a valid record."""
    for key, rule, value in checks:
        rule(value, path + step.format(key))


def _scalar(types: Tuple[type, ...], what: str) -> Rule:
    # Exact types: ``bool`` is a subclass of ``int`` in Python.
    def rule(value: Any, path: str) -> Any:
        if type(value) not in types:
            raise _expected(path, what, value)
        if type(value) is float and not math.isfinite(value):
            raise ValueError(f"{path} must be finite, got {value}")
        return value

    return rule


_SCALARS = {
    Any: lambda value, path: value,
    bool: _scalar((bool,), "a bool"),
    int: _scalar((int,), "an int"),
    float: _scalar((int, float), "a number"),
    str: _scalar((str,), "a string"),
}


@functools.cache
def _rule(tp: Any) -> Rule:
    if tp in _SCALARS:
        return _SCALARS[tp]
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is Literal:
        def choice(value: Any, path: str) -> Any:
            if isinstance(value, str) and value in args:
                return value
            raise _expected(path, f"one of {list(args)}", value)

        return choice
    if origin is Union and len(args) == 2 and type(None) in args:
        inner = _rule(args[0] if args[1] is type(None) else args[1])
        return lambda value, path: None if value is None else inner(value, path)
    if origin in (tuple, list, Sequence):
        fixed = origin is tuple and args[-1] is not ...
        slots = [_rule(a) for a in (args if fixed else args[:1])]
        build = tuple if origin is tuple else list

        def items(value: Any, path: str) -> Any:
            if not isinstance(value, (list, tuple)):
                raise _expected(path, "a list", value)
            if fixed and len(value) != len(slots):
                raise _expected(path, f"a list of {len(slots)}", value)
            rules = slots if fixed else itertools.repeat(slots[0])
            try:
                return build([r(v, path) for r, v in zip(rules, value)])
            except ValueError:
                rules = slots if fixed else itertools.repeat(slots[0])
                _locate(zip(itertools.count(), rules, value), path, "[{}]")
                raise

        return items
    if origin in (dict, Mapping) and args[0] is str:
        key, item = _rule(str), _rule(args[1])

        def mapping(value: Any, path: str) -> dict:
            if not isinstance(value, Mapping):
                raise _expected(path, "an object", value)
            try:
                return {key(k, path): item(v, path) for k, v in value.items()}
            except ValueError:
                _locate(((k, item, v) for k, v in value.items()), path, ".{}")
                raise

        return mapping
    if dataclasses.is_dataclass(tp):
        return _record(tp)
    if isinstance(tp, type):
        def instance(value: Any, path: str) -> Any:
            if isinstance(value, tp):
                return value
            raise _expected(path, f"a {tp.__name__}", value)

        return instance
    raise TypeError(f"records: unsupported annotation {tp!r}")


def _record(cls: type) -> Rule:
    build = getattr(cls, "from_dict", None)

    def record(value: Any, path: str) -> Any:
        if isinstance(value, cls):
            _check(value, path + ".")
            return value
        if not isinstance(value, Mapping):
            raise _expected(path, f"an object ({cls.__name__})", value)
        if build is None:
            return _decode(cls, value, path + ".")
        try:
            return build(value)
        except ValueError as exc:
            raise ValueError(f"{path}.{exc}") from exc

    return record
