"""The one JSON codec, used wherever the control plane needs bytes.

:func:`encode` turns a value into JSON-safe primitives; :func:`decode`
rebuilds a value of a given type from them.  The journal and snapshots
keep frozen records as objects; the codec writes the state digest's
canonical JSON, the analysis export, and the small journal payloads of
evaluation passes and C4P calls.  The wire format is fixed — replay
digests hash it — and has three rules:

* dataclasses encode as dicts keyed by field name, nested dataclasses
  inline, except the small value types of :func:`positional_types`, which
  encode as lists of their fields in declaration order;
* enums encode by value;
* tuples and lists encode as lists; dicts keep their keys and encode
  their values; ``str``/``int``/``float``/``bool``/``None`` pass through.

Two canonical orders complete the format: sets encode as lists sorted by
the ``repr`` of each encoded item, and :func:`encode_pairs` stores a
tuple-keyed map as ``[key, value]`` pairs sorted the same way.

Encoding follows the runtime type of each value.  Decoding follows a type
hint (``OpRecord``, ``tuple[Suspect, ...]``, ``Optional[float]``, ...);
values typed ``dict`` or as primitives come back as the payload has them.
Both directions compile one plan per dataclass from
:func:`typing.get_type_hints` on first use and reuse it afterwards, so
the per-record cost stays that of hand-written field copying.
"""

from __future__ import annotations

import dataclasses
import enum
import types
import typing
from functools import cache
from operator import attrgetter
from typing import Any, Callable, Mapping, Optional

_Converter = Optional[Callable[[Any], Any]]
_PRIMITIVES = (str, int, float, bool, type(None))


def encode(value):
    """JSON-safe form of ``value`` (see the module docstring for the rules)."""
    convert = _encoder(type(value))
    return value if convert is None else convert(value)


def decode(hint, payload):
    """Rebuild a value of type ``hint`` from its :func:`encode` form."""
    convert = _decoder(hint)
    return payload if convert is None else convert(payload)


def encode_pairs(mapping: Mapping) -> list:
    """A tuple-keyed map as ``[key, value]`` pairs sorted by ``repr``.

    JSON objects only take string keys, so snapshots store such maps as
    pair lists in this canonical order.
    """
    return sorted(([encode(key), encode(value)] for key, value in mapping.items()), key=repr)


def decode_pairs(key_hint, value_hint, pairs: list) -> dict:
    """Inverse of :func:`encode_pairs`."""
    return dict(decode(list[tuple[key_hint, value_hint]], pairs))


# ----------------------------------------------------------------------
# Encoding: by runtime type
# ----------------------------------------------------------------------
def _encode_items(items) -> list:
    return [encode(item) for item in items]


def _encode_dict(mapping: dict) -> dict:
    return {key: encode(item) for key, item in mapping.items()}


def _encode_set(items) -> list:
    return sorted((encode(item) for item in items), key=repr)


@cache
def _encoder(cls: type) -> _Converter:
    """Converter for values of runtime type ``cls`` (None: pass through)."""
    if issubclass(cls, enum.Enum):
        return attrgetter("value")
    if dataclasses.is_dataclass(cls):
        return _dataclass_plan(cls, encoding=True)
    if issubclass(cls, (tuple, list)):
        return _encode_items
    if issubclass(cls, dict):
        return _encode_dict
    if issubclass(cls, (set, frozenset)):
        return _encode_set
    return None


def _field_encoder(hint) -> _Converter:
    """Converter for a field declared as ``hint`` (None: pass through)."""
    if _is_primitive(hint):
        return None
    origin = typing.get_origin(hint)
    if origin in (tuple, list) and all(
        _is_primitive(arg) for arg in typing.get_args(hint) if arg is not Ellipsis
    ):
        return list
    if origin is None and isinstance(hint, type):
        return _encoder(hint) or encode
    return encode


def _is_primitive(hint) -> bool:
    """True for a primitive hint, or a union (``Optional``) of primitives."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return all(_is_primitive(member) for member in typing.get_args(hint))
    return hint in _PRIMITIVES


# ----------------------------------------------------------------------
# Decoding: by type hint
# ----------------------------------------------------------------------
@cache
def _decoder(hint) -> _Converter:
    """Converter rebuilding a ``hint``-typed value (None: pass through)."""
    if _is_primitive(hint):
        return None
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin is tuple and args[-1] is not Ellipsis:
        converters = [_decoder(arg) for arg in args]
        return lambda payload: tuple(
            item if c is None else c(item) for c, item in zip(converters, payload)
        )
    if origin in (tuple, list, set):
        convert = _decoder(args[0])
        if convert is None:
            return origin
        return lambda payload: origin(map(convert, payload))
    if hint in (tuple, list, set, dict):
        return hint
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return hint
    if dataclasses.is_dataclass(hint):
        return _dataclass_plan(hint, encoding=False)
    raise TypeError(f"no codec for type hint {hint!r}")


# ----------------------------------------------------------------------
# Per-dataclass plans
# ----------------------------------------------------------------------
@cache
def positional_types() -> frozenset:
    """The value types that encode as positional lists rather than dicts.

    A format decision, fixed by every journal and snapshot written so
    far.  Imported on first use because their modules import this one.
    """
    from repro.cluster.topology import PathChoice
    from repro.collective.communicator import RankLocation
    from repro.core.c4d.events import Suspect
    from repro.netsim.routing import FiveTuple

    return frozenset({RankLocation, Suspect, FiveTuple, PathChoice})


def _dataclass_plan(cls: type, encoding: bool) -> Callable[[Any], Any]:
    """One encoder or decoder for ``cls``, built from its field hints.

    The plan is compiled, as ``dataclasses`` compiles ``__init__``, into
    one expression, so a call costs what the hand-written
    ``{"seq": obj.seq, ...}`` or ``cls(**payload)`` costs; only fields
    whose hint needs it go through a converter.  (Reading ``obj.__dict__`` instead
    would be as short, but on CPython 3.11 it makes every later attribute
    read of that instance slower.)
    """
    hints = typing.get_type_hints(cls)
    positional = cls in positional_types()
    make = _field_encoder if encoding else _decoder
    namespace = {"cls": cls}
    items = []
    for index, field in enumerate(dataclasses.fields(cls)):
        name = field.name
        converter = make(hints[name])
        if encoding:
            value = f"value.{name}"
        elif positional:
            value = f"value[{index}]"
        elif converter is None:
            continue  # passed on unchanged by ``**value``
        else:
            value = f"value[{name!r}]"
        if converter is not None:
            namespace[f"convert_{name}"] = converter
            value = f"convert_{name}({value})"
        items.append(value if positional else f"{name!r}: {value}")
    fields = ", ".join(items)
    if encoding:
        body = f"[{fields}]" if positional else f"{{{fields}}}"
    elif positional:
        body = f"cls({fields})"
    else:
        body = f"cls(**{{**value, {fields}}})"
    exec(f"def plan(value):\n    return {body}\n", namespace)
    return namespace["plan"]


__all__ = ["decode", "decode_pairs", "encode", "encode_pairs", "positional_types"]
