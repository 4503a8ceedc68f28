"""The one JSON codec, used wherever the control plane needs bytes.

The codec encodes only: :func:`encode` turns a value into JSON-safe
primitives, and nothing turns them back.  The journal and snapshots keep
values (frozen records and fresh copies of mutable ones), not encodings,
so recovery never reads the wire format; the codec writes the state
digest's canonical JSON and the analysis export.  The wire format is
fixed — replay digests hash it — and has three rules:

* dataclasses encode as dicts keyed by field name, nested dataclasses
  inline, except the small value types of :func:`positional_types`, which
  encode as lists of their fields in declaration order;
* enums encode by value;
* tuples and lists encode as lists; dicts keep their keys and encode
  their values; ``str``/``int``/``float``/``bool``/``None`` pass through.

Two canonical orders complete the format: sets encode as lists sorted by
the ``repr`` of each encoded item, and a snapshot stores a tuple-keyed
map as the ``(key, value)`` pairs of :func:`canonical_pairs`, sorted the
same way by the encoded pair.

Encoding follows the runtime type of each value.  It compiles one plan
per dataclass from :func:`typing.get_type_hints` on first use and reuses
it afterwards, so the per-record cost stays that of hand-written field
copying.
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


def canonical_pairs(mapping: Mapping) -> list:
    """A tuple-keyed map's ``(key, value)`` pairs, sorted by encoded ``repr``.

    JSON objects only take string keys, so snapshots store such maps as
    pair lists; this order makes their digest canonical.
    """
    return sorted(mapping.items(), key=lambda pair: repr(encode(pair)))


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
        return _dataclass_plan(cls)
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


def _dataclass_plan(cls: type) -> Callable[[Any], Any]:
    """One encoder for ``cls``, built from its field hints.

    The plan is compiled, as ``dataclasses`` compiles ``__init__``, into
    one expression, so a call costs what the hand-written
    ``{"seq": obj.seq, ...}`` costs; only fields whose hint needs it go
    through a converter.  (Reading ``obj.__dict__`` instead would be as
    short, but on CPython 3.11 it makes every later attribute read of
    that instance slower.)
    """
    hints = typing.get_type_hints(cls)
    positional = cls in positional_types()
    namespace = {}
    items = []
    for field in dataclasses.fields(cls):
        name = field.name
        value = f"value.{name}"
        converter = _field_encoder(hints[name])
        if converter is not None:
            namespace[f"convert_{name}"] = converter
            value = f"convert_{name}({value})"
        items.append(value if positional else f"{name!r}: {value}")
    fields = ", ".join(items)
    body = f"[{fields}]" if positional else f"{{{fields}}}"
    exec(f"def plan(value):\n    return {body}\n", namespace)
    return namespace["plan"]


__all__ = ["canonical_pairs", "encode", "positional_types"]
