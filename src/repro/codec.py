"""The one JSON codec, used wherever the control plane needs bytes.

The codec encodes values and writes their canonical text.  :func:`encode`
turns a value into JSON-safe primitives, and nothing turns them back.
The journal and snapshots keep values (frozen records and fresh copies
of mutable ones), not encodings, so recovery never reads the wire
format; the codec writes the state digest's canonical JSON and the
analysis export.  The wire format is fixed — replay digests hash it —
and has three rules:

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

The canonical text of a value is ``json.dumps(value, sort_keys=True,
separators=(",", ":"), default=encode)``.  :func:`feed_canonical` writes
those bytes without ``json.dumps`` or an encoded copy: beside each plan
it compiles a *text writer* from the same hints, which puts the fields
out in sorted-name order (positional types stay positional), strings
through ``json.encoder.encode_basestring_ascii``, ints and finite floats
through ``repr`` and enums as their value's text.  A record whose runtime
values fall outside its hints (NaN or ±inf, a bool in an int field, an
int in a float field, a non-str dict key, ...) is written by the
``json.dumps`` call above for that one value, so the bytes stay exact.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import types
import typing
from functools import cache
from json.encoder import encode_basestring_ascii
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


# ----------------------------------------------------------------------
# Canonical text
# ----------------------------------------------------------------------
#: Items of one long sequence written, and fed to ``update``, per chunk.
_CHUNK_ITEMS = 1024
#: Types ``json.dumps`` writes itself, subclasses included (it calls
#: ``default`` only for the rest).
_JSON_NATIVE = (str, int, float, list, tuple, dict)
_INF = float("inf")


def feed_canonical(value, update: Callable[[bytes], Any]) -> None:
    """Feed the canonical JSON text of ``value`` to ``update`` as ASCII bytes.

    The bytes are those of ``json.dumps(value, sort_keys=True,
    separators=(",", ":"), default=encode)``.  Dicts with str keys and
    long tuples or lists are walked here, so a sequence of records goes
    out in chunks of :data:`_CHUNK_ITEMS` and its whole text is never
    built; ``update`` is typically a hash's ``update``.
    """
    parts: list[str] = []

    def flush() -> None:
        update("".join(parts).encode("ascii"))
        parts.clear()

    _feed(value, parts, flush)
    flush()


def _feed(value, parts: list, flush: Callable[[], None]) -> None:
    """Append ``value``'s text to ``parts``, flushing after each chunk."""
    cls = type(value)
    if cls is dict and all(type(key) is str for key in value):
        parts.append("{")
        for index, key in enumerate(sorted(value)):
            parts.append(f"{',' if index else ''}{encode_basestring_ascii(key)}:")
            _feed(value[key], parts, flush)
        parts.append("}")
    elif (cls is tuple or cls is list) and len(value) > _CHUNK_ITEMS:
        write = _item_writer(value)
        for start in range(0, len(value), _CHUNK_ITEMS):
            parts.append("," if start else "[")
            parts.append(",".join(map(write, value[start : start + _CHUNK_ITEMS])))
            flush()
        parts.append("]")
    else:
        parts.append(_text(value))


def _text(value) -> str:
    """The canonical JSON text of ``value``."""
    return _writer(type(value))(value)


def _fallback(value) -> str:
    """The canonical text as ``json.dumps`` writes it: exact for any value."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=encode)


def _float_text(value: float) -> str:
    return repr(value) if -_INF < value < _INF else _fallback(value)


def _item_writer(items) -> Callable[[Any], str]:
    """One writer for all of ``items`` when they share a type, else :func:`_text`."""
    kinds = set(map(type, items))
    return _writer(kinds.pop()) if len(kinds) == 1 else _text


def _sequence_text(items) -> str:
    return f"[{','.join(map(_item_writer(items), items))}]"


def _dict_text(mapping: dict) -> str:
    if not all(type(key) is str for key in mapping):
        return _fallback(mapping)  # json's key conversion and order
    items = [f"{encode_basestring_ascii(key)}:{_text(mapping[key])}" for key in sorted(mapping)]
    return f"{{{','.join(items)}}}"


@cache
def _enum_texts(cls: type) -> dict:
    """Each member of enum ``cls`` -> the canonical text of its value."""
    return {member: _fallback(member.value) for member in cls}


@cache
def _writer(cls: type) -> Callable[[Any], str]:
    """Canonical text writer for values of exact runtime type ``cls``."""
    if cls is str:
        return encode_basestring_ascii
    if cls is int:
        return int.__repr__
    if cls is float:
        return _float_text
    if cls is bool:
        return {True: "true", False: "false"}.__getitem__
    if cls is type(None):
        return lambda _: "null"
    if cls is tuple or cls is list:
        return _sequence_text
    if cls is dict:
        return _dict_text
    if issubclass(cls, _JSON_NATIVE):
        return _fallback  # a subclass json writes as its base type
    if issubclass(cls, enum.Enum):
        return _enum_texts(cls).__getitem__
    if dataclasses.is_dataclass(cls):
        return _dataclass_writer(cls)
    return _fallback


#: The container converters of :func:`_field_encoder` (applied whatever
#: the runtime type) -> the runtime types whose text equals the text of
#: the converted value.
_CONVERTED_TYPES = {
    list: (tuple, list),
    _encode_items: (tuple, list),
    _encode_dict: (dict,),
    _encode_set: (set, frozenset),
}


@cache
def _dataclass_writer(cls: type) -> Callable[[Any], str]:
    """One canonical text writer for ``cls``, built from its field hints.

    Compiled like :func:`_dataclass_plan` into one f-string over the
    fields in sorted-name order (declaration order for a positional
    type), guarded by one check that each field holds what its hint
    promises: exactly a str, an int, a finite float, the hinted
    dataclass or enum, or the container the field's converter expects.
    A field whose hint passes it through (``bool``, ``Optional[int]``,
    ...) is written by its runtime type and needs no check.  A record
    that fails the check is written by ``json.dumps`` of its plan's
    output, which is what the canonical JSON holds for it.
    """
    hints = typing.get_type_hints(cls)
    positional = cls in positional_types()
    plan = _dataclass_plan(cls)
    namespace: dict = {
        "fallback": lambda value: _fallback(plan(value)),
        "esc": encode_basestring_ascii,
        "text": _text,
        "INF": _INF,
    }
    fields = dataclasses.fields(cls)
    if not positional:
        fields = sorted(fields, key=attrgetter("name"))
    loads, checks, items = [], [], []
    for index, field in enumerate(fields):
        var = f"v{index}"
        hint = hints[field.name]
        converter = _field_encoder(hint)
        loads.append(f"    {var} = value.{field.name}\n")
        if converter is None and hint in (str, int, float):
            checks.append(f"type({var}) is {hint.__name__}")
            if hint is float:
                checks.append(f"-INF < {var} < INF")
            item = f"esc({var})" if hint is str else f"{var}!r"
        elif converter is None or converter is encode:
            item = f"text({var})"
        elif isinstance(hint, type) and issubclass(hint, enum.Enum):
            namespace[f"T{index}"], namespace[f"C{index}"] = _enum_texts(hint), hint
            checks.append(f"type({var}) is C{index}")
            item = f"T{index}[{var}]"
        elif isinstance(hint, type) and dataclasses.is_dataclass(hint):
            namespace[f"W{index}"], namespace[f"C{index}"] = _dataclass_writer(hint), hint
            checks.append(f"type({var}) is C{index}")
            item = f"W{index}({var})"
        else:
            namespace[f"C{index}"] = _CONVERTED_TYPES[converter]
            checks.append(f"type({var}) in C{index}")
            item = f"text({var})"
        key = "" if positional else _source_literal(f"{encode_basestring_ascii(field.name)}:")
        items.append(f"{key}{{{item}}}")
    fields_text = ",".join(items)
    body = f"[{fields_text}]" if positional else f"{{{{{fields_text}}}}}"
    code = "def write(value):\n" + "".join(loads)
    if checks:
        code += f"    if not ({' and '.join(checks)}):\n        return fallback(value)\n"
    code += f"    return f'{body}'\n"
    exec(code, namespace)
    return namespace["write"]


def _source_literal(text: str) -> str:
    """``text`` escaped for the literal part of a single-quoted f-string."""
    return (
        text.replace("\\", "\\\\").replace("'", "\\'").replace("{", "{{").replace("}", "}}")
    )


__all__ = ["canonical_pairs", "encode", "feed_canonical", "positional_types"]
