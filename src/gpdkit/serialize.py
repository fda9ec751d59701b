"""JSON documents for every structure the library builds.

A document is {"kind": ..., "version": 1, "body": ...}; dumps renders
it canonically, so equal structures serialize to identical bytes.  Its
bytes equal json.dumps(doc, sort_keys=True, indent=1) plus a trailing
newline; _write produces them with json's C string encoder instead of
the per-leaf Python calls that indent forces on json.dumps.  Tables
keyed by pairs are stored as entry lists [key0, key1, value], each
written with one join over its quoted rows and read with one dict build.

Each kind's body format is stated once, in _SCHEMAS: its fields in
document order, each an id list, an id map, an entry table, a choice
or a nested body, and for each map and table column the path of the
id list its ids come from, e.g. domain.objects.  dumps and loads both
walk it, so the writer and the reader cannot drift apart.

loads is strict about shape: wrong types, missing or unexpected keys,
duplicate entries and ids that do not resolve raise SchemaError with
the offending path, e.g. body.compose[3].  An entry table is decided
whole and scanned only to name a fault: the error names the first bad
entry, with shape and duplicate faults anywhere in the table reported
before an unknown id.  Totality and the algebraic laws are left to the
validators, so a well-formed file can still fail validation.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from operator import attrgetter
from typing import Callable

from .bundles import PrincipalBundle
from .core import FiniteGroupoid, GroupoidMorphism, LeftAction, RightAction, _quote
from .gauge import GGT, BundleMorphism
from .hs import HSBundleMorphism, HSMorphism

__all__ = ["SchemaError", "KINDS", "kind_of", "dumps", "loads"]


class SchemaError(ValueError):
    """A document does not match its schema; path points at the fault."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


def _join(prefix: str, name: str) -> str:
    return f"{prefix}.{name}" if prefix else name


def _require_keys(value: object, path: str, names: tuple[str, ...]) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path or "$", "expected a JSON object")
    for name in names:
        if name not in value:
            raise SchemaError(_join(path, name), "missing")
    for key in value:
        if key not in names:
            raise SchemaError(_join(path, str(key)), "unexpected key")
    return value


def _str_list(value: object, path: str) -> frozenset[str]:
    if not isinstance(value, list):
        raise SchemaError(path, "expected a list of id strings")
    seen = set()
    for i, item in enumerate(value):
        if not isinstance(item, str):
            raise SchemaError(f"{path}[{i}]", "expected an id string")
        if item in seen:
            raise SchemaError(f"{path}[{i}]", f"duplicate id {item!r}")
        seen.add(item)
    return frozenset(seen)


def _str_map(
    value: object,
    path: str,
    keys: frozenset | set,
    key_kind: str,
    values: frozenset | set,
    value_kind: str,
) -> dict[str, str]:
    if not isinstance(value, dict):
        raise SchemaError(path, "expected an object mapping ids to ids")
    for k, v in value.items():
        if not isinstance(v, str):
            raise SchemaError(_join(path, k), "expected an id string")
        if k not in keys:
            raise SchemaError(_join(path, k), f"unknown {key_kind} {k!r}")
        if v not in values:
            raise SchemaError(_join(path, k), f"unknown {value_kind} {v!r}")
    # the parser's own dict: nothing else holds it
    return value


def _table(
    value: object, path: str, pools: dict, columns: tuple[tuple[str, str], ...]
) -> dict[tuple[str, ...], str]:
    """An entry list [[k0, k1, v], ...] as the dict {(k0, k1): v}.

    columns holds one (pool, kind) pair per entry position, the pool
    named by its key in pools.  The table is decided whole: each entry a
    list of len(columns) items, each column inside its pool of id strings
    (which tests leaf types too), and one dict of as many keys as entries.
    Only a table that fails is scanned in order, to name the first bad
    entry: shape and duplicate faults anywhere come before an unknown
    id, which is found by entry, then by column.
    """
    if not isinstance(value, list):
        raise SchemaError(path, "expected a list of entries")
    width = len(columns)
    if set(map(type, value)) <= {list} and set(map(len, value)) <= {width}:
        cols = list(zip(*value)) or [()] * width
        try:  # an unhashable leaf raises TypeError; the scan names it
            inside = all(pools[pool].issuperset(col) for col, (pool, _) in zip(cols, columns))
        except TypeError:
            inside = False
        if inside and len(table := dict(zip(zip(*cols[:-1]), cols[-1]))) == len(value):
            return table
    # The scan raises on every fault found above: a leaf that is in no
    # pool of id strings fails its exact type test or its pool.
    seen = set()
    for i, item in enumerate(value):
        if type(item) is not list or len(item) != width or not all(type(x) is str for x in item):
            raise SchemaError(f"{path}[{i}]", f"expected an entry of {width} id strings")
        key = tuple(item[:-1])
        if key in seen:
            raise SchemaError(f"{path}[{i}]", f"duplicate entry for {key!r}")
        seen.add(key)
    for i, item in enumerate(value):
        for x, (pool, kind) in zip(item, columns):
            if x not in pools[pool]:
                raise SchemaError(f"{path}[{i}]", f"unknown {kind} {x!r}")


_SCHEMAS: dict[str, tuple] = {}  # kind: (types, build, names, fields), filled by _kind


def _field(name: str, form: str, columns: tuple | dict = (), get=None) -> tuple:
    """One body field, a plain tuple so that loads unpacks it fast.

    form is "ids", "map", "table", "choice" or a nested body's kind.
    A column is (pool, noun): the path of an id list read earlier and
    the noun an unknown id is reported as.  A map has a key and a value
    column, a table one per entry position, or one tuple per value of
    the body's choice; a choice lists its values.  A nested body's
    columns pair each of its id lists' paths inside it and here.  get
    reads the field off the structure, by default the named attribute.
    """
    if form in _SCHEMAS:
        columns = tuple((below, f"{name}.{below}") for below in _pools(form))
    return name, form, columns, get


def _pools(kind: str):
    """The paths of the id lists a body of kind declares."""
    for name, form, columns, _ in _SCHEMAS[kind][-1]:
        if form == "ids":
            yield name
        elif form in _SCHEMAS:
            yield from (here for _, here in columns)


def _kind(kind: str, types: tuple[type, ...], build: Callable, fields: tuple) -> None:
    """Declare a kind: the classes dumped as it, a build taking the field
    values in order, and its fields in document order."""
    _SCHEMAS[kind] = (types, build, tuple(field[0] for field in fields), fields)


def _build_action(side: str, *fields) -> LeftAction | RightAction:
    return (LeftAction if side == "left" else RightAction)(*fields)


def _build_hs(dom, cod, total, projection, momentum, right_act, left_act) -> HSMorphism:
    bundle = PrincipalBundle(cod, total, dom.objects, projection, momentum, right_act)
    return HSMorphism(dom, cod, bundle, left_act)


_kind("groupoid", (FiniteGroupoid,), FiniteGroupoid, (
    _field("objects", "ids"),
    _field("arrows", "ids"),
    _field("source", "map", (("arrows", "arrow"), ("objects", "object"))),
    _field("target", "map", (("arrows", "arrow"), ("objects", "object"))),
    _field("unit", "map", (("objects", "object"), ("arrows", "arrow"))),
    _field("inverse", "map", (("arrows", "arrow"), ("arrows", "arrow"))),
    _field("compose", "table", (("arrows", "arrow"),) * 3),
))
_kind("morphism", (GroupoidMorphism,), GroupoidMorphism, (
    _field("domain", "groupoid"),
    _field("codomain", "groupoid"),
    _field("object_map", "map", (("domain.objects", "object"), ("codomain.objects", "object"))),
    _field("arrow_map", "map", (("domain.arrows", "arrow"), ("codomain.arrows", "arrow"))),
))
_kind("action", (LeftAction, RightAction), _build_action, (
    _field(
        "side", "choice", ("left", "right"),
        lambda A: "left" if isinstance(A, LeftAction) else "right",
    ),
    _field("groupoid", "groupoid"),
    _field("carrier", "ids"),
    _field("momentum", "map", (("carrier", "point"), ("groupoid.objects", "object"))),
    _field("act", "table", {
        "left": (("groupoid.arrows", "arrow"), ("carrier", "point"), ("carrier", "point")),
        "right": (("carrier", "point"), ("groupoid.arrows", "arrow"), ("carrier", "point")),
    }),
))
_kind("bundle", (PrincipalBundle,), PrincipalBundle, (
    _field("groupoid", "groupoid"),
    _field("total", "ids"),
    _field("base", "ids"),
    _field("projection", "map", (("total", "point"), ("base", "base point"))),
    _field("momentum", "map", (("total", "point"), ("groupoid.objects", "object"))),
    _field("act", "table", (
        ("total", "point"), ("groupoid.arrows", "arrow"), ("total", "point"),
    )),
))
_kind("bundle_morphism", (BundleMorphism,), BundleMorphism, (
    _field("source", "bundle"),
    _field("target", "bundle"),
    _field("mapping", "map", (("source.total", "point"), ("target.total", "point"))),
))
_kind("ggt", (GGT,), GGT, (
    _field("source", "bundle"),
    _field("target", "bundle"),
    _field("values", "table", (
        ("source.total", "point"),
        ("target.total", "point"),
        ("source.groupoid.arrows", "arrow"),
    )),
))
_kind("hs", (HSMorphism,), _build_hs, (
    _field("dom", "groupoid"),
    _field("cod", "groupoid"),
    _field("total", "ids", get=attrgetter("bundle.total")),
    _field("projection", "map", (
        ("total", "point"), ("dom.objects", "base point"),
    ), attrgetter("bundle.projection")),
    _field("momentum", "map", (
        ("total", "point"), ("cod.objects", "object"),
    ), attrgetter("bundle.momentum")),
    _field("right_act", "table", (
        ("total", "point"), ("cod.arrows", "arrow"), ("total", "point"),
    ), attrgetter("bundle.act")),
    _field("left_act", "table", (
        ("dom.arrows", "arrow"), ("total", "point"), ("total", "point"),
    )),
))
_kind("hs_morphism", (HSBundleMorphism,), HSBundleMorphism, (
    _field("source", "hs"),
    _field("target", "hs"),
    _field("mapping", "map", (("source.total", "point"), ("target.total", "point"))),
))
KINDS = tuple(_SCHEMAS)


def kind_of(obj: object) -> str:
    """The document kind that serializes obj."""
    for kind, (types, *_) in _SCHEMAS.items():
        if isinstance(obj, types):
            return kind
    raise TypeError(f"no document kind for {type(obj).__name__}")


def _body(kind: str, obj: object) -> dict:
    """The body of obj's document; _write sorts the maps."""
    body = {}
    for name, form, _, get in _SCHEMAS[kind][-1]:
        value = get(obj) if get else getattr(obj, name)
        if form == "ids":
            value = sorted(value)
        elif form == "table":
            value = sorted(map(tuple.__add__, value, zip(value.values())))
        elif form in _SCHEMAS:
            value = _body(form, value)
        body[name] = value
    return body


def _read(kind: str, value: object, path: str) -> tuple[object, dict]:
    """The structure of kind at path, and the id sets its body declares
    by their paths (see _pools)."""
    _, build, names, fields = _SCHEMAS[kind]
    body = _require_keys(value, path, names)
    values, pools = [], {}
    for name, form, columns, _ in fields:
        at, value = _join(path, name), body[name]
        if form == "map":
            (keys, key_kind), (targets, value_kind) = columns
            value = _str_map(value, at, pools[keys], key_kind, pools[targets], value_kind)
        elif form == "ids":
            value = pools[name] = _str_list(value, at)
        elif form == "table":
            if isinstance(columns, dict):
                columns = columns[choice]
            value = _table(value, at, pools, columns)
        elif form == "choice":
            if value not in columns:
                allowed = " or ".join(map(repr, columns))
                raise SchemaError(at, f"expected {allowed}, got {value!r}")
            choice = value
        else:
            value, inner = _read(form, value, at)
            for below, here in columns:
                pools[here] = inner[below]
        values.append(value)
    return build(*values), pools


def _write(value: object, pad: str) -> str:
    """json.dumps(value, sort_keys=True, indent=1) nested at pad.

    pad is a newline and the indent of the line that closes value.  A
    document's lists hold either ids or entry rows, tuples of ids sorted
    by _body.  A table is written with one join: its cells are quoted in
    one pass and regrouped into rows by zip.  Rows of mixed widths would
    group wrongly and sort unlike their keys; they are re-sorted by key.
    """
    if isinstance(value, str):
        return _quote(value)
    if not isinstance(value, (dict, list)):
        return json.dumps(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = pad + " "
    sep = "," + inner
    if isinstance(value, dict):
        items = [f"{_quote(k)}: {_write(v, inner)}" for k, v in sorted(value.items())]
        return "{" + inner + sep.join(items) + pad + "}"
    if not isinstance(value[0], tuple):
        return "[" + inner + sep.join(map(_quote, value)) + pad + "]"
    widths = set(map(len, value))
    if len(widths) == 1:
        rows = zip(*[map(_quote, chain.from_iterable(value))] * widths.pop())
    else:
        rows = map(map, repeat(_quote), sorted(value, key=lambda row: row[:-1]))
    rows = map((sep + " ").join, rows)
    return f"[{inner}[{inner} " + f"{inner}]{sep}[{inner} ".join(rows) + f"{inner}]{pad}]"


def dumps(obj: object) -> str:
    """Canonical document text for a structure; stable across runs."""
    kind = kind_of(obj)
    doc = {"kind": kind, "version": 1, "body": _body(kind, obj)}
    return _write(doc, "\n") + "\n"


def _reject_duplicate_keys(pairs):
    out = {}
    for k, v in pairs:
        if k in out:
            raise SchemaError("$", f"duplicate key {k!r}")
        out[k] = v
    return out


def loads(text: str) -> object:
    """Parse a document, dispatching on its kind; raises SchemaError."""
    try:
        doc = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except SchemaError:
        raise
    except ValueError as e:
        raise SchemaError("$", f"invalid JSON: {e}") from None
    doc = _require_keys(doc, "", ("kind", "version", "body"))
    kind, version = doc["kind"], doc["version"]
    if not isinstance(kind, str):
        raise SchemaError("kind", "expected a kind string")
    if kind not in _SCHEMAS:
        raise SchemaError("kind", f"unknown kind {kind!r}")
    # True == 1 and 1.0 == 1 in Python, so compare the type as well
    if type(version) is not int or version != 1:
        raise SchemaError("version", f"unsupported version {version!r}")
    return _read(kind, doc["body"], "body")[0]
