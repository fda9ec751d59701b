"""JSON documents for every structure the library builds.

A document is {"kind": ..., "version": 1, "body": ...}; dumps renders
it canonically, so equal structures serialize to identical bytes.  Its
bytes equal json.dumps(doc, sort_keys=True, indent=1) plus a trailing
newline; _write produces them with json's C string encoder instead of
the per-leaf Python calls that indent forces on json.dumps.  Tables
keyed by pairs are stored as entry lists [key0, key1, value].

loads is strict about shape: wrong types, missing or unexpected keys,
duplicate entries and ids that do not resolve raise SchemaError with
the offending path, e.g. body.compose[3].  An entry table is checked
whole; when a check fails, the error names the first bad entry, with
shape and duplicate faults anywhere in the table reported before an
unknown id.  Totality and the algebraic laws are left to the
validators, so a well-formed file can still fail validation.
"""

from __future__ import annotations

import json
from itertools import chain

from .bundles import PrincipalBundle
from .core import FiniteGroupoid, GroupoidMorphism, LeftAction, RightAction, _quote
from .gauge import GGT, BundleMorphism
from .hs import HSBundleMorphism, HSMorphism

__all__ = ["SchemaError", "KINDS", "kind_of", "dumps", "loads"]

KINDS = (
    "groupoid",
    "morphism",
    "action",
    "bundle",
    "bundle_morphism",
    "ggt",
    "hs",
    "hs_morphism",
)


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


def _str_list(value: object, path: str) -> list[str]:
    if not isinstance(value, list):
        raise SchemaError(path, "expected a list of id strings")
    seen = set()
    for i, item in enumerate(value):
        if not isinstance(item, str):
            raise SchemaError(f"{path}[{i}]", "expected an id string")
        if item in seen:
            raise SchemaError(f"{path}[{i}]", f"duplicate id {item!r}")
        seen.add(item)
    return list(value)


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
    return dict(value)


def _table(
    value: object, path: str, *columns: tuple[frozenset | set, str]
) -> dict[tuple[str, ...], str]:
    """An entry list [[k0, k1, v], ...] as {(k0, k1): v}.

    columns holds one (pool, kind) pair per entry position.  The table
    is checked whole: every entry a list of len(columns) strings (leaf
    types before any leaf is hashed), unique keys, each column inside
    its pool.  Only a table that fails a check is scanned in order, to
    name the first bad entry: shape and duplicate faults anywhere come
    before an unknown id, which is found by entry, then by column.
    """
    if not isinstance(value, list):
        raise SchemaError(path, "expected a list of entries")
    width = len(columns)
    if (
        set(map(type, value)) <= {list}
        and set(map(len, value)) <= {width}
        and set(map(type, chain.from_iterable(value))) <= {str}
    ):
        cols = list(zip(*value)) or [()] * width
        keys = list(zip(*cols[:-1]))
        if len(set(keys)) == len(keys) and all(
            pool.issuperset(col) for col, (pool, _) in zip(cols, columns)
        ):
            return dict(zip(keys, cols[-1]))
    # The scan tests exact types, as the checks above do, so it raises
    # whenever one of them failed.
    seen = set()
    for i, item in enumerate(value):
        if (
            type(item) is not list
            or len(item) != width
            or not all(type(x) is str for x in item)
        ):
            raise SchemaError(
                f"{path}[{i}]", f"expected an entry of {width} id strings"
            )
        key = tuple(item[:-1])
        if key in seen:
            raise SchemaError(f"{path}[{i}]", f"duplicate entry for {key!r}")
        seen.add(key)
    for i, item in enumerate(value):
        for x, (pool, kind) in zip(item, columns):
            if x not in pool:
                raise SchemaError(f"{path}[{i}]", f"unknown {kind} {x!r}")


def _groupoid_body(G: FiniteGroupoid) -> dict:
    return {
        "objects": sorted(G.objects),
        "arrows": sorted(G.arrows),
        "source": dict(sorted(G.source.items())),
        "target": dict(sorted(G.target.items())),
        "unit": dict(sorted(G.unit.items())),
        "inverse": dict(sorted(G.inverse.items())),
        "compose": [[a, b, c] for (a, b), c in sorted(G.compose.items())],
    }


def _parse_groupoid(body: object, path: str) -> FiniteGroupoid:
    obj = _require_keys(
        body,
        path,
        ("objects", "arrows", "source", "target", "unit", "inverse", "compose"),
    )
    objects = _str_list(obj["objects"], _join(path, "objects"))
    arrows = _str_list(obj["arrows"], _join(path, "arrows"))
    oset, aset = set(objects), set(arrows)
    source = _str_map(obj["source"], _join(path, "source"), aset, "arrow", oset, "object")
    target = _str_map(obj["target"], _join(path, "target"), aset, "arrow", oset, "object")
    unit = _str_map(obj["unit"], _join(path, "unit"), oset, "object", aset, "arrow")
    inverse = _str_map(obj["inverse"], _join(path, "inverse"), aset, "arrow", aset, "arrow")
    arrow = (aset, "arrow")
    compose = _table(obj["compose"], _join(path, "compose"), arrow, arrow, arrow)
    return FiniteGroupoid(
        frozenset(objects), frozenset(arrows), source, target, unit, inverse, compose
    )


def _morphism_body(f: GroupoidMorphism) -> dict:
    return {
        "domain": _groupoid_body(f.domain),
        "codomain": _groupoid_body(f.codomain),
        "object_map": dict(sorted(f.object_map.items())),
        "arrow_map": dict(sorted(f.arrow_map.items())),
    }


def _parse_morphism(body: object, path: str) -> GroupoidMorphism:
    obj = _require_keys(body, path, ("domain", "codomain", "object_map", "arrow_map"))
    dom = _parse_groupoid(obj["domain"], _join(path, "domain"))
    cod = _parse_groupoid(obj["codomain"], _join(path, "codomain"))
    object_map = _str_map(
        obj["object_map"], _join(path, "object_map"),
        dom.objects, "object", cod.objects, "object",
    )
    arrow_map = _str_map(
        obj["arrow_map"], _join(path, "arrow_map"),
        dom.arrows, "arrow", cod.arrows, "arrow",
    )
    return GroupoidMorphism(dom, cod, object_map, arrow_map)


def _action_body(A: LeftAction | RightAction) -> dict:
    return {
        "side": "left" if isinstance(A, LeftAction) else "right",
        "groupoid": _groupoid_body(A.groupoid),
        "carrier": sorted(A.carrier),
        "momentum": dict(sorted(A.momentum.items())),
        "act": [[k0, k1, v] for (k0, k1), v in sorted(A.act.items())],
    }


def _parse_action(body: object, path: str) -> LeftAction | RightAction:
    obj = _require_keys(body, path, ("side", "groupoid", "carrier", "momentum", "act"))
    side = obj["side"]
    if side not in ("left", "right"):
        raise SchemaError(_join(path, "side"), f"expected 'left' or 'right', got {side!r}")
    G = _parse_groupoid(obj["groupoid"], _join(path, "groupoid"))
    carrier = _str_list(obj["carrier"], _join(path, "carrier"))
    cset = set(carrier)
    momentum = _str_map(
        obj["momentum"], _join(path, "momentum"), cset, "point", G.objects, "object"
    )
    arrow, point = (G.arrows, "arrow"), (cset, "point")
    keys = (arrow, point) if side == "left" else (point, arrow)
    act = _table(obj["act"], _join(path, "act"), *keys, point)
    cls = LeftAction if side == "left" else RightAction
    return cls(G, frozenset(carrier), momentum, act)


def _bundle_body(B: PrincipalBundle) -> dict:
    return {
        "groupoid": _groupoid_body(B.groupoid),
        "total": sorted(B.total),
        "base": sorted(B.base),
        "projection": dict(sorted(B.projection.items())),
        "momentum": dict(sorted(B.momentum.items())),
        "act": [[p, g, q] for (p, g), q in sorted(B.act.items())],
    }


def _parse_bundle(body: object, path: str) -> PrincipalBundle:
    obj = _require_keys(
        body, path, ("groupoid", "total", "base", "projection", "momentum", "act")
    )
    G = _parse_groupoid(obj["groupoid"], _join(path, "groupoid"))
    total = _str_list(obj["total"], _join(path, "total"))
    base = _str_list(obj["base"], _join(path, "base"))
    tset, bset = set(total), set(base)
    projection = _str_map(
        obj["projection"], _join(path, "projection"), tset, "point", bset, "base point"
    )
    momentum = _str_map(
        obj["momentum"], _join(path, "momentum"), tset, "point", G.objects, "object"
    )
    point = (tset, "point")
    act = _table(obj["act"], _join(path, "act"), point, (G.arrows, "arrow"), point)
    return PrincipalBundle(G, frozenset(total), frozenset(base), projection, momentum, act)


def _bundle_morphism_body(f: BundleMorphism) -> dict:
    return {
        "source": _bundle_body(f.source),
        "target": _bundle_body(f.target),
        "mapping": dict(sorted(f.mapping.items())),
    }


def _parse_bundle_morphism(body: object, path: str) -> BundleMorphism:
    obj = _require_keys(body, path, ("source", "target", "mapping"))
    src = _parse_bundle(obj["source"], _join(path, "source"))
    dst = _parse_bundle(obj["target"], _join(path, "target"))
    mapping = _str_map(
        obj["mapping"], _join(path, "mapping"), src.total, "point", dst.total, "point"
    )
    return BundleMorphism(src, dst, mapping)


def _ggt_body(K: GGT) -> dict:
    return {
        "source": _bundle_body(K.source),
        "target": _bundle_body(K.target),
        "values": [[p1, p2, g] for (p1, p2), g in sorted(K.values.items())],
    }


def _parse_ggt(body: object, path: str) -> GGT:
    obj = _require_keys(body, path, ("source", "target", "values"))
    src = _parse_bundle(obj["source"], _join(path, "source"))
    dst = _parse_bundle(obj["target"], _join(path, "target"))
    values = _table(
        obj["values"], _join(path, "values"),
        (src.total, "point"), (dst.total, "point"), (src.groupoid.arrows, "arrow"),
    )
    return GGT(src, dst, values)


def _hs_body(h: HSMorphism) -> dict:
    return {
        "dom": _groupoid_body(h.dom),
        "cod": _groupoid_body(h.cod),
        "total": sorted(h.bundle.total),
        "projection": dict(sorted(h.bundle.projection.items())),
        "momentum": dict(sorted(h.bundle.momentum.items())),
        "right_act": [[p, k, q] for (p, k), q in sorted(h.bundle.act.items())],
        "left_act": [[g, p, q] for (g, p), q in sorted(h.left_act.items())],
    }


def _parse_hs(body: object, path: str) -> HSMorphism:
    obj = _require_keys(
        body,
        path,
        ("dom", "cod", "total", "projection", "momentum", "right_act", "left_act"),
    )
    dom = _parse_groupoid(obj["dom"], _join(path, "dom"))
    cod = _parse_groupoid(obj["cod"], _join(path, "cod"))
    total = _str_list(obj["total"], _join(path, "total"))
    tset = set(total)
    projection = _str_map(
        obj["projection"], _join(path, "projection"),
        tset, "point", dom.objects, "base point",
    )
    momentum = _str_map(
        obj["momentum"], _join(path, "momentum"), tset, "point", cod.objects, "object"
    )
    point = (tset, "point")
    act = _table(
        obj["right_act"], _join(path, "right_act"), point, (cod.arrows, "arrow"), point
    )
    left_act = _table(
        obj["left_act"], _join(path, "left_act"), (dom.arrows, "arrow"), point, point
    )
    bundle = PrincipalBundle(
        cod, frozenset(total), frozenset(dom.objects), projection, momentum, act
    )
    return HSMorphism(dom, cod, bundle, left_act)


def _hs_morphism_body(f: HSBundleMorphism) -> dict:
    return {
        "source": _hs_body(f.source),
        "target": _hs_body(f.target),
        "mapping": dict(sorted(f.mapping.items())),
    }


def _parse_hs_morphism(body: object, path: str) -> HSBundleMorphism:
    obj = _require_keys(body, path, ("source", "target", "mapping"))
    src = _parse_hs(obj["source"], _join(path, "source"))
    dst = _parse_hs(obj["target"], _join(path, "target"))
    mapping = _str_map(
        obj["mapping"], _join(path, "mapping"),
        src.bundle.total, "point", dst.bundle.total, "point",
    )
    return HSBundleMorphism(src, dst, mapping)


_BODY_BUILDERS = {
    "groupoid": _groupoid_body,
    "morphism": _morphism_body,
    "action": _action_body,
    "bundle": _bundle_body,
    "bundle_morphism": _bundle_morphism_body,
    "ggt": _ggt_body,
    "hs": _hs_body,
    "hs_morphism": _hs_morphism_body,
}

_BODY_PARSERS = {
    "groupoid": _parse_groupoid,
    "morphism": _parse_morphism,
    "action": _parse_action,
    "bundle": _parse_bundle,
    "bundle_morphism": _parse_bundle_morphism,
    "ggt": _parse_ggt,
    "hs": _parse_hs,
    "hs_morphism": _parse_hs_morphism,
}

_KIND_OF_TYPE = (
    (FiniteGroupoid, "groupoid"),
    (GroupoidMorphism, "morphism"),
    (LeftAction, "action"),
    (RightAction, "action"),
    (PrincipalBundle, "bundle"),
    (BundleMorphism, "bundle_morphism"),
    (GGT, "ggt"),
    (HSMorphism, "hs"),
    (HSBundleMorphism, "hs_morphism"),
)


def kind_of(obj: object) -> str:
    """The document kind that serializes obj."""
    for cls, kind in _KIND_OF_TYPE:
        if isinstance(obj, cls):
            return kind
    raise TypeError(f"no document kind for {type(obj).__name__}")


def _write(value: object, pad: str) -> str:
    """json.dumps(value, sort_keys=True, indent=1) nested at pad.

    pad is a newline and the indent of the line that closes value.  A
    document's lists hold either ids or entry rows of ids, so a list is
    written from its first item's type with str.join over quoted ids.
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
    if isinstance(value[0], list):
        row_sep = sep + " "
        items = [f"[{inner} {row_sep.join(map(_quote, row))}{inner}]" for row in value]
    else:
        items = map(_quote, value)
    return "[" + inner + sep.join(items) + pad + "]"


def dumps(obj: object) -> str:
    """Canonical document text for a structure; stable across runs."""
    doc = {"kind": kind_of(obj), "version": 1, "body": _BODY_BUILDERS[kind_of(obj)](obj)}
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
    if kind not in _BODY_PARSERS:
        raise SchemaError("kind", f"unknown kind {kind!r}")
    # True == 1 and 1.0 == 1 in Python, so compare the type as well
    if type(version) is not int or version != 1:
        raise SchemaError("version", f"unsupported version {version!r}")
    return _BODY_PARSERS[kind](doc["body"], "body")
