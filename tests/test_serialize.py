"""Document round trips, canonical bytes and schema diagnostics."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from gpdkit import (
    CONJUGATION_VARIANTS,
    FiniteGroupoid,
    GroupoidMorphism,
    HSBundleMorphism,
    KINDS,
    LeftAction,
    SchemaError,
    dumps,
    enumerate_bundle_morphisms,
    fixture_documents,
    generalized_conjugation,
    hs_from_groupoid_morphism,
    hs_ggt_to_morphism,
    identity_ggt,
    kind_of,
    loads,
    make_pair_groupoid,
    pair_id,
    product_groupoid,
    unit_bundle,
)
from helpers import naive_table_error

FIXTURES_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def _samples(z2, unit_z2):
    ident = GroupoidMorphism(
        z2, z2, {x: x for x in z2.objects}, {g: g for g in z2.arrows}
    )
    h = hs_from_groupoid_morphism(ident)
    return {
        "groupoid": z2,
        "morphism": ident,
        "action": generalized_conjugation(z2, "left"),
        "bundle": unit_z2,
        "bundle_morphism": enumerate_bundle_morphisms(unit_z2, unit_z2)[0],
        "ggt": identity_ggt(unit_z2),
        "hs": h,
        "hs_morphism": hs_ggt_to_morphism(h, h, identity_ggt(h.bundle)),
    }


def test_every_kind_round_trips(z2, unit_z2):
    samples = _samples(z2, unit_z2)
    assert sorted(samples) == sorted(KINDS)
    for kind, obj in samples.items():
        assert kind_of(obj) == kind
        text = dumps(obj)
        assert json.loads(text)["kind"] == kind
        assert loads(text) == obj


def test_right_actions_round_trip(unit_z2):
    A = unit_z2.right_action()
    back = loads(dumps(A))
    assert type(back) is type(A)
    assert back == A


def test_dumps_is_canonical(s3, pair2):
    text = dumps(s3)
    assert text == dumps(s3)
    assert text.endswith("\n")
    assert dumps(make_pair_groupoid(2)) == dumps(pair2)


AWKWARD_IDS = [
    '"quoted"',
    "back\\slash",
    "caf\u00e9",
    "\U0001d4a2",
    "tab\tnewline\nbell\x07\x1f\x7f",
    "",
    pair_id('"', pair_id("\\", "\U0001d4a2")),
]


def test_dumps_bytes_equal_json_dumps(z2, unit_z2):
    empty = FiniteGroupoid(frozenset(), frozenset(), {}, {}, {}, {}, {})
    awkward = make_pair_groupoid(AWKWARD_IDS)
    # rows holding quotes, backslashes, commas, brackets and pair ids of those
    awkward3 = make_pair_groupoid(AWKWARD_IDS[:3])
    no_points = LeftAction(z2, frozenset(), {}, {})
    structures = [
        *_samples(z2, unit_z2).values(),
        unit_z2.right_action(),
        empty,
        awkward,
        unit_bundle(awkward),
        product_groupoid(z2, awkward),
        *(generalized_conjugation(z2, v) for v in CONJUGATION_VARIANTS),
        *(generalized_conjugation(awkward3, v) for v in CONJUGATION_VARIANTS),
        no_points,
    ]
    for obj in structures:
        doc = json.loads(dumps(obj))
        assert dumps(obj) == json.dumps(doc, sort_keys=True, indent=1) + "\n"
        assert loads(dumps(obj)) == obj
    assert '"objects": [],' in dumps(empty) and '"source": {},' in dumps(empty)
    assert '"act": [],' in dumps(no_points)
    # a 3-tuple key extending a pair key: the rows have two widths, and
    # ("a", "a", "a", "e") sorts before ("a", "a", "e") though its key
    # sorts after; the rows are still written in key order
    mixed = replace(z2, compose={**z2.compose, ("a", "a", "a"): "e"})
    doc = json.loads(dumps(mixed))
    assert dumps(mixed) == json.dumps(doc, sort_keys=True, indent=1) + "\n"
    assert doc["body"]["compose"] == [[*k, v] for k, v in sorted(mixed.compose.items())]


def test_fixture_files_hold_canonical_bytes():
    for name, obj in fixture_documents().items():
        assert (FIXTURES_DIR / name).read_text() == dumps(obj), name


def test_kind_of_rejects_foreign_objects():
    with pytest.raises(TypeError, match="no document kind for int"):
        kind_of(42)


def _doc(obj) -> dict:
    return json.loads(dumps(obj))


def test_top_level_schema_errors(z2):
    with pytest.raises(SchemaError, match=r"\$: invalid JSON"):
        loads("not json")
    with pytest.raises(SchemaError, match=r"\$: duplicate key 'kind'"):
        loads('{"kind": "groupoid", "kind": "bundle"}')
    with pytest.raises(SchemaError, match=r"\$: expected a JSON object"):
        loads("[]")
    with pytest.raises(SchemaError, match="kind: missing"):
        loads('{"version": 1, "body": {}}')
    with pytest.raises(SchemaError, match="kind: unknown kind 'nope'"):
        loads('{"kind": "nope", "version": 1, "body": {}}')

    with pytest.raises(SchemaError, match="kind: expected a kind string"):
        loads('{"kind": [], "version": 1, "body": {}}')

    for version, shown in ((2, "2"), (True, "True"), (1.0, "1.0"), ("1", "'1'")):
        doc = _doc(z2)
        doc["version"] = version
        with pytest.raises(SchemaError, match=f"version: unsupported version {shown}$"):
            loads(json.dumps(doc))


# Each kind's body fields, written out apart from serialize: a nested
# body is named by its kind, an id map by the nouns its unknown keys and
# values are reported as, any other field by None.
BODY_FIELDS = {
    "groupoid": {
        "objects": None,
        "arrows": None,
        "source": ("arrow", "object"),
        "target": ("arrow", "object"),
        "unit": ("object", "arrow"),
        "inverse": ("arrow", "arrow"),
        "compose": None,
    },
    "morphism": {
        "domain": "groupoid",
        "codomain": "groupoid",
        "object_map": ("object", "object"),
        "arrow_map": ("arrow", "arrow"),
    },
    "action": {
        "side": None,
        "groupoid": "groupoid",
        "carrier": None,
        "momentum": ("point", "object"),
        "act": None,
    },
    "bundle": {
        "groupoid": "groupoid",
        "total": None,
        "base": None,
        "projection": ("point", "base point"),
        "momentum": ("point", "object"),
        "act": None,
    },
    "bundle_morphism": {
        "source": "bundle",
        "target": "bundle",
        "mapping": ("point", "point"),
    },
    "ggt": {"source": "bundle", "target": "bundle", "values": None},
    "hs": {
        "dom": "groupoid",
        "cod": "groupoid",
        "total": None,
        "projection": ("point", "base point"),
        "momentum": ("point", "object"),
        "right_act": None,
        "left_act": None,
    },
    "hs_morphism": {
        "source": "hs",
        "target": "hs",
        "mapping": ("point", "point"),
    },
}


def _bodies(kind: str, path: str):
    """(path, kind) of a body and of every body nested in it."""
    yield path, kind
    for name, spec in BODY_FIELDS[kind].items():
        if isinstance(spec, str):
            yield from _bodies(spec, f"{path}.{name}")


def _at(doc: dict, path: str) -> dict:
    for name in path.split("."):
        doc = doc[name]
    return doc


def _refused(doc: dict) -> str:
    with pytest.raises(SchemaError) as info:
        loads(json.dumps(doc))
    return str(info.value)


def test_body_schema_errors(z2, unit_z2):
    doc = _doc(z2)
    del doc["body"]["source"]
    with pytest.raises(SchemaError, match="body.source: missing"):
        loads(json.dumps(doc))

    doc = _doc(z2)
    doc["body"]["extra"] = []
    with pytest.raises(SchemaError, match="body.extra: unexpected key"):
        loads(json.dumps(doc))

    doc = _doc(z2)
    doc["body"]["arrows"].append("a")
    with pytest.raises(SchemaError, match=r"body.arrows\[2\]: duplicate id 'a'"):
        loads(json.dumps(doc))

    doc = _doc(z2)
    doc["body"]["source"]["zz"] = "*"
    with pytest.raises(SchemaError, match="body.source.zz: unknown arrow 'zz'"):
        loads(json.dumps(doc))

    doc = _doc(z2)
    doc["body"]["compose"][0] = ["e", "e"]
    with pytest.raises(
        SchemaError, match=r"body.compose\[0\]: expected an entry of 3 id strings"
    ):
        loads(json.dumps(doc))

    doc = _doc(z2)
    doc["body"]["compose"][0][2] = "zz"
    with pytest.raises(SchemaError, match=r"body.compose\[0\]: unknown arrow 'zz'"):
        loads(json.dumps(doc))

    doc = _doc(z2)
    doc["body"]["compose"].append(list(doc["body"]["compose"][0]))
    with pytest.raises(SchemaError, match=r"body.compose\[4\]: duplicate entry"):
        loads(json.dumps(doc))

    doc = _doc(generalized_conjugation(z2, "right"))
    doc["body"]["side"] = "up"
    assert _refused(doc) == "body.side: expected 'left' or 'right', got 'up'"

    # Every field of every body, nested ones included: a deleted field is
    # missing, an extra key is unexpected, and each id map names the
    # noun of an unknown key and of an unknown value.
    samples = [*_samples(z2, unit_z2).values(), unit_z2.right_action()]
    texts = []

    def refused_as(doc: dict, expected: str) -> None:
        assert _refused(doc) == expected
        texts.append(expected)

    for obj in samples:
        for path, kind in _bodies(kind_of(obj), "body"):
            fields = BODY_FIELDS[kind]
            assert sorted(_at(_doc(obj), path)) == sorted(fields), path
            for name, spec in fields.items():
                doc = _doc(obj)
                del _at(doc, path)[name]
                refused_as(doc, f"{path}.{name}: missing")
                if not isinstance(spec, tuple):
                    continue
                key_noun, value_noun = spec
                doc = _doc(obj)
                mapping = _at(doc, f"{path}.{name}")
                first = min(mapping)
                mapping["zz"] = mapping[first]
                refused_as(doc, f"{path}.{name}.zz: unknown {key_noun} 'zz'")
                mapping.pop("zz")
                mapping[first] = "zz"
                refused_as(doc, f"{path}.{name}.{first}: unknown {value_noun} 'zz'")
            doc = _doc(obj)
            _at(doc, path)["extra"] = []
            refused_as(doc, f"{path}.extra: unexpected key")
    assert len(texts) == 388
    for text in (
        "body.codomain.inverse: missing",
        "body.groupoid.compose: missing",
        "body.target.groupoid.unit.*: unknown arrow 'zz'",
        "body.source.projection.a: unknown base point 'zz'",
        "body.source.dom.source.a: unknown object 'zz'",
        "body.target.cod.objects: missing",
        "body.target.left_act: missing",
        "body.mapping.a: unknown point 'zz'",
        'body.mapping.["*","a"]: unknown point \'zz\'',
        "body.act: missing",
    ):
        assert text in texts, text


def test_schema_error_carries_path_and_message():
    try:
        loads('{"version": 1, "body": {}}')
    except SchemaError as e:
        assert e.path == "kind"
        assert e.message == "missing"
        assert str(e) == "kind: missing"
    else:
        raise AssertionError("expected a SchemaError")


def _arrows(body: dict) -> tuple[set, str]:
    return (set(body["arrows"]), "arrow")


def _entry_tables(node: dict, path: str):
    """(path, holder, key, columns) for each entry table under a body.

    columns pairs each entry position with the ids it must come from,
    read off the enclosing body's own lists.
    """
    for key, value in node.items():
        sub = f"{path}.{key}"
        if isinstance(value, dict):
            yield from _entry_tables(value, sub)
            continue
        if key not in ("compose", "act", "values", "right_act", "left_act"):
            continue
        if key == "compose":
            columns = [_arrows(node)] * 3
        elif key == "values":
            columns = [
                (set(node["source"]["total"]), "point"),
                (set(node["target"]["total"]), "point"),
                _arrows(node["source"]["groupoid"]),
            ]
        elif key in ("right_act", "left_act"):
            point = (set(node["total"]), "point")
            if key == "right_act":
                columns = [point, _arrows(node["cod"]), point]
            else:
                columns = [_arrows(node["dom"]), point, point]
        elif "side" in node:
            point = (set(node["carrier"]), "point")
            keys = [_arrows(node["groupoid"]), point]
            columns = (keys if node["side"] == "left" else keys[::-1]) + [point]
        else:
            point = (set(node["total"]), "point")
            columns = [point, _arrows(node["groupoid"]), point]
        yield sub, node, key, columns


def _table_mutations(entries: list):
    """Single faults in an entry table, plus a later shape fault after an
    earlier unknown id, which must be the one reported.

    Every JSON leaf that is not a str is tried at each position: the
    reader leaves leaf types to its pool check, True == 1 and 1.0 == 1
    hash alike, and a list or an object is unhashable."""
    yield {"not": "a list"}
    for i, entry in enumerate(entries):
        def put(new, at=i):
            return entries[:at] + [new] + entries[at + 1:]

        yield put(entry[:-1])
        yield put(entry + [entry[-1]])
        yield put(entry[0])
        yield put({"entry": entry})
        for j in range(len(entry)):
            for leaf in (7, None, True, 1.5, {"a": "b"}, [entry[j]], "zz-unknown"):
                yield put(entry[:j] + [leaf] + entry[j + 1:])
        yield entries + [list(entry)]
        yield entries[:i] + [entry[:-1] + ["zz-unknown"]] + entries[i:]
        if i + 1 < len(entries):
            unknown = put(["zz-unknown"] + entry[1:])
            yield unknown[:-1] + [entries[-1][:-1]]
            yield unknown + [list(entries[-1])]


def test_table_errors_match_a_naive_scan(z2, unit_z2):
    structures = [*_samples(z2, unit_z2).values(), unit_z2.right_action()]
    checked = 0
    for obj in structures:
        doc = _doc(obj)
        for path, holder, key, columns in list(_entry_tables(doc["body"], "body")):
            original = holder[key]
            for entries in _table_mutations(original):
                holder[key] = entries
                expected = naive_table_error(entries, path, columns)
                assert expected is not None
                with pytest.raises(SchemaError) as info:
                    loads(json.dumps(doc))
                assert str(info.value) == expected
                checked += 1
            holder[key] = original
        assert loads(json.dumps(doc)) == obj
    assert checked > 1000
