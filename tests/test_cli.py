"""Exercises every subcommand through main() plus one real process run."""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import gpdkit.cli
from gpdkit import (
    FiniteGroupoid,
    GeneratorSpec,
    GroupoidMorphism,
    HSMorphism,
    PrincipalBundle,
    dumps,
    generalized_conjugation,
    hs_from_groupoid_morphism,
    identity_ggt,
    loads,
    pullback_bundle,
    random_groupoid,
    unit_bundle,
    validate_bundle,
    validate_groupoid,
    validate_hs,
)
from gpdkit.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
UNIT = str(FIXTURES / "unit-z2.bnd")
Z2 = str(FIXTURES / "z2.gpd")
S3 = str(FIXTURES / "s3.gpd")


def test_validate_accepts_fixtures(capsys):
    assert main(["validate", Z2, UNIT]) == 0
    out = capsys.readouterr().out
    assert out == f"{Z2}: ok\n{UNIT}: ok\n"


def test_validate_reports_violations(tmp_path, capsys):
    doc = json.loads((FIXTURES / "z2.gpd").read_text())
    entry = next(e for e in doc["body"]["compose"] if e[:2] == ["a", "a"])
    entry[2] = "a"
    bad = tmp_path / "bad.gpd"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert f"{bad}: " in out and "violations" in out
    assert "\n  " in out


def _trivial_morphism(z2, s3):
    (x,), (y,) = sorted(z2.objects), sorted(s3.objects)
    return GroupoidMorphism(z2, s3, {x: y}, {g: s3.unit[y] for g in z2.arrows})


_HOLDERS = {
    "left.act": (lambda z2, s3: generalized_conjugation(z2, "left"), ["groupoid"]),
    "right.act": (lambda z2, s3: generalized_conjugation(z2, "right"), ["groupoid"]),
    "unit.bnd": (lambda z2, s3: loads(Path(UNIT).read_text()), ["groupoid"]),
    "trivial.mor": (_trivial_morphism, ["domain", "codomain"]),
    "trivial.hs": (
        lambda z2, s3: hs_from_groupoid_morphism(_trivial_morphism(z2, s3)),
        ["dom", "cod"],
    ),
}


@pytest.mark.parametrize("name", sorted(_HOLDERS))
def test_validate_is_total_on_missing_endpoint_entries(name, z2, s3, tmp_path, capsys):
    build, fields = _HOLDERS[name]
    doc = json.loads(dumps(build(z2, s3)))
    path = tmp_path / name
    cases = 0
    for field in fields:
        for table in ("source", "target"):
            for arrow in sorted(doc["body"][field][table]):
                broken = json.loads(json.dumps(doc))
                del broken["body"][field][table][arrow]
                path.write_text(json.dumps(broken))
                assert main(["validate", str(path)]) == 1, (field, table, arrow)
                out = capsys.readouterr().out
                assert f"table.{table}.missing[{arrow}]" in out, out
                cases += 1
    assert cases


def test_validate_rejects_malformed_file(tmp_path, capsys):
    mangled = tmp_path / "mangled.gpd"
    mangled.write_text("not json")
    assert main(["validate", str(mangled)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "invalid JSON" in err

    mangled.write_text('{"kind": [], "version": 1, "body": {}}')
    assert main(["validate", str(mangled)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {mangled}: kind: expected a kind string\n"


def test_validate_missing_file(capsys):
    assert main(["validate", "no-such-file.gpd"]) == 2
    assert "cannot read no-such-file.gpd" in capsys.readouterr().err


def test_divide_prints_the_quotient_arrow(capsys):
    assert main(["divide", UNIT, "e", "a"]) == 0
    assert capsys.readouterr().out == "a\n"


def test_divide_across_fibers_fails(tmp_path, unit_z2, capsys):
    wide = pullback_bundle(unit_z2, {"m0": "*", "m1": "*"})
    path = tmp_path / "wide.bnd"
    path.write_text(dumps(wide))
    p, q = '["m0","e"]', '["m1","e"]'
    assert main(["divide", str(path), p, q]) == 1
    assert "lie over different base points" in capsys.readouterr().err


def test_divide_unknown_point(capsys):
    assert main(["divide", UNIT, "zz", "a"]) == 2
    assert "not a total point" in capsys.readouterr().err


def test_morphisms_lists_both(capsys):
    assert main(["morphisms", UNIT, UNIT]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "2 morphisms"
    assert lines[1] == "morphism 0: a:a e:e"
    assert lines[2] == "morphism 1: a:e e:a"


def test_ggt_identity_invert_compose(tmp_path, unit_z2, capsys):
    assert main(["ggt", "identity", UNIT]) == 0
    text = capsys.readouterr().out
    assert loads(text) == identity_ggt(unit_z2)

    k = tmp_path / "k.ggt"
    k.write_text(text)
    assert main(["ggt", "invert", str(k)]) == 0
    assert loads(capsys.readouterr().out) == identity_ggt(unit_z2)

    assert main(["ggt", "compose", str(k), str(k)]) == 0
    assert loads(capsys.readouterr().out) == identity_ggt(unit_z2)

    assert main(["ggt", "compose", str(k)]) == 2
    assert "needs two ggt files" in capsys.readouterr().err

    assert main(["ggt", "invert", str(k), str(tmp_path / "missing.ggt")]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: ggt invert needs one ggt file\n")

    assert main(["ggt", "identity", UNIT, UNIT]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: ggt identity needs one bundle file\n")


def test_ggt_invert_refuses_a_non_equivariant_ggt(tmp_path, unit_z2, capsys):
    K = identity_ggt(unit_z2)
    assert K.values[("a", "a")] == "e"
    k = tmp_path / "k.ggt"
    k.write_text(dumps(replace(K, values={**K.values, ("a", "a"): "a"})))
    assert main(["validate", str(k)]) == 1
    report = capsys.readouterr().out
    assert report.startswith(f"{k}: 6 violations\n")
    assert report.count("ggt.equivariance") == 6

    assert main(["ggt", "invert", str(k)]) == 1
    out = capsys.readouterr().out
    assert out == report


def test_ggt_compose_names_a_missing_value(tmp_path, unit_z2, capsys):
    K = identity_ggt(unit_z2)
    ident = tmp_path / "id.ggt"
    ident.write_text(dumps(K))
    values = dict(K.values)
    del values[("a", "a")]
    missing = tmp_path / "missing.ggt"
    missing.write_text(dumps(replace(K, values=values)))

    assert main(["ggt", "compose", str(ident), str(missing)]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"{missing}: 1 violations\n  table.values.missing[a,a]\n"
    assert captured.err == ""


def test_ggt_rejects_wrong_document_kind(capsys):
    assert main(["ggt", "identity", Z2]) == 2
    assert "expected a bundle document, got groupoid" in capsys.readouterr().err


def test_gauge_group_output(capsys):
    assert main(["gauge-group", UNIT]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "order 2"
    assert lines[1].startswith("unit ")
    assert sum(1 for line in lines if line.startswith("element ")) == 2


def test_gauge_group_output_on_the_order_144_unit_bundle_is_pinned(tmp_path, capsys):
    # ROADMAP's U; the command prints elements, never the product table
    U = unit_bundle(random_groupoid(GeneratorSpec(7, max_objects=3, max_group_order=6)))
    path = tmp_path / "U.bnd"
    path.write_text(dumps(U))
    assert main(["gauge-group", str(path)]) == 0
    out = capsys.readouterr().out.encode()
    assert out.startswith(b"order 144\nunit 11\n")
    assert len(out) == 17_332
    assert (
        hashlib.sha256(out).hexdigest()
        == "82164e2ebed60665e58c691c5510912698e45654179a93267a4495edede69c2c"
    )


def test_hs_gauge_group_output(tmp_path, z2, capsys):
    ident = GroupoidMorphism(
        z2, z2, {x: x for x in z2.objects}, {g: g for g in z2.arrows}
    )
    path = tmp_path / "id.hs"
    path.write_text(dumps(hs_from_groupoid_morphism(ident)))
    assert main(["hs-gauge-group", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "order 2"


def test_gauge_groupoid_with_export(tmp_path, capsys):
    out_file = tmp_path / "gauge.gpd"
    assert main(["gauge-groupoid", UNIT, UNIT, "--export", str(out_file)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "objects P0 P1"
    assert lines[1] == "arrows 8"
    assert lines[2] == "valid yes"
    assert lines[3] == f"exported {out_file}"
    exported = loads(out_file.read_text())
    assert isinstance(exported, FiniteGroupoid)
    assert validate_groupoid(exported).ok
    assert len(exported.arrows) == 8


def test_gauge_groupoid_prints_the_witnesses_of_an_invalid_result(monkeypatch, capsys):
    build = gpdkit.cli.build_gauge_groupoid

    def drop_one_compose_entry(bundles):
        gg = build(bundles)
        compose = dict(gg.groupoid.compose)
        del compose[min(compose)]
        return replace(gg, groupoid=replace(gg.groupoid, compose=compose))

    monkeypatch.setattr(gpdkit.cli, "build_gauge_groupoid", drop_one_compose_entry)
    assert main(["gauge-groupoid", UNIT]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["objects P0", "arrows 2", "valid no"]
    witnesses = lines[3:]
    assert witnesses and all(line.startswith("  ") for line in witnesses)
    assert any("table.compose.missing" in line for line in witnesses)


def test_gauge_groupoid_hs_flag(tmp_path, z2, capsys):
    ident = GroupoidMorphism(
        z2, z2, {x: x for x in z2.objects}, {g: g for g in z2.arrows}
    )
    path = tmp_path / "id.hs"
    path.write_text(dumps(hs_from_groupoid_morphism(ident)))
    assert main(["gauge-groupoid", "--hs", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "arrows 2"
    assert lines[2] == "valid yes"


def _identity_hs(G) -> HSMorphism:
    return hs_from_groupoid_morphism(
        GroupoidMorphism(G, G, {x: x for x in G.objects}, {g: g for g in G.arrows})
    )


_AA = "table.compose.missing[a,a]"


@pytest.mark.parametrize(
    "command, table, expected",
    [
        ("gauge-group", "groupoid.compose", [f"groupoid.{_AA}"]),
        ("gauge-groupoid", "groupoid.compose", [f"groupoid.{_AA}"]),
        ("gauge-group", "act", ["table.act.missing[a,a]", "bundle.transitive[a,e]"]),
        ("hs-gauge-group", "dom.compose", [f"dom.{_AA}"]),
        ("hs-gauge-group", "cod.compose", [f"cod.{_AA}"]),
        ("gauge-groupoid --hs", "dom.compose", [f"dom.{_AA}"]),
        ("divide {bad} a a", "groupoid.compose", [f"groupoid.{_AA}"]),
        ("morphisms {bad} {unit}", "groupoid.compose", [f"groupoid.{_AA}"]),
        ("morphisms {unit} {bad}", "act", ["table.act.missing[a,a]", "bundle.transitive[a,e]"]),
        ("ggt identity", "groupoid.compose", [f"groupoid.{_AA}"]),
    ],
)
def test_gauge_commands_refuse_invalid_inputs_with_witnesses(
    command, table, expected, z2, tmp_path, capsys
):
    # the first row of each table is the (a, a) entry; without it the
    # commands used to name a missing product, print "valid yes", or
    # compute a division, a morphism count or a GGT.  The bad file goes
    # where {bad} stands, or last.
    if "hs" in command:
        doc, bad = json.loads(dumps(_identity_hs(z2))), tmp_path / "bad.hs"
    else:
        doc, bad = json.loads(Path(UNIT).read_text()), tmp_path / "bad.bnd"
    rows = doc["body"]
    for name in table.split("."):
        rows = rows[name]
    del rows[0]
    bad.write_text(json.dumps(doc))
    if "{bad}" not in command:
        command += " {bad}"
    assert main([arg.format(bad=bad, unit=UNIT) for arg in command.split()]) == 1
    captured = capsys.readouterr()
    lines = "".join(f"  {v}\n" for v in expected)
    assert captured.out == f"{bad}: {len(expected)} violations\n{lines}"
    assert captured.err == ""


@pytest.mark.parametrize(
    "command, wanted, given",
    [
        ("divide {wrong} a a", "bundle", "groupoid"),
        ("morphisms {wrong} {unit}", "bundle", "groupoid"),
        ("morphisms {unit} {wrong}", "bundle", "ggt"),
        ("ggt identity {wrong}", "bundle", "ggt"),
        ("ggt invert {wrong}", "ggt", "bundle"),
        ("ggt compose {wrong} {ggt}", "ggt", "bundle"),
        ("ggt compose {ggt} {wrong}", "ggt", "hs"),
        ("gauge-group {wrong}", "bundle", "hs"),
        ("hs-gauge-group {wrong}", "hs", "bundle"),
        ("gauge-groupoid {wrong}", "bundle", "hs"),
        ("gauge-groupoid --hs {wrong}", "hs", "bundle"),
        ("gen bundle --seed 1 --groupoid {wrong}", "groupoid", "bundle"),
        ("gen hs --seed 1 --dom {wrong}", "groupoid", "hs"),
        ("gen hs --seed 1 --cod {wrong}", "groupoid", "ggt"),
    ],
)
def test_typed_inputs_refuse_a_document_of_another_kind(
    command, wanted, given, z2, unit_z2, tmp_path, capsys
):
    paths = {"groupoid": Z2, "bundle": UNIT}
    for kind, doc in (("ggt", identity_ggt(unit_z2)), ("hs", _identity_hs(z2))):
        paths[kind] = str(tmp_path / f"id.{kind}")
        Path(paths[kind]).write_text(dumps(doc))
    wrong = paths[given]
    argv = [arg.format(wrong=wrong, unit=UNIT, ggt=paths["ggt"]) for arg in command.split()]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {wrong}: expected a {wanted} document, got {given}\n"


def test_gen_is_deterministic(capsys):
    assert main(["gen", "groupoid", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "groupoid", "--seed", "3"]) == 0
    assert capsys.readouterr().out == first
    assert loads(first) == random_groupoid(GeneratorSpec(3))


def test_parser_is_shared_between_calls(capsys):
    assert main(["gen", "groupoid", "--seed", "3", "--max-objects", "2"]) == 0
    capsys.readouterr()
    assert main(["gen", "groupoid", "--seed", "3"]) == 0
    second = capsys.readouterr().out
    fresh = subprocess.run(
        [sys.executable, "-m", "gpdkit", "gen", "groupoid", "--seed", "3"],
        capture_output=True,
        text=True,
    )
    assert fresh.returncode == 0
    assert second == fresh.stdout


def test_gen_bundle_and_hs_validate(capsys):
    assert main(["gen", "bundle", "--seed", "5", "--base", "2"]) == 0
    B = loads(capsys.readouterr().out)
    assert isinstance(B, PrincipalBundle)
    assert validate_bundle(B).ok

    assert main(["gen", "hs", "--seed", "2"]) == 0
    h = loads(capsys.readouterr().out)
    assert isinstance(h, HSMorphism)
    assert validate_hs(h).ok


def test_gen_bundle_can_reuse_a_groupoid_file(capsys):
    assert main(["gen", "bundle", "--seed", "1", "--groupoid", Z2, "--base", "2"]) == 0
    B = loads(capsys.readouterr().out)
    assert B.groupoid == loads(Path(Z2).read_text())


@pytest.mark.parametrize(
    "option, fixture, witness",
    [
        ("--groupoid", "z2.gpd", "table.compose.missing[a,a]"),
        ("--dom", "pair2.gpd", "table.compose.missing[(0,0),(0,0)]"),
        ("--cod", "z2.gpd", "table.compose.missing[a,a]"),
    ],
)
def test_gen_refuses_an_invalid_groupoid_file_with_witnesses(
    option, fixture, witness, tmp_path, capsys
):
    # without the first compose row, gen used to blame its own output
    # ("built bundle fails validation") or name a missing product (exit 2)
    doc = json.loads((FIXTURES / fixture).read_text())
    del doc["body"]["compose"][0]
    bad = tmp_path / fixture
    bad.write_text(json.dumps(doc))
    what = "bundle" if option == "--groupoid" else "hs"
    assert main(["gen", what, "--seed", "3", option, str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"{bad}: 1 violations\n  {witness}\n"
    assert captured.err == ""


@pytest.mark.parametrize(
    "what, field",
    [
        ("groupoid", "max_group_order"),
        ("bundle", "max_group_order"),
        ("hs", "max_group_order"),
        ("groupoid", "max_objects"),
        ("bundle", "max_objects"),
    ],
)
def test_gen_refuses_bounds_below_one(what, field, capsys):
    # these used to end in an IndexError traceback or a randrange message
    option = "--" + field.replace("_", "-")
    assert main(["gen", what, "--seed", "1", option, "0"]) == 2
    assert capsys.readouterr().err == f"error: {field} must be at least 1\n"


@pytest.mark.parametrize(
    "what, option, value",
    [
        ("hs", "--max-objects", "2"),
        ("groupoid", "--max-total", "16"),
        ("groupoid", "--base", "2"),
        ("hs", "--base", "2"),
        ("groupoid", "--groupoid", Z2),
        ("hs", "--groupoid", Z2),
        ("groupoid", "--dom", Z2),
        ("bundle", "--dom", Z2),
        ("groupoid", "--cod", Z2),
        ("bundle", "--cod", Z2),
        ("bundle with --groupoid", "--max-objects", "0"),
        ("bundle with --groupoid", "--max-objects", "2"),
        ("bundle with --groupoid", "--max-group-order", "0"),
        ("hs with --dom", "--max-group-order", "0"),
        ("hs with --dom", "--max-group-order", "6"),
    ],
)
def test_gen_refuses_an_option_its_kind_never_reads(what, option, value, capsys):
    # even at the value the kind would use, the option is refused, not ignored;
    # "KIND with --FILE" gives that groupoid file, which replaces the bounds
    kind, _, loaded = what.partition(" with ")
    files = [loaded, Z2] if loaded else []
    assert main(["gen", kind, "--seed", "1", *files, option, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: gen {what} does not read {option}\n"


def test_gen_impossible_bundle(capsys):
    assert main(["gen", "bundle", "--seed", "0", "--groupoid", S3, "--max-total", "2"]) == 2
    assert "no fiber fits" in capsys.readouterr().err


def test_check_theorems_passes_and_reports(tmp_path, capsys):
    report = tmp_path / "report.json"
    argv = [
        "check-theorems",
        "--fixtures", str(FIXTURES),
        "--max-size", "10",
        "--report", str(report),
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert first.count("PASS ") == 20
    assert "20/20 checks passed" in first
    first_report = report.read_bytes()
    doc = json.loads(first_report)
    assert doc["ok"] is True and len(doc["checks"]) == 20

    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert report.read_bytes() == first_report


def test_check_theorems_exits_1_when_a_check_is_empty(tmp_path, capsys):
    assert main(["check-theorems", "--max-size", "1", "--fixtures", str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    marks = [line.split()[0] for line in lines[:-1]]
    assert marks.count("EMPTY") == 18 and marks.count("PASS") == 2
    assert "EMPTY prop-genconj (0 instances)" in lines
    assert lines[-1] == "2/20 checks passed"


def test_check_theorems_rejects_bad_dir(capsys):
    assert main(["check-theorems", "--fixtures", "no-such-dir"]) == 2
    assert "not a directory" in capsys.readouterr().err


def test_check_theorems_flags_corrupt_fixture(tmp_path, capsys):
    corrupted = tmp_path / "fixtures"
    shutil.copytree(FIXTURES, corrupted)
    doc = json.loads((corrupted / "z2.gpd").read_text())
    entry = next(e for e in doc["body"]["compose"] if e[:2] == ["a", "a"])
    entry[2] = "a"
    (corrupted / "z2.gpd").write_text(json.dumps(doc))
    assert main(["check-theorems", "--fixtures", str(corrupted), "--max-size", "10"]) == 1
    out = capsys.readouterr().out
    assert "FAIL def-groupoid" in out
    assert "z2.gpd" in out
    assert "19/20 checks passed" in out


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_oracle_bound_exit(monkeypatch, capsys):
    monkeypatch.setenv("GPDKIT_ORACLE_BOUNDS", "total=1")
    assert main(["morphisms", UNIT, UNIT]) == 2
    assert "refusing enumeration" in capsys.readouterr().err


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "gpdkit", "divide", UNIT, "e", "a"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "a\n"
