"""Groupoid axioms, morphisms, actions and conjugation."""

from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest

from gpdkit import (
    CONJUGATION_VARIANTS,
    GeneratorSpec,
    GroupoidMorphism,
    LeftAction,
    RightAction,
    generalized_conjugation,
    isotropy_group,
    pair_id,
    product_groupoid,
    random_groupoid,
    split_pair,
    validate_action,
    validate_groupoid,
    validate_morphism,
)
from helpers import groupoid_mutations, naive_action_compose, violation_holds

FIXTURE_NAMES = (
    "z2",
    "s3",
    "pair2",
    "pair3",
    "z2_swap",
    "gauge_z2",
)


@pytest.fixture(params=FIXTURE_NAMES)
def fixture_groupoid(request):
    return request.getfixturevalue(request.param)


def test_fixture_groupoids_validate(fixture_groupoid):
    assert validate_groupoid(fixture_groupoid).ok


def test_hom_and_endpoints(pair3):
    assert pair3.hom("0", "1") == ("(1,0)",)
    assert pair3.s("(1,0)") == "0"
    assert pair3.t("(1,0)") == "1"
    assert pair3.inv("(1,0)") == "(0,1)"
    assert pair3.mul("(2,1)", "(1,0)") == "(2,0)"
    assert pair3.u("2") == "(2,2)"


def test_mul_refuses_non_composable(pair2):
    with pytest.raises(KeyError, match="not composable"):
        pair2.mul("(1,0)", "(1,0)")


def test_source_and_target_indexes(z2_swap):
    by_source = z2_swap.by_source()
    by_target = z2_swap.by_target()
    for g in z2_swap.arrows:
        assert g in by_source[z2_swap.source[g]]
        assert g in by_target[z2_swap.target[g]]


def test_mutations_rejected_with_real_witnesses(z2, pair2):
    for G in (z2, pair2):
        for desc, mutant in groupoid_mutations(G):
            report = validate_groupoid(mutant)
            assert not report.ok, desc
            for v in report.violations:
                assert violation_holds(mutant, v), f"{desc}: {v}"


def test_missing_compose_entry_reported(pair2):
    key = min(pair2.compose)
    table = {k: v for k, v in pair2.compose.items() if k != key}
    report = validate_groupoid(replace(pair2, compose=table))
    assert ("table.compose.missing", key) in {
        (v.rule, v.witness) for v in report.violations
    }


def test_extra_compose_entry_reported(pair2):
    g = "(1,0)"
    assert pair2.source[g] != pair2.target[g]
    table = {**pair2.compose, (g, g): g}
    report = validate_groupoid(replace(pair2, compose=table))
    assert ("table.compose.extra", (g, g)) in {
        (v.rule, v.witness) for v in report.violations
    }


def test_dangling_ids_reported(z2):
    report = validate_groupoid(replace(z2, source={**z2.source, "a": "ghost"}))
    assert "table.source.dangling" in report.rules()
    report = validate_groupoid(replace(z2, inverse={**z2.inverse, "a": "ghost"}))
    assert "table.inverse.dangling" in report.rules()


def test_unit_table_must_cover_every_object(pair2):
    unit = dict(pair2.unit)
    del unit["0"]
    report = validate_groupoid(replace(pair2, unit=unit))
    assert "table.unit.missing" in report.rules()


def test_violations_render_with_witnesses(z2):
    report = validate_groupoid(replace(z2, unit={"*": "a"}))
    assert not report.ok
    text = report.render()
    assert "unit.left[e]" in text or "unit.right[e]" in text


def test_isotropy_group_is_a_groupoid(s3, pair3, gauge_z2):
    iso = isotropy_group(s3, "*")
    assert iso.arrows == s3.arrows
    assert validate_groupoid(iso).ok

    iso = isotropy_group(pair3, "0")
    assert iso.arrows == frozenset({"(0,0)"})
    assert validate_groupoid(iso).ok

    iso = isotropy_group(gauge_z2, "m0")
    assert len(iso.arrows) == 2
    assert validate_groupoid(iso).ok


def test_isotropy_group_rejects_unknown_object(z2):
    with pytest.raises(KeyError, match="not an object"):
        isotropy_group(z2, "nowhere")


def test_pair_id_round_trips():
    # pair_id must give the bytes of json.dumps, the reference here
    plain = ["x", "", "a,b", 'c"d', "]", "back\\slash", "\u00e9t\u00e9",
             "\u03c9", "\u2603", "\U0001d54a", "tab\tnl\n\x00\x1f\x7f"]
    nested = [pair_id(a, b) for a in plain[:5] for b in plain[3:7]]
    twice = [pair_id(a, b) for a in nested[:3] for b in plain[4:7]]
    ids = plain + nested + twice
    for a in ids:
        for b in ids:
            ab = pair_id(a, b)
            assert ab == json.dumps([a, b], separators=(",", ":"))
            assert split_pair(ab) == (a, b)


def test_product_groupoid_validates(z2, pair2):
    P = product_groupoid(z2, pair2)
    assert len(P.objects) == 2
    assert len(P.arrows) == 8
    assert validate_groupoid(P).ok
    g = pair_id("a", "(1,0)")
    assert P.source[g] == pair_id("*", "0")
    assert P.target[g] == pair_id("*", "1")


def test_identity_morphism_validates(s3):
    ident = GroupoidMorphism(
        s3, s3, {x: x for x in s3.objects}, {g: g for g in s3.arrows}
    )
    assert validate_morphism(ident).ok


def test_collapse_morphism_validates(pair2, z2):
    # Send every arrow of the pair groupoid to the unit of z2.
    f = GroupoidMorphism(
        pair2,
        z2,
        {x: "*" for x in pair2.objects},
        {g: "e" for g in pair2.arrows},
    )
    assert validate_morphism(f).ok


def test_broken_morphism_reports_each_law(z2, s3):
    swap = {"e": "a", "a": "e"}
    f = GroupoidMorphism(z2, z2, {"*": "*"}, swap)
    report = validate_morphism(f)
    assert "morphism.unit" in report.rules()
    assert "morphism.product" in report.rules()

    f = GroupoidMorphism(z2, s3, {"*": "*"}, {"e": "012", "a": "120"})
    report = validate_morphism(f)
    # a -> a three-cycle is not multiplicative for an involution
    assert "morphism.product" in report.rules()
    assert "derived.morphism-inverse" in report.rules()


def test_conjugation_variants_are_valid_actions(z2, s3, pair2):
    for G in (z2, s3, pair2):
        for variant in CONJUGATION_VARIANTS:
            A = generalized_conjugation(G, variant)
            assert validate_action(A).ok, (variant,)
            side = LeftAction if variant.startswith("left") else RightAction
            assert isinstance(A, side)


def test_conjugation_rejects_unknown_variant(z2):
    with pytest.raises(ValueError, match="unknown variant"):
        generalized_conjugation(z2, "middle")


def test_conjugation_momentum_orientation(s3):
    A = generalized_conjugation(s3, "left")
    m = "021"
    assert A.momentum[m] == pair_id(s3.target[m], s3.source[m])
    B = generalized_conjugation(s3, "left_bar")
    assert B.momentum[m] == pair_id(s3.source[m], s3.target[m])


def test_conjugation_recovers_ordinary_conjugation(s3):
    A = generalized_conjugation(s3, "left")
    g, m = "120", "021"
    # (g, g) . m = g m g^-1
    expected = s3.mul(s3.mul(g, m), s3.inv(g))
    assert A.apply(pair_id(g, g), m) == expected


def test_broken_action_reports_momentum_and_unit(z2, pair2):
    A = generalized_conjugation(z2, "left")
    act = dict(A.act)
    key = (pair_id("e", "e"), "a")
    act[key] = "e"
    report = validate_action(LeftAction(A.groupoid, A.carrier, A.momentum, act))
    assert "action.unit" in report.rules()

    B = generalized_conjugation(pair2, "left")
    momentum = dict(B.momentum)
    momentum["(1,0)"] = momentum["(0,0)"]
    report = validate_action(
        LeftAction(B.groupoid, B.carrier, momentum, dict(B.act))
    )
    assert not report.ok


def test_action_compose_witnesses_match_a_naive_scan(s3):
    # One object (s3) and three objects (a random groupoid with 9 arrows),
    # so arrows that do not meet are skipped; every sixth act entry is
    # rewritten to a carrier point chosen by a fixed seed.
    R = random_groupoid(GeneratorSpec(2, max_objects=3, max_group_order=3))
    assert len(R.objects) > 1
    rng = random.Random(0)
    compared = 0
    for G in (s3, R):
        for variant in CONJUGATION_VARIANTS:
            A = generalized_conjugation(G, variant)
            points = sorted(A.carrier)
            for key in sorted(A.act)[::6]:
                res = rng.choice([p for p in points if p != A.act[key]])
                B = replace(A, act={**A.act, key: res})
                got = [
                    v.witness
                    for v in validate_action(B).violations
                    if v.rule == "action.compose"
                ]
                assert got == naive_action_compose(B), (variant, key, res)
                compared += bool(got)
    assert compared > 50
