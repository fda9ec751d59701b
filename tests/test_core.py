"""Groupoid axioms, morphisms, actions and conjugation."""

from __future__ import annotations

import hashlib
import json
import random
import types
from dataclasses import fields, is_dataclass, replace

import pytest

import gpdkit
from gpdkit import (
    CONJUGATION_VARIANTS,
    FiniteGroupoid,
    GeneratorError,
    GeneratorSpec,
    GroupoidMorphism,
    LeftAction,
    PrincipalBundle,
    RightAction,
    Violation,
    dumps,
    fibred_product,
    generalized_conjugation,
    group_table,
    hs_fibred_product,
    hs_from_groupoid_morphism,
    hs_product,
    isotropy_group,
    make_group_groupoid,
    make_pair_groupoid,
    pair_id,
    product_bundle,
    product_groupoid,
    pullback_bundle,
    random_bundle,
    random_groupoid,
    random_hs,
    split_pair,
    trivialize,
    unit_bundle,
    validate_action,
    validate_groupoid,
    validate_morphism,
)
from helpers import (
    groupoid_mutations,
    naive_action_compose,
    naive_action_violations,
    naive_associativity,
    reference_conjugation,
    reference_fibred_product,
    reference_hs_fibred_product,
    reference_hs_product,
    reference_product_bundle,
    reference_product_groupoid,
    reference_pullback_bundle,
    violation_holds,
)

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
    assert pair3.source["(1,0)"] == "0"
    assert pair3.target["(1,0)"] == "1"
    assert pair3.inv("(1,0)") == "(0,1)"
    assert pair3.mul("(2,1)", "(1,0)") == "(2,0)"
    assert pair3.unit["2"] == "(2,2)"


def test_mul_refuses_non_composable(pair2):
    with pytest.raises(KeyError, match="not composable"):
        pair2.mul("(1,0)", "(1,0)")


def test_source_and_target_indexes(z2_swap):
    by_source = z2_swap.by_source()
    by_target = z2_swap.by_target()
    for g in z2_swap.arrows:
        assert g in by_source[z2_swap.source[g]]
        assert g in by_target[z2_swap.target[g]]
    # an arrow with a missing endpoint, or one off the objects, is skipped
    x = min(z2_swap.objects)
    G = replace(
        z2_swap,
        arrows=z2_swap.arrows | {"loose", "stray"},
        source={**z2_swap.source, "stray": x},
        target={**z2_swap.target, "loose": x, "stray": "nowhere"},
    )
    assert G.by_source() == by_source and G.by_target() == by_target


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


def test_keys_that_are_not_pairs_are_reported_not_raised(z2):
    # a str, a 3-tuple and an int compose key are each reported by its
    # ids; none is compared with a pair key or unpacked as a pair
    for key, witness in (("ee", ("ee",)), (("a", "a", "a"), ("a", "a", "a")), (5, ("5",))):
        report = validate_groupoid(replace(z2, compose={**z2.compose, key: "e"}))
        assert [(v.rule, v.witness) for v in report.violations] == [
            ("table.compose.unknown-key", witness)
        ]
    report = validate_groupoid(replace(z2, source={**z2.source, 5: "e"}))
    assert [(v.rule, v.witness) for v in report.violations] == [
        ("table.source.unknown-key", ("5",))
    ]


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
    assert A.act[(pair_id(g, g), m)] == expected


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


def test_action_witnesses_match_a_naive_scan(s3):
    # The full violation list, table.act.* included, under act rewrites,
    # deletions, an entry keyed by an unknown arrow, extra entries, a
    # dangling value and momentum rewrites, on both sides.
    R = random_groupoid(GeneratorSpec(2, max_objects=3, max_group_order=3))
    rng = random.Random(1)
    compared = set()
    for G in (s3, R):
        for variant in CONJUGATION_VARIANTS:
            A = generalized_conjugation(G, variant)
            left = isinstance(A, LeftAction)
            points, keys = sorted(A.carrier), sorted(A.act)
            arrows = sorted(A.groupoid.arrows)
            mutants = [A]
            for key in keys[::15]:
                res = rng.choice([p for p in points if p != A.act[key]])
                mutants.append(replace(A, act={**A.act, key: res}))
                mutants.append(replace(A, act={k: v for k, v in A.act.items() if k != key}))
                mutants.append(replace(A, act={**A.act, key: "gone\u00e9"}))
            for m in points[::2]:
                g = rng.choice(arrows)
                for key in ((g, m), ("no\"arrow", m)):
                    key = key if left else key[::-1]
                    if key not in A.act:
                        mutants.append(replace(A, act={**A.act, key: rng.choice(points)}))
                for x in sorted(A.groupoid.objects - {A.momentum[m]})[:1]:
                    mutants.append(replace(A, momentum={**A.momentum, m: x}))
            for B in mutants:
                got = [(v.rule, v.witness) for v in validate_action(B).violations]
                assert got == naive_action_violations(B), variant
                compared.update(rule for rule, _ in got)
    assert compared == {
        "table.act.missing",
        "table.act.unknown-key",
        "table.act.extra",
        "table.act.dangling",
        "action.momentum",
        "action.compose",
        "action.unit",
    }


def test_action_witnesses_where_some_arrows_act_on_no_point():
    # A bundle over one component of a groupoid with two or three: the
    # other components' arrows act on no point, and validate_action skips
    # their composites.  Deleting those composites, or adding keys on
    # them whose factors are not composable, must leave the witnesses of
    # act rewrites as the naive scan finds them, on both sides (the left
    # action moves m by g^-1 where the right one moves it by g).
    compared = set()
    for seed in (2, 4, 5, 7):
        G = random_groupoid(GeneratorSpec(seed, max_objects=3, max_group_order=3))
        x = min(G.objects)
        B = pullback_bundle(unit_bundle(G), {"m0": x, "m1": x})
        anchors = set(B.momentum.values())
        idle = [g for g in sorted(G.arrows) if G.target[g] not in anchors]
        assert idle, seed
        arrows = sorted(G.arrows)
        composes = [G.compose]
        composes += [{k: v for k, v in G.compose.items() if g not in k} for g in idle]
        composes += [
            {**G.compose, (g, h): g}
            for g in idle
            for h in arrows
            if G.source[g] != G.target[h]
        ][:4]
        right = B.right_action()
        flipped = {(G.inverse[g], m): v for (m, g), v in right.act.items()}
        for A in (right, LeftAction(G, right.carrier, right.momentum, flipped)):
            points = sorted(A.carrier)
            acts = [A.act] + [
                {**A.act, key: points[(points.index(A.act[key]) + 1) % len(points)]}
                for key in sorted(A.act)[::5]
            ]
            for compose in composes:
                for act in acts:
                    M = replace(A, groupoid=replace(G, compose=compose), act=act)
                    got = [(v.rule, v.witness) for v in validate_action(M).violations]
                    assert got == naive_action_violations(M), seed
                    compared.update(rule for rule, _ in got)
    assert {"action.momentum", "action.compose"} <= compared


def _decider_corpus(docs):
    """Every single-entry rewrite and every compose-entry deletion of small
    groupoids, and each with a compose key on an id outside its arrows."""
    z3 = make_group_groupoid(group_table("z3"))
    groupoids = [docs["z2.gpd"], docs["s3.gpd"], z3, docs["pair3.gpd"]]
    groupoids += [
        random_groupoid(GeneratorSpec(s, max_objects=3, max_group_order=3)) for s in (2, 4, 7)
    ]
    for i, G in enumerate(groupoids):
        yield f"{i}", G
        for desc, mutant in groupoid_mutations(G):
            yield f"{i} {desc}", mutant
        for key in sorted(G.compose):
            table = {k: v for k, v in G.compose.items() if k != key}
            yield f"{i} compose[{key}] deleted", replace(G, compose=table)
        g = min(G.arrows)
        yield f"{i} compose[('?', {g})]", replace(G, compose={**G.compose, ("?", g): g})


def _compose_decided(report) -> bool:
    """Whether validate_groupoid decided associativity by Light's test:
    every arrow has both endpoints, the compose table is exact and every
    composite has the endpoints of its factors."""
    undecided = ("table.source.", "table.target.", "table.compose.", "product.")
    return not any(v.rule.startswith(undecided) for v in report.violations)


def test_associativity_witnesses_match_a_naive_scan(docs, monkeypatch):
    """validate_groupoid decides associativity by Light's test when its
    compose table is exact, and explains with its loops: each report
    equals the loops' own, and its associativity witnesses those of the
    naive scan.  Rewrites within a hom set keep the table exact, so
    Light's test decides them."""
    corpus = list(_decider_corpus(docs))
    decided = [validate_groupoid(G) for _, G in corpus]
    monkeypatch.setattr(gpdkit.core, "_compose_exact", lambda *args: False)
    rejected = 0
    for (desc, G), report in zip(corpus, decided):
        assert report.violations == validate_groupoid(G).violations, desc
        got = [v.witness for v in report.violations if v.rule == "associativity"]
        assert got == naive_associativity(G), desc
        rejected += bool(got) and _compose_decided(report)
    # 1,607 reports: 674 decided by Light's test, 290 of them not associative
    assert rejected > 200
    assert sum(not _compose_decided(report) for report in decided) > 500


def test_compose_exact_on_the_empty_table_and_a_non_pair_key(z2):
    """The two early answers of _compose_exact: a groupoid without arrows
    has the empty compose table, which is exact; a table with as many
    entries as composable pairs but a key that is not a pair (a string,
    or a triple) is not, and the explaining loops name that key."""
    empty = FiniteGroupoid(frozenset(), frozenset(), {}, {}, {}, {}, {})
    assert gpdkit.core._compose_exact(empty, [], {}) is True
    assert validate_groupoid(empty).ok
    first = min(z2.compose)
    for key, ids in (("aa", "aa"), (("a", "a", "e"), "a,a,e")):
        compose = {k: v for k, v in z2.compose.items() if k != first}
        G = replace(z2, compose={**compose, key: z2.compose[first]})
        assert len(G.compose) == len(z2.compose)
        assert gpdkit.core._compose_exact(G, sorted(G.arrows), G.by_target()) is False
        assert [str(v) for v in validate_groupoid(G).violations] == [
            "table.compose.missing[a,a]",
            f"table.compose.unknown-key[{ids}]",
        ]


UNIT_INVERSE_RULES = (
    "unit.endpoints",
    "unit.left",
    "unit.right",
    "inverse.endpoints",
    "inverse.left",
    "inverse.right",
)


def _unit_inverse_mutants(z2):
    """(rule, groupoid) pairs on which rule fires while every structure
    table is total and the compose table stays exact, so only the unit
    and inverse loops can find them.  Each but inverse.endpoints breaks
    its law at one column of arrows or objects only."""
    alone = replace(z2, objects=z2.objects | {"x"}, unit={**z2.unit, "x": "e"})
    z3 = make_group_groupoid(group_table("z3"))
    pair2 = make_pair_groupoid(2)
    # v4 with each of a, b, c sent to the next as its inverse, and the
    # products of each with its new inverse on one side made the unit
    v4 = make_group_groupoid(group_table("v4"))
    turn = {"e": "e", "a": "b", "b": "c", "c": "a"}
    rights = {(x, turn[x]): "e" for x in "abc"}
    lefts = {(turn[x], x): "e" for x in "abc"}
    return [
        ("unit.endpoints", alone),
        ("unit.left", replace(z3, compose={**z3.compose, ("e", "c1"): "c2"})),
        ("unit.right", replace(z3, compose={**z3.compose, ("c1", "e"): "c2"})),
        ("inverse.endpoints", replace(pair2, inverse={**pair2.inverse, "(0,1)": "(0,1)"})),
        ("inverse.left", replace(v4, inverse=turn, compose={**v4.compose, **rights})),
        ("inverse.right", replace(v4, inverse=turn, compose={**v4.compose, **lefts})),
    ]


def _naive_unit_inverse(G: FiniteGroupoid) -> list[tuple]:
    """(rule, *witness) for every unit.* and inverse.* candidate that
    violation_holds confirms, by rule, then in candidate order."""
    objects, arrows = sorted(G.objects), sorted(G.arrows)
    candidates = {
        "unit.endpoints": [(x, e) for x in objects for e in arrows],
        "unit.left": [(g,) for g in arrows],
        "unit.right": [(g,) for g in arrows],
        "inverse.endpoints": [(g, h) for g in arrows for h in arrows],
        "inverse.left": [(g,) for g in arrows],
        "inverse.right": [(g,) for g in arrows],
    }
    return [
        (rule, *w)
        for rule in UNIT_INVERSE_RULES
        for w in candidates[rule]
        if violation_holds(G, Violation(rule, w))
    ]


def test_unit_and_inverse_witnesses_match_a_naive_scan(docs, z2):
    """validate_groupoid's unit and inverse loops name every violation: on
    each mutant of _unit_inverse_mutants, whose structure tables are total
    and whose compose table is exact, the rule fires, and on the decider
    corpus the unit and inverse witnesses are those of the naive scan."""
    mutants = _unit_inverse_mutants(z2)
    corpus = list(_decider_corpus(docs)) + mutants
    for rule, G in mutants:
        report = validate_groupoid(G)
        assert rule in report.rules(), rule
        assert not any(v.rule.startswith(("table.", "product.")) for v in report.violations)
    for desc, G in corpus:
        report = validate_groupoid(G)
        got = [(v.rule, *v.witness) for v in report.violations if v.rule in UNIT_INVERSE_RULES]
        got.sort(key=lambda w: UNIT_INVERSE_RULES.index(w[0]))
        assert got == _naive_unit_inverse(G), desc


def _escaped(G: FiniteGroupoid, tag: str) -> FiniteGroupoid:
    # ids that pair_id must escape: a quote, a backslash, non-ASCII
    f = {x: f'{x}"\\{tag}\u00e9\u2603' for x in G.objects | G.arrows}.__getitem__
    return FiniteGroupoid(
        frozenset(map(f, G.objects)),
        frozenset(map(f, G.arrows)),
        {f(g): f(x) for g, x in G.source.items()},
        {f(g): f(x) for g, x in G.target.items()},
        {f(x): f(g) for x, g in G.unit.items()},
        {f(g): f(h) for g, h in G.inverse.items()},
        {(f(a), f(b)): f(c) for (a, b), c in G.compose.items()},
    )


def test_products_match_a_pair_id_reference(z2, pair2, s3):
    def same(got, want):
        assert got == want
        assert dumps(got) == dumps(want)

    R = random_groupoid(GeneratorSpec(2, max_objects=3, max_group_order=3))
    groupoids = [_escaped(G, str(i)) for i, G in enumerate((z2, pair2, s3, R))]
    for G1 in groupoids:
        for G2 in groupoids[:2]:
            same(product_groupoid(G1, G2), reference_product_groupoid(G1, G2))
        for variant in CONJUGATION_VARIANTS:
            same(generalized_conjugation(G1, variant), reference_conjugation(G1, variant))

    bundles = [unit_bundle(G) for G in groupoids]
    for i, G in enumerate(groupoids):
        try:
            bundles.append(random_bundle(G, 2, GeneratorSpec(10 + i, max_total=12)))
        except GeneratorError:
            pass
    assert len(bundles) > len(groupoids)
    for B1 in bundles:
        f = {f'n"{i}\u00e9': x for i, x in enumerate(sorted(B1.base) * 2)}
        same(pullback_bundle(B1, f), reference_pullback_bundle(B1, f))
        for B2 in bundles[:2]:
            same(product_bundle(B1, B2), reference_product_bundle(B1, B2))
        for B2 in bundles:
            if B1.base == B2.base:
                same(fibred_product(B1, B2), reference_fibred_product(B1, B2))

    built = 0
    for seed in range(6):
        G = _escaped(random_groupoid(GeneratorSpec(seed, max_objects=2, max_group_order=4)), "d")
        H = _escaped(random_groupoid(GeneratorSpec(seed + 40, max_objects=2, max_group_order=3)), "c")
        try:
            h1 = random_hs(G, H, GeneratorSpec(seed + 80, max_total=8))
            h2 = random_hs(G, H, GeneratorSpec(seed + 120, max_total=8))
        except GeneratorError:
            continue
        same(hs_product(h1, h2), reference_hs_product(h1, h2))
        same(hs_fibred_product(h1, h2), reference_hs_fibred_product(h1, h2))
        built += 1
    assert built >= 2


def _feed(h, s) -> None:
    """Feed h every table of s in insertion order, field by field; a
    frozenset has no order, so its sorted members."""
    if is_dataclass(s):
        for f in fields(s):
            _feed(h, getattr(s, f.name))
    elif isinstance(s, dict):
        h.update(repr(list(s.items())).encode())
    elif isinstance(s, frozenset):
        h.update(repr(sorted(s)).encode())
    else:
        h.update(repr(s).encode())


def _digest(structures) -> str:
    h = hashlib.sha256()
    for s in structures:
        _feed(h, s)
    return h.hexdigest()


def _inclusion(G: FiniteGroupoid) -> GroupoidMorphism:
    x = min(G.objects)
    iso = isotropy_group(G, x)
    return GroupoidMorphism(iso, G, {x: x}, {g: g for g in sorted(iso.arrows)})


def _identity(G: FiniteGroupoid) -> GroupoidMorphism:
    return GroupoidMorphism(
        G, G, {x: x for x in sorted(G.objects)}, {g: g for g in sorted(G.arrows)}
    )


# sha256 of the tables of each product construction's outputs, in insertion
# order (_digest), over the inputs of test_product_table_orders_are_pinned
PRODUCT_ORDER_DIGESTS = {
    "product_groupoid": "b80c6f0dc446620ef0df6700a0639a5573e88ae900885069a7158939135e581b",
    "conjugation left": "de445b7634215451cab8c59cbba44d1793549a5fd0354ceb4b55a9e81cebea55",
    "conjugation left_bar": "85e3d924f31a5c3e163869776a76653b0d982e11be2e387d628f54a43aa308f8",
    "conjugation right": "2c2aedfce493671301bca21b421c5edfad1714f83753c1013710b94c225e0ea0",
    "conjugation right_bar": "6a0f31ca0bb6245e3d5211096fd2ec9e10e8e6a6301ac51b37e1c35573b828c2",
    "hs_from_groupoid_morphism": "aef7f40055eb8dbcadf27d34b7277ff5eb072c0ec99fa19eed2e95ab3e15a195",
    "random_bundle": "d46420d76b3b3d6bfcb95ec953d17bd6cb626e38f0b84f3646b9628ed3b8ced1",
    "pullback_bundle": "1e78f77a25b1f644bd4e3837b9b2bfd85e0d0b3ac4088597ae505532c6126e47",
    "trivialize": "e0085bac3f8f08a47734937e41da590ca8c0e9e56439b13775673b217876cfd4",
    "product_bundle": "c6322a6094d765029656110c62274d0fea9d6d25f68cdcf31cd1216cee1c9f9a",
    "fibred_product": "8987fb83753d242bb152263ef0511d77394d54e781fe34e48523ac84ba403734",
    "random_hs": "eeb0f0a97bbae4f93d86c81003f2c462b9ffac048110fb0d8d5fd066b9ff9299",
    "hs_product": "d24faf57cb2331cbf226e7ff6a0dfc1feeb648297f549eb089c16f50db9a8206",
    "hs_fibred_product": "cffa000484d9196af4613d9d8adfe7521a707e8baa46e298d05362ae89083176",
}


def test_product_table_orders_are_pinned(z2, pair2, s3):
    """Every table a product construction builds keeps its insertion order.

    dumps and == cannot see an order change; these digests hash each
    table's items as they are stored, so a construction that names its
    pairs some other way must still insert them in the same order.
    """
    R = random_groupoid(GeneratorSpec(2, max_objects=3, max_group_order=3))
    groupoids = [_escaped(G, str(i)) for i, G in enumerate((z2, pair2, s3, R))]
    for seed in (3, 7):
        groupoids.append(random_groupoid(GeneratorSpec(seed, max_objects=3, max_group_order=4)))
    out: dict[str, list] = {name: [] for name in PRODUCT_ORDER_DIGESTS}
    for G1 in groupoids:
        for G2 in groupoids[:2] + groupoids[-1:]:
            out["product_groupoid"].append(product_groupoid(G1, G2))
        for variant in CONJUGATION_VARIANTS:
            out[f"conjugation {variant}"].append(generalized_conjugation(G1, variant))
        out["hs_from_groupoid_morphism"].append(hs_from_groupoid_morphism(_identity(G1)))
        out["hs_from_groupoid_morphism"].append(hs_from_groupoid_morphism(_inclusion(G1)))

    bundles = [unit_bundle(G) for G in groupoids]
    for i, G in enumerate(groupoids):
        try:
            out["random_bundle"].append(random_bundle(G, 2, GeneratorSpec(10 + i, max_total=12)))
        except GeneratorError:
            pass
    bundles += out["random_bundle"]
    for B1 in bundles:
        f = {f'n"{i}é': x for i, x in enumerate(sorted(B1.base) * 2)}
        out["pullback_bundle"].append(pullback_bundle(B1, f))
        out["trivialize"].append(trivialize(B1, {m: B1.fiber(m)[-1] for m in sorted(B1.base)}))
        for B2 in bundles[:2]:
            out["product_bundle"].append(product_bundle(B1, B2))
        for B2 in bundles:
            if B1.base == B2.base:
                out["fibred_product"].append(fibred_product(B1, B2))

    for seed in range(6):
        G = _escaped(random_groupoid(GeneratorSpec(seed, max_objects=2, max_group_order=4)), "d")
        H = random_groupoid(GeneratorSpec(seed + 40, max_objects=2, max_group_order=3))
        try:
            h1 = random_hs(G, H, GeneratorSpec(seed + 80, max_total=8))
            h2 = random_hs(G, H, GeneratorSpec(seed + 120, max_total=8))
        except GeneratorError:
            continue
        out["random_hs"] += [h1, h2]
        out["hs_product"].append(hs_product(h1, h2))
        out["hs_fibred_product"] += [hs_fibred_product(h1, h2), hs_fibred_product(h2, h2)]
    assert all(out.values())
    assert {name: _digest(built) for name, built in out.items()} == PRODUCT_ORDER_DIGESTS


def _deletions(s):
    """Each copy of s, a groupoid or a bundle, with one entry of one of its
    tables (or of its groupoid's) deleted: (description, copy) pairs."""
    if isinstance(s, PrincipalBundle):
        yield from (
            (f"groupoid.{desc}", replace(s, groupoid=G)) for desc, G in _deletions(s.groupoid)
        )
        names = ("projection", "momentum", "act")
    else:
        names = ("source", "target", "unit", "inverse", "compose")
    for name in names:
        table = getattr(s, name)
        for key in sorted(table):
            rest = {k: v for k, v in table.items() if k != key}
            yield f"{name} {key!r}", replace(s, **{name: rest})


# sha256 of the outcome lines of test_product_error_texts_are_pinned, by
# construction: the error's type and text, or the digest of the output
PRODUCT_ERROR_DIGESTS = {
    "product_groupoid": "578562757ba70176869f4dd2b4693d7b1642d89ab6a53fe577ce7358b0afcb5a",
    "generalized_conjugation": "57535ff2ebb6dcf8bd9796d65fc0eeaa8a30c31fb78816f4f42922dd3299a708",
    "product_bundle": "b6b01a93ad9b8923aed2808ef45bf5b2a5726d6bc2a8530a4e1ef1b0e39f6878",
    "fibred_product": "9df6108b45226f320c78e53db631aadb84b6ed2238384613d5e632e5c2ca5b92",
    "pullback_bundle": "848e99f91e143235ca0a4fca392638cbfd15de7e494e532ee7d40f70318ee127",
}


def test_product_error_texts_are_pinned(z2, pair2, unit_z2):
    """A product of inputs with one table entry deleted raises the same
    error, or builds the same tables, as it always has."""
    B = random_bundle(pair2, 2, GeneratorSpec(3, max_total=6))
    cases = {
        "product_groupoid": [(product_groupoid, (z2, pair2)), (product_groupoid, (pair2, z2))],
        "generalized_conjugation": [
            (lambda G, v=v: generalized_conjugation(G, v), (pair2,)) for v in CONJUGATION_VARIANTS
        ],
        "product_bundle": [(product_bundle, (unit_z2, B)), (product_bundle, (B, unit_z2))],
        "fibred_product": [(fibred_product, (B, B))],
        "pullback_bundle": [(lambda B1: pullback_bundle(B1, {"u": "m1", "v": "m0"}), (B,))],
    }
    digests = {}
    for name, calls in cases.items():
        lines, raised = [], 0
        for make, args in calls:
            for i, arg in enumerate(args):
                for desc, mutant in _deletions(arg):
                    mutated = args[:i] + (mutant,) + args[i + 1 :]
                    try:
                        outcome = _digest([make(*mutated)])
                    except Exception as e:
                        outcome = f"{type(e).__name__}: {e}"
                        raised += 1
                    lines.append(f"{i} {desc}: {outcome}\n")
        assert raised, name
        digests[name] = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digests == PRODUCT_ERROR_DIGESTS


def test_products_refuse_undeclared_ids(z2):
    # products name pairs from rows over the declared ids; a table value
    # off them is refused by name instead of paired into the product
    for name in ("source", "inverse"):
        G = replace(z2, **{name: {**getattr(z2, name), "a": "ghost"}})
        with pytest.raises(KeyError, match="ghost"):
            product_groupoid(G, z2)
        with pytest.raises(KeyError, match="ghost"):
            generalized_conjugation(G)


def test_package_reexports_each_module_all():
    # written out, so a name dropped from some module's __all__ fails here
    expected = """
        BundleIso BundleMorphism CHECKS CONJUGATION_VARIANTS CheckResult
        FiniteGroupoid GGT GROUP_NAMES GaugeGroup GaugeGroupoid
        GaugeTransformation GeneratorError GeneratorSpec GroupoidMorphism
        HSBundleMorphism HSMorphism IntegrityError KINDS LeftAction
        NotSameFiberError ORACLE_BOUNDS_ENV OracleBoundError OracleBounds
        PrincipalBundle RightAction SchemaError ValidationReport Violation
        build_gauge_groupoid build_hs_gauge_groupoid check_division_invariance
        division_map dumps enumerate_bundle_morphisms enumerate_ggts
        fibred_product fixture_documents gauge_group gauge_to_ggt
        generalized_conjugation ggt_to_gauge ggt_to_morphism group_table
        hs_fibred_product hs_from_groupoid_morphism hs_gauge_group
        hs_ggt_to_morphism hs_morphism_to_ggt hs_product identity_ggt
        invert_ggt is_left_invariant_ggt isotropy_group kind_of loads
        make_action_groupoid make_gauge_groupoid_example make_group_groupoid
        make_pair_groupoid morphism_to_ggt oracle_bounds pair_id
        product_bundle product_groupoid pullback_bundle random_bundle
        random_groupoid random_hs render_report report_document run_checks
        split_pair star trivialize unit_bundle validate_action
        validate_bundle validate_bundle_morphism validate_gauge_transformation
        validate_ggt validate_groupoid validate_hs validate_hs_ggt
        validate_hs_morphism validate_morphism verify_division_properties
        verify_hs_division_properties
    """.split()
    public = {
        name
        for name, value in vars(gpdkit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public) == sorted(expected)
