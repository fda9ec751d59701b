"""Principal bundles, division maps and bundle constructions."""

from __future__ import annotations

import copy
import pickle
from dataclasses import replace

import pytest

from gpdkit import (
    GeneratorError,
    GeneratorSpec,
    IntegrityError,
    NotSameFiberError,
    PrincipalBundle,
    division_map,
    dumps,
    fibred_product,
    group_table,
    loads,
    make_group_groupoid,
    pair_id,
    product_bundle,
    pullback_bundle,
    random_bundle,
    random_groupoid,
    random_hs,
    split_pair,
    trivialize,
    unit_bundle,
    validate_bundle,
    verify_division_properties,
)
from gpdkit.bundles import _unit_pullback

from helpers import (
    bundle_mutations,
    naive_bundle_violations,
    naive_divisions,
    naive_fibers,
    naive_moves,
    naive_quotients,
    naive_self_pairs,
    reference_unit_pullback,
)


def test_unit_bundles_validate(z2, s3, pair3, z2_swap):
    for G in (z2, s3, pair3, z2_swap):
        U = unit_bundle(G)
        assert validate_bundle(U).ok
        assert U.total == G.arrows
        assert U.base == G.objects


def test_unit_bundle_division_is_invert_then_compose(z2, s3, pair3):
    for G in (z2, s3, pair3):
        U = unit_bundle(G)
        for g in sorted(U.total):
            for h in sorted(U.total):
                if U.projection[g] != U.projection[h]:
                    continue
                assert division_map(U, g, h) == G.mul(G.inv(g), h)


def test_division_frozen_values(unit_z2, unit_pair2):
    assert division_map(unit_z2, "e", "a") == "a"
    assert division_map(unit_z2, "a", "a") == "e"
    # d((0,1), (0,0)) = (0,1)^-1 (0,0) = (1,0)(0,0) = (1,0)
    assert division_map(unit_pair2, "(0,1)", "(0,0)") == "(1,0)"


def test_division_rejects_cross_fiber_pairs(unit_pair2):
    with pytest.raises(NotSameFiberError, match="different base points"):
        division_map(unit_pair2, "(0,0)", "(1,1)")


def test_division_rejects_unknown_points(unit_z2):
    with pytest.raises(KeyError, match="not a total point"):
        division_map(unit_z2, "e", "ghost")


def test_division_integrity_errors(z2):
    # No solution: drop the act entry that divides q by p.
    U = unit_bundle(z2)
    act = dict(U.act)
    del act[("e", "a")]
    broken = replace(U, act=act)
    with pytest.raises(IntegrityError, match="no solution"):
        division_map(broken, "e", "a")
    assert "division.defined" in verify_division_properties(broken).rules()

    # Multiple solutions: both arrows fix the single point.
    fat = PrincipalBundle(
        groupoid=z2,
        total=frozenset({"p"}),
        base=frozenset({"m"}),
        projection={"p": "m"},
        momentum={"p": "*"},
        act={("p", "e"): "p", ("p", "a"): "p"},
    )
    with pytest.raises(IntegrityError, match="multiple solutions"):
        division_map(fat, "p", "p")


def test_division_properties_on_fixtures(unit_z2, unit_s3, unit_pair2):
    for B in (unit_z2, unit_s3, unit_pair2):
        assert verify_division_properties(B).ok


def test_division_properties_on_random_bundles():
    checked = 0
    for seed in range(8):
        G = random_groupoid(GeneratorSpec(seed, max_objects=3))
        try:
            B = random_bundle(G, 2, GeneratorSpec(seed, max_total=12))
        except GeneratorError:
            continue
        assert validate_bundle(B).ok
        assert verify_division_properties(B).ok
        checked += 1
    assert checked >= 5


def test_non_principal_bundle_is_rejected(z2):
    fat = PrincipalBundle(
        groupoid=z2,
        total=frozenset({"p"}),
        base=frozenset({"m"}),
        projection={"p": "m"},
        momentum={"p": "*"},
        act={("p", "e"): "p", ("p", "a"): "p"},
    )
    assert "bundle.free" in validate_bundle(fat).rules()

    U = unit_bundle(z2)
    act = {k: v for k, v in U.act.items() if k[0] != "a"}
    report = validate_bundle(replace(U, act=act))
    assert "table.act.missing" in report.rules()


def test_projection_rules(unit_pair2):
    base = frozenset(unit_pair2.base | {"extra"})
    report = validate_bundle(replace(unit_pair2, base=base))
    assert "bundle.projection-surjective" in report.rules()

    projection = {**unit_pair2.projection, "(0,1)": "1"}
    report = validate_bundle(replace(unit_pair2, projection=projection))
    assert "bundle.projection-invariant" in report.rules()


def test_an_empty_fiber_breaks_only_projection_surjectivity(unit_pair2):
    B = random_bundle(random_groupoid(GeneratorSpec(2, max_objects=3)), 2, GeneratorSpec(7))
    for valid in (unit_pair2, B):
        assert validate_bundle(valid).ok
        report = validate_bundle(replace(valid, base=valid.base | {"empty"}))
        assert [(v.rule, v.witness) for v in report.violations] == [
            ("bundle.projection-surjective", ("empty",))
        ]


def _bundle_law_mutants(z2, unit_z2):
    """(rule, bundle) pairs on which rule fires: each bundle carries a valid
    action of its groupoid, so only the bundle rules can catch it."""
    one = make_group_groupoid(group_table("trivial"))

    def bundle(G, projection: dict, act: dict) -> PrincipalBundle:
        return PrincipalBundle(
            G, frozenset(projection), frozenset(projection.values()), projection,
            {p: "*" for p in projection}, act,
        )

    # z2 fixing one point: its row has the fiber's points, but twice
    fat = bundle(z2, {"p": "m"}, {("p", "e"): "p", ("p", "a"): "p"})
    # the trivial group on two points over one base point: each row reaches one
    lonely = bundle(one, {"p": "m", "q": "m"}, {("p", "e"): "p", ("q", "e"): "q"})
    # z2 swapping two fibers of two points: each row has its fiber's size
    # but lands in the other fiber
    points = {"p0": "m0", "p1": "m0", "q0": "m1", "q1": "m1"}
    swap = {"p0": "q0", "q0": "p0", "p1": "q1", "q1": "p1"}
    act = {(x, "e"): x for x in points} | {(x, "a"): y for x, y in swap.items()}
    crossing = bundle(z2, points, act)
    extra = replace(unit_z2, base=unit_z2.base | {"extra"})
    return [
        ("bundle.free", fat),
        ("bundle.transitive", lonely),
        ("bundle.projection-invariant", crossing),
        ("bundle.projection-surjective", extra),
    ]


def test_bundle_law_witnesses_match_a_naive_scan(z2, unit_z2, unit_pair2, unit_s3):
    """validate_bundle's projection-invariance, freeness and transitivity
    loops name every violation.  Each mutant of _bundle_law_mutants breaks
    its rule and no action rule, so only those loops can find it.  On
    these, on every single-entry mutant of three unit bundles and on an
    act value that is not a point id, the bundle.* witnesses are those of
    the naive scan."""
    for rule, B in _bundle_law_mutants(z2, unit_z2):
        report = validate_bundle(B)
        assert rule in report.rules(), rule
        assert all(v.rule.startswith("bundle.") for v in report.violations), rule
        got = [(v.rule, *v.witness) for v in report.violations]
        assert got == naive_bundle_violations(B), rule
    mutants = [m for B in (unit_z2, unit_pair2, unit_s3) for m in bundle_mutations(B)]
    # an act value that is no point id, beside the ids of its row
    mutants.append(("act value None", replace(unit_z2, act={**unit_z2.act, ("e", "a"): None})))
    for desc, M in mutants:
        report = validate_bundle(M)
        got = [(v.rule, *v.witness) for v in report.violations if v.rule.startswith("bundle.")]
        assert got == naive_bundle_violations(M), desc


def test_pullback_bundle(unit_z2):
    pulled = pullback_bundle(unit_z2, {"n0": "*", "n1": "*"})
    assert validate_bundle(pulled).ok
    assert pulled.base == frozenset({"n0", "n1"})
    assert len(pulled.total) == 4
    for p in pulled.total:
        m, g = split_pair(p)
        assert pulled.projection[p] == m
        assert pulled.momentum[p] == unit_z2.momentum[g]


def test_pullback_rejects_bad_anchor(unit_z2):
    with pytest.raises(ValueError, match="not a base point"):
        pullback_bundle(unit_z2, {"n0": "nowhere"})


def _compose_mutants(G):
    """G; each copy of G with one compose entry deleted, or its value
    rewritten to another arrow; and G with a key added whose factors are
    not composable, when two arrows are not."""
    yield "as is", G
    arrows = sorted(G.arrows)
    for key in sorted(G.compose):
        yield f"del compose[{key}]", replace(
            G, compose={k: v for k, v in G.compose.items() if k != key}
        )
        for c in arrows:
            if c != G.compose[key]:
                yield f"compose[{key}] -> {c}", replace(G, compose={**G.compose, key: c})
    apart = [(a, b) for a in arrows for b in arrows if G.source[a] != G.target[b]]
    if apart:
        yield f"compose[{apart[0]}] added", replace(G, compose={**G.compose, apart[0]: arrows[0]})


def _pullback_outcome(build) -> tuple:
    """The tables of the bundle build() returns, in insertion order, or
    the type and text of what it raises."""
    try:
        B = build()
    except Exception as e:
        return type(e), str(e)
    tables = [list(t.items()) for t in (B.projection, B.momentum, B.act)]
    return B.groupoid, sorted(B.total), sorted(B.base), tables


def test_unit_pullbacks_read_the_groupoid_tables(z2, pair2):
    """Trivializations, random bundles and the bibundles of groupoid
    morphisms pull the unit bundle back from G's tables, without building
    it.  The result has the tables of pullback_bundle(unit_bundle(G), f),
    in the same order, and raises the same errors: on random groupoids,
    on every single-entry deletion and value rewrite of their compose
    tables, and with a key added whose factors are not composable, which
    the act table keeps as every compose key of a pulled-back arrow."""
    groupoids = [z2, pair2]
    groupoids += [
        random_groupoid(GeneratorSpec(s, max_objects=3, max_group_order=3)) for s in (2, 4, 5, 7)
    ]
    added = 0
    for G in groupoids:
        objects = sorted(G.objects)
        maps = (
            {f"m{i}": x for i, x in enumerate(objects * 2)},
            {"m0": objects[-1]},
            {"m0": objects[0], "m1": "nowhere"},
        )
        for desc, M in _compose_mutants(G):
            added += desc.endswith("added")
            for f in maps:
                got = _pullback_outcome(lambda: _unit_pullback(M, f)[0])
                assert got == _pullback_outcome(lambda: pullback_bundle(unit_bundle(M), f)), desc
                assert got == _pullback_outcome(lambda: reference_unit_pullback(M, f)), desc
    assert added == 5


def test_product_bundle_divides_componentwise(unit_z2):
    P = product_bundle(unit_z2, unit_z2)
    assert validate_bundle(P).ok
    assert len(P.total) == 4
    got = division_map(P, pair_id("a", "e"), pair_id("a", "a"))
    assert split_pair(got) == ("e", "a")


def test_fibred_product_validates(unit_pair2, pair2):
    F = fibred_product(unit_pair2, unit_pair2)
    assert validate_bundle(F).ok
    # each fiber pairs up the 2x2 points over one base point
    assert len(F.total) == 8
    other = unit_bundle(pair2)
    with pytest.raises(ValueError, match="shared base"):
        fibred_product(unit_pair2, pullback_bundle(other, {"n": "0"}))


def test_trivialize_over_a_full_section(unit_pair2):
    section = {m: unit_pair2.fiber(m)[0] for m in sorted(unit_pair2.base)}
    iso = trivialize(unit_pair2, section)
    assert set(iso.forward) == set(unit_pair2.total)
    for p, mp in iso.forward.items():
        assert iso.backward[mp] == p
        m, g = split_pair(mp)
        assert unit_pair2.projection[p] == m


def test_trivialize_over_one_base_point(unit_pair2):
    m = min(unit_pair2.base)
    iso = trivialize(unit_pair2, {m: unit_pair2.fiber(m)[0]})
    assert iso.source.base == frozenset({m})
    assert set(iso.forward) == set(iso.source.total)


def test_trivialize_rejects_bad_sections(unit_pair2):
    with pytest.raises(ValueError, match="not a base point"):
        trivialize(unit_pair2, {"nowhere": "(0,0)"})
    with pytest.raises(ValueError, match="not a section"):
        trivialize(unit_pair2, {"0": "(1,1)"})


def test_trivialize_random_bundles():
    for seed in (3, 4, 5):
        G = random_groupoid(GeneratorSpec(seed, max_objects=2))
        B = random_bundle(G, 2, GeneratorSpec(seed + 50, max_total=12))
        section = {m: B.fiber(m)[0] for m in sorted(B.base)}
        iso = trivialize(B, section)
        assert set(iso.backward) == set(iso.target.total)


def test_act_and_projection_are_read_only(z2):
    # Once an index is built, a table edit in place could leave it stale;
    # the tables refuse every edit instead.
    B = unit_bundle(z2)
    assert division_map(B, "e", "a") == "a"
    with pytest.raises(TypeError, match="read-only"):
        B.act[("e", "a")] = "e"
    with pytest.raises(TypeError, match="read-only"):
        B.projection["a"] = "*"
    for table in (B.act, B.projection):
        key = next(iter(table))
        edits = (
            lambda: table.__delitem__(key),
            lambda: table.pop(key),
            lambda: table.popitem(),
            lambda: table.setdefault(key, "x"),
            lambda: table.update({key: "x"}),
            lambda: table.__ior__({key: "x"}),
            lambda: table.clear(),
        )
        for edit in edits:
            with pytest.raises(TypeError, match="read-only"):
                edit()
    assert B.act == z2.compose and B.projection == z2.target
    assert division_map(B, "e", "a") == "a"
    assert validate_bundle(B).ok
    for twin in (copy.deepcopy(B), pickle.loads(pickle.dumps(B))):
        assert twin == B
        with pytest.raises(TypeError, match="read-only"):
            twin.act[("e", "a")] = "e"


def test_every_bundle_construction_has_read_only_tables(docs, z2, s3):
    """PrincipalBundle alone makes act and projection read-only: the
    parser, the generators, the pullbacks, the products, trivialize and
    dataclasses.replace hand it plain or read-only tables alike."""
    U = unit_bundle(z2)
    G = random_groupoid(GeneratorSpec(3, max_objects=2))
    B = random_bundle(s3, 2, GeneratorSpec(5, max_total=12))
    h = random_hs(G, G, GeneratorSpec(7, max_total=12))
    m = min(B.base)
    iso = trivialize(B, {m: B.fiber(m)[0]})
    assert iso.source.base == {m} != B.base
    built = {
        "unit_bundle": U,
        "loads .bnd": loads(dumps(docs["unit-z2.bnd"])),
        "loads .hs": loads(dumps(h)).bundle,
        "random_bundle": B,
        "random_hs": h.bundle,
        "pullback_bundle": pullback_bundle(U, {"n0": "*", "n1": "*"}),
        "product_bundle": product_bundle(U, U),
        "fibred_product": fibred_product(U, U),
        "trivialize, restricted": iso.source,
        "trivialize, trivial": iso.target,
        "replace": replace(U, projection=dict(U.projection), act=dict(U.act)),
        "replace, tables kept": replace(U, base=U.base),
    }
    for what, P in built.items():
        for table in (P.act, P.projection):
            key = next(iter(table))
            with pytest.raises(TypeError, match="read-only"):
                table[key] = table[key]
            with pytest.raises(TypeError, match="read-only"):
                table.pop(key)
        assert validate_bundle(P).ok, what


def test_indexes_are_read_only(z2):
    # The indexes are shared by every reader; an edit to one used to
    # change later division answers while validate_bundle stayed ok.
    B = unit_bundle(z2)
    assert division_map(B, "e", "a") == "a"
    indexes = (B.fibers, B.quotients, B.moves, B.moves["e"])
    for index in indexes:
        key = next(iter(index))
        value = index[key]
        edits = (
            lambda: index.__setitem__(key, value),
            lambda: index.__delitem__(key),
            lambda: index.pop(key),
            lambda: index.popitem(),
            lambda: index.setdefault(key, value),
            lambda: index.update({key: value}),
            lambda: index.__ior__({key: value}),
            lambda: index.clear(),
        )
        for edit in edits:
            with pytest.raises(TypeError, match="read-only"):
                edit()
    with pytest.raises(TypeError, match="read-only"):
        B.quotients[("e", "a")] = "e"
    # the same-fiber pairs are a tuple of pairs, one for every reader
    pairs = B.self_pairs
    assert type(pairs) is tuple and {type(pair) for pair in pairs} == {tuple}
    with pytest.raises(TypeError):
        pairs[0] = ("a", "a")
    with pytest.raises(AttributeError):
        B.self_pairs = ()
    assert verify_division_properties(B).ok and B.self_pairs is pairs
    assert division_map(B, "e", "a") == "a"
    assert validate_bundle(B).ok and verify_division_properties(B).ok
    for twin in (copy.deepcopy(B), pickle.loads(pickle.dumps(B))):
        assert twin.moves == B.moves
        assert twin.self_pairs == pairs
        with pytest.raises(TypeError, match="read-only"):
            twin.moves["e"]["a"] = "e"


def test_bundle_keeps_its_own_copy_of_the_callers_tables(z2):
    projection, act = dict(z2.target), dict(z2.compose)
    B = PrincipalBundle(
        z2, frozenset(z2.arrows), frozenset(z2.objects), projection, dict(z2.source), act
    )
    # edits before the indexes are built, and after
    act[("e", "a")] = "e"
    projection["a"] = "elsewhere"
    assert division_map(B, "e", "a") == "a"
    del act[("a", "a")]
    assert division_map(B, "a", "e") == "a"
    assert B.act == z2.compose and B.projection == z2.target
    assert validate_bundle(B).ok and verify_division_properties(B).ok
    # a changed table makes a new bundle with indexes of its own
    fat = replace(B, act={**B.act, ("e", "a"): "e"})
    with pytest.raises(IntegrityError, match="no solution"):
        division_map(fat, "e", "a")
    assert division_map(B, "e", "a") == "a"


def _single_entry_mutants(B):
    points, bases = sorted(B.total), sorted(B.base) + ["elsewhere"]
    for key in sorted(B.act):
        yield replace(B, act={k: v for k, v in B.act.items() if k != key})
        other = points[(points.index(B.act[key]) + 1) % len(points)]
        yield replace(B, act={**B.act, key: other})
    for p in points:
        yield replace(B, projection={k: v for k, v in B.projection.items() if k != p})
        other = bases[(bases.index(B.projection[p]) + 1) % len(bases)]
        yield replace(B, projection={**B.projection, p: other})


def test_indexes_match_naive_scans(unit_z2, unit_s3):
    bundles = [unit_z2]
    seed = 0
    while len(bundles) < 21:
        G = random_groupoid(GeneratorSpec(seed, max_objects=3, max_group_order=4))
        try:
            bundles.append(random_bundle(G, 2, GeneratorSpec(seed + 30, max_total=12)))
        except GeneratorError:
            pass
        seed += 1
    # the naive scans are quadratic in the act table, so keep these small
    small = [B for B in bundles if 8 < len(B.act) <= 40][:3]
    products = [product_bundle(unit_z2, B) for B in small]
    products += [fibred_product(B, B) for B in small]
    mutants = [M for B in [unit_z2, unit_s3, *small] for M in _single_entry_mutants(B)]
    assert len(mutants) > 100
    kinds = set()
    for B in bundles + products + mutants:
        fibers = naive_fibers(B)
        assert B.fibers == fibers
        for m in sorted(B.base) + ["elsewhere"]:
            assert B.fiber(m) == fibers.get(m, ())
        assert [(p, list(row.items())) for p, row in B.moves.items()] == naive_moves(B)
        assert B.self_pairs == naive_self_pairs(B)
        quotients, divisions = naive_quotients(B), naive_divisions(B)
        assert B.quotients == quotients
        # division_map answers exactly the quotients and raises off them,
        # naming multiple solutions exactly when some arrow moves p to q
        for p in sorted(B.total):
            for q in B.fiber(B.projection.get(p)):
                try:
                    got = division_map(B, p, q)
                except KeyError:
                    got = None
                except IntegrityError as e:
                    got = None
                    kind = "multiple solutions" if divisions.get((p, q)) else "no solution"
                    assert f"has {kind} in the fiber" in str(e)
                    kinds.add(kind)
                assert got == quotients.get((p, q))
    assert kinds == {"multiple solutions", "no solution"}
