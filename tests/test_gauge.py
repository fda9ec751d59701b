"""Bundle morphisms, GGTs, gauge groups and the gauge groupoid."""

from __future__ import annotations

import copy
import gc
import hashlib
import json
import pickle
import time
from dataclasses import replace

import pytest

import gpdkit.gauge
from gpdkit import (
    GGT,
    BundleMorphism,
    FiniteGroupoid,
    GroupoidMorphism,
    PrincipalBundle,
    GaugeTransformation,
    GeneratorError,
    GeneratorSpec,
    IntegrityError,
    OracleBoundError,
    build_gauge_groupoid,
    build_hs_gauge_groupoid,
    check_division_invariance,
    division_map,
    dumps,
    enumerate_bundle_morphisms,
    enumerate_ggts,
    gauge_group,
    gauge_to_ggt,
    ggt_to_gauge,
    ggt_to_morphism,
    hs_from_groupoid_morphism,
    hs_gauge_group,
    identity_ggt,
    invert_ggt,
    isotropy_group,
    morphism_to_ggt,
    pullback_bundle,
    random_bundle,
    random_groupoid,
    random_hs,
    star,
    unit_bundle,
    validate_bundle_morphism,
    validate_gauge_transformation,
    validate_ggt,
    validate_groupoid,
)
from gpdkit.cli import main

from helpers import (
    bundle_mutations,
    naive_gauge_tables,
    naive_quotients,
    reference_morphisms,
)


def _ggt_table(K: GGT) -> tuple:
    return tuple(sorted(K.values.items()))


def test_identity_ggt_is_inverted_division(unit_z2):
    K = identity_ggt(unit_z2)
    assert validate_ggt(K).ok
    assert K.apply("e", "a") == "a"
    assert K.apply("a", "e") == "a"
    assert K.apply("e", "e") == "e"
    for (p, q), k in K.values.items():
        assert k == division_map(unit_z2, q, p)


def test_ggt_apply_rejects_cross_fiber_pairs(unit_pair2):
    K = identity_ggt(unit_pair2)
    with pytest.raises(KeyError, match="not a same-fiber pair"):
        K.apply("(0,0)", "(1,1)")


def test_validate_ggt_flags_each_law(unit_z2):
    K = identity_ggt(unit_z2)
    values = dict(K.values)
    values[("e", "a")] = "e"
    report = validate_ggt(GGT(unit_z2, unit_z2, values))
    assert "ggt.equivariance" in report.rules()

    values = {key: "e" if key == ("e", "e") else v for key, v in K.values.items()}
    del values[("e", "a")]
    report = validate_ggt(GGT(unit_z2, unit_z2, values))
    assert "table.values.missing" in report.rules()


def test_invert_and_star_satisfy_group_laws(unit_z2, unit_s3):
    for B in (unit_z2, unit_s3):
        ident = identity_ggt(B)
        for K in enumerate_ggts(B, B):
            assert _ggt_table(star(invert_ggt(K), K)) == _ggt_table(ident)
            assert _ggt_table(star(K, invert_ggt(K))) == _ggt_table(ident)
            assert _ggt_table(star(K, ident)) == _ggt_table(K)
            assert _ggt_table(star(ident, K)) == _ggt_table(K)


def test_star_rejects_mismatched_middle(unit_z2, unit_s3):
    with pytest.raises(ValueError, match="middle bundles differ"):
        star(identity_ggt(unit_z2), identity_ggt(unit_s3))


def test_star_names_a_missing_value_a_missing_product_and_a_dependent_value(unit_z2):
    """star's three refusals, on twin copies of the identity GGT of the
    unit z2 bundle: a value missing from a factor, a product missing from
    the groupoid, and values that differ between interpolating points."""
    ident = identity_ggt(unit_z2)
    values = {pair: k for pair, k in ident.values.items() if pair != ("a", "e")}
    with pytest.raises(KeyError, match=r"not a same-fiber pair: \('a', 'e'\)"):
        star(ident, GGT(unit_z2, unit_z2, values))
    G = unit_z2.groupoid
    compose = {key: k for key, k in G.compose.items() if key != ("a", "a")}
    broken = replace(unit_z2, groupoid=replace(G, compose=compose))
    twin = GGT(broken, broken, ident.values)
    with pytest.raises(KeyError, match="not composable: 'a' after 'a'"):
        star(twin, twin)
    dependent = GGT(unit_z2, unit_z2, {**ident.values, ("e", "e"): "a"})
    with pytest.raises(IntegrityError, match=r"at \('e', 'a'\) depends on the interpolating point"):
        star(ident, dependent)


def test_morphism_ggt_round_trip(unit_z2):
    morphisms = enumerate_bundle_morphisms(unit_z2, unit_z2)
    assert len(morphisms) == 2
    for f in morphisms:
        assert validate_bundle_morphism(f).ok
        K = morphism_to_ggt(f)
        assert validate_ggt(K).ok
        assert ggt_to_morphism(K).mapping == f.mapping
    ggts = enumerate_ggts(unit_z2, unit_z2)
    assert len(ggts) == 2
    for K in ggts:
        assert _ggt_table(morphism_to_ggt(ggt_to_morphism(K))) == _ggt_table(K)


def test_ggt_to_morphism_rechecks_independence(unit_z2):
    K = identity_ggt(unit_z2)
    values = dict(K.values)
    # Endpoints stay legal but the two interpolating points now disagree.
    values[("e", "e")] = "a"
    with pytest.raises(IntegrityError, match="interpolating point"):
        ggt_to_morphism(GGT(unit_z2, unit_z2, values))


def test_validate_bundle_morphism_flags_each_law(unit_z2, unit_s3):
    f = BundleMorphism(unit_z2, unit_z2, {"e": "a", "a": "a"})
    report = validate_bundle_morphism(f)
    assert "morphism.momentum" in report.rules() or "morphism.equivariance" in report.rules()
    assert "derived.bijective" in report.rules()

    report = validate_bundle_morphism(
        BundleMorphism(unit_z2, unit_s3, {"e": "012", "a": "021"})
    )
    assert "context.mismatch" in report.rules()


def test_gauge_transformation_laws(unit_s3, s3):
    gg = gauge_group(unit_s3)
    for t in gg.elements:
        assert validate_gauge_transformation(t).ok
    broken = dict(gg.elements[gg.unit].values)
    broken["012"] = "120"
    report = validate_gauge_transformation(GaugeTransformation(unit_s3, broken))
    assert "gauge.equivariance" in report.rules()

    off = {p: "120" for p in unit_s3.total}
    # values stay isotropy arrows on a one-object groupoid, but the
    # conjugation law fails for a non-central value
    report = validate_gauge_transformation(GaugeTransformation(unit_s3, off))
    assert "gauge.equivariance" in report.rules()


def test_gauge_group_orders(unit_z2, unit_s3, unit_pair2):
    assert gauge_group(unit_z2).order == 2
    assert gauge_group(unit_s3).order == 6
    assert gauge_group(unit_pair2).order == 1


def test_gauge_group_table_matches_the_group(unit_s3, s3):
    gg = gauge_group(unit_s3)
    rep = min(unit_s3.fiber("*"))
    index = {t.values[rep]: i for i, t in enumerate(gg.elements)}
    assert len(index) == len(s3.arrows)
    for c1 in sorted(s3.arrows):
        for c2 in sorted(s3.arrows):
            assert gg.product[(index[c1], index[c2])] == index[s3.mul(c1, c2)]
    assert gg.elements[gg.unit].values[rep] == s3.unit["*"]
    for c in sorted(s3.arrows):
        assert gg.inverse[index[c]] == index[s3.inv(c)]


def test_gauge_ggt_round_trip(unit_s3):
    gg = gauge_group(unit_s3)
    for t in gg.elements:
        K = gauge_to_ggt(t)
        assert validate_ggt(K).ok
        assert ggt_to_gauge(K).values == t.values
    with pytest.raises(ValueError, match="itself"):
        ggt_to_gauge(GGT(unit_s3, pullback_bundle(unit_s3, {"n": "*"}), {}))


def test_division_invariance_of_enumerated_morphisms(unit_z2, unit_s3):
    for B in (unit_z2, unit_s3):
        for f in enumerate_bundle_morphisms(B, B):
            assert check_division_invariance(f).ok


def _reference_invariance(f: BundleMorphism, d1: dict, d2: dict) -> list[tuple[str, str]]:
    """The same-fiber pairs (p, q) of both mapped points where d1(p, q) is
    defined and d2(sigma(p), sigma(q)) is not that arrow, with d1 and d2
    the naive quotients of the two bundles."""
    return [
        (p, q)
        for m in sorted(f.source.base)
        for p in f.source.fiber(m)
        for q in f.source.fiber(m)
        if (p, q) in d1 and p in f.mapping and q in f.mapping
        and d2.get((f.mapping[p], f.mapping[q])) != d1[(p, q)]
    ]


def test_division_invariance_reports_and_never_raises(unit_z2, unit_s3, unit_pair2):
    """On every one-entry deletion or rewrite of an enumerated morphism's
    mapping, to a point or a non-point, the check reports rather than
    raises, and names exactly the pairs whose division moved."""
    G = random_groupoid(GeneratorSpec(1, max_objects=2, max_group_order=4))
    b1 = random_bundle(G, 2, GeneratorSpec(11, max_total=10))
    b2 = random_bundle(G, 2, GeneratorSpec(12, max_total=10))
    twin = pullback_bundle(unit_pair2, {m: m for m in unit_pair2.base})
    pairs = [
        (unit_z2, unit_z2),
        (unit_s3, unit_s3),
        (unit_pair2, unit_pair2),
        (unit_pair2, twin),
        (b1, b2),
        (b2, b1),
    ]
    reported = 0
    for B1, B2 in pairs:
        d1, d2 = naive_quotients(B1), naive_quotients(B2)
        morphisms = enumerate_bundle_morphisms(B1, B2)
        assert morphisms
        for f in morphisms:
            assert check_division_invariance(f).ok
            images = sorted(B2.total) + ["zz"]
            mutants = []
            for p in sorted(f.mapping):
                rest = {k: v for k, v in f.mapping.items() if k != p}
                mutants.append(rest)
                mutants += [{**rest, p: q} for q in images if q != f.mapping[p]]
            for mapping in mutants:
                mutant = BundleMorphism(B1, B2, mapping)
                report = check_division_invariance(mutant)
                assert {v.rule for v in report.violations} <= {"division.invariance"}
                want = _reference_invariance(mutant, d1, d2)
                assert [v.witness for v in report.violations] == want
                reported += not report.ok
    assert reported > 0


def test_gauge_groupoid_of_twin_unit_bundles(unit_z2):
    twin = pullback_bundle(unit_z2, {m: m for m in unit_z2.base})
    gg = build_gauge_groupoid([unit_z2, twin])
    assert len(gg.groupoid.arrows) == 8
    assert validate_groupoid(gg.groupoid).ok
    for i, B in enumerate((unit_z2, twin)):
        pid = gg.bundle_ids[i]
        iso = isotropy_group(gg.groupoid, pid)
        mine = {_ggt_table(gg.ggts[a]) for a in iso.arrows}
        theirs = {_ggt_table(gauge_to_ggt(t)) for t in gauge_group(B).elements}
        assert mine == theirs


def _assert_stated_units_inverses_order_and_ids(gg) -> None:
    """Units are identity_ggt, inverses invert_ggt, each hom set is in
    content order and each arrow id is the digest of its content."""
    G = gg.groupoid
    index = {x: i for i, x in enumerate(gg.bundle_ids)}
    for x, B in zip(gg.bundle_ids, gg.bundles):
        assert gg.ggts[G.unit[x]].values == identity_ggt(B).values
    homs: dict[tuple[int, int], list] = {}
    for a, K in gg.ggts.items():
        assert gg.ggts[G.inverse[a]].values == invert_ggt(K).values
        i, j = index[G.source[a]], index[G.target[a]]
        payload = json.dumps(
            [i, j, sorted([p1, p2, k] for (p1, p2), k in K.values.items())],
            separators=(",", ":"),
        )
        digest = hashlib.sha256(payload.encode()).hexdigest()[:12]
        assert a == f"ggt:{G.source[a]}>{G.target[a]}:{digest}"
        homs.setdefault((i, j), []).append(_ggt_table(K))
    for tables in homs.values():
        assert tables == sorted(tables)


def test_gauge_groupoid_units_inverses_order_and_ids_on_random_families():
    families = []
    seed = 0
    while len(families) < 30:
        G = random_groupoid(GeneratorSpec(seed, max_objects=2, max_group_order=4))
        members = []
        for k in range(1 + seed % 3):
            try:
                members.append(
                    random_bundle(G, 1 + seed % 2, GeneratorSpec(100 * seed + k, max_total=8))
                )
            except GeneratorError:
                pass
        seed += 1
        if members and all(B.base == members[0].base for B in members):
            families.append(build_gauge_groupoid(members))
    for seed in range(6):
        G = random_groupoid(GeneratorSpec(seed, max_objects=2, max_group_order=6))
        H = random_groupoid(GeneratorSpec(seed + 40, max_objects=2, max_group_order=3))
        hs = [random_hs(G, H, GeneratorSpec(80 + 2 * seed + k, max_total=12)) for k in (0, 1)]
        families.append(build_hs_gauge_groupoid(hs))
    assert sum(len(gg.bundles) > 1 for gg in families) >= 12
    assert sum(len(gg.ggts) for gg in families) > 300
    for gg in families:
        _assert_stated_units_inverses_order_and_ids(gg)


def test_gauge_groupoid_units_and_inverses_are_the_stated_ones(unit_z2):
    _assert_stated_units_inverses_order_and_ids(build_gauge_groupoid([unit_z2]))


def test_gauge_groupoid_on_random_pair():
    seed = 0
    while True:
        G = random_groupoid(GeneratorSpec(seed, max_objects=2, max_group_order=4))
        try:
            b1 = random_bundle(G, 2, GeneratorSpec(seed + 10, max_total=10))
            b2 = random_bundle(G, 2, GeneratorSpec(seed + 20, max_total=10))
        except GeneratorError:
            seed += 1
            continue
        if b1.base == b2.base:
            break
        seed += 1
    gg = build_gauge_groupoid([b1, b2])
    assert validate_groupoid(gg.groupoid).ok
    assert len(gg.groupoid.hom("P0", "P1")) == len(enumerate_ggts(b1, b2))


def test_gauge_groupoid_input_checks(unit_z2, unit_s3):
    with pytest.raises(ValueError, match="at least one bundle"):
        build_gauge_groupoid([])
    with pytest.raises(ValueError, match="share base and groupoid"):
        build_gauge_groupoid([unit_z2, unit_s3])


def test_validate_ggt_reports_values_with_wrong_endpoints(tmp_path, capsys):
    U = unit_bundle(random_groupoid(GeneratorSpec(7, 3, 6)))
    G = U.groupoid
    K = enumerate_ggts(U, U)[0]
    pair, k = min(K.values.items())
    feet = (G.source[k], G.target[k])
    other = min(a for a in G.arrows if (G.source[a], G.target[a]) != feet)
    bad = GGT(U, U, {**K.values, pair: other})
    assert validate_ggt(bad).rules() & {"ggt.source", "ggt.target"}
    path = tmp_path / "bad.ggt"
    path.write_text(dumps(bad), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "ggt.source" in out or "ggt.target" in out


def test_validate_ggt_reports_a_broken_structure_groupoid(tmp_path, capsys):
    U = unit_bundle(random_groupoid(GeneratorSpec(7, 3, 6)))
    G = U.groupoid
    dropped = min(G.compose)
    broken = replace(G, compose={k: v for k, v in G.compose.items() if k != dropped})
    B = replace(U, groupoid=broken)
    K = GGT(B, B, identity_ggt(U).values)
    report = validate_ggt(K)
    assert report.rules()
    assert all(rule.startswith("groupoid.") for rule in report.rules())
    path = tmp_path / "broken.ggt"
    path.write_text(dumps(K), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "groupoid." in out


def test_gauge_groupoid_refuses_arrow_id_collisions(unit_z2, monkeypatch):
    assert len(enumerate_ggts(unit_z2, unit_z2)) >= 2
    monkeypatch.setattr(gpdkit.gauge, "_ggt_digest", lambda i, j, values: "0" * 12)
    with pytest.raises(IntegrityError, match="ggt:P0>P0:000000000000"):
        build_gauge_groupoid([unit_z2])


def test_assembly_refuses_a_unit_that_was_not_kept(unit_z2):
    unit_values = identity_ggt(unit_z2).values
    with pytest.raises(IntegrityError, match=r"unit GGT missing from hom\(P0, P0\)"):
        gpdkit.gauge._assemble(
            [unit_z2], lambda i, j, pairs: lambda row: dict(zip(pairs, row)) != unit_values
        )


def _relabelled(B, tag: str):
    rename = {p: f"{tag}{p}" for p in B.total}
    return replace(
        B,
        total=frozenset(rename.values()),
        projection={rename[p]: m for p, m in B.projection.items()},
        momentum={rename[p]: x for p, x in B.momentum.items()},
        act={(rename[p], g): rename[q] for (p, g), q in B.act.items()},
    )


def _assert_compose_is_star(gg):
    assert len(gg.groupoid.compose) > len(gg.groupoid.arrows)
    for (a2, a1), a in gg.groupoid.compose.items():
        assert _ggt_table(star(gg.ggts[a2], gg.ggts[a1])) == _ggt_table(gg.ggts[a])


def _three_bundles(unit_z2):
    twin = pullback_bundle(unit_z2, {m: m for m in unit_z2.base})
    return [unit_z2, twin, _relabelled(unit_z2, "r:")]


def test_gauge_groupoid_compose_is_star_on_three_bundles(unit_z2):
    gg = build_gauge_groupoid(_three_bundles(unit_z2))
    assert validate_groupoid(gg.groupoid).ok
    assert len(gg.groupoid.arrows) == 18
    _assert_compose_is_star(gg)


def test_hs_gauge_groupoid_compose_is_star():
    G = random_groupoid(GeneratorSpec(2, max_objects=2, max_group_order=6))
    H = random_groupoid(GeneratorSpec(42, max_objects=2, max_group_order=3))
    h1 = random_hs(G, H, GeneratorSpec(82, max_total=12))
    h2 = random_hs(G, H, GeneratorSpec(122, max_total=12))
    gg = build_hs_gauge_groupoid([h1, h2])
    assert validate_groupoid(gg.groupoid).ok
    assert len(gg.groupoid.arrows) == 18
    _assert_compose_is_star(gg)


def test_assembly_refuses_a_composite_that_was_not_kept(unit_s3):
    unit_values = identity_ggt(unit_s3).values
    involutions = [
        K
        for K in enumerate_ggts(unit_s3, unit_s3)
        if K.values != unit_values and invert_ggt(K).values == K.values
    ]
    dropped = min(involutions, key=_ggt_table).values
    with pytest.raises(
        IntegrityError, match=r"composite GGT missing from hom\(P0, P0\)"
    ):
        gpdkit.gauge._assemble(
            [unit_s3], lambda i, j, pairs: lambda row: dict(zip(pairs, row)) != dropped
        )


def test_gauge_groupoid_of_the_order_144_unit_bundle_is_fast():
    U = unit_bundle(random_groupoid(GeneratorSpec(7, max_objects=3, max_group_order=6)))
    start = time.perf_counter()
    gg = build_gauge_groupoid([U])
    elapsed = time.perf_counter() - start
    assert len(gg.groupoid.arrows) == 144
    assert len(gg.groupoid.compose) == 144 * 144
    mine = {_ggt_table(gg.ggts[a]) for a in gg.groupoid.hom("P0", "P0")}
    theirs = {_ggt_table(gauge_to_ggt(t)) for t in gauge_group(U).elements}
    assert mine == theirs
    assert elapsed < 2.0, f"build took {elapsed:.2f} s"


@pytest.mark.parametrize("family", ["unit_z2", "unit_s3", "unit_pair2", "three"])
def test_constructed_hom_sets_equal_the_oracle(family, request):
    if family == "three":
        bundles = _three_bundles(request.getfixturevalue("unit_z2"))
    else:
        bundles = [request.getfixturevalue(family)]
    gg = build_gauge_groupoid(bundles)
    ids = gg.bundle_ids
    for i, Bi in enumerate(bundles):
        for j, Bj in enumerate(bundles):
            mine = sorted(_ggt_table(gg.ggts[a]) for a in gg.groupoid.hom(ids[i], ids[j]))
            assert mine == [_ggt_table(K) for K in enumerate_ggts(Bi, Bj)]


def test_gauge_groupoids_with_rows_of_zero_and_one_points(z2):
    """Morphism rows and value rows of 0 and 1 points, which itemgetter
    reads as a value or refuses: the unit bundle of the one-arrow
    groupoid, alone and twice, and the bundle with no points."""
    one = FiniteGroupoid(
        objects=frozenset({"*"}),
        arrows=frozenset({"e"}),
        source={"e": "*"},
        target={"e": "*"},
        unit={"*": "e"},
        inverse={"e": "e"},
        compose={("e", "e"): "e"},
    )
    point = unit_bundle(one)
    empty = PrincipalBundle(z2, frozenset(), frozenset(), {}, {}, {})
    assert len(point.total) == 1
    for bundles, counts in (
        ([point], [1, 1]),
        ([point, point], [4, 8]),
        ([empty], [1, 1]),
        ([empty, empty], [4, 8]),
    ):
        gg = build_gauge_groupoid(bundles)
        assert [len(gg.groupoid.arrows), len(gg.groupoid.compose)] == counts
        assert validate_groupoid(gg.groupoid).ok
        ids = gg.bundle_ids
        for i, Bi in enumerate(bundles):
            for j, Bj in enumerate(bundles):
                mine = sorted(_ggt_table(gg.ggts[a]) for a in gg.groupoid.hom(ids[i], ids[j]))
                assert mine == [_ggt_table(K) for K in enumerate_ggts(Bi, Bj)]
        _assert_stated_units_inverses_order_and_ids(gg)
    for B in (point, empty):
        assert _tables(gauge_group(B)) == naive_gauge_tables(B, list(gauge_group(B).elements))


def test_gauge_groupoid_above_the_oracle_bounds(s3):
    B = random_bundle(s3, 3, GeneratorSpec(5, max_total=18))
    assert len(B.total) == 18
    with pytest.raises(OracleBoundError):
        enumerate_ggts(B, B)
    gg = build_gauge_groupoid([B])
    start = time.perf_counter()
    assert validate_groupoid(gg.groupoid).ok
    # ROADMAP's bound: associativity over all 216^3 triples takes over 1 s
    assert time.perf_counter() - start <= 0.5
    assert len(gg.groupoid.arrows) == 216
    assert len(gg.groupoid.compose) == 216 * 216
    mine = {_ggt_table(gg.ggts[a]) for a in gg.groupoid.hom("P0", "P0")}
    theirs = {_ggt_table(gauge_to_ggt(t)) for t in gauge_group(B).elements}
    assert mine == theirs


def test_gauge_groupoid_export_bytes_are_pinned():
    # ROADMAP's U; the digest is the same on Python 3.10 to 3.13
    U = unit_bundle(random_groupoid(GeneratorSpec(7, max_objects=3, max_group_order=6)))
    data = dumps(build_gauge_groupoid([U]).groupoid).encode()
    assert len(data) == 2_096_000
    assert (
        hashlib.sha256(data).hexdigest()
        == "fc4e47771f3143bb7e041133285d68e583ada03e7b5bd15ee56fec1b835ba742"
    )


def _tables(gg) -> tuple:
    return list(gg.product.items()), gg.unit, gg.inverse


def _tabulated_bundles(docs) -> list:
    """The fixture bundles and the unit bundles of the fixture groupoids,
    ROADMAP's U, random bundles over one to three base points, and a
    bundle with no points."""
    cases = [
        unit_bundle(doc) if hasattr(doc, "compose") else doc
        for _, doc in sorted(docs.items())
    ]
    cases.append(
        unit_bundle(random_groupoid(GeneratorSpec(7, max_objects=3, max_group_order=6)))
    )
    for seed in range(12):
        G = random_groupoid(
            GeneratorSpec(seed, max_objects=3, max_group_order=6, max_total=12)
        )
        try:
            cases.append(
                random_bundle(G, 1 + seed % 3, GeneratorSpec(seed + 1000, max_total=14))
            )
        except GeneratorError:
            continue
    z2 = docs["z2.gpd"]
    cases.append(PrincipalBundle(z2, frozenset(), frozenset(), {}, {}, {}))
    return cases


def test_gauge_group_tables_match_a_naive_entrywise_reference(docs):
    bundles = _tabulated_bundles(docs)
    for B in bundles:
        gg = gauge_group(B)
        assert _tables(gg) == naive_gauge_tables(B, list(gg.elements))
    assert {len(B.base) for B in bundles} == {0, 1, 2, 3}
    empty = gauge_group(bundles[-1])
    assert (empty.order, empty.product, empty.unit) == (1, {(0, 0): 0}, 0)


def test_hs_gauge_group_tables_match_a_naive_entrywise_reference(docs):
    bibundles = [
        hs_from_groupoid_morphism(
            GroupoidMorphism(G, G, {x: x for x in G.objects}, {g: g for g in G.arrows})
        )
        for _, G in sorted(docs.items())
        if hasattr(G, "compose")
    ]
    for seed in range(12):
        G = random_groupoid(GeneratorSpec(seed + 300, max_objects=2, max_group_order=6))
        H = random_groupoid(GeneratorSpec(seed + 400, max_objects=2, max_group_order=3))
        try:
            bibundles.append(random_hs(G, H, GeneratorSpec(seed + 500, max_total=12)))
        except GeneratorError:
            continue
    assert len(bibundles) > 10
    for h in bibundles:
        gg = hs_gauge_group(h)
        assert _tables(gg) == naive_gauge_tables(h.bundle, list(gg.elements))


def test_gauge_group_refusals_match_the_reference(docs, unit_s3):
    bundles = [unit_s3] + [
        B
        for B in _tabulated_bundles(docs)
        if len(B.base) > 1 and gauge_group(B).order > 2
    ][:3]
    assert len(bundles) == 4
    seen = set()
    for B in bundles:
        elements = gpdkit.gauge._gauge_elements(B)
        unit = gauge_group(B).unit
        G = B.groupoid
        cases = [
            (B, elements[:k] + elements[k + 1 :])
            for k in sorted({0, unit, len(elements) // 2, len(elements) - 1})
        ]
        for key in sorted(G.compose)[::3]:
            compose = {k: v for k, v in G.compose.items() if k != key}
            cases.append((replace(B, groupoid=replace(G, compose=compose)), elements))
        # a non-unit value of some element; products never read inverses
        g = next(
            g
            for g in sorted(G.arrows)
            if any(g in t.values.values() for t in elements)
            and g not in G.unit.values()
        )
        inverse = {k: v for k, v in G.inverse.items() if k != g}
        cases.append((replace(B, groupoid=replace(G, inverse=inverse)), elements))
        for B2, kept in cases:
            try:
                outcome = _tables(gpdkit.gauge._tabulate(B2, kept))
            except IntegrityError as e:
                outcome = str(e)
                seen.add(outcome)
            assert outcome == naive_gauge_tables(B2, kept)
    kinds = {text.split(" ")[0] for text in seen}
    assert kinds == {"unit", "product", "inverse"}
    assert len(seen) > 5


def _restriction(t: GaugeTransformation, fiber) -> tuple:
    return tuple(t.values[p] for p in fiber)


def _constructed(B: PrincipalBundle, elements: list) -> tuple | str:
    """The tables of _tabulate, or the text of the IntegrityError it
    raised while constructing.  A product table that refuses only when
    it is read raises out of here and fails the caller."""
    try:
        gg = gpdkit.gauge._tabulate(B, elements)
    except IntegrityError as e:
        return str(e)
    return _tables(gg)


def test_gauge_group_closure_is_decided_at_construction(docs):
    """Element lists that hold every combination of their fiber
    restrictions but are not closed, that are closed but no full product,
    and that are neither: each refuses at construction with the
    reference's text, or tabulates as the reference does."""
    combined, subgroups, neither = [], [], []
    for B in _tabulated_bundles(docs):
        elements = gpdkit.gauge._gauge_elements(B)
        one = elements[gauge_group(B).unit]
        fibers = list(B.fibers.values())
        restrictions = [{_restriction(t, f) for t in elements} for f in fibers]
        for fiber, seen in zip(fibers, restrictions):
            # a proper subset of a group with more than half its elements
            # is no subgroup (Lagrange), and keeping every element that
            # avoids one restriction keeps every combination of the rest
            if len(seen) >= 3:
                dropped = max(seen - {_restriction(one, fiber)})
                kept = [t for t in elements if _restriction(t, fiber) != dropped]
                combined.append((B, kept))
        if sum(len(seen) >= 2 for seen in restrictions) >= 2 and len(elements) >= 3:
            # one element fewer: every restriction is still some element's
            gone = next(t for t in reversed(elements) if t is not one)
            neither.append((B, [t for t in elements if t is not gone]))
    for seed in range(12):
        G = random_groupoid(GeneratorSpec(seed + 300, max_objects=2, max_group_order=6))
        H = random_groupoid(GeneratorSpec(seed + 400, max_objects=2, max_group_order=3))
        try:
            h = random_hs(G, H, GeneratorSpec(seed + 500, max_total=12))
        except GeneratorError:
            continue
        kept = list(hs_gauge_group(h).elements)
        fibers = list(h.bundle.fibers.values())
        combinations = 1
        for fiber in fibers:
            combinations *= len({_restriction(t, fiber) for t in kept})
        if len(kept) < combinations:
            subgroups.append((h.bundle, kept))
    assert [len(combined), len(subgroups), len(neither)] == [14, 4, 8]
    for cases, refused in ((combined, True), (subgroups, False), (neither, True)):
        for B, kept in cases:
            outcome = _constructed(B, kept)
            assert outcome == naive_gauge_tables(B, kept)
            assert isinstance(outcome, str) == refused


def test_gauge_group_product_table_refuses_mutation(unit_s3):
    for read in (False, True):
        gg = gauge_group(unit_s3)
        if read:
            assert gg.product[(0, 0)] == 0
        with pytest.raises(TypeError):
            gg.product[(0, 0)] = 1
        with pytest.raises(TypeError):
            del gg.product[(0, 0)]
        assert gg.product[(0, 0)] == 0


def test_gauge_group_copies_and_pickles_whole():
    U = unit_bundle(random_groupoid(GeneratorSpec(7, max_objects=3, max_group_order=6)))
    want = _tables(gauge_group(U))
    for copied in (
        lambda gg: pickle.loads(pickle.dumps(gg)),
        copy.deepcopy,
        lambda gg: pickle.loads(pickle.dumps(pickle.loads(pickle.dumps(gg)))),
    ):
        gg = gauge_group(U)
        again = copied(gg)
        assert again == gg
        assert again.product == gg.product == dict(want[0])
        assert _tables(again) == _tables(gg) == want
        assert repr(again.product) == repr(dict(want[0]))
    # once filled, the table holds its entries and nothing it was filled from
    held = [r for r in gc.get_referents(gg.product) if r is not None]
    assert [r for r in held if not isinstance(r, type)] == [dict(want[0])]


def _hom_outcomes(cases) -> list:
    """Per (B, M): the mappings of _morphisms between B and M both ways and
    from M to itself, the gauge group tables of M and the export bytes of
    the gauge groupoid of M and B (of B alone if M is B); each ("ok",
    value) or ("raised", exception type, text)."""

    def outcome(fn, *args):
        try:
            return "ok", fn(*args)
        except (KeyError, ValueError) as e:
            return "raised", type(e).__name__, str(e)

    mappings = gpdkit.gauge._morphisms

    def group(B):
        gg = gauge_group(B)
        return [t.values for t in gg.elements], _tables(gg)

    def export(B, M):
        return dumps(build_gauge_groupoid([B] if M is B else [M, B]).groupoid)

    return [
        [
            outcome(mappings, B, M),
            outcome(mappings, M, B),
            outcome(mappings, M, M),
            outcome(group, M),
            outcome(export, B, M),
        ]
        for B, M in cases
    ]


def test_constructed_hom_sets_match_validating_every_morphism(docs, monkeypatch):
    """Checking each fiber piece once decides and builds what validating
    every product does,
    refusals and their texts included, over single-entry mutants and a
    few structural ones."""
    U = unit_bundle(random_groupoid(GeneratorSpec(7, max_objects=3, max_group_order=6)))
    cases = []
    for B in _tabulated_bundles(docs):
        mutants = [M for _, M in bundle_mutations(B)]
        if B == U:
            mutants = mutants[::10]
        cases.append((B, B))
        cases.extend((B, M) for M in mutants)
    assert len(cases) > 1000
    got = _hom_outcomes(cases)
    with monkeypatch.context() as m:
        m.setattr(gpdkit.gauge, "_morphisms", reference_morphisms)
        want = _hom_outcomes(cases)
    assert got == want
    texts = [o[2] for row in got for o in row if o[0] == "raised"]
    assert any(t.startswith("constructed bundle morphism fails validation") for t in texts)
    assert any(t.startswith("division of ") for t in texts)
    assert sum(o[0] == "ok" for row in got for o in row[3:]) > 50
