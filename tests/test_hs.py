"""Bibundles, their gauge layer and the invariant GGT groupoid."""

from __future__ import annotations

from dataclasses import replace

import pytest

from gpdkit import (
    GGT,
    GroupoidMorphism,
    HSBundleMorphism,
    HSMorphism,
    GeneratorError,
    GeneratorSpec,
    IntegrityError,
    build_gauge_groupoid,
    build_hs_gauge_groupoid,
    enumerate_bundle_morphisms,
    enumerate_ggts,
    gauge_group,
    hs_fibred_product,
    hs_from_groupoid_morphism,
    hs_gauge_group,
    hs_ggt_to_morphism,
    hs_morphism_to_ggt,
    hs_product,
    identity_ggt,
    is_left_invariant_ggt,
    product_groupoid,
    random_groupoid,
    random_hs,
    validate_ggt,
    validate_groupoid,
    validate_hs,
    validate_hs_ggt,
    validate_hs_morphism,
    verify_division_properties,
    verify_hs_division_properties,
)


def _identity_hs(G) -> HSMorphism:
    ident = GroupoidMorphism(
        G, G, {x: x for x in G.objects}, {g: g for g in G.arrows}
    )
    return hs_from_groupoid_morphism(ident)


def _table(K) -> tuple:
    return tuple(sorted(K.values.items()))


@pytest.fixture(scope="module")
def hs_z2(z2):
    return _identity_hs(z2)


@pytest.fixture(scope="module")
def hs_s3(s3):
    return _identity_hs(s3)


@pytest.fixture(scope="module")
def hs_embed(z2, s3):
    embed = GroupoidMorphism(z2, s3, {"*": "*"}, {"e": "012", "a": "021"})
    return hs_from_groupoid_morphism(embed)


def test_groupoid_morphisms_become_valid_bibundles(hs_z2, hs_s3, hs_embed, pair2, z2):
    for h in (hs_z2, hs_s3, hs_embed):
        assert validate_hs(h).ok
    collapse = GroupoidMorphism(
        pair2, z2, {x: "*" for x in pair2.objects}, {g: "e" for g in pair2.arrows}
    )
    h = hs_from_groupoid_morphism(collapse)
    assert validate_hs(h).ok
    assert h.bundle.base == pair2.objects


def test_validate_hs_flags_broken_left_action(hs_z2):
    left = dict(hs_z2.left_act)
    key = min(left)
    other = next(
        p for p in sorted(hs_z2.bundle.total)
        if p != left[key]
        and hs_z2.bundle.projection[p] == hs_z2.bundle.projection[left[key]]
    )
    left[key] = other
    report = validate_hs(HSMorphism(hs_z2.dom, hs_z2.cod, hs_z2.bundle, left))
    assert not report.ok


def test_validate_hs_flags_context_mismatch(hs_z2, s3):
    report = validate_hs(HSMorphism(hs_z2.dom, s3, hs_z2.bundle, hs_z2.left_act))
    assert "context.mismatch" in report.rules()


def test_context_mismatches_are_reported_alone(hs_z2, hs_s3, hs_embed):
    """A validator of structures that must share a context reports the
    first difference as its only violation instead of reading one
    structure's tables against the other's."""
    B = hs_z2.bundle
    elsewhere = replace(B, base=frozenset({"elsewhere"}))
    cases = [
        (validate_ggt(GGT(B, hs_s3.bundle, {})), "different structure groupoids"),
        (validate_ggt(GGT(B, elsewhere, {})), "different bases"),
        (validate_hs(replace(hs_z2, bundle=elsewhere)), "bundle base is not the domain objects"),
        (validate_hs_morphism(HSBundleMorphism(hs_z2, hs_s3, {})), "different domains"),
        (validate_hs_morphism(HSBundleMorphism(hs_z2, hs_embed, {})), "different codomains"),
        (validate_hs_ggt(hs_z2, hs_s3, identity_ggt(B)), "different domains"),
    ]
    for report, note in cases:
        assert [str(v) for v in report.violations] == [f"context.mismatch[] {note}"]


def test_hs_products_validate(hs_z2, hs_s3):
    assert validate_hs(hs_product(hs_z2, hs_z2)).ok
    assert validate_hs(hs_fibred_product(hs_z2, hs_z2)).ok
    with pytest.raises(ValueError, match="shared domain"):
        hs_fibred_product(hs_z2, hs_s3)


def test_hs_fibred_product_codomain_is_its_bundle_groupoid(hs_z2, hs_embed):
    # one product groupoid, so validate_hs compares it with itself
    for h1, h2 in ((hs_z2, hs_z2), (hs_z2, hs_embed)):
        h = hs_fibred_product(h1, h2)
        assert h.cod is h.bundle.groupoid
        assert h.cod == product_groupoid(h1.cod, h2.cod)
        assert validate_hs(h).ok


def test_hs_division_is_left_invariant(hs_z2, hs_s3, hs_embed):
    for h in (hs_z2, hs_s3, hs_embed):
        assert verify_hs_division_properties(h).ok


def _single_entry_mutants(h):
    """h with one act or left_act entry deleted or moved to the next point."""
    points = sorted(h.bundle.total)

    def rewrites(table):
        for key in sorted(table):
            yield {k: v for k, v in table.items() if k != key}
            other = points[(points.index(table[key]) + 1) % len(points)]
            yield {**table, key: other}

    for act in rewrites(h.bundle.act):
        yield replace(h, bundle=replace(h.bundle, act=act))
    for left_act in rewrites(h.left_act):
        yield replace(h, left_act=left_act)


def test_hs_division_properties_report_on_broken_bibundles(hs_z2, hs_s3, hs_embed):
    # the second act entry of the z2 identity bibundle takes the first's value
    B = hs_z2.bundle
    first, second = list(B.act)[:2]
    broken = replace(hs_z2, bundle=replace(B, act={**B.act, second: B.act[first]}))
    assert "division.defined" in verify_division_properties(broken.bundle).rules()
    assert "division.defined" in verify_hs_division_properties(broken).rules()

    mutants = [M for h in (hs_z2, hs_s3, hs_embed) for M in _single_entry_mutants(h)]
    assert len(mutants) > 200
    for M in mutants:
        report = verify_hs_division_properties(M)
        bundle_level = verify_division_properties(M.bundle).violations
        assert report.violations[: len(bundle_level)] == bundle_level
        extra = report.violations[len(bundle_level):]
        assert {v.rule for v in extra} <= {"division.left-invariance"}


def test_invariant_ggt_counts(hs_z2, hs_s3):
    all_z2 = enumerate_ggts(hs_z2.bundle, hs_z2.bundle)
    inv_z2 = [K for K in all_z2 if is_left_invariant_ggt(hs_z2, hs_z2, K)]
    assert (len(all_z2), len(inv_z2)) == (2, 2)

    all_s3 = enumerate_ggts(hs_s3.bundle, hs_s3.bundle)
    inv_s3 = [K for K in all_s3 if is_left_invariant_ggt(hs_s3, hs_s3, K)]
    assert (len(all_s3), len(inv_s3)) == (6, 1)
    for K in inv_s3:
        assert validate_hs_ggt(hs_s3, hs_s3, K).ok


def test_validate_hs_ggt_flags_non_invariant(hs_s3):
    culprits = [
        K
        for K in enumerate_ggts(hs_s3.bundle, hs_s3.bundle)
        if not is_left_invariant_ggt(hs_s3, hs_s3, K)
    ]
    assert len(culprits) == 5
    for K in culprits:
        report = validate_hs_ggt(hs_s3, hs_s3, K)
        assert "ggt.left-invariance" in report.rules()
        with pytest.raises(
            IntegrityError,
            match="^morphism of an invariant GGT is not left equivariant$",
        ):
            hs_ggt_to_morphism(hs_s3, hs_s3, K)


def test_hs_morphisms_match_invariant_ggts(hs_s3):
    morphisms = [
        HSBundleMorphism(hs_s3, hs_s3, f.mapping)
        for f in enumerate_bundle_morphisms(hs_s3.bundle, hs_s3.bundle)
        if validate_hs_morphism(HSBundleMorphism(hs_s3, hs_s3, f.mapping)).ok
    ]
    invariant = [
        K
        for K in enumerate_ggts(hs_s3.bundle, hs_s3.bundle)
        if is_left_invariant_ggt(hs_s3, hs_s3, K)
    ]
    assert len(morphisms) == len(invariant) == 1
    for f in morphisms:
        K = hs_morphism_to_ggt(f)
        back = hs_ggt_to_morphism(hs_s3, hs_s3, K)
        assert back.mapping == f.mapping
    for K in invariant:
        f = hs_ggt_to_morphism(hs_s3, hs_s3, K)
        assert _table(hs_morphism_to_ggt(f)) == _table(K)


def test_hs_morphism_to_ggt_rejects_non_equivariant(hs_s3):
    shifted = next(
        f
        for f in enumerate_bundle_morphisms(hs_s3.bundle, hs_s3.bundle)
        if not validate_hs_morphism(HSBundleMorphism(hs_s3, hs_s3, f.mapping)).ok
    )
    with pytest.raises(IntegrityError, match="not invariant"):
        hs_morphism_to_ggt(HSBundleMorphism(hs_s3, hs_s3, shifted.mapping))


def test_hs_gauge_group_orders(hs_z2, hs_s3, hs_embed):
    assert hs_gauge_group(hs_z2).order == 2
    # only the center of S3 survives left invariance
    assert hs_gauge_group(hs_s3).order == 1
    # the centralizer of the embedded transposition has order 2
    assert hs_gauge_group(hs_embed).order == 2
    assert gauge_group(hs_embed.bundle).order == 6


def test_hs_gauge_groupoid_sits_inside_the_full_one(hs_z2, hs_s3):
    for h in (hs_z2, hs_s3):
        sub = build_hs_gauge_groupoid([h])
        full = build_gauge_groupoid([h.bundle])
        assert validate_groupoid(sub.groupoid).ok
        assert sub.groupoid.arrows <= full.groupoid.arrows
    assert len(build_hs_gauge_groupoid([hs_s3]).groupoid.arrows) == 1


def test_hs_gauge_groupoid_identity_is_invariant(hs_z2):
    gg = build_hs_gauge_groupoid([hs_z2])
    pid = gg.bundle_ids[0]
    unit_arrow = gg.groupoid.unit[pid]
    assert _table(gg.ggts[unit_arrow]) == _table(identity_ggt(hs_z2.bundle))


def test_hs_gauge_groupoid_input_checks(hs_z2, hs_s3):
    with pytest.raises(ValueError, match="at least one bibundle"):
        build_hs_gauge_groupoid([])
    with pytest.raises(ValueError, match="share domain and codomain"):
        build_hs_gauge_groupoid([hs_z2, hs_s3])


def test_random_bibundles_validate_and_restrict():
    built = 0
    seed = 0
    while built < 3 and seed < 20:
        G = random_groupoid(GeneratorSpec(seed, max_objects=2, max_group_order=6))
        H = random_groupoid(GeneratorSpec(seed + 40, max_objects=2, max_group_order=3))
        try:
            h1 = random_hs(G, H, GeneratorSpec(seed + 80, max_total=12))
            h2 = random_hs(G, H, GeneratorSpec(seed + 120, max_total=12))
        except GeneratorError:
            seed += 1
            continue
        assert validate_hs(h1).ok and validate_hs(h2).ok
        morphisms = [
            f
            for f in enumerate_bundle_morphisms(h1.bundle, h2.bundle)
            if validate_hs_morphism(HSBundleMorphism(h1, h2, f.mapping)).ok
        ]
        invariant = [
            K
            for K in enumerate_ggts(h1.bundle, h2.bundle)
            if is_left_invariant_ggt(h1, h2, K)
        ]
        assert len(morphisms) == len(invariant)
        built += 1
        seed += 1
    assert built == 3


def test_hs_product_refuses_a_bundle_off_its_codomain(hs_z2, hs_s3):
    off = replace(hs_z2, cod=hs_s3.cod)
    assert validate_hs(off).rules() == {"context.mismatch"}
    with pytest.raises(ValueError, match="first factor's bundle groupoid"):
        hs_product(off, hs_z2)
    with pytest.raises(ValueError, match="second factor's bundle groupoid"):
        hs_product(hs_z2, off)
    assert validate_hs(hs_product(hs_z2, hs_s3)).ok


def test_invariant_gauge_groupoid_keeps_the_invariant_arrows_of_the_full_one():
    """Over the bibundle families of run_checks (seed offset 0, seeds 0
    to 11), the arrows of build_hs_gauge_groupoid are exactly those of
    build_gauge_groupoid on the same bundles that is_left_invariant_ggt
    admits, with the same ids and the same GGTs."""
    families = []
    for seed in range(12):
        G = random_groupoid(GeneratorSpec(seed + 300, max_objects=2, max_group_order=6))
        H = random_groupoid(GeneratorSpec(seed + 400, max_objects=2, max_group_order=3))
        try:
            pair = [random_hs(G, H, GeneratorSpec(seed + k, max_total=12)) for k in (500, 600)]
        except GeneratorError:
            continue
        families.append(pair)
    assert len(families) == 12
    dropped = 0
    for hs in families:
        full = build_gauge_groupoid([h.bundle for h in hs])
        index = {x: i for i, x in enumerate(full.bundle_ids)}
        kept = {
            a
            for a, K in full.ggts.items()
            if is_left_invariant_ggt(
                hs[index[full.groupoid.source[a]]], hs[index[full.groupoid.target[a]]], K
            )
        }
        invariant = build_hs_gauge_groupoid(hs)
        assert invariant.groupoid.arrows == kept
        assert all(invariant.ggts[a].values == full.ggts[a].values for a in kept)
        dropped += len(full.groupoid.arrows) - len(kept)
    assert dropped > 0
