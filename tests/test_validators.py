"""Validators as a whole: pinned witness bytes, exactness against the
oracles, and division verifiers that report instead of raising.

The corpora here are built from the constructors, the generators and
dataclasses.replace only; the oracles of builders and the naive
left-invariance check below share no code with the validators.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import replace

import pytest

from gpdkit import (
    CONJUGATION_VARIANTS,
    GGT,
    BundleMorphism,
    GaugeTransformation,
    GeneratorSpec,
    GroupoidMorphism,
    HSBundleMorphism,
    ValidationReport,
    enumerate_bundle_morphisms,
    enumerate_ggts,
    gauge_group,
    gauge_to_ggt,
    generalized_conjugation,
    ggt_to_gauge,
    group_table,
    hs_from_groupoid_morphism,
    make_group_groupoid,
    make_pair_groupoid,
    random_bundle,
    random_groupoid,
    random_hs,
    unit_bundle,
    validate_action,
    validate_bundle,
    validate_bundle_morphism,
    validate_gauge_transformation,
    validate_ggt,
    validate_groupoid,
    validate_hs,
    validate_hs_ggt,
    validate_hs_morphism,
    validate_morphism,
    verify_division_properties,
    verify_hs_division_properties,
)
from helpers import naive_divisions, relabel_bundle_points, reversal_relabeling


def one_entry_mutants(table: dict, pool) -> list[tuple[str, dict]]:
    """Each deletion of one entry of table, and each rewrite of one value
    to the next id of pool in sorted order, cyclically, and to "?", an id
    of no pool."""
    ordered = sorted(pool)
    out = []
    for key in sorted(table):
        out.append((f"del {key}", {k: v for k, v in table.items() if k != key}))
        value = table[key]
        after = ordered[(ordered.index(value) + 1) % len(ordered) if value in pool else 0]
        for new in (after, "?"):
            if new != value:
                out.append((f"{key} -> {new}", {**table, key: new}))
    return out


def identity_morphism(G) -> GroupoidMorphism:
    return GroupoidMorphism(G, G, {x: x for x in G.objects}, {g: g for g in G.arrows})


def _witness_corpus(docs):
    """(label, report) for every validator over seeded one-entry deletions
    and rewrites of small structures, in a fixed order.

    verify_division_properties and verify_hs_division_properties see the
    deletions and the projection and momentum rewrites of their bundles:
    an act value rewrite can leave a product undefined, on which they
    raised KeyError before they learned to skip it (see
    test_division_verifiers_report_on_act_mutants).
    """
    names = ("z2.gpd", "s3.gpd", "pair2.gpd", "pair3.gpd", "z2-swap.gpd")
    groupoids = [docs[name] for name in names]
    groupoids += [random_groupoid(GeneratorSpec(s, 2, 2)) for s in range(3)]
    for G in groupoids:
        yield "groupoid", validate_groupoid(G)
        for field, pool in (
            ("source", G.objects),
            ("target", G.objects),
            ("unit", G.arrows),
            ("inverse", G.arrows),
            ("compose", G.arrows),
        ):
            for label, table in one_entry_mutants(getattr(G, field), pool):
                M = replace(G, **{field: table})
                yield f"groupoid {field} {label}", validate_groupoid(M)
    for G in groupoids[:3]:
        m = identity_morphism(G)
        for field, pool in (("object_map", G.objects), ("arrow_map", G.arrows)):
            for label, table in one_entry_mutants(getattr(m, field), pool):
                M = replace(m, **{field: table})
                yield f"morphism {field} {label}", validate_morphism(M)
        for label, table in one_entry_mutants(G.compose, G.arrows)[:6]:
            M = replace(m, domain=replace(G, compose=table))
            yield f"morphism domain {label}", validate_morphism(M)
    for G in (docs["z2.gpd"], docs["pair2.gpd"]):
        for variant in CONJUGATION_VARIANTS:
            A = generalized_conjugation(G, variant)
            yield f"action {variant}", validate_action(A)
            for label, table in one_entry_mutants(A.act, A.carrier):
                yield f"action {variant} act {label}", validate_action(replace(A, act=table))
            for label, table in one_entry_mutants(A.momentum, A.groupoid.objects):
                M = replace(A, momentum=table)
                yield f"action {variant} momentum {label}", validate_action(M)
            GG = A.groupoid
            for label, table in one_entry_mutants(GG.target, GG.objects)[:12]:
                M = replace(A, groupoid=replace(GG, target=table))
                yield f"action {variant} target {label}", validate_action(M)

    bundles = [docs["unit-z2.bnd"], unit_bundle(docs["pair2.gpd"]), unit_bundle(docs["s3.gpd"])]
    bundles.append(random_bundle(docs["pair2.gpd"], 2, GeneratorSpec(3, max_total=8)))
    # points renamed against the base order, so pairs by fiber are unsorted
    bundles.append(relabel_bundle_points(bundles[1], reversal_relabeling(bundles[1])))
    for B in bundles:
        yield "bundle", validate_bundle(B)
        yield "division", verify_division_properties(B)
        # two act entries gone, (p, g) and (q, h) with p < q and g > h
        keys = sorted(B.act)
        first = max(k for k in keys if k[0] == keys[0][0])
        last = min(k for k in keys if k[0] == keys[-1][0])
        M = replace(B, act={k: v for k, v in B.act.items() if k not in (first, last)})
        yield "bundle act two deleted", validate_bundle(M)
        tables = (("act", B.total), ("projection", B.base), ("momentum", B.groupoid.objects))
        for field, pool in tables:
            for label, table in one_entry_mutants(getattr(B, field), pool):
                M = replace(B, **{field: table})
                yield f"bundle {field} {label}", validate_bundle(M)
                if field != "act" or label.startswith("del "):
                    yield f"division {field} {label}", verify_division_properties(M)

    for B in bundles:
        for i, f in enumerate(enumerate_bundle_morphisms(B, B)[:2]):
            yield f"bundle morphism {i}", validate_bundle_morphism(f)
            for label, table in one_entry_mutants(f.mapping, B.total):
                M = replace(f, mapping=table)
                yield f"bundle morphism {i} {label}", validate_bundle_morphism(M)
        for i, K in enumerate(enumerate_ggts(B, B)[:2]):
            yield f"ggt {i}", validate_ggt(K)
            for label, table in one_entry_mutants(K.values, B.groupoid.arrows):
                yield f"ggt {i} {label}", validate_ggt(replace(K, values=table))
            for label, table in one_entry_mutants(B.projection, B.base):
                M = replace(B, projection=table)
                M = replace(K, source=M, target=M)
                yield f"ggt {i} projection {label}", validate_ggt(M)
    for B in bundles[1:3]:
        for i, t in enumerate(gauge_group(B).elements[:2]):
            yield f"gauge {i}", validate_gauge_transformation(t)
            for label, table in one_entry_mutants(t.values, B.groupoid.arrows):
                M = replace(t, values=table)
                yield f"gauge {i} {label}", validate_gauge_transformation(M)

    pair2 = docs["pair2.gpd"]
    hss = [
        hs_from_groupoid_morphism(identity_morphism(docs["z2.gpd"])),
        hs_from_groupoid_morphism(identity_morphism(pair2)),
        random_hs(pair2, pair2, GeneratorSpec(2, max_total=12)),
    ]
    for h in hss:
        yield "hs", validate_hs(h)
        yield "hs division", verify_hs_division_properties(h)
        for label, table in one_entry_mutants(h.left_act, h.bundle.total):
            M = replace(h, left_act=table)
            yield f"hs left {label}", validate_hs(M)
            yield f"hs division left {label}", verify_hs_division_properties(M)
        for label, table in one_entry_mutants(h.bundle.act, h.bundle.total):
            M = replace(h, bundle=replace(h.bundle, act=table))
            yield f"hs act {label}", validate_hs(M)
            if label.startswith("del "):
                yield f"hs division act {label}", verify_hs_division_properties(M)
    for h1, h2 in ((hss[1], hss[1]), (hss[1], hss[2])):
        for i, f in enumerate(enumerate_bundle_morphisms(h1.bundle, h2.bundle)[:2]):
            hf = HSBundleMorphism(h1, h2, f.mapping)
            yield f"hs morphism {i}", validate_hs_morphism(hf)
            for label, table in one_entry_mutants(f.mapping, h2.bundle.total):
                M = replace(hf, mapping=table)
                yield f"hs morphism {i} {label}", validate_hs_morphism(M)
            for label, table in one_entry_mutants(h2.left_act, h2.bundle.total)[:8]:
                M = replace(hf, target=replace(h2, left_act=table))
                yield f"hs morphism {i} left {label}", validate_hs_morphism(M)
        for i, K in enumerate(enumerate_ggts(h1.bundle, h2.bundle)[:2]):
            yield f"hs ggt {i}", validate_hs_ggt(h1, h2, K)
            for label, table in one_entry_mutants(K.values, h1.cod.arrows):
                yield f"hs ggt {i} {label}", validate_hs_ggt(h1, h2, replace(K, values=table))
            for label, table in one_entry_mutants(h2.left_act, h2.bundle.total)[:8]:
                M = replace(h2, left_act=table)
                yield f"hs ggt {i} left {label}", validate_hs_ggt(h1, M, K)


# sha256 of the corpus's "label<TAB>render()" lines, recorded at the
# commit before the validators moved onto the shared table check,
# transport and commuting-moves kernels.
WITNESS_OUTPUTS = 2443
WITNESS_DIGEST = "6a82ac85fd47e0186670b061fb81d294a39ca62af4552f480feb8352f3fbaea9"


def test_validator_witnesses_are_pinned(docs):
    """Violation text and order of every validator stay byte-identical."""
    lines = [f"{label}\t{report.render()}\n" for label, report in _witness_corpus(docs)]
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (WITNESS_OUTPUTS, WITNESS_DIGEST)


def rewrites(table: dict, pool) -> list[dict]:
    """Each rewrite of one value of table to another id of pool."""
    return [
        {**table, key: new} for key in sorted(table) for new in sorted(pool) if new != table[key]
    ]


def oracle_pairs(docs) -> list:
    """Bundle pairs within the oracle bounds: unit bundles of fixture
    groupoids against themselves, and random bundles against themselves
    and against another random bundle over the same base."""
    pair2, z2 = docs["pair2.gpd"], docs["z2.gpd"]
    units = [docs["unit-z2.bnd"], unit_bundle(pair2), unit_bundle(docs["s3.gpd"])]
    pairs = [(B, B) for B in units]
    for seed in range(5):
        G, base = (z2, 3) if seed % 2 else (pair2, 2)
        B1 = random_bundle(G, base, GeneratorSpec(seed, max_total=8))
        B2 = random_bundle(G, base, GeneratorSpec(seed + 10, max_total=8))
        pairs.append((B1, B1))
        if B2.base == B1.base:
            pairs.append((B1, B2))
    return pairs


def test_validate_ggt_accepts_exactly_the_enumerated_ggts(docs):
    for B1, B2 in oracle_pairs(docs):
        oracle = enumerate_ggts(B1, B2)
        members = {frozenset(K.values.items()) for K in oracle}
        for K in oracle:
            assert validate_ggt(K).ok
            for values in rewrites(K.values, B1.groupoid.arrows):
                candidate = GGT(B1, B2, values)
                assert validate_ggt(candidate).ok == (frozenset(values.items()) in members)


def test_validate_bundle_morphism_accepts_exactly_the_enumerated_morphisms(docs):
    for B1, B2 in oracle_pairs(docs):
        oracle = enumerate_bundle_morphisms(B1, B2)
        members = {frozenset(f.mapping.items()) for f in oracle}
        for f in oracle:
            assert validate_bundle_morphism(f).ok
            for mapping in rewrites(f.mapping, B2.total):
                candidate = replace(f, mapping=mapping)
                expected = frozenset(mapping.items()) in members
                assert validate_bundle_morphism(candidate).ok == expected


def test_swapped_points_break_only_equivariance():
    """Swapping two points of a unit bundle of a group keeps the map
    bijective and over the one base point and object, so equivariance is
    the only law it breaks."""
    B = unit_bundle(make_group_groupoid(group_table("z3")))
    mapping = {"c1": "c2", "c2": "c1", "e": "e"}
    report = validate_bundle_morphism(BundleMorphism(B, B, mapping))
    assert report.render().splitlines() == [
        "morphism.equivariance[c1,c1]",
        "morphism.equivariance[c1,c2]",
        "morphism.equivariance[c2,c1]",
        "morphism.equivariance[c2,c2]",
        "morphism.equivariance[e,c1]",
        "morphism.equivariance[e,c2]",
    ]


def test_a_rewritten_inverse_breaks_division_symmetry(docs):
    """d(p, q) == d(q, p)^-1 reads G's inverse table, which the division
    map itself never reads: each one-entry rewrite of it breaks symmetry."""
    s3 = docs["s3.gpd"]
    inverses = rewrites(s3.inverse, s3.arrows)
    assert len(inverses) == 30
    for inverse in inverses:
        B = unit_bundle(replace(s3, inverse=inverse))
        assert "division.symmetry" in verify_division_properties(B).rules()


def naively_left_invariant(h1, h2, values: dict) -> bool:
    """values(g.p1, g.p2) == values(p1, p2) over every pair of left act
    entries with one arrow g, by brute force."""
    return all(
        values[(q1, q2)] == values[(p1, p2)]
        for (g, p1), q1 in h1.left_act.items()
        for (g2, p2), q2 in h2.left_act.items()
        if g == g2 and (p1, p2) in values and (q1, q2) in values
    )


def test_validate_hs_ggt_accepts_exactly_the_invariant_enumerated_ggts(docs):
    pair2 = docs["pair2.gpd"]
    hss = [
        hs_from_groupoid_morphism(identity_morphism(docs["z2.gpd"])),
        hs_from_groupoid_morphism(identity_morphism(pair2)),
        random_hs(pair2, pair2, GeneratorSpec(2, max_total=12)),
        random_hs(pair2, pair2, GeneratorSpec(5, max_total=12)),
        hs_from_groupoid_morphism(identity_morphism(docs["s3.gpd"])),
    ]
    pairs = [(h, h) for h in hss] + [(hss[1], hss[2]), (hss[2], hss[3])]
    for h1, h2 in pairs:
        oracle = enumerate_ggts(h1.bundle, h2.bundle)
        invariant = [K for K in oracle if naively_left_invariant(h1, h2, K.values)]
        members = {frozenset(K.values.items()) for K in invariant}
        for K in oracle:
            for values in [K.values, *rewrites(K.values, h1.cod.arrows)]:
                candidate = GGT(h1.bundle, h2.bundle, values)
                accepted = validate_hs_ggt(h1, h2, candidate).ok
                assert accepted == (frozenset(values.items()) in members)


def naively_left_equivariant(h1, h2, mapping: dict) -> bool:
    """mapping(g.p) == g.mapping(p) at every left act entry (g, p) of h1,
    by brute force."""
    return all(
        h2.left_act.get((g, mapping[p])) == mapping[gp] for (g, p), gp in h1.left_act.items()
    )


def test_validate_hs_morphism_accepts_exactly_the_equivariant_enumerated_morphisms(docs):
    G = random_groupoid(GeneratorSpec(1, max_objects=2, max_group_order=6))
    H = random_groupoid(GeneratorSpec(51, max_objects=2, max_group_order=3))
    r0, r1 = (random_hs(G, H, GeneratorSpec(seed, max_total=8)) for seed in (0, 1))
    identities = [
        hs_from_groupoid_morphism(identity_morphism(docs[name]))
        for name in ("z2.gpd", "pair2.gpd", "s3.gpd")
    ]
    pairs = [(h, h) for h in identities] + [(r0, r0), (r0, r1)]
    # s3 and the random pair have bundle morphisms that are not left equivariant
    dropped = 0
    for h1, h2 in pairs:
        oracle = enumerate_bundle_morphisms(h1.bundle, h2.bundle)
        equivariant = [f for f in oracle if naively_left_equivariant(h1, h2, f.mapping)]
        dropped += len(oracle) - len(equivariant)
        members = {frozenset(f.mapping.items()) for f in equivariant}
        for f in oracle:
            for mapping in [f.mapping, *rewrites(f.mapping, h2.bundle.total)]:
                accepted = validate_hs_morphism(HSBundleMorphism(h1, h2, mapping)).ok
                assert accepted == (frozenset(mapping.items()) in members)
    assert dropped


def test_validate_gauge_transformation_accepts_exactly_the_self_ggts(docs):
    for B, B2 in oracle_pairs(docs):
        if B2 is not B:
            continue
        members = {frozenset(K.values.items()) for K in enumerate_ggts(B, B)}
        for K in enumerate_ggts(B, B):
            t = ggt_to_gauge(K)
            for values in [t.values, *rewrites(t.values, B.groupoid.arrows)]:
                candidate = GaugeTransformation(B, values)
                try:
                    is_gauge = frozenset(gauge_to_ggt(candidate).values.items()) in members
                except KeyError:  # a value off the isotropy groups has no product
                    is_gauge = False
                assert validate_gauge_transformation(candidate).ok == is_gauge


def act_mutants(B):
    """B with one act entry (p, g) -> q added, for every (p, g) off its
    act table, or one act value rewritten, to every point q."""
    for p, g in itertools.product(sorted(B.total), sorted(B.groupoid.arrows)):
        for q in sorted(B.total):
            if B.act.get((p, g)) != q:
                yield replace(B, act={**B.act, (p, g): q})


def test_division_verifiers_report_on_act_mutants(docs):
    """An act entry off the anchors, or an act value moved to another
    fiber or momentum, leaves products undefined; the division verifiers
    skip those instances, as the other laws do, and report."""
    B = unit_bundle(make_pair_groupoid(2))
    M = replace(B, act={**B.act, ("(0,0)", "(1,0)"): "(0,0)"})
    assert validate_bundle(M).rules() == {"table.act.extra", "bundle.free"}
    assert verify_division_properties(M).render() == "division.defined[(0,0),(0,0)]"

    bundles = [unit_bundle(docs["pair3.gpd"]), unit_bundle(docs["z2-swap.gpd"])]
    pair2 = docs["pair2.gpd"]
    bundles += [random_bundle(pair2, 2, GeneratorSpec(s, max_total=8)) for s in range(4)]
    witnesses = 0
    for M in (M for B in bundles for M in act_mutants(B)):
        report = verify_division_properties(M)
        # each equivariance witness is real: both sides defined, and apart
        G, d = M.groupoid, naive_divisions(M)
        for v in report.violations:
            if v.rule == "division.equivariance":
                p, q, g1, g2 = v.witness
                (moved,) = d[(M.act[(p, g1)], M.act[(q, g2)])]
                want = G.compose[(G.compose[(G.inverse[g1], d[(p, q)][0])], g2)]
                assert moved != want
                witnesses += 1
    assert witnesses > 0

    h = hs_from_groupoid_morphism(identity_morphism(make_pair_groupoid(2)))
    for M in act_mutants(h.bundle):
        assert isinstance(verify_hs_division_properties(replace(h, bundle=M)), ValidationReport)


def test_malformed_table_keys_are_reported_not_raised(unit_z2):
    """A table key that is not a pair of ids, here a 3-tuple, a 1-tuple, a
    string, two of whose characters would unpack as a pair, or a pair with
    an id that is not a string, never makes a validator raise: the law
    loops read only the keys that are pairs of ids, and each validator that
    checks the table names the key as unknown-key and finds nothing else."""
    G = unit_z2.groupoid
    identity = identity_morphism(G)
    h = hs_from_groupoid_morphism(identity)
    p, hp = min(unit_z2.total), min(h.bundle.total)
    fixed = {q: q for q in h.bundle.total}
    for key in [("a", "e", "x"), ("a",), "ae", "ea", (0, "a"), ("a", 0)]:
        ids = ",".join(map(str, key) if isinstance(key, tuple) else (key,))
        unknown = f"table.act.unknown-key[{ids}]"
        B = replace(unit_z2, act={**unit_z2.act, key: p})
        right = replace(h, bundle=replace(h.bundle, act={**h.bundle.act, key: hp}))
        left = replace(h, left_act={**h.left_act, key: hp})
        compose = {**G.compose, key: "a"}
        reports = [
            (validate_action(B.right_action()), [unknown]),
            (validate_bundle(B), [unknown]),
            (verify_division_properties(B), []),
            (validate_hs(right), [unknown]),
            (verify_hs_division_properties(right), []),
            (validate_hs(left), [f"left-{unknown}"]),
            (verify_hs_division_properties(left), []),
            (validate_hs_morphism(HSBundleMorphism(left, left, fixed)), []),
            (validate_groupoid(replace(G, compose=compose)), [f"table.compose.unknown-key[{ids}]"]),
            (validate_morphism(replace(identity, domain=replace(G, compose=compose))), []),
        ]
        for i, (report, want) in enumerate(reports):
            assert [str(v) for v in report.violations] == want, (key, i)

