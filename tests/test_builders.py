"""Named constructors, random generators and the enumeration oracles."""

from __future__ import annotations

import ast
import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

import gpdkit
from gpdkit import (
    GROUP_NAMES,
    GeneratorError,
    GeneratorSpec,
    OracleBoundError,
    OracleBounds,
    PrincipalBundle,
    division_map,
    dumps,
    enumerate_bundle_morphisms,
    enumerate_ggts,
    fixture_documents,
    group_table,
    loads,
    make_action_groupoid,
    make_gauge_groupoid_example,
    make_group_groupoid,
    make_pair_groupoid,
    pullback_bundle,
    random_bundle,
    random_groupoid,
    random_hs,
    unit_bundle,
    validate_bundle,
    validate_bundle_morphism,
    validate_ggt,
    validate_groupoid,
    validate_hs,
)
from gpdkit.builders import ORACLE_BOUNDS_ENV, oracle_bounds

from helpers import (
    naive_bundle_morphisms,
    naive_ggts,
    relabel_bundle_points,
    reversal_relabeling,
)

SWAP = {("e", "0"): "0", ("e", "1"): "1", ("a", "0"): "1", ("a", "1"): "0"}


def test_named_group_tables_build_groupoids():
    for name in GROUP_NAMES:
        G = make_group_groupoid(group_table(name))
        assert validate_groupoid(G).ok
        assert len(G.objects) == 1
    assert len(make_group_groupoid(group_table("s3")).arrows) == 6
    with pytest.raises(KeyError, match="unknown group"):
        group_table("q8")


def test_group_table_rejections():
    partial = group_table("z2")
    del partial[("a", "a")]
    with pytest.raises(ValueError, match="missing entry"):
        make_group_groupoid(partial)

    stray = group_table("z2")
    stray[("a", "a")] = "q"
    with pytest.raises(ValueError, match="is not an element"):
        make_group_groupoid(stray)

    no_unit = {
        ("a", "a"): "b", ("a", "b"): "b",
        ("b", "a"): "b", ("b", "b"): "a",
    }
    with pytest.raises(ValueError, match="no two-sided identity"):
        make_group_groupoid(no_unit)

    no_inverse = {
        ("a", "a"): "a", ("a", "b"): "b",
        ("b", "a"): "b", ("b", "b"): "b",
    }
    with pytest.raises(ValueError, match="no inverse for 'b'"):
        make_group_groupoid(no_inverse)


def test_nonassociative_loop_is_not_a_group_table():
    # z6 with one intercalate swapped: still a loop, no longer associative
    els = [f"g{i}" for i in range(6)]
    table = {(els[i], els[j]): els[(i + j) % 6] for i in range(6) for j in range(6)}
    table[("g1", "g1")], table[("g1", "g4")] = "g5", "g2"
    table[("g4", "g1")], table[("g4", "g4")] = "g2", "g5"
    with pytest.raises(ValueError, match="not a group table: associativity"):
        make_group_groupoid(table)


def test_make_pair_groupoid_matches_fixture(pair2):
    assert make_pair_groupoid(2) == pair2
    named = make_pair_groupoid(["u", "v"])
    assert named.arrows == {"(u,u)", "(u,v)", "(v,u)", "(v,v)"}
    assert named.source["(u,v)"] == "v" and named.target["(u,v)"] == "u"
    assert named.mul("(u,v)", "(v,u)") == "(u,u)"


def test_make_action_groupoid_matches_fixture(z2_swap):
    built = make_action_groupoid(group_table("z2"), ["0", "1"], SWAP)
    assert built == z2_swap


def test_make_action_groupoid_rejections():
    partial = dict(SWAP)
    del partial[("a", "1")]
    with pytest.raises(ValueError, match=r"^not a group action: table\.act\.missing\[a,1\]$"):
        make_action_groupoid(group_table("z2"), ["0", "1"], partial)

    lazy = dict(SWAP)
    lazy[("e", "0")] = "1"
    with pytest.raises(ValueError, match=r"(?m)^action\.unit\[0\]$"):
        make_action_groupoid(group_table("z2"), ["0", "1"], lazy)

    skew = dict(SWAP)
    skew[("a", "1")] = "1"
    with pytest.raises(ValueError, match=r"^not a group action: action\.compose\[a,a,0\]$"):
        make_action_groupoid(group_table("z2"), ["0", "1"], skew)

    stray = dict(SWAP)
    stray[("a", "2")] = "0"
    with pytest.raises(ValueError, match=r"^not a group action: table\.act\.unknown-key\[a,2\]$"):
        make_action_groupoid(group_table("z2"), ["0", "1"], stray)


def _trivial_z2_bundle_data():
    points = [f"{m}.{c}" for m in ("m0", "m1") for c in ("e", "a")]
    z2t = group_table("z2")
    action = {
        (f"{m}.{c}", g): f"{m}.{z2t[(c, g)]}"
        for m in ("m0", "m1")
        for c in ("e", "a")
        for g in ("e", "a")
    }
    projection = {p: p.split(".")[0] for p in points}
    return points, projection, action


def test_make_gauge_groupoid_example_matches_fixture(gauge_z2):
    points, projection, action = _trivial_z2_bundle_data()
    built = make_gauge_groupoid_example(
        group_table("z2"), points, ["m0", "m1"], projection, action
    )
    assert built == gauge_z2
    assert len(built.arrows) == 8


def test_make_gauge_groupoid_example_rejections():
    points, projection, action = _trivial_z2_bundle_data()
    stuck = dict(action)
    stuck[("m0.e", "a")] = "m0.e"
    stuck[("m0.a", "a")] = "m0.a"
    with pytest.raises(ValueError, match="bundle.free"):
        make_gauge_groupoid_example(
            group_table("z2"), points, ["m0", "m1"], projection, stuck
        )

    # two disjoint z2-orbits in one fiber: free but not transitive
    wide = [f"p{i}" for i in range(4)]
    pairing = {"p0": "p1", "p1": "p0", "p2": "p3", "p3": "p2"}
    fat_action = {}
    for p in wide:
        fat_action[(p, "e")] = p
        fat_action[(p, "a")] = pairing[p]
    with pytest.raises(ValueError, match="bundle.transitive"):
        make_gauge_groupoid_example(
            group_table("z2"), wide, ["m"], {p: "m" for p in wide}, fat_action
        )


def test_random_groupoid_is_deterministic_and_bounded():
    spec = GeneratorSpec(5, max_objects=3, max_group_order=4)
    assert random_groupoid(spec) == random_groupoid(spec)
    assert any(
        random_groupoid(GeneratorSpec(s, max_objects=3, max_group_order=4)) != random_groupoid(spec)
        for s in (6, 7, 8)
    )
    for seed in range(40):
        G = random_groupoid(GeneratorSpec(seed, max_objects=3, max_group_order=4))
        assert validate_groupoid(G).ok
        assert 1 <= len(G.objects) <= 3


def test_random_bundle_is_deterministic_and_principal(s3):
    spec = GeneratorSpec(11)
    assert random_bundle(s3, 2, spec).act == random_bundle(s3, 2, spec).act
    for seed in range(8):
        G = random_groupoid(GeneratorSpec(seed, max_objects=2))
        try:
            B = random_bundle(G, 2, GeneratorSpec(seed + 100, max_total=16))
        except GeneratorError:
            continue
        assert validate_bundle(B).ok
        assert 1 <= len(B.base) <= 2
        assert B.groupoid is G


def test_random_bundle_rejections(s3):
    with pytest.raises(ValueError, match="base_size must be at least 1"):
        random_bundle(s3, 0, GeneratorSpec(0))
    with pytest.raises(GeneratorError, match="no fiber fits in a total space of 2 points"):
        random_bundle(s3, 1, GeneratorSpec(0, max_total=2))


def test_random_hs_is_deterministic_and_valid(z2, s3, pair2):
    spec = GeneratorSpec(3, max_total=12)
    h1 = random_hs(z2, s3, spec)
    h2 = random_hs(z2, s3, spec)
    assert h1.left_act == h2.left_act and h1.bundle.act == h2.bundle.act
    assert validate_hs(h1).ok
    with pytest.raises(GeneratorError, match="cheapest bibundle needs"):
        random_hs(pair2, s3, GeneratorSpec(0, max_total=4))


FIXTURES_DIR = Path(__file__).resolve().parent.parent / "fixtures"

# sha256 of the concatenated dumps of each generator's output at seeds
# 0-29, as gen builds it (a GeneratorError as its text instead); any
# change to a generator's bytes, labels or rng use changes these.
GENERATOR_DIGESTS = {
    "groupoid": "581569236895e2b6da068ea84274b021786dd406e0917f6c88c964f149890c27",
    "bundle": "df84f37bccce61fc74fab298544d42022099b1725b627a92c4463f4ef119831a",
    "bundle over s3.gpd": "054f2025188eeee650f5592ced86a826783ccd3a75aba2f4403e4849e7ef43ea",
    "bundle over pair3.gpd": "95fe74d420dff0e34a529e945fda5bd8facfc5a9a6d3c80920fd62ca61205247",
    "hs": "9c373c0439ab7f048b4ecf2872faa3e886c514f419dd385cf60da78356b354e0",
}


def test_generator_bytes_are_pinned():
    """Every generator's output stays byte-identical at seeds 0-29."""
    s3, pair3 = (loads((FIXTURES_DIR / name).read_text()) for name in ("s3.gpd", "pair3.gpd"))
    makers = {
        "groupoid": random_groupoid,
        "bundle": lambda spec: random_bundle(random_groupoid(spec), 2, spec),
        "bundle over s3.gpd": lambda spec: random_bundle(s3, 3, replace(spec, max_total=18)),
        "bundle over pair3.gpd": lambda spec: random_bundle(pair3, 2, spec),
        "hs": lambda spec: random_hs(
            random_groupoid(replace(spec, max_objects=2)),
            random_groupoid(GeneratorSpec(spec.seed + 1, max_objects=2, max_group_order=3)),
            spec,
        ),
    }
    digests = {}
    for kind, make in makers.items():
        texts = []
        for seed in range(30):
            try:
                texts.append(dumps(make(GeneratorSpec(seed))))
            except GeneratorError as e:
                texts.append(f"GeneratorError: {e}\n")
        digests[kind] = hashlib.sha256("".join(texts).encode()).hexdigest()
    assert digests == GENERATOR_DIGESTS


def test_oracle_bounds_env_override(monkeypatch):
    monkeypatch.delenv(ORACLE_BOUNDS_ENV, raising=False)
    assert oracle_bounds() == OracleBounds()
    monkeypatch.setenv(ORACLE_BOUNDS_ENV, "total=24, arrows=48")
    assert oracle_bounds() == OracleBounds(max_total=24, max_arrows=48, max_base=6)
    monkeypatch.setenv(ORACLE_BOUNDS_ENV, "total=many")
    with pytest.raises(ValueError, match="bad piece 'total=many'"):
        oracle_bounds()
    monkeypatch.setenv(ORACLE_BOUNDS_ENV, "total=²")
    with pytest.raises(ValueError, match=f"cannot parse {ORACLE_BOUNDS_ENV}: bad piece 'total=²'"):
        oracle_bounds()
    monkeypatch.setenv(ORACLE_BOUNDS_ENV, "frobs=3")
    with pytest.raises(ValueError, match="bad piece"):
        oracle_bounds()


def test_oracle_refusals(unit_s3, monkeypatch):
    monkeypatch.setenv(ORACLE_BOUNDS_ENV, "total=1")
    with pytest.raises(OracleBoundError, match="points exceeds 1"):
        enumerate_bundle_morphisms(unit_s3, unit_s3)
    monkeypatch.setenv(ORACLE_BOUNDS_ENV, "arrows=2")
    with pytest.raises(OracleBoundError, match="arrows exceeds 2"):
        enumerate_ggts(unit_s3, unit_s3)
    monkeypatch.setenv(ORACLE_BOUNDS_ENV, "base=0")
    with pytest.raises(OracleBoundError, match="base points exceeds 0"):
        enumerate_ggts(unit_s3, unit_s3)
    monkeypatch.setenv(ORACLE_BOUNDS_ENV, "total=1")
    with pytest.raises(OracleBoundError, match=f"raise {ORACLE_BOUNDS_ENV} to override"):
        enumerate_bundle_morphisms(unit_s3, unit_s3)


def test_oracles_demand_shared_context(unit_z2, unit_s3):
    with pytest.raises(ValueError, match="shared base and groupoid"):
        enumerate_ggts(unit_z2, unit_s3)


def test_enumeration_counts_on_unit_bundles(unit_z2, unit_s3, unit_pair2):
    for B, expected in ((unit_z2, 2), (unit_s3, 6), (unit_pair2, 1)):
        morphisms = enumerate_bundle_morphisms(B, B)
        ggts = enumerate_ggts(B, B)
        assert len(morphisms) == len(ggts) == expected
        for f in morphisms:
            assert validate_bundle_morphism(f).ok
        for K in ggts:
            assert validate_ggt(K).ok


def test_enumeration_can_be_empty(z2):
    # two components, one bundle concentrated over each: nothing to map
    still = {("e", "0"): "0", ("e", "1"): "1", ("a", "0"): "0", ("a", "1"): "1"}
    G = make_action_groupoid(group_table("z2"), ["0", "1"], still)
    U = unit_bundle(G)
    B1 = pullback_bundle(U, {"m": "0"})
    B2 = pullback_bundle(U, {"m": "1"})
    assert enumerate_bundle_morphisms(B1, B2) == ()
    assert enumerate_ggts(B1, B2) == ()


def test_enumeration_counts_survive_relabeling(unit_z2, unit_s3):
    for B, expected in ((unit_z2, 2), (unit_s3, 6)):
        R = relabel_bundle_points(B, reversal_relabeling(B))
        assert validate_bundle(R).ok
        assert len(enumerate_bundle_morphisms(B, R)) == expected
        assert len(enumerate_ggts(B, R)) == expected


def test_fixture_documents_inventory(docs):
    assert sorted(docs) == [
        "gauge-z2.gpd",
        "pair2.gpd",
        "pair3.gpd",
        "s3.gpd",
        "unit-z2.bnd",
        "z2-swap.gpd",
        "z2.gpd",
    ]
    assert validate_bundle(docs["unit-z2.bnd"]).ok


def test_library_checks_do_not_rely_on_assert():
    # python -O strips assert statements, so a check written as one
    # silently stops running there.
    modules = sorted(Path(gpdkit.__file__).parent.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_oracles_share_no_index_with_the_bundle(unit_z2, unit_s3, unit_pair2, monkeypatch):
    G = random_groupoid(GeneratorSpec(1, max_objects=2, max_group_order=4))
    b1 = random_bundle(G, 2, GeneratorSpec(11, max_total=10))
    b2 = random_bundle(G, 2, GeneratorSpec(12, max_total=10))
    assert b1.base == b2.base
    twin = relabel_bundle_points(unit_pair2, reversal_relabeling(unit_pair2))
    pairs = [(unit_z2, unit_z2), (unit_s3, unit_s3), (unit_pair2, twin), (b1, b2)]
    want = [(enumerate_ggts(*pair), enumerate_bundle_morphisms(*pair)) for pair in pairs]
    assert all(ggts and morphisms for ggts, morphisms in want)

    def refuse(*args):
        raise AssertionError("an oracle read a bundle index")

    monkeypatch.setattr(PrincipalBundle, "fiber", refuse)
    for index in ("fibers", "moves", "quotients"):
        monkeypatch.setattr(PrincipalBundle, index, property(refuse))
    with pytest.raises(AssertionError, match="bundle index"):
        division_map(unit_z2, "e", "a")
    got = [(enumerate_ggts(*pair), enumerate_bundle_morphisms(*pair)) for pair in pairs]
    assert got == want


def test_enumerate_ggts_names_a_missing_compose_entry(unit_s3):
    """The oracle multiplies on the raw tables, but a product it cannot
    read still raises G.mul's KeyError, naming the missing entry."""
    G = unit_s3.groupoid
    for key in sorted(G.compose):
        compose = {k: v for k, v in G.compose.items() if k != key}
        B = replace(unit_s3, groupoid=replace(G, compose=compose))
        with pytest.raises(KeyError) as raised:
            enumerate_ggts(B, B)
        assert raised.value.args == (f"not composable: {key[0]!r} after {key[1]!r}",)


def _act_mutants(B: PrincipalBundle):
    """B, then every bundle that deletes one act entry of B or sends it to
    another point of the same fiber."""
    yield B
    for key in sorted(B.act):
        yield replace(B, act={k: v for k, v in B.act.items() if k != key})
        for q in B.fiber(B.projection[key[0]]):
            if q != B.act[key]:
                yield replace(B, act={**B.act, key: q})


def test_oracles_match_a_naive_enumeration_on_act_mutants(z2, unit_z2, unit_pair2):
    """On bundles of at most 4 points and their single-entry act mutants,
    on either side, both oracles return what trying every map or value
    table returns.  The mutants run the rejection branches: a spread that
    is not single-valued (enumerate_bundle_morphisms), a fiber point that
    the least point does not reach by exactly one arrow, and a block that
    breaks the law (enumerate_ggts)."""
    z2_over_two = random_bundle(z2, 2, GeneratorSpec(3, max_total=4))
    assert len(z2_over_two.total) == 4
    emptied = 0
    for B in (unit_z2, unit_pair2, z2_over_two):
        for M in _act_mutants(B):
            for B1, B2 in ((M, B), (B, M)):
                morphisms = [f.mapping for f in enumerate_bundle_morphisms(B1, B2)]
                assert morphisms == naive_bundle_morphisms(B1, B2)
                ggts = [K.values for K in enumerate_ggts(B1, B2)]
                assert ggts == naive_ggts(B1, B2)
                emptied += not ggts
    assert emptied
