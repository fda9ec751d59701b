"""The check suite behind check-theorems.

Every check carries a stable statement id and sweeps both the fixture
structures and seeded random instances, so one run exercises each
claimed law on concrete data.  Results are deterministic in (seed,
max_size, fixtures): reruns produce byte-identical reports.

Structures that fail their definitional check are excluded from the
later checks instead of crashing them, so a corrupted fixture surfaces
as exactly the statement it violates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .builders import (
    GeneratorError,
    GeneratorSpec,
    enumerate_bundle_morphisms,
    enumerate_ggts,
    fixture_documents,
    oracle_bounds,
    random_bundle,
    random_groupoid,
    random_hs,
)
from .bundles import (
    PrincipalBundle,
    division_map,
    fibred_product,
    product_bundle,
    trivialize,
    unit_bundle,
    validate_bundle,
    verify_division_properties,
)
from .core import (
    CONJUGATION_VARIANTS,
    FiniteGroupoid,
    GroupoidMorphism,
    generalized_conjugation,
    isotropy_group,
    split_pair,
    validate_action,
    validate_groupoid,
    validate_morphism,
)
from .gauge import (
    build_gauge_groupoid,
    check_division_invariance,
    gauge_group,
    gauge_to_ggt,
    ggt_to_gauge,
    ggt_to_morphism,
    morphism_to_ggt,
    star,
)
from .hs import (
    HSBundleMorphism,
    build_hs_gauge_groupoid,
    hs_fibred_product,
    hs_from_groupoid_morphism,
    hs_gauge_group,
    hs_ggt_to_morphism,
    hs_morphism_to_ggt,
    hs_product,
    is_left_invariant_ggt,
    validate_hs,
    validate_hs_morphism,
    verify_hs_division_properties,
)

__all__ = ["CHECKS", "CheckResult", "run_checks", "render_report", "report_document"]

CHECKS = (
    ("def-groupoid", "fixture and generated groupoids satisfy all axioms"),
    ("def-morgroupoid", "identity and isotropy inclusion morphisms validate"),
    ("prop-genconj", "all four generalized conjugations are valid actions"),
    ("def-princgroupoid", "fixture, unit and generated bundles validate"),
    ("def-unitbun", "unit bundle division is invert-then-compose"),
    ("prop-prophi", "division satisfies its defining equation and laws"),
    ("lem-prodbun", "product bundles validate, division componentwise"),
    ("lem-fibprod", "fibred product bundles validate"),
    ("def-trivbun", "a full section trivializes every bundle"),
    ("lem-inverequiv", "every enumerated bundle morphism is a bijection"),
    ("thm-gengaugeeq", "morphism and GGT enumerations match and round-trip"),
    ("thm-gaugeinvdiv", "bundle morphisms preserve division maps"),
    ("prop-gaugegr", "gauge groups close and match self-GGT counts"),
    ("thm-gaugegroupoid", "GGT groupoid validates, isotropy is the gauge group"),
    ("lem-prodhilskand1", "bibundle products validate"),
    ("lem-fibprodhils", "bibundle fibred products validate"),
    ("prop-proddivhils", "bibundle division maps are left invariant"),
    ("thm-gengaugehils", "equivariant morphisms match invariant GGTs"),
    ("prop-gaugegrhils", "invariant gauge groups close inside gauge groups"),
    ("thm-hsgaugegroupoid", "invariant GGT groupoid sits inside the full one"),
)


@dataclass(frozen=True)
class CheckResult:
    """One statement's outcome; ok only when it ran on some instance."""

    check: str
    ok: bool
    instances: int
    witness: str = ""

    @property
    def status(self) -> str:
        if not self.instances:
            return "EMPTY"
        return "PASS" if self.ok else "FAIL"


def _table(x) -> tuple:
    """A comparable key for the value table of a GGT or gauge transformation."""
    return tuple(sorted(x.values.items()))


def run_checks(
    seed: int = 42,
    max_size: int = 12,
    fixtures: dict[str, object] | None = None,
) -> tuple[CheckResult, ...]:
    """Run every named check; see CHECKS for ids and descriptions.

    fixtures maps labels to structures (defaults to the built-in set);
    random sweeps derive their generator specs from seed and cap totals
    at max_size.  Undersized bounds shrink sweeps rather than fail.
    """
    if fixtures is None:
        fixtures = fixture_documents()
    rows: dict[str, list[tuple[str, str]]] = {check: [] for check, _ in CHECKS}

    def add(check: str, label: str, detail: str = "") -> None:
        rows[check].append((label, detail))

    def first(report) -> str:
        return str(report.violations[0]) if report.violations else ""

    # --- groupoids -------------------------------------------------------
    groupoids: list[tuple[str, FiniteGroupoid]] = []
    for name, doc in sorted(fixtures.items()):
        if isinstance(doc, FiniteGroupoid):
            groupoids.append((name, doc))
    for i in range(4):
        spec = GeneratorSpec(
            seed + i, max_objects=3, max_group_order=6, max_total=max_size
        )
        groupoids.append((f"groupoid[seed={spec.seed}]", random_groupoid(spec)))

    valid_groupoids: list[tuple[str, FiniteGroupoid]] = []
    for label, G in groupoids:
        report = validate_groupoid(G)
        add("def-groupoid", label, first(report))
        if report.ok:
            valid_groupoids.append((label, G))
    # the conjugation and bundle sweeps grow cubically with arrows, so
    # oversized generator outputs stay in the axiom checks only
    small_groupoids = [
        (label, G) for label, G in valid_groupoids if len(G.arrows) <= max_size
    ]

    for label, G in valid_groupoids:
        ident = GroupoidMorphism(
            G, G, {x: x for x in G.objects}, {g: g for g in G.arrows}
        )
        report = validate_morphism(ident)
        if not report.ok:
            add("def-morgroupoid", f"identity on {label}", first(report))
        else:
            x = min(G.objects)
            iso = isotropy_group(G, x)
            inclusion = GroupoidMorphism(
                iso, G, {x: x}, {g: g for g in iso.arrows}
            )
            add("def-morgroupoid", f"isotropy at {x} into {label}",
                first(validate_morphism(inclusion)))
    for label, G in small_groupoids:
        for variant in CONJUGATION_VARIANTS:
            add(
                "prop-genconj",
                f"{variant} conjugation of {label}",
                first(validate_action(generalized_conjugation(G, variant))),
            )

    # --- bundles ---------------------------------------------------------
    bundles: list[tuple[str, PrincipalBundle]] = []
    for name, doc in sorted(fixtures.items()):
        if isinstance(doc, PrincipalBundle):
            bundles.append((name, doc))
    for label, G in small_groupoids:
        bundles.append((f"unit bundle of {label}", unit_bundle(G)))
    paired: list[tuple[str, PrincipalBundle, PrincipalBundle]] = []
    for i, (label, G) in enumerate(valid_groupoids):
        try:
            b1 = random_bundle(
                G, 2, GeneratorSpec(seed + 100 + i, max_total=max_size)
            )
            b2 = random_bundle(
                G, 2, GeneratorSpec(seed + 200 + i, max_total=max_size)
            )
        except GeneratorError:
            continue
        bundles.append((f"bundle[seed={seed + 100 + i}] over {label}", b1))
        bundles.append((f"bundle[seed={seed + 200 + i}] over {label}", b2))
        if b1.base == b2.base:
            paired.append((f"bundles over {label}", b1, b2))

    valid_bundles: list[tuple[str, PrincipalBundle]] = []
    for label, B in bundles:
        report = validate_bundle(B)
        add("def-princgroupoid", label, first(report))
        if report.ok:
            valid_bundles.append((label, B))
    valid_set = {id(B) for _, B in valid_bundles}
    paired = [row for row in paired if {id(row[1]), id(row[2])} <= valid_set]

    for label, G in small_groupoids:
        U = unit_bundle(G)
        bad = ""
        for g in sorted(U.total):
            for h in U.fiber(U.projection[g]):
                if division_map(U, g, h) != G.mul(G.inv(g), h):
                    bad = f"at ({g!r}, {h!r})"
                    break
            if bad:
                break
        add("def-unitbun", f"unit bundle of {label}", bad)

    for label, B in valid_bundles:
        add("prop-prophi", label, first(verify_division_properties(B)))

    small = sorted(valid_bundles, key=lambda row: (len(row[1].total), row[0]))[:2]
    for label1, B1 in small:
        for label2, B2 in small:
            P = product_bundle(B1, B2)
            report = validate_bundle(P)
            detail = first(report)
            if not detail:
                for p in sorted(P.total):
                    for q in P.fiber(P.projection[p]):
                        pa, pb = split_pair(p)
                        qa, qb = split_pair(q)
                        want_a = division_map(B1, pa, qa)
                        want_b = division_map(B2, pb, qb)
                        got = split_pair(division_map(P, p, q))
                        if got != (want_a, want_b):
                            detail = f"division at ({p!r}, {q!r})"
                            break
                    if detail:
                        break
            add("lem-prodbun", f"{label1} x {label2}", detail)

    for label, b1, b2 in paired:
        add("lem-fibprod", label, first(validate_bundle(fibred_product(b1, b2))))

    for label, B in valid_bundles:
        section = {m: B.fiber(m)[0] for m in sorted(B.base)}
        try:
            trivialize(B, section)
            add("def-trivbun", label)
        except Exception as e:
            add("def-trivbun", label, str(e))

    # --- the correspondence ---------------------------------------------
    bounds = oracle_bounds()

    def within(B: PrincipalBundle) -> bool:
        return (
            len(B.total) <= bounds.max_total
            and len(B.groupoid.arrows) <= bounds.max_arrows
            and len(B.base) <= bounds.max_base
        )

    # one enumeration per bundle pair; the bundles outlive the run, so ids stay unique
    oracle_ggts: dict[tuple[int, int], tuple] = {}

    def ggts_of(B1: PrincipalBundle, B2: PrincipalBundle) -> tuple:
        if (id(B1), id(B2)) not in oracle_ggts:
            oracle_ggts[id(B1), id(B2)] = enumerate_ggts(B1, B2)
        return oracle_ggts[id(B1), id(B2)]

    oracle_bundles = [(label, B) for label, B in valid_bundles if within(B)]
    hom_pairs: list[tuple[str, PrincipalBundle, PrincipalBundle]] = []
    for label, B in oracle_bundles:
        hom_pairs.append((f"{label} with itself", B, B))
    hom_pairs.extend(
        row for row in paired if within(row[1]) and within(row[2])
    )

    for label, B1, B2 in hom_pairs:
        morphisms = enumerate_bundle_morphisms(B1, B2)
        ggts = ggts_of(B1, B2)
        bad = ""
        for f in morphisms:
            image = sorted(f.mapping[p] for p in f.mapping)
            if image != sorted(B2.total):
                bad = "a non-bijective morphism"
                break
        add("lem-inverequiv", label, bad)

        bad = ""
        if len(morphisms) != len(ggts):
            bad = f"{len(morphisms)} morphisms vs {len(ggts)} GGTs"
        elif {_table(morphism_to_ggt(f)) for f in morphisms} != {
            _table(K) for K in ggts
        }:
            bad = "enumerations are not each other's images"
        else:
            for f in morphisms:
                if ggt_to_morphism(morphism_to_ggt(f)).mapping != f.mapping:
                    bad = "morphism round-trip moved a point"
                    break
            for K in ggts:
                if not bad and _table(morphism_to_ggt(ggt_to_morphism(K))) != _table(K):
                    bad = "GGT round-trip changed a value"
                    break
        add("thm-gengaugeeq", label, bad)

        bad = ""
        for f in morphisms:
            report = check_division_invariance(f)
            if not report.ok:
                bad = first(report)
                break
        add("thm-gaugeinvdiv", label, bad)

    for label, B in oracle_bundles:
        gg = gauge_group(B)
        bad = ""
        unit_values = {p: B.groupoid.unit[B.momentum[p]] for p in B.total}
        if gg.elements[gg.unit].values != unit_values:
            bad = "unit is not the pointwise unit arrow"
        elif sorted(gg.product) != sorted(
            (i, j) for i in range(gg.order) for j in range(gg.order)
        ):
            bad = "product table not total"
        elif gg.order != len(ggts_of(B, B)):
            bad = f"order {gg.order} vs {len(ggts_of(B, B))} self-GGTs"
        else:
            for i, t in enumerate(gg.elements):
                back = ggt_to_gauge(gauge_to_ggt(t))
                if back.values != t.values:
                    bad = "GGT correspondence moved an element"
                    break
        add("prop-gaugegr", label, bad)

    families: list[tuple[str, list[PrincipalBundle]]] = []
    oracle_paired = [row for row in paired if within(row[1]) and within(row[2])]
    for label, B1, B2 in oracle_paired[:2]:
        families.append((label, [B1, B2]))
    if oracle_bundles:
        label, B = min(oracle_bundles, key=lambda row: (len(row[1].total), row[0]))
        families.append((f"{label} alone", [B]))
    for label, family in families:
        gg = build_gauge_groupoid(family)
        report = validate_groupoid(gg.groupoid)
        detail = first(report)
        ids = gg.bundle_ids
        for i, Bi in enumerate(family):
            for j, Bj in enumerate(family):
                if not detail and sorted(
                    _table(gg.ggts[a]) for a in gg.groupoid.hom(ids[i], ids[j])
                ) != [_table(K) for K in ggts_of(Bi, Bj)]:
                    detail = f"hom({ids[i]}, {ids[j]}) differs from the oracle"
        if not detail:
            for i, B in enumerate(family):
                mine = {
                    _table(gg.ggts[a])
                    for a in gg.groupoid.hom(gg.bundle_ids[i], gg.bundle_ids[i])
                }
                theirs = {
                    _table(gauge_to_ggt(t)) for t in gauge_group(B).elements
                }
                if mine != theirs:
                    detail = f"isotropy mismatch at {gg.bundle_ids[i]}"
                    break
        if not detail:
            for (a2, a1), a in sorted(gg.groupoid.compose.items()):
                if _table(star(gg.ggts[a2], gg.ggts[a1])) != _table(gg.ggts[a]):
                    detail = f"compose disagrees with star at ({a2}, {a1})"
                    break
        add("thm-gaugegroupoid", label, detail)

    # --- bibundles -------------------------------------------------------
    hs_samples: list[tuple[str, object]] = []
    for label, G in small_groupoids[:2]:
        ident = GroupoidMorphism(
            G, G, {x: x for x in G.objects}, {g: g for g in G.arrows}
        )
        hs_samples.append((f"identity bibundle on {label}", hs_from_groupoid_morphism(ident)))
    hs_paired: list[tuple[str, object, object]] = []
    for i in range(2):
        try:
            G = random_groupoid(
                GeneratorSpec(seed + 300 + i, max_objects=2, max_group_order=6)
            )
            H = random_groupoid(
                GeneratorSpec(seed + 400 + i, max_objects=2, max_group_order=3)
            )
            h1 = random_hs(G, H, GeneratorSpec(seed + 500 + i, max_total=max_size))
            h2 = random_hs(G, H, GeneratorSpec(seed + 600 + i, max_total=max_size))
        except GeneratorError:
            continue
        hs_samples.append((f"bibundle[seed={seed + 500 + i}]", h1))
        hs_samples.append((f"bibundle[seed={seed + 600 + i}]", h2))
        hs_paired.append((f"bibundles[seed offset={i}]", h1, h2))

    valid_hs = []
    for label, h in hs_samples:
        report = validate_hs(h)
        if report.ok and within(h.bundle):
            valid_hs.append((label, h))

    hs_small = sorted(valid_hs, key=lambda row: (len(row[1].bundle.total), row[0]))[:2]
    for label1, h1 in hs_small:
        for label2, h2 in hs_small:
            add(
                "lem-prodhilskand1",
                f"{label1} x {label2}",
                first(validate_hs(hs_product(h1, h2))),
            )
    for label, h in hs_small:
        add(
            "lem-fibprodhils",
            f"{label} with itself",
            first(validate_hs(hs_fibred_product(h, h))),
        )

    for label, h in valid_hs:
        add("prop-proddivhils", label, first(verify_hs_division_properties(h)))

    hs_hom_pairs = [(f"{label} with itself", h, h) for label, h in valid_hs]
    hs_hom_pairs.extend(hs_paired)
    for label, h1, h2 in hs_hom_pairs:
        if h1.bundle.base != h2.bundle.base:
            continue
        morphisms = [
            HSBundleMorphism(h1, h2, f.mapping)
            for f in enumerate_bundle_morphisms(h1.bundle, h2.bundle)
            if validate_hs_morphism(HSBundleMorphism(h1, h2, f.mapping)).ok
        ]
        invariant = [
            K for K in ggts_of(h1.bundle, h2.bundle)
            if is_left_invariant_ggt(h1, h2, K)
        ]
        bad = ""
        if len(morphisms) != len(invariant):
            bad = f"{len(morphisms)} morphisms vs {len(invariant)} invariant GGTs"
        elif {_table(hs_morphism_to_ggt(f)) for f in morphisms} != {
            _table(K) for K in invariant
        }:
            bad = "enumerations are not each other's images"
        else:
            for K in invariant:
                back = hs_morphism_to_ggt(hs_ggt_to_morphism(h1, h2, K))
                if _table(back) != _table(K):
                    bad = "invariant GGT round-trip changed a value"
                    break
        add("thm-gengaugehils", label, bad)

    for label, h in valid_hs:
        full = gauge_group(h.bundle)
        sub = hs_gauge_group(h)
        bad = ""
        full_keys = {_table(t) for t in full.elements}
        sub_keys = {_table(t) for t in sub.elements}
        if not sub_keys <= full_keys:
            bad = "invariant elements escape the gauge group"
        elif sub.elements[sub.unit].values != {
            p: h.bundle.groupoid.unit[h.bundle.momentum[p]] for p in h.bundle.total
        }:
            bad = "unit is not the pointwise unit arrow"
        else:
            for (i, j), k in sorted(sub.product.items()):
                if k not in range(sub.order):
                    bad = "product escapes the subgroup"
                    break
        add("prop-gaugegrhils", label, bad)

    hs_families = [(f"{label} alone", [h]) for label, h in hs_small]
    for label, h1, h2 in hs_paired:
        hs_families.append((label, [h1, h2]))
    for label, family in hs_families:
        gg = build_hs_gauge_groupoid(family)
        report = validate_groupoid(gg.groupoid)
        detail = first(report)
        if not detail:
            bundle_level = build_gauge_groupoid([h.bundle for h in family])
            if not gg.groupoid.arrows <= bundle_level.groupoid.arrows:
                detail = "an invariant arrow is missing from the full groupoid"
        add("thm-hsgaugegroupoid", label, detail)

    results = []
    for check, _ in CHECKS:
        entries = rows[check]
        failing = [(label, detail) for label, detail in entries if detail]
        witness = "; ".join(f"{label}: {detail}" for label, detail in failing[:1])
        results.append(
            CheckResult(check, bool(entries) and not failing, len(entries), witness)
        )
    return tuple(results)


def render_report(results: tuple[CheckResult, ...]) -> str:
    """One line per check, then a summary; stable across reruns."""
    lines = []
    for r in results:
        suffix = f": {r.witness}" if r.witness else ""
        lines.append(f"{r.status} {r.check} ({r.instances} instances){suffix}")
    good = sum(1 for r in results if r.ok)
    lines.append(f"{good}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"


def report_document(
    results: tuple[CheckResult, ...], seed: int, max_size: int
) -> str:
    """The same results as canonical JSON."""
    doc = {
        "seed": seed,
        "max_size": max_size,
        "ok": all(r.ok for r in results),
        "checks": [
            {
                "check": r.check,
                "ok": r.ok,
                "instances": r.instances,
                "witness": r.witness,
            }
            for r in results
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"
