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
from functools import partial
from itertools import product

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
    LeftAction,
    generalized_conjugation,
    isotropy_group,
    pair_id,
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
    ("prop-genconj", "generalized conjugations are valid actions of their side and momentum"),
    ("def-princgroupoid", "fixture, unit and generated bundles validate"),
    ("def-unitbun", "unit bundle division is invert-then-compose"),
    ("prop-prophi", "division satisfies its defining equation and laws"),
    ("lem-prodbun", "product bundles validate, division componentwise"),
    ("lem-fibprod", "fibred products are the same-fiber pairs, acted on componentwise"),
    ("def-trivbun", "a full section trivializes every bundle, maps inverse and equivariant"),
    ("lem-inverequiv", "every enumerated bundle morphism is a bijection"),
    ("thm-gengaugeeq", "morphism and GGT enumerations match and round-trip"),
    ("thm-gaugeinvdiv", "bundle morphisms preserve division maps"),
    ("prop-gaugegr", "gauge groups are pointwise and match self-GGT counts"),
    ("thm-gaugegroupoid", "GGT groupoid validates, isotropy is the gauge group"),
    ("lem-prodhilskand1", "bibundle products validate"),
    ("lem-fibprodhils", "bibundle fibred products validate"),
    ("prop-proddivhils", "bibundle division maps are left invariant"),
    ("thm-gengaugehils", "equivariant morphisms match invariant GGTs, round-trip"),
    ("prop-gaugegrhils", "invariant gauge groups are pointwise, left invariant, subgroups"),
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


def _first(report) -> str:
    return str(report.violations[0]) if report.violations else ""


def _identity(G: FiniteGroupoid) -> GroupoidMorphism:
    return GroupoidMorphism(G, G, {x: x for x in G.objects}, {g: g for g in G.arrows})


def _unit_values(B: PrincipalBundle) -> dict[str, str]:
    """The pointwise unit: each point's unit arrow at its momentum."""
    return {p: B.groupoid.unit[B.momentum[p]] for p in B.total}


def _both_kept(pairs: list, kept: list) -> list:
    """The (label, x1, x2) pairs whose members are both among the kept (label, x) rows."""
    ids = {id(x) for _, x in kept}
    return [row for row in pairs if {id(row[1]), id(row[2])} <= ids]


def _two_smallest(rows: list, bundle=lambda x: x) -> list:
    """The two (label, x) rows whose bundles have the fewest points, ties by label."""
    return sorted(rows, key=lambda row: (len(bundle(row[1]).total), row[0]))[:2]


def _morphism_laws(G: FiniteGroupoid) -> str:
    """The identity, then the isotropy inclusion at the least object, validate."""
    if bad := _first(validate_morphism(_identity(G))):
        return f"identity: {bad}"
    x = min(G.objects)
    iso = isotropy_group(G, x)
    inclusion = GroupoidMorphism(iso, G, {x: x}, {g: g for g in iso.arrows})
    if bad := _first(validate_morphism(inclusion)):
        return f"isotropy at {x}: {bad}"
    return ""


def _conjugation_laws(G: FiniteGroupoid, variant: str) -> str:
    """The variant's conjugation is a valid action on its side, with
    momentum m -> (target(m), source(m)), swapped for the _bar variants."""
    A = generalized_conjugation(G, variant)
    if bad := _first(validate_action(A)):
        return bad
    side = variant.split("_")[0]
    if isinstance(A, LeftAction) != (side == "left"):
        return f"not a {side} action"
    ends = (G.source, G.target) if variant.endswith("_bar") else (G.target, G.source)
    for m in sorted(G.arrows):
        if A.momentum.get(m) != pair_id(ends[0][m], ends[1][m]):
            return f"momentum at {m!r}"
    return ""


def _unit_division(U: PrincipalBundle) -> str:
    G = U.groupoid
    for g in sorted(U.total):
        for h in U.fiber(U.projection[g]):
            if division_map(U, g, h) != G.mul(G.inv(g), h):
                return f"at ({g!r}, {h!r})"
    return ""


def _product_division(B1: PrincipalBundle, B2: PrincipalBundle) -> str:
    P = product_bundle(B1, B2)
    if bad := _first(validate_bundle(P)):
        return bad
    for p in sorted(P.total):
        pa, pb = split_pair(p)
        for q in P.fiber(P.projection[p]):
            qa, qb = split_pair(q)
            want = (division_map(B1, pa, qa), division_map(B2, pb, qb))
            if want != split_pair(division_map(P, p, q)):
                return f"division at ({p!r}, {q!r})"
    return ""


def _fibred_product_laws(B1: PrincipalBundle, B2: PrincipalBundle) -> str:
    """fibred_product(B1, B2) validates, lies over B1's base, and its
    points are the pair_id(p1, p2) of the same-fiber pairs; each projects
    as p1 does, and momentum and action are componentwise: the moves of
    (p1, p2) are those of p1 times those of p2, and no other point moves."""
    P = fibred_product(B1, B2)
    if bad := _first(validate_bundle(P)):
        return bad
    if P.base != B1.base:
        return "not over the first factor's base"
    named = {
        (p1, p2): pair_id(p1, p2)
        for m in sorted(B1.base)
        for p1 in B1.fiber(m)
        for p2 in B2.fiber(m)
    }
    if P.total != set(named.values()) or len(P.moves) != len(named):
        return "points, or the points that move, are not the same-fiber pairs"
    names = {(g1, g2): pair_id(g1, g2) for g1 in B1.groupoid.arrows for g2 in B2.groupoid.arrows}
    for (p1, p2), p in named.items():
        if P.projection[p] != B1.projection[p1]:
            return f"{p} does not project as {p1}"
        if P.momentum[p] != pair_id(B1.momentum[p1], B2.momentum[p2]):
            return f"momentum at {p} is not componentwise"
        row1, row2 = B1.moves.get(p1, {}), B2.moves.get(p2, {})
        moved = map(named.get, product(row1.values(), row2.values()))
        if P.moves.get(p) != dict(zip(map(names.get, product(row1, row2)), moved)):
            return f"action at {p} is not componentwise"
    return ""


def _trivializes(B: PrincipalBundle) -> str:
    """The trivialization over a full section: forward and backward are
    inverse bijections between B's points and the trivial bundle's, over
    B's base, and forward keeps projection and momentum and carries B's
    act."""
    iso = trivialize(B, {m: B.fiber(m)[0] for m in sorted(B.base)})
    T, forward, backward = iso.target, iso.forward, iso.backward
    if forward.keys() != B.total or backward.keys() != T.total or T.base != B.base:
        return "maps are not between the points over B's base"
    if any(backward.get(q) != p for p, q in forward.items()) or any(
        forward.get(p) != q for q, p in backward.items()
    ):
        return "forward and backward are not inverse"
    for p, q in forward.items():
        if T.projection.get(q) != B.projection[p] or T.momentum.get(q) != B.momentum[p]:
            return f"forward moves {p} off its base point or momentum"
    if any(T.act.get((forward[p], g)) != forward[q] for (p, g), q in B.act.items()):
        return "forward does not carry the action"
    return ""


def _bijective(morphisms) -> str:
    if any(sorted(f.mapping.values()) != sorted(f.target.total) for f in morphisms):
        return "a non-bijective morphism"
    return ""


def _correspondence(morphisms, ggts, to_ggt, to_morphism, noun: str) -> str:
    """The morphisms and the GGTs (called noun) are each other's images,
    and both round trips are identities; bundles and bibundles alike."""
    if len(morphisms) != len(ggts):
        return f"{len(morphisms)} morphisms vs {len(ggts)} {noun}s"
    images = [to_ggt(f) for f in morphisms]
    if {_table(K) for K in images} != {_table(K) for K in ggts}:
        return "enumerations are not each other's images"
    for f, K in zip(morphisms, images):
        if to_morphism(K).mapping != f.mapping:
            return "morphism round-trip moved a point"
    for K in ggts:
        if _table(to_ggt(to_morphism(K))) != _table(K):
            return f"{noun} round-trip changed a value"
    return ""


def _division_invariance(morphisms) -> str:
    for f in morphisms:
        if bad := _first(check_division_invariance(f)):
            return bad
    return ""


def _pointwise(gg) -> str:
    """The first product or inverse of the gauge group gg that is not the
    pointwise one, read from G's compose and inverse tables; "" when
    every one is.  Products are taken a point at a time, as one compose
    map over all pairs of that point's values."""
    G, points, n = gg.bundle.groupoid, sorted(gg.bundle.total), gg.order
    rows = [tuple(map(t.values.get, points)) for t in gg.elements]
    index = dict(zip(rows, range(n)))
    inverses = [index.get(tuple(map(G.inverse.get, row))) for row in rows]
    if (got := list(gg.inverse)) != inverses:
        i = next((i for i, k in enumerate(inverses) if got[i : i + 1] != [k]), n)
        return f"inverse of element {i} is not pointwise"
    if len(gg.product) != n * n:
        return "product table not total"
    by_point = [map(G.compose.get, product(column, column)) for column in zip(*rows)]
    cells = zip(*by_point) if points else [()] * (n * n)
    want = dict(zip(product(range(n), repeat=2), map(index.get, cells)))
    if gg.product != want:
        i, j = next(key for key, k in want.items() if gg.product.get(key, -1) != k)
        return f"product of elements {i} and {j} is not pointwise"
    return ""


def _gauge_group_laws(B: PrincipalBundle, self_ggts: tuple) -> str:
    gg = gauge_group(B)
    if gg.elements[gg.unit].values != _unit_values(B):
        return "unit is not the pointwise unit arrow"
    if bad := _pointwise(gg):
        return bad
    if gg.order != len(self_ggts):
        return f"order {gg.order} vs {len(self_ggts)} self-GGTs"
    for t in gg.elements:
        if ggt_to_gauge(gauge_to_ggt(t)).values != t.values:
            return "GGT correspondence moved an element"
    return ""


def _gauge_groupoid_laws(family: list[PrincipalBundle], ggts_of) -> str:
    """The GGT groupoid validates, its hom sets are the oracle's, its
    isotropy groups are the gauge groups, and compose is star."""
    gg = build_gauge_groupoid(family)
    if bad := _first(validate_groupoid(gg.groupoid)):
        return bad
    ids = gg.bundle_ids

    def hom(i: int, j: int) -> list:
        return [_table(gg.ggts[a]) for a in gg.groupoid.hom(ids[i], ids[j])]

    for i, Bi in enumerate(family):
        for j, Bj in enumerate(family):
            if sorted(hom(i, j)) != [_table(K) for K in ggts_of(Bi, Bj)]:
                return f"hom({ids[i]}, {ids[j]}) differs from the oracle"
    for i, B in enumerate(family):
        if set(hom(i, i)) != {_table(gauge_to_ggt(t)) for t in gauge_group(B).elements}:
            return f"isotropy mismatch at {ids[i]}"
    for (a2, a1), a in sorted(gg.groupoid.compose.items()):
        if _table(star(gg.ggts[a2], gg.ggts[a1])) != _table(gg.ggts[a]):
            return f"compose disagrees with star at ({a2}, {a1})"
    return ""


def _hs_correspondence(h1, h2, morphisms_of, ggts_of) -> str:
    """_correspondence of the left equivariant morphisms and invariant GGTs."""
    fs = [HSBundleMorphism(h1, h2, f.mapping) for f in morphisms_of(h1.bundle, h2.bundle)]
    fs = [f for f in fs if validate_hs_morphism(f).ok]
    Ks = [K for K in ggts_of(h1.bundle, h2.bundle) if is_left_invariant_ggt(h1, h2, K)]
    back = partial(hs_ggt_to_morphism, h1, h2)
    return _correspondence(fs, Ks, hs_morphism_to_ggt, back, "invariant GGT")


def _hs_gauge_group_laws(h) -> str:
    full = {_table(t) for t in gauge_group(h.bundle).elements}
    sub = hs_gauge_group(h)
    if not {_table(t) for t in sub.elements} <= full:
        return "invariant elements escape the gauge group"
    if sub.elements[sub.unit].values != _unit_values(h.bundle):
        return "unit is not the pointwise unit arrow"
    orbits = [(p, q) for (g, p), q in h.left_act.items()]
    if any(t.values.get(p) != t.values.get(q) for t in sub.elements for p, q in orbits):
        return "an element is not constant on left orbits"
    return _pointwise(sub)


def _hs_gauge_groupoid_laws(family: list) -> str:
    gg = build_hs_gauge_groupoid(family)
    if bad := _first(validate_groupoid(gg.groupoid)):
        return bad
    full = build_gauge_groupoid([h.bundle for h in family])
    if not gg.groupoid.arrows <= full.groupoid.arrows:
        return "an invariant arrow is missing from the full groupoid"
    return ""


def run_checks(
    seed: int = 42,
    max_size: int = 12,
    fixtures: dict[str, object] | None = None,
) -> tuple[CheckResult, ...]:
    """Run every named check; see CHECKS for ids and descriptions.

    fixtures maps labels to structures (defaults to the built-in set);
    random sweeps derive their generator specs from seed and cap totals
    at max_size.  Undersized bounds shrink sweeps rather than fail.  A
    generated structure's definitional row is its generator's self-check,
    which runs the same validator; fixtures, unit bundles and identity
    bibundles are validated in the sweep.  Each oracle runs once per
    bundle pair, inside the sweeps that read it.  A generator, unit
    bundle or identity bibundle that raises is a FAIL row of the
    statement that validates it, not an error of the run.
    """
    if fixtures is None:
        fixtures = fixture_documents()
    rows: dict[str, list[tuple[str, str]]] = {check: [] for check, _ in CHECKS}

    def sweep(check: str, instances, detail) -> list:
        """One row per (label, *args) instance: detail(*args) is the
        statement's first discrepancy there, or "" where it holds; a
        detail that raises fails the instance with the error's text.
        Returns the instances that hold."""
        held = []
        for label, *args in instances:
            try:
                found = detail(*args)
            except Exception as e:
                found = str(e) or repr(e)
            rows[check].append((label, found))
            if not found:
                held.append((label, *args))
        return held

    def built(check: str, label: str, make):
        """make(), or None: a GeneratorError skips the instance, and any
        other error is check's FAIL row at label with the error's text."""
        try:
            return make()
        except GeneratorError:
            return None
        except Exception as e:
            rows[check].append((label, str(e) or repr(e)))
            return None

    self_checked: set[int] = set()  # ids of generator outputs; they outlive the run

    def generated(check: str, label: str, make):
        """built(check, label, make), which its generator has validated."""
        if (made := built(check, label, make)) is not None:
            self_checked.update(map(id, made if isinstance(made, list) else [made]))
        return made

    def validated(validate, x) -> str:
        """The first violation of validate(x), unless x passed its generator's."""
        return "" if id(x) in self_checked else _first(validate(x))

    # --- groupoids -------------------------------------------------------
    docs = sorted(fixtures.items())
    groupoids = [(name, G) for name, G in docs if isinstance(G, FiniteGroupoid)]
    for i in range(4):
        spec = GeneratorSpec(
            seed + i, max_objects=3, max_group_order=6, max_total=max_size
        )
        label = f"groupoid[seed={spec.seed}]"
        G = generated("def-groupoid", label, partial(random_groupoid, spec))
        if G is not None:
            groupoids.append((label, G))
    valid_groupoids = sweep("def-groupoid", groupoids, partial(validated, validate_groupoid))
    # the conjugation and bundle sweeps grow cubically with arrows, so
    # oversized generator outputs stay in the axiom checks only
    small_groupoids = [row for row in valid_groupoids if len(row[1].arrows) <= max_size]
    sweep("def-morgroupoid", valid_groupoids, _morphism_laws)
    conjugations = (
        (f"{variant} conjugation of {label}", G, variant)
        for label, G in small_groupoids
        for variant in CONJUGATION_VARIANTS
    )
    sweep("prop-genconj", conjugations, _conjugation_laws)

    # --- bundles ---------------------------------------------------------
    units = []
    for label, G in small_groupoids:
        at = f"unit bundle of {label}"
        if (U := built("def-princgroupoid", at, partial(unit_bundle, G))) is not None:
            units.append((at, U))
    bundles = [(name, B) for name, B in docs if isinstance(B, PrincipalBundle)] + units
    sized = partial(GeneratorSpec, max_total=max_size)

    def bundle_pair(G: FiniteGroupoid, i: int) -> list:
        return [random_bundle(G, 2, sized(seed + k + i)) for k in (100, 200)]

    paired: list[tuple[str, PrincipalBundle, PrincipalBundle]] = []
    for i, (label, G) in enumerate(valid_groupoids):
        made = generated("def-princgroupoid", f"bundles over {label}", partial(bundle_pair, G, i))
        if made is None:
            continue
        b1, b2 = made
        bundles.append((f"bundle[seed={seed + 100 + i}] over {label}", b1))
        bundles.append((f"bundle[seed={seed + 200 + i}] over {label}", b2))
        if b1.base == b2.base:
            paired.append((f"bundles over {label}", b1, b2))
    valid_bundles = sweep("def-princgroupoid", bundles, partial(validated, validate_bundle))
    paired = _both_kept(paired, valid_bundles)

    sweep("def-unitbun", units, _unit_division)
    sweep("prop-prophi", valid_bundles, lambda B: _first(verify_division_properties(B)))
    small = _two_smallest(valid_bundles)
    products = [(f"{l1} x {l2}", B1, B2) for l1, B1 in small for l2, B2 in small]
    sweep("lem-prodbun", products, _product_division)
    sweep("lem-fibprod", paired, _fibred_product_laws)
    sweep("def-trivbun", valid_bundles, _trivializes)

    # --- the correspondence ---------------------------------------------
    bounds = oracle_bounds()

    def within(B: PrincipalBundle) -> bool:
        return not bounds.refusal(B, B)

    oracle_runs: dict[tuple, tuple] = {}

    def once(oracle, B1: PrincipalBundle, B2: PrincipalBundle):
        """oracle(B1, B2), run once; the bundles outlive the run, so ids stay unique."""
        if (oracle, id(B1), id(B2)) not in oracle_runs:
            oracle_runs[oracle, id(B1), id(B2)] = oracle(B1, B2)
        return oracle_runs[oracle, id(B1), id(B2)]

    ggts_of, morphisms_of = partial(once, enumerate_ggts), partial(once, enumerate_bundle_morphisms)
    oracle_bundles = [(label, B) for label, B in valid_bundles if within(B)]
    oracle_paired = [row for row in paired if within(row[1]) and within(row[2])]
    homs = [(f"{label} with itself", B, B) for label, B in oracle_bundles] + oracle_paired
    sweep("lem-inverequiv", homs, lambda B1, B2: _bijective(morphisms_of(B1, B2)))
    sweep(
        "thm-gengaugeeq",
        homs,
        lambda B1, B2: _correspondence(
            morphisms_of(B1, B2), ggts_of(B1, B2), morphism_to_ggt, ggt_to_morphism, "GGT"
        ),
    )
    sweep("thm-gaugeinvdiv", homs, lambda B1, B2: _division_invariance(morphisms_of(B1, B2)))
    sweep("prop-gaugegr", oracle_bundles, lambda B: _gauge_group_laws(B, ggts_of(B, B)))
    families = [(label, [B1, B2]) for label, B1, B2 in oracle_paired[:2]]
    for label, B in _two_smallest(oracle_bundles)[:1]:
        families.append((f"{label} alone", [B]))
    sweep("thm-gaugegroupoid", families, partial(_gauge_groupoid_laws, ggts_of=ggts_of))

    # --- bibundles -------------------------------------------------------
    hs_samples = []
    for label, G in small_groupoids[:2]:
        at = f"identity bibundle on {label}"
        make = partial(hs_from_groupoid_morphism, _identity(G))
        if (h := built("prop-proddivhils", at, make)) is not None:
            hs_samples.append((at, h))

    def bibundles(i: int) -> list:
        G = random_groupoid(GeneratorSpec(seed + 300 + i, max_objects=2, max_group_order=6))
        H = random_groupoid(GeneratorSpec(seed + 400 + i, max_objects=2, max_group_order=3))
        return [random_hs(G, H, sized(seed + k + i)) for k in (500, 600)]

    hs_paired: list[tuple[str, object, object]] = []
    for i in range(2):
        label = f"bibundles[seed offset={i}]"
        made = generated("prop-proddivhils", label, partial(bibundles, i))
        if made is None:
            continue
        h1, h2 = made
        hs_samples.append((f"bibundle[seed={seed + 500 + i}]", h1))
        hs_samples.append((f"bibundle[seed={seed + 600 + i}]", h2))
        hs_paired.append((label, h1, h2))
    # a bibundle that fails its definition or its division laws feeds no later statement
    valid_hs = sweep(
        "prop-proddivhils",
        [(label, h) for label, h in hs_samples if within(h.bundle)],
        lambda h: validated(validate_hs, h) or _first(verify_hs_division_properties(h)),
    )
    hs_paired = _both_kept(hs_paired, valid_hs)
    hs_small = _two_smallest(valid_hs, lambda h: h.bundle)
    hs_products = [
        (f"{l1} x {l2}", h1, h2) for l1, h1 in hs_small for l2, h2 in hs_small
    ]
    sweep("lem-prodhilskand1", hs_products, lambda a, b: _first(validate_hs(hs_product(a, b))))
    hs_fibred = [(f"{label} with itself", h) for label, h in hs_small]
    sweep("lem-fibprodhils", hs_fibred, lambda h: _first(validate_hs(hs_fibred_product(h, h))))
    hs_homs = [(f"{label} with itself", h, h) for label, h in valid_hs] + hs_paired
    sweep(
        "thm-gengaugehils",
        (row for row in hs_homs if row[1].bundle.base == row[2].bundle.base),
        partial(_hs_correspondence, morphisms_of=morphisms_of, ggts_of=ggts_of),
    )
    sweep("prop-gaugegrhils", valid_hs, _hs_gauge_group_laws)
    hs_families = [(f"{label} alone", [h]) for label, h in hs_small]
    hs_families += [(label, [h1, h2]) for label, h1, h2 in hs_paired]
    sweep("thm-hsgaugegroupoid", hs_families, _hs_gauge_groupoid_laws)

    results = []
    for check, _ in CHECKS:
        failing = [f"{label}: {detail}" for label, detail in rows[check] if detail]
        ok = bool(rows[check]) and not failing
        results.append(CheckResult(check, ok, len(rows[check]), "".join(failing[:1])))
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
