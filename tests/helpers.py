"""Shared test utilities: mutation generators and witness re-checks.

groupoid_mutations yields every single-entry rewrite of a groupoid's
five structure tables.  violation_holds re-derives one reported
violation directly from the raw tables of the structure it was
reported against, so tests can assert that every witness in a report
is real rather than trusting the validator's bookkeeping.
naive_action_compose finds every failure of an action's compose law by
brute force over all arrow triples, and naive_action_violations every
violation of an action whose groupoid is valid, as references for
validate_action; naive_associativity does the same for the
associativity witnesses of validate_groupoid.  The reference_*
constructions build every entry of a product with its own pair_id call,
as references for the products of core, bundles and hs;
reference_unit_pullback pulls a groupoid's unit bundle back from the
groupoid's raw tables, entry by entry, in pullback_bundle's order.
naive_table_error names the first bad entry of a document's entry table
by a plain scan, as a reference for the errors loads raises.
naive_fibers, naive_moves, naive_quotients and naive_self_pairs
rebuild a bundle's indexes by trying every key of its raw tables, as
references for PrincipalBundle; naive_divisions lists every arrow moving p to q, as a
reference for the fault division_map names off the quotients index.
naive_gauge_tables multiplies every pair of gauge transformations over
all points, as a reference for the tables of gauge groups.
naive_bundle_violations re-derives every bundle.* violation of a bundle
from its raw tables, as a reference for validate_bundle.
bundle_mutations yields every single-entry rewrite or deletion of a
bundle's act, projection and momentum tables.  reference_morphisms
validates every product of per-fiber images with validate_bundle_morphism
and returns the mappings, as a reference for the constructed hom sets of
gauge.  reference_gauge_tables finds the units, inverses and composites
of a gauge groupoid by whole morphism rows, as a reference for
gauge._assemble.  naive_bundle_morphisms tries every map of points and naive_ggts
every value table, as references for the enumeration oracles on bundles
that need not be principal.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Iterator

from gpdkit import (
    GGT,
    BundleMorphism,
    FiniteGroupoid,
    GaugeTransformation,
    IntegrityError,
    HSMorphism,
    LeftAction,
    PrincipalBundle,
    RightAction,
    Violation,
    division_map,
    pair_id,
    validate_bundle_morphism,
)


def groupoid_mutations(
    G: FiniteGroupoid,
) -> Iterator[tuple[str, FiniteGroupoid]]:
    """Every mutant obtained by rewriting one table entry of G.

    Each yielded pair is (description, mutant); source and target entries
    run over all wrong objects, unit, inverse and compose entries over
    all wrong arrows.
    """
    arrows = sorted(G.arrows)
    objects = sorted(G.objects)
    for g in arrows:
        for x in objects:
            if x != G.source[g]:
                yield (
                    f"source[{g}] -> {x}",
                    replace(G, source={**G.source, g: x}),
                )
            if x != G.target[g]:
                yield (
                    f"target[{g}] -> {x}",
                    replace(G, target={**G.target, g: x}),
                )
    for x in objects:
        for e in arrows:
            if e != G.unit[x]:
                yield (
                    f"unit[{x}] -> {e}",
                    replace(G, unit={**G.unit, x: e}),
                )
    for g in arrows:
        for h in arrows:
            if h != G.inverse[g]:
                yield (
                    f"inverse[{g}] -> {h}",
                    replace(G, inverse={**G.inverse, g: h}),
                )
    for key in sorted(G.compose):
        for c in arrows:
            if c != G.compose[key]:
                yield (
                    f"compose[{key}] -> {c}",
                    replace(G, compose={**G.compose, key: c}),
                )


def _known(G: FiniteGroupoid) -> list[str]:
    return [
        g
        for g in G.arrows
        if G.source.get(g) in G.objects and G.target.get(g) in G.objects
    ]


def violation_holds(G: FiniteGroupoid, v: Violation) -> bool:
    """Whether v really does fail in G, recomputed from the raw tables."""
    obj, arr = G.objects, G.arrows
    src, tgt = G.source, G.target
    mul, unit, inv = G.compose.get, G.unit.get, G.inverse.get
    rule, w = v.rule, v.witness

    for name, table, keys, values in (
        ("source", G.source, arr, obj),
        ("target", G.target, arr, obj),
        ("unit", G.unit, obj, arr),
        ("inverse", G.inverse, arr, arr),
    ):
        if rule == f"table.{name}.missing":
            return w[0] in keys and w[0] not in table
        if rule == f"table.{name}.unknown-key":
            return w[0] in table and w[0] not in keys
        if rule == f"table.{name}.dangling":
            k = w[0]
            return k in table and table[k] == w[1] and w[1] not in values

    if rule == "table.compose.missing":
        g1, g2 = w
        known = _known(G)
        return (
            g1 in known
            and g2 in known
            and src[g1] == tgt[g2]
            and (g1, g2) not in G.compose
        )
    if rule == "table.compose.unknown-key":
        g1, g2 = w
        return (g1, g2) in G.compose and (g1 not in arr or g2 not in arr)
    if rule == "table.compose.extra":
        g1, g2 = w
        known = _known(G)
        return (
            (g1, g2) in G.compose
            and g1 in known
            and g2 in known
            and src[g1] != tgt[g2]
        )
    if rule == "table.compose.dangling":
        g1, g2, g3 = w
        return G.compose.get((g1, g2)) == g3 and g3 not in arr

    if rule == "product.source":
        g1, g2, g3 = w
        return mul((g1, g2)) == g3 and g3 in arr and src.get(g3) != src.get(g2)
    if rule == "product.target":
        g1, g2, g3 = w
        return mul((g1, g2)) == g3 and g3 in arr and tgt.get(g3) != tgt.get(g1)

    if rule == "unit.endpoints":
        x, e = w
        return unit(x) == e and e in arr and (src.get(e) != x or tgt.get(e) != x)
    if rule == "unit.left":
        (g,) = w
        e_t = unit(tgt.get(g))
        p = mul((e_t, g)) if e_t is not None else None
        return p is not None and p != g
    if rule == "unit.right":
        (g,) = w
        e_s = unit(src.get(g))
        p = mul((g, e_s)) if e_s is not None else None
        return p is not None and p != g

    if rule == "inverse.endpoints":
        g, h = w
        return inv(g) == h and h in arr and (
            src.get(h) != tgt.get(g) or tgt.get(h) != src.get(g)
        )
    if rule == "inverse.right":
        (g,) = w
        h = inv(g)
        p = mul((g, h)) if h is not None else None
        e_t = unit(tgt.get(g))
        return p is not None and e_t is not None and p != e_t
    if rule == "inverse.left":
        (g,) = w
        h = inv(g)
        q = mul((h, g)) if h is not None else None
        e_s = unit(src.get(g))
        return q is not None and e_s is not None and q != e_s

    if rule == "associativity":
        g1, g2, g3 = w
        a, b = mul((g1, g2)), mul((g2, g3))
        left = mul((a, g3)) if a is not None else None
        right = mul((g1, b)) if b is not None else None
        return left is not None and right is not None and left != right

    if rule == "derived.source-surjective":
        (x,) = w
        return x in obj and all(src[g] != x for g in _known(G))
    if rule == "derived.target-surjective":
        (x,) = w
        return x in obj and all(tgt[g] != x for g in _known(G))

    raise AssertionError(f"unexpected rule {rule!r}")


def naive_action_compose(A: LeftAction | RightAction) -> list[tuple[str, ...]]:
    """Witnesses of the compose law failing in A, in validate_action's order.

    Left: (g1, g2, m) where g1.(g2.m) and (g1 g2).m are both carrier
    points and differ, ordered by (g2, m, g1).  Right: (m, g1, g2) where
    (m.g1).g2 and m.(g1 g2) differ, ordered by (m, g1, g2).  Every
    triple of arrows and points is tried; only raw table lookups are used.
    """
    G = A.groupoid
    arrows, points = sorted(G.arrows), sorted(A.carrier)

    def act(*key: str) -> str | None:
        res = A.act.get(key)
        return res if res in A.carrier else None

    def anchored(m: str, x: str) -> bool:
        return A.momentum.get(m) in G.objects and A.momentum.get(m) == x

    found = []
    if isinstance(A, LeftAction):
        for g2 in arrows:
            for m in points:
                step = act(g2, m) if anchored(m, G.source[g2]) else None
                if step is None:
                    continue
                for g1 in arrows:
                    g12 = G.compose.get((g1, g2))
                    if G.source[g1] != G.target[g2] or g12 is None:
                        continue
                    one, both = act(g1, step), act(g12, m)
                    if one is not None and both is not None and one != both:
                        found.append((g1, g2, m))
    else:
        for m in points:
            for g1 in arrows:
                step = act(m, g1) if anchored(m, G.target[g1]) else None
                if step is None:
                    continue
                for g2 in arrows:
                    g12 = G.compose.get((g1, g2))
                    if G.target[g2] != G.source[g1] or g12 is None:
                        continue
                    one, both = act(step, g2), act(m, g12)
                    if one is not None and both is not None and one != both:
                        found.append((m, g1, g2))
    return found


def naive_action_violations(A: LeftAction | RightAction) -> list[tuple]:
    """(rule, witness) of every violation of A, in validate_action's order.

    Assumes A's momentum table and its groupoid's endpoint, unit and
    inverse tables are total.  Act entries are checked one at a time:
    missing ones by arrow then point, the table's own entries in key
    order, then the momentum, compose and unit laws.
    """
    G, left = A.groupoid, isinstance(A, LeftAction)
    arrows, points = sorted(G.arrows), sorted(A.carrier)

    def key(g: str, m: str) -> tuple[str, str]:
        return (g, m) if left else (m, g)

    def feet(g: str) -> tuple[str, str]:
        # the object g acts from and the one it moves points to
        s, t = G.source[g], G.target[g]
        return (s, t) if left else (t, s)

    def expected(g: str, m: str) -> bool:
        return g in G.arrows and m in A.carrier and A.momentum[m] == feet(g)[0]

    found = []
    for g in arrows:
        for m in points:
            if expected(g, m) and key(g, m) not in A.act:
                found.append(("table.act.missing", key(g, m)))
    for k in sorted(A.act):
        g, m = k if left else k[::-1]
        if g not in G.arrows or m not in A.carrier:
            found.append(("table.act.unknown-key", k))
        elif not expected(g, m):
            found.append(("table.act.extra", k))
        elif A.act[k] not in A.carrier:
            found.append(("table.act.dangling", (*k, A.act[k])))
    for k in sorted(A.act):
        g, m = k if left else k[::-1]
        res = A.act[k]
        if expected(g, m) and res in A.carrier and A.momentum[res] != feet(g)[1]:
            found.append(("action.momentum", k))
    found.extend(("action.compose", w) for w in naive_action_compose(A))
    for m in points:
        res = A.act.get(key(G.unit[A.momentum[m]], m))
        if res in A.carrier and res != m:
            found.append(("action.unit", (m,)))
    return found


def naive_associativity(G: FiniteGroupoid) -> list[tuple[str, str, str]]:
    """Associativity witnesses of G, in validate_groupoid's order.

    Every triple of arrows with declared endpoints is tried in sorted
    order; a triple fails when it is composable, both bracketings are in
    the compose table and they differ.
    """
    known = sorted(_known(G))
    mul = G.compose.get
    found = []
    for g1 in known:
        for g2 in known:
            for g3 in known:
                if G.source[g1] != G.target[g2] or G.source[g2] != G.target[g3]:
                    continue
                a, b = mul((g1, g2)), mul((g2, g3))
                left = mul((a, g3)) if a is not None else None
                right = mul((g1, b)) if b is not None else None
                if left is not None and right is not None and left != right:
                    found.append((g1, g2, g3))
    return found


def _pairs(t1: dict, t2: dict) -> dict:
    """Componentwise pairing of two tables, keys and values by pair_id."""
    return {
        (pair_id(k1[0], k2[0]), pair_id(k1[1], k2[1]))
        if isinstance(k1, tuple)
        else pair_id(k1, k2): pair_id(v1, v2)
        for k1, v1 in t1.items()
        for k2, v2 in t2.items()
    }


def reference_product_groupoid(G1: FiniteGroupoid, G2: FiniteGroupoid) -> FiniteGroupoid:
    return FiniteGroupoid(
        objects=frozenset(pair_id(x, y) for x in G1.objects for y in G2.objects),
        arrows=frozenset(pair_id(g, h) for g in G1.arrows for h in G2.arrows),
        source=_pairs(G1.source, G2.source),
        target=_pairs(G1.target, G2.target),
        unit=_pairs(G1.unit, G2.unit),
        inverse=_pairs(G1.inverse, G2.inverse),
        compose=_pairs(G1.compose, G2.compose),
    )


def reference_conjugation(G: FiniteGroupoid, variant: str) -> LeftAction | RightAction:
    """generalized_conjugation from the formulas in its docstring."""
    mul, inv, s, t = G.compose.__getitem__, G.inverse.__getitem__, G.source, G.target
    act = {}
    for m in G.arrows:
        for g1 in G.arrows:
            for g2 in G.arrows:
                if variant == "left" and s[g1] == t[m] and s[g2] == s[m]:
                    act[(pair_id(g1, g2), m)] = mul((mul((g1, m)), inv(g2)))
                elif variant == "left_bar" and s[g1] == s[m] and s[g2] == t[m]:
                    act[(pair_id(g1, g2), m)] = mul((mul((g2, m)), inv(g1)))
                elif variant == "right" and t[g1] == t[m] and t[g2] == s[m]:
                    act[(m, pair_id(g1, g2))] = mul((mul((inv(g1), m)), g2))
                elif variant == "right_bar" and t[g1] == s[m] and t[g2] == t[m]:
                    act[(m, pair_id(g1, g2))] = mul((mul((inv(g2), m)), g1))
    ends = (s, t) if variant.endswith("bar") else (t, s)
    momentum = {m: pair_id(ends[0][m], ends[1][m]) for m in G.arrows}
    side = LeftAction if variant.startswith("left") else RightAction
    return side(reference_product_groupoid(G, G), frozenset(G.arrows), momentum, act)


def reference_product_bundle(B1: PrincipalBundle, B2: PrincipalBundle) -> PrincipalBundle:
    projection = _pairs(B1.projection, B2.projection)
    return PrincipalBundle(
        groupoid=reference_product_groupoid(B1.groupoid, B2.groupoid),
        total=frozenset(projection),
        base=frozenset(projection.values()),
        projection=projection,
        momentum=_pairs(B1.momentum, B2.momentum),
        act=_pairs(B1.act, B2.act),
    )


def reference_fibred_product(B1: PrincipalBundle, B2: PrincipalBundle) -> PrincipalBundle:
    over = B1.projection.get
    projection = {
        pair_id(p1, p2): m
        for p1, m in B1.projection.items()
        for p2, m2 in B2.projection.items()
        if m == m2
    }
    return PrincipalBundle(
        groupoid=reference_product_groupoid(B1.groupoid, B2.groupoid),
        total=frozenset(projection),
        base=B1.base,
        projection=projection,
        momentum={
            pair_id(p1, p2): pair_id(B1.momentum[p1], B2.momentum[p2])
            for p1 in B1.total
            for p2 in B2.total
            if over(p1) == B2.projection[p2]
        },
        act={
            (pair_id(p1, p2), pair_id(g1, g2)): pair_id(q1, q2)
            for (p1, g1), q1 in B1.act.items()
            for (p2, g2), q2 in B2.act.items()
            if over(p1) == B2.projection[p2]
        },
    )


def reference_pullback_bundle(B: PrincipalBundle, f: dict[str, str]) -> PrincipalBundle:
    over = {p: [m for m in f if f[m] == x] for p, x in B.projection.items()}
    projection = {pair_id(m, p): m for p in B.total for m in over[p]}
    return PrincipalBundle(
        groupoid=B.groupoid,
        total=frozenset(projection),
        base=frozenset(f),
        projection=projection,
        momentum={pair_id(m, p): B.momentum[p] for p in B.total for m in over[p]},
        act={
            (pair_id(m, p), g): pair_id(m, q)
            for (p, g), q in B.act.items()
            for m in over[p]
        },
    )


def reference_unit_pullback(G: FiniteGroupoid, f: dict[str, str]) -> PrincipalBundle:
    """pullback_bundle(unit_bundle(G), f) from G's raw tables, in its
    insertion order: base points m in order, each arrow p with target
    f(m) in order, then each compose key (p, g) in order, whatever its
    factors; the point (m, p) is pair_id(m, p)."""
    for m in sorted(f):
        if f[m] not in G.objects:
            raise ValueError(f"f({m!r}) = {f[m]!r} is not a base point")
    over = [(m, p) for m in sorted(f) for p in sorted(G.arrows) if G.target.get(p) == f[m]]
    entries = sorted(G.compose.items())
    projection = {pair_id(m, p): m for m, p in over}
    return PrincipalBundle(
        groupoid=G,
        total=frozenset(projection),
        base=frozenset(f),
        projection=projection,
        momentum={pair_id(m, p): G.source[p] for m, p in over},
        act={
            (pair_id(m, p), g): pair_id(m, q)
            for m, p in over
            for (p2, g), q in entries
            if p2 == p
        },
    )


def reference_hs_product(h1: HSMorphism, h2: HSMorphism) -> HSMorphism:
    return HSMorphism(
        reference_product_groupoid(h1.dom, h2.dom),
        reference_product_groupoid(h1.cod, h2.cod),
        reference_product_bundle(h1.bundle, h2.bundle),
        _pairs(h1.left_act, h2.left_act),
    )


def reference_hs_fibred_product(h1: HSMorphism, h2: HSMorphism) -> HSMorphism:
    over1, over2 = h1.bundle.projection, h2.bundle.projection
    return HSMorphism(
        h1.dom,
        reference_product_groupoid(h1.cod, h2.cod),
        reference_fibred_product(h1.bundle, h2.bundle),
        {
            (g, pair_id(p1, p2)): pair_id(q1, q2)
            for (g, p1), q1 in h1.left_act.items()
            for (g2, p2), q2 in h2.left_act.items()
            if g == g2 and over1[p1] == over2[p2]
        },
    )


def naive_table_error(
    entries: object, path: str, columns: list[tuple[set, str]]
) -> str | None:
    """The SchemaError text loads gives for an entry table, or None.

    columns holds one (pool, kind) pair per entry position.  Entries are
    visited one at a time: first every entry's shape and key (a list of
    len(columns) strings whose key, all but the last id, is new), then
    every entry's ids, column by column, against the pools.
    """
    if not isinstance(entries, list):
        return f"{path}: expected a list of entries"
    keys: list[tuple] = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, list) or len(entry) != len(columns):
            return f"{path}[{i}]: expected an entry of {len(columns)} id strings"
        for x in entry:
            if not isinstance(x, str):
                return f"{path}[{i}]: expected an entry of {len(columns)} id strings"
        key = tuple(entry[:-1])
        if key in keys:
            return f"{path}[{i}]: duplicate entry for {key!r}"
        keys.append(key)
    for i, entry in enumerate(entries):
        for j, (pool, kind) in enumerate(columns):
            if entry[j] not in pool:
                return f"{path}[{i}]: unknown {kind} {entry[j]!r}"
    return None


def relabel_bundle_points(
    B: PrincipalBundle, rename: dict[str, str]
) -> PrincipalBundle:
    """B with every total point renamed; base and groupoid untouched."""
    return PrincipalBundle(
        groupoid=B.groupoid,
        total=frozenset(rename[p] for p in B.total),
        base=B.base,
        projection={rename[p]: m for p, m in B.projection.items()},
        momentum={rename[p]: x for p, x in B.momentum.items()},
        act={(rename[p], g): rename[q] for (p, g), q in B.act.items()},
    )


def reversal_relabeling(B: PrincipalBundle) -> dict[str, str]:
    """A nontrivial renaming: sorted points mapped to reversed fresh ids."""
    points = sorted(B.total)
    return {p: f"r{i}" for i, p in enumerate(reversed(points))}


def naive_fibers(B: PrincipalBundle) -> dict[str | None, tuple[str, ...]]:
    """Sorted points per projection value (None for a missing one)."""
    over = [B.projection.get(p) for p in B.total]
    return {
        m: tuple(sorted(p for p in B.total if B.projection.get(p) == m))
        for m in over
    }


def naive_moves(B: PrincipalBundle) -> list[tuple[str, list[tuple[str, str]]]]:
    """Each act key's point, in sorted order, with its (g, p.g) in arrow order."""
    points = sorted({key[0] for key in B.act})
    return [
        (p, [(g, B.act[(p, g)]) for g in sorted(k[1] for k in B.act if k[0] == p)])
        for p in points
    ]


def naive_self_pairs(B: PrincipalBundle) -> tuple[tuple[str, str], ...]:
    """Each pair (p, q) of total points over one base point, by base
    point, then p, then q."""
    points = sorted(B.total)
    return tuple(
        (p, q)
        for m in sorted(B.base)
        for p in points
        if B.projection.get(p) == m
        for q in points
        if B.projection.get(q) == m
    )


def naive_divisions(B: PrincipalBundle) -> dict[tuple[str, str], tuple[str, ...]]:
    """Per (p, q) hit by the act table, the sorted arrows g with p.g == q."""
    return {
        (p, q): tuple(sorted(g for (p2, g), q2 in B.act.items() if (p2, q2) == (p, q)))
        for (p, _), q in B.act.items()
    }


def naive_quotients(B: PrincipalBundle) -> dict[tuple[str, str], str]:
    """naive_divisions' one arrow, by the pairs of points of one fiber
    (a point with no projection lies in none) that have exactly one."""
    fibers = [set(points) for m, points in naive_fibers(B).items() if m is not None]
    return {
        (p, q): gs[0]
        for (p, q), gs in naive_divisions(B).items()
        if len(gs) == 1 and any(p in fiber and q in fiber for fiber in fibers)
    }


def naive_gauge_tables(
    B: PrincipalBundle, elements: list[GaugeTransformation]
) -> tuple[list, int, tuple[int, ...]] | str:
    """The product items (in row order), unit and inverse of elements, each
    product taken over all points of B, or the text of the first refusal:
    the unit, then products by (i, j), then inverses.  A row shared by
    several elements names the last of them."""
    G = B.groupoid
    points = sorted(B.total)
    index = {}
    for i, t in enumerate(elements):
        index[tuple(t.values[p] for p in points)] = i

    def lookup(values: dict) -> int | None:
        return index.get(tuple(values.get(p) for p in points))

    absent = " missing from the gauge transformations"
    unit = lookup({p: G.unit[B.momentum[p]] for p in points})
    if unit is None:
        return "unit" + absent
    product = []
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            ab = {p: G.compose.get((a.values[p], b.values[p])) for p in points}
            k = lookup(ab)
            if k is None:
                return f"product of elements {i} and {j}" + absent
            product.append(((i, j), k))
    inverse = []
    for i, a in enumerate(elements):
        k = lookup({p: G.inverse.get(a.values[p]) for p in points})
        if k is None:
            return f"inverse of element {i}" + absent
        inverse.append(k)
    return product, unit, tuple(inverse)


def naive_bundle_violations(B: PrincipalBundle) -> list[tuple[str, ...]]:
    """(rule, *witness) for every bundle.* violation of B, in validate_bundle's
    order, by trying every key of its raw tables: each base point over no
    total point, each act entry of a total point to a total point over
    another base point, then per base point and point p over it, in
    order, each act entry p.h that lands on an earlier p.g (free), and
    each point over it that no act entry of p reaches (transitive)."""
    total, pi = B.total, B.projection.get
    entries = sorted(B.act.items())
    found = [
        ("bundle.projection-surjective", m)
        for m in sorted(B.base)
        if all(pi(p) != m for p in total)
    ]
    found += [
        ("bundle.projection-invariant", p, g)
        for (p, g), q in entries
        if p in total and q in total and pi(q) != pi(p)
    ]
    for m in sorted(B.base):
        fiber = sorted(p for p in total if pi(p) == m)
        for p in fiber:
            first: dict[str, str] = {}
            for (p2, h), q in entries:
                if p2 == p and q in total:
                    if q in first:
                        found.append(("bundle.free", p, first[q], h))
                    first.setdefault(q, h)
            found += [("bundle.transitive", p, q) for q in fiber if q not in first]
    return found


def bundle_mutations(B: PrincipalBundle) -> Iterator[tuple[str, PrincipalBundle]]:
    """Every mutant obtained by rewriting or deleting one entry of B's act,
    projection or momentum table, then up to four more.

    A rewritten entry takes the next value in sorted order after its own,
    cyclically: the next point for act, base point for projection and
    object for momentum.  The last four are B with a stray point, over no
    base point and moved only by the unit at its momentum; with a ghost
    twin of its least point t, outside the total space, that takes t's
    projection, momentum and act row and every act value t; with an extra
    base point; and over its groupoid without the first compose entry.
    """

    def after(value: str, pool) -> str:
        ordered = sorted(pool)
        if value not in pool:
            return ordered[0]
        return ordered[(ordered.index(value) + 1) % len(ordered)]

    for name, pool in (
        ("act", B.total),
        ("projection", B.base),
        ("momentum", B.groupoid.objects),
    ):
        table = getattr(B, name)
        for key in sorted(table):
            rest = {k: v for k, v in table.items() if k != key}
            yield f"{name}[{key}] deleted", replace(B, **{name: rest})
            value = after(table[key], pool)
            if value != table[key]:
                yield f"{name}[{key}] -> {value}", replace(B, **{name: {**table, key: value}})
    G = B.groupoid
    x = min(G.objects)
    yield "stray point", replace(
        B,
        total=B.total | {"stray"},
        projection={**B.projection, "stray": "nowhere"},
        momentum={**B.momentum, "stray": x},
        act={**B.act, ("stray", G.unit[x]): "stray"},
    )
    for t in sorted(B.total)[:1]:
        row = {
            ("ghost", g): "ghost" if q == t else q
            for (p, g), q in B.act.items()
            if p == t
        }
        yield "ghost twin", replace(
            B,
            projection={**B.projection, "ghost": B.projection[t]},
            momentum={**B.momentum, "ghost": B.momentum[t]},
            act={**{k: "ghost" if q == t else q for k, q in B.act.items()}, **row},
        )
    yield "extra base point", replace(B, base=B.base | {"extra"})
    first = min(G.compose)
    yield "groupoid without a compose entry", replace(
        B, groupoid=replace(G, compose={k: v for k, v in G.compose.items() if k != first})
    )


def reference_morphisms(B1: PrincipalBundle, B2: PrincipalBundle) -> list[dict[str, str]]:
    """The mappings of the bundle morphisms B1 -> B2 as gauge._morphisms
    constructs them, each validated in full before it is kept.

    Per base point m, the least point r over m goes to each q of B2 over
    m with r's momentum, and p to q.d1(r, p); every product of these
    per-fiber images, in itertools.product order, goes through
    validate_bundle_morphism, and the first that fails is refused with
    _morphisms' IntegrityError text.
    """
    choices = []
    for m in sorted(B1.base):
        fiber = sorted(p for p in B1.total if B1.projection.get(p) == m)
        if not fiber:
            raise IntegrityError(f"empty fiber over {m!r}")
        r = fiber[0]
        moves = [(p, division_map(B1, r, p)) for p in fiber]
        choices.append([
            {p: B2.act.get((q, g)) for p, g in moves}
            for q in sorted(B2.total)
            if B2.projection.get(q) == m and B2.momentum.get(q) == B1.momentum.get(r)
        ])
    mappings = []
    for images in itertools.product(*choices):
        mapping = {p: q for image in images for p, q in image.items()}
        report = validate_bundle_morphism(BundleMorphism(B1, B2, mapping))
        if not report.ok:
            raise IntegrityError(
                "constructed bundle morphism fails validation: " + report.render()
            )
        mappings.append(mapping)
    return mappings


def reference_gauge_tables(
    bundles: list[PrincipalBundle], ggts: dict[str, GGT]
) -> tuple[list, list, list] | str:
    """The unit, inverse and compose items of the gauge groupoid on ggts
    (arrow id -> GGT, each hom set in content order) in the insertion
    order of gauge._assemble, or the text of its first refusal: units by
    object, inverses by hom set and arrow, then composites by outer hom
    set (j, k) and inner source i.

    Each arrow's morphism is read off the raw act table,
    sigma(p1) = p2 . K(p1, p2) at the least same-fiber p2, and each
    unit, inverse and composite is found by its whole row of images over
    the sorted points, never by part of it."""
    ids = [f"P{i}" for i in range(len(bundles))]
    points = [sorted(B.total) for B in bundles]
    homs: dict[tuple[int, int], dict[tuple[str, ...], str]] = {
        (i, j): {} for i in range(len(ids)) for j in range(len(ids))
    }
    sigma: dict[str, dict[str, str]] = {}
    for aid, K in ggts.items():
        i, j = map(ids.index, aid.split(":")[1].split(">"))
        image: dict[str, str] = {}
        for (p1, p2), k in sorted(K.values.items()):
            image.setdefault(p1, bundles[j].act[(p2, k)])
        sigma[aid] = image
        homs[(i, j)][tuple(image[p] for p in points[i])] = aid

    def missing(i: int, j: int, what: str) -> str:
        return f"{what} GGT missing from hom({ids[i]}, {ids[j]})"

    unit = []
    for i, x in enumerate(ids):
        found = homs[(i, i)].get(tuple(points[i]))
        if found is None:
            return missing(i, i, "unit")
        unit.append((x, found))
    inverse = []
    for (i, j), hom in homs.items():
        for aid in hom.values():
            back = {q: p for p, q in sigma[aid].items()}
            found = homs[(j, i)].get(tuple(back[q] for q in points[j]))
            if found is None:
                return missing(j, i, "inverse")
            inverse.append((aid, found))
    compose = []
    for (j, k), hom2 in homs.items():
        for i in range(len(ids)):
            for a2 in hom2.values():
                for a1, row1 in zip(homs[(i, j)].values(), homs[(i, j)]):
                    found = homs[(i, k)].get(tuple(map(sigma[a2].__getitem__, row1)))
                    if found is None:
                        return missing(i, k, "composite")
                    compose.append(((a2, a1), found))
    return unit, inverse, compose


def _spread_from_least(B: PrincipalBundle, unique: bool) -> bool:
    """Whether the act entries of each fiber's least point r land on its
    fiber and reach all of it; with unique, each point by exactly one."""
    total = sorted(B.total)
    for m in sorted(B.base):
        fiber = [p for p in total if B.projection.get(p) == m]
        if not fiber:
            continue
        hits = [q for (p, g), q in B.act.items() if p == fiber[0]]
        if unique:
            landed = [q for q in hits if q in fiber]
            if sorted(landed) != fiber:
                return False
        elif set(hits) | {fiber[0]} != set(fiber):
            return False
    return True


def naive_bundle_morphisms(B1: PrincipalBundle, B2: PrincipalBundle) -> list[dict[str, str]]:
    """Every map of B1's points to B2's, in sorted item order, that keeps
    projection and momentum and sends each act entry of B1, p.g == q, with
    p one of B1's points, to one of B2; tried map by map.  None at all unless the act entries of
    each fiber's least point land on its fiber and reach all of it, as
    enumerate_bundle_morphisms spreads every fiber from that point."""
    if not _spread_from_least(B1, unique=False):
        return []
    points1, points2 = sorted(B1.total), sorted(B2.total)
    found = []
    for images in itertools.product(points2, repeat=len(points1)):
        sigma = dict(zip(points1, images))
        if all(
            B2.projection.get(sigma[p]) == B1.projection.get(p)
            and B2.momentum.get(sigma[p]) == B1.momentum.get(p)
            for p in points1
        ) and all(
            B2.act.get((sigma[p], g)) == sigma.get(q)
            for (p, g), q in B1.act.items()
            if p in sigma
        ):
            found.append(sigma)
    return sorted(found, key=lambda sigma: sorted(sigma.items()))


def naive_ggts(B1: PrincipalBundle, B2: PrincipalBundle) -> list[dict[tuple[str, str], str]]:
    """Every value table K on the same-fiber pairs, in sorted item order,
    whose values run from momentum1(p1) to momentum2(p2) and obey
    K(p1.g1, p2.g2) == (g2^-1 K(p1, p2)) g1 for every two act entries
    (products read from G's tables, undefined ones failing the law);
    tried table by table, one fiber at a time, so every act value must
    stay in its fiber.  None at all unless each fiber's least point
    moves onto each point of its fiber by exactly one act entry, as the
    transport arrows of enumerate_ggts need."""
    if not (_spread_from_least(B1, unique=True) and _spread_from_least(B2, unique=True)):
        return []
    G = B1.groupoid
    mul, inv = G.compose.get, G.inverse.get
    rows1, rows2 = {}, {}
    for B, rows in ((B1, rows1), (B2, rows2)):
        for (p, g), q in B.act.items():
            rows.setdefault(p, []).append((g, q))
    per_fiber = []
    for m in sorted(B1.base):
        pairs = [
            (p1, p2)
            for p1 in sorted(p for p in B1.total if B1.projection.get(p) == m)
            for p2 in sorted(p for p in B2.total if B2.projection.get(p) == m)
        ]
        tables = []
        for values in itertools.product(sorted(G.arrows), repeat=len(pairs)):
            K = dict(zip(pairs, values))
            if all(
                G.source[k] == B1.momentum[p1] and G.target[k] == B2.momentum[p2]
                for (p1, p2), k in K.items()
            ) and all(
                K.get((q1, q2)) == mul((mul((inv(g2), k)), g1))
                for (p1, p2), k in K.items()
                for g1, q1 in rows1.get(p1, ())
                for g2, q2 in rows2.get(p2, ())
            ):
                tables.append(K)
        per_fiber.append(tables)
    found = [
        {pair: k for table in tables for pair, k in table.items()}
        for tables in itertools.product(*per_fiber)
    ]
    return sorted(found, key=lambda K: sorted(K.items()))
