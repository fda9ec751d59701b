"""Shared test utilities: mutation generators and witness re-checks.

groupoid_mutations yields every single-entry rewrite of a groupoid's
five structure tables.  violation_holds re-derives one reported
violation directly from the raw tables of the structure it was
reported against, so tests can assert that every witness in a report
is real rather than trusting the validator's bookkeeping.
naive_action_compose finds every failure of an action's compose law by
brute force over all arrow triples, as a reference for validate_action.
naive_table_error names the first bad entry of a document's entry table
by a plain scan, as a reference for the errors loads raises.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterator

from gpdkit import FiniteGroupoid, LeftAction, PrincipalBundle, RightAction, Violation


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
