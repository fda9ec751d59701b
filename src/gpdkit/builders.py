"""Constructors, seeded random generators and enumeration oracles.

The make_* functions build standard examples from raw tables and refuse
broken input with an error naming the failed condition.  The random_*
generators are deterministic in their GeneratorSpec: equal specs give
bit-identical structures, and outputs are validated before they are
returned; a failure raises IntegrityError.

enumerate_bundle_morphisms and enumerate_ggts are brute-force oracles.
They deliberately share no code with morphism_to_ggt, ggt_to_morphism
or the division-map machinery: fibers are solved by scanning the raw
action tables, candidates are spread pointwise and re-checked against
the defining laws.  Both refuse inputs larger than their bounds instead
of truncating; bounds come from the environment variable
GPDKIT_ORACLE_BOUNDS, or the defaults.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass

from .bundles import (
    IntegrityError,
    PrincipalBundle,
    _unit_pullback,
    division_map,
    unit_bundle,
    validate_bundle,
)
from .core import (
    FiniteGroupoid,
    GroupoidMorphism,
    LeftAction,
    ValidationReport,
    pair_id,
    validate_action,
    validate_groupoid,
    validate_morphism,
)
from .gauge import GGT, BundleMorphism
from .hs import HSMorphism, hs_from_groupoid_morphism, validate_hs

__all__ = [
    "GeneratorError",
    "OracleBoundError",
    "group_table",
    "GROUP_NAMES",
    "make_group_groupoid",
    "make_pair_groupoid",
    "make_action_groupoid",
    "make_gauge_groupoid_example",
    "GeneratorSpec",
    "random_groupoid",
    "random_bundle",
    "random_hs",
    "OracleBounds",
    "ORACLE_BOUNDS_ENV",
    "oracle_bounds",
    "enumerate_bundle_morphisms",
    "enumerate_ggts",
    "fixture_documents",
]


class GeneratorError(RuntimeError):
    """A generator could not satisfy its size bounds."""


class OracleBoundError(RuntimeError):
    """An enumeration oracle refused an input above its bounds."""


def _require_valid(report: ValidationReport, what: str) -> None:
    # A self-check on built output; raised rather than asserted so that
    # it also runs under python -O.
    if not report.ok:
        raise IntegrityError(f"built {what} fails validation:\n{report.render()}")


def _cyclic(n: int) -> dict[tuple[str, str], str]:
    labels = ["e"] + [f"c{i}" for i in range(1, n)]
    return {
        (labels[i], labels[j]): labels[(i + j) % n]
        for i in range(n)
        for j in range(n)
    }


def _klein() -> dict[tuple[str, str], str]:
    labels = ["e", "a", "b", "c"]
    bits = {"e": (0, 0), "a": (0, 1), "b": (1, 0), "c": (1, 1)}
    back = {v: k for k, v in bits.items()}
    return {
        (x, y): back[(bits[x][0] ^ bits[y][0], bits[x][1] ^ bits[y][1])]
        for x in labels
        for y in labels
    }


def _sym3() -> dict[tuple[str, str], str]:
    perms = sorted(itertools.permutations(range(3)))
    label = {p: "".join(map(str, p)) for p in perms}
    table = {}
    for p in perms:
        for q in perms:
            comp = tuple(p[q[i]] for i in range(3))
            table[(label[p], label[q])] = label[comp]
    return table


_GROUP_TABLES = {
    "trivial": {("e", "e"): "e"},
    "z2": {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "e"},
    "z3": _cyclic(3),
    "z4": _cyclic(4),
    "v4": _klein(),
    "s3": _sym3(),
}

GROUP_NAMES = tuple(_GROUP_TABLES)


def group_table(name: str) -> dict[tuple[str, str], str]:
    """A small group multiplication table by name; see GROUP_NAMES."""
    try:
        return dict(_GROUP_TABLES[name])
    except KeyError:
        raise KeyError(f"unknown group {name!r}, have {GROUP_NAMES}") from None


def _group_unit(table: dict[tuple[str, str], str], elements: list[str]) -> str:
    for e in elements:
        if all(
            table.get((e, x)) == x and table.get((x, e)) == x for x in elements
        ):
            return e
    raise ValueError("multiplication table has no two-sided identity")


def _group_inverses(
    table: dict[tuple[str, str], str], elements: list[str], e: str
) -> dict[str, str]:
    inv = {}
    for x in elements:
        for y in elements:
            if table.get((x, y)) == e and table.get((y, x)) == e:
                inv[x] = y
                break
        else:
            raise ValueError(f"multiplication table has no inverse for {x!r}")
    return inv


def make_group_groupoid(table: dict[tuple[str, str], str]) -> FiniteGroupoid:
    """The one-object groupoid on "*" of a group multiplication table.

    The table must be total on its elements, have a two-sided identity,
    inverses and be associative; the error message names whichever
    condition breaks first.
    """
    elements = sorted({x for k in table for x in k})
    for x in elements:
        for y in elements:
            if (x, y) not in table:
                raise ValueError(f"multiplication table missing entry ({x!r}, {y!r})")
            if table[(x, y)] not in elements:
                raise ValueError(
                    f"multiplication table value {table[(x, y)]!r} is not an element"
                )
    e = _group_unit(table, elements)
    inv = _group_inverses(table, elements, e)
    G = FiniteGroupoid(
        objects=frozenset({"*"}),
        arrows=frozenset(elements),
        source={x: "*" for x in elements},
        target={x: "*" for x in elements},
        unit={"*": e},
        inverse=inv,
        compose=dict(table),
    )
    report = validate_groupoid(G)
    if not report.ok:
        raise ValueError(f"not a group table: {report.render()}")
    return G


def make_pair_groupoid(points: int | list[str]) -> FiniteGroupoid:
    """The pair groupoid: one arrow (y,x) from x to y for each pair."""
    if isinstance(points, int):
        points = [str(i) for i in range(points)]
    points = sorted(points)

    def aid(y: str, x: str) -> str:
        return f"({y},{x})"

    arrows = {aid(y, x) for y in points for x in points}
    source = {aid(y, x): x for y in points for x in points}
    target = {aid(y, x): y for y in points for x in points}
    unit = {x: aid(x, x) for x in points}
    inverse = {aid(y, x): aid(x, y) for y in points for x in points}
    compose = {
        (aid(z, y), aid(y, x)): aid(z, x)
        for z in points
        for y in points
        for x in points
    }
    return FiniteGroupoid(
        frozenset(points), frozenset(arrows), source, target, unit, inverse, compose
    )


def make_action_groupoid(
    table: dict[tuple[str, str], str],
    carrier: list[str],
    action: dict[tuple[str, str], str],
) -> FiniteGroupoid:
    """The action groupoid of a group acting on a set.

    Arrows are pairs (g, m) from m to g.m; (g1, m1) after (g2, m2) is
    composable exactly when m1 == g2.m2 and equals (g1 g2, m2).  The
    action table must be a genuine left group action; otherwise the error
    lists every violation validate_action finds.
    """
    group = make_group_groupoid(table)
    e = next(iter(group.unit.values()))
    elements = sorted(group.arrows)
    carrier = sorted(carrier)
    A = LeftAction(group, frozenset(carrier), dict.fromkeys(carrier, "*"), action)
    report = validate_action(A)
    if not report.ok:
        raise ValueError("not a group action: " + report.render())

    arrows = [(g, m) for g in elements for m in carrier]
    source = {pair_id(g, m): m for g, m in arrows}
    target = {pair_id(g, m): action[(g, m)] for g, m in arrows}
    unit = {m: pair_id(e, m) for m in carrier}
    inverse = {
        pair_id(g, m): pair_id(group.inverse[g], action[(g, m)]) for g, m in arrows
    }
    compose = {}
    for g1, m1 in arrows:
        for g2, m2 in arrows:
            if m1 == action[(g2, m2)]:
                compose[(pair_id(g1, m1), pair_id(g2, m2))] = pair_id(
                    table[(g1, g2)], m2
                )
    G = FiniteGroupoid(
        frozenset(carrier),
        frozenset(source),
        source,
        target,
        unit,
        inverse,
        compose,
    )
    _require_valid(validate_groupoid(G), "groupoid")
    return G


def make_gauge_groupoid_example(
    table: dict[tuple[str, str], str],
    total: list[str],
    base: list[str],
    projection: dict[str, str],
    action: dict[tuple[str, str], str],
) -> FiniteGroupoid:
    """The gauge groupoid of an ordinary principal group bundle.

    Arrows are diagonal orbits [p, q] of pairs of total points, from the
    base point under q to the one under p; composition transports the
    second factor through the unique group element matching the middle
    points.  The input must make a principal bundle over the group; the
    refusal names the first violation validate_bundle finds.
    """
    group = make_group_groupoid(table)
    (obj,) = group.objects
    elements = sorted(group.arrows)
    B = PrincipalBundle(
        groupoid=group,
        total=frozenset(total),
        base=frozenset(base),
        projection=projection,
        momentum={p: obj for p in total},
        act=action,
    )
    report = validate_bundle(B)
    if not report.ok:
        raise ValueError(f"not a principal bundle: {report.violations[0]}")

    def orbit_rep(p: str, q: str) -> tuple[str, str]:
        return min((action[(p, g)], action[(q, g)]) for g in elements)

    reps = sorted({orbit_rep(p, q) for p in total for q in total})
    aid = {rep: pair_id(*rep) for rep in reps}
    source = {aid[(p, q)]: projection[q] for p, q in reps}
    target = {aid[(p, q)]: projection[p] for p, q in reps}
    unit = {m: aid[orbit_rep(B.fiber(m)[0], B.fiber(m)[0])] for m in sorted(base)}
    inverse = {aid[(p, q)]: aid[orbit_rep(q, p)] for p, q in reps}
    compose = {}
    for p1, q1 in reps:
        for p2, q2 in reps:
            if projection[q1] != projection[p2]:
                continue
            g = division_map(B, p2, q1)
            compose[(aid[(p1, q1)], aid[(p2, q2)])] = aid[
                orbit_rep(p1, action[(q2, g)])
            ]
    G = FiniteGroupoid(
        frozenset(base),
        frozenset(aid.values()),
        source,
        target,
        unit,
        inverse,
        compose,
    )
    _require_valid(validate_groupoid(G), "groupoid")
    return G


@dataclass(frozen=True)
class GeneratorSpec:
    """Seed and size bounds for the random generators."""

    seed: int
    max_objects: int = 4
    max_group_order: int = 6
    max_total: int = 16


def random_groupoid(spec: GeneratorSpec) -> FiniteGroupoid:
    """A random disjoint union of blocks, each a pair groupoid of some
    objects combined with a small group.  Deterministic in spec."""
    for name in ("max_objects", "max_group_order"):
        if getattr(spec, name) < 1:
            raise ValueError(f"{name} must be at least 1")
    rng = random.Random(f"groupoid:{spec.seed}")
    remaining = rng.randint(1, spec.max_objects)
    sizes = []
    while remaining:
        size = rng.randint(1, remaining)
        sizes.append(size)
        remaining -= size
    names = [n for n, t in _GROUP_TABLES.items() if len(t) <= spec.max_group_order ** 2]

    objects: list[str] = []
    source: dict[str, str] = {}
    target: dict[str, str] = {}
    unit: dict[str, str] = {}
    inverse: dict[str, str] = {}
    compose: dict[tuple[str, str], str] = {}
    counter = 0
    for size in sizes:
        block = [f"x{len(objects) + i}" for i in range(size)]
        objects.extend(block)
        name = rng.choice(names)
        table = _GROUP_TABLES[name]
        elements = sorted({x for k in table for x in k})
        e = _group_unit(table, elements)
        ginv = _group_inverses(table, elements, e)
        aid: dict[tuple[str, str, str], str] = {}
        for y in block:
            for x in block:
                for c in elements:
                    aid[(y, x, c)] = f"a{counter}"
                    counter += 1
        for (y, x, c), a in aid.items():
            source[a] = x
            target[a] = y
            inverse[a] = aid[(x, y, ginv[c])]
        for x in block:
            unit[x] = aid[(x, x, e)]
        for z in block:
            for y in block:
                for x in block:
                    for c1 in elements:
                        for c2 in elements:
                            compose[(aid[(z, y, c1)], aid[(y, x, c2)])] = aid[
                                (z, x, table[(c1, c2)])
                            ]
    G = FiniteGroupoid(
        frozenset(objects),
        frozenset(source),
        source,
        target,
        unit,
        inverse,
        compose,
    )
    _require_valid(validate_groupoid(G), "groupoid")
    return G


def random_bundle(G: FiniteGroupoid, base_size: int, spec: GeneratorSpec) -> PrincipalBundle:
    """A random principal G-bundle with relabeled points.

    Built as a pullback of the unit bundle along a random anchor map,
    then relabeled.  The base holds at most base_size points and is
    trimmed to respect spec.max_total; at least one point must fit.
    Deterministic in (G, base_size, spec).
    """
    if base_size < 1:
        raise ValueError("base_size must be at least 1")
    rng = random.Random(f"bundle:{spec.seed}")
    by_target = G.by_target()
    budget = spec.max_total
    alpha: dict[str, str] = {}
    for i in range(max(1, base_size)):
        fitting = sorted(x for x in G.objects if len(by_target[x]) <= budget)
        if not fitting:
            break
        x = rng.choice(fitting)
        alpha[f"m{i}"] = x
        budget -= len(by_target[x])
    if not alpha:
        raise GeneratorError(
            f"no fiber fits in a total space of {spec.max_total} points"
        )

    pulled, rows = _unit_pullback(G, alpha)
    points = [p for row in rows.values() for p in row.values()]
    B = _relabel(pulled, points, rng, "p")[0]
    _require_valid(validate_bundle(B), "bundle")
    return B


def _relabel(
    B: PrincipalBundle, points: list[str], rng: random.Random, prefix: str
) -> tuple[PrincipalBundle, dict[str, str]]:
    """B with its points, listed in the given order, shuffled by rng and
    renamed prefix0, prefix1, ...; and that renaming."""
    shuffled = list(points)
    rng.shuffle(shuffled)
    label = {p: f"{prefix}{i}" for i, p in enumerate(shuffled)}
    relabeled = PrincipalBundle(
        groupoid=B.groupoid,
        total=frozenset(label.values()),
        base=B.base,
        projection={label[p]: m for p, m in B.projection.items()},
        momentum={label[p]: x for p, x in B.momentum.items()},
        act={(label[p], k): label[q] for (p, k), q in B.act.items()},
    )
    return relabeled, label


def _spanning_trees(G: FiniteGroupoid) -> list[tuple[list[str], dict[str, str]]]:
    """Each connected component of G, sorted, with its arrows tau: tau[x]
    runs from the component's least object x0 to x.  One breadth-first
    search per component, from x0, over each object's arrows in sorted
    order; components come in order of their least objects."""
    by_source, by_target = G.by_source(), G.by_target()
    trees = []
    seen: set[str] = set()
    for x0 in sorted(G.objects):
        if x0 in seen:
            continue
        tau = {x0: G.unit[x0]}
        frontier = [x0]
        for x in frontier:
            for g in sorted({*by_source[x], *by_target[x]}):
                if G.source[g] == x and G.target[g] not in tau:
                    tau[G.target[g]] = G.mul(g, tau[x])
                    frontier.append(G.target[g])
                elif G.target[g] == x and G.source[g] not in tau:
                    tau[G.source[g]] = G.mul(G.inv(g), tau[x])
                    frontier.append(G.source[g])
        seen.update(tau)
        trees.append((sorted(tau), tau))
    return trees


def _group_homs(
    G: FiniteGroupoid, dom: tuple[str, ...], H: FiniteGroupoid, cod: tuple[str, ...]
) -> list[dict[str, str]]:
    # All multiplicative maps dom -> cod between two isotropy groups.
    homs = []
    for images in itertools.product(cod, repeat=len(dom)):
        rho = dict(zip(dom, images))
        if all(
            rho[G.mul(a, b)] == H.mul(rho[a], rho[b]) for a in dom for b in dom
        ):
            homs.append(rho)
    return homs


def random_hs(G: FiniteGroupoid, H: FiniteGroupoid, spec: GeneratorSpec) -> HSMorphism:
    """A random bibundle from G to H, deterministic in (G, H, spec).

    Realizes a random groupoid morphism: per component of G it picks a
    target object, a multiplicative map between isotropy groups and a
    conjugating arrow per object, then pulls the unit bundle back and
    relabels the points.  Falls back to the cheapest constant morphism
    when spec.max_total would be exceeded, and fails if even that does
    not fit.
    """
    rng = random.Random(f"hs:{spec.seed}")
    into, out_of = H.by_target(), H.by_source()
    fiber_size = {y: len(into[y]) for y in H.objects}
    trees = _spanning_trees(G)

    def assemble(pick) -> GroupoidMorphism:
        object_map: dict[str, str] = {}
        arrow_map: dict[str, str] = {}
        for component, tau in trees:
            iso = G.hom(component[0], component[0])
            y0, rho, u = pick(component, iso)
            for x in component:
                object_map[x] = H.target[u[x]]
            for g in sorted(G.arrows):
                x, y = G.source[g], G.target[g]
                if x not in tau:
                    continue
                gamma = G.mul(G.mul(G.inv(tau[y]), g), tau[x])
                arrow_map[g] = H.mul(H.mul(u[y], rho[gamma]), H.inv(u[x]))
        return GroupoidMorphism(G, H, object_map, arrow_map)

    def rich_pick(component, iso):
        y0 = rng.choice(sorted(H.objects))
        cod = H.hom(y0, y0)
        homs = _group_homs(G, iso, H, cod)
        rho = rng.choice(homs)
        u = {x: rng.choice(out_of[y0]) for x in component}
        return y0, rho, u

    def minimal_pick(component, iso):
        y0 = min(sorted(H.objects), key=lambda y: (fiber_size[y], y))
        unit_cod = H.unit[y0]
        rho = {c: unit_cod for c in iso}
        u = {x: unit_cod for x in component}
        return y0, rho, u

    morphism = assemble(rich_pick)
    total = sum(fiber_size[morphism.object_map[x]] for x in G.objects)
    if total > spec.max_total:
        morphism = assemble(minimal_pick)
        total = sum(fiber_size[morphism.object_map[x]] for x in G.objects)
        if total > spec.max_total:
            raise GeneratorError(
                f"cheapest bibundle needs {total} points, bound is {spec.max_total}"
            )
    _require_valid(validate_morphism(morphism), "groupoid morphism")

    h = hs_from_groupoid_morphism(morphism)
    bundle, label = _relabel(h.bundle, sorted(h.bundle.total), rng, "q")
    left_act = {(g, label[p]): label[q] for (g, p), q in h.left_act.items()}
    relabeled = HSMorphism(h.dom, h.cod, bundle, left_act)
    _require_valid(validate_hs(relabeled), "bibundle")
    return relabeled


@dataclass(frozen=True)
class OracleBounds:
    """Refusal thresholds for the enumeration oracles."""

    max_total: int = 16
    max_arrows: int = 36
    max_base: int = 6

    def refusal(self, B1: PrincipalBundle, B2: PrincipalBundle) -> str:
        """Why the oracles refuse B1 -> B2, or "" when both are within
        bounds; B1 and B2 share a groupoid and a base."""
        for size, bound, noun in (
            (len(B1.total), self.max_total, "points"),
            (len(B2.total), self.max_total, "points"),
            (len(B1.groupoid.arrows), self.max_arrows, "arrows"),
            (len(B1.base), self.max_base, "base points"),
        ):
            if size > bound:
                return (
                    f"refusing enumeration: {size} {noun} exceeds {bound}; "
                    f"raise {ORACLE_BOUNDS_ENV} to override"
                )
        return ""


ORACLE_BOUNDS_ENV = "GPDKIT_ORACLE_BOUNDS"


def oracle_bounds() -> OracleBounds:
    """The default bounds, overridable via GPDKIT_ORACLE_BOUNDS, e.g.
    "total=24,arrows=48,base=8" (unnamed fields keep their defaults)."""
    raw = os.environ.get(ORACLE_BOUNDS_ENV, "")
    kwargs = {}
    if raw.strip():
        for piece in raw.split(","):
            name, _, value = piece.partition("=")
            key = {"total": "max_total", "arrows": "max_arrows", "base": "max_base"}.get(
                name.strip()
            )
            if key is None or not value.strip().isdecimal():
                raise ValueError(
                    f"cannot parse {ORACLE_BOUNDS_ENV}: bad piece {piece!r}"
                )
            kwargs[key] = int(value)
    return OracleBounds(**kwargs)


def _scan_fibers(B: PrincipalBundle) -> dict[str, list[str]]:
    """Sorted points by projection value, scanned from the raw table: the
    oracles' own, so they share no index with the bundle."""
    fibers: dict[str, list[str]] = {}
    for p in sorted(B.total):
        fibers.setdefault(B.projection.get(p), []).append(p)
    return fibers


def _scan_moves(B: PrincipalBundle) -> dict[str, list[tuple[str, str]]]:
    """The (g, p.g) of every act entry (p, g), by p, each row sorted;
    scanned from the raw table like _scan_fibers.  Every total point has
    a row, and an act key off the total space gets one too."""
    moves: dict[str, list[tuple[str, str]]] = {p: [] for p in B.total}
    for (p, g), q in B.act.items():
        moves.setdefault(p, []).append((g, q))
    return {p: sorted(row) for p, row in moves.items()}


def _oracle_context(B1: PrincipalBundle, B2: PrincipalBundle) -> None:
    if B1.groupoid != B2.groupoid or B1.base != B2.base:
        raise ValueError("enumeration needs a shared base and groupoid")
    why = oracle_bounds().refusal(B1, B2)
    if why:
        raise OracleBoundError(why)


def enumerate_bundle_morphisms(
    B1: PrincipalBundle, B2: PrincipalBundle
) -> tuple[BundleMorphism, ...]:
    """All bundle morphisms B1 -> B2, by fiberwise brute force.

    Per base point, each candidate image of one basepoint is spread
    through the fiber along the raw action tables and kept only when
    that spreading is single-valued and covers the fiber; the assembled
    maps are then re-checked against all three morphism laws, at the act
    entries of mapped points (an act key off the total space maps
    nowhere, as in enumerate_ggts).
    """
    _oracle_context(B1, B2)
    F1, F2 = _scan_fibers(B1), _scan_fibers(B2)
    moves1 = _scan_moves(B1)
    per_fiber: list[list[dict[str, str]]] = []
    for m in sorted(B1.base):
        fib1, fib2 = F1.get(m, []), F2.get(m, [])
        if not fib1:
            per_fiber.append([{}])
            continue
        p, local = fib1[0], []
        for q in fib2:
            if B2.momentum[q] != B1.momentum[p]:
                continue
            candidate = {p: q}
            good = True
            for g, p2 in moves1[p]:
                q2 = B2.act.get((q, g))
                if q2 is None or candidate.get(p2, q2) != q2:
                    good = False
                    break
                candidate[p2] = q2
            if good and set(candidate) == set(fib1):
                local.append(candidate)
        per_fiber.append(local)

    results = []
    for pieces in itertools.product(*per_fiber):
        mapping: dict[str, str] = {}
        for piece in pieces:
            mapping.update(piece)
        ok = all(
            B2.projection[mapping[p]] == B1.projection[p]
            and B2.momentum[mapping[p]] == B1.momentum[p]
            for p in B1.total
        ) and all(
            B2.act.get((mapping[p], g)) == mapping[q]
            for (p, g), q in B1.act.items()
            if p in mapping
        )
        if ok:
            results.append(BundleMorphism(B1, B2, mapping))
    results.sort(key=lambda f: tuple(sorted(f.mapping.items())))
    return tuple(results)


def enumerate_ggts(B1: PrincipalBundle, B2: PrincipalBundle) -> tuple[GGT, ...]:
    """All generalized gauge transformations B1 -> B2, by brute force.

    Per base point, every arrow with matching feet at a representative
    pair is spread through the fiber block with the equivariance law,
    using transport arrows solved from the raw action tables, and the
    block is re-checked in full before being kept.
    """
    _oracle_context(B1, B2)
    G = B1.groupoid
    # Products a^-1 k b are read off the raw tables; on a missing entry
    # they are redone with G.inv and G.mul, which raise naming it.
    compose, inverse = G.compose, G.inverse
    moves1, moves2 = _scan_moves(B1), _scan_moves(B2)

    def transports(
        moves: dict[str, list[tuple[str, str]]], r: str, fib
    ) -> dict[str, str] | None:
        # unique arrow moving r to each fiber point, from the act table
        found: dict[str, list[str]] = {q: [] for q in fib}
        for g, q in moves[r]:
            if q in found:
                found[q].append(g)
        out = {}
        for q, gs in found.items():
            if len(gs) != 1:
                return None
            out[q] = gs[0]
        return out

    F1, F2 = _scan_fibers(B1), _scan_fibers(B2)
    per_fiber: list[list[dict[tuple[str, str], str]]] = []
    for m in sorted(B1.base):
        fib1, fib2 = F1.get(m, []), F2.get(m, [])
        if not fib1 or not fib2:
            per_fiber.append([{}])
            continue
        r1, r2 = fib1[0], fib2[0]
        t1 = transports(moves1, r1, fib1)
        t2 = transports(moves2, r2, fib2)
        if t1 is None or t2 is None:
            per_fiber.append([])
            continue
        local: list[dict[tuple[str, str], str]] = []
        feet = sorted(
            k
            for k in G.arrows
            if G.source[k] == B1.momentum[r1] and G.target[k] == B2.momentum[r2]
        )
        for k in feet:
            block = {}
            for q1 in fib1:
                for q2 in fib2:
                    a, b = t2[q2], t1[q1]
                    try:
                        block[(q1, q2)] = compose[(compose[(inverse[a], k)], b)]
                    except KeyError:
                        block[(q1, q2)] = G.mul(G.mul(G.inv(a), k), b)
            consistent = True
            for (q1, q2), v in block.items():
                if (
                    G.source[v] != B1.momentum[q1]
                    or G.target[v] != B2.momentum[q2]
                ):
                    consistent = False
                    break
                for g1, moved1 in moves1[q1]:
                    for g2, moved2 in moves2[q2]:
                        got = block[(moved1, moved2)]
                        try:
                            want = compose[(compose[(inverse[g2], v)], g1)]
                        except KeyError:
                            want = G.mul(G.mul(G.inv(g2), v), g1)
                        if got != want:
                            consistent = False
                            break
                    if not consistent:
                        break
                if not consistent:
                    break
            if consistent:
                local.append(block)
        per_fiber.append(local)

    results = []
    for pieces in itertools.product(*per_fiber):
        values: dict[tuple[str, str], str] = {}
        for piece in pieces:
            values.update(piece)
        results.append(GGT(B1, B2, values))
    results.sort(key=lambda K: tuple(sorted(K.values.items())))
    return tuple(results)


def fixture_documents() -> dict[str, object]:
    """The shipped example structures, keyed by conventional file name."""
    z2 = make_group_groupoid(group_table("z2"))
    swap = {("e", "0"): "0", ("e", "1"): "1", ("a", "0"): "1", ("a", "1"): "0"}
    points = [f"{m}.{c}" for m in ("m0", "m1") for c in ("e", "a")]
    z2t = group_table("z2")
    action = {
        (f"{m}.{c}", g): f"{m}.{z2t[(c, g)]}"
        for m in ("m0", "m1")
        for c in ("e", "a")
        for g in ("e", "a")
    }
    return {
        "z2.gpd": z2,
        "s3.gpd": make_group_groupoid(group_table("s3")),
        "pair2.gpd": make_pair_groupoid(2),
        "pair3.gpd": make_pair_groupoid(3),
        "z2-swap.gpd": make_action_groupoid(group_table("z2"), ["0", "1"], swap),
        "gauge-z2.gpd": make_gauge_groupoid_example(
            group_table("z2"),
            points,
            ["m0", "m1"],
            {p: p.split(".")[0] for p in points},
            action,
        ),
        "unit-z2.bnd": unit_bundle(z2),
    }
