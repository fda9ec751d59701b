"""Finite groupoids as explicit lookup tables.

A groupoid is a finite set of arrows over a finite set of objects with
five structure tables: source, target, unit, inverse and a partial
composition table.  Composition is written "g1 after g2": the pair
(g1, g2) is composable exactly when source(g1) == target(g2), and the
composite runs from source(g2) to target(g1).

Everything is table driven, so validation can be exhaustive.  Validators
never raise on bad input; they return a ValidationReport listing every
violation found.  Rules prefixed "table." flag malformed tables (missing
entries, entries off the declared domain, ids that were never declared);
all other rules are axioms, each reported with a witness tuple that pins
down one failing instance.

The validators of every module share four pieces defined here:
_check_table for every table.* rule but a groupoid's compose table (whose
dangling rule also covers keys off the domain); _transport for the GGT
law K(p1.g1, p2.g2) == g2^-1 K(p1, p2) g1, of GGTs and of the division
map, the identity GGT read the other way round; _commute, which compares
the two ways round a square of moves a whole row at a time, for
associativity, the compose law of actions, the commuting actions of a
bibundle and the conjugation law of gauge transformations; and
_equivariance, sigma(g.p) == g.sigma(p) for morphisms on either side.
Left invariance keeps its own loop.  An instance whose product the
tables leave undefined is skipped, so the division verifiers, too,
report and never raise.

Where a loop over every instance costs far more than a yes-or-no
decision, the validators decide first and explain after: whole-column
checks decide a groupoid's compose table, Light's test on a generating
set decides associativity, and _check_table returns at once, unsorted,
on a table with the expected keys and values.  The loops that name each
violation, in witness order, run only when a decision fails, so reports
are the same as from the loops alone.  The law loops read only the
entries keyed by pairs of ids (_is_pair); any other key is left to the
table.* rules.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Container, Iterable, Iterator
from dataclasses import dataclass, field
from itertools import repeat

__all__ = [
    "Violation",
    "ValidationReport",
    "FiniteGroupoid",
    "validate_groupoid",
    "isotropy_group",
    "pair_id",
    "split_pair",
    "product_groupoid",
    "GroupoidMorphism",
    "validate_morphism",
    "LeftAction",
    "RightAction",
    "validate_action",
    "generalized_conjugation",
    "CONJUGATION_VARIANTS",
]


@dataclass(frozen=True)
class Violation:
    """One failed check: a rule id plus the ids witnessing the failure."""

    rule: str
    witness: tuple[str, ...]
    note: str = ""

    def __str__(self) -> str:
        text = f"{self.rule}[{','.join(self.witness)}]"
        return f"{text} {self.note}" if self.note else text


@dataclass
class ValidationReport:
    """Exhaustive list of violations; empty means the subject is valid."""

    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, rule: str, *witness: str, note: str = "") -> None:
        self.violations.append(Violation(rule, tuple(witness), note))

    def extend(self, other: "ValidationReport", prefix: str = "") -> None:
        for v in other.violations:
            self.violations.append(Violation(prefix + v.rule, v.witness, v.note))

    def rules(self) -> set[str]:
        return {v.rule for v in self.violations}

    def render(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(str(v) for v in self.violations)


@dataclass(frozen=True)
class FiniteGroupoid:
    """A finite groupoid given by its structure tables.

    compose maps (g1, g2) to the composite "g1 after g2" and is defined
    exactly on the pairs with source(g1) == target(g2).  Construction
    does not validate; run validate_groupoid for that.
    """

    objects: frozenset[str]
    arrows: frozenset[str]
    source: dict[str, str]
    target: dict[str, str]
    unit: dict[str, str]
    inverse: dict[str, str]
    compose: dict[tuple[str, str], str]

    def inv(self, g: str) -> str:
        return self.inverse[g]

    def mul(self, g1: str, g2: str) -> str:
        try:
            return self.compose[(g1, g2)]
        except KeyError:
            raise KeyError(f"not composable: {g1!r} after {g2!r}") from None

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        """Arrows from x to y, sorted."""
        return tuple(
            sorted(
                g
                for g in self.arrows
                if self.source[g] == x and self.target[g] == y
            )
        )

    def by_source(self) -> dict[str, list[str]]:
        return self._by_end(self.source)

    def by_target(self) -> dict[str, list[str]]:
        return self._by_end(self.target)

    def _by_end(self, end: dict[str, str]) -> dict[str, list[str]]:
        """The sorted arrows by end(g), every object a key; an arrow whose
        source or target is not a declared object is skipped."""
        objects, src, tgt = self.objects, self.source, self.target
        index: dict[str, list[str]] = {x: [] for x in sorted(objects)}
        for g in sorted(self.arrows):
            if src.get(g) in objects and tgt.get(g) in objects:
                index[end[g]].append(g)
        return index


def _key_ids(key) -> tuple[str, ...]:
    """The ids of a table key, as witnesses and as a sort key that orders
    keys of any type without comparing a str with a tuple."""
    return tuple(map(str, key)) if isinstance(key, tuple) else (str(key),)


def _is_pair(key) -> bool:
    """Whether key is a pair of ids, the one key the law loops read; any
    other key is left to the table.* rules."""
    return type(key) is tuple and len(key) == 2 and type(key[0]) is str and type(key[1]) is str


def _check_table(
    r: ValidationReport,
    name: str,
    table: dict,
    expected: Container,
    declared: Container,
    values: Container,
    domain: Iterable | None = None,
) -> None:
    """Check table against its exact domain as table.<name>.* rules.

    expected holds the keys the table must have, and domain lists them in
    witness order (sorted when None).  Each absent one is missing; each
    table key, sorted, is dangling if it is expected and its value is not
    in values, extra if it is not expected but declared (made of declared
    ids), and unknown-key otherwise.  Witnesses are the key's ids, then
    the value.  A table whose keys are expected and whose values are all
    in values has none of these, and is neither scanned nor sorted.
    """
    if table.keys() == expected and all(map(values.__contains__, table.values())):
        return
    for key in sorted(expected) if domain is None else domain:
        if key not in table:
            r.add(f"table.{name}.missing", *_key_ids(key))
    for key in sorted(table, key=_key_ids):
        if key in expected:
            if table[key] not in values:
                r.add(f"table.{name}.dangling", *_key_ids(key), str(table[key]))
        elif key in declared:
            r.add(f"table.{name}.extra", *_key_ids(key))
        else:
            r.add(f"table.{name}.unknown-key", *_key_ids(key))


def _transport(
    G: FiniteGroupoid, value: dict, pairs: Iterable, rows1: dict, rows2: dict
) -> Iterator[tuple]:
    """Each (p1, p2, g1, g2) at which value, a map on pairs of points,
    breaks the GGT law value(p1.g1, p2.g2) == (g2^-1 value(p1, p2)) g1.

    pairs run in order, g1 over rows1[p1] and g2 over rows2[p2], in
    order, where a row maps an arrow g to p.g.  A move is skipped where
    value or the product is undefined (None) in G's tables.
    """
    mul, inv = G.compose.get, G.inverse.get
    for p1, p2 in pairs:
        k = value.get((p1, p2))
        if k is None:
            continue
        row2 = rows2.get(p2, {})
        for g1, q1 in rows1.get(p1, {}).items():
            for g2, q2 in row2.items():
                moved = value.get((q1, q2))
                if moved is not None:
                    want = mul((mul((inv(g2), k)), g1))
                    if want is not None and moved != want:
                        yield p1, p2, g1, g2


def _equivariance(sig: Callable, moves: Iterable, act2: Callable) -> Iterator[tuple]:
    """Each (g, p) of moves, triples (g, p, g.p) in order, at which sig(p)
    and sig(g.p) are defined but act2((g, sig(p))) is not sig(g.p)."""
    for g, p, gp in moves:
        q, image = sig(p), sig(gp)
        if q is not None and image is not None and act2((g, q)) != image:
            yield g, p


def _commute(labels: Iterable, one: list, other: list) -> Iterable:
    """The labels at which a square of moves fails to commute: one and
    other read its two ways round, per label, and fail where both are
    defined (not None) and differ.  They are compared whole first, so a
    row is searched only when they differ."""
    if one == other:
        return ()
    return [x for x, a, b in zip(labels, one, other) if a is not None and b is not None and a != b]


def _context_ok(r: ValidationReport, a: object, b: object, **parts: str) -> bool:
    """Whether a and b agree on each attribute named in parts; the first
    that differs is reported as context.mismatch, "different <part>"."""
    for name, what in parts.items():
        if getattr(a, name) != getattr(b, name):
            r.add("context.mismatch", note=f"different {what}")
            return False
    return True


def _structure_ok(r: ValidationReport, G: FiniteGroupoid, prefix: str = "") -> bool:
    """Report G's source, target, unit and inverse tables as table.*
    rules after prefix; whether all are total, so law loops may index them."""
    sub = ValidationReport()
    _check_table(sub, "source", G.source, G.arrows, G.arrows, G.objects)
    _check_table(sub, "target", G.target, G.arrows, G.arrows, G.objects)
    _check_table(sub, "unit", G.unit, G.objects, G.objects, G.arrows)
    _check_table(sub, "inverse", G.inverse, G.arrows, G.arrows, G.arrows)
    r.extend(sub, prefix)
    return sub.ok


def _compose_exact(G: FiniteGroupoid, known: list[str], by_target: dict) -> bool:
    """Whether no table.compose.* or product.* rule can fire on G, decided
    on whole columns: every arrow is known, the compose keys are as many
    as the composable pairs, each a pair of arrows with source(g1) ==
    target(g2), so they are the composable pairs, every value is an
    arrow, and each composite's source and target columns equal those of
    its right and left factors."""
    arr, src, tgt, compose = G.arrows, G.source, G.target, G.compose
    pairs = sum(len(by_target.get(src[g], ())) for g in known)
    if len(known) != len(arr) or len(compose) != pairs:
        return False
    if not compose:
        return True
    if set(map(type, compose)) != {tuple} or set(map(len, compose)) != {2}:
        return False
    firsts, seconds = zip(*compose)
    values = compose.values()
    if not (arr.issuperset(firsts) and arr.issuperset(seconds) and arr.issuperset(values)):
        return False
    return (
        list(map(src.get, firsts)) == list(map(tgt.get, seconds))
        and list(map(src.get, values)) == list(map(src.get, seconds))
        and list(map(tgt.get, values)) == list(map(tgt.get, firsts))
    )


def _generators(arrows: list[str], rows: dict) -> list[str]:
    """A greedy generating set S: each of arrows, in order, that is not yet
    a left-normed product (((s1 s2) s3) ...) of the earlier members."""
    gens: list[str] = []
    reached: set[str] = set()
    for g in arrows:
        if g in reached:
            continue
        gens.append(g)
        # the products reached so far gain g as a right factor; g itself
        # and every new product gain all of gens
        todo = [(x, (g,)) for x in reached]
        reached.add(g)
        todo.append((g, gens))
        while todo:
            x, by = todo.pop()
            row = rows.get(x, {})
            for s in by:
                y = row.get(s)
                if y is not None and y not in reached:
                    reached.add(y)
                    todo.append((y, gens))
    return gens


def _associativity(
    rows: dict, src: dict, firsts: list[str], middles: dict, by_target: dict
) -> Iterator[tuple[str, str, str]]:
    """Each (g1, g2, g3), g1 over firsts, g2 over middles[source(g1)] and
    g3 over by_target[source(g2)], at which (g1 g2) g3 != g1 (g2 g3), both
    defined.  rows[g1][g2] is "g1 after g2"; left multiplication by g1
    commutes with right multiplication by g3 a whole row at a time."""
    for g1 in firsts:
        row1 = rows.get(g1, {})
        for g2 in middles.get(src[g1], ()):
            third = by_target.get(src[g2], ())
            lefts = list(map(rows.get(row1.get(g2), {}).get, third))
            rights = list(map(row1.get, map(rows.get(g2, {}).get, third)))
            for g3 in _commute(third, lefts, rights):
                yield g1, g2, g3


def validate_groupoid(G: FiniteGroupoid) -> ValidationReport:
    """Check every groupoid axiom over the whole of G's tables.

    All violations are collected; nothing short-circuits.  Rule ids:

    table.*                  malformed tables (reported separately from axioms)
    product.source/.target   endpoints of composites
    unit.endpoints/.left/.right
    inverse.endpoints/.left/.right
    associativity            over all composable triples
    derived.source-surjective, derived.target-surjective
                             consequences of the unit laws, checked so a
                             broken unit table cannot mask them

    _compose_exact decides the table.compose.* and product.* rules on
    whole columns, and their loops run only when it fails; the unit and
    inverse loops always run.  On an exact table, associativity is decided
    by Light's test (Clifford & Preston, The Algebraic Theory of
    Semigroups I, 1961, 1.2): the law is checked with its middle arrow in
    a generating set S (_generators) only.  Proof: let M be the arrows s
    with (x s) y == x (s y) for every composable x, y.  Every composite of
    composable arrows is defined and has the endpoints of its factors, so
    for s, t in M and composable x, y
        (x (s t)) y == ((x s) t) y == (x s) (t y) == x (s (t y)) == x ((s t) y);
    M is closed under composition and contains S, and every arrow is a
    product of members of S, so M holds every arrow.
    """
    r = ValidationReport()
    obj, arr = G.objects, G.arrows
    _structure_ok(r, G)

    src, tgt = G.source, G.target
    known = [g for g in sorted(arr) if src.get(g) in obj and tgt.get(g) in obj]
    by_target = G.by_target()

    mul, unit, inv = G.compose.get, G.unit.get, G.inverse.get
    exact = _compose_exact(G, known, by_target)
    entries = G.compose.items()
    if not exact:
        composable: set[tuple[str, str]] = set()
        for g1 in known:
            for g2 in by_target.get(src[g1], ()):
                composable.add((g1, g2))
                if (g1, g2) not in G.compose:
                    r.add("table.compose.missing", g1, g2)
        # sorted by key ids, so that a key that is not a pair neither
        # raises nor reaches the loops below
        entries = sorted(entries, key=lambda entry: _key_ids(entry[0]))
        for key, g3 in entries:
            if not _is_pair(key) or not arr.issuperset(key):
                r.add("table.compose.unknown-key", *_key_ids(key))
            elif key[0] in known and key[1] in known and key not in composable:
                r.add("table.compose.extra", *key)
            if g3 not in arr:
                r.add("table.compose.dangling", *_key_ids(key), g3)
        entries = [(key, g3) for key, g3 in entries if _is_pair(key)]

        for g1, g2 in sorted(composable):
            g3 = mul((g1, g2))
            if g3 is None or g3 not in arr:
                continue
            if src.get(g3) != src[g2]:
                r.add("product.source", g1, g2, g3)
            if tgt.get(g3) != tgt[g1]:
                r.add("product.target", g1, g2, g3)

    for x in sorted(obj):
        e = unit(x)
        if e in arr and (src.get(e) != x or tgt.get(e) != x):
            r.add("unit.endpoints", x, e)

    for g in known:
        e_t = unit(tgt[g])
        if e_t is not None:
            p = mul((e_t, g))
            if p is not None and p != g:
                r.add("unit.left", g)
        e_s = unit(src[g])
        if e_s is not None:
            p = mul((g, e_s))
            if p is not None and p != g:
                r.add("unit.right", g)

    known_set = set(known)
    for g in known:
        h = inv(g)
        if h not in known_set:
            continue
        if src[h] != tgt[g] or tgt[h] != src[g]:
            r.add("inverse.endpoints", g, h)
        e_t, e_s = unit(tgt[g]), unit(src[g])
        p = mul((g, h))
        if p is not None and e_t is not None and p != e_t:
            r.add("inverse.right", g)
        q = mul((h, g))
        if q is not None and e_s is not None and q != e_s:
            r.add("inverse.left", g)

    rows: dict[str, dict[str, str]] = {}
    for (g1, g2), g3 in entries:  # an exact table's keys are all pairs
        rows.setdefault(g1, {})[g2] = g3
    associative = False
    if exact:  # Light's test: the middle arrow in a generating set only
        middles: dict[str, list[str]] = {}
        for s in _generators(known, rows):
            middles.setdefault(tgt[s], []).append(s)
        associative = next(_associativity(rows, src, known, middles, by_target), None) is None
    if not associative:
        for w in _associativity(rows, src, known, by_target, by_target):
            r.add("associativity", *w)

    hit_s = {src[g] for g in known}
    hit_t = {tgt[g] for g in known}
    for x in sorted(obj):
        if x not in hit_s:
            r.add("derived.source-surjective", x)
        if x not in hit_t:
            r.add("derived.target-surjective", x)
    return r


def isotropy_group(G: FiniteGroupoid, x: str) -> FiniteGroupoid:
    """The one-object groupoid on x whose arrows run from x to x."""
    if x not in G.objects:
        raise KeyError(f"not an object: {x!r}")
    arrows = G.hom(x, x)
    return FiniteGroupoid(
        objects=frozenset({x}),
        arrows=frozenset(arrows),
        source={g: x for g in arrows},
        target={g: x for g in arrows},
        unit={x: G.unit[x]},
        inverse={g: G.inverse[g] for g in arrows},
        compose={(a, b): G.compose[(a, b)] for a in arrows for b in arrows},
    )


_quote = json.encoder.encode_basestring_ascii


def pair_id(a: str, b: str) -> str:
    """Canonical id for an ordered pair of ids; split_pair inverts it.

    Both ids must be str.  The bytes equal
    json.dumps([a, b], separators=(",", ":")): _quote is the C string
    encoder json.dumps itself uses under its default ensure_ascii=True,
    called directly to skip building an encoder per call.
    """
    return f"[{_quote(a)},{_quote(b)}]"


def split_pair(ab: str) -> tuple[str, str]:
    a, b = json.loads(ab)
    return a, b


def _pair_rows(xs: Iterable[str], ys: Iterable[str]) -> dict[str, dict[str, str]]:
    """rows[x][y] == pair_id(x, y), rows and entries in sorted id order."""
    ys = sorted(ys)
    return {x: {y: pair_id(x, y) for y in ys} for x in sorted(xs)}


def _pair_of(rows: dict, a: str, b: str) -> str:
    """rows[a][b], or pair_id(a, b) for a pair the rows do not hold."""
    row = rows.get(a, ())
    return row[b] if b in row else pair_id(a, b)


def _product_table(t1: dict, t2: dict, rows_a: dict, rows_b: dict, rows_c: dict) -> dict:
    """Entrywise product of two tables keyed by pairs: ((a1, b1), c1) and
    ((a2, b2), c2) give ((rows_a[a1][a2], rows_b[b1][b2]), rows_c[c1][c2]),
    one row table per column.  t1's sorted entries are paired with t2's,
    sorted once."""
    table = {}
    entries2 = sorted(t2.items())
    for (a1, b1), c1 in sorted(t1.items()):
        ra, rb, rc = rows_a[a1], rows_b[b1], rows_c[c1]
        for (a2, b2), c2 in entries2:
            table[(ra[a2], rb[b2])] = rc[c2]
    return table


def _product(G1: FiniteGroupoid, G2: FiniteGroupoid) -> tuple[FiniteGroupoid, dict, dict]:
    """product_groupoid(G1, G2) with the rows that name its arrows and its
    objects (_pair_rows), for callers that name the same pairs again."""
    arrows = _pair_rows(G1.arrows, G2.arrows)
    objects = _pair_rows(G1.objects, G2.objects)
    src2, tgt2, inv2, unit2 = G2.source, G2.target, G2.inverse, G2.unit
    source, target, inverse, unit = {}, {}, {}, {}
    for g1, row in arrows.items():
        s, t, i = objects[G1.source[g1]], objects[G1.target[g1]], arrows[G1.inverse[g1]]
        for g2, g in row.items():
            source[g] = s[src2[g2]]
            target[g] = t[tgt2[g2]]
            inverse[g] = i[inv2[g2]]
    for x1, row in objects.items():
        e = arrows[G1.unit[x1]]
        for x2, x in row.items():
            unit[x] = e[unit2[x2]]
    compose = _product_table(G1.compose, G2.compose, arrows, arrows, arrows)
    G = FiniteGroupoid(frozenset(unit), frozenset(source), source, target, unit, inverse, compose)
    return G, arrows, objects


def product_groupoid(G1: FiniteGroupoid, G2: FiniteGroupoid) -> FiniteGroupoid:
    """Componentwise product; objects and arrows get pair_id ids."""
    return _product(G1, G2)[0]


@dataclass(frozen=True)
class GroupoidMorphism:
    """A functor between groupoids: an object map and an arrow map."""

    domain: FiniteGroupoid
    codomain: FiniteGroupoid
    object_map: dict[str, str]
    arrow_map: dict[str, str]


def validate_morphism(m: GroupoidMorphism) -> ValidationReport:
    """Check functoriality of m over every arrow and composable pair.

    Compatibility with inversion follows from the other laws; it is still
    checked, under the separate rule "derived.morphism-inverse", so the
    report stays exhaustive.
    """
    r = ValidationReport()
    G, H = m.domain, m.codomain
    _check_table(r, "object_map", m.object_map, G.objects, G.objects, H.objects)
    _check_table(r, "arrow_map", m.arrow_map, G.arrows, G.arrows, H.arrows)
    # The laws index the domain's tables and compare with the codomain's.
    domain_ok = _structure_ok(r, G, "domain.")
    if not (_structure_ok(r, H, "codomain.") and domain_ok):
        return r
    phi = m.object_map.get
    F = m.arrow_map.get

    for g in sorted(G.arrows):
        h = F(g)
        if h is None or h not in H.arrows:
            continue
        if H.source.get(h) != phi(G.source[g]):
            r.add("morphism.source", g)
        if H.target.get(h) != phi(G.target[g]):
            r.add("morphism.target", g)
        hi = F(G.inverse[g])
        if hi is not None and H.inverse.get(h) != hi:
            r.add("derived.morphism-inverse", g)

    for x in sorted(G.objects):
        y = phi(x)
        e = F(G.unit[x])
        if y is None or e is None:
            continue
        if H.unit.get(y) != e:
            r.add("morphism.unit", x)

    for g1, g2 in sorted(filter(_is_pair, G.compose)):
        h1, h2, h3 = F(g1), F(g2), F(G.compose[g1, g2])
        if h1 is None or h2 is None or h3 is None:
            continue
        h12 = H.compose.get((h1, h2))
        if h12 is not None and h12 != h3:
            r.add("morphism.product", g1, g2)
    return r


@dataclass(frozen=True)
class LeftAction:
    """A left groupoid action on a carrier set along a momentum map.

    act maps (g, m) to g.m and is defined exactly when
    source(g) == momentum(m); then momentum(g.m) == target(g).
    """

    groupoid: FiniteGroupoid
    carrier: frozenset[str]
    momentum: dict[str, str]
    act: dict[tuple[str, str], str]


@dataclass(frozen=True)
class RightAction:
    """A right groupoid action; act maps (m, g) to m.g.

    Defined exactly when momentum(m) == target(g); then
    momentum(m.g) == source(g).
    """

    groupoid: FiniteGroupoid
    carrier: frozenset[str]
    momentum: dict[str, str]
    act: dict[tuple[str, str], str]


def validate_action(A: LeftAction | RightAction) -> ValidationReport:
    """Check the action axioms of A exhaustively.

    Covers domain exactness of the act table (rules table.act.*), the
    momentum law, compatibility with composition and the unit law.
    One pass over act builds rows[m][g], g acting on m on either side,
    where that lands in the carrier; the sorted table.act.* scan runs only
    when an entry is missing, unknown, extra or dangling.  The laws run
    over the arrows at each anchor of a point, so an arrow that acts on no
    point costs nothing, and the witnesses are sorted after: g-major on
    the left, point-major on the right, as the act keys run.
    """
    r = ValidationReport()
    G = A.groupoid
    _check_table(r, "momentum", A.momentum, A.carrier, A.carrier, G.objects)
    # Everything below indexes G's tables.
    if not _structure_ok(r, G):
        return r
    left = isinstance(A, LeftAction)
    J = A.momentum.get

    anchored: dict[str, list[str]] = {}
    for m in sorted(A.carrier):
        x = J(m)
        if x in G.objects:
            anchored.setdefault(x, []).append(m)

    # g acts on the points anchored at its endpoint and moves them to its
    # far end.  A right action is written in mirror order: its act keys,
    # compose keys and witnesses are the left side's tuples reversed.
    endpoint, far = (G.source, G.target) if left else (G.target, G.source)
    side = (lambda t: t) if left else (lambda t: t[::-1])
    meets = G.by_source() if left else G.by_target()
    carrier = A.carrier
    rows: dict[str, dict[str, str]] = {m: {} for m in carrier}
    for key, v in A.act.items():
        if v in carrier and _is_pair(key):
            if left:
                g, m = key
            else:
                m, g = key
            rows.setdefault(m, {})[g] = v

    # Scan the table only if some entry is off the carrier or off the anchors.
    meet_sets = {x: set(meets[x]) for x in anchored}
    if len(rows) > len(A.carrier) or sum(map(len, rows.values())) < len(A.act) or any(
        row.keys() != meet_sets.get(J(m), set()) for m, row in rows.items()
    ):
        domain = [side((g, m)) for g in sorted(G.arrows) for m in anchored.get(endpoint[g], ())]
        declared = {side((g, m)) for g in G.arrows for m in A.carrier}
        _check_table(r, "act", A.act, set(domain), declared, A.carrier, domain)

    # Compose law: acting by g and then by each h that meets g's far end
    # equals acting by their composite gh, "h after g" (on the right side
    # "g after h", h after g in the opposite groupoid): the move by g
    # commutes with the moves by every h.
    momentum_law, compose_law = [], []
    for x, ms in anchored.items():
        for g in meets[x]:
            f = far[g]
            hs = meets[f]
            composites = zip(hs, repeat(g)) if left else zip(repeat(g), hs)
            ghs = list(map(G.compose.get, composites))
            for m in ms:
                row = rows[m]
                step = row.get(g)
                if step is None:
                    continue
                if J(step) != f:
                    momentum_law.append(side((g, m)))
                for h in _commute(hs, list(map(rows[step].get, hs)), list(map(row.get, ghs))):
                    compose_law.append(side((h, g, m)))
    momentum_law.sort()
    compose_law.sort(key=(lambda w: w[1:] + w[:1]) if left else None)
    for w in momentum_law:
        r.add("action.momentum", *w)
    for w in compose_law:
        r.add("action.compose", *w)

    for m in sorted(A.carrier):
        res = rows[m].get(G.unit.get(J(m)))
        if res is not None and res != m:
            r.add("action.unit", m)
    return r


CONJUGATION_VARIANTS = ("left", "left_bar", "right", "right_bar")


def generalized_conjugation(
    G: FiniteGroupoid, variant: str = "left"
) -> LeftAction | RightAction:
    """Conjugation-style action of G x G on the arrows of G.

    variant "left":       (g1, g2) . m = g1 m g2^-1, momentum m -> (target(m), source(m))
    variant "left_bar":   (g1, g2) . m = g2 m g1^-1, momentum m -> (source(m), target(m))
    variant "right":      m . (g1, g2) = g1^-1 m g2, momentum m -> (target(m), source(m))
    variant "right_bar":  m . (g1, g2) = g2^-1 m g1, momentum m -> (source(m), target(m))

    Left variants return a LeftAction of product_groupoid(G, G), right
    variants a RightAction.  Restricting a left variant to pairs (g, g)
    with m in an isotropy group recovers ordinary conjugation.
    """
    if variant not in CONJUGATION_VARIANTS:
        raise ValueError(f"unknown variant: {variant!r}")
    GG, arrows, objects = _product(G, G)
    carrier = frozenset(G.arrows)
    left = variant.startswith("left")
    bar = variant.endswith("_bar")
    ends = (G.source, G.target) if bar else (G.target, G.source)
    momentum = {m: objects[ends[0][m]][ends[1][m]] for m in sorted(G.arrows)}
    # a runs over the arrows at target(m), b over those at source(m): their
    # sources for a left variant, their targets for a right one
    by = G.by_source() if left else G.by_target()
    mul, inv = G.mul, G.inv
    act: dict[tuple[str, str], str] = {}
    for m in sorted(G.arrows):
        bs = by.get(G.source[m], ())
        for a in by.get(G.target[m], ()):
            am, row = (mul(a, m) if left else mul(inv(a), m)), arrows[a]
            for b in bs:
                g = arrows[b][a] if bar else row[b]
                if left:
                    act[(g, m)] = mul(am, inv(b))
                else:
                    act[(m, g)] = mul(am, b)
    return (LeftAction if left else RightAction)(GG, carrier, momentum, act)
