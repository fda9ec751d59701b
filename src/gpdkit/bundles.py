"""Principal groupoid bundles and their division maps.

A principal bundle here is a finite set of points with a projection to a
base set, a momentum map into the objects of a groupoid, and a right
action along that momentum.  Principality means the action is free and
transitive on each projection fiber; equivalently (p, g) -> (p, p.g) is
a bijection onto the set of same-fiber pairs.

The division map of a principal bundle sends a same-fiber pair (p, q)
to the unique arrow g with p.g == q.  It is answered from the bundle's
quotients index alone, one of the read-only indexes built on first use
from read-only copies of its act and projection tables, so no index can
go stale.  The same-fiber pairs, which the division laws and every GGT
of a bundle with itself run over, are one more such index.

The unit bundle of G is G's arrows over its objects, acting by
composition.  Trivializations, random bundles and the bibundles of
groupoid morphisms pull it back along a map into G's objects; that
pullback reads G's tables directly, the fibers it needs and the compose
rows of their arrows, without building the unit bundle or its indexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .core import (
    FiniteGroupoid,
    RightAction,
    ValidationReport,
    _check_table,
    _is_pair,
    _pair_of,
    _pair_rows,
    _product,
    _product_table,
    _transport,
    pair_id,
    validate_action,
)

__all__ = [
    "NotSameFiberError",
    "IntegrityError",
    "PrincipalBundle",
    "validate_bundle",
    "division_map",
    "verify_division_properties",
    "unit_bundle",
    "pullback_bundle",
    "product_bundle",
    "fibred_product",
    "BundleIso",
    "trivialize",
]


class NotSameFiberError(ValueError):
    """Raised when a division is requested across different fibers."""


class IntegrityError(ValueError):
    """Raised when a computation contradicts principality or a theorem."""


class _ReadOnlyDict(dict):
    """A dict whose mutators raise TypeError."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("a bundle's tables and indexes are read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        # copy and pickle rebuild a dict subclass item by item otherwise
        return _ReadOnlyDict, (dict(self),)


@dataclass(frozen=True)
class PrincipalBundle:
    """A candidate principal bundle; validate_bundle decides principality.

    act maps (p, g) to p.g and is defined exactly when
    momentum(p) == target(g); then momentum(p.g) == source(g) and
    projection(p.g) == projection(p).  act and projection are read-only
    copies, made here and nowhere else; the fibers, moves, quotients and
    self_pairs indexes are built on first use, shared by every reader and
    read-only too, rows of moves included.
    """

    groupoid: FiniteGroupoid
    total: frozenset[str]
    base: frozenset[str]
    projection: dict[str, str]
    momentum: dict[str, str]
    act: dict[tuple[str, str], str]

    def __post_init__(self) -> None:
        for name in ("projection", "act"):
            object.__setattr__(self, name, _ReadOnlyDict(getattr(self, name)))

    @cached_property
    def fibers(self) -> dict[str, tuple[str, ...]]:
        """Sorted points by projection value, None and non-base ones too."""
        groups: dict[str, list[str]] = {}
        for p in sorted(self.total):
            groups.setdefault(self.projection.get(p), []).append(p)
        return _ReadOnlyDict((m, tuple(points)) for m, points in groups.items())

    @cached_property
    def moves(self) -> dict[str, dict[str, str]]:
        """moves[p][g] == p.g for every act entry keyed by a pair of ids,
        rows in point order and each row in arrow order."""
        rows: dict[str, dict[str, str]] = {}
        act = self.act
        for p, g in sorted(filter(_is_pair, act)):
            rows.setdefault(p, {})[g] = act[p, g]
        return _ReadOnlyDict((p, _ReadOnlyDict(row)) for p, row in rows.items())

    @cached_property
    def quotients(self) -> dict[tuple[str, str], str]:
        """The division map, read off moves in one pass: by (p, q), the one
        arrow g with p.g == q, for total points p, q of one fiber that have one."""
        total, pi = self.total, self.projection
        found, many = {}, object()
        for p, row in self.moves.items():
            for g, q in row.items() if p in total and p in pi else ():
                if q in total and q in pi and pi[q] == pi[p]:
                    found[p, q] = many if (p, q) in found else g
        return _ReadOnlyDict((pq, g) for pq, g in found.items() if g is not many)

    @cached_property
    def self_pairs(self) -> tuple[tuple[str, str], ...]:
        """The pairs (p, q) of points over one base point, by base point,
        then p, then q."""
        return tuple(_same_fiber_pairs(self, self))

    def fiber(self, m: str) -> tuple[str, ...]:
        """Total points over base point m, sorted."""
        return self.fibers.get(m, ())

    def right_action(self) -> RightAction:
        return RightAction(self.groupoid, self.total, self.momentum, self.act)


def validate_bundle(B: PrincipalBundle) -> ValidationReport:
    """Check that B is a principal bundle, collecting every violation.

    Includes the right action axioms (rules action.* and table.*), the
    projection table, surjectivity and invariance of the projection, and
    fiberwise freeness and transitivity:

    bundle.free        witness (p, g, h): p.g == p.h with g != h
    bundle.transitive  witness (p, q): same fiber, no arrow moves p to q
    """
    r = ValidationReport()
    r.extend(validate_action(B.right_action()))
    _check_table(r, "projection", B.projection, B.total, B.total, B.base)

    pi, total, moves = B.projection.get, B.total, B.moves
    hit = {pi(p) for p in total}
    for m in sorted(B.base):
        if m not in hit:
            r.add("bundle.projection-surjective", m)

    for p, row in moves.items():
        if p in total:
            m = pi(p)
            for g, q in row.items():
                if q in total and pi(q) != m:
                    r.add("bundle.projection-invariant", p, g)

    # Fiberwise: g -> p.g injective for each p, image all of p's fiber.
    for m in sorted(B.base):
        fiber = B.fiber(m)
        for p in fiber:
            seen: dict[str, str] = {}
            for g, q in moves.get(p, {}).items():
                if q in seen:
                    r.add("bundle.free", p, seen[q], g)
                elif q in total:
                    seen[q] = g
            for q in fiber:
                if q not in seen:
                    r.add("bundle.transitive", p, q)
    return r


def division_map(B: PrincipalBundle, p: str, q: str) -> str:
    """The unique arrow g with p.g == q for p and q in one fiber, read
    from B.quotients.  Off that index it raises KeyError for a point
    outside the total space, NotSameFiberError when the points project
    differently, and IntegrityError naming the fiber when the bundle is
    not principal there (no solution, or more than one).
    """
    g = B.quotients.get((p, q))
    if g is not None:
        return g
    if p not in B.total or q not in B.total:
        raise KeyError(f"not a total point: {p!r} or {q!r}")
    m = B.projection[p]
    if B.projection[q] != m:
        raise NotSameFiberError(
            f"{p!r} and {q!r} lie over different base points"
        )
    # one arrow moving p to q would be in quotients, so any is one of many
    kind = "multiple solutions" if q in B.moves.get(p, {}).values() else "no solution"
    raise IntegrityError(
        f"division of {q!r} by {p!r} has {kind} in the fiber over {m!r}"
    )


def verify_division_properties(B: PrincipalBundle) -> ValidationReport:
    """Check the division map laws exhaustively over same-fiber pairs.

    division.defined       witness (p, q): no unique solution
    division.endpoints     d(p, q) runs from momentum(q) to momentum(p)
    division.reflexive     d(p, p) is the unit at momentum(p)
    division.symmetry      d(p, q) == d(q, p)^-1
    division.equivariance  d(p.g1, q.g2) == g1^-1 d(p, q) g2

    The defining equation p . d(p, q) == q holds by the construction of
    B.quotients.  Never raises: a product that G's tables leave undefined
    skips the instance, as in the other laws.
    """
    r = ValidationReport()
    G = B.groupoid
    d = B.quotients
    pairs = _fibred_pairs(B, B)
    for pq in pairs:
        if pq not in d:
            r.add("division.defined", *pq)
    defined = sorted(pq for pq in pairs if pq in d)
    for p, q in defined:
        g = d[(p, q)]
        if G.source.get(g) != B.momentum.get(q) or G.target.get(g) != B.momentum.get(p):
            r.add("division.endpoints", p, q)
        if p == q and g != G.unit.get(B.momentum.get(p)):
            r.add("division.reflexive", p)
        back = d.get((q, p))
        if back is not None and G.inverse.get(back) != g:
            r.add("division.symmetry", p, q)

    # d is the identity GGT read the other way round, K(p1, p2) = d(p2, p1):
    # K(q.g2, p.g1) == (g1^-1 K(q, p)) g2 is the law.
    K = {(q, p): d[(p, q)] for p, q in defined}
    found = sorted((p, q, g1, g2) for q, p, g2, g1 in _transport(G, K, K, B.moves, B.moves))
    for witness in found:
        r.add("division.equivariance", *witness)
    return r


def unit_bundle(G: FiniteGroupoid) -> PrincipalBundle:
    """The groupoid as a bundle over its objects: projection is target,
    momentum is source, and the action is composition.  Its division map
    is d(g, h) = g^-1 h."""
    return PrincipalBundle(
        groupoid=G,
        total=frozenset(G.arrows),
        base=frozenset(G.objects),
        projection=G.target,
        momentum=dict(G.source),
        act=G.compose,
    )


def pullback_bundle(B: PrincipalBundle, f: dict[str, str]) -> PrincipalBundle:
    """Pull B back along f; the new base is f's key set.

    Points are pair_id(m, p) with f(m) == projection(p); the action only
    touches the second component.
    """
    return _pull(B.groupoid, f, B.base, B.fibers, B.momentum, B.moves)[0]


def _unit_pullback(G: FiniteGroupoid, f: dict[str, str]) -> tuple[PrincipalBundle, dict]:
    """The pullback of unit_bundle(G) along f and its rows, read from G's
    tables.  The fiber over x is the sorted arrows with target x, and the
    move row of an arrow a holds every compose key (a, g) in arrow order,
    composable or not, so a malformed compose table pulls back as it
    does through the unit bundle."""
    target = G.target.get
    fibers: dict[str, list[str]] = {x: [] for x in f.values()}
    for g in sorted(G.arrows):
        if target(g) in fibers:
            fibers[target(g)].append(g)
    moves: dict[str, list] = {a: [] for fiber in fibers.values() for a in fiber}
    for (a, g), ag in G.compose.items():
        if a in moves:
            moves[a].append((g, ag))
    moves = {a: dict(sorted(row)) for a, row in moves.items()}
    return _pull(G, f, G.objects, fibers, G.source, moves)


def _pull(
    G: FiniteGroupoid, f: dict[str, str], base, fibers: dict, momentum: dict, moves: dict
) -> tuple[PrincipalBundle, dict]:
    """The pullback along f of the G-bundle over base with these fibers
    (by base point), momentum and moves (by point), with its rows:
    rows[m][p] is the point (m, p), one plain row per new base point m
    over the fiber of f(m), in sorted order.  A move that leaves its
    fiber, on an invalid bundle only, still names its point (m, q) with
    pair_id."""
    for m in sorted(f):
        if f[m] not in base:
            raise ValueError(f"f({m!r}) = {f[m]!r} is not a base point")
    rows: dict[str, dict[str, str]] = {}
    projection, momenta, act = {}, {}, {}
    for m in sorted(f):
        rows[m] = row = {p: pair_id(m, p) for p in fibers.get(f[m], ())}
        for p, mp in row.items():
            projection[mp] = m
            momenta[mp] = momentum[p]
    for m, row in rows.items():
        for p, mp in row.items():
            for g, q in moves.get(p, {}).items():
                act[(mp, g)] = _pair_of(rows, m, q)
    total = frozenset(projection)
    return PrincipalBundle(G, total, frozenset(f), projection, momenta, act), rows


def product_bundle(B1: PrincipalBundle, B2: PrincipalBundle) -> PrincipalBundle:
    """Componentwise product bundle over the product of the bases."""
    return _product_bundle(B1, B2)[0]


def _product_bundle(B1: PrincipalBundle, B2: PrincipalBundle) -> tuple[PrincipalBundle, dict]:
    """product_bundle with the rows that name its points (_pair_rows)."""
    GG, arrows, objects = _product(B1.groupoid, B2.groupoid)
    points, base = _pair_rows(B1.total, B2.total), _pair_rows(B1.base, B2.base)
    pairs = [(p1, p2, p) for p1, row in points.items() for p2, p in row.items()]
    projection = {p: base[B1.projection[p1]][B2.projection[p2]] for p1, p2, p in pairs}
    momentum = {p: objects[B1.momentum[p1]][B2.momentum[p2]] for p1, p2, p in pairs}
    act = _product_table(B1.act, B2.act, points, arrows, points)
    total, base = frozenset(projection), frozenset(projection.values())
    return PrincipalBundle(GG, total, base, projection, momentum, act), points


def _fibred_pairs(B1: PrincipalBundle, B2: PrincipalBundle) -> list[tuple[str, str]]:
    """The pairs (p1, p2) of points over one base point, by base point;
    a copy of B.self_pairs when B1 and B2 are one bundle B."""
    return list(B1.self_pairs) if B1 is B2 else _same_fiber_pairs(B1, B2)


def _same_fiber_pairs(B1: PrincipalBundle, B2: PrincipalBundle) -> list[tuple[str, str]]:
    fibers1, fibers2 = B1.fibers, B2.fibers
    return [
        pair for m in sorted(B1.base) for pair in product(fibers1.get(m, ()), fibers2.get(m, ()))
    ]


def fibred_product(B1: PrincipalBundle, B2: PrincipalBundle) -> PrincipalBundle:
    """Pairs of points over one base point, as a bundle for the product
    groupoid over the shared base."""
    return _fibred_product(B1, B2)[0]


def _fibred_product(B1: PrincipalBundle, B2: PrincipalBundle) -> tuple[PrincipalBundle, dict]:
    """fibred_product with its rows: rows[p1][p2] is the point (p1, p2),
    by base point, then p1, then p2.  A move that leaves the fibred pairs,
    on an invalid bundle only, still names its point with pair_id."""
    if B1.base != B2.base:
        raise ValueError("fibred product needs a shared base")
    GG, arrows, objects = _product(B1.groupoid, B2.groupoid)
    rows: dict[str, dict[str, str]] = {}
    for m in sorted(B1.base):
        rows.update(_pair_rows(B1.fiber(m), B2.fiber(m)))
    pairs = [(p1, p2, p) for p1, row in rows.items() for p2, p in row.items()]
    projection = {p: B1.projection[p1] for p1, p2, p in pairs}
    momentum = {p: objects[B1.momentum[p1]][B2.momentum[p2]] for p1, p2, p in pairs}
    act, moves1, moves2 = {}, B1.moves, B2.moves
    for p1, row in rows.items():
        row1 = moves1.get(p1, {}).items()
        for p2, p in row.items():
            row2 = moves2.get(p2, {}).items()
            for g1, q1 in row1:
                g = arrows[g1]
                for g2, q2 in row2:
                    act[(p, g[g2])] = _pair_of(rows, q1, q2)
    total = frozenset(projection)
    return PrincipalBundle(GG, total, frozenset(B1.base), projection, momentum, act), rows


@dataclass(frozen=True)
class BundleIso:
    """A mutually inverse pair of bundle maps produced by trivialize."""

    source: PrincipalBundle
    target: PrincipalBundle
    forward: dict[str, str]
    backward: dict[str, str]


def _restrict(B: PrincipalBundle, U: frozenset[str]) -> PrincipalBundle:
    """A copy of B over U: the points over U and their table entries,
    also when that drops nothing, as for a section over the whole base."""
    total = frozenset(p for p in B.total if B.projection[p] in U)
    return PrincipalBundle(
        groupoid=B.groupoid,
        total=total,
        base=U,
        projection={p: m for p, m in B.projection.items() if p in total},
        momentum={p: B.momentum[p] for p in B.momentum if p in total},
        act={k: v for k, v in B.act.items() if k[0] in total},
    )


def trivialize(B: PrincipalBundle, section: dict[str, str]) -> BundleIso:
    """Trivialize B over the domain of a section.

    section maps base points to total points lying over them; its key
    set is the open piece.  The result identifies the restriction of B
    with the pullback of the unit bundle along m -> momentum(section(m)),
    via p -> (projection(p), d(section(projection(p)), p)) and back via
    (m, g) -> section(m).g.  Both directions are built and checked to be
    mutually inverse and equivariant.
    """
    for m in sorted(section):
        if m not in B.base:
            raise ValueError(f"not a base point: {m!r}")
        p = section[m]
        if p not in B.total or B.projection[p] != m:
            raise ValueError(f"not a section at {m!r}: {p!r}")
    U = frozenset(section)
    restricted = _restrict(B, U)
    alpha = {m: B.momentum[section[m]] for m in sorted(section)}
    trivial, rows = _unit_pullback(B.groupoid, alpha)

    forward = {}
    for p in sorted(restricted.total):
        m = B.projection[p]
        forward[p] = pair_id(m, division_map(B, section[m], p))
    backward = {}
    for mp, m, g in sorted((mp, m, g) for m, row in rows.items() for g, mp in row.items()):
        backward[mp] = B.act[(section[m], g)]

    for p in sorted(restricted.total):
        if backward[forward[p]] != p:
            raise IntegrityError(f"trivialization does not invert at {p!r}")
    for mp in sorted(trivial.total):
        if forward[backward[mp]] != mp:
            raise IntegrityError(f"trivialization does not invert at {mp!r}")
    for (p, g), q in sorted(restricted.act.items()):
        if trivial.act[(forward[p], g)] != forward[q]:
            raise IntegrityError(f"trivialization not equivariant at ({p!r}, {g!r})")
    return BundleIso(restricted, trivial, forward, backward)
