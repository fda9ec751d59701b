"""Bundle morphisms, generalized gauge transformations and gauge groupoids.

For principal bundles P1, P2 over one base with one structure groupoid,
a bundle morphism is an equivariant, fiber and momentum preserving map
P1 -> P2, and a generalized gauge transformation (GGT) is a map K from
same-fiber pairs (p1, p2) to arrows with

    source(K(p1, p2)) == momentum1(p1)
    target(K(p1, p2)) == momentum2(p2)
    K(p1.g1, p2.g2) == g2^-1 K(p1, p2) g1

The two notions correspond bijectively:

    morphism_to_ggt:  K(p1, p2) = d2(p2, sigma(p1))
    ggt_to_morphism:  sigma(p1) = p2 . K(p1, p2)   for any same-fiber p2

where d2 is the division map of P2.  GGTs compose by the star product

    (K23 * K12)(p1, p3) = K23(p2, p3) K12(p1, p2)

whose value does not depend on the interpolating point p2; evaluation
computes it at every p2 of the middle fiber and checks that they agree.

Bundles with GGTs as arrows form a groupoid, built here explicitly with
GGTs interned by content so it can be fed back to validate_groupoid.
Its hom sets are constructed: _morphisms fixes each bundle morphism by
one image per fiber, spread by the division map, and the arrows are
their GGTs; gauge group elements are the automorphisms, read as
G(p) = d(p, sigma(p)) read off the bundle's quotients.  The laws of
a bundle morphism are checked once per fiber piece, which decides every
product of pieces when the bundles share groupoid and base, the fibers
over the base cover the source and the total spaces have one size;
otherwise each constructed morphism is validated in full.  The
brute-force oracles in builders share no code with this and only
cross-check it.  Units, inverses and composites go through the
bijection, as the arrows of the identity, inverse and composite maps;
star itself serves GGTs given from outside.

This module is the one place that assembles gauge groupoids and
tabulates gauge groups.  The bibundle versions in hs are the same
constructions with the arrows or elements filtered by left invariance.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from operator import itemgetter

from .bundles import IntegrityError, PrincipalBundle, _fibred_pairs, division_map
from .core import (
    FiniteGroupoid,
    ValidationReport,
    _check_table,
    _commute,
    _context_ok,
    _equivariance,
    _quote,
    _transport,
    validate_groupoid,
)

__all__ = [
    "BundleMorphism",
    "GGT",
    "GaugeTransformation",
    "validate_bundle_morphism",
    "validate_ggt",
    "validate_gauge_transformation",
    "morphism_to_ggt",
    "ggt_to_morphism",
    "identity_ggt",
    "invert_ggt",
    "star",
    "gauge_to_ggt",
    "ggt_to_gauge",
    "GaugeGroup",
    "gauge_group",
    "check_division_invariance",
    "GaugeGroupoid",
    "build_gauge_groupoid",
]


@dataclass(frozen=True)
class BundleMorphism:
    """A map of total spaces between bundles over one base and groupoid."""

    source: PrincipalBundle
    target: PrincipalBundle
    mapping: dict[str, str]


@dataclass(frozen=True)
class GGT:
    """A generalized gauge transformation; values index same-fiber pairs."""

    source: PrincipalBundle
    target: PrincipalBundle
    values: dict[tuple[str, str], str]

    def apply(self, p1: str, p2: str) -> str:
        try:
            return self.values[(p1, p2)]
        except KeyError:
            raise KeyError(f"not a same-fiber pair: ({p1!r}, {p2!r})") from None


@dataclass(frozen=True)
class GaugeTransformation:
    """A map P -> isotropy arrows with G(p.g) == g^-1 G(p) g."""

    bundle: PrincipalBundle
    values: dict[str, str]


def validate_bundle_morphism(f: BundleMorphism) -> ValidationReport:
    """Check fiber preservation, momentum preservation and equivariance.

    Bijectivity is a consequence for valid bundles; it is re-checked
    under "derived.bijective" rather than assumed.
    """
    r = ValidationReport()
    B1, B2 = f.source, f.target
    if not _context_ok(r, B1, B2, groupoid="structure groupoids", base="bases"):
        return r
    _check_table(r, "mapping", f.mapping, B1.total, B1.total, B2.total)
    sig = f.mapping.get

    for p in sorted(B1.total):
        q = sig(p)
        if q is None or q not in B2.total:
            continue
        if B2.projection.get(q) != B1.projection.get(p):
            r.add("morphism.projection", p)
        if B2.momentum.get(q) != B1.momentum.get(p):
            r.add("morphism.momentum", p)

    # B1's rows are sorted, so the witnesses are; moves are written (g, p, p.g).
    moves = ((g, p, pg) for p, row in B1.moves.items() for g, pg in row.items())
    for g, p in _equivariance(sig, moves, lambda gq: B2.act.get(gq[::-1])):
        r.add("morphism.equivariance", p, g)

    image: dict[str, str] = {}
    for p in sorted(B1.total):
        q = sig(p)
        if q is None:
            continue
        if q in image:
            r.add("derived.bijective", image[q], p)
        image.setdefault(q, p)
    if len(image) == len(B1.total) and len(B2.total) != len(B1.total):
        r.add("derived.bijective", note="total spaces differ in size")
    return r


def _cells(keys: list) -> Callable:
    """itemgetter(*keys) as a tuple for 0 or 1 keys too (one gives a value)."""
    return itemgetter(*keys) if len(keys) > 1 else lambda row: tuple(map(row.__getitem__, keys))


def _piece_ok(B1: PrincipalBundle, B2: PrincipalBundle, m: str, piece: dict) -> bool:
    """Whether piece, a candidate map of B1's fiber over m, passes every
    law of validate_bundle_morphism on its own: images are points of B2
    over m with the same momentum, distinct, and p.g goes to piece[p].g
    whenever p.g is in the fiber; a p.g in another fiber is not decided
    here, so it fails the piece."""
    for p, q in piece.items():
        if (
            q not in B2.total
            or B2.projection.get(q) != m
            or B2.momentum.get(q) != B1.momentum.get(p)
        ):
            return False
        row2 = B2.moves.get(q, {})
        for g, pg in B1.moves.get(p, {}).items():
            if pg in piece:
                if row2.get(g) != piece[pg]:
                    return False
            elif pg in B1.total:
                return False
    return len(set(piece.values())) == len(piece)


def _morphisms(B1: PrincipalBundle, B2: PrincipalBundle) -> list[dict[str, str]]:
    """The mapping sigma of every bundle morphism B1 -> B2: per base point
    m, the least point r over m goes to any q of B2 over m with
    momentum(q) == momentum(r), and the fiber follows through
    sigma(r.g) = q.g, g = d1(r, p).

    Each morphism is a product of one piece per fiber, each piece checked
    once, entry by entry: its rows are too short for maps to pay.  The
    laws of validate_bundle_morphism are local to a fiber when the
    bundles share groupoid and base, the fibers over B1's base cover
    B1.total and the total spaces have one size; then every product
    passes if every piece does.  Otherwise each product is validated in
    turn as a BundleMorphism, and the first failure is an IntegrityError.
    """
    bases = sorted(B1.base)
    choices = []
    for m in bases:
        fiber = B1.fiber(m)
        if not fiber:
            raise IntegrityError(f"empty fiber over {m!r}")
        r = fiber[0]
        moves = [(p, division_map(B1, r, p)) for p in fiber]
        pieces = []
        for q in B2.fiber(m):
            if B2.momentum.get(q) == B1.momentum.get(r):
                row = B2.moves.get(q, {})
                pieces.append({p: row.get(g) for p, g in moves})
        choices.append(pieces)
    local = (
        B1.groupoid == B2.groupoid
        and B1.base == B2.base
        and len(B1.total) == len(B2.total)
        and sum(len(B1.fiber(m)) for m in bases) == len(B1.total)
        and all(
            _piece_ok(B1, B2, m, piece)
            for m, pieces in zip(bases, choices)
            for piece in pieces
        )
    )
    mappings = []
    for pieces in itertools.product(*choices):
        mapping: dict[str, str] = {}
        for piece in pieces:
            mapping.update(piece)
        if not local:
            report = validate_bundle_morphism(BundleMorphism(B1, B2, mapping))
            if not report.ok:
                raise IntegrityError(
                    "constructed bundle morphism fails validation: " + report.render()
                )
        mappings.append(mapping)
    return mappings


def validate_ggt(K: GGT) -> ValidationReport:
    """Check the endpoint and equivariance laws of K over its whole domain."""
    r = ValidationReport()
    B1, B2 = K.source, K.target
    if not _context_ok(r, B1, B2, groupoid="structure groupoids", base="bases"):
        return r
    G = B1.groupoid
    # Equivariance multiplies through G's tables, so it needs G valid.
    r.extend(validate_groupoid(G), prefix="groupoid.")
    groupoid_ok = r.ok
    pairs = _fibred_pairs(B1, B2)
    # values has no unknown-key rule: each of its keys counts as declared
    _check_table(r, "values", K.values, set(pairs), K.values, G.arrows, pairs)

    misfooted = set()
    for (p1, p2) in pairs:
        k = K.values.get((p1, p2))
        if k is None or k not in G.arrows:
            continue
        if G.source.get(k) != B1.momentum.get(p1):
            r.add("ggt.source", p1, p2)
            misfooted.add((p1, p2))
        if G.target.get(k) != B2.momentum.get(p2):
            r.add("ggt.target", p1, p2)
            misfooted.add((p1, p2))

    if not groupoid_ok:
        return r
    # A value with the wrong endpoints cannot be multiplied by the moving
    # arrows; it is already reported, so equivariance skips it.  In a
    # groupoid g2^-1 k g1 is defined exactly when g1 and g2 meet k's
    # endpoints, so a move by any other act entry is skipped too.
    footed = [pair for pair in pairs if pair not in misfooted]
    for witness in _transport(G, K.values, footed, B1.moves, B2.moves):
        r.add("ggt.equivariance", *witness)
    return r


def validate_gauge_transformation(t: GaugeTransformation) -> ValidationReport:
    """Check isotropy endpoints and the conjugation law of t."""
    r = ValidationReport()
    B = t.bundle
    G = B.groupoid
    _check_table(r, "values", t.values, B.total, B.total, G.arrows)
    for p in sorted(B.total):
        k = t.values.get(p)
        if k is None or k not in G.arrows:
            continue
        x = B.momentum.get(p)
        if G.source.get(k) != x or G.target.get(k) != x:
            r.add("gauge.isotropy", p)
    # The GGT law on the diagonal, G(p.g) == g^-1 G(p) g, in act order.
    mul, inv = G.compose.get, G.inverse.get
    for p, row in B.moves.items():
        k = t.values.get(p)
        if k in G.arrows:
            twisted = [mul((mul((inv(g), k)), g)) for g in row]
            for g in _commute(row, list(map(t.values.get, row.values())), twisted):
                r.add("gauge.equivariance", p, g)
    return r


def _ggt_values(
    firsts: list[str], seconds: list[str], mapping: dict[str, str], B2: PrincipalBundle
) -> list[str]:
    """K(p1, p2) = d2(p2, sigma(p1)) over the same-fiber pairs (p1, p2)
    of firsts and seconds, in their order, as one map through
    B2.quotients; division_map names the first pair missing there."""
    try:
        return list(map(B2.quotients.__getitem__, zip(seconds, map(mapping.__getitem__, firsts))))
    except KeyError:
        for p1, p2 in zip(firsts, seconds):
            division_map(B2, p2, mapping[p1])
        raise


def morphism_to_ggt(f: BundleMorphism) -> GGT:
    """The GGT of a bundle morphism: K(p1, p2) = d2(p2, sigma(p1))."""
    B1, B2 = f.source, f.target
    pairs = _fibred_pairs(B1, B2)
    firsts, seconds = zip(*pairs) if pairs else ((), ())
    return GGT(B1, B2, dict(zip(pairs, _ggt_values(firsts, seconds, f.mapping, B2))))


def ggt_to_morphism(K: GGT) -> BundleMorphism:
    """The bundle morphism of a GGT: sigma(p1) = p2 . K(p1, p2).

    The defining formula must not depend on the choice of p2 in the
    fiber; that independence is re-checked here and an IntegrityError
    raised if it fails, rather than silently picking a point.
    """
    B1, B2 = K.source, K.target
    mapping = {}
    for m in sorted(B1.base):
        fiber2 = B2.fiber(m)
        if not fiber2:
            raise IntegrityError(f"empty fiber over {m!r}")
        for p1 in B1.fiber(m):
            images = [B2.act[(p2, K.apply(p1, p2))] for p2 in fiber2]
            if len(set(images)) != 1:
                raise IntegrityError(
                    f"value at {p1!r} depends on the interpolating point"
                )
            mapping[p1] = images[0]
    return BundleMorphism(B1, B2, mapping)


def identity_ggt(B: PrincipalBundle) -> GGT:
    """The unit GGT of B, that of the identity map: K(p, q) = d(q, p) = d(p, q)^-1."""
    return morphism_to_ggt(BundleMorphism(B, B, {p: p for p in B.total}))


def invert_ggt(K: GGT) -> GGT:
    """Swap the feet and invert the arrows; the inverse for star."""
    G = K.source.groupoid
    values = {(p2, p1): G.inv(k) for (p1, p2), k in K.values.items()}
    return GGT(K.target, K.source, values)


def star(K23: GGT, K12: GGT) -> GGT:
    """Compose GGTs: (K23 * K12)(p1, p3) = K23(p2, p3) K12(p1, p2).

    The middle bundle of the two factors must agree.  The value is
    independent of the interpolating p2; it is computed at every point of
    the middle fiber and checked to agree.  A missing value or product
    raises KeyError naming it.
    """
    if K12.target != K23.source:
        raise ValueError("middle bundles differ")
    B1, B2, B3 = K12.source, K12.target, K23.target
    G = B1.groupoid
    values = {}
    for m in sorted(B1.base):
        fiber2 = B2.fiber(m)
        if not fiber2:
            raise IntegrityError(f"empty fiber over {m!r}")
        for p1 in B1.fiber(m):
            for p3 in B3.fiber(m):
                candidates = {G.mul(K23.apply(p2, p3), K12.apply(p1, p2)) for p2 in fiber2}
                if len(candidates) != 1:
                    raise IntegrityError(
                        f"star value at ({p1!r}, {p3!r}) depends on the "
                        "interpolating point"
                    )
                values[(p1, p3)] = candidates.pop()
    return GGT(B1, B3, values)


def gauge_to_ggt(t: GaugeTransformation) -> GGT:
    """The GGT of a gauge transformation: K(p, q) = d(p, q)^-1 G(p)."""
    B = t.bundle
    G = B.groupoid
    values = {}
    for (p, q) in _fibred_pairs(B, B):
        values[(p, q)] = G.mul(G.inv(division_map(B, p, q)), t.values[p])
    return GGT(B, B, values)


def ggt_to_gauge(K: GGT) -> GaugeTransformation:
    """Restrict a GGT from a bundle to itself to the diagonal."""
    if K.source != K.target:
        raise ValueError("not a GGT from a bundle to itself")
    values = {p: K.values[(p, p)] for p in sorted(K.source.total)}
    return GaugeTransformation(K.source, values)


@dataclass(frozen=True)
class GaugeGroup:
    """All gauge transformations of a bundle, with their pointwise product.

    product and inverse index into elements; unit is the index of the
    transformation sending every point to the unit at its momentum.
    From gauge_group and hs_gauge_group, product is a read-only mapping
    whose entries are computed on its first read (see _tabulate); it
    compares, prints, copies and pickles as the dict it holds.
    """

    bundle: PrincipalBundle
    elements: tuple[GaugeTransformation, ...]
    product: Mapping[tuple[int, int], int]
    unit: int
    inverse: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def _gauge_elements(
    B: PrincipalBundle, keep: Callable[[list[str]], bool] | None = None
) -> list[GaugeTransformation]:
    """Every gauge transformation of B whose value row over the sorted
    points keep admits (all of them without keep), in content order (by
    that row): the automorphisms sigma of B read on the diagonal of their
    GGTs, G(p) = K(p, p) = d(p, sigma(p)).  Each row is read whole, one
    map through B.quotients (_ggt_values) that reads rows of 0 or 1
    points alike; a transformation is built only for a row that is kept."""
    points = sorted(B.total)
    rows = sorted(_ggt_values(points, points, mapping, B) for mapping in _morphisms(B, B))
    kept = rows if keep is None else filter(keep, rows)
    tables = map(dict, map(zip, itertools.repeat(points), kept))
    return list(map(GaugeTransformation, itertools.repeat(B), tables))


def _missing(what: str) -> IntegrityError:
    return IntegrityError(f"{what} missing from the gauge transformations")


def _fill_products(
    keys: list[tuple[int, ...]],
    columns: list[list[int]],
    table: list[list[tuple[int | None, ...]]],
    by_key: dict[tuple[int, ...], int],
) -> dict[tuple[int, int], int]:
    """The product table of _tabulate, row i (element i on the left) a
    fiber column at a time; a product that is no element is an
    IntegrityError naming the first such (i, j)."""
    found: list[int | None] = []
    for key in keys:
        blocks = [map(table[k][a].__getitem__, columns[k]) for k, a in enumerate(key)]
        found += map(by_key.get, zip(*blocks))
    n = len(keys)
    if None in found:
        i, j = divmod(found.index(None), n)
        raise _missing(f"product of elements {i} and {j}")
    return dict(zip(itertools.product(range(n), repeat=2), found))


class _FilledOnRead(Mapping):
    """A read-only mapping that is fill(*inputs), computed on the first
    read; the inputs are dropped once it is.  Mapping derives keys,
    values and items from the three lookups.  It equals, prints, copies
    and pickles as that dict; a copy or pickle holds the dict itself.
    One attribute holds (fill, inputs) and then the dict, so two first
    reads at once both fill and neither sees half a swap."""

    __slots__ = ("_state",)

    def __init__(self, fill: Callable[..., dict], *inputs) -> None:
        self._state: tuple | dict = (fill, inputs)

    def filled(self) -> dict:
        state = self._state
        if not isinstance(state, dict):
            fill, inputs = state
            state = self._state = fill(*inputs)
        return state

    def __getitem__(self, key):
        return self.filled()[key]

    def __iter__(self):
        return iter(self.filled())

    def __len__(self) -> int:
        return len(self.filled())

    def __eq__(self, other) -> bool:
        return self.filled() == other

    def __repr__(self) -> str:
        return repr(self.filled())

    def __reduce__(self):
        return type(self), (dict, self.filled())


def _tabulate(
    B: PrincipalBundle, elements: list[GaugeTransformation]
) -> GaugeGroup:
    """The unit, product and inverse tables of a set of gauge
    transformations of B; any of them falling outside the set is an
    IntegrityError naming which.

    Elements are indexed by their value rows over the sorted points, one
    itemgetter map (_cells, which also reads rows of 0 or 1 points); the
    unit and inverses are looked up as whole rows.  Products are
    pointwise, so they are taken one fiber at a time: the elements'
    restrictions to a fiber are one itemgetter map, the distinct ones
    get ids, and the entrywise products of all pairs of ids are one
    compose map per point, each the id of the restriction it equals
    (None if it is undefined or no element restricts to it).  An element
    is keyed by its tuple of restriction ids, and product row i is
    filled a fiber column at a time (_fill_products).  B.fibers group
    all of B's points, None and off-base projections too, so keys match
    rows one to one.

    Closure is decided from the fiber tables before any row is filled.
    The elements are closed under the product when no fiber product is
    None and the distinct keys are all prod_k len(table[k]) combinations
    of fiber ids.  Proof: the fibers partition the points, so an element
    is fixed by its key; the key of the product of elements i and j is
    (table[k][i_k][j_k])_k, a combination of ids, so it is some element's
    key and no row can miss.  The distinct keys are counted, not the
    elements, so repeated elements cannot stand in for a missing
    combination.  When closure holds, the product table is filled on its
    first read; otherwise it is filled here, and names the first product
    missing.  Subgroups that are no full product of fiber restrictions
    (hs_gauge_group's) take that path.
    """
    G = B.groupoid
    points = sorted(B.total)
    tables = [t.values for t in elements]
    rows = list(map(_cells(points), tables))
    index = dict(zip(rows, itertools.count()))
    momenta = map(B.momentum.__getitem__, points)
    unit = index.get(tuple(map(G.unit.__getitem__, momenta)))
    if unit is None:
        raise _missing("unit")

    # columns[k][i] is the id of element i's restriction to fiber k, and
    # table[k][a][b] that of the product of restrictions a and b there,
    # taken a point at a time (by_point).  Tuples are not grown from
    # iterators: resizing them fragments the heap (peak RSS).  A bundle
    # without points gets one empty fiber, so elements have keys.
    columns, table = [], []
    for fiber in list(B.fibers.values()) or [()]:
        ids: dict[tuple, int] = {}
        columns.append([ids.setdefault(r, len(ids)) for r in map(_cells(fiber), tables)])
        by_point = list(zip(*ids))
        pairs = map(itertools.product, by_point, by_point)
        products = zip(*map(map, itertools.repeat(G.compose.get), pairs)) if fiber else [()]
        found = iter(list(map(ids.get, products)))
        table.append(list(zip(*[found] * len(ids))))
    keys = list(zip(*columns))
    by_key = dict(zip(keys, itertools.count()))
    product = _FilledOnRead(_fill_products, keys, columns, table, by_key)
    closed = len(by_key) == math.prod(map(len, table)) and not any(
        None in row for block in table for row in block
    )
    if not closed:
        product.filled()
    inverse = tuple([index.get(tuple(map(G.inverse.get, row))) for row in rows])
    if None in inverse:
        raise _missing(f"inverse of element {inverse.index(None)}")
    return GaugeGroup(B, tuple(elements), product, unit, inverse)


def gauge_group(B: PrincipalBundle) -> GaugeGroup:
    """Every gauge transformation of B, tabulated as a group; each
    automorphism behind one passes the laws of a bundle morphism before
    it is admitted."""
    return _tabulate(B, _gauge_elements(B))


def check_division_invariance(f: BundleMorphism) -> ValidationReport:
    """Check that d2(sigma(p), sigma(q)) is defined and equals d1(p, q)
    at each same-fiber pair where d1 is defined.  Never raises: a pair
    with a point off the mapping is skipped, left to the table.mapping
    rules of validate_bundle_morphism."""
    r = ValidationReport()
    d1, d2 = f.source.quotients, f.target.quotients
    for p, q in _fibred_pairs(f.source, f.source):
        g = d1.get((p, q))
        sp, sq = f.mapping.get(p), f.mapping.get(q)
        if g is not None and sp is not None and sq is not None and d2.get((sp, sq)) != g:
            r.add("division.invariance", p, q)
    return r


def _ggt_digest(i: int, j: int, entries: Iterable[str]) -> str:
    """The id digest of a GGT from bundles[i] to bundles[j]: the sha256 of
    json.dumps([i, j, sorted([p1, p2, k], ...)], separators=(",", ":")),
    written from the JSON texts of the sorted [p1, p2, k] entries."""
    payload = f"[{i},{j},[{','.join(entries)}]]"
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class GaugeGroupoid:
    """Bundles as objects, GGTs as arrows, with the star product.

    groupoid is the same data exported as a FiniteGroupoid whose arrow
    ids intern the GGT tables by content, so the generic validator and
    isotropy helpers apply to it unchanged.
    """

    bundle_ids: tuple[str, ...]
    bundles: tuple[PrincipalBundle, ...]
    ggts: dict[str, GGT]
    groupoid: FiniteGroupoid


def build_gauge_groupoid(bundles: list[PrincipalBundle]) -> GaugeGroupoid:
    """Assemble the groupoid of all GGTs between the given bundles.

    The bundles must share base and structure groupoid.  Hom sets are
    the GGTs of the constructed bundle morphisms; units, inverses and
    composites are the GGTs of the identity, inverse and composite
    morphisms.  Any of them missing from the arrows is an IntegrityError.
    """
    if not bundles:
        raise ValueError("need at least one bundle")
    for B in bundles[1:]:
        if B.groupoid != bundles[0].groupoid or B.base != bundles[0].base:
            raise ValueError("bundles must share base and groupoid")
    return _assemble(bundles, lambda i, j, pairs: None)


def _assemble(
    bundles: list[PrincipalBundle], keep: Callable[[int, int, list], Callable | None]
) -> GaugeGroupoid:
    """The gauge groupoid on the GGTs K = morphism_to_ggt(sigma) of the
    bundle morphisms sigma from bundles[i] to bundles[j] that
    keep(i, j, pairs) admits, a test of K's value row over the same-fiber
    pairs or None for all; its objects are P0, P1, ...  Each hom set is
    sorted by content: by the values read over the sorted pairs.

    Rows are read whole: a value row is one map (_ggt_values), its content
    one permutation of it (_cells), the composites with an inner arrow one
    itemgetter map over the outer rows.  As itemgetter of one index gives
    a value, a row of 0 or 1 points (the only one of its length) is its
    own composite.

    Units, inverses and composites are found through the GGT-morphism
    bijection, by morphism row, which is exact: identity_ggt(B) is
    morphism_to_ggt of the identity map; invert_ggt(K_sigma) is
    K_{sigma^-1} because bundle morphisms preserve division
    (thm-gaugeinvdiv); and star(K23, K12) is the GGT of sigma23 o sigma12
    by the equivariance of sigma23.  check-theorems and the perfbench
    gauge workload still check the unit and inverse laws of the result
    with validate_groupoid.  A unit, inverse or composite that was not
    kept is an IntegrityError naming which.
    """
    ids = [f"P{i}" for i in range(len(bundles))]

    arrows: dict[str, GGT] = {}
    source: dict[str, str] = {}
    target: dict[str, str] = {}

    # An arrow's morphism as a row: the position in bundles[j]'s sorted
    # points of the image of each of bundles[i]'s sorted points.  by_row
    # lists each hom set's arrows by row, in content order.  A
    # permutation's inverse lists its positions by image.
    points = [sorted(B.total) for B in bundles]
    position = [dict(zip(pts, itertools.count())) for pts in points]
    by_row: dict[tuple[int, int], dict[tuple[int, ...], str]] = {}
    for i, Bi in enumerate(bundles):
        for j, Bj in enumerate(bundles):
            pairs = _fibred_pairs(Bi, Bj)
            content = _cells(sorted(range(len(pairs)), key=pairs.__getitem__))
            heads = [f"[{_quote(p1)},{_quote(p2)}," for p1, p2 in sorted(pairs)]
            firsts, seconds = zip(*pairs) if pairs else ((), ())
            admit = keep(i, j, pairs)
            kept = []
            for mapping in _morphisms(Bi, Bj):
                values = _ggt_values(firsts, seconds, mapping, Bj)
                if admit is None or admit(values):
                    kept.append((content(values), values, mapping))
            kept.sort(key=itemgetter(0))
            hom = by_row[(i, j)] = {}
            for cells, values, mapping in kept:
                entries = map("{}{}]".format, heads, map(_quote, cells))
                aid = f"ggt:{ids[i]}>{ids[j]}:{_ggt_digest(i, j, entries)}"
                if aid in arrows:
                    raise IntegrityError(f"arrow id {aid!r} names two different GGTs")
                arrows[aid] = GGT(Bi, Bj, dict(zip(pairs, values)))
                source[aid], target[aid] = ids[i], ids[j]
                images = map(mapping.__getitem__, points[i])
                hom[tuple(map(position[j].__getitem__, images))] = aid

    def missing(i: int, j: int, what: str) -> IntegrityError:
        return IntegrityError(f"{what} GGT missing from hom({ids[i]}, {ids[j]})")

    def find(i: int, j: int, row: tuple[int, ...], what: str) -> str:
        found = by_row[(i, j)].get(row)
        if found is None:
            raise missing(i, j, what)
        return found

    unit = {
        ids[i]: find(i, i, tuple(range(len(pts))), "unit")
        for i, pts in enumerate(points)
    }
    inverse = {}
    for (i, j), hom in by_row.items():
        for row, aid in hom.items():
            back = tuple(sorted(range(len(row)), key=row.__getitem__))
            inverse[aid] = find(j, i, back, "inverse")
    compose = {}
    for (j, k), hom2 in by_row.items():
        rows2 = list(hom2)
        for (i, j2), hom1 in by_row.items():
            if j2 != j:
                continue
            composites = by_row[(i, k)]
            columns = []
            for row1 in hom1:
                outer = map(itemgetter(*row1), rows2) if len(row1) > 1 else [row1] * len(rows2)
                columns.append(list(map(composites.get, outer)))
                if None in columns[-1]:
                    raise missing(i, k, "composite")
            # column a1 holds (a2, a1) for every a2; entries go in a2-major order
            cells = itertools.chain.from_iterable(zip(*columns))
            compose.update(zip(itertools.product(hom2.values(), hom1.values()), cells))

    groupoid = FiniteGroupoid(
        objects=frozenset(ids),
        arrows=frozenset(arrows),
        source=source,
        target=target,
        unit=unit,
        inverse=inverse,
        compose=compose,
    )
    return GaugeGroupoid(tuple(ids), tuple(bundles), arrows, groupoid)
