"""Two-sided bundles: groupoid morphisms in the bibundle picture.

An HSMorphism from a groupoid dom to a groupoid cod is a principal
cod-bundle over the objects of dom together with a left dom-action on
the total space along the projection, commuting with the right action
and leaving the momentum map untouched.  Ordinary groupoid morphisms
embed via hs_from_groupoid_morphism.

The gauge layer of the bundle restricts: bundle morphisms that are also
left equivariant, GGTs that are invariant under the diagonal left
action, and gauge transformations constant on left orbits.  The
morphism/GGT correspondence restricts along with them, and the
invariant GGTs form their own groupoid inside the bundle-level one.
That groupoid and the invariant gauge group are the bundle-level
constructions of gauge, with the arrows or elements filtered by left
invariance; no composition or lookup code lives here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bundles import (
    IntegrityError,
    PrincipalBundle,
    _fibred_pairs,
    _fibred_product,
    _product_bundle,
    _unit_pullback,
    validate_bundle,
    verify_division_properties,
)
from .core import (
    FiniteGroupoid,
    GroupoidMorphism,
    LeftAction,
    ValidationReport,
    _commute,
    _context_ok,
    _equivariance,
    _is_pair,
    _pair_of,
    _product,
    _product_table,
    validate_action,
)
from .gauge import (
    GGT,
    BundleMorphism,
    GaugeGroup,
    GaugeGroupoid,
    _assemble,
    _cells,
    _gauge_elements,
    _tabulate,
    morphism_to_ggt,
    ggt_to_morphism,
    validate_bundle_morphism,
    validate_ggt,
)

__all__ = [
    "HSMorphism",
    "validate_hs",
    "hs_from_groupoid_morphism",
    "hs_product",
    "hs_fibred_product",
    "verify_hs_division_properties",
    "HSBundleMorphism",
    "validate_hs_morphism",
    "validate_hs_ggt",
    "hs_morphism_to_ggt",
    "hs_ggt_to_morphism",
    "is_left_invariant_ggt",
    "hs_gauge_group",
    "build_hs_gauge_groupoid",
]


@dataclass(frozen=True)
class HSMorphism:
    """A bibundle from dom to cod.

    bundle is a principal cod-bundle whose base is dom's object set;
    left_act maps (g, p) to g.p and is defined exactly when
    source(g) == projection(p), with projection(g.p) == target(g).
    """

    dom: FiniteGroupoid
    cod: FiniteGroupoid
    bundle: PrincipalBundle
    left_act: dict[tuple[str, str], str]

    def left_action(self) -> LeftAction:
        return LeftAction(
            self.dom,
            self.bundle.total,
            self.bundle.projection,
            self.left_act,
        )


def validate_hs(h: HSMorphism) -> ValidationReport:
    """Check the bibundle conditions of h exhaustively.

    Merges the bundle validation, the left action validation (rules
    prefixed "left-"), momentum invariance under the left action and
    commutation of the two actions.
    """
    r = ValidationReport()
    if h.bundle.groupoid != h.cod:
        r.add("context.mismatch", note="bundle groupoid is not the codomain")
        return r
    if h.bundle.base != frozenset(h.dom.objects):
        r.add("context.mismatch", note="bundle base is not the domain objects")
        return r
    r.extend(validate_bundle(h.bundle))
    r.extend(validate_action(h.left_action()), prefix="left-")

    eps, moves = h.bundle.momentum.get, h.bundle.moves
    for g, p in sorted(filter(_is_pair, h.left_act)):
        gp = h.left_act[g, p]
        if gp not in h.bundle.total:
            continue
        if eps(gp) != eps(p):
            r.add("hs.momentum-invariant", g, p)
        # the move by g commutes with the right moves: (g.p).k == g.(p.k)
        row = moves.get(p, {})
        one = list(map(moves.get(gp, {}).get, row))
        other = [h.left_act.get((g, pk)) for pk in row.values()]
        for k in _commute(row, one, other):
            r.add("hs.commute", g, p, k)
    return r


def hs_from_groupoid_morphism(m: GroupoidMorphism) -> HSMorphism:
    """Realize a groupoid morphism as a bibundle.

    The bundle is the codomain's unit bundle pulled back along the
    object map: points are pairs (x, k) with x an object of the domain
    and k a codomain arrow whose target is the image of x, and the right
    action composes into k.  The left action pushes x and multiplies by
    the arrow image.
    """
    G, H = m.domain, m.codomain
    bundle, rows = _unit_pullback(H, m.object_map)
    out_of = G.by_source()
    left_act = {}
    for x in sorted(G.objects):
        for k, xk in rows[x].items():
            for g in out_of.get(x, ()):
                left_act[(g, xk)] = _pair_of(rows, G.target[g], H.mul(m.arrow_map[g], k))
    return HSMorphism(G, H, bundle, left_act)


def hs_product(h1: HSMorphism, h2: HSMorphism) -> HSMorphism:
    """Componentwise product bibundle between the product groupoids;
    each factor's bundle groupoid must be its codomain."""
    for side, h in (("first", h1), ("second", h2)):
        if h.bundle.groupoid != h.cod:
            raise ValueError(f"{side} factor's bundle groupoid is not its codomain")
    bundle, points = _product_bundle(h1.bundle, h2.bundle)
    dom, arrows, _ = _product(h1.dom, h2.dom)
    left_act = _product_table(h1.left_act, h2.left_act, arrows, points, points)
    return HSMorphism(dom, bundle.groupoid, bundle, left_act)


def hs_fibred_product(h1: HSMorphism, h2: HSMorphism) -> HSMorphism:
    """Same-fiber pairs with the diagonal left action; a bibundle from
    the shared domain to the product of the codomains."""
    if h1.dom != h2.dom:
        raise ValueError("fibred product needs a shared domain")
    bundle, rows = _fibred_product(h1.bundle, h2.bundle)
    movers = h1.dom.by_source()
    left_act = {}
    for p, p1, p2 in sorted((p, p1, p2) for p1, row in rows.items() for p2, p in row.items()):
        for g in movers.get(bundle.projection[p], ()):
            left_act[(g, p)] = _pair_of(rows, h1.left_act[(g, p1)], h2.left_act[(g, p2)])
    return HSMorphism(h1.dom, bundle.groupoid, bundle, left_act)


def verify_hs_division_properties(h: HSMorphism) -> ValidationReport:
    """Division map laws plus invariance under the diagonal left action:

    division.left-invariance  witness (g, p, q): d(g.p, g.q) != d(p, q)

    Pairs with no unique division are left to division.defined, not raised.
    """
    B = h.bundle
    r = verify_division_properties(B)
    for witness in _left_invariance_violations(h, h, _fibred_pairs(B, B), B.quotients):
        r.add("division.left-invariance", *witness)
    return r


@dataclass(frozen=True)
class HSBundleMorphism:
    """A bundle morphism between the bundles of two bibundles that also
    respects the left actions."""

    source: HSMorphism
    target: HSMorphism
    mapping: dict[str, str]

    def as_bundle_morphism(self) -> BundleMorphism:
        return BundleMorphism(self.source.bundle, self.target.bundle, self.mapping)


def validate_hs_morphism(f: HSBundleMorphism) -> ValidationReport:
    """Bundle morphism laws plus left equivariance (rule
    hs-morphism.left-equivariance, witness (g, p))."""
    r = ValidationReport()
    if not _context_ok(r, f.source, f.target, dom="domains", cod="codomains"):
        return r
    r.extend(validate_bundle_morphism(f.as_bundle_morphism()))
    for witness in _left_equivariance_violations(f):
        r.add("hs-morphism.left-equivariance", *witness)
    return r


def _left_equivariance_violations(f: HSBundleMorphism):
    """Each (g, p), sorted, with sigma(g.p) != g.sigma(p): the law of
    morphism.equivariance on the left action."""
    act = f.source.left_act
    moves = ((g, p, act[g, p]) for g, p in sorted(filter(_is_pair, act)))
    return _equivariance(f.mapping.get, moves, f.target.left_act.get)


def _left_invariance_violations(h1: HSMorphism, h2: HSMorphism, pairs, value: dict):
    """Each (g, p1, p2), pairs in the given order, with value(g.p1, g.p2)
    != value(p1, p2); pairs and moves outside the tables are skipped.
    Both the GGT and the division map laws run through here.  A pair has
    one or two left moves, too few for _commute's rows to pay."""
    movers = h1.dom.by_source()
    for p1, p2 in pairs:
        k = value.get((p1, p2))
        if k is None:
            continue
        for g in movers.get(h1.bundle.projection.get(p1), ()):
            q1 = h1.left_act.get((g, p1))
            q2 = h2.left_act.get((g, p2))
            if q1 is None or q2 is None:
                continue
            moved = value.get((q1, q2))
            if moved is not None and moved != k:
                yield g, p1, p2


def is_left_invariant_ggt(h1: HSMorphism, h2: HSMorphism, K: GGT) -> bool:
    """Whether K(g.p1, g.p2) == K(p1, p2) throughout."""
    violations = _left_invariance_violations(h1, h2, sorted(K.values), K.values)
    return next(violations, None) is None


def validate_hs_ggt(h1: HSMorphism, h2: HSMorphism, K: GGT) -> ValidationReport:
    """GGT laws plus invariance under the diagonal left action (rule
    ggt.left-invariance, witness (g, p1, p2))."""
    r = ValidationReport()
    if not _context_ok(r, h1, h2, dom="domains", cod="codomains"):
        return r
    r.extend(validate_ggt(K))
    for witness in _left_invariance_violations(h1, h2, sorted(K.values), K.values):
        r.add("ggt.left-invariance", *witness)
    return r


def hs_morphism_to_ggt(f: HSBundleMorphism) -> GGT:
    """morphism_to_ggt on the underlying bundles; the result must come
    out left invariant, which is re-checked."""
    K = morphism_to_ggt(f.as_bundle_morphism())
    if not is_left_invariant_ggt(f.source, f.target, K):
        raise IntegrityError("GGT of a left equivariant morphism is not invariant")
    return K


def hs_ggt_to_morphism(h1: HSMorphism, h2: HSMorphism, K: GGT) -> HSBundleMorphism:
    """ggt_to_morphism on the underlying bundles; left equivariance of
    the result is re-checked."""
    hsm = HSBundleMorphism(h1, h2, ggt_to_morphism(K).mapping)
    if next(_left_equivariance_violations(hsm), None) is not None:
        raise IntegrityError("morphism of an invariant GGT is not left equivariant")
    return hsm


def hs_gauge_group(h: HSMorphism) -> GaugeGroup:
    """Gauge transformations of the bundle that are constant on left
    orbits, as a subgroup of gauge_group(h.bundle).

    A gauge transformation is the diagonal G(p) = K(p, p) of an
    automorphism's GGT, so its value row over the sorted points is the
    GGT's row over the diagonal pairs (p, p), and is kept when
    _invariant_rows admits it there; the rows are filtered before any
    transformation is built."""
    B = h.bundle
    diagonal = [(p, p) for p in sorted(B.total)]
    return _tabulate(B, _gauge_elements(B, _invariant_rows(h, h, diagonal)))


def build_hs_gauge_groupoid(hs_list: list[HSMorphism]) -> GaugeGroupoid:
    """The gauge groupoid with arrows cut down to left invariant GGTs.

    The assembly of build_gauge_groupoid, keeping the GGTs that
    is_left_invariant_ggt admits, so its arrow set is contained in the
    bundle-level one for the same bundle list, one row comparison per GGT
    (_invariant_rows).  Closure is enforced by lookup: a non-invariant
    unit, inverse or composite raises IntegrityError.
    """
    if not hs_list:
        raise ValueError("need at least one bibundle")
    for h in hs_list[1:]:
        if h.dom != hs_list[0].dom or h.cod != hs_list[0].cod:
            raise ValueError("bibundles must share domain and codomain")
    return _assemble(
        [h.bundle for h in hs_list],
        lambda i, j, pairs: _invariant_rows(hs_list[i], hs_list[j], pairs),
    )


def _invariant_rows(h1: HSMorphism, h2: HSMorphism, pairs: list):
    """is_left_invariant_ggt as a test of value rows over pairs: with
    their positions as values, _left_invariance_violations yields every
    move from pair to pair, and a row is kept when each move keeps its
    value (every row, when no left move links two pairs)."""
    at = dict(zip(pairs, range(len(pairs))))
    moves = [
        (at[p1, p2], at[h1.left_act[g, p1], h2.left_act[g, p2]])
        for g, p1, p2 in _left_invariance_violations(h1, h2, pairs, at)
    ]
    back, there = _cells([a for a, _ in moves]), _cells([b for _, b in moves])
    return lambda row: there(row) == back(row)
