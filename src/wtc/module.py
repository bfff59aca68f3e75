"""Exact presentations of total Witt groups and the lax module structure.

The engine never computes Witt groups from geometry.  A presentation is
trusted input: graded pieces indexed by a degree mod 4 and a twist class,
one chosen representative bundle per class, action tables over the base
ring, automorphism data for 2-torsion square roots, and registered maps
(extension of support, restriction, connecting map, pullback, pushforward)
given as exact matrices.  Everything is validated against the stated
axioms at load time.

A class of a Witt group at an arbitrary twist L is represented by piece
coordinates at the representative together with a *transport*: an
alignment class from the representative to L.  Two representations denote
the same class iff the automorphism action of the transport discrepancy
matches the coordinates; that question is decidable because automorphism
alignments act through stored data (2-torsion tables and unit classes
routed through the base).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from .abelian import (
    FgAbGroup,
    GroupHom,
    mod2_reduction,
    solve_linear,
    two_torsion,
)
from . import f2
from .align import (
    AlignmentClass,
    KAlignmentClass,
    canonical_alignment,
    compose,
    invert,
)
from .errors import (
    DegreeMismatch,
    MissingAutAction,
    MissingMap,
    ScopeError,
    TypeMismatch,
    ValidationError,
)
from .schemes import LineBundle, structure_morphism


def _matrix_columns_apply(cols, el, target_piece):
    acc = [0] * target_piece.rank
    for c, col in zip(el.coords, cols):
        acc = [a + c * x for a, x in zip(acc, col)]
    return target_piece.element(acc)


# ---------------------------------------------------------------------------
# shared piece store


class PieceStore:
    """Common machinery of the base ring and of module presentations:
    graded pieces, representatives, class keys and automorphism actions."""

    def __init__(self, name, scheme, pieces, representatives):
        self.name = name
        self.scheme = scheme
        self.class_space, self._class_reduce = self._make_class_data()
        self.pieces = {}
        for (deg, key), grp in pieces.items():
            self.pieces[(deg % 4, tuple(key))] = grp
        self.representatives = {tuple(k): v for k, v in representatives.items()}
        self.scope = tuple(sorted(self.representatives))
        for key, rep in self.representatives.items():
            if self.class_of(rep) != key:
                raise ValidationError(
                    "representative_class",
                    f"{self.name}: representative of {key} lies in class "
                    f"{self.class_of(rep)}",
                    witness=(key, rep),
                )
        for (deg, key) in self.pieces:
            if key not in self.representatives:
                raise ValidationError(
                    "piece_scope",
                    f"{self.name}: piece ({deg},{key}) has no representative",
                    witness=key,
                )
        self._zero_group = FgAbGroup.trivial()

    def _make_class_data(self):
        raise NotImplementedError

    def class_of(self, el):
        return self._class_reduce(el)

    def in_scope(self, key):
        return tuple(key) in self.representatives

    def rep(self, key):
        try:
            return self.representatives[tuple(key)]
        except KeyError:
            raise ScopeError(
                f"{self.name}: class {key} outside the declared scope"
            ) from None

    def rep_bundle(self, key):
        return LineBundle(self.scheme, self.rep(key))

    def piece(self, deg, key):
        return self.pieces.get((deg % 4, tuple(key)), self._zero_group)

    def piece_keys(self):
        return sorted(self.pieces)

    # -- representation -----------------------------------------------------

    def canonical_transport(self, key, twist):
        """Alignment rep(key) ⇝ twist with the canonical square root, unit 1."""
        rep = self.rep(key)
        if self.class_of(twist) != tuple(key):
            raise ScopeError(
                f"{self.name}: twist lies in class {self.class_of(twist)}, not {key}"
            )
        align = canonical_alignment(
            LineBundle(self.scheme, rep), LineBundle(self.scheme, twist)
        )
        if align is None:
            raise ScopeError(
                f"{self.name}: twist is not a square away from the representative "
                f"of {key}; the class is not representable in this presentation"
            )
        return align

    def element(self, degree, key, coords, twist=None, transport=None):
        key = tuple(key)
        piece = self.piece(degree, key)
        el = coords if hasattr(coords, "coords") else piece.element(coords)
        if el.group is not piece:
            raise TypeMismatch("coordinates not in the requested piece")
        if twist is None:
            twist = self.rep(key)
        if transport is None:
            transport = self.canonical_transport(key, twist)
        return RepresentedClass(self, degree, key, el, twist, transport)

    def zero_element(self, degree, key, twist=None):
        piece = self.piece(degree, key)
        return self.element(degree, key, piece.zero(), twist)

    # -- automorphism action -------------------------------------------------

    def _aut_torsion_data(self):
        raise NotImplementedError

    def _unit_route(self, u):
        """Ring element implementing the unit action, or raise."""
        raise NotImplementedError

    def apply_automorphism(self, align, el):
        """Apply the automorphism alignment ``align`` (rep ⇝ rep) to piece
        coordinates ``el`` in a given (degree, key) piece."""
        degree, key, coords = el
        piece = self.piece(degree, key)
        if coords.group is not piece:
            raise TypeMismatch("coordinates outside the piece")
        t = align.m
        if not (2 * t).is_zero():
            raise TypeMismatch("not an automorphism alignment: m is not 2-torsion")
        out = coords
        tor, tor_incl, tables = self._aut_torsion_data()
        if not t.is_zero():
            sol = solve_linear(
                GroupHom(
                    tor,
                    self.scheme.pic,
                    [tor_incl.apply(g).coords for g in tor.generators()],
                    check=False,
                ),
                t,
            )
            if sol is None:
                raise TypeMismatch("2-torsion class not in the torsion subgroup")
            for i, c in enumerate(sol[0].coords):
                if c % 2 == 0:
                    continue
                table = tables.get(i)
                if table is None:
                    raise MissingAutAction(
                        f"{self.name}: no automorphism data for 2-torsion generator {i}"
                    )
                cols = table.get((degree % 4, key))
                if cols is None:
                    raise MissingAutAction(
                        f"{self.name}: 2-torsion automorphism has no block at "
                        f"({degree % 4},{key})"
                    )
                out = _matrix_columns_apply(cols, out, piece)
        if any(align.u):
            rho = self._unit_route(align.u)
            out = self._ring_multiply_on(rho, (degree, key, out))
        return out

    def _ring_multiply_on(self, rho, el):
        raise NotImplementedError


@dataclass(frozen=True)
class RepresentedClass:
    parent: PieceStore
    degree: int
    key: tuple
    coords: object  # GroupElement of the piece
    twist: object  # GroupElement of the scheme's Picard group
    transport: AlignmentClass  # rep(key) ⇝ twist

    def __post_init__(self):
        if self.transport.source.cls != self.parent.rep(self.key):
            raise TypeMismatch("transport does not start at the representative")
        if self.transport.target.cls != self.twist:
            raise TypeMismatch("transport does not end at the actual twist")

    def piece_group(self):
        return self.parent.piece(self.degree, self.key)

    def is_zero(self):
        return self.coords.is_zero()

    def __repr__(self):
        return (
            f"[{self.parent.name}: deg {self.degree}, class {self.key}, "
            f"{self.coords!r} @ twist {tuple(self.twist.coords)}]"
        )


def transport(w, b):
    """Move a represented class along an alignment of its actual twist."""
    if b.scheme is not w.parent.scheme:
        raise TypeMismatch("alignment on the wrong scheme")
    if b.source.cls != w.twist:
        raise TypeMismatch("alignment does not start at the class's twist")
    return RepresentedClass(
        w.parent, w.degree, w.key, w.coords, b.target.cls, compose(b, w.transport)
    )


def compare_classes(w1, w2):
    """Decide equality of two represented classes with the same indices."""
    if w1.parent is not w2.parent:
        raise TypeMismatch("classes in different presentations")
    if w1.key != w2.key or (w1.degree - w2.degree) % 4 != 0:
        raise TypeMismatch("piece indices differ")
    if w1.twist != w2.twist:
        raise TypeMismatch("twists differ; transport before comparing")
    disc = compose(invert(w2.transport), w1.transport)
    moved = w1.parent.apply_automorphism(disc, (w1.degree, w1.key, w1.coords))
    return moved == w2.coords


def to_canonical(w):
    """Rewrite a represented class over the canonical transport."""
    s = w.parent.canonical_transport(w.key, w.twist)
    disc = compose(invert(s), w.transport)
    coords = w.parent.apply_automorphism(disc, (w.degree, w.key, w.coords))
    return RepresentedClass(w.parent, w.degree, w.key, coords, w.twist, s)


# ---------------------------------------------------------------------------
# the base ring


class BaseWittRing(PieceStore):
    """Graded pieces of the total Witt ring of the base, with product
    tables, the unit, unit classes of units modulo squares, and optional
    2-torsion automorphism data."""

    def __init__(
        self,
        name,
        scheme,
        pieces,
        representatives,
        unit_coords,
        products=None,
        unit_class=None,
        aut_torsion=None,
    ):
        super().__init__(name, scheme, pieces, representatives)
        zero_key = self.class_of(scheme.pic.zero())
        if zero_key not in self.representatives:
            raise ValidationError(
                "ring_unit_piece", f"{name}: no representative for the trivial class"
            )
        if not self.rep(zero_key).is_zero():
            raise ValidationError(
                "ring_unit_piece",
                f"{name}: the trivial class must be represented by the trivial bundle",
            )
        self.zero_key = zero_key
        self.unit = self.piece(0, zero_key).element(unit_coords)
        # products[((d1,k1),(d2,k2))] = (table, transport (m,u) on the base)
        self.products = {}
        for key, value in (products or {}).items():
            (d1, k1), (d2, k2) = key
            table, tr = value
            self.products[((d1 % 4, tuple(k1)), (d2 % 4, tuple(k2)))] = (
                table,
                self._product_transport(tuple(k1), tuple(k2), tr),
            )
        self.unit_class_map = {}
        for label, coords in (unit_class or {}).items():
            if label not in scheme.units.labels:
                raise ValidationError(
                    "unit_class", f"{name}: unknown unit label {label!r}"
                )
            self.unit_class_map[label] = self.piece(0, zero_key).element(coords)
        self.aut_tables = dict(aut_torsion or {})
        self._validate_ring()

    def _make_class_data(self):
        space, red = mod2_reduction(self.scheme.pic)
        return space, red

    def _product_transport(self, k1, k2, tr):
        src = LineBundle(self.scheme, self.rep(k1) + self.rep(k2))
        tgt = LineBundle(self.scheme, self.rep(self.class_of(src.cls)))
        if tr is None:
            # classes agree modulo 2 Pic, so the canonical square root exists
            return canonical_alignment(src, tgt)
        return AlignmentClass(src, tgt, self.scheme.pic.element(tr[0]), tr[1])

    # -- products -------------------------------------------------------------

    def product_table(self, d1, k1, d2, k2):
        entry = self.products.get(((d1 % 4, tuple(k1)), (d2 % 4, tuple(k2))))
        if entry is None:
            p1 = self.piece(d1, k1)
            p2 = self.piece(d2, k2)
            if p1.is_trivial() or p2.is_trivial():
                return None
            raise ValidationError(
                "product_table",
                f"{self.name}: missing product table for "
                f"(({d1},{k1}),({d2},{k2}))",
            )
        return entry

    def multiply_coords(self, d1, k1, x, d2, k2, y):
        """Coordinates of the product of piece coordinates; implicit zero."""
        k1, k2 = tuple(k1), tuple(k2)
        k12 = self.class_of(self.rep(k1) + self.rep(k2))
        target = self.piece(d1 + d2, k12)
        entry = self.product_table(d1, k1, d2, k2)
        if entry is None or target.is_trivial():
            return target.zero(), k12
        table, _tr = entry
        acc = [0] * target.rank
        for a, xa in enumerate(x.coords):
            if xa == 0:
                continue
            for b, yb in enumerate(y.coords):
                if yb == 0:
                    continue
                acc = [s + xa * yb * t for s, t in zip(acc, table[a][b])]
        return target.element(acc), k12

    def multiply(self, e1, e2):
        """Product of two ring classes as represented classes."""
        if e1.parent is not self or e2.parent is not self:
            raise TypeMismatch("ring multiply needs two classes of this ring")
        coords, k12 = self.multiply_coords(
            e1.degree, e1.key, e1.coords, e2.degree, e2.key, e2.coords
        )
        entry = self.product_table(e1.degree, e1.key, e2.degree, e2.key)
        tr = (
            entry[1]
            if entry is not None
            else self._product_transport(e1.key, e2.key, None)
        )
        # transports of the factors tensor onto the product transport
        twist = e1.twist + e2.twist
        m = e1.transport.m + e2.transport.m - tr.m
        u = f2.add(f2.add(e1.transport.u, e2.transport.u), tr.u)
        rep12 = self.rep(k12)
        tp = AlignmentClass(
            LineBundle(self.scheme, rep12),
            LineBundle(self.scheme, twist),
            m,
            u,
        )
        return RepresentedClass(
            self, e1.degree + e2.degree, k12, coords, twist, tp
        )

    def one(self):
        return self.element(0, self.zero_key, self.unit)

    def unit_class(self, u):
        """The invertible degree-0 class attached to a unit mod squares."""
        out = self.unit
        for label, bit in zip(self.scheme.units.labels, u):
            if bit % 2 == 0:
                continue
            if label not in self.unit_class_map:
                raise MissingAutAction(
                    f"{self.name}: no unit class for generator {label!r}"
                )
            out, _ = self.multiply_coords(
                0, self.zero_key, out, 0, self.zero_key, self.unit_class_map[label]
            )
        return out

    def _aut_torsion_data(self):
        tor, incl = two_torsion(self.scheme.pic)
        return tor, incl, self.aut_tables

    def _unit_route(self, u):
        # on the base the unit route is direct multiplication
        return self.unit_class(u)

    def _ring_multiply_on(self, rho, el):
        degree, key, coords = el
        out, k12 = self.multiply_coords(0, self.zero_key, rho, degree, key, coords)
        if k12 != tuple(key):
            raise TypeMismatch("unit multiplication changed the class")
        return out

    # -- validation -------------------------------------------------------------

    def _validate_ring(self):
        nonzero = [pk for pk in self.pieces if not self.pieces[pk].is_trivial()]
        # unit element is a two-sided identity on every stored piece
        for (d, k) in nonzero:
            grp = self.piece(d, k)
            for g in grp.generators():
                left, _ = self.multiply_coords(0, self.zero_key, self.unit, d, k, g)
                if left != g:
                    raise ValidationError(
                        "ring_unit",
                        f"{self.name}: unit does not act as identity on ({d},{k})",
                        witness=g,
                    )
        # graded commutativity with the sign (-1)^(d1 d2)
        for (d1, k1), (d2, k2) in itertools.product(nonzero, repeat=2):
            if self.products.get(((d1, k1), (d2, k2))) is None:
                continue
            g1s = self.piece(d1, k1).generators()
            g2s = self.piece(d2, k2).generators()
            sign = -1 if (d1 * d2) % 2 else 1
            for a, b in itertools.product(g1s, g2s):
                ab, _ = self.multiply_coords(d1, k1, a, d2, k2, b)
                ba, _ = self.multiply_coords(d2, k2, b, d1, k1, a)
                if ab != sign * ba:
                    raise ValidationError(
                        "ring_commutativity",
                        f"{self.name}: product not graded-commutative at "
                        f"({d1},{k1})x({d2},{k2})",
                        witness=(a, b),
                    )
        # associativity on stored triples
        for (d1, k1), (d2, k2), (d3, k3) in itertools.product(nonzero, repeat=3):
            for a in self.piece(d1, k1).generators():
                for b in self.piece(d2, k2).generators():
                    ab, k12 = self.multiply_coords(d1, k1, a, d2, k2, b)
                    for c in self.piece(d3, k3).generators():
                        bc, k23 = self.multiply_coords(d2, k2, b, d3, k3, c)
                        lhs, _ = self.multiply_coords(
                            d1 + d2, k12, ab, d3, k3, c
                        )
                        rhs, _ = self.multiply_coords(
                            d1, k1, a, d2 + d3, k23, bc
                        )
                        if lhs != rhs:
                            raise ValidationError(
                                "ring_associativity",
                                f"{self.name}: associativity fails on generators of "
                                f"({d1},{k1})x({d2},{k2})x({d3},{k3})",
                                witness=(a, b, c),
                            )
        # unit classes square to the unit
        for label, rho in self.unit_class_map.items():
            sq, _ = self.multiply_coords(
                0, self.zero_key, rho, 0, self.zero_key, rho
            )
            if sq != self.unit:
                raise ValidationError(
                    "unit_class_square",
                    f"{self.name}: unit class of {label!r} does not square to 1",
                    witness=rho,
                )


# ---------------------------------------------------------------------------
# module presentations


@dataclass
class ActionTable:
    table: list  # table[a][b] = coords in the target piece
    align: AlignmentClass  # pi^* rep(kappa) ⊗ rep(p) ⇝ rep(p)


@dataclass
class RegisteredMap:
    """An exact graded homomorphism between presentations.

    ``blocks[index_class]`` is a pair ``(transport, matrices)``:
    the per-class alignment fixing how the geometric map meets the chosen
    representatives, and matrices (lists of columns) per source degree.
    How blocks are indexed and what their transports join is the geometry
    of the map's kind, given by ``MAP_KINDS``.
    """

    name: str
    kind: str  # a key of MAP_KINDS
    source: "WittModulePresentation"
    target: "WittModulePresentation"
    morphism: object = None
    triple: object = None
    blocks: dict = field(default_factory=dict)

    @property
    def geometry(self):
        geo = MAP_KINDS.get(self.kind)
        if geo is None:
            raise ValidationError(
                "map_kind", f"{self.name}: unknown kind {self.kind!r}"
            )
        return geo

    def degree_shift(self):
        return self.geometry.shift(self)


# ---------------------------------------------------------------------------
# the geometry of registered-map kinds


@dataclass(frozen=True)
class MapKind:
    """The geometry of one kind of registered map.

    A map joins a *downstairs* presentation, whose classes index the blocks,
    and an *upstairs* one, reached by lifting classes and alignments along
    ``lift`` (a morphism upstairs -> downstairs, or the identity when it
    gives None), twisted by the relative canonical class when ``omega`` is
    set.  Pull-like kinds map downstairs to upstairs and are indexed by
    source class.  Push-like kinds (``by_target``) map upstairs to
    downstairs; they are families parametrized by the downstairs twist and
    are indexed by target class.  Either way the block transport lives on
    the upstairs scheme and runs from the (lifted) source representative to
    the (lifted) target representative.
    """

    by_target: bool
    lift: object  # rmap -> morphism upstairs -> downstairs, or None
    shift: object  # rmap -> degree shift from source to target
    support_ok: object  # rmap -> whether the support labels fit
    linear: bool  # linearity over the base action is checked at load
    endpoints_msg: str
    support_msg: str  # formatted with the source and target presentations
    representatives_msg: str  # formatted with the map's name, kind and key
    omega: bool = False
    morphism_from_triple: bool = False  # no morphism given: the open immersion

    def sides(self, rmap):
        """The (downstairs, upstairs) presentations of ``rmap``."""
        if self.by_target:
            return rmap.target, rmap.source
        return rmap.source, rmap.target

    def endpoints_ok(self, rmap):
        down, up = self.sides(rmap)
        g = self.lift(rmap)
        if g is None:
            return up.scheme is down.scheme
        return g.source is up.scheme and g.target is down.scheme

    def lift_class(self, rmap, x):
        g = self.lift(rmap)
        if g is None:
            return x
        y = g.pic_pullback.apply(x)
        return g.omega + y if self.omega else y

    def lift_alignment(self, rmap, a):
        g = self.lift(rmap)
        if g is None:
            return a
        # one construction; shriek_alignment would build and check it twice
        return AlignmentClass(
            g.source.bundle(self.lift_class(rmap, a.source.cls)),
            g.source.bundle(self.lift_class(rmap, a.target.cls)),
            g.pic_pullback.apply(a.m),
            g.unit_pullback.apply(a.u),
        )


def _push_support_ok(rmap):
    rmap.morphism.require_proper()
    return rmap.target.support == rmap.morphism.push_support(rmap.source.support)


_PULL = MapKind(
    by_target=False,
    lift=lambda r: r.morphism,
    shift=lambda r: 0,
    support_ok=lambda r: r.target.support == r.morphism.pull_support(r.source.support),
    linear=False,
    endpoints_msg="morphism endpoints do not match",
    support_msg="support labels do not match",
    representatives_msg="{name}: pulled representative of {key} is not a square "
    "away from the target representative",
)

MAP_KINDS = {
    "pull": _PULL,
    "restrict": replace(_PULL, linear=True, morphism_from_triple=True),
    "ext": MapKind(
        by_target=False,
        lift=lambda r: None,
        shift=lambda r: 0,
        support_ok=lambda r: r.source.scheme.has_inclusion(
            r.source.support, r.target.support
        ),
        linear=True,
        endpoints_msg="extension must stay on one scheme",
        support_msg="no declared inclusion {src.support!r} <= {tgt.support!r}",
        representatives_msg="{name}: source and target representatives of {key} "
        "differ by a non-square",
    ),
    "push": MapKind(
        by_target=True,
        lift=lambda r: r.morphism,
        shift=lambda r: -r.morphism.dim,
        support_ok=_push_support_ok,
        linear=False,
        endpoints_msg="morphism endpoints do not match",
        support_msg="support labels do not match",
        representatives_msg="{kind} block for {key}: representatives are not "
        "compatible",
        omega=True,
    ),
    "bord": MapKind(
        by_target=True,
        lift=lambda r: r.triple.upsilon,
        shift=lambda r: 1,
        support_ok=lambda r: r.target.support == r.triple.closed_label,
        linear=True,
        endpoints_msg="connecting map endpoints do not match",
        support_msg="connecting map must land in the closed support",
        representatives_msg="{kind} block for {key}: representatives are not "
        "compatible",
    ),
}


def block_geometry(rmap, key):
    """The block of ``rmap`` at class ``key`` as ``(source class, target
    class, scheme, start, end)``: it maps pieces of the source class to
    pieces of the target class, and its transport is an alignment
    ``start ⇝ end`` on ``scheme``."""
    geo = rmap.geometry
    down, up = geo.sides(rmap)
    lifted = geo.lift_class(rmap, down.rep(key))
    up_key = up.class_of(lifted)
    if geo.by_target:
        return up_key, key, up.scheme, up.rep(up_key), lifted
    return key, up_key, up.scheme, lifted, up.rep(up_key)


def block_pieces(rmap, key, k_src):
    """Source and target piece groups of the block at ``key`` in source
    degree ``k_src``."""
    src_key, tgt_key, _, _, _ = block_geometry(rmap, key)
    return (
        rmap.source.piece(k_src, src_key),
        rmap.target.piece(k_src + rmap.degree_shift(), tgt_key),
    )


def default_block_transport(rmap, key):
    """The canonical transport of the block at ``key``, for blocks whose
    data gives none."""
    _, _, scheme, start, end = block_geometry(rmap, key)
    align = canonical_alignment(scheme.bundle(start), scheme.bundle(end))
    if align is None:
        raise ValidationError(
            "map_representatives",
            rmap.geometry.representatives_msg.format(
                name=rmap.name, kind=rmap.kind, key=key
            ),
        )
    return align


class WittModulePresentation(PieceStore):
    """Witt groups of a scheme with one support label, as a graded module
    over the base ring."""

    def __init__(
        self,
        name,
        scheme,
        base_ring,
        support,
        pieces,
        representatives,
        action=None,
        aut_torsion=None,
        validate=True,
    ):
        self.base_ring = base_ring
        self.structure = structure_morphism(scheme)
        if self.structure.target is not base_ring.scheme:
            raise ValidationError(
                "presentation_base",
                f"{name}: structure morphism does not land on the ring's base",
            )
        if support not in scheme.supports:
            raise ValidationError(
                "presentation_support",
                f"{name}: {support!r} is not a declared support of {scheme.name}",
            )
        self.support = support
        super().__init__(name, scheme, pieces, representatives)
        self.action = {}
        for key, value in (action or {}).items():
            (i, kappa), (k, p) = key
            table, tr = value
            self.action[
                ((i % 4, tuple(kappa)), (k % 4, tuple(p)))
            ] = self._make_action(i % 4, tuple(kappa), tuple(p), table, tr)
        self.aut_tables = dict(aut_torsion or {})
        self.maps = {}
        if validate:
            self._validate_module()

    def _make_class_data(self):
        from .abelian import cokernel_of

        pi = structure_morphism(self.scheme)
        cok, proj = cokernel_of(pi.pic_pullback)
        space, red = mod2_reduction(cok)

        def class_reduce(el):
            return red(proj.apply(el))

        return space, class_reduce

    def _make_action(self, i, kappa, p, table, tr):
        pulled = self.structure.pic_pullback.apply(self.base_ring.rep(kappa))
        src = LineBundle(self.scheme, pulled + self.rep(p))
        tgt = LineBundle(self.scheme, self.rep(p))
        if tr is not None:
            align = AlignmentClass(src, tgt, self.scheme.pic.element(tr[0]), tr[1])
        else:
            align = canonical_alignment(src, tgt)
            if align is None:
                raise ValidationError(
                    "action_alignment",
                    f"{self.name}: coefficient class {kappa} is not representable "
                    f"against class {p}: the pulled representative is not a square "
                    f"away from the target representative",
                )
        return ActionTable(table, align)

    # -- the action -------------------------------------------------------------

    def action_entry(self, i, kappa, k, p):
        return self.action.get(((i % 4, tuple(kappa)), (k % 4, tuple(p))))

    def act_coords(self, i, kappa, lam_coords, k, p, g_coords):
        """Raw table action on representative coordinates; implicit zero."""
        target = self.piece(i + k, p)
        entry = self.action_entry(i, kappa, k, p)
        if entry is None:
            ring_piece = self.base_ring.piece(i, kappa)
            mod_piece = self.piece(k, p)
            if ring_piece.is_trivial() or mod_piece.is_trivial() or target.is_trivial():
                return target.zero()
            raise ValidationError(
                "action_table",
                f"{self.name}: missing action table (({i},{kappa}), ({k},{p}))",
            )
        acc = [0] * target.rank
        for a, xa in enumerate(lam_coords.coords):
            if xa == 0:
                continue
            for b, yb in enumerate(g_coords.coords):
                if yb == 0:
                    continue
                acc = [s + xa * yb * t for s, t in zip(acc, entry.table[a][b])]
        return target.element(acc)

    def _aut_torsion_data(self):
        tor, incl = two_torsion(self.scheme.pic)
        return tor, incl, self.aut_tables

    def _unit_route(self, u):
        pi = self.structure
        x = pi.unit_pullback.solve(u)
        if x is None:
            raise MissingAutAction(
                f"{self.name}: unit class not pulled back from the base; direct "
                f"unit actions are rejected"
            )
        return self.base_ring.unit_class(x)

    def _ring_multiply_on(self, rho, el):
        degree, key, coords = el
        return self.act_coords(
            0, self.base_ring.zero_key, rho, degree, key, coords
        )

    # -- registered maps ----------------------------------------------------------

    def register_map(self, rmap):
        self.maps[rmap.name] = rmap

    def find_map(self, kind, morphism=None, triple=None, target_support=None):
        for rmap in self.maps.values():
            if rmap.kind != kind:
                continue
            if morphism is not None and rmap.morphism is not morphism:
                continue
            if triple is not None and rmap.triple is not triple:
                continue
            if (
                target_support is not None
                and rmap.target.support != target_support
            ):
                continue
            return rmap
        raise MissingMap(
            f"{self.name}: no registered {kind} map"
            + (f" along {morphism.name}" if morphism is not None else "")
        )

    # -- validation ----------------------------------------------------------------

    def _validate_module(self):
        ring = self.base_ring
        zero_kappa = ring.zero_key
        nonzero = [pk for pk in self.pieces if not self.pieces[pk].is_trivial()]
        # 2-torsion automorphism data must exist for every torsion generator
        tor, _ = two_torsion(self.scheme.pic)
        if nonzero:
            for i in range(tor.rank):
                if i not in self.aut_tables:
                    raise ValidationError(
                        "aut_action_required",
                        f"{self.name}: 2-torsion square root {i} has no automorphism "
                        f"data; there is no default",
                    )
        # automorphism blocks are commuting involutive automorphisms
        for i, table in self.aut_tables.items():
            for (d, k), cols in table.items():
                piece = self.piece(d, k)
                hom = GroupHom(piece, piece, cols)
                for g in piece.generators():
                    if hom.apply(hom.apply(g)) != g:
                        raise ValidationError(
                            "aut_involution",
                            f"{self.name}: torsion automorphism {i} does not square "
                            f"to the identity on ({d},{k})",
                            witness=g,
                        )
        for i, j in itertools.combinations(sorted(self.aut_tables), 2):
            for pk in self.aut_tables[i]:
                if pk not in self.aut_tables[j]:
                    continue
                piece = self.piece(*pk)
                hi = GroupHom(piece, piece, self.aut_tables[i][pk])
                hj = GroupHom(piece, piece, self.aut_tables[j][pk])
                for g in piece.generators():
                    if hi.apply(hj.apply(g)) != hj.apply(hi.apply(g)):
                        raise ValidationError(
                            "aut_commutation",
                            f"{self.name}: torsion automorphisms {i},{j} do not "
                            f"commute on {pk}",
                            witness=g,
                        )
        # unit action of the ring unit is the identity; trivial-coefficient
        # alignments must be identities
        for (k, p) in nonzero:
            entry = self.action_entry(0, zero_kappa, k, p)
            if entry is None:
                raise ValidationError(
                    "action_table",
                    f"{self.name}: no unit action table for piece ({k},{p})",
                )
            if not entry.align.is_identity():
                raise ValidationError(
                    "action_alignment",
                    f"{self.name}: unit-coefficient alignment for class {p} must "
                    f"be the identity",
                )
            piece = self.piece(k, p)
            for g in piece.generators():
                if self.act_coords(0, zero_kappa, ring.unit, k, p, g) != g:
                    raise ValidationError(
                        "action_unit",
                        f"{self.name}: ring unit does not act as identity on "
                        f"({k},{p})",
                        witness=g,
                    )
        # associativity of the action on stored generators
        ring_nonzero = [
            pk for pk in ring.pieces if not ring.pieces[pk].is_trivial()
        ]
        for (d1, k1), (d2, k2) in itertools.product(ring_nonzero, repeat=2):
            for (k, p) in nonzero:
                for a in ring.piece(d1, k1).generators():
                    for b in ring.piece(d2, k2).generators():
                        ab, k12 = ring.multiply_coords(d1, k1, a, d2, k2, b)
                        for g in self.piece(k, p).generators():
                            bg = self.act_coords(d2, k2, b, k, p, g)
                            lhs = self.act_coords(
                                d1, k1, a, d2 + k, p, bg
                            )
                            rhs = self.act_coords(d1 + d2, k12, ab, k, p, g)
                            if lhs != rhs:
                                raise ValidationError(
                                    "action_associativity",
                                    f"{self.name}: action associativity fails at "
                                    f"(({d1},{k1}),({d2},{k2}),({k},{p}))",
                                    witness=(a, b, g),
                                )
        # units killed by the pullback must act trivially
        pi = self.structure
        for idx in range(ring.scheme.units.dim):
            x = tuple(1 if t == idx else 0 for t in range(ring.scheme.units.dim))
            if any(pi.unit_pullback.apply(x)):
                continue
            rho = ring.unit_class(x)
            for (k, p) in nonzero:
                for g in self.piece(k, p).generators():
                    if self.act_coords(0, zero_kappa, rho, k, p, g) != g:
                        raise ValidationError(
                            "unit_kernel_action",
                            f"{self.name}: unit {idx} dies under pullback but its "
                            f"class acts nontrivially on ({k},{p})",
                            witness=g,
                        )


# ---------------------------------------------------------------------------
# the lax product


def lax_product(lam, ka: KAlignmentClass, w):
    """The product of a base class and a module class realigned under ``ka``.

    ``lam`` is a represented class of the base ring at the coefficient
    bundle of ``ka``; ``ka.inner`` runs from the pulled coefficient tensor
    the twist of ``w`` to the resulting twist.
    """
    pres = w.parent
    ring = pres.base_ring
    if lam.parent is not ring:
        raise TypeMismatch("coefficient is not a class of the base ring")
    if ka.scheme is not pres.scheme:
        raise TypeMismatch("relative alignment on the wrong scheme")
    if lam.twist != ka.k.cls:
        raise TypeMismatch(
            "coefficient class twist does not match the alignment's bundle"
        )
    pi = pres.structure
    expected_src = pi.pic_pullback.apply(ka.k.cls) + w.twist
    if ka.inner.source.cls != expected_src:
        raise TypeMismatch(
            "relative alignment does not start at pulled-K ⊗ twist",
            witness=(ka.inner.source.cls, expected_src),
        )
    target_twist = ka.inner.target.cls
    p_out = pres.class_of(target_twist)
    if not pres.in_scope(p_out):
        raise ScopeError(
            f"{pres.name}: lax product lands in class {p_out} outside the scope"
        )
    if p_out != w.key:
        raise ScopeError(
            f"{pres.name}: lax product changed the twist class, data corrupt"
        )
    entry = pres.action_entry(lam.degree, lam.key, w.degree, w.key)
    coords = pres.act_coords(
        lam.degree, lam.key, lam.coords, w.degree, w.key, w.coords
    )
    if entry is not None:
        a0 = entry.align
    else:
        # zero pieces: any valid alignment will do for the (zero) result
        pulled = pi.pic_pullback.apply(ring.rep(lam.key))
        a0 = canonical_alignment(
            LineBundle(pres.scheme, pulled + pres.rep(w.key)),
            LineBundle(pres.scheme, pres.rep(w.key)),
        )
        if a0 is None:
            raise ScopeError(
                f"{pres.name}: coefficient class {lam.key} not representable "
                f"against {w.key}"
            )
    # composite transport: ka.inner ∘ (pi^* lam.transport ⊗ w.transport) ∘ a0^{-1}
    m_e = (
        ka.inner.m
        + pi.pic_pullback.apply(lam.transport.m)
        + w.transport.m
    )
    u_e = f2.add(
        ka.inner.u,
        f2.add(pi.unit_pullback.apply(lam.transport.u), w.transport.u),
    )
    tp = AlignmentClass(
        LineBundle(pres.scheme, pres.rep(w.key)),
        LineBundle(pres.scheme, target_twist),
        m_e - a0.m,
        f2.add(u_e, a0.u),
    )
    return RepresentedClass(
        pres, lam.degree + w.degree, w.key, coords, target_twist, tp
    )


def lax_combination(terms, degree, twist):
    """Sum of lax products landing in a common degree and twist."""
    if not terms:
        raise TypeMismatch("empty combination has no presentation to live in")
    pres = terms[0][2].parent
    key = pres.class_of(twist)
    if not pres.in_scope(key):
        raise ScopeError(f"{pres.name}: combination target outside the scope")
    s = pres.canonical_transport(key, twist)
    piece = pres.piece(degree, key)
    acc = piece.zero()
    for lam, ka, w in terms:
        if lam.degree + w.degree != degree:
            raise DegreeMismatch(
                f"term lands in degree {lam.degree + w.degree}, expected {degree}"
            )
        r = lax_product(lam, ka, w)
        if r.twist != twist:
            raise TypeMismatch("term does not land at the common twist")
        disc = compose(invert(s), r.transport)
        acc = acc + pres.apply_automorphism(disc, (degree, key, r.coords))
    return RepresentedClass(pres, degree, key, acc, twist, s)


# ---------------------------------------------------------------------------
# registered map application and expression evaluation


def _block_for(rmap, index, w, out_piece):
    """The block at ``index``; it may be absent only next to a zero piece."""
    block = rmap.blocks.get(index)
    if block is None and not (
        w.piece_group().is_trivial() or out_piece.is_trivial()
    ):
        raise MissingMap(f"{rmap.name}: no block for class {index}")
    return block


def _block_apply(block, degree, coords, out_piece):
    cols = block[1].get(degree % 4) if block is not None else None
    if cols is None:
        return out_piece.zero()
    return _matrix_columns_apply(cols, coords, out_piece)


def apply_registered(rmap, w, target_twist=None):
    """Apply a registered map to a represented class of its source.

    Push-like kinds are families parametrized by the downstairs twist, which
    must be supplied; pull-like kinds derive the twist and ignore it.
    """
    src, tgt = rmap.source, rmap.target
    if w.parent is not src:
        raise TypeMismatch(f"{rmap.name}: class not in the source presentation")
    geo = rmap.geometry
    deg_out = w.degree + geo.shift(rmap)

    if not geo.by_target:
        p_out = tgt.class_of(geo.lift_class(rmap, src.rep(w.key)))
        out_piece = tgt.piece(deg_out, p_out)
        block = _block_for(rmap, w.key, w, out_piece)
        if block is not None:
            tr_align = block[0]
        else:
            tr_align = default_block_transport(rmap, w.key)
        lifted = geo.lift_alignment(rmap, w.transport)  # ends at the new twist
        tp = compose(lifted, invert(tr_align))
        coords = _block_apply(block, w.degree, w.coords, out_piece)
        return RepresentedClass(tgt, deg_out, p_out, coords, lifted.target.cls, tp)

    if target_twist is None:
        raise TypeMismatch(f"{rmap.name}: {rmap.kind} needs the downstairs twist")
    p_out = tgt.class_of(target_twist)
    if not tgt.in_scope(p_out):
        raise ScopeError(f"{rmap.name}: target class {p_out} outside the scope")
    expected = geo.lift_class(rmap, target_twist)
    if w.twist != expected:
        raise TypeMismatch(
            f"{rmap.name}: class twist does not match the downstairs twist",
            witness=(w.twist, expected),
        )
    s = tgt.canonical_transport(p_out, target_twist)
    out_piece = tgt.piece(deg_out, p_out)
    block = _block_for(rmap, p_out, w, out_piece)
    coords = w.coords
    if block is not None:
        # realign the class onto the block transport before the matrices act
        lifted = geo.lift_alignment(rmap, s)
        disc = compose(invert(compose(lifted, block[0])), w.transport)
        coords = src.apply_automorphism(disc, (w.degree, w.key, coords))
    coords = _block_apply(block, w.degree, coords, out_piece)
    return RepresentedClass(tgt, deg_out, p_out, coords, target_twist, s)


def eval_expr(expr, w):
    """Evaluate a typed word on a represented class.

    The class must sit at the expression's domain: same scheme, support,
    degree and twist.  Scalars act through transports; pulls, pushes,
    extensions, restrictions and connecting maps act through registered
    matrices.  Evaluating a word and its normal form gives classes equal
    under compare_classes.
    """
    from .expr import Bord, Ext, Pull, Push, Restrict, Scalar

    pres = w.parent
    dom = expr.domain
    if (
        dom.scheme is not pres.scheme
        or dom.support != pres.support
        or dom.degree != w.degree
        or dom.twist != w.twist
    ):
        raise TypeMismatch("class does not sit at the expression's domain")
    current = w
    for gen in expr.word:
        pres = current.parent
        if isinstance(gen, Scalar):
            src_bundle = LineBundle(pres.scheme, current.twist)
            tgt_bundle = LineBundle(pres.scheme, current.twist + 2 * gen.m)
            current = transport(
                current, AlignmentClass(src_bundle, tgt_bundle, gen.m, gen.u)
            )
        elif isinstance(gen, (Pull, Restrict)):
            kind = "pull" if isinstance(gen, Pull) else "restrict"
            rmap = pres.find_map(kind, morphism=gen.morphism)
            current = apply_registered(rmap, current)
        elif isinstance(gen, Push):
            rmap = pres.find_map("push", morphism=gen.morphism)
            current = apply_registered(rmap, current, target_twist=gen.target_twist)
        elif isinstance(gen, Ext):
            rmap = pres.find_map("ext", target_support=gen.large)
            current = apply_registered(rmap, current)
        elif isinstance(gen, Bord):
            rmap = pres.find_map("bord", triple=gen.triple)
            current = apply_registered(rmap, current, target_twist=gen.target_twist)
        else:
            raise TypeMismatch(f"unknown generator {gen!r}")
    return current


# ---------------------------------------------------------------------------
# registered-map validation (linearity per the stated compatibilities)


def validate_registered_map(rmap):
    """Structural and linearity checks for a registered map.

    Extension of support, restriction and the connecting map must be
    linear over the base action; that is checked on all generators of all
    nonzero blocks.  Pushforward linearity is the projection-formula
    statement and is exercised by the coefficient-square tests instead.
    """
    geo = rmap.geometry
    if not geo.endpoints_ok(rmap):
        raise ValidationError("map_endpoints", f"{rmap.name}: {geo.endpoints_msg}")
    if not geo.support_ok(rmap):
        detail = geo.support_msg.format(src=rmap.source, tgt=rmap.target)
        raise ValidationError("map_support", f"{rmap.name}: {detail}")

    # block transports connect the right endpoints
    for key, (tr_align, _matrices) in rmap.blocks.items():
        _, _, _, start, end = block_geometry(rmap, key)
        if tr_align.source.cls != start or tr_align.target.cls != end:
            raise ValidationError(
                "map_transport",
                f"{rmap.name}: block transport for {key} has wrong endpoints",
            )

    if geo.linear:
        _check_action_linear(rmap)


def _check_action_linear(rmap):
    from .align import k_alignment

    src, tgt = rmap.source, rmap.target
    ring = src.base_ring
    k_triv = LineBundle(ring.scheme, ring.scheme.pic.zero())
    # (class twist, downstairs twist) pairs to apply at, per source class:
    # pull-like maps apply at the representative, push-like maps at the
    # lifted twist of each target representative
    by_target = rmap.geometry.by_target
    twists = {}
    for key in rmap.blocks if by_target else ():
        src_key, _, _, _, lifted = block_geometry(rmap, key)
        twists.setdefault(src_key, []).append((lifted, tgt.rep(key)))
    for (i, kappa) in ring.pieces:
        if ring.piece(i, kappa).is_trivial() or kappa != ring.zero_key:
            continue
        for lam_gen in ring.piece(i, kappa).generators():
            lam = ring.element(i, kappa, lam_gen)
            for (k, p) in src.pieces:
                if src.piece(k, p).is_trivial():
                    continue
                at = twists.get(p, []) if by_target else [(None, None)]
                for g in src.piece(k, p).generators():
                    for twist, target_twist in at:
                        try:
                            w = src.element(k, p, g, twist=twist)
                        except ScopeError as exc:
                            raise ValidationError(
                                "map_representatives",
                                f"{rmap.name}: {exc}",
                            ) from exc
                        ka_src = k_alignment(
                            k_triv, LineBundle(src.scheme, w.twist),
                            src.scheme.pic.zero(), src.scheme.units.zero(),
                        )
                        lw = lax_product(lam, ka_src, w)
                        lhs = apply_registered(rmap, lw, target_twist)
                        rw = apply_registered(rmap, w, target_twist)
                        ka_tgt = k_alignment(
                            k_triv, LineBundle(tgt.scheme, rw.twist),
                            tgt.scheme.pic.zero(), tgt.scheme.units.zero(),
                        )
                        rhs = lax_product(lam, ka_tgt, rw)
                        if not compare_classes(lhs, rhs):
                            raise ValidationError(
                                "map_action_linearity",
                                f"{rmap.name}: not linear over the base action at "
                                f"ring ({i},{kappa}), piece ({k},{p})",
                                witness=(lam_gen, g),
                            )
