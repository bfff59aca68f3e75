"""Symbolic schemes, morphisms and line bundles.

A scheme is Picard data (an exact abelian group presentation), unit data
(units modulo squares as an F2 space), and a set of symbolic support
labels.  A morphism carries the two pullback maps, optional proper data
(relative canonical class and relative dimension) and trusted geometric
annotations.  Nothing here is computed from equations; the engine works
on top of this bookkeeping layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .abelian import FgAbGroup, GroupElement, GroupHom
from .errors import NotProper, TypeMismatch
from .f2 import F2Map, F2Space


@dataclass(eq=False)
class SchemeDescriptor:
    name: str
    pic: FgAbGroup
    units: F2Space
    supports: tuple = ("total",)
    support_inclusions: tuple = ()  # pairs (smaller, larger)
    structure_map: "MorphismDescriptor | None" = None  # set when wired over a base

    def __post_init__(self):
        self.supports = tuple(self.supports)
        incl = set()
        for a, b in self.support_inclusions:
            if a not in self.supports or b not in self.supports:
                raise TypeMismatch(f"support inclusion {a} <= {b} uses undeclared labels")
            incl.add((a, b))
        for s in self.supports:
            incl.add((s, s))
        self.support_inclusions = tuple(sorted(incl))

    @property
    def total_support(self):
        return self.supports[0]

    def has_inclusion(self, small, large):
        return (small, large) in self.support_inclusions

    def bundle(self, coords_or_element, label=None):
        if isinstance(coords_or_element, GroupElement):
            el = coords_or_element
            if el.group is not self.pic:
                raise TypeMismatch("class does not live in this scheme's Picard group")
        else:
            el = self.pic.element(coords_or_element)
        return LineBundle(self, el, label)

    def trivial_bundle(self):
        return LineBundle(self, self.pic.zero(), "O")

    def __repr__(self):
        return f"Scheme({self.name})"


@dataclass(frozen=True, slots=True)
class LineBundle:
    scheme: SchemeDescriptor
    cls: GroupElement
    label: str | None = None

    def __post_init__(self):
        if self.cls.group is not self.scheme.pic:
            raise TypeMismatch("bundle class outside the scheme's Picard group")

    def tensor(self, other):
        if other.scheme is not self.scheme:
            raise TypeMismatch("bundles on different schemes")
        return LineBundle(self.scheme, self.cls + other.cls)

    def inverse(self):
        return LineBundle(self.scheme, -self.cls)

    def __repr__(self):
        tag = self.label or ",".join(map(str, self.cls.coords))
        return f"O_{self.scheme.name}({tag})"


@dataclass(frozen=True)
class ProperData:
    canonical_bundle: GroupElement  # class of the relative canonical bundle
    relative_dimension: int


@dataclass(eq=False, frozen=True)
class MorphismDescriptor:
    """A morphism ``source -> target`` by its pullback data.

    Frozen, so data derived from it (its base-compatibility certificate)
    can be computed once and kept on it.
    """

    name: str
    source: SchemeDescriptor
    target: SchemeDescriptor
    pic_pullback: GroupHom  # target.pic -> source.pic
    unit_pullback: F2Map  # target.units -> source.units
    proper_data: ProperData | None = None
    annotations: frozenset = frozenset()
    support_map: dict = field(default_factory=dict)  # target label -> source label
    push_support_map: dict = field(default_factory=dict)  # source label -> target label

    def __post_init__(self):
        if self.pic_pullback.source is not self.target.pic or (
            self.pic_pullback.target is not self.source.pic
        ):
            raise TypeMismatch(f"pic pullback of {self.name} has wrong endpoints")
        if self.unit_pullback.source is not self.target.units or (
            self.unit_pullback.target is not self.source.units
        ):
            raise TypeMismatch(f"unit pullback of {self.name} has wrong endpoints")
        if self.proper_data and self.proper_data.canonical_bundle.group is not self.source.pic:
            raise TypeMismatch(
                f"canonical class of {self.name} not in the source Picard group"
            )
        object.__setattr__(self, "annotations", frozenset(self.annotations))
        defaults = {s: s for s in self.target.supports if s in self.source.supports}
        object.__setattr__(self, "support_map", {**defaults, **dict(self.support_map)})
        push_defaults = {s: s for s in self.source.supports if s in self.target.supports}
        object.__setattr__(
            self, "push_support_map", {**push_defaults, **dict(self.push_support_map)}
        )

    # -- pullbacks -------------------------------------------------------

    def pull_class(self, el):
        return self.pic_pullback.apply(el)

    def pull_bundle(self, bundle):
        if bundle.scheme is not self.target:
            raise TypeMismatch("bundle does not live on the morphism's target")
        return LineBundle(self.source, self.pic_pullback.apply(bundle.cls))

    def pull_unit(self, u):
        return self.unit_pullback.apply(u)

    def pull_support(self, label):
        if label not in self.support_map:
            raise TypeMismatch(
                f"{self.name} declares no preimage for support {label!r}"
            )
        return self.support_map[label]

    def push_support(self, label):
        if label not in self.push_support_map:
            raise TypeMismatch(
                f"{self.name} declares no image for support {label!r}"
            )
        return self.push_support_map[label]

    def require_proper(self):
        if self.proper_data is None:
            raise NotProper(f"{self.name} carries no proper data")
        return self.proper_data

    @property
    def omega(self):
        return self.require_proper().canonical_bundle

    @property
    def dim(self):
        return self.require_proper().relative_dimension

    def __repr__(self):
        return f"Morphism({self.name}: {self.source.name} -> {self.target.name})"


def identity_morphism(scheme, name=None):
    return MorphismDescriptor(
        name or f"id_{scheme.name}",
        scheme,
        scheme,
        GroupHom.identity(scheme.pic),
        F2Map.identity(scheme.units),
        proper_data=ProperData(scheme.pic.zero(), 0),
        annotations=frozenset({"witt_pullback_iso", "witt_pushforward_iso"}),
        support_map={s: s for s in scheme.supports},
        push_support_map={s: s for s in scheme.supports},
    )


def compose_morphisms(f, g, name=None):
    """The composite ``f ∘ g`` for ``g: S -> M`` and ``f: M -> T``.

    Pullbacks compose contravariantly; the relative canonical class obeys
    omega(fg) = omega(g) + g^*(omega(f)) and dimensions add.
    """
    if g.target is not f.source:
        raise TypeMismatch(f"{f.name} and {g.name} do not compose")
    proper = None
    if f.proper_data is not None and g.proper_data is not None:
        omega = g.proper_data.canonical_bundle + g.pic_pullback.apply(
            f.proper_data.canonical_bundle
        )
        proper = ProperData(
            omega,
            f.proper_data.relative_dimension + g.proper_data.relative_dimension,
        )
    support = {}
    for lbl, mid in f.support_map.items():
        if mid in g.support_map:
            support[lbl] = g.support_map[mid]
    push_support = {}
    for lbl, mid in g.push_support_map.items():
        if mid in f.push_support_map:
            push_support[lbl] = f.push_support_map[mid]
    return MorphismDescriptor(
        name or f"{f.name}.{g.name}",
        g.source,
        f.target,
        g.pic_pullback.compose(f.pic_pullback),
        g.unit_pullback.compose(f.unit_pullback),
        proper_data=proper,
        annotations=f.annotations & g.annotations,
        support_map=support,
        push_support_map=push_support,
    )


def structure_morphism(scheme):
    """The declared structure morphism of a scheme over its base."""
    if scheme.structure_map is None:
        raise TypeMismatch(f"{scheme.name} has no structure morphism over a base")
    return scheme.structure_map


@dataclass(eq=False)
class Localization:
    """A declared triple: closed support in a scheme with open complement.

    ``upsilon`` is the open immersion ``open_scheme -> scheme``; the closed
    label must be a declared support of the scheme and the connecting data
    of the long exact sequence refer to this triple.
    """

    name: str
    scheme: SchemeDescriptor
    closed_label: str
    open_scheme: SchemeDescriptor
    upsilon: MorphismDescriptor

    def __post_init__(self):
        if self.closed_label not in self.scheme.supports:
            raise TypeMismatch(
                f"localization {self.name}: {self.closed_label!r} is not a support of "
                f"{self.scheme.name}"
            )
        if self.upsilon.source is not self.open_scheme or (
            self.upsilon.target is not self.scheme
        ):
            raise TypeMismatch(
                f"localization {self.name}: open immersion endpoints do not match"
            )
