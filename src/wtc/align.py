"""The skeletal groupoid of quadratic alignment classes.

An alignment from L1 to L2 is a square root datum: a class m with
2m + [L1] = [L2] together with a unit class u taken modulo squares.  In the
skeletal model line bundles *are* their Picard classes and all structural
permutation isomorphisms are identities, so an isomorphism class of
alignments is exactly the pair (m, u).  Composition adds the m parts and
multiplies (adds) the unit parts; every class is invertible.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import f2
from .abelian import canonical_sqrt, sqrt_solutions
from .errors import NotEnumerable, TypeMismatch
from .schemes import LineBundle, MorphismDescriptor


@dataclass(frozen=True, slots=True)
class AlignmentClass:
    """Isomorphism class of a quadratic alignment ``source ⇝ target``."""

    source: LineBundle
    target: LineBundle
    m: object  # GroupElement in the scheme's Picard group
    u: tuple  # unit class modulo squares, F2 coordinates

    def __post_init__(self):
        if self.source.scheme is not self.target.scheme:
            raise TypeMismatch("alignment endpoints on different schemes")
        scheme = self.source.scheme
        if self.m.group is not scheme.pic:
            raise TypeMismatch("square-root class outside the Picard group")
        object.__setattr__(self, "u", scheme.units.check(self.u))
        if (2 * self.m + self.source.cls) != self.target.cls:
            raise TypeMismatch(
                "not an alignment: 2m + [source] != [target]",
                witness=(self.m, self.source.cls, self.target.cls),
            )

    @property
    def scheme(self):
        return self.source.scheme

    def is_automorphism(self):
        return self.source.cls == self.target.cls

    def is_identity(self):
        return self.is_automorphism() and self.m.is_zero() and not any(self.u)

    def data(self):
        return (self.m.coords, self.u)

    def __repr__(self):
        return (
            f"Alignment({self.source!r} ~> {self.target!r}, "
            f"m=<{','.join(map(str, self.m.coords))}>, "
            f"u={self.scheme.units.describe(self.u)})"
        )


def identity_alignment(bundle):
    scheme = bundle.scheme
    return AlignmentClass(bundle, bundle, scheme.pic.zero(), scheme.units.zero())


def compose(a2, a1):
    """``a2 ∘ a1`` for a chain ``L1 ⇝ L2 ⇝ L3``."""
    if a1.scheme is not a2.scheme:
        raise TypeMismatch("alignments on different schemes")
    if a1.target.cls != a2.source.cls:
        raise TypeMismatch(
            "alignments do not compose",
            witness=(a1.target.cls, a2.source.cls),
        )
    return AlignmentClass(a1.source, a2.target, a1.m + a2.m, f2.add(a1.u, a2.u))


def invert(a):
    return AlignmentClass(a.target, a.source, -a.m, a.u)


def tensor(a1, a2):
    """Tensor product ``L1⊗L2 ⇝ L1'⊗L2'``; symmetric monoidal on classes."""
    if a1.scheme is not a2.scheme:
        raise TypeMismatch("alignments on different schemes")
    return AlignmentClass(
        a1.source.tensor(a2.source),
        a1.target.tensor(a2.target),
        a1.m + a2.m,
        f2.add(a1.u, a2.u),
    )


def pull_alignment(f: MorphismDescriptor, a: AlignmentClass):
    """Pull an alignment back along ``f``; a strict monoidal functor on classes."""
    if a.scheme is not f.target:
        raise TypeMismatch("alignment does not live on the morphism's target")
    return AlignmentClass(
        f.pull_bundle(a.source),
        f.pull_bundle(a.target),
        f.pull_class(a.m),
        f.pull_unit(a.u),
    )


def shriek_alignment(f: MorphismDescriptor, a: AlignmentClass):
    """Twisted pullback: the pulled alignment between omega-twisted endpoints."""
    omega = f.omega  # raises NotProper when absent
    pulled = pull_alignment(f, a)
    twist = LineBundle(f.source, omega)
    return AlignmentClass(
        twist.tensor(pulled.source),
        twist.tensor(pulled.target),
        pulled.m,
        pulled.u,
    )


def solve_composition(a1, a2, side):
    """The unique class B with ``B∘a1 = a2`` (left) or ``a1∘B = a2`` (right)."""
    if side == "left":
        if a1.source.cls != a2.source.cls:
            raise TypeMismatch("left solve needs a common source")
        return compose(a2, invert(a1))
    if side == "right":
        if a1.target.cls != a2.target.cls:
            raise TypeMismatch("right solve needs a common target")
        return compose(invert(a1), a2)
    raise TypeMismatch(f"unknown side {side!r}")


def canonical_alignment(l1: LineBundle, l2: LineBundle):
    """The alignment ``l1 ⇝ l2`` with the canonical square root and unit 1,
    or None when the bundles differ modulo squares."""
    if l1.scheme is not l2.scheme:
        raise TypeMismatch("bundles on different schemes")
    m = canonical_sqrt(l1.scheme.pic, l2.cls - l1.cls)
    if m is None:
        return None
    return AlignmentClass(l1, l2, m, l1.scheme.units.zero())


def alignment_exists(l1: LineBundle, l2: LineBundle):
    """True iff the two bundles agree modulo squares."""
    return canonical_alignment(l1, l2) is not None


def alignments_between(l1: LineBundle, l2: LineBundle, enumerate_all=True):
    """All alignment classes ``l1 ⇝ l2``; empty iff the classes differ mod 2.

    The m part ranges over the finitely many square roots of [l2]-[l1] and
    the unit part over the whole unit space.
    """
    if l1.scheme is not l2.scheme:
        raise TypeMismatch("bundles on different schemes")
    scheme = l1.scheme
    roots = sqrt_solutions(scheme.pic, l2.cls - l1.cls)
    if not enumerate_all:
        return bool(roots)
    if roots and scheme.units.dim > 16:
        raise NotEnumerable("unit space too large to enumerate")
    out = []
    for m in roots:
        for u in scheme.units.vectors():
            out.append(AlignmentClass(l1, l2, m, u))
    return out


@dataclass(frozen=True)
class KAlignmentClass:
    """Alignment of L1 with L2 relative to a coefficient bundle K on the base.

    ``inner`` is a plain alignment ``pi^*K ⊗ L1 ⇝ L2`` on the scheme; ``k``
    lives on the declared base.
    """

    k: LineBundle
    inner: AlignmentClass

    def __post_init__(self):
        scheme = self.inner.scheme
        structure = scheme.structure_map
        if structure is None:
            raise TypeMismatch(
                f"{scheme.name} has no structure morphism; relative alignments need one"
            )
        if self.k.scheme is not structure.target:
            raise TypeMismatch("coefficient bundle does not live on the base")

    @property
    def scheme(self):
        return self.inner.scheme

    @property
    def l1(self):
        """Recover L1 from the inner source ``pi^*K ⊗ L1``."""
        structure = self.scheme.structure_map
        pulled = structure.pic_pullback.apply(self.k.cls)
        return LineBundle(self.scheme, self.inner.source.cls - pulled)

    @property
    def l2(self):
        return self.inner.target

    def __repr__(self):
        return f"KAlignment(K={self.k!r}, {self.inner!r})"


def k_alignment(k: LineBundle, l1: LineBundle, m, u):
    """Build ``K``-alignment data from the square-root class directly."""
    scheme = l1.scheme
    structure = scheme.structure_map
    if structure is None:
        raise TypeMismatch(f"{scheme.name} has no structure morphism")
    pulled = LineBundle(scheme, structure.pic_pullback.apply(k.cls))
    l2 = LineBundle(scheme, 2 * m + pulled.cls + l1.cls)
    return KAlignmentClass(k, AlignmentClass(pulled.tensor(l1), l2, m, u))
