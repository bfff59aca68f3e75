"""Formal words of Witt-group morphisms and their normalization.

A word is a finite composition of generators

    per(M)      square periodicity: twist gains M^2
    lbi(u)      isomorphism of the twist given by a unit, modulo squares
    alis(A)     alignment isomorphism, the merged form lbi(u)∘per(m)
    pull(f)     pullback along a morphism
    push(f)     pushforward along a proper morphism (degree -dim, twist ω)
    restrict(υ) restriction to the open part of a localization triple
    ext(Z<Z')   extension of support
    bord(L)     connecting map of a localization triple, degree +1

typed by twisted group references (scheme, support, degree, twist).

Normalization moves scalar generators (per/lbi/alis) to canonical rest
positions: a scalar crosses push, ext and bord toward the domain and
crosses pull and restrict toward the codomain, transforming by the
appropriate pullback as it goes; adjacent scalars merge.  Domain-ward
moves and merges always fire before codomain-ward moves; under that
strategy the rewriting is terminating and order-independent, which the
test suite checks on randomized application orders.  Words mixing bord
with push are rejected: no interchange between the connecting map and a
pushforward is available.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import f2
from .align import AlignmentClass
from .errors import TypeMismatch
from .schemes import (
    LineBundle,
    Localization,
    MorphismDescriptor,
    SchemeDescriptor,
    compose_morphisms,
)
from .abelian import solve_linear


@dataclass(frozen=True)
class TwistedGroupRef:
    scheme: SchemeDescriptor
    support: str
    degree: int
    twist: object  # GroupElement in scheme.pic

    def __post_init__(self):
        if self.support not in self.scheme.supports:
            raise TypeMismatch(
                f"{self.support!r} is not a declared support of {self.scheme.name}"
            )
        if self.twist.group is not self.scheme.pic:
            raise TypeMismatch("twist outside the scheme's Picard group")

    def with_(self, scheme=None, support=None, degree=None, twist=None):
        return TwistedGroupRef(
            scheme if scheme is not None else self.scheme,
            support if support is not None else self.support,
            degree if degree is not None else self.degree,
            twist if twist is not None else self.twist,
        )

    def same_as(self, other):
        return (
            self.scheme is other.scheme
            and self.support == other.support
            and self.degree == other.degree
            and self.twist == other.twist
        )

    def __repr__(self):
        return (
            f"W^{self.degree}_{self.support}({self.scheme.name}, "
            f"{format_bundle_expr(self.scheme, self.twist)})"
        )


# ---------------------------------------------------------------------------
# generators


@dataclass(frozen=True)
class Scalar:
    """A per/lbi block: twist gains 2m and the unit class u acts."""

    scheme: SchemeDescriptor
    m: object
    u: tuple

    def __post_init__(self):
        if self.m.group is not self.scheme.pic:
            raise TypeMismatch("scalar class outside the scheme's Picard group")
        object.__setattr__(self, "u", self.scheme.units.check(self.u))

    def is_identity(self):
        return self.m.is_zero() and not any(self.u)

    def merge_after(self, earlier):
        """The scalar equal to ``self ∘ earlier``."""
        if earlier.scheme is not self.scheme:
            raise TypeMismatch("scalars on different schemes")
        return Scalar(self.scheme, self.m + earlier.m, f2.add(self.u, earlier.u))

    def pulled(self, hom_pic, hom_units, scheme):
        return Scalar(scheme, hom_pic.apply(self.m), hom_units.apply(self.u))

    def step(self, ref):
        if ref.scheme is not self.scheme:
            raise TypeMismatch(
                f"scalar on {self.scheme.name} applied on {ref.scheme.name}"
            )
        return ref.with_(twist=ref.twist + 2 * self.m)

    def as_alignment(self, ref):
        src = LineBundle(self.scheme, ref.twist)
        tgt = LineBundle(self.scheme, ref.twist + 2 * self.m)
        return AlignmentClass(src, tgt, self.m, self.u)

    def display(self, scheme):
        if self.is_identity():
            return "alis(M=0,u=1)"
        if not any(self.u):
            return f"per({format_bundle_expr(scheme, self.m)})"
        if self.m.is_zero():
            return f"lbi({scheme.units.describe(self.u)})"
        return (
            f"alis(M={format_bundle_expr(scheme, self.m)},"
            f"u={scheme.units.describe(self.u)})"
        )


@dataclass(frozen=True)
class Pull:
    morphism: MorphismDescriptor

    def step(self, ref):
        f = self.morphism
        if ref.scheme is not f.target:
            raise TypeMismatch(
                f"pull({f.name}) needs a class on {f.target.name}, got {ref.scheme.name}"
            )
        return TwistedGroupRef(
            f.source,
            f.pull_support(ref.support),
            ref.degree,
            f.pic_pullback.apply(ref.twist),
        )

    def display(self, scheme):
        return f"pull({self.morphism.name})"


@dataclass(frozen=True)
class Restrict:
    triple: Localization

    @property
    def morphism(self):
        return self.triple.upsilon

    def step(self, ref):
        ups = self.triple.upsilon
        if ref.scheme is not self.triple.scheme:
            raise TypeMismatch(
                f"restrict({self.triple.name}) applies on {self.triple.scheme.name}"
            )
        return TwistedGroupRef(
            ups.source,
            ups.pull_support(ref.support),
            ref.degree,
            ups.pic_pullback.apply(ref.twist),
        )

    def display(self, scheme):
        return f"restrict({self.triple.name})"


@dataclass(frozen=True)
class Push:
    morphism: MorphismDescriptor
    target_twist: object  # GroupElement downstairs

    def step(self, ref):
        f = self.morphism
        proper = f.require_proper()
        if ref.scheme is not f.source:
            raise TypeMismatch(
                f"push({f.name}) needs a class on {f.source.name}, got {ref.scheme.name}"
            )
        expected = proper.canonical_bundle + f.pic_pullback.apply(self.target_twist)
        if ref.twist != expected:
            raise TypeMismatch(
                f"push({f.name}) domain twist must be ω ⊗ f* of the target twist",
                witness=(ref.twist, expected),
            )
        return TwistedGroupRef(
            f.target,
            f.push_support(ref.support),
            ref.degree - proper.relative_dimension,
            self.target_twist,
        )

    def display(self, scheme):
        return f"push({self.morphism.name})"


@dataclass(frozen=True)
class Ext:
    scheme: SchemeDescriptor
    small: str
    large: str

    def step(self, ref):
        if ref.scheme is not self.scheme or ref.support != self.small:
            raise TypeMismatch(
                f"ext({self.small}<{self.large}) applies on support {self.small!r}"
            )
        if not self.scheme.has_inclusion(self.small, self.large):
            raise TypeMismatch(
                f"no declared inclusion {self.small!r} <= {self.large!r} on "
                f"{self.scheme.name}"
            )
        return ref.with_(support=self.large)

    def display(self, scheme):
        return f"ext({self.small}<{self.large})"


@dataclass(frozen=True)
class Bord:
    triple: Localization
    target_twist: object  # GroupElement on the closed-support scheme

    def step(self, ref):
        tri = self.triple
        if ref.scheme is not tri.open_scheme:
            raise TypeMismatch(
                f"bord({tri.name}) needs a class on the open part {tri.open_scheme.name}"
            )
        if ref.support != tri.open_scheme.total_support:
            raise TypeMismatch("bord applies to total-support classes of the open part")
        expected = tri.upsilon.pic_pullback.apply(self.target_twist)
        if ref.twist != expected:
            raise TypeMismatch(
                "bord domain twist must restrict from the declared target twist",
                witness=(ref.twist, expected),
            )
        return TwistedGroupRef(
            tri.scheme, tri.closed_label, ref.degree + 1, self.target_twist
        )

    def display(self, scheme):
        return (
            f"bord({format_bundle_expr(self.triple.scheme, self.target_twist)})"
        )


DOMAINWARD = (Push, Ext, Bord)
CODOMAINWARD = (Pull, Restrict)


# ---------------------------------------------------------------------------
# expressions


class MorphismExpr:
    """A typed word of generators.  ``word`` is in application order: the
    first entry applies first.  The textual form composes right to left."""

    def __init__(self, domain, word):
        self.domain = domain
        self.word = tuple(word)
        self.codomain = self._typecheck()

    def _typecheck(self):
        has_push = any(isinstance(g, Push) for g in self.word)
        has_bord = any(isinstance(g, Bord) for g in self.word)
        if has_push and has_bord:
            raise TypeMismatch(
                "words mixing bord with push are rejected: no interchange is declared"
            )
        ref = self.domain
        for idx, gen in enumerate(self.word):
            try:
                ref = gen.step(ref)
            except TypeMismatch as exc:
                raise TypeMismatch(
                    f"generator {len(self.word) - idx} (from the right): {exc}",
                    witness=getattr(exc, "witness", None),
                ) from exc
        return ref

    def compose(self, inner):
        """``self ∘ inner``; the inner word applies first."""
        if not inner.codomain.same_as(self.domain):
            raise TypeMismatch("expression endpoints do not match")
        return MorphismExpr(inner.domain, inner.word + self.word)

    def display(self):
        if not self.word:
            return "id"
        ref = self.domain
        rendered = []
        for gen in self.word:
            rendered.append(gen.display(ref.scheme))
            ref = gen.step(ref)
        return " . ".join(reversed(rendered))

    def __repr__(self):
        return f"Expr({self.display()} : {self.domain!r} -> {self.codomain!r})"


# ---------------------------------------------------------------------------
# normalization


def per_gen(bundle):
    return Scalar(bundle.scheme, bundle.cls, bundle.scheme.units.zero())


def lbi_gen(scheme, u):
    return Scalar(scheme, scheme.pic.zero(), u)


def alis_gen(align):
    return Scalar(align.scheme, align.m, align.u)


def _crossings(word):
    """All applicable moves: list of (kind, index).

    ``("merge", i)``: word[i], word[i+1] both scalars.
    ``("domainward", i)``: word[i] in push/ext/bord and word[i+1] a scalar.
    ``("codomainward", i)``: word[i] a scalar and word[i+1] a pull/restrict.
    """
    phase_a = []
    phase_b = []
    for i in range(len(word) - 1):
        a, b = word[i], word[i + 1]
        if isinstance(a, Scalar) and isinstance(b, Scalar):
            phase_a.append(("merge", i))
        elif isinstance(a, DOMAINWARD) and isinstance(b, Scalar):
            phase_a.append(("domainward", i))
        elif isinstance(a, Scalar) and isinstance(b, CODOMAINWARD):
            phase_b.append(("codomainward", i))
    return phase_a, phase_b


def _apply_move(word, move):
    kind, i = move
    out = list(word)
    if kind == "merge":
        out[i : i + 2] = [out[i + 1].merge_after(out[i])]
    elif kind == "domainward":
        gen, scalar = out[i], out[i + 1]
        if isinstance(gen, Push):
            f = gen.morphism
            moved = scalar.pulled(f.pic_pullback, f.unit_pullback, f.source)
            gen = Push(f, gen.target_twist + 2 * scalar.m)
        elif isinstance(gen, Ext):
            moved = scalar
        else:  # Bord: restrict the scalar through the open immersion
            ups = gen.triple.upsilon
            moved = scalar.pulled(ups.pic_pullback, ups.unit_pullback, ups.source)
            gen = Bord(gen.triple, gen.target_twist + 2 * scalar.m)
        out[i : i + 2] = [moved, gen]
    elif kind == "codomainward":
        scalar, gen = out[i], out[i + 1]
        f = gen.morphism
        moved = scalar.pulled(f.pic_pullback, f.unit_pullback, f.source)
        out[i : i + 2] = [gen, moved]
    else:
        raise AssertionError(kind)
    return tuple(out)


def normalize_steps(expr, pick=None, max_steps=None):
    """Run the rewriting to a fixpoint; returns (normal word, steps used).

    ``pick`` chooses among the currently allowed moves (default leftmost);
    domain-ward moves and merges always have priority over codomain-ward
    moves, which makes the fixpoint independent of the choices.
    """
    word = expr.word
    n = len(word)
    budget = max_steps if max_steps is not None else 4 * (n + 1) * (n + 1) + 8
    steps = 0
    while True:
        phase_a, phase_b = _crossings(word)
        moves = phase_a or phase_b
        if not moves:
            break
        move = moves[0] if pick is None else pick(moves)
        word = _apply_move(word, move)
        steps += 1
        if steps > budget:
            raise TypeMismatch(
                f"normalization exceeded its step budget ({budget})"
            )
    # drop identity scalars
    word = tuple(g for g in word if not (isinstance(g, Scalar) and g.is_identity()))
    return word, steps


def normalize(expr, rng=None, max_steps=None):
    """Canonical form of a typed word.

    Scalars end up merged into at most one alignment block per rest
    position: directly after the pulls of each maximal pull run and ahead
    of each push/ext/bord barrier.  The result is again a MorphismExpr
    with the same endpoints.
    """
    pick = None
    if rng is not None:
        pick = lambda moves: moves[rng.randrange(len(moves))]
    word, _ = normalize_steps(expr, pick=pick, max_steps=max_steps)
    out = MorphismExpr(expr.domain, word)
    if not out.codomain.same_as(expr.codomain):
        raise TypeMismatch("normalization changed the endpoints; data corrupt")
    return out


def expr_equal(e1, e2):
    """True iff the normal forms agree generator by generator."""
    if not (e1.domain.same_as(e2.domain) and e1.codomain.same_as(e2.codomain)):
        raise TypeMismatch("expressions with different endpoints")
    n1 = normalize(e1)
    n2 = normalize(e2)
    if len(n1.word) != len(n2.word):
        return False
    for a, b in zip(n1.word, n2.word):
        if type(a) is not type(b):
            return False
        if isinstance(a, Scalar):
            if a.scheme is not b.scheme or a.m != b.m or a.u != b.u:
                return False
        elif isinstance(a, (Pull,)):
            if a.morphism is not b.morphism:
                return False
        elif isinstance(a, Push):
            if a.morphism is not b.morphism or a.target_twist != b.target_twist:
                return False
        elif isinstance(a, Restrict):
            if a.triple is not b.triple:
                return False
        elif isinstance(a, Ext):
            if (a.scheme, a.small, a.large) != (b.scheme, b.small, b.large):
                return False
        elif isinstance(a, Bord):
            if a.triple is not b.triple or a.target_twist != b.target_twist:
                return False
    return True


# ---------------------------------------------------------------------------
# lax operations


@dataclass(frozen=True)
class LaxPull:
    """alis(align) ∘ pull(f): align runs from the pulled twist to the result."""

    morphism: MorphismDescriptor
    align: AlignmentClass

    def __post_init__(self):
        if self.align.scheme is not self.morphism.source:
            raise TypeMismatch("lax pull alignment must live upstairs")

    def to_expr(self, domain):
        word = [Pull(self.morphism)]
        mid = word[0].step(domain)
        if mid.twist != self.align.source.cls:
            raise TypeMismatch("lax pull alignment does not start at the pulled twist")
        word.append(alis_gen(self.align))
        return MorphismExpr(domain, word)


@dataclass(frozen=True)
class LaxPush:
    """push(f) ∘ alis(align): align lands in the ω-twisted pulled twist."""

    morphism: MorphismDescriptor
    align: AlignmentClass
    target_twist: object

    def __post_init__(self):
        if self.align.scheme is not self.morphism.source:
            raise TypeMismatch("lax push alignment must live upstairs")
        expected = self.morphism.omega + self.morphism.pic_pullback.apply(
            self.target_twist
        )
        if self.align.target.cls != expected:
            raise TypeMismatch(
                "lax push alignment must land in ω ⊗ f* of the target twist"
            )

    def to_expr(self, domain):
        if domain.twist != self.align.source.cls:
            raise TypeMismatch("lax push alignment does not start at the domain twist")
        word = [alis_gen(self.align), Push(self.morphism, self.target_twist)]
        return MorphismExpr(domain, word)


def compose_lax(outer, inner):
    """Fuse two lax pulls or two lax pushes into one lax operation.

    For pulls:  outer ∘ inner = lax pull along (inner.f ∘ outer.f) with
    alignment  outer.align ∘ g*(inner.align).  For pushes the composite
    alignment is  g^!(outer.align) ∘ inner.align, with the canonical
    classes composing as ω(fg) = ω(g) + g*ω(f).
    """
    from .align import compose as compose_align
    from .align import pull_alignment, shriek_alignment

    if isinstance(outer, LaxPull) and isinstance(inner, LaxPull):
        f = inner.morphism  # applied first: lands on f.source
        g = outer.morphism
        if g.target is not f.source:
            raise TypeMismatch("lax pulls do not compose")
        fg = compose_morphisms(f, g)
        pulled = pull_alignment(g, inner.align)
        if pulled.target.cls != outer.align.source.cls:
            raise TypeMismatch("lax pull alignments do not compose")
        return LaxPull(fg, compose_align(outer.align, pulled))
    if isinstance(outer, LaxPush) and isinstance(inner, LaxPush):
        g = inner.morphism  # applied first: g: source -> mid
        f = outer.morphism  # then f: mid -> target
        if g.target is not f.source:
            raise TypeMismatch("lax pushes do not compose")
        fg = compose_morphisms(f, g)
        shrieked = shriek_alignment(g, outer.align)
        if inner.align.target.cls != shrieked.source.cls:
            raise TypeMismatch("lax push alignments do not compose")
        return LaxPush(
            fg, compose_align(shrieked, inner.align), outer.target_twist
        )
    raise TypeMismatch("compose_lax needs two lax pulls or two lax pushes")


# ---------------------------------------------------------------------------
# text syntax


_TOKEN = re.compile(r"([a-zA-Z_][a-zA-Z_0-9]*)\((.*?)\)")
_TERM = re.compile(r"([+-]?)\s*(\d*)\s*([a-zA-Z_][a-zA-Z_0-9]*|)")


def parse_bundle_expr(scheme, text):
    """A linear combination of named Picard generators, e.g. ``2h-t``."""
    text = text.strip().replace(" ", "")
    coords = [0] * scheme.pic.ngens
    if text in ("0", "O", ""):
        return scheme.pic.from_presentation(coords)
    pos = 0
    while pos < len(text):
        match = _TERM.match(text, pos)
        if not match or match.end() == pos:
            raise TypeMismatch(f"cannot parse bundle expression {text!r} at {pos}")
        sign, coeff, name = match.groups()
        if not name and coeff:
            # bare integer term: only 0 is meaningful
            if int(coeff) != 0:
                raise TypeMismatch(f"integer term {coeff!r} in bundle expression")
            pos = match.end()
            continue
        if not name:
            raise TypeMismatch(f"cannot parse bundle expression {text!r}")
        k = int(coeff) if coeff else 1
        if sign == "-":
            k = -k
        try:
            idx = scheme.pic.names.index(name)
        except ValueError:
            raise TypeMismatch(
                f"unknown Picard generator {name!r} on {scheme.name}"
            ) from None
        coords[idx] += k
        pos = match.end()
    return scheme.pic.from_presentation(coords)


def format_bundle_expr(scheme, el):
    lift = scheme.pic.lift_to_presentation(el)
    parts = []
    for coeff, name in zip(lift, scheme.pic.names):
        if coeff == 0:
            continue
        if coeff == 1:
            parts.append(f"+{name}")
        elif coeff == -1:
            parts.append(f"-{name}")
        else:
            parts.append(f"{'+' if coeff > 0 else '-'}{abs(coeff)}{name}")
    if not parts:
        return "0"
    out = "".join(parts)
    return out[1:] if out.startswith("+") else out


def parse_unit_expr(scheme, text):
    text = text.strip()
    if text in ("1", ""):
        return scheme.units.zero()
    return scheme.units.vector_from_labels(text.split("*"))


class ExprParser:
    """Elaborates the right-to-left textual syntax against a workspace."""

    def __init__(self, morphisms, localizations):
        self.morphisms = morphisms  # name -> MorphismDescriptor
        self.localizations = localizations  # name -> Localization

    def parse(self, text, domain):
        chunks = [c.strip() for c in text.split(".") if c.strip()]
        heads = []
        for chunk in chunks:
            m = _TOKEN.fullmatch(chunk)
            if not m:
                raise TypeMismatch(f"cannot parse generator {chunk!r}")
            heads.append((m.group(1), m.group(2)))
        heads.reverse()  # application order
        word = []
        ref = domain
        for head, args in heads:
            gen = self._elaborate(head, args, ref)
            word.append(gen)
            ref = gen.step(ref)
        return MorphismExpr(domain, word)

    def _morphism(self, name):
        if name not in self.morphisms:
            raise TypeMismatch(f"unknown morphism {name!r}")
        return self.morphisms[name]

    def _triple_for_open(self, scheme):
        found = [t for t in self.localizations.values() if t.open_scheme is scheme]
        if len(found) != 1:
            raise TypeMismatch(
                f"{'no' if not found else 'several'} localization triple(s) with open part "
                f"{scheme.name}"
            )
        return found[0]

    def _elaborate(self, head, args, ref):
        scheme = ref.scheme
        if head == "per":
            return Scalar(scheme, parse_bundle_expr(scheme, args), scheme.units.zero())
        if head == "lbi":
            return Scalar(scheme, scheme.pic.zero(), parse_unit_expr(scheme, args))
        if head == "alis":
            parts = dict(
                kv.split("=", 1) for kv in (p.strip() for p in args.split(",")) if kv
            )
            m = parse_bundle_expr(scheme, parts.get("M", "0"))
            u = parse_unit_expr(scheme, parts.get("u", "1"))
            return Scalar(scheme, m, u)
        if head == "pull":
            return Pull(self._morphism(args.strip()))
        if head == "restrict":
            name = args.strip()
            if name in self.localizations:
                return Restrict(self.localizations[name])
            # allow naming the open immersion morphism instead of the triple
            for tri in self.localizations.values():
                if tri.upsilon.name == name:
                    return Restrict(tri)
            raise TypeMismatch(f"unknown localization {name!r}")
        if head == "push":
            pieces = [p.strip() for p in args.split(",")]
            f = self._morphism(pieces[0])
            proper = f.require_proper()
            if len(pieces) > 1 and pieces[1]:
                twist = parse_bundle_expr(f.target, pieces[1].split("=", 1)[-1])
            else:
                delta = ref.twist - proper.canonical_bundle
                sol = solve_linear(f.pic_pullback, delta)
                if sol is None:
                    raise TypeMismatch(
                        f"push({f.name}): domain twist is not ω ⊗ f* of any downstairs twist"
                    )
                twist = sol[0]
            return Push(f, twist)
        if head == "ext":
            if "<" not in args:
                raise TypeMismatch("ext syntax is ext(small<large)")
            small, large = (p.strip() for p in args.split("<", 1))
            return Ext(scheme, small, large)
        if head == "bord":
            tri = self._triple_for_open(scheme)
            twist = parse_bundle_expr(tri.scheme, args)
            return Bord(tri, twist)
        raise TypeMismatch(f"unknown generator {head!r}")
