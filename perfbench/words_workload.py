"""``words`` workload: normal forms and evaluation of long morphism words.

Random well-typed words of length 8, 32 and 64 over the ``projective_line``
fixture.  Every generator of a word carries a registered map, so every word
is also evaluable.  One operation is ``expr.normalize`` followed by
``module.eval_expr`` of the normal form on one element of the domain piece,
which is ``wtc eval`` without the workspace load.

The checks, outside the timed region: the word and its normal form evaluate
to equal classes, the normal form is a fixpoint of ``normalize``, and a
second, randomly ordered rewrite reaches the same normal form.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

LENGTHS = (8, 32, 64)
WORDS_PER_ROUND = 4

# (scheme, support) -> presentation holding that Witt group
PRESENTATIONS = {
    ("X", "total"): "W_Xm",
    ("Zpt", "total"): "W_Zpt",
    ("A1", "total"): "W_A1",
    ("P1", "total"): "W_P1",
    ("P1", "z"): "W_zP1",
}


def random_word(ws, rng, length):
    """A random well-typed word over the projective-line workspace."""
    from wtc.expr import Bord, Ext, MorphismExpr, Pull, Push, Restrict, Scalar, TwistedGroupRef

    x, p1, a1, zpt = (ws.scheme(n) for n in ("X", "P1", "A1", "Zpt"))
    loc = ws.localizations["zloc"]
    scheme, support = rng.choice(sorted(PRESENTATIONS))
    scheme = ws.scheme(scheme)
    twist = scheme.pic.element([rng.randint(-2, 2)] * scheme.pic.rank)
    dom = TwistedGroupRef(scheme, support, rng.randint(-2, 2), twist)
    ref = dom
    word = []
    has_push = has_bord = False
    for _ in range(length):
        s = ref.scheme
        options = ["scalar"]
        if s is x:
            options += [("pull", ws.morphisms["pi_A1"]), ("pull", ws.morphisms["pi_Zpt"])]
        if s is zpt and not has_bord:
            options.append(("push", ws.morphisms["iota"]))
        if s is p1 and ref.support == "z":
            options.append(("ext", None))
        if s is p1 and ref.support == "total":
            options.append(("restrict", loc))
        if s is a1 and not has_push:
            options.append(("bord", loc))
        choice = options[rng.randrange(len(options))]
        if choice == "scalar":
            m = s.pic.element([rng.randint(-2, 2)] * s.pic.rank)
            u = tuple(rng.randint(0, 1) for _ in range(s.units.dim))
            gen = Scalar(s, m, u)
        else:
            kind, payload = choice
            if kind == "pull":
                gen = Pull(payload)
            elif kind == "push":
                gen = Push(payload, p1.pic.element([rng.randint(-2, 2)]))
                has_push = True
            elif kind == "ext":
                gen = Ext(p1, "z", "total")
            elif kind == "restrict":
                gen = Restrict(payload)
            else:
                gen = Bord(payload, p1.pic.element([rng.randint(-2, 2)]))
                has_bord = True
        word.append(gen)
        ref = gen.step(ref)
    return MorphismExpr(dom, word)


def same_word(w1, w2):
    """Generator-by-generator equality of two words, without normalizing."""
    from wtc.expr import Bord, Ext, Pull, Push, Restrict, Scalar

    if len(w1) != len(w2):
        return False
    for a, b in zip(w1, w2):
        if type(a) is not type(b):
            return False
        if isinstance(a, Scalar):
            same = a.scheme is b.scheme and a.m == b.m and a.u == b.u
        elif isinstance(a, Pull):
            same = a.morphism is b.morphism
        elif isinstance(a, Restrict):
            same = a.triple is b.triple
        elif isinstance(a, Push):
            same = a.morphism is b.morphism and a.target_twist == b.target_twist
        elif isinstance(a, Bord):
            same = a.triple is b.triple and a.target_twist == b.target_twist
        elif isinstance(a, Ext):
            same = (a.scheme, a.small, a.large) == (b.scheme, b.small, b.large)
        else:
            same = False
        if not same:
            return False
    return True


@dataclass
class WordOp:
    label: str
    expr: object
    element: object
    order_seed: int


class WordsWorkload:
    name = "words"

    def __init__(self, seed):
        from wtc import expr, module, workspace

        self.expr = expr
        self.module = module
        self.ws = workspace.parse_workspace(workspace.fixture_path("projective_line"))
        self._seed = seed

    def round(self, i):
        rng = random.Random(f"words:{self._seed}:{i}")
        ops = [self._make_op(length, rng) for length in LENGTHS for _ in range(WORDS_PER_ROUND)]
        rng.shuffle(ops)
        return ops

    def _make_op(self, length, rng):
        expr = random_word(self.ws, rng, length)
        dom = expr.domain
        pres = self.ws.presentation(PRESENTATIONS[(dom.scheme.name, dom.support)])
        key = pres.class_of(dom.twist)
        coords = rng.choice(list(pres.piece(dom.degree, key).elements()))
        element = pres.element(dom.degree, key, coords, twist=dom.twist)
        return WordOp(f"L{length}", expr, element, rng.getrandbits(32))

    def warm_up(self):
        rng = random.Random(f"words-warm-up:{self._seed}")
        for length in LENGTHS:
            self.run(self._make_op(length, rng))

    def run(self, op):
        nf = self.expr.normalize(op.expr)
        return nf, self.module.eval_expr(nf, op.element)

    def check(self, op, out):
        normalize = self.expr.normalize
        nf, value = out
        if not nf.domain.same_as(op.expr.domain) or not nf.codomain.same_as(op.expr.codomain):
            return f"{op.label}: normal form changed the endpoints"
        if not self.module.compare_classes(self.module.eval_expr(op.expr, op.element), value):
            return f"{op.label}: word and normal form evaluate differently"
        if not same_word(normalize(nf).word, nf.word):
            return f"{op.label}: normal form is not a fixpoint"
        other = normalize(op.expr, rng=random.Random(op.order_seed))
        if not same_word(other.word, nf.word):
            return f"{op.label}: a second rewrite order gives another normal form"
        return None
