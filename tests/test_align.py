import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtc.align import (
    AlignmentClass,
    alignment_exists,
    alignments_between,
    canonical_alignment,
    compose,
    identity_alignment,
    invert,
    k_alignment,
    pull_alignment,
    shriek_alignment,
    solve_composition,
    tensor,
)
from wtc.errors import NotProper, TypeMismatch
from wtc.schemes import compose_morphisms

from .util import f1_pair, make_base, make_morphism, make_scheme, over_base


def bundles(scheme, span=2):
    return [scheme.bundle(c.coords) for c in scheme.pic.elements_window(span)]


def test_alignment_invariant_enforced():
    y = make_scheme("Y", (0,), ("u",))
    with pytest.raises(TypeMismatch):
        AlignmentClass(y.bundle([0]), y.bundle([1]), y.pic.element([0]), (0,))


def test_alignments_between_z():
    y = make_scheme("Y", (0,), ("u",))
    got = alignments_between(y.bundle([0]), y.bundle([2]))
    assert sorted(a.data() for a in got) == [((1,), (0,)), ((1,), (1,))]
    assert alignments_between(y.bundle([0]), y.bundle([1])) == []
    assert not alignment_exists(y.bundle([0]), y.bundle([1]))


def test_alignments_between_with_torsion():
    y = make_scheme("Y", (0, 2), ("u",))
    # canonical coords (t, h); from O to 2h there are 2 roots x 2 units
    got = alignments_between(y.bundle([0, 0]), y.bundle([0, 2]))
    assert sorted(a.data() for a in got) == [
        ((0, 1), (0,)),
        ((0, 1), (1,)),
        ((1, 1), (0,)),
        ((1, 1), (1,)),
    ]
    # the canonical one is among them, with unit 1
    can = canonical_alignment(y.bundle([0, 0]), y.bundle([0, 2]))
    assert can in got and not any(can.u)
    assert canonical_alignment(y.bundle([0, 0]), y.bundle([0, 1])) is None


def test_compose_formula():
    y = make_scheme("Y", (0,), ("u",))
    a1 = AlignmentClass(y.bundle([0]), y.bundle([2]), y.pic.element([1]), (0,))
    a2 = AlignmentClass(y.bundle([2]), y.bundle([8]), y.pic.element([3]), (1,))
    c = compose(a2, a1)
    assert c.data() == ((4,), (1,))
    assert c.source.cls == y.pic.element([0]) and c.target.cls == y.pic.element([8])


def test_compose_identity_and_units_square():
    y = make_scheme("Y", (0,), ("u",))
    a = AlignmentClass(y.bundle([0]), y.bundle([2]), y.pic.element([1]), (1,))
    ident = identity_alignment(y.bundle([0]))
    assert compose(a, ident).data() == a.data()
    auto = AlignmentClass(y.bundle([0]), y.bundle([2]), y.pic.element([1]), (1,))
    twice = compose(
        AlignmentClass(y.bundle([2]), y.bundle([4]), y.pic.element([1]), (1,)), auto
    )
    assert twice.u == (0,)  # u*u is a square


def test_invert():
    y = make_scheme("Y", (0,), ("u",))
    a = AlignmentClass(y.bundle([0]), y.bundle([2]), y.pic.element([1]), (1,))
    ai = invert(a)
    assert ai.data() == ((-1,), (1,))
    assert compose(a, ai).is_identity() and compose(ai, a).is_identity()


def test_invert_on_z4():
    y = make_scheme("Y", (4,), ())
    a = AlignmentClass(y.bundle([0]), y.bundle([2]), y.pic.element([1]), ())
    ai = invert(a)
    assert ai.m.coords == (3,)
    assert compose(a, ai).is_identity() and compose(ai, a).is_identity()


def test_tensor():
    y = make_scheme("Y", (0,), ("u",))
    a1 = AlignmentClass(y.bundle([0]), y.bundle([2]), y.pic.element([1]), (0,))
    a2 = AlignmentClass(y.bundle([0]), y.bundle([4]), y.pic.element([2]), (1,))
    t = tensor(a1, a2)
    assert t.data() == ((3,), (1,))
    ident = identity_alignment(y.trivial_bundle())
    assert tensor(a1, ident).data() == a1.data()
    cancel = tensor(a1, invert(a1))
    assert cancel.m.is_zero()


def test_pull_alignment():
    x, y, ybar, f = f1_pair()
    a = AlignmentClass(y.bundle([0]), y.bundle([2]), y.pic.element([1]), (1,))
    pulled = pull_alignment(f, a)
    assert pulled.scheme is ybar
    assert pulled.data() == ((1,), (1,))
    ident = identity_alignment(y.bundle([3]))
    assert pull_alignment(f, ident).is_identity()
    # doubling pullback: h -> 2hbar
    g = make_morphism("g", ybar, y, pic_cols=[[2]], unit_cols=[(1,)])
    doubled = pull_alignment(g, a)
    assert doubled.data() == ((2,), (1,))
    assert doubled.source.cls.coords == (0,) and doubled.target.cls.coords == (4,)


def test_pull_functorial():
    x, y, ybar, f = f1_pair()
    ytilde = make_scheme("Ytilde", (0,), ("a",))
    over_base(ytilde, x, pic_cols=[], unit_cols=[(1,)])
    g = make_morphism("g", ytilde, ybar, pic_cols=[[1]], unit_cols=[(1,)])
    fg = compose_morphisms(f, g)
    for m, u in [(1, (0,)), (-2, (1,))]:
        a = AlignmentClass(
            y.bundle([0]), y.bundle([2 * m]), y.pic.element([m]), u
        )
        assert pull_alignment(g, pull_alignment(f, a)).data() == pull_alignment(
            fg, a
        ).data()


def test_shriek_alignment():
    x, y, ybar, _ = f1_pair()
    f = make_morphism(
        "fp", ybar, y, pic_cols=[[1]], unit_cols=[(1,)], omega=[-2], dim=1
    )
    a = AlignmentClass(y.bundle([0]), y.bundle([2]), y.pic.element([1]), (0,))
    sh = shriek_alignment(f, a)
    assert sh.source.cls.coords == (-2,) and sh.target.cls.coords == (0,)
    assert sh.data() == ((1,), (0,))
    # with trivial canonical class it coincides with the plain pullback
    f0 = make_morphism(
        "f0", ybar, y, pic_cols=[[1]], unit_cols=[(1,)], omega=[0], dim=0
    )
    assert shriek_alignment(f0, a).data() == pull_alignment(f0, a).data()
    bare = make_morphism("bare", ybar, y, pic_cols=[[1]], unit_cols=[(1,)])
    with pytest.raises(NotProper):
        shriek_alignment(bare, a)


def test_shriek_functor_on_composition():
    x, y, ybar, _ = f1_pair()
    f = make_morphism(
        "fp", ybar, y, pic_cols=[[1]], unit_cols=[(1,)], omega=[-2], dim=1
    )
    a = AlignmentClass(y.bundle([0]), y.bundle([2]), y.pic.element([1]), (1,))
    b = AlignmentClass(y.bundle([2]), y.bundle([4]), y.pic.element([1]), (0,))
    lhs = shriek_alignment(f, compose(b, a))
    rhs = compose(shriek_alignment(f, b), shriek_alignment(f, a))
    assert lhs.data() == rhs.data()
    assert lhs.source.cls == rhs.source.cls and lhs.target.cls == rhs.target.cls


def test_solve_composition():
    y = make_scheme("Y", (0,), ("u",))
    a1 = AlignmentClass(y.bundle([0]), y.bundle([2]), y.pic.element([1]), (0,))
    a2 = AlignmentClass(y.bundle([0]), y.bundle([4]), y.pic.element([2]), (1,))
    b = solve_composition(a1, a2, "left")
    assert compose(b, a1).data() == a2.data()
    assert solve_composition(a1, a1, "left").is_identity()
    c1 = AlignmentClass(y.bundle([0]), y.bundle([4]), y.pic.element([2]), (0,))
    c2 = AlignmentClass(y.bundle([2]), y.bundle([4]), y.pic.element([1]), (1,))
    b2 = solve_composition(c1, c2, "right")
    assert compose(c1, b2).data() == c2.data()


def test_k_alignment():
    x = make_base("X", (), ("a",))
    y = make_scheme("Y", (0,), ("a",))
    over_base(y, x, pic_cols=[], unit_cols=[(1,)])
    ka = k_alignment(x.trivial_bundle(), y.bundle([0]), y.pic.element([1]), (0,))
    assert ka.l1.cls.coords == (0,)
    assert ka.l2.cls.coords == (2,)
    assert ka.inner.source.cls.coords == (0,)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_groupoid_laws_random(data):
    invs = data.draw(
        st.sampled_from([(), (2,), (4,), (2, 2), (0,), (0, 2)])
    )
    units = data.draw(st.sampled_from([(), ("u",), ("u", "v")]))
    s = make_scheme("R", invs, units)
    rank = s.pic.rank

    def el():
        return s.pic.element([data.draw(st.integers(-3, 3)) for _ in range(rank)])

    def uvec():
        return tuple(data.draw(st.integers(0, 1)) for _ in range(s.units.dim))

    l1 = s.bundle(el().coords)
    m1, m2, m3 = el(), el(), el()
    u1, u2, u3 = uvec(), uvec(), uvec()
    a1 = AlignmentClass(l1, s.bundle((l1.cls + 2 * m1).coords), m1, u1)
    a2 = AlignmentClass(a1.target, s.bundle((a1.target.cls + 2 * m2).coords), m2, u2)
    a3 = AlignmentClass(a2.target, s.bundle((a2.target.cls + 2 * m3).coords), m3, u3)
    assert compose(a3, compose(a2, a1)).data() == compose(compose(a3, a2), a1).data()
    assert compose(a1, invert(a1)).is_identity()
    assert compose(invert(a1), a1).is_identity()
    assert tensor(a1, a2).data() == tensor(a2, a1).data()
    b = solve_composition(a1, compose(a2, a1), "left")
    assert compose(b, a1).data() == compose(a2, a1).data()


def test_cancel_bijection_small():
    # tensoring with id_L is a bijection between alignment sets
    y = make_scheme("Y", (4,), ("u",))
    for l1c, l2c, lc in itertools.product(range(4), repeat=3):
        l1, l2, l = y.bundle([l1c]), y.bundle([l2c]), y.bundle([lc])
        before = alignments_between(l1, l2)
        after = alignments_between(l.tensor(l1), l.tensor(l2))
        mapped = {tensor(identity_alignment(l), a).data() for a in before}
        assert mapped == {a.data() for a in after}
        assert len(before) == len(after)
