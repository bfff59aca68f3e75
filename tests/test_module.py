import itertools

import pytest

from wtc.align import AlignmentClass, k_alignment
from wtc.errors import (
    DegreeMismatch,
    MissingMap,
    ValidationError,
)
from wtc.expr import MorphismExpr, Pull, Push, Bord, Ext, Scalar, TwistedGroupRef, normalize, per_gen
from wtc.module import (
    BaseWittRing,
    RegisteredMap,
    apply_registered,
    compare_classes,
    eval_expr,
    lax_combination,
    lax_product,
    to_canonical,
    transport,
    validate_registered_map,
)
from .util import make_base, make_scheme, over_base, p1_module_data


@pytest.fixture(scope="module")
def data():
    return p1_module_data()


# ---------------------------------------------------------------------------
# ring


def test_ring_validates_and_multiplies(data):
    ring = data["ring"]
    one = ring.one()
    a = ring.element(0, (), [0, 1])
    assert ring.multiply(one, a).coords == a.coords
    sq = ring.multiply(a, a)
    assert sq.coords == ring.unit
    assert ring.unit_class((1,)) == ring.piece(0, ()).element([0, 1])


def test_ring_rejects_nonassociative():
    x = make_base("X2", (), ("a",))
    from wtc.abelian import FgAbGroup

    b00 = FgAbGroup.from_invariants([2, 2])
    bad_table = [[[1, 0], [0, 1]], [[0, 1], [0, 1]]]  # a*a = a breaks unit/assoc
    with pytest.raises(ValidationError):
        BaseWittRing(
            "bad",
            x,
            pieces={(0, ()): b00},
            representatives={(): x.pic.zero()},
            unit_coords=[1, 0],
            products={((0, ()), (0, ())): (bad_table, None)},
            unit_class={"a": [0, 1]},
        )


# ---------------------------------------------------------------------------
# representation, transport, comparison


def test_transport_and_compare(data):
    w_p1 = data["W_P1"]
    p1 = data["geo"]["P1"]
    w = w_p1.element(0, (0,), [1, 0])
    b = AlignmentClass(p1.bundle([0]), p1.bundle([2]), p1.pic.element([1]), (0,))
    moved = transport(w, b)
    assert moved.twist.coords == (2,)
    back = transport(moved, AlignmentClass(
        p1.bundle([2]), p1.bundle([0]), p1.pic.element([-1]), (0,)
    ))
    assert compare_classes(back, w)


def test_compare_sees_unit_action(data):
    w_p1 = data["W_P1"]
    p1 = data["geo"]["P1"]
    w1 = w_p1.element(0, (0,), [1, 0])
    # same coordinates, transports differing by the unit a: compare must
    # apply multiplication by <a>, which swaps the two generators
    t2 = AlignmentClass(p1.bundle([0]), p1.bundle([0]), p1.pic.zero(), (1,))
    w2 = w_p1.element(0, (0,), [1, 0], twist=p1.pic.zero(), transport=t2)
    assert not compare_classes(w1, w2)
    w3 = w_p1.element(0, (0,), [0, 1], twist=p1.pic.zero(), transport=t2)
    assert compare_classes(w1, w3)


def test_compare_unit_trivial_in_small_ring():
    # transports differing by a pulled-back unit whose class is 1 in the
    # two-element ring compare equal
    from wtc.abelian import FgAbGroup
    from wtc.module import BaseWittRing, WittModulePresentation

    x = make_base("Xs", (), ("a",))
    y = make_scheme("Ys", (), ("a",))
    over_base(y, x, pic_cols=[], unit_cols=[(1,)])
    ring = BaseWittRing(
        "B", x,
        pieces={(0, ()): FgAbGroup.from_invariants([2])},
        representatives={(): x.pic.zero()},
        unit_coords=[1],
        products={((0, ()), (0, ())): ([[[1]]], None)},
        unit_class={"a": [1]},
    )
    pres = WittModulePresentation(
        "M", y, ring, "total",
        {(0, ()): FgAbGroup.from_invariants([2])},
        {(): y.pic.zero()},
        action={((0, ()), (0, ())): ([[[1]]], None)},
    )
    w1 = pres.element(0, (), [1])
    t2 = AlignmentClass(y.trivial_bundle(), y.trivial_bundle(), y.pic.zero(), (1,))
    w2 = pres.element(0, (), [1], transport=t2)
    assert compare_classes(w1, w2)


def test_compare_unit_sign_over_integers():
    # over the integral ring with unit class -1 the same coordinates under
    # a unit-twisted transport are a different class
    from wtc.abelian import FgAbGroup
    from wtc.module import BaseWittRing, WittModulePresentation

    x = make_base("Xr", (), ("a",))
    y = make_scheme("Yr", (), ("a",))
    over_base(y, x, pic_cols=[], unit_cols=[(1,)])
    ring = BaseWittRing(
        "BZ", x,
        pieces={(0, ()): FgAbGroup((), ngens=1)},
        representatives={(): x.pic.zero()},
        unit_coords=[1],
        products={((0, ()), (0, ())): ([[[1]]], None)},
        unit_class={"a": [-1]},
    )
    pres = WittModulePresentation(
        "MZ", y, ring, "total",
        {(0, ()): FgAbGroup((), ngens=1)},
        {(): y.pic.zero()},
        action={((0, ()), (0, ())): ([[[1]]], None)},
    )
    w1 = pres.element(0, (), [1])
    t2 = AlignmentClass(y.trivial_bundle(), y.trivial_bundle(), y.pic.zero(), (1,))
    w2 = pres.element(0, (), [1], transport=t2)
    assert not compare_classes(w1, w2)
    w3 = pres.element(0, (), [-1], transport=t2)
    assert compare_classes(w1, w3)


def test_transport_then_inverse_roundtrip_random(data):
    w_p1 = data["W_P1"]
    p1 = data["geo"]["P1"]
    for coords in itertools.product(range(2), repeat=2):
        w = w_p1.element(1, (0,), list(coords))
        for m, u in [(1, (0,)), (-2, (1,)), (0, (1,))]:
            b = AlignmentClass(
                p1.bundle([0]), p1.bundle([2 * m]), p1.pic.element([m]), u
            )
            w2 = transport(w, b)
            w3 = transport(w2, AlignmentClass(
                p1.bundle([2 * m]), p1.bundle([0]), p1.pic.element([-m]), u
            ))
            assert compare_classes(w3, w)
            assert w3.is_zero() == w.is_zero()


def test_to_canonical(data):
    w_p1 = data["W_P1"]
    p1 = data["geo"]["P1"]
    t = AlignmentClass(p1.bundle([0]), p1.bundle([4]), p1.pic.element([2]), (1,))
    w = w_p1.element(0, (0,), [1, 0], twist=p1.pic.element([4]), transport=t)
    c = to_canonical(w)
    assert c.transport.u == (0,)
    assert compare_classes(c, w)
    assert c.coords == w_p1.piece(0, (0,)).element([0, 1])  # the unit swapped


# ---------------------------------------------------------------------------
# lax product


def test_lax_product_unit_coefficient(data):
    w_p1 = data["W_P1"]
    ring = data["ring"]
    p1 = data["geo"]["P1"]
    x = data["geo"]["X"]
    w = w_p1.element(0, (0,), [1, 0])
    ka = k_alignment(x.trivial_bundle(), p1.bundle([0]), p1.pic.zero(), (0,))
    out = lax_product(ring.one(), ka, w)
    assert compare_classes(out, w)
    # lambda = 1 with a nontrivial alignment is exactly the alignment action
    ka2 = k_alignment(x.trivial_bundle(), p1.bundle([0]), p1.pic.element([1]), (0,))
    out2 = lax_product(ring.one(), ka2, w)
    assert out2.twist.coords == (2,)
    assert compare_classes(out2, transport(w, ka2.inner))


def test_lax_product_unit_class_action(data):
    # multiplying by <a> with the unit-flavoured alignment equals the unit
    # action on coordinates
    w_p1 = data["W_P1"]
    ring = data["ring"]
    p1 = data["geo"]["P1"]
    x = data["geo"]["X"]
    w = w_p1.element(0, (0,), [1, 0])
    lam = ring.element(0, (), [0, 1])  # <a>
    ka = k_alignment(x.trivial_bundle(), p1.bundle([0]), p1.pic.zero(), (0,))
    out = lax_product(lam, ka, w)
    assert out.coords == w_p1.piece(0, (0,)).element([0, 1])


def test_lax_product_associativity_instance(data):
    w_p1 = data["W_P1"]
    ring = data["ring"]
    p1 = data["geo"]["P1"]
    x = data["geo"]["X"]
    w = w_p1.element(1, (0,), [1, 0])
    lam1 = ring.element(0, (), [0, 1])
    lam2 = ring.element(0, (), [0, 1])
    ka1 = k_alignment(x.trivial_bundle(), p1.bundle([0]), p1.pic.element([1]), (1,))
    # lam1 ·_{ka1} w lands at twist 2h
    inner1 = lax_product(lam1, ka1, w)
    ka2 = k_alignment(x.trivial_bundle(), p1.bundle([2]), p1.pic.element([-1]), (0,))
    lhs = lax_product(lam2, ka2, inner1)
    # composed alignment: target of ka2 with total m = 0, u = 1
    ka3 = k_alignment(x.trivial_bundle(), p1.bundle([0]), p1.pic.element([0]), (1,))
    rhs = lax_product(ring.multiply(lam2, lam1), ka3, w)
    assert compare_classes(lhs, rhs)


def test_lax_combination(data):
    w_p1 = data["W_P1"]
    ring = data["ring"]
    p1 = data["geo"]["P1"]
    x = data["geo"]["X"]
    w = w_p1.element(0, (0,), [1, 0])
    ka = k_alignment(x.trivial_bundle(), p1.bundle([0]), p1.pic.zero(), (0,))
    one, a = ring.one(), ring.element(0, (), [0, 1])
    out = lax_combination(
        [(one, ka, w), (a, ka, w)], 0, p1.pic.zero()
    )
    assert out.coords == w_p1.piece(0, (0,)).element([1, 1])
    single = lax_combination([(one, ka, w)], 0, p1.pic.zero())
    assert compare_classes(single, w)
    with pytest.raises(DegreeMismatch):
        lax_combination([(one, ka, w)], 1, p1.pic.zero())


def test_zero_coefficients_give_zero(data):
    w_p1 = data["W_P1"]
    ring = data["ring"]
    p1 = data["geo"]["P1"]
    x = data["geo"]["X"]
    w = w_p1.element(0, (0,), [1, 1])
    zero = ring.element(0, (), [0, 0])
    ka = k_alignment(x.trivial_bundle(), p1.bundle([0]), p1.pic.zero(), (0,))
    out = lax_combination([(zero, ka, w), (zero, ka, w)], 0, p1.pic.zero())
    assert out.is_zero()


# ---------------------------------------------------------------------------
# registered maps


def test_apply_pull(data):
    w_x, w_a1 = data["W_Xm"], data["W_A1"]
    one = w_x.element(0, (), [1, 0])
    out = apply_registered(data["maps"]["pull_piA1"], one)
    assert out.parent is w_a1
    assert out.coords.coords == (1, 0)


def test_apply_push_both_classes(data):
    w_zpt, w_z = data["W_Zpt"], data["W_zP1"]
    p1 = data["geo"]["P1"]
    v = w_zpt.element(0, (), [1, 0])
    out0 = apply_registered(data["maps"]["push_iota"], v, target_twist=p1.pic.element([0]))
    assert out0.parent is w_z and out0.degree == 1 and out0.key == (0,)
    out1 = apply_registered(data["maps"]["push_iota"], v, target_twist=p1.pic.element([1]))
    assert out1.key == (1,) and out1.twist.coords == (1,)
    # twisted downstairs bundle in the same class: transports absorb it
    out2 = apply_registered(data["maps"]["push_iota"], v, target_twist=p1.pic.element([3]))
    assert out2.key == (1,) and out2.twist.coords == (3,)
    moved = transport(out2, AlignmentClass(
        p1.bundle([3]), p1.bundle([1]), p1.pic.element([-1]), (0,)
    ))
    assert compare_classes(moved, out1)


def test_apply_ext_and_restrict_and_bord(data):
    w_z, w_p1, w_a1 = data["W_zP1"], data["W_P1"], data["W_A1"]
    p1 = data["geo"]["P1"]
    v = w_z.element(1, (0,), [1, 0])
    sigma = apply_registered(data["maps"]["ext_z"], v)
    assert sigma.parent is w_p1 and sigma.coords.coords == (1, 0)
    v_odd = w_z.element(1, (1,), [1, 0], twist=p1.pic.element([1]))
    killed = apply_registered(data["maps"]["ext_z"], v_odd)
    assert killed.is_zero()
    one_p1 = w_p1.element(0, (0,), [1, 0])
    res = apply_registered(data["maps"]["res_ups"], one_p1)
    assert res.parent is w_a1 and res.coords.coords == (1, 0)
    u = w_a1.element(0, (), [1, 0])
    d0 = apply_registered(data["maps"]["bord_ups"], u, target_twist=p1.pic.element([0]))
    assert d0.is_zero() and d0.degree == 1
    d1 = apply_registered(data["maps"]["bord_ups"], u, target_twist=p1.pic.element([1]))
    assert d1.coords.coords == (1, 0) and d1.key == (1,)


def test_registered_map_linearity_validation_catches_corruption(data):
    w_a1, w_z = data["W_A1"], data["W_zP1"]
    bad = RegisteredMap(
        "bad_bord", "bord", w_a1, w_z, triple=data["geo"]["loc"],
        blocks={
            (0,): (data["maps"]["bord_ups"].blocks[(0,)][0], {}),
            (1,): (
                data["maps"]["bord_ups"].blocks[(1,)][0],
                {0: [[1, 0], [0, 0]]},  # kills <a>-component: not linear
            ),
        },
    )
    with pytest.raises(ValidationError, match="linear"):
        validate_registered_map(bad)


def test_missing_map_error(data):
    w_p1 = data["W_P1"]
    with pytest.raises(MissingMap):
        w_p1.find_map("push", morphism=data["geo"]["iota"])


def test_apply_push_with_nontrivial_canonical_class(data):
    # pushforward along the structure map of the line: relative canonical
    # class -2h, relative dimension 1; the map lands the degree-1 twisted
    # class on the degree-0 class downstairs
    from wtc.module import RegisteredMap, validate_registered_map
    from wtc.abelian import canonical_sqrt
    from wtc.schemes import LineBundle

    geo = data["geo"]
    p1, x = geo["P1"], geo["X"]
    w_p1, w_x = data["W_P1"], data["W_Xm"]
    pi = p1.structure_map
    want_tgt = pi.omega + pi.pic_pullback.apply(x.pic.zero())  # = -2h
    m = canonical_sqrt(p1.pic, want_tgt - p1.pic.element([0]))
    tr = AlignmentClass(
        LineBundle(p1, p1.pic.element([0])),
        LineBundle(p1, want_tgt),
        m,
        p1.units.zero(),
    )
    eye = [[1, 0], [0, 1]]
    rmap = RegisteredMap(
        "push_pi", "push", w_p1, w_x, morphism=pi,
        blocks={(): (tr, {1: eye})},
    )
    validate_registered_map(rmap)
    # a class at twist -2h in degree 1 pushes to degree 0 downstairs
    sigma_twisted = w_p1.element(
        1, (0,), [1, 0], twist=p1.pic.element([-2])
    )
    out = apply_registered(rmap, sigma_twisted, target_twist=x.pic.zero())
    assert out.parent is w_x and out.degree == 0
    assert out.coords.coords == (1, 0)
    # the same class represented with swapped coordinates and a
    # unit-twisted transport pushes to the same downstairs class
    other = w_p1.element(
        1, (0,), [0, 1],
        twist=p1.pic.element([-2]),
        transport=AlignmentClass(
            p1.bundle([0]), p1.bundle([-2]), p1.pic.element([-1]), (1,)
        ),
    )
    assert compare_classes(other, sigma_twisted)
    out2 = apply_registered(rmap, other, target_twist=x.pic.zero())
    assert compare_classes(out2, out)
    # and a genuinely different class pushes to a different one
    different = w_p1.element(
        1, (0,), [1, 0],
        twist=p1.pic.element([-2]),
        transport=AlignmentClass(
            p1.bundle([0]), p1.bundle([-2]), p1.pic.element([-1]), (1,)
        ),
    )
    assert not compare_classes(different, sigma_twisted)
    out3 = apply_registered(rmap, different, target_twist=x.pic.zero())
    assert not compare_classes(out3, out)


def test_lax_push_projection_identity_with_canonical_class(data):
    # coefficient square for a pushforward whose relative canonical class
    # is nontrivial: lambda ._C push[A](w) = push[B](lambda ._Cbar w)
    import itertools as it

    from wtc.align import k_alignment
    from wtc.abelian import canonical_sqrt
    from wtc.descent import solve_coefficient_square
    from wtc.module import RegisteredMap, validate_registered_map, lax_product
    from wtc.schemes import LineBundle

    geo = data["geo"]
    p1, x = geo["P1"], geo["X"]
    w_p1, w_x = data["W_P1"], data["W_Xm"]
    ring = data["ring"]
    pi = p1.structure_map
    want_tgt = pi.omega  # = -2h, the twisted pullback of the trivial bundle
    m = canonical_sqrt(p1.pic, want_tgt - p1.pic.element([0]))
    tr = AlignmentClass(
        LineBundle(p1, p1.pic.element([0])), LineBundle(p1, want_tgt),
        m, p1.units.zero(),
    )
    rmap = RegisteredMap(
        "push_pi", "push", w_p1, w_x, morphism=pi,
        blocks={(): (tr, {1: [[1, 0], [0, 1]]})},
    )
    validate_registered_map(rmap)

    def lax_push(abar, v, target):
        return apply_registered(rmap, transport(v, abar), target_twist=target)

    k_triv = x.trivial_bundle()
    piece = w_p1.piece(1, (0,))
    ring_elems = [ring.element(0, (), c) for c in ring.piece(0, ()).elements()]
    checked = 0
    for ua, ub, uc in it.product(((0,), (1,)), repeat=3):
        abar = AlignmentClass(
            p1.bundle([0]), p1.bundle([-2]), p1.pic.element([-1]), ua
        )
        bbar = AlignmentClass(
            p1.bundle([0]), p1.bundle([-2]), p1.pic.element([-1]), ub
        )
        c = k_alignment(k_triv, x.trivial_bundle(), x.pic.zero(), uc)
        cbar = solve_coefficient_square(pi, "push", abar, bbar, c=c)
        for coords in piece.elements():
            wbar = w_p1.element(1, (0,), coords)
            for lam in ring_elems:
                lhs = lax_product(lam, c, lax_push(abar, wbar, x.pic.zero()))
                rhs = lax_push(
                    bbar, lax_product(lam, cbar, wbar), x.pic.zero()
                )
                assert compare_classes(lhs, rhs)
                checked += 1
    assert checked == 8 * 4 * 4


# ---------------------------------------------------------------------------
# expression evaluation


def test_eval_expr_empty_and_scalar(data):
    w_p1 = data["W_P1"]
    p1 = data["geo"]["P1"]
    w = w_p1.element(0, (0,), [1, 0])
    dom = TwistedGroupRef(p1, "total", 0, p1.pic.zero())
    e = MorphismExpr(dom, [])
    assert compare_classes(eval_expr(e, w), w)
    e2 = MorphismExpr(dom, [per_gen(p1.bundle([1]))])
    out = eval_expr(e2, w)
    assert out.twist.coords == (2,)
    assert compare_classes(out, transport(w, AlignmentClass(
        p1.bundle([0]), p1.bundle([2]), p1.pic.element([1]), (0,)
    )))


def test_eval_expr_matches_normal_form(data):
    # a word and its normal form act identically on every fixture element
    geo = data["geo"]
    p1, a1 = geo["P1"], geo["A1"]
    w_a1, w_z = data["W_A1"], data["W_zP1"]
    dom = TwistedGroupRef(a1, "total", 0, a1.pic.element([]))
    word = [
        Bord(geo["loc"], p1.pic.element([1])),
        per_gen(p1.bundle([2])),
        Scalar(p1, p1.pic.zero(), (1,)),
        Ext(p1, "z", "total"),
    ]
    e = MorphismExpr(dom, word)
    n = normalize(e)
    for coords in itertools.product(range(2), repeat=2):
        w = w_a1.element(0, (), list(coords))
        out_e = eval_expr(e, w)
        out_n = eval_expr(n, w)
        assert compare_classes(out_e, out_n)


def test_eval_pull_then_push_roundtrip(data):
    # push_iota after pull_piZpt realizes the closed-point class
    w_x, w_z = data["W_Xm"], data["W_zP1"]
    geo = data["geo"]
    p1, zpt, x = geo["P1"], geo["Zpt"], geo["X"]
    one = w_x.element(0, (), [1, 0])
    dom = TwistedGroupRef(x, "total", 0, x.pic.zero())
    e = MorphismExpr(
        dom,
        [Pull(zpt.structure_map), Push(geo["iota"], p1.pic.element([1]))],
    )
    out = eval_expr(e, one)
    assert out.parent is w_z and out.degree == 1 and out.key == (1,)
    assert out.coords.coords == (1, 0)


# ---------------------------------------------------------------------------
# registered-map axioms, one kind at a time


@pytest.fixture(scope="module")
def axiom_geo():
    """Empty presentations over the projective-line geometry, with a
    localization whose open part P1b has Pic = Z, so that every kind's
    block transport lives on a scheme with nonzero Picard group."""
    from wtc.module import WittModulePresentation
    from wtc.schemes import Localization

    from .util import _swap_ring, p1_geometry

    geo = p1_geometry()
    x, p1, p1b = geo["X"], geo["P1"], geo["P1b"]
    ring = _swap_ring(x)

    def pres(name, scheme, support):
        reps = {(): scheme.pic.zero()} if scheme is x else {
            (0,): scheme.pic.element([0]), (1,): scheme.pic.element([1])
        }
        return WittModulePresentation(name, scheme, ring, support, {}, reps)

    return {
        **geo,
        "pi_P1": p1.structure_map,
        "W_X": pres("W_X", x, "total"),
        "W_P1": pres("W_P1", p1, "total"),
        "W_zP1": pres("W_zP1", p1, "z"),
        "W_P1b": pres("W_P1b", p1b, "total"),
        "loc_b": Localization("zloc_b", p1, "z", p1b, geo["f"]),
    }


# kind, source, target, morphism, localization, block class, transport scheme
KIND_CASES = [
    ("pull", "W_P1", "W_P1b", "f", None, (1,), "P1b"),
    ("restrict", "W_P1", "W_P1b", "f", "loc_b", (1,), "P1b"),
    ("ext", "W_zP1", "W_P1", None, None, (1,), "P1"),
    ("push", "W_P1", "W_X", "pi_P1", None, (), "P1"),
    ("bord", "W_P1b", "W_zP1", None, "loc_b", (1,), "P1b"),
]


def _axiom_map(g, kind, src, tgt, morphism, triple, blocks=None):
    return RegisteredMap(
        f"{kind}_map", kind, g[src], g[tgt], g.get(morphism), g.get(triple),
        blocks or {},
    )


@pytest.mark.parametrize(
    "kind,src,tgt,morphism,triple,key,scheme",
    KIND_CASES,
    ids=[c[0] for c in KIND_CASES],
)
def test_map_transport_with_wrong_endpoints(
    axiom_geo, kind, src, tgt, morphism, triple, key, scheme
):
    from wtc.align import identity_alignment
    from wtc.module import default_block_transport

    g = axiom_geo
    stub = _axiom_map(g, kind, src, tgt, morphism, triple)
    good = {key: (default_block_transport(stub, key), {})}
    validate_registered_map(_axiom_map(g, kind, src, tgt, morphism, triple, good))
    assert good[key][0].scheme is g[scheme]
    # no block transport of these maps starts or ends at 7 times the generator
    wrong = {key: (identity_alignment(g[scheme].bundle([7])), {})}
    with pytest.raises(ValidationError) as err:
        validate_registered_map(_axiom_map(g, kind, src, tgt, morphism, triple, wrong))
    assert err.value.axiom == "map_transport"


@pytest.mark.parametrize(
    "kind,src,tgt,morphism",
    [
        ("pull", "W_P1b", "W_P1", "f"),  # source and target swapped
        ("ext", "W_zP1", "W_P1b", None),  # extension leaves its scheme
    ],
)
def test_map_endpoints_mismatch(axiom_geo, kind, src, tgt, morphism):
    rmap = _axiom_map(axiom_geo, kind, src, tgt, morphism, None)
    with pytest.raises(ValidationError) as err:
        validate_registered_map(rmap)
    assert err.value.axiom == "map_endpoints"


def test_map_support_without_inclusion(axiom_geo):
    # extension runs from the smaller support to the larger, never back
    backwards = _axiom_map(axiom_geo, "ext", "W_P1", "W_zP1", None, None)
    with pytest.raises(ValidationError) as err:
        validate_registered_map(backwards)
    assert err.value.axiom == "map_support"
