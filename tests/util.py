"""Shared builders for small symbolic schemes used across the test suite."""

from wtc.abelian import FgAbGroup, GroupHom
from wtc.f2 import F2Map, F2Space
from wtc.schemes import (
    MorphismDescriptor,
    ProperData,
    SchemeDescriptor,
    identity_morphism,
)


def make_scheme(name, invariants=(), unit_labels=(), supports=("total",), inclusions=()):
    pic = FgAbGroup.from_invariants(list(invariants)) if invariants else FgAbGroup((), ngens=0)
    return SchemeDescriptor(
        name,
        pic,
        F2Space(tuple(unit_labels)),
        supports=supports,
        support_inclusions=inclusions,
    )


def make_base(name="X", invariants=(), unit_labels=()):
    x = make_scheme(name, invariants, unit_labels)
    x.structure_map = identity_morphism(x)
    return x


def make_morphism(
    name,
    source,
    target,
    pic_cols,
    unit_cols,
    omega=None,
    dim=None,
    annotations=(),
    support_map=None,
    push_support_map=None,
):
    """pic_cols: canonical images in source.pic of target.pic generators."""
    proper = None
    if omega is not None:
        proper = ProperData(source.pic.element(omega), dim or 0)
    return MorphismDescriptor(
        name,
        source,
        target,
        GroupHom(target.pic, source.pic, pic_cols),
        F2Map(target.units, source.units, unit_cols),
        proper_data=proper,
        annotations=frozenset(annotations),
        support_map=support_map or {},
        push_support_map=push_support_map or {},
    )


def over_base(scheme, base, pic_cols, unit_cols, name=None, **kw):
    """Wire a structure morphism scheme -> base and return it."""
    pi = make_morphism(
        name or f"pi_{scheme.name}", scheme, base, pic_cols, unit_cols, **kw
    )
    scheme.structure_map = pi
    return pi


def f1_pair():
    """Base with trivial Picard group, two schemes with Pic = Z and a map
    between them pulling the generator to the generator; units everywhere
    one-dimensional and compatible."""
    x = make_base("X", (), ("a",))
    y = make_scheme("Y", (0,), ("a",))
    ybar = make_scheme("Ybar", (0,), ("a",))
    over_base(y, x, pic_cols=[], unit_cols=[(1,)])
    over_base(ybar, x, pic_cols=[], unit_cols=[(1,)])
    f = make_morphism("f", ybar, y, pic_cols=[[1]], unit_cols=[(1,)])
    return x, y, ybar, f


def p1_geometry():
    """The projective-line setting over a point: base X, the line P1 with a
    closed point z and open complement A1, a second copy P1b mapping to P1,
    and the localization triple.  No module data, just geometry."""
    from wtc.schemes import Localization

    x = make_base("X", (), ("a",))
    p1 = make_scheme(
        "P1", (0,), ("a",), supports=("total", "z"), inclusions=(("z", "total"),)
    )
    p1.pic.names = ("h",)
    a1 = make_scheme("A1", (), ("a",))
    zpt = make_scheme("Zpt", (), ("a",))
    p1b = make_scheme("P1b", (0,), ("a",))
    p1b.pic.names = ("hb",)

    over_base(
        p1, x, pic_cols=[], unit_cols=[(1,)], omega=[-2], dim=1,
        push_support_map={"z": "total", "total": "total"},
    )
    over_base(
        a1, x, pic_cols=[], unit_cols=[(1,)],
        annotations=("affine_bundle", "witt_pullback_iso"),
    )
    over_base(
        zpt, x, pic_cols=[], unit_cols=[(1,)],
        annotations=("affine_bundle", "witt_pullback_iso"),
        omega=[], dim=0,
    )
    over_base(p1b, x, pic_cols=[], unit_cols=[(1,)], omega=[-2], dim=1)

    iota = make_morphism(
        "iota", zpt, p1, pic_cols=[[]], unit_cols=[(1,)],
        omega=[], dim=-1,
        annotations=("witt_pushforward_iso",),
        push_support_map={"total": "z"},
    )
    upsilon = make_morphism(
        "upsilon", a1, p1, pic_cols=[[]], unit_cols=[(1,)],
        support_map={"total": "total"},
    )
    f = make_morphism("f", p1b, p1, pic_cols=[[1]], unit_cols=[(1,)])
    loc = Localization("zloc", p1, "z", a1, upsilon)
    return {
        "X": x, "P1": p1, "A1": a1, "Zpt": zpt, "P1b": p1b,
        "iota": iota, "upsilon": upsilon, "f": f, "loc": loc,
    }


def _swap_ring(x):
    """Witt ring of a field with one nontrivial unit class: as a group
    (Z/2)^2 on generators <1>, <a>, with <a>^2 = <1>."""
    from wtc.abelian import FgAbGroup
    from wtc.module import BaseWittRing

    b00 = FgAbGroup.from_invariants([2, 2])
    table = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    return BaseWittRing(
        "W_X",
        x,
        pieces={(0, ()): b00},
        representatives={(): x.pic.zero()},
        unit_coords=[1, 0],
        products={((0, ()), (0, ())): (table, None)},
        unit_class={"a": [0, 1]},
    )


def p1_module_data():
    """Module presentations over the projective-line geometry: the ring of
    the base acting on the Witt groups of X, Zpt, A1, P1 and of P1 with
    support in the closed point, with all registered maps."""
    from wtc.abelian import FgAbGroup
    from wtc.module import (
        RegisteredMap,
        WittModulePresentation,
        validate_registered_map,
    )

    geo = p1_geometry()
    x, p1, a1, zpt = geo["X"], geo["P1"], geo["A1"], geo["Zpt"]
    ring = _swap_ring(x)
    swap_table = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]

    def grp():
        return FgAbGroup.from_invariants([2, 2])

    def pres(name, scheme, support, piece_keys, scope_reps):
        pieces = {pk: grp() for pk in piece_keys}
        action = {}
        for (k, p) in piece_keys:
            action[((0, ()), (k, p))] = (swap_table, None)
        return WittModulePresentation(
            name, scheme, ring, support, pieces, scope_reps, action=action
        )

    w_x = pres("W_Xm", x, "total", [(0, ())], {(): x.pic.zero()})
    w_zpt = pres("W_Zpt", zpt, "total", [(0, ())], {(): zpt.pic.zero()})
    w_a1 = pres("W_A1", a1, "total", [(0, ())], {(): a1.pic.zero()})
    p1_reps = {(0,): p1.pic.element([0]), (1,): p1.pic.element([1])}
    w_p1 = pres(
        "W_P1", p1, "total", [(0, (0,)), (1, (0,))], p1_reps
    )
    w_z = pres(
        "W_zP1", p1, "z", [(1, (0,)), (1, (1,))], dict(p1_reps)
    )

    ident = {"0": None}  # placeholder, matrices built below
    eye = [[1, 0], [0, 1]]

    def reg(name, kind, src, tgt, blocks, morphism=None, triple=None):
        built = {}
        for key, (tr, mats) in blocks.items():
            from wtc.module import default_block_transport

            rmap_stub = RegisteredMap(name, kind, src, tgt, morphism, triple)
            if tr is None and kind in ("pull", "restrict", "ext"):
                tr_align = default_block_transport(rmap_stub, key)
            elif tr is None:
                # push/bord canonical: source rep ⇝ twisted pulled target rep
                if kind == "push":
                    f = morphism
                    want_tgt = f.omega + f.pic_pullback.apply(tgt.rep(key))
                else:
                    ups = triple.upsilon
                    want_tgt = ups.pic_pullback.apply(tgt.rep(key))
                from wtc.abelian import canonical_sqrt
                from wtc.align import AlignmentClass
                from wtc.schemes import LineBundle

                src_rep = src.rep(src.class_of(want_tgt))
                m = canonical_sqrt(src.scheme.pic, want_tgt - src_rep)
                tr_align = AlignmentClass(
                    LineBundle(src.scheme, src_rep),
                    LineBundle(src.scheme, want_tgt),
                    m,
                    src.scheme.units.zero(),
                )
            else:
                tr_align = tr
            built[key] = (tr_align, mats)
        rmap = RegisteredMap(name, kind, src, tgt, morphism, triple, built)
        validate_registered_map(rmap)
        src.register_map(rmap)
        return rmap

    maps = {}
    maps["pull_piA1"] = reg(
        "pull_piA1", "pull", w_x, w_a1,
        {(): (None, {0: eye})}, morphism=a1.structure_map,
    )
    maps["pull_piZpt"] = reg(
        "pull_piZpt", "pull", w_x, w_zpt,
        {(): (None, {0: eye})}, morphism=zpt.structure_map,
    )
    maps["push_iota"] = reg(
        "push_iota", "push", w_zpt, w_z,
        {(0,): (None, {0: eye}), (1,): (None, {0: eye})},
        morphism=geo["iota"],
    )
    maps["ext_z"] = reg(
        "ext_z", "ext", w_z, w_p1,
        {(0,): (None, {1: eye}), (1,): (None, {})},
    )
    maps["res_ups"] = reg(
        "res_ups", "restrict", w_p1, w_a1,
        {(0,): (None, {0: eye}), (1,): (None, {})},
        morphism=geo["upsilon"], triple=geo["loc"],
    )
    maps["bord_ups"] = reg(
        "bord_ups", "bord", w_a1, w_z,
        {(0,): (None, {}), (1,): (None, {0: eye})},
        triple=geo["loc"],
    )
    return {
        "geo": geo, "ring": ring,
        "W_Xm": w_x, "W_Zpt": w_zpt, "W_A1": w_a1, "W_P1": w_p1, "W_zP1": w_z,
        "maps": maps,
    }


def mixed_localization_data():
    """A synthetic localization where one class carries all three pair
    kinds at once: extension hits degree 1, restriction is onto in degree
    0, and the connecting map is an isomorphism from degree 1 to 2."""
    from wtc.abelian import FgAbGroup
    from wtc.module import RegisteredMap, WittModulePresentation, validate_registered_map
    from wtc.schemes import Localization

    x = make_base("X", (), ())
    y = make_scheme(
        "Y", (), (), supports=("total", "zz"), inclusions=(("zz", "total"),)
    )
    u = make_scheme("U", (), ())
    over_base(y, x, pic_cols=[], unit_cols=[])
    over_base(u, x, pic_cols=[], unit_cols=[])
    ups = make_morphism("ups", u, y, pic_cols=[], unit_cols=[],
                        support_map={"total": "total"})
    loc = Localization("loc", y, "zz", u, ups)

    from wtc.module import BaseWittRing

    z2 = lambda: FgAbGroup.from_invariants([2])
    ring = BaseWittRing(
        "W_X", x,
        pieces={(0, ()): z2()},
        representatives={(): x.pic.zero()},
        unit_coords=[1],
        products={((0, ()), (0, ())): ([[[1]]], None)},
    )

    def pres(name, scheme, support, degrees):
        pieces = {(d, ()): z2() for d in degrees}
        action = {((0, ()), (d, ())): ([[[1]]], None) for d in degrees}
        return WittModulePresentation(
            name, scheme, ring, support, pieces, {(): scheme.pic.zero()},
            action=action,
        )

    w_z = pres("Wz", y, "zz", [1, 2])
    w_y = pres("Wy", y, "total", [0, 1])
    w_u = pres("Wu", u, "total", [0, 1])
    eye = [[1]]

    def reg(name, kind, src, tgt, matrices, morphism=None, triple=None):
        from wtc.module import default_block_transport
        from wtc.abelian import canonical_sqrt
        from wtc.align import AlignmentClass
        from wtc.schemes import LineBundle

        stub = RegisteredMap(name, kind, src, tgt, morphism, triple)
        if kind in ("pull", "restrict", "ext"):
            tr = default_block_transport(stub, ())
        else:
            want = (triple.upsilon if kind == "bord" else morphism).pic_pullback.apply(
                tgt.rep(())
            )
            if kind == "push":
                want = morphism.omega + want
            m = canonical_sqrt(src.scheme.pic, want - src.rep(()))
            tr = AlignmentClass(
                LineBundle(src.scheme, src.rep(())),
                LineBundle(src.scheme, want),
                m,
                src.scheme.units.zero(),
            )
        rmap = RegisteredMap(
            name, kind, src, tgt, morphism, triple, {(): (tr, matrices)}
        )
        validate_registered_map(rmap)
        src.register_map(rmap)
        return rmap

    ext = reg("ext", "ext", w_z, w_y, {1: eye})
    res = reg("res", "restrict", w_y, w_u, {0: eye}, morphism=ups, triple=loc)
    bord = reg("bord", "bord", w_u, w_z, {1: eye}, triple=loc)
    return {
        "x": x, "y": y, "u": u, "loc": loc, "ring": ring,
        "Wz": w_z, "Wy": w_y, "Wu": w_u,
        "ext": ext, "res": res, "bord": bord,
    }


def torsion_pair():
    """Base with Pic = Z/2, schemes with Pic = Z + Z/2; the base torsion
    pulls back to the fiber torsion so the relative Picard group is free."""
    x = make_base("X", (2,), ("a",))
    y = make_scheme("Y", (0, 2), ("a",))
    ybar = make_scheme("Ybar", (0, 2), ("a",))
    # canonical coords of Pic(Y): (torsion t, free h)
    over_base(y, x, pic_cols=[[1, 0]], unit_cols=[(1,)])
    over_base(ybar, x, pic_cols=[[1, 0]], unit_cols=[(1,)])
    f = make_morphism(
        "f", ybar, y, pic_cols=[[1, 0], [0, 1]], unit_cols=[(1,)]
    )
    return x, y, ybar, f


def descent_tower(r, k, sign, cbits):
    """The tower Ybar -> Y over X with Pic(Y) = Pic(Ybar) = Z + (Z/2)^r.

    Pic(X) = (Z/2)^r pulls back to the torsion of both schemes (canonical
    coordinates: the torsion t_1..t_r first, then h).  X and Y carry k + 2
    unit classes, Ybar two, and the unit pullbacks to Ybar keep the first
    two, so ``f``'s unit kernel has dimension k.  ``f^*`` fixes the torsion
    and sends h to ``sign*hb + sum cbits_i*tb_i``.

    For L1, L2 on Y with equal torsion parts and h coefficients that
    differ by 2a, the alignment ``f*L1 ⇝ f*L2`` with square root
    ``sign*a*hb + tau`` and unit class ``ubar`` descends to ``a*h + t`` with
    ``t = tau + a*cbits`` mod 2 and to ``ubar`` padded with k zeros.
    """
    units = ("a", "b") + tuple(f"c{j}" for j in range(1, k + 1))
    eye = [[1 if i == j else 0 for i in range(r)] for j in range(r)]
    torsion_in = [col + [0] for col in eye]  # s_i -> t_i
    keep_two = [(1, 0), (0, 1)] + [(0, 0)] * k
    x = make_base("X", (2,) * r, units)
    y = make_scheme("Y", (2,) * r + (0,), units)
    ybar = make_scheme("Ybar", (2,) * r + (0,), units[:2])
    over_base(y, x, pic_cols=torsion_in, unit_cols=[
        tuple(1 if i == j else 0 for i in range(k + 2)) for j in range(k + 2)
    ])
    over_base(ybar, x, pic_cols=torsion_in, unit_cols=keep_two)
    f = make_morphism(
        "f", ybar, y,
        pic_cols=torsion_in + [list(cbits) + [sign]],
        unit_cols=keep_two,
    )
    return y, ybar, f
