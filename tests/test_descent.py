import dataclasses
import itertools

import pytest

from wtc.align import (
    AlignmentClass,
    alignments_between,
    compose,
    identity_alignment,
    k_alignment,
    pull_alignment,
    shriek_alignment,
    tensor,
)
from wtc.descent import (
    certify_smpic,
    descend_alignment,
    move_coefficient,
    picard_chase,
    realign,
    relative_class_mod2,
    require_smpic,
    solve_coefficient_square,
)
from wtc.errors import ClassMismatch, HypothesisFailed, InternalContradiction, NotSmPic

from .util import f1_pair, make_base, make_morphism, make_scheme, over_base, torsion_pair


# ---------------------------------------------------------------------------
# certification


def test_certify_passes_on_f1():
    x, y, ybar, f = f1_pair()
    cert = certify_smpic(y.structure_map)
    assert cert.passed


def test_certify_fails_torsion():
    x = make_base("X")
    ybad = make_scheme("Ybad", (2,), ())
    over_base(ybad, x, pic_cols=[], unit_cols=[])
    cert = certify_smpic(ybad.structure_map)
    assert not cert.torsion_free
    in_cok, lift = cert.torsion_witness
    assert not in_cok.is_zero()
    assert lift is not None and not lift.is_zero()
    assert cert.pic_injective and cert.units_surjective


def test_certify_fails_units():
    x = make_base("X", (), ("a",))
    ybad = make_scheme("Ybad", (), ("a", "b"))
    over_base(ybad, x, pic_cols=[], unit_cols=[(1, 0)])
    cert = certify_smpic(ybad.structure_map)
    assert cert.units_surjective is False
    assert cert.units_witness is not None
    assert cert.passed is False


def test_certify_fails_injectivity():
    x = make_base("Xz2", (2,), ())
    ybad = make_scheme("Ybad", (), ())
    over_base(ybad, x, pic_cols=[[]], unit_cols=[])
    cert = certify_smpic(ybad.structure_map)
    assert not cert.pic_injective
    assert cert.pic_injective_witness is not None


# ---------------------------------------------------------------------------
# chases


def test_chase_torsion_bijection_f1():
    x, y, ybar, f = f1_pair()
    res = picard_chase(f, "torsion_bijection")
    assert res.holds
    assert list(res.inverse) == [ybar.pic.zero()]


def test_chase_torsion_bijection_torsion_fixture():
    x, y, ybar, f = torsion_pair()
    res = picard_chase(f, "torsion_bijection")
    assert res.holds
    t_up = ybar.pic.element([1, 0])
    assert res.inverse[t_up] == y.pic.element([1, 0])


def test_chase_base_sequence():
    for fixture in (f1_pair, torsion_pair):
        x, y, ybar, f = fixture()
        res = picard_chase(f, "base_sequence")
        assert res.holds, res.witness


def test_chase_joint_injection_exhaustive():
    for fixture in (f1_pair, torsion_pair):
        x, y, ybar, f = fixture()
        res = picard_chase(f, "joint_injection")
        assert res.holds
        # element-by-element cartesian consequence: a class mod 2 vanishes
        # iff both images vanish
        from wtc.abelian import hom_mod2, mod2_reduction
        from wtc.descent import relative_pic

        cok, proj = relative_pic(y)
        y2, y_red = mod2_reduction(y.pic)
        cok2, cok_red = mod2_reduction(cok)
        up2 = mod2_reduction(ybar.pic)
        to_rel = hom_mod2(proj, (y2, y_red), (cok2, cok_red))
        to_up = hom_mod2(f.pic_pullback, (y2, y_red), up2)
        for v in y2.vectors():
            vanishes = not any(v)
            both = (not any(to_rel.apply(v))) and (not any(to_up.apply(v)))
            assert vanishes == both


def test_chase_matching_bundle():
    x, y, ybar, f = torsion_pair()
    # L = h downstairs, Lbar = f^*h + pulled base torsion upstairs:
    # they agree in the relative quotient; the corrected bundle closes mod 2
    l = y.bundle([0, 1])
    lbar = ybar.bundle([1, 1])
    res = picard_chase(f, "matching_bundle", bundle=l, bundle_bar=lbar)
    assert res.holds
    corrected = res.bundle
    assert relative_class_mod2(y, corrected.cls) == relative_class_mod2(y, l.cls)
    from wtc.abelian import mod2_reduction

    _, red = mod2_reduction(ybar.pic)
    assert red(f.pic_pullback.apply(corrected.cls)) == red(lbar.cls)
    # the correction really used the nontrivial base class
    assert corrected.cls != l.cls


def test_chase_matching_bundle_hypothesis_failure():
    x, y, ybar, f = f1_pair()
    with pytest.raises(HypothesisFailed):
        picard_chase(
            f, "matching_bundle", bundle=y.bundle([0]), bundle_bar=ybar.bundle([1])
        )


# ---------------------------------------------------------------------------
# descent


def oracle_descents(f, abar, l1, l2):
    """Exhaustive search for all A with f^*A = abar."""
    out = []
    for a in alignments_between(l1, l2):
        p = pull_alignment(f, a)
        if p.data() == abar.data():
            out.append(a)
    return out


def test_descend_basic_f1():
    x, y, ybar, f = f1_pair()
    l1, l2 = y.bundle([0]), y.bundle([2])
    abar = AlignmentClass(
        ybar.bundle([0]), ybar.bundle([2]), ybar.pic.element([1]), (1,)
    )
    cert = descend_alignment(f, abar, l1, l2)
    assert cert.check
    assert cert.output.data() == ((1,), (1,))
    oracle = oracle_descents(f, abar, l1, l2)
    assert cert.output.data() in {a.data() for a in oracle}


def test_descend_class_mismatch():
    x, y, ybar, f = f1_pair()
    l1, l2 = y.bundle([0]), y.bundle([1])
    abar_candidates = alignments_between(ybar.bundle([0]), ybar.bundle([1]))
    # upstairs the classes differ mod 2 as well, so build a fake alignment
    # downstairs-side check must fire first on the class mismatch
    with pytest.raises(ClassMismatch):
        descend_alignment(
            f,
            identity_alignment(ybar.bundle([0])),
            l1,
            l2,
        )


def test_descend_with_torsion_correction():
    x, y, ybar, f = torsion_pair()
    l1, l2 = y.bundle([0, 0]), y.bundle([0, 2])
    # upstairs alignment with the torsion-shifted square root
    abar = AlignmentClass(
        ybar.bundle([0, 0]), ybar.bundle([0, 2]), ybar.pic.element([1, 1]), (0,)
    )
    cert = descend_alignment(f, abar, l1, l2)
    assert cert.output.m.coords == (1, 1)
    oracle = oracle_descents(f, abar, l1, l2)
    assert [cert.output.data()] == sorted(a.data() for a in oracle)


def test_descend_exhaustive_f1_window():
    x, y, ybar, f = f1_pair()
    for c1, c2 in itertools.product(range(-2, 3), repeat=2):
        l1, l2 = y.bundle([c1]), y.bundle([c2])
        upstairs = alignments_between(f.pull_bundle(l1), f.pull_bundle(l2))
        same_class = relative_class_mod2(y, l1.cls) == relative_class_mod2(y, l2.cls)
        for abar in upstairs:
            if not same_class:
                with pytest.raises(ClassMismatch):
                    descend_alignment(f, abar, l1, l2)
                continue
            cert = descend_alignment(f, abar, l1, l2)
            oracle = oracle_descents(f, abar, l1, l2)
            assert cert.output.data() in {a.data() for a in oracle}
            # canonical output: lexicographically smallest unit among oracle
            assert cert.output.data() == min(a.data() for a in oracle)


def test_descend_shriek():
    x, y, ybar, _ = f1_pair()
    f = make_morphism(
        "fp", ybar, y, pic_cols=[[1]], unit_cols=[(1,)], omega=[-2], dim=1
    )
    l1, l2 = y.bundle([0]), y.bundle([2])
    abar = AlignmentClass(
        ybar.bundle([-2]), ybar.bundle([0]), ybar.pic.element([1]), (1,)
    )
    cert = descend_alignment(f, abar, l1, l2, mode="shriek")
    assert cert.check
    assert shriek_alignment(f, cert.output).data() == abar.data()


def test_descend_canonicalizes_over_unit_kernel():
    # both schemes certified, but the descent morphism kills one unit
    # generator: the unit part of the output is only determined up to the
    # kernel and must come out as the smallest coset representative
    x = make_base("X", (), ("a", "b"))
    y = make_scheme("Y", (0,), ("a", "b"))
    ybar = make_scheme("Ybar", (0,), ("c",))
    over_base(y, x, pic_cols=[], unit_cols=[(1, 0), (0, 1)])
    over_base(ybar, x, pic_cols=[], unit_cols=[(1,), (0,)])
    f = make_morphism("f", ybar, y, pic_cols=[[1]], unit_cols=[(1,), (0,)])
    l1, l2 = y.bundle([0]), y.bundle([2])
    from wtc.align import AlignmentClass as AC

    abar = AC(ybar.bundle([0]), ybar.bundle([2]), ybar.pic.element([1]), (1,))
    cert = descend_alignment(f, abar, l1, l2)
    assert cert.check
    solutions = [
        a.data() for a in alignments_between(l1, l2)
        if pull_alignment(f, a).data() == abar.data()
    ]
    assert len(solutions) == 2  # the kernel generator b gives a second one
    assert cert.output.data() == min(solutions)


def test_descend_requires_certified_schemes():
    x = make_base("X")
    ybad = make_scheme("Ybad", (2,), ())
    over_base(ybad, x, pic_cols=[], unit_cols=[])
    with pytest.raises(NotSmPic):
        descend_alignment(
            ybad.structure_map,
            identity_alignment(ybad.trivial_bundle()),
            x.trivial_bundle(),
            x.trivial_bundle(),
        )


def test_certificate_follows_rewired_structure_map():
    # the certificate is kept per structure morphism, not per scheme: a
    # scheme rewired to a failing map must get the new verdict
    x = make_base("X", (), ("a",))
    y = make_scheme("Y", (0,), ("a",))
    good = over_base(y, x, pic_cols=[], unit_cols=[(1,)])
    cert = require_smpic(y)
    assert cert.passed and cert.morphism is good
    assert require_smpic(y) is cert
    with pytest.raises(dataclasses.FrozenInstanceError):
        cert.units_surjective = False
    bad = over_base(y, x, pic_cols=[], unit_cols=[(0,)])
    with pytest.raises(NotSmPic) as exc:
        require_smpic(y)
    assert exc.value.witness.morphism is bad
    assert not exc.value.witness.units_surjective
    over_base(y, x, pic_cols=[], unit_cols=[(1,)])
    assert require_smpic(y).passed


def torsion_killing_tower(invariants, pic_cols):
    """Y and Ybar with Pic = (Z/2)^n, each certified over a base with the
    same Picard group (identity pullback), and f: Ybar -> Y with the given
    Picard pullback; certification holds, so only the 2-torsion step of
    descent can fail."""
    n = len(invariants)
    eye = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    x = make_base("X", invariants, ("a",))
    y = make_scheme("Y", invariants, ("a",))
    ybar = make_scheme("Ybar", invariants, ("a",))
    over_base(y, x, pic_cols=eye, unit_cols=[(1,)])
    over_base(ybar, x, pic_cols=eye, unit_cols=[(1,)])
    f = make_morphism("f", ybar, y, pic_cols=pic_cols, unit_cols=[(1,)])
    return y, ybar, f


def test_descend_torsion_correction_not_unique():
    # f^* kills Pic(Y)[2] = Z/2, so both torsion classes correct delta = 0
    y, ybar, f = torsion_killing_tower((2,), pic_cols=[[0]])
    l0 = y.trivial_bundle()
    abar = identity_alignment(ybar.trivial_bundle())
    with pytest.raises(
        InternalContradiction,
        match="torsion correction not unique despite certified bijection",
    ) as exc:
        descend_alignment(f, abar, l0, l0)
    assert exc.value.witness == ybar.pic.zero()


def test_descend_torsion_correction_missing():
    # f^*(Pic(Y)[2]) = {0, t1} in (Z/2)^2, and delta = t2 lies outside it
    y, ybar, f = torsion_killing_tower((2, 2), pic_cols=[[1, 0], [1, 0]])
    l0 = y.trivial_bundle()
    delta = ybar.pic.element([0, 1])
    abar = AlignmentClass(ybar.trivial_bundle(), ybar.trivial_bundle(), delta, (0,))
    with pytest.raises(
        InternalContradiction,
        match="torsion correction not unique despite certified bijection",
    ) as exc:
        descend_alignment(f, abar, l0, l0)
    assert exc.value.witness == delta


# ---------------------------------------------------------------------------
# realign / coefficient moves


def test_realign_identity():
    x, y, ybar, f = f1_pair()
    lbar = ybar.bundle([2])
    a = AlignmentClass(ybar.bundle([0]), lbar, ybar.pic.element([1]), (0,))
    out = realign(f, a, a, y.bundle([0]), y.bundle([0]), "pull")
    assert out.is_identity()


def test_realign_pull_recomposes():
    x, y, ybar, f = f1_pair()
    l1, l2 = y.bundle([0]), y.bundle([4])
    lbar = ybar.bundle([4])
    a1 = AlignmentClass(ybar.bundle([0]), lbar, ybar.pic.element([2]), (1,))
    a2 = AlignmentClass(ybar.bundle([4]), lbar, ybar.pic.element([0]), (0,))
    a = realign(f, a1, a2, l1, l2, "pull")
    assert compose(a2, pull_alignment(f, a)).data() == a1.data()


def test_realign_push_recomposes():
    x, y, ybar, _ = f1_pair()
    f = make_morphism(
        "fp", ybar, y, pic_cols=[[1]], unit_cols=[(1,)], omega=[-2], dim=1
    )
    l1, l2 = y.bundle([0]), y.bundle([2])
    lbar = ybar.bundle([0])
    a1 = AlignmentClass(lbar, ybar.bundle([-2]), ybar.pic.element([-1]), (0,))
    a2 = AlignmentClass(lbar, ybar.bundle([0]), ybar.pic.element([0]), (1,))
    a = realign(f, a1, a2, l1, l2, "push")
    assert compose(shriek_alignment(f, a), a1).data() == a2.data()


def test_move_coefficient_trivial():
    x, y, ybar, f = f1_pair()
    ka = k_alignment(x.trivial_bundle(), y.bundle([0]), y.pic.element([1]), (0,))
    c = move_coefficient(y, ka, ka)
    assert c.is_identity()


def test_move_coefficient_unit_difference():
    x, y, ybar, f = f1_pair()
    k = x.trivial_bundle()
    a1 = k_alignment(k, y.bundle([0]), y.pic.element([1]), (1,))
    a2 = k_alignment(k, y.bundle([0]), y.pic.element([1]), (0,))
    c = move_coefficient(y, a1, a2)
    assert c.m.is_zero() and c.u == (1,)
    moved = compose(
        a2.inner,
        tensor(pull_alignment(y.structure_map, c), identity_alignment(a1.l1)),
    )
    assert moved.data() == a1.inner.data()


def test_move_coefficient_base_torsion():
    x, y, ybar, f = torsion_pair()
    # K1 = O, K2 = the base torsion class squared away: 2*[s] = 0, so a
    # relative alignment with K2 = 2*s-shifted data reduces to solving
    # 2*C.m = K2 - K1 = 0 with the twist bookkeeping done by descent
    k1 = x.trivial_bundle()
    k2 = x.trivial_bundle()
    a1 = k_alignment(k1, y.bundle([0, 0]), y.pic.element([1, 0]), (0,))
    a2 = k_alignment(k2, y.bundle([0, 0]), y.pic.element([0, 0]), (0,))
    c = move_coefficient(y, a1, a2)
    # C.m must solve 2*C.m = 0 with pullback matching the torsion shift
    assert c.m.coords == (1,)
    moved = compose(
        a2.inner,
        tensor(pull_alignment(y.structure_map, c), identity_alignment(a1.l1)),
    )
    assert moved.data() == a1.inner.data()


def test_solve_coefficient_square_identity():
    x, y, ybar, f = f1_pair()
    k = x.trivial_bundle()
    abar = identity_alignment(ybar.bundle([0]))
    bbar = identity_alignment(ybar.bundle([2]))
    c = k_alignment(k, y.bundle([0]), y.pic.element([1]), (0,))
    cbar = solve_coefficient_square(f, "pull", abar, bbar, c=c)
    assert cbar.inner.data() == c.inner.data()


def test_solve_coefficient_square_pull_roundtrip():
    x, y, ybar, f = f1_pair()
    k = x.trivial_bundle()
    abar = AlignmentClass(ybar.bundle([0]), ybar.bundle([2]), ybar.pic.element([1]), (1,))
    bbar = AlignmentClass(ybar.bundle([2]), ybar.bundle([0]), ybar.pic.element([-1]), (0,))
    c = k_alignment(k, y.bundle([0]), y.pic.element([1]), (1,))
    cbar = solve_coefficient_square(f, "pull", abar, bbar, c=c)
    c_back = solve_coefficient_square(f, "pull", abar, bbar, cbar=cbar)
    assert c_back.inner.data() == c.inner.data()
    assert c_back.k.cls == c.k.cls


def test_solve_coefficient_square_push_roundtrip():
    x, y, ybar, _ = f1_pair()
    f = make_morphism(
        "fp", ybar, y, pic_cols=[[1]], unit_cols=[(1,)], omega=[-2], dim=1
    )
    k = x.trivial_bundle()
    # abar: Lbar ⇝ ω⊗f*L with L = O, Lbar = O(-2)
    abar = AlignmentClass(ybar.bundle([-2]), ybar.bundle([-2]), ybar.pic.element([0]), (0,))
    bbar = AlignmentClass(ybar.bundle([0]), ybar.bundle([0]), ybar.pic.element([0]), (1,))
    c = k_alignment(k, y.bundle([0]), y.pic.element([1]), (0,))
    cbar = solve_coefficient_square(f, "push", abar, bbar, c=c)
    c_back = solve_coefficient_square(f, "push", abar, bbar, cbar=cbar)
    assert c_back.inner.data() == c.inner.data()
