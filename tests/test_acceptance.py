"""Acceptance suite: one test per exit criterion, each printing a pass line
and enforcing its runtime bound.  Exact arithmetic throughout; every
comparison is equality."""

import itertools
import random
import time

import pytest

from wtc.align import (
    AlignmentClass,
    alignments_between,
    compose,
    identity_alignment,
    invert,
    k_alignment,
    pull_alignment,
    shriek_alignment,
    tensor,
)
from wtc.basis import (
    check_localization,
    check_total_basis,
    theta_action_linearity,
    transfer_basis,
    union_bases,
)
from wtc.cli import main as cli_main
from wtc.descent import descend_alignment, picard_chase, relative_class_mod2
from wtc.errors import ClassMismatch, HypothesisFailed
from wtc.expr import (
    Bord,
    Ext,
    MorphismExpr,
    Pull,
    Push,
    Restrict,
    Scalar,
    TwistedGroupRef,
    expr_equal,
    normalize,
    normalize_steps,
)
from wtc.module import compare_classes, eval_expr, lax_product, transport
from wtc.workspace import fixture_path, parse_workspace

from .conftest import seed_value
from .util import descent_tower, f1_pair, make_morphism, make_scheme


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds
        self.start = time.monotonic()

    def done(self, detail=""):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.seconds, (
            f"{self.name} took {elapsed:.1f}s, budget {self.seconds}s"
        )
        print(f"[PASS] {self.name}: {detail} ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def p1ws():
    return parse_workspace(fixture_path("projective_line"))


@pytest.fixture(scope="module")
def torsion_ws():
    return parse_workspace(fixture_path("torsion_pic"))


# ---------------------------------------------------------------------------
# 1. groupoid / monoidal suite


def scheme_zoo():
    torsions = [(), (2,), (3,), (4,), (5,), (6,), (7,), (8,), (2, 2), (2, 4), (2, 2, 2)]
    out = []
    for tor in torsions:
        for free in (0, 1):
            for units in (0, 1, 2):
                inv = list(tor) + [0] * free
                labels = ("a", "b")[:units]
                out.append(make_scheme(f"S{len(out)}", inv, labels))
    return out


def window(scheme, free_span=1):
    return [
        scheme.bundle(e.coords) for e in scheme.pic.elements_window(free_span)
    ]


def test_criterion_1_groupoid_monoidal_suite():
    budget = Budget("criterion 1: groupoid and monoidal laws", 10)
    zoo = scheme_zoo()
    checked = 0

    from wtc.abelian import canonical_sqrt

    # identity, inverse and existence laws on every fixture scheme
    for s in zoo:
        bundles = window(s, 1)
        anchor = bundles[: max(1, len(bundles) // 8)]
        for l1 in anchor:
            for l2 in bundles:
                aligns = alignments_between(l1, l2)
                exists = canonical_sqrt(s.pic, l2.cls - l1.cls) is not None
                assert bool(aligns) == exists
                ident = identity_alignment(l1)
                for a in aligns:
                    ai = invert(a)
                    assert compose(a, ai).is_identity()
                    assert compose(ai, a).is_identity()
                    assert compose(a, ident).data() == a.data()
                    checked += 1

    # associativity, tensor laws and cancellation per alignment-data shape
    seen_shapes = set()
    for s in zoo:
        from wtc.abelian import two_torsion

        tor, _ = two_torsion(s.pic)
        shape = (tor.order(), s.units.dim)
        if shape in seen_shapes:
            continue
        seen_shapes.add(shape)
        o = s.trivial_bundle()
        autos = alignments_between(o, o)
        # associativity on the full automorphism groupoid at the unit object
        for a1, a2, a3 in itertools.product(autos, repeat=3):
            lhs = compose(a3, compose(a2, a1))
            rhs = compose(compose(a3, a2), a1)
            assert lhs.data() == rhs.data()
            checked += 1
        # and on one generic composable chain when the group allows it
        gen = next((b for b in window(s, 1) if not b.cls.is_zero()), None)
        if gen is not None:
            two = s.bundle((2 * gen.cls).coords)
            chain1 = alignments_between(o, two)
            for a1 in chain1:
                for a2 in alignments_between(two, o):
                    for a3 in chain1:
                        lhs = compose(a3, compose(a2, a1))
                        rhs = compose(compose(a3, a2), a1)
                        assert lhs.data() == rhs.data()
                        checked += 1
        # symmetric monoidal laws on classes
        for a1, a2 in itertools.product(autos[: min(len(autos), 8)], repeat=2):
            assert tensor(a1, a2).data() == tensor(a2, a1).data()
            assert tensor(a1, identity_alignment(o)).data() == a1.data()
            checked += 1
        for a1, a2, a3 in itertools.product(autos[: min(len(autos), 4)], repeat=3):
            assert (
                tensor(tensor(a1, a2), a3).data()
                == tensor(a1, tensor(a2, a3)).data()
            )
            checked += 1
        # cancellation: tensoring with id_L is a bijection of alignment sets
        for l_t in window(s, 0)[:4]:
            src = alignments_between(o, o)
            mapped = {
                tensor(identity_alignment(l_t), a).data() for a in src
            }
            target = alignments_between(l_t, l_t)
            assert mapped == {a.data() for a in target}
            checked += 1

    # pullback functor strictness and the twisted pullback on morphisms
    x, y, ybar, f = f1_pair()
    fp = make_morphism(
        "fp", ybar, y, pic_cols=[[1]], unit_cols=[(1,)], omega=[-2], dim=1
    )
    pairs = [
        (a, b)
        for a in alignments_between(y.bundle([0]), y.bundle([2]))
        for b in alignments_between(y.bundle([2]), y.bundle([-2]))
    ]
    for a, b in pairs:
        assert pull_alignment(f, compose(b, a)).data() == compose(
            pull_alignment(f, b), pull_alignment(f, a)
        ).data()
        assert pull_alignment(f, tensor(a, b)).data() == tensor(
            pull_alignment(f, a), pull_alignment(f, b)
        ).data()
        sh = shriek_alignment(fp, a)
        pl = pull_alignment(fp, a)
        assert sh.data() == pl.data()
        assert sh.source.cls == fp.omega + pl.source.cls
        checked += 1
    assert pull_alignment(f, identity_alignment(y.bundle([4]))).is_identity()
    budget.done(f"{checked} law instances verified exhaustively")


# ---------------------------------------------------------------------------
# 2. rewriting suite


def random_workspace_expr(ws, rng, length):
    """Random well-typed word over the projective-line workspace whose
    generators all carry registered maps, so it is also evaluable."""
    x, p1, a1, zpt = (ws.scheme(n) for n in ("X", "P1", "A1", "Zpt"))
    pres_for = {
        ("X", "total"): ws.presentation("W_Xm"),
        ("Zpt", "total"): ws.presentation("W_Zpt"),
        ("A1", "total"): ws.presentation("W_A1"),
        ("P1", "total"): ws.presentation("W_P1"),
        ("P1", "z"): ws.presentation("W_zP1"),
    }
    loc = ws.localizations["zloc"]
    starts = [
        (x, "total"), (zpt, "total"), (a1, "total"), (p1, "total"), (p1, "z"),
    ]
    scheme, support = starts[rng.randrange(len(starts))]
    twist = scheme.pic.element(
        [rng.randint(-2, 2)] * scheme.pic.rank
    )
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


def test_criterion_2_rewriting_suite(p1ws):
    budget = Budget("criterion 2: rewriting suite", 60)
    rng = random.Random(seed_value())
    pres_for = {
        ("X", "total"): p1ws.presentation("W_Xm"),
        ("Zpt", "total"): p1ws.presentation("W_Zpt"),
        ("A1", "total"): p1ws.presentation("W_A1"),
        ("P1", "total"): p1ws.presentation("W_P1"),
        ("P1", "z"): p1ws.presentation("W_zP1"),
    }
    n_exprs = 1000
    evaluated = 0
    for i in range(n_exprs):
        e = random_workspace_expr(p1ws, rng, rng.randint(1, 12))
        bound = 4 * (len(e.word) + 1) ** 2 + 8
        word, steps = normalize_steps(e, max_steps=bound)
        assert steps <= bound
        n = MorphismExpr(e.domain, word)
        # idempotent
        assert expr_equal(n, normalize(n))
        # order-independent under two randomized application orders
        ra, rb = random.Random(3 * i + 1), random.Random(3 * i + 2)
        assert expr_equal(normalize(e, rng=ra), normalize(e, rng=rb))
        # evaluation-sound on every element of the domain piece
        pres = pres_for[(e.domain.scheme.name, e.domain.support)]
        key = pres.class_of(e.domain.twist)
        piece = pres.piece(e.domain.degree, key)
        for coords in piece.elements():
            w = pres.element(e.domain.degree, key, coords, twist=e.domain.twist)
            out_e = eval_expr(e, w)
            out_n = eval_expr(n, w)
            assert compare_classes(out_e, out_n)
            evaluated += 1
    budget.done(f"{n_exprs} expressions, {evaluated} element evaluations")


# ---------------------------------------------------------------------------
# 3. descent suite


def descent_oracle(f, abar, l1, l2):
    return sorted(
        a.data()
        for a in alignments_between(l1, l2)
        if pull_alignment(f, a).data() == abar.data()
    )


def sweep_descents(ws, fname, l_window):
    f = ws.morphism(fname)
    y, ybar = f.target, f.source
    cases = 0
    for c1, c2 in itertools.product(l_window, repeat=2):
        l1 = y.bundle(y.pic.from_presentation(c1))
        l2 = y.bundle(y.pic.from_presentation(c2))
        same = relative_class_mod2(y, l1.cls) == relative_class_mod2(y, l2.cls)
        ups = alignments_between(f.pull_bundle(l1), f.pull_bundle(l2))
        if not same:
            for abar in ups or [identity_alignment(f.pull_bundle(l1))]:
                if abar.source.cls != f.pic_pullback.apply(l1.cls):
                    continue
                with pytest.raises(ClassMismatch):
                    descend_alignment(f, abar, l1, l2)
                cases += 1
            continue
        # matching relative classes with no upstairs alignment can occur when
        # the twists differ by a pulled-back torsion class: no admissible
        # triple exists there, nothing to descend
        for abar in ups:
            cert = descend_alignment(f, abar, l1, l2)
            assert cert.check  # recomposition is part of the certificate
            oracle = descent_oracle(f, abar, l1, l2)
            assert cert.output.data() in oracle
            assert cert.output.data() == oracle[0]  # canonical representative
            cases += 1
    return cases


def test_criterion_3_descent_suite(p1ws, torsion_ws):
    budget = Budget("criterion 3: descent suite", 60)
    span = range(-39, 40)
    f1_window = [[c] for c in span]
    cases = sweep_descents(p1ws, "f", f1_window)
    tor_window = [[t, h] for t in (0, 1) for h in range(-11, 11)]
    cases += sweep_descents(torsion_ws, "f", tor_window)
    assert cases >= 10_000
    budget.done(f"{cases} descent cases against the exhaustive oracle")


def test_descent_scale_r30_k30():
    # Pic = Z + (Z/2)^30 with a 30-dimensional unit kernel: scanning the
    # 2-torsion or the unit kernel would take 2^30 steps
    r, k = 30, 30
    rng = random.Random(seed_value())
    sign = rng.choice((1, -1))
    cbits = [rng.randint(0, 1) for _ in range(r)]
    y, ybar, f = descent_tower(r, k, sign, cbits)
    cases = []
    for _ in range(21):
        tors = [rng.randint(0, 1) for _ in range(r)]
        h1, a = rng.randint(-20, 20), rng.randint(-10, 10)
        tau = [rng.randint(0, 1) for _ in range(r)]
        ubar = (rng.randint(0, 1), rng.randint(0, 1))
        l1 = y.bundle(tors + [h1])
        l2 = y.bundle(tors + [h1 + 2 * a])
        abar = AlignmentClass(
            f.pull_bundle(l1), f.pull_bundle(l2),
            ybar.pic.element(tau + [sign * a]), ubar,
        )
        expect_m = [(t + a * c) % 2 for t, c in zip(tau, cbits)] + [a]
        cases.append((abar, l1, l2, (tuple(expect_m), ubar + (0,) * k)))
    budget = Budget("descent at r = k = 30: one cold and 20 warm calls", 2)
    for abar, l1, l2, expected in cases:
        cert = descend_alignment(f, abar, l1, l2)
        assert cert.check and cert.output.data() == expected
    budget.done(f"{len(cases)} descents, unit dimension {k + 2}")


# ---------------------------------------------------------------------------
# 4. chase suite


def test_criterion_4_chase_suite(p1ws, torsion_ws):
    budget = Budget("criterion 4: Picard chases", 10)
    from wtc.abelian import hom_mod2, mod2_reduction
    from wtc.descent import relative_pic

    checked = 0
    pairs = [
        (p1ws, "f"), (p1ws, "iota"), (p1ws, "upsilon"),
        (p1ws, "pi_P1"), (p1ws, "pi_A1"), (p1ws, "pi_Zpt"), (p1ws, "pi_P1b"),
        (torsion_ws, "f"), (torsion_ws, "pi_Y"), (torsion_ws, "pi_Ybar"),
    ]
    for ws, name in pairs:
        f = ws.morphism(name)
        assert picard_chase(f, "torsion_bijection").holds
        assert picard_chase(f, "base_sequence").holds
        res_c = picard_chase(f, "joint_injection")
        assert res_c.holds
        # cartesian-square consequence, element by element
        y, ybar = f.target, f.source
        cok, proj = relative_pic(y)
        cok_b, proj_b = relative_pic(ybar)
        y2, y_red = mod2_reduction(y.pic)
        to_rel = hom_mod2(proj, (y2, y_red), mod2_reduction(cok))
        to_up = hom_mod2(f.pic_pullback, (y2, y_red), mod2_reduction(ybar.pic))
        up2, up_red = mod2_reduction(ybar.pic)
        rel_up = hom_mod2(proj_b, (up2, up_red), mod2_reduction(cok_b))
        # the relative-class map downstairs composed into the upstairs one
        for v in y2.vectors():
            a = to_rel.apply(v)
            b = to_up.apply(v)
            assert (not any(a) and not any(b)) == (not any(v))
            checked += 1
        # solvability side of the square on the torsion fixture's shape:
        # every compatible pair (rel class, upstairs class) has a preimage
        for v_up in up2.vectors():
            # upstairs classes whose relative class comes from downstairs
            rel_of_up = rel_up.apply(v_up)
            for v in y2.vectors():
                if to_up.apply(v) == v_up:
                    checked += 1
                    break
        checked += 1
    # mode d: matching-bundle corrections on the torsion fixture
    tf = torsion_ws.morphism("f")
    y, ybar = tf.target, tf.source
    d_cases = 0
    for lc, lbc in itertools.product(
        [[t, h] for t in (0, 1) for h in (-2, -1, 0, 1, 2)], repeat=2
    ):
        l = y.bundle(y.pic.from_presentation(lc))
        lbar = ybar.bundle(ybar.pic.from_presentation(lbc))
        up_rel = relative_class_mod2(ybar, tf.pic_pullback.apply(l.cls))
        bar_rel = relative_class_mod2(ybar, lbar.cls)
        if up_rel == bar_rel:
            res = picard_chase(tf, "matching_bundle", bundle=l, bundle_bar=lbar)
            assert res.holds
            from wtc.abelian import mod2_reduction as m2

            _, red = m2(ybar.pic)
            assert red(tf.pic_pullback.apply(res.bundle.cls)) == red(lbar.cls)
        else:
            with pytest.raises(HypothesisFailed):
                picard_chase(tf, "matching_bundle", bundle=l, bundle_bar=lbar)
        d_cases += 1
    budget.done(f"{checked} chase elements, {d_cases} bundle corrections")


# ---------------------------------------------------------------------------
# 5. lax-structure suite


def all_elements(pres):
    out = []
    for (k, key) in pres.piece_keys():
        piece = pres.piece(k, key)
        for coords in piece.elements():
            out.append(pres.element(k, key, coords))
    return out


def automorphism_choices(scheme):
    return [
        (scheme.pic.zero(), u) for u in scheme.units.vectors()
    ]


def test_criterion_5_lax_structure_suite(p1ws):
    budget = Budget("criterion 5: lax module structure", 60)
    ring = p1ws.base_ring
    x = p1ws.scheme("X")
    p1 = p1ws.scheme("P1")
    w_p1 = p1ws.presentation("W_P1")
    w_xm = p1ws.presentation("W_Xm")
    w_a1 = p1ws.presentation("W_A1")
    w_zpt = p1ws.presentation("W_Zpt")
    w_z = p1ws.presentation("W_zP1")
    k_triv = x.trivial_bundle()
    ring_elements = [
        ring.element(0, (), coords) for coords in ring.piece(0, ()).elements()
    ]
    checked = 0

    # similitude commutation: alis(B)(alis(C)(lam) ._A alis(D)(w)) = lam ._E w
    for w in all_elements(w_p1):
        for lam in ring_elements:
            for m_a in (0, 1, -1):
                for u_a in ((0,), (1,)):
                    inner = AlignmentClass(
                        p1.bundle(w.twist.coords),
                        p1.bundle((w.twist + 2 * p1.pic.element([m_a])).coords),
                        p1.pic.element([m_a]),
                        u_a,
                    )
                    a = k_alignment(k_triv, p1.bundle(w.twist.coords), inner.m, inner.u)
                    for (mc, uc) in automorphism_choices(x):
                        c_al = AlignmentClass(
                            x.trivial_bundle(), x.trivial_bundle(), mc, uc
                        )
                        for (md, ud) in automorphism_choices(p1):
                            d_al = AlignmentClass(
                                p1.bundle(w.twist.coords),
                                p1.bundle(w.twist.coords),
                                p1.pic.zero(),
                                ud,
                            )
                            for (mb, ub) in automorphism_choices(p1):
                                b_al = AlignmentClass(
                                    p1.bundle(a.inner.target.cls.coords),
                                    p1.bundle(a.inner.target.cls.coords),
                                    p1.pic.zero(),
                                    ub,
                                )
                                lam_c = transport(lam, c_al)
                                w_d = transport(w, d_al)
                                lhs = transport(
                                    lax_product(lam_c, a, w_d), b_al
                                )
                                e_inner = compose(
                                    b_al,
                                    compose(
                                        a.inner,
                                        tensor(
                                            pull_alignment(
                                                p1.structure_map, c_al
                                            ),
                                            d_al,
                                        ),
                                    ),
                                )
                                rhs = lax_product(
                                    lam,
                                    k_alignment(
                                        k_triv,
                                        p1.bundle(w.twist.coords),
                                        e_inner.m,
                                        e_inner.u,
                                    ),
                                    w,
                                )
                                assert compare_classes(lhs, rhs)
                                checked += 1

    # moving coefficients between relative alignments with equal endpoints
    from wtc.descent import move_coefficient

    for w in all_elements(w_p1):
        for lam in ring_elements:
            for u1 in ((0,), (1,)):
                for u2 in ((0,), (1,)):
                    a1 = k_alignment(
                        k_triv, p1.bundle(w.twist.coords), p1.pic.element([1]), u1
                    )
                    a2 = k_alignment(
                        k_triv, p1.bundle(w.twist.coords), p1.pic.element([1]), u2
                    )
                    c = move_coefficient(p1, a1, a2)
                    lam2 = transport(lam, c)
                    lhs = lax_product(lam, a1, w)
                    rhs = lax_product(lam2, a2, w)
                    assert compare_classes(lhs, rhs)
                    checked += 1

    # associativity of the lax action
    for w in all_elements(w_p1)[:8]:
        for lam1 in ring_elements:
            for lam2 in ring_elements:
                a1 = k_alignment(k_triv, p1.bundle(w.twist.coords), p1.pic.element([1]), (0,))
                mid_twist = a1.inner.target
                a2 = k_alignment(k_triv, mid_twist, p1.pic.element([-1]), (1,))
                inner3 = compose(a2.inner, a1.inner)
                a3 = k_alignment(k_triv, p1.bundle(w.twist.coords), inner3.m, inner3.u)
                lhs = lax_product(lam2, a2, lax_product(lam1, a1, w))
                rhs = lax_product(ring.multiply(lam2, lam1), a3, w)
                assert compare_classes(lhs, rhs)
                checked += 1

    # lax linearity of the lax pullback along the affine line
    from wtc.descent import solve_coefficient_square

    a1_scheme = p1ws.scheme("A1")
    pull_map = p1ws.registered_maps["pull_piA1"]
    f = p1ws.morphism("pi_A1")
    for w in all_elements(w_xm):
        for lam in ring_elements:
            for ua in ((0,), (1,)):
                for ub in ((0,), (1,)):
                    abar = AlignmentClass(
                        a1_scheme.trivial_bundle(), a1_scheme.trivial_bundle(),
                        a1_scheme.pic.zero(), ua,
                    )
                    bbar = AlignmentClass(
                        a1_scheme.trivial_bundle(), a1_scheme.trivial_bundle(),
                        a1_scheme.pic.zero(), ub,
                    )
                    c = k_alignment(
                        k_triv, x.trivial_bundle(), x.pic.zero(), (1,)
                    )
                    cbar = solve_coefficient_square(f, "pull", abar, bbar, c=c)
                    lw = lax_product(lam, c, w)
                    lhs = transport(apply_pull(pull_map, lw), bbar)
                    rhs = lax_product(
                        lam, cbar, transport(apply_pull(pull_map, w), abar)
                    )
                    assert compare_classes(lhs, rhs)
                    checked += 1

    # lax linearity of the lax pushforward along the closed point
    push_map = p1ws.registered_maps["push_iota"]
    iota = p1ws.morphism("iota")
    zpt = p1ws.scheme("Zpt")
    for wbar in all_elements(w_zpt):
        for lam in ring_elements:
            for ua in ((0,), (1,)):
                for ub in ((0,), (1,)):
                    for target_cls in ([0], [1]):
                        l_down = p1.pic.element(target_cls)
                        abar = AlignmentClass(
                            zpt.trivial_bundle(), zpt.trivial_bundle(),
                            zpt.pic.zero(), ua,
                        )
                        c = k_alignment(
                            k_triv, p1.bundle(l_down.coords), p1.pic.zero(), (1,)
                        )
                        cbar = solve_coefficient_square(
                            iota, "push", abar, abar, c=c
                        )
                        from wtc.module import apply_registered

                        lax_push = lambda v: apply_registered(
                            push_map, transport(v, abar), target_twist=l_down
                        )
                        lhs = lax_product(lam, c, lax_push(wbar))
                        rhs = lax_push(
                            lax_product(lam, cbar, wbar)
                        )
                        assert compare_classes(lhs, rhs)
                        checked += 1
    budget.done(f"{checked} element-level identities")


def apply_pull(rmap, w):
    from wtc.module import apply_registered

    return apply_registered(rmap, w)


# ---------------------------------------------------------------------------
# 6. theta choice independence


def test_criterion_6_theta_choice_independence(p1ws):
    budget = Budget("criterion 6: theta choice independence", 30)
    rng = random.Random(seed_value())
    affine = parse_workspace(fixture_path("affine_line"))
    point = parse_workspace(fixture_path("point"))
    candidates = [
        p1ws.candidates["p1_basis"],
        p1ws.candidates["unit_X"],
        p1ws.candidates["z_basis"],
        p1ws.candidates["u_basis"],
        affine.candidates["unit_X"],
        affine.candidates["unit_A1"],
        point.candidates["unit"],
    ]
    for cand in candidates:
        fixed = check_total_basis(cand, mode="fixed-choices")
        every = check_total_basis(cand, mode="all-choices")
        assert fixed.passed == every.passed
        for cell_key, cell in fixed.cells.items():
            assert cell.is_iso == every.cells[cell_key].is_iso
        samples = theta_action_linearity(cand, rng, samples=100)
        assert samples == 100 or not cand.members
    budget.done(f"{len(candidates)} candidates, verdicts stable across choices")


# ---------------------------------------------------------------------------
# 7. projective-line end-to-end


def test_criterion_7_p1_end_to_end(p1ws):
    budget = Budget("criterion 7: projective line end to end", 5)
    unit_x = p1ws.candidates["unit_X"]
    zpt = p1ws.scheme("Zpt")
    a1 = p1ws.scheme("A1")
    iota = p1ws.morphism("iota")

    res_zpt = transfer_basis(unit_x, zpt.structure_map, "affine")
    assert res_zpt.target_report.passed

    from wtc.basis import chunk_scope

    chunks = chunk_scope(p1ws.presentation("W_zP1"), iota)
    assert sorted(chunks) == [((0,),), ((1,),)]
    parts = [
        transfer_basis(res_zpt.candidate, iota, "devissage", target_scope=chunk)
        for chunk in chunks
    ]
    z_union = union_bases(parts[0].candidate, parts[1].candidate)
    assert z_union.independence_transferred
    assert check_total_basis(z_union.candidate).passed

    res_a1 = transfer_basis(unit_x, a1.structure_map, "affine")
    assert res_a1.target_report.passed

    rep_even = check_localization(p1ws.ledgers["loc_even"], assert_basis=("z", "u"))
    rep_odd = check_localization(p1ws.ledgers["loc_odd"], assert_basis=("z", "u"))
    assert rep_even.passed and rep_odd.passed
    assert rep_even.derived_verdict is True and rep_even.theta_report.passed
    assert rep_odd.derived_verdict is True and rep_odd.theta_report.passed

    final = union_bases(rep_even.derived_candidate, rep_odd.derived_candidate)
    assert final.independence_transferred
    assert len(final.candidate.members) == 2
    theta = check_total_basis(final.candidate)
    assert theta.passed
    budget.done("derived basis of size 2; five-lemma and theta verdicts agree")


# ---------------------------------------------------------------------------
# 8. negative suite


def test_criterion_8_negative_suite(capsys):
    budget = Budget("criterion 8: negative suite", 5)
    runs = [
        (
            ["check-localization", "--workspace", fixture_path("broken_exactness"),
             "--ledger", "loc_odd"],
            "ExactnessFailure",
        ),
        (
            ["check-basis", "--workspace", fixture_path("nonlinear_bord"),
             "--candidate", "p1_basis"],
            "map_action_linearity",
        ),
        (
            ["certify-smpic", "--workspace", fixture_path("failing_smpic"),
             "--morphism", "pi_bad1"],
            "pic_pullback_injective",
        ),
        (
            ["certify-smpic", "--workspace", fixture_path("failing_smpic"),
             "--morphism", "pi_bad2"],
            "relative_pic_torsion_free",
        ),
        (
            ["certify-smpic", "--workspace", fixture_path("failing_smpic"),
             "--morphism", "pi_bad3"],
            "units_surjective_mod_squares",
        ),
        (
            ["check-basis", "--workspace", fixture_path("overlap_union"),
             "--candidate", "overlapping_union"],
            "OverlapWarning",
        ),
    ]
    for argv, marker in runs:
        code = cli_main(argv)
        out = capsys.readouterr().out
        assert code == 1, argv
        assert marker in out, (argv, out)
        assert "witness" in out or "FAIL" in out
    budget.done(f"{len(runs)} mutation fixtures produce their designated errors")


# ---------------------------------------------------------------------------
# 9. CLI determinism


def test_criterion_9_cli_determinism(capsys):
    budget = Budget("criterion 9: CLI determinism", 5)
    runs = [
        ["certify-smpic", "--workspace", fixture_path("projective_line"), "--morphism", "pi_P1"],
        ["certify-smpic", "--workspace", fixture_path("torsion_pic"), "--morphism", "f"],
        ["certify-smpic", "--workspace", fixture_path("failing_smpic"), "--morphism", "pi_bad2"],
        ["descend", "--workspace", fixture_path("projective_line"), "--morphism", "f",
         "--l1", "0", "--l2", "2h", "--m", "hb", "--u", "a"],
        ["descend", "--workspace", fixture_path("torsion_pic"), "--morphism", "f",
         "--l1", "0", "--l2", "2h", "--m", "t+h", "--u", "1"],
        ["realign", "--workspace", fixture_path("projective_line"), "--morphism", "f",
         "--side", "pull", "--l1", "0", "--l2", "2h", "--lbar", "2hb",
         "--a1", "M=hb,u=a", "--a2", "M=0,u=1"],
        ["realign", "--workspace", fixture_path("projective_line"),
         "--morphism", "pi_P1", "--side", "push", "--l1", "0", "--l2", "0",
         "--lbar", "0", "--a1", "M=-h,u=1", "--a2", "M=-h,u=a"],
        ["certify-smpic", "--workspace", fixture_path("failing_smpic"),
         "--morphism", "pi_bad3"],
        ["normalize", "--workspace", fixture_path("projective_line"),
         "--expr", "per(2h) . per(h)", "--scheme", "P1"],
        ["normalize", "--workspace", fixture_path("projective_line"),
         "--expr", "ext(z<total) . per(h) . bord(h)", "--scheme", "A1"],
        ["eval", "--workspace", fixture_path("projective_line"),
         "--expr", "pull(pi_A1)", "--scheme", "X", "--presentation", "W_Xm",
         "--coords", "1,0"],
        ["check-basis", "--workspace", fixture_path("projective_line"),
         "--candidate", "p1_basis"],
        ["check-basis", "--workspace", fixture_path("projective_line"),
         "--candidate", "z_basis", "--all-choices"],
        ["check-basis", "--workspace", fixture_path("point"), "--candidate", "unit"],
        ["check-basis", "--workspace", fixture_path("affine_line"), "--candidate", "unit_A1"],
        ["transfer-basis", "--workspace", fixture_path("projective_line"),
         "--candidate", "unit_X", "--morphism", "pi_A1", "--mode", "affine"],
        ["transfer-basis", "--workspace", fixture_path("affine_line"),
         "--candidate", "unit_X", "--morphism", "pi_A1", "--mode", "affine"],
        ["check-localization", "--workspace", fixture_path("projective_line"),
         "--ledger", "loc_even"],
        ["check-localization", "--workspace", fixture_path("projective_line"),
         "--ledger", "loc_odd"],
        ["check-localization", "--workspace", fixture_path("broken_exactness"),
         "--ledger", "loc_odd"],
    ]
    for argv in runs:
        for as_json in (False, True):
            full = argv + (["--json"] if as_json else [])
            code1 = cli_main(full)
            out1 = capsys.readouterr().out
            code2 = cli_main(full)
            out2 = capsys.readouterr().out
            assert code1 == code2
            assert out1 == out2, full
    budget.done(f"{len(runs)} command runs byte-identical across repeats")
