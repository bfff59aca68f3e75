"""Base-compatibility certification and constructive descent of alignments.

A scheme over the base is *certified* when (I) the Picard pullback from the
base is injective, (II) the relative Picard group has no 2-torsion, and
(III) base units surject onto units modulo squares.  Under these conditions
an alignment between pulled-back bundles descends: the square root class is
solved downstairs, corrected by the unique matching 2-torsion element, and
the unit discrepancy is routed through the base.  Every emitted certificate
is re-verified by recomposition before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import f2
from .abelian import (
    canonical_sqrt,
    cokernel_of,
    hom_analyze,
    hom_mod2,
    mod2_reduction,
    solve_linear,
    two_torsion,
)
from .align import (
    AlignmentClass,
    KAlignmentClass,
    compose,
    identity_alignment,
    invert,
    pull_alignment,
    shriek_alignment,
    solve_composition,
    tensor,
)
from .errors import (
    ClassMismatch,
    HypothesisFailed,
    InternalContradiction,
    NotSmPic,
    TypeMismatch,
)
from .schemes import LineBundle, structure_morphism


# ---------------------------------------------------------------------------
# certification


@dataclass(frozen=True)
class SmPicCertificate:
    morphism: object
    pic_injective: bool
    pic_injective_witness: object
    torsion_free: bool
    torsion_witness: object
    units_surjective: bool
    units_witness: object

    @property
    def passed(self):
        return self.pic_injective and self.torsion_free and self.units_surjective

    def conditions(self):
        return {
            "pic_pullback_injective": (self.pic_injective, self.pic_injective_witness),
            "relative_pic_torsion_free": (self.torsion_free, self.torsion_witness),
            "units_surjective_mod_squares": (self.units_surjective, self.units_witness),
        }


def certify_smpic(pi):
    """Certify the three base-compatibility conditions of a structure map.

    ``pi.target`` is taken as the base.  Witnesses: a nonzero kernel class
    for (I), a 2-torsion class of the relative Picard group (with a lift to
    the scheme's Picard group when one exists) for (II), and an unreachable
    unit class for (III).

    A ``MorphismDescriptor`` is frozen, so its certificate is computed once
    and kept on it.  A scheme rewired to another structure map reaches that
    map's own certificate.
    """
    cert = vars(pi).get("_smpic_certificate")
    if cert is None:
        cert = vars(pi)["_smpic_certificate"] = _certify(pi)
    return cert


def _certify(pi):
    ana = hom_analyze(pi.pic_pullback)
    injective = ana.kernel.is_trivial()
    inj_wit = None
    if not injective:
        inj_wit = ana.kernel_inclusion.apply(ana.kernel.generators()[0])

    tor, tor_incl = two_torsion(ana.cokernel)
    torsion_free = tor.is_trivial()
    tor_wit = None
    if not torsion_free:
        in_cok = tor_incl.apply(tor.generators()[0])
        lift = solve_linear(ana.projection, in_cok)
        tor_wit = (in_cok, lift[0] if lift else None)

    surjective = pi.unit_pullback.is_surjective()
    unit_wit = None if surjective else pi.unit_pullback.cokernel_witness()

    return SmPicCertificate(
        pi, injective, inj_wit, torsion_free, tor_wit, surjective, unit_wit
    )


def require_smpic(scheme):
    """Re-run certification of a scheme's structure map; raise on failure."""
    pi = structure_morphism(scheme)
    cert = certify_smpic(pi)
    if not cert.passed:
        failed = [k for k, (ok, _) in cert.conditions().items() if not ok]
        raise NotSmPic(
            f"{scheme.name} fails {', '.join(failed)}", witness=cert
        )
    return cert


def relative_pic(scheme):
    """Cokernel of the base pullback with its projection."""
    pi = structure_morphism(scheme)
    return cokernel_of(pi.pic_pullback)


def relative_class_mod2(scheme, el):
    """Image of a Picard class in the relative Picard group modulo squares."""
    cok, proj = relative_pic(scheme)
    _, red = mod2_reduction(cok)
    return red(proj.apply(el))


# ---------------------------------------------------------------------------
# Picard chases


@dataclass
class ChaseResult:
    mode: str
    holds: bool
    witness: object = None
    inverse: object = None  # mode torsion_bijection: dict coords -> element
    sequence_report: object = None
    bundle: object = None  # mode matching_bundle: the corrected bundle class


def _torsion_map(f):
    """The map induced on 2-torsion by the pullback, as an element dict."""
    src_tor, src_incl = two_torsion(f.target.pic)  # downstairs
    tgt_tor, tgt_incl = two_torsion(f.source.pic)  # upstairs
    table = {}
    for el in src_tor.elements():
        img = f.pic_pullback.apply(src_incl.apply(el))
        table[src_incl.apply(el)] = img
    return src_tor, src_incl, tgt_tor, tgt_incl, table


def picard_chase(f, mode, bundle=None, bundle_bar=None):
    """Diagram chases between certified schemes over the common base.

    Modes:

    - ``torsion_bijection``: the pullback restricts to a bijection on
      2-torsion of the Picard groups; returns the inverse table.
    - ``base_sequence``: the mod-2 sequence base -> scheme -> relative
      quotient is short exact (run on the *target* scheme of ``f``).
    - ``joint_injection``: a Picard class mod 2 dies iff it dies both in the
      relative quotient and upstairs.
    - ``matching_bundle``: given ``bundle`` downstairs and ``bundle_bar``
      upstairs agreeing in the relative quotient mod 2, produce a corrected
      bundle (a base twist of ``bundle``) whose pullback matches
      ``bundle_bar`` mod 2 on the nose.
    """
    require_smpic(f.source)
    require_smpic(f.target)
    if mode == "torsion_bijection":
        src_tor, src_incl, tgt_tor, tgt_incl, table = _torsion_map(f)
        images = set(table.values())
        upstairs = {tgt_incl.apply(e) for e in tgt_tor.elements()}
        injective = len(images) == len(table)
        surjective = images == upstairs
        if injective and surjective:
            inverse = {img: pre for pre, img in table.items()}
            return ChaseResult(mode, True, inverse=inverse)
        witness = None
        if not injective:
            seen = {}
            for pre, img in table.items():
                if img in seen:
                    witness = (seen[img], pre)
                    break
                seen[img] = pre
        else:
            witness = next(iter(upstairs - images))
        return ChaseResult(mode, False, witness=witness)

    if mode == "base_sequence":
        y = f.target
        pi = structure_morphism(y)
        cok, proj = relative_pic(y)
        base2, base_red = mod2_reduction(pi.target.pic)
        y2, y_red = mod2_reduction(y.pic)
        cok2, cok_red = mod2_reduction(cok)
        f1 = hom_mod2(pi.pic_pullback, (base2, base_red), (y2, y_red))
        f2m = hom_mod2(proj, (y2, y_red), (cok2, cok_red))
        inj = f1.is_injective()
        surj = f2m.is_surjective()
        comp_zero = all(not any(f2m.apply(c)) for c in f1.cols)
        mid = True
        witness = None
        for k in f2m.kernel_basis():
            if f1.solve(k) is None:
                mid = False
                witness = k
                break
        holds = inj and surj and comp_zero and mid
        if not holds and witness is None:
            witness = "injectivity" if not inj else ("surjectivity" if not surj else "composite")
        return ChaseResult(mode, holds, witness=witness,
                           sequence_report=(inj, comp_zero, mid, surj))

    if mode == "joint_injection":
        y = f.target
        cok, proj = relative_pic(y)
        y2, y_red = mod2_reduction(y.pic)
        cok2, cok_red = mod2_reduction(cok)
        to_rel = hom_mod2(proj, (y2, y_red), (cok2, cok_red))
        to_up = hom_mod2(f.pic_pullback, (y2, y_red), mod2_reduction(f.source.pic))
        stacked = to_rel.stack(to_up)
        kernel = stacked.kernel_basis()
        if kernel:
            return ChaseResult(mode, False, witness=kernel[0])
        return ChaseResult(mode, True)

    if mode == "matching_bundle":
        if bundle is None or bundle_bar is None:
            raise TypeMismatch("matching_bundle needs both bundles")
        y, ybar = f.target, f.source
        if bundle.scheme is not y or bundle_bar.scheme is not ybar:
            raise TypeMismatch("bundles on the wrong schemes")
        # hypothesis: equal classes in the relative quotient mod 2 upstairs
        up_rel = relative_class_mod2(ybar, f.pic_pullback.apply(bundle.cls))
        bar_rel = relative_class_mod2(ybar, bundle_bar.cls)
        if up_rel != bar_rel:
            raise HypothesisFailed(
                "bundles disagree in the relative quotient mod 2",
                witness=(up_rel, bar_rel),
            )
        # solve for a base class K with pi_bar^*(K) = [bundle_bar - f^* bundle] mod 2
        pi_bar = structure_morphism(ybar)
        delta = bundle_bar.cls - f.pic_pullback.apply(bundle.cls)
        ybar2, ybar_red = mod2_reduction(ybar.pic)
        base2, base_red = mod2_reduction(pi_bar.target.pic)
        pull2 = hom_mod2(pi_bar.pic_pullback, (base2, base_red), (ybar2, ybar_red))
        sol = pull2.solve(ybar_red(delta))
        if sol is None:
            raise HypothesisFailed(
                "no base twist closes the gap", witness=ybar_red(delta)
            )
        base_pic = pi_bar.target.pic
        kept = [i for i, d in enumerate(base_pic.invariants) if d == 0 or d % 2 == 0]
        coords = [0] * base_pic.rank
        for pos, i in enumerate(kept):
            coords[i] = sol[pos]
        k_el = base_pic.element(coords)
        pi_y = structure_morphism(f.target)
        corrected = LineBundle(f.target, bundle.cls + pi_y.pic_pullback.apply(k_el))
        # check the conclusion: pullback matches mod 2 upstairs
        _, red = mod2_reduction(ybar.pic)
        if red(f.pic_pullback.apply(corrected.cls)) != red(bundle_bar.cls):
            raise InternalContradiction("matching bundle correction failed to close")
        return ChaseResult(mode, True, bundle=corrected)

    raise TypeMismatch(f"unknown chase mode {mode!r}")


# ---------------------------------------------------------------------------
# descent


@dataclass
class DescentCertificate:
    input_alignment: AlignmentClass
    output: AlignmentClass
    mode: str
    check: bool

    def __post_init__(self):
        if not self.check:
            raise InternalContradiction("descent certificate failed recomposition")


def _unit_solution(f, ubar):
    """Canonical u downstairs with pullback ubar, routed through the base."""
    y, ybar = f.target, f.source
    pi_y = structure_morphism(y)
    pi_ybar = structure_morphism(ybar)
    w = pi_ybar.unit_pullback.solve(ubar)
    if w is None:
        raise InternalContradiction(
            "unit class not reachable from the base despite certification",
            witness=ubar,
        )
    u0 = pi_y.unit_pullback.apply(w)
    kernel = f.unit_pullback.kernel_basis()
    return f2.coset_min(u0, kernel)


def descend_alignment(f, abar, l1, l2, mode="plain"):
    """Descend an alignment between pulled-back bundles along ``f``.

    ``abar`` lives on ``f.source``; in plain mode its endpoints must be the
    pullbacks of ``l1`` and ``l2``, in shriek mode their twists by the
    relative canonical class.  Requires both schemes certified and
    ``[l1] = [l2]`` in the relative Picard group mod 2.  The output pulls
    back (or shriek-pulls) to ``abar`` on the nose; recomposition is part
    of the certificate.
    """
    require_smpic(f.source)
    require_smpic(f.target)
    y, ybar = f.target, f.source
    if l1.scheme is not y or l2.scheme is not y:
        raise TypeMismatch("endpoint bundles must live downstairs")
    if abar.scheme is not ybar:
        raise TypeMismatch("alignment must live upstairs")

    if relative_class_mod2(y, l1.cls) != relative_class_mod2(y, l2.cls):
        raise ClassMismatch(
            "endpoints differ in the relative Picard group mod 2",
            witness=(l1, l2),
        )

    if mode == "plain":
        want_src = f.pic_pullback.apply(l1.cls)
        want_tgt = f.pic_pullback.apply(l2.cls)
    elif mode == "shriek":
        omega = f.omega
        want_src = omega + f.pic_pullback.apply(l1.cls)
        want_tgt = omega + f.pic_pullback.apply(l2.cls)
    else:
        raise TypeMismatch(f"unknown descent mode {mode!r}")
    if abar.source.cls != want_src or abar.target.cls != want_tgt:
        raise TypeMismatch(
            "alignment endpoints do not match the requested descent",
            witness=(abar.source.cls, want_src, abar.target.cls, want_tgt),
        )

    # square root downstairs; guaranteed by the joint injection chase
    m_prime = canonical_sqrt(y.pic, l2.cls - l1.cls)
    if m_prime is None:
        raise InternalContradiction(
            "no square root downstairs despite matching relative classes"
        )

    # 2-torsion correction: the unique t with f^*(m' + t) = abar.m
    delta = abar.m - f.pic_pullback.apply(m_prime)
    _, tor_incl = two_torsion(y.pic)
    sol = solve_linear(f.pic_pullback.on_two_torsion, delta)
    if sol is None or not sol[1].is_trivial():
        raise InternalContradiction(
            "torsion correction not unique despite certified bijection",
            witness=delta,
        )
    m = m_prime + tor_incl.apply(sol[0])

    u = _unit_solution(f, abar.u)
    out = AlignmentClass(l1, l2, m, u)

    if mode == "plain":
        recomposed = pull_alignment(f, out)
    else:
        recomposed = shriek_alignment(f, out)
    ok = (
        recomposed.data() == abar.data()
        and recomposed.source.cls == abar.source.cls
        and recomposed.target.cls == abar.target.cls
    )
    return DescentCertificate(abar, out, mode, ok)


def realign(f, a1bar, a2bar, l1, l2, side):
    """Close a pullback or pushforward triangle by one alignment downstairs.

    ``side="pull"``: a1bar: f*L1 ⇝ Lbar and a2bar: f*L2 ⇝ Lbar with a common
    target; the result A satisfies a2bar ∘ f*(A) = a1bar.
    ``side="push"``: a1bar: Lbar ⇝ ω⊗f*L1, a2bar: Lbar ⇝ ω⊗f*L2 with a
    common source; the result A satisfies f^!(A) ∘ a1bar = a2bar.
    """
    if side == "pull":
        if a1bar.target.cls != a2bar.target.cls:
            raise TypeMismatch("pull-side realignment needs a common target")
        bbar = compose(invert(a2bar), a1bar)
        cert = descend_alignment(f, bbar, l1, l2, mode="plain")
        a = cert.output
        check = compose(a2bar, pull_alignment(f, a))
        if check.data() != a1bar.data():
            raise InternalContradiction("pull realignment failed recomposition")
        return a
    if side == "push":
        if a1bar.source.cls != a2bar.source.cls:
            raise TypeMismatch("push-side realignment needs a common source")
        bbar = compose(a2bar, invert(a1bar))
        cert = descend_alignment(f, bbar, l1, l2, mode="shriek")
        a = cert.output
        check = compose(shriek_alignment(f, a), a1bar)
        if check.data() != a2bar.data():
            raise InternalContradiction("push realignment failed recomposition")
        return a
    raise TypeMismatch(f"unknown side {side!r}")


def move_coefficient(scheme, a1: KAlignmentClass, a2: KAlignmentClass):
    """Move a coefficient between two relative alignments with equal endpoints.

    Returns C: K1 ⇝ K2 on the base with ``a2 ∘ ((pi^*C) ⊗ id) = a1``.
    """
    require_smpic(scheme)
    if a1.scheme is not scheme or a2.scheme is not scheme:
        raise TypeMismatch("relative alignments on the wrong scheme")
    if a1.l1.cls != a2.l1.cls or a1.l2.cls != a2.l2.cls:
        raise TypeMismatch("relative alignments must share both endpoints")
    pi = structure_morphism(scheme)
    base = pi.target
    k1, k2 = a1.k, a2.k
    base2, base_red = mod2_reduction(base.pic)
    if base_red(k1.cls) != base_red(k2.cls):
        raise ClassMismatch(
            "coefficient bundles differ mod squares on the base",
            witness=(k1, k2),
        )
    # cancel the common L1: the connecting class between the pulled coefficients
    a_conn = compose(invert(a2.inner), a1.inner)
    cancelled = AlignmentClass(
        LineBundle(scheme, pi.pic_pullback.apply(k1.cls)),
        LineBundle(scheme, pi.pic_pullback.apply(k2.cls)),
        a_conn.m,
        a_conn.u,
    )
    cert = descend_alignment(pi, cancelled, k1, k2, mode="plain")
    c = cert.output
    # recomposition check of the defining identity
    moved = compose(a2.inner, tensor(pull_alignment(pi, c), identity_alignment(a1.l1)))
    if moved.data() != a1.inner.data():
        raise InternalContradiction("moved coefficient failed recomposition")
    return c


def solve_coefficient_square(f, frame, abar, bbar, c=None, cbar=None):
    """Complete the coefficient square of a lax pullback or pushforward.

    ``frame="pull"``: abar: f*L ⇝ Lbar, bbar: f*M ⇝ Mbar.  Given the
    relative alignment C: L ⇝_K M downstairs produce Cbar: Lbar ⇝_K Mbar
    with  bbar ∘ f*(C) = Cbar ∘ (id ⊗ abar),  or conversely recover C from
    Cbar through descent.

    ``frame="push"``: abar: Lbar ⇝ ω⊗f*L, bbar: Mbar ⇝ ω⊗f*M and the
    square is  bbar ∘ Cbar = f^!(C) ∘ (id ⊗ abar).
    """
    require_smpic(f.source)
    require_smpic(f.target)
    y, ybar = f.target, f.source
    pi_y = structure_morphism(y)
    pi_ybar = structure_morphism(ybar)
    if (c is None) == (cbar is None):
        raise TypeMismatch("provide exactly one of c, cbar")

    if frame == "pull":
        if c is not None:
            k = c.k
            pulled_k = identity_alignment(
                LineBundle(ybar, pi_ybar.pic_pullback.apply(k.cls))
            )
            lhs = compose(bbar, pull_alignment(f, c.inner))
            rhs_leg = tensor(pulled_k, abar)
            cbar_inner = solve_composition(rhs_leg, lhs, "left")
            out = KAlignmentClass(k, cbar_inner)
            check_l = compose(bbar, pull_alignment(f, c.inner))
            check_r = compose(out.inner, tensor(pulled_k, abar))
            if check_l.data() != check_r.data():
                raise InternalContradiction("pull coefficient square does not close")
            return out
        k = cbar.k
        pulled_k = identity_alignment(
            LineBundle(ybar, pi_ybar.pic_pullback.apply(k.cls))
        )
        dbar = compose(invert(bbar), compose(cbar.inner, tensor(pulled_k, abar)))
        # dbar: pi_bar^*K ⊗ f^*L ⇝ f^*M descends to K ⊗-relative data downstairs
        l_for_descent = LineBundle(
            y, pi_y.pic_pullback.apply(k.cls) + _pull_source_of(f, abar)
        )
        m_for_descent = LineBundle(y, _pull_source_of(f, bbar, name="M"))
        cert = descend_alignment(f, dbar, l_for_descent, m_for_descent, mode="plain")
        out = KAlignmentClass(k, cert.output)
        check_l = compose(bbar, pull_alignment(f, out.inner))
        check_r = compose(cbar.inner, tensor(pulled_k, abar))
        if check_l.data() != check_r.data():
            raise InternalContradiction("pull coefficient square does not close")
        return out

    if frame == "push":
        omega = f.omega
        if c is not None:
            k = c.k
            pulled_k = identity_alignment(
                LineBundle(ybar, pi_ybar.pic_pullback.apply(k.cls))
            )
            aprime = tensor(pulled_k, abar)
            lhs = compose(shriek_alignment(f, c.inner), aprime)
            out = KAlignmentClass(k, compose(invert(bbar), lhs))
            check_l = compose(bbar, out.inner)
            check_r = compose(shriek_alignment(f, c.inner), aprime)
            if check_l.data() != check_r.data():
                raise InternalContradiction("push coefficient square does not close")
            return out
        k = cbar.k
        pulled_k = identity_alignment(
            LineBundle(ybar, pi_ybar.pic_pullback.apply(k.cls))
        )
        aprime = tensor(pulled_k, abar)
        dbar = compose(bbar, compose(cbar.inner, invert(aprime)))
        # dbar: ω ⊗ f^*(pi^*K ⊗ L) ⇝ ω ⊗ f^*M descends in shriek mode
        l_down = LineBundle(
            y, pi_y.pic_pullback.apply(k.cls) + _push_target_of(f, abar)
        )
        m_down = LineBundle(y, _push_target_of(f, bbar))
        cert = descend_alignment(f, dbar, l_down, m_down, mode="shriek")
        out = KAlignmentClass(k, cert.output)
        check_l = compose(bbar, cbar.inner)
        check_r = compose(shriek_alignment(f, out.inner), aprime)
        if check_l.data() != check_r.data():
            raise InternalContradiction("push coefficient square does not close")
        return out

    raise TypeMismatch(f"unknown frame {frame!r}")


def _pull_source_of(f, abar, name="L"):
    """Recover the downstairs class L from abar: f*L ⇝ Lbar.

    The pullback need not be injective on all of Pic, so the caller's data
    must determine L; we invert through a canonical solve and fail loudly
    when the class is not reachable.
    """
    sol = solve_linear(f.pic_pullback, abar.source.cls)
    if sol is None:
        raise TypeMismatch(
            "lax pull source is not a pullback from downstairs",
            witness=abar.source.cls,
        )
    return sol[0]


def _push_target_of(f, abar):
    """Recover L from abar: Lbar ⇝ ω ⊗ f*L."""
    omega = f.omega
    sol = solve_linear(f.pic_pullback, abar.target.cls - omega)
    if sol is None:
        raise TypeMismatch(
            "lax push target is not an omega-twisted pullback",
            witness=abar.target.cls,
        )
    return sol[0]
