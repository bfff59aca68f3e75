import random

import pytest

from wtc.basis import (
    BasisCandidate,
    BasisMember,
    LedgerPair,
    LocalizationLedger,
    chunk_scope,
    check_localization,
    check_total_basis,
    theta_action_linearity,
    transfer_basis,
    union_bases,
)
from wtc.errors import (
    InjectivityFailure,
    MissingAnnotation,
    OverlapWarning,
)

from .util import p1_module_data


@pytest.fixture(scope="module")
def data():
    return p1_module_data()


def member(pres, mid, degree, key, coords, twist=None):
    w = pres.element(degree, key, coords, twist=twist)
    return BasisMember(mid, degree, w)


@pytest.fixture(scope="module")
def unit_x(data):
    return BasisCandidate(
        data["W_Xm"], [member(data["W_Xm"], "one", 0, (), [1, 0])], [()]
    )


@pytest.fixture(scope="module")
def p1_basis(data):
    return BasisCandidate(
        data["W_P1"],
        [
            member(data["W_P1"], "one", 0, (0,), [1, 0]),
            member(data["W_P1"], "sigma", 1, (0,), [1, 0]),
        ],
        [(0,), (1,)],
    )


def test_point_unit_is_total_basis(data, unit_x):
    rep = check_total_basis(unit_x)
    assert rep.passed
    assert rep.cells[(0, ())].is_iso


def test_p1_basis_passes(data, p1_basis):
    rep = check_total_basis(p1_basis)
    assert rep.passed
    assert len(rep.cells) == 8  # 4 degrees x 2 classes


def test_empty_family_on_nonzero_module_fails(data):
    cand = BasisCandidate(data["W_P1"], [], [(0,)])
    rep = check_total_basis(cand)
    assert not rep.passed
    failing = rep.failing_cells()
    assert failing and all(c.witness_kind == "missed element" for c in failing)


def test_redundant_family_fails_with_kernel_witness(data):
    cand = BasisCandidate(
        data["W_P1"],
        [
            member(data["W_P1"], "one", 0, (0,), [1, 0]),
            member(data["W_P1"], "one2", 0, (0,), [1, 0]),
            member(data["W_P1"], "sigma", 1, (0,), [1, 0]),
        ],
        [(0,), (1,)],
    )
    rep = check_total_basis(cand)
    assert not rep.passed
    assert any(c.witness_kind == "kernel element" for c in rep.failing_cells())


def test_all_choices_mode_agrees(data, p1_basis, unit_x):
    rep = check_total_basis(p1_basis, mode="all-choices")
    assert rep.passed
    assert rep.choices_checked > 1
    rep2 = check_total_basis(unit_x, mode="all-choices")
    assert rep2.passed


def test_theta_linearity_spot_checks(data, p1_basis):
    rng = random.Random(7)
    assert theta_action_linearity(p1_basis, rng, samples=100) == 100


def test_lax_similitude_invariance(data, p1_basis):
    # replacing a member by a lax-similar class never changes the verdict
    from wtc.align import AlignmentClass
    from wtc.module import transport

    p1 = data["geo"]["P1"]
    for t_m, u in [(1, (0,)), (-1, (1,)), (0, (1,))]:
        b = AlignmentClass(
            p1.bundle([0]), p1.bundle([2 * t_m]), p1.pic.element([t_m]), u
        )
        moved = transport(p1_basis.members[0].w, b)
        cand = BasisCandidate(
            data["W_P1"],
            [BasisMember("one", 0, moved), p1_basis.members[1]],
            p1_basis.scope,
        )
        assert check_total_basis(cand).passed


# ---------------------------------------------------------------------------
# surgery


def test_union_disjoint(data):
    c1 = BasisCandidate(
        data["W_P1"], [member(data["W_P1"], "one", 0, (0,), [1, 0])], [(0,)]
    )
    c2 = BasisCandidate(data["W_P1"], [], [(1,)])
    res = union_bases(c1, c2)
    assert res.independence_transferred
    assert res.candidate.scope == ((0,), (1,))


def test_union_overlap_warns(data):
    c1 = BasisCandidate(
        data["W_P1"], [member(data["W_P1"], "a", 0, (0,), [1, 0])], [(0,)]
    )
    c2 = BasisCandidate(
        data["W_P1"], [member(data["W_P1"], "b", 0, (0,), [0, 1])], [(0,)]
    )
    res = union_bases(c1, c2)
    assert res.overlap == ((0,),)
    assert not res.independence_transferred
    with pytest.raises(OverlapWarning):
        union_bases(c1, c2, require_disjoint=True)


def test_union_empty_right(data):
    c1 = BasisCandidate(
        data["W_P1"], [member(data["W_P1"], "one", 0, (0,), [1, 0])], [(0,)]
    )
    c2 = BasisCandidate(data["W_P1"], [], [])
    res = union_bases(c1, c2)
    assert res.candidate.members == c1.members
    assert res.candidate.scope == c1.scope


def test_chunk_scope(data):
    w_z = data["W_zP1"]
    iota = data["geo"]["iota"]
    chunks = chunk_scope(w_z, iota)
    assert sorted(chunks) == [((0,),), ((1,),)]
    ups = data["geo"]["upsilon"]
    w_p1 = data["W_P1"]
    assert sorted(chunk_scope(w_p1, ups)) == [((0,),), ((1,),)]
    # injective case: single chunk
    f = data["geo"]["f"]
    assert chunk_scope(w_p1, f) == [((0,), (1,))]


# ---------------------------------------------------------------------------
# transfer


def test_transfer_affine(data, unit_x):
    a1 = data["geo"]["A1"]
    res = transfer_basis(unit_x, a1.structure_map, "affine")
    assert res.candidate.presentation is data["W_A1"]
    assert res.source_report.passed and res.target_report.passed
    assert res.verdicts_agree


def test_transfer_requires_annotation(data, unit_x):
    p1 = data["geo"]["P1"]
    with pytest.raises(MissingAnnotation):
        transfer_basis(unit_x, p1.structure_map, "affine")


def test_transfer_devissage_per_chunk(data):
    zpt = data["geo"]["Zpt"]
    iota = data["geo"]["iota"]
    unit_zpt = BasisCandidate(
        data["W_Zpt"], [member(data["W_Zpt"], "one", 0, (), [1, 0])], [()]
    )
    with pytest.raises(InjectivityFailure):
        transfer_basis(unit_zpt, iota, "devissage")
    res0 = transfer_basis(unit_zpt, iota, "devissage", target_scope=[(0,)])
    assert res0.candidate.presentation is data["W_zP1"]
    assert res0.candidate.members[0].w.degree == 1
    assert res0.target_report.passed
    res1 = transfer_basis(unit_zpt, iota, "devissage", target_scope=[(1,)])
    assert res1.candidate.members[0].w.key == (1,)
    merged = union_bases(res0.candidate, res1.candidate)
    assert merged.independence_transferred
    assert check_total_basis(merged.candidate).passed


def test_transfer_identity_realignment(data, p1_basis):
    # transfer along the identity with nontrivial alignment choices is a
    # realignment: the basis property is preserved
    from wtc.align import AlignmentClass
    from wtc.module import RegisteredMap, validate_registered_map
    from wtc.schemes import identity_morphism

    p1 = data["geo"]["P1"]
    w_p1 = data["W_P1"]
    ident = identity_morphism(p1)
    eye = [[1, 0], [0, 1]]
    # build blocks with canonical transports
    from wtc.module import default_block_transport

    blocks = {}
    for key in [(0,), (1,)]:
        stub = RegisteredMap("id_pull", "pull", w_p1, w_p1, morphism=ident)
        blocks[key] = (
            default_block_transport(stub, key),
            {0: eye, 1: eye, 2: eye, 3: eye},
        )
    rmap = RegisteredMap(
        "id_pull", "pull", w_p1, w_p1, morphism=ident, blocks=blocks
    )
    validate_registered_map(rmap)
    w_p1.register_map(rmap)
    choices = {
        "one": AlignmentClass(
            p1.bundle([0]), p1.bundle([2]), p1.pic.element([1]), (1,)
        ),
    }
    res = transfer_basis(p1_basis, ident, "pullback", via=rmap, choices=choices)
    assert res.target_report.passed
    assert res.verdicts_agree
    # round trip: transferring back with the inverse alignments returns a
    # family equal member by member
    from wtc.align import invert
    from wtc.module import compare_classes

    back_choices = {"one": invert(choices["one"])}
    res_back = transfer_basis(
        res.candidate, ident, "pullback", via=rmap, choices=back_choices
    )
    for orig, round_tripped in zip(p1_basis.members, res_back.candidate.members):
        assert orig.member_id == round_tripped.member_id
        assert compare_classes(orig.w, round_tripped.w)


# ---------------------------------------------------------------------------
# localization ledgers


def make_even_ledger(data):
    w_z, w_p1, w_a1 = data["W_zP1"], data["W_P1"], data["W_A1"]
    v = member(w_z, "v", 1, (0,), [1, 0])
    wprime = member(w_p1, "sigma", 1, (0,), [1, 0])
    w_mem = member(w_p1, "one", 0, (0,), [1, 0])
    uprime = member(w_a1, "oneU", 0, (), [1, 0])
    return LocalizationLedger(
        "loc_even",
        data["geo"]["loc"],
        w_z,
        w_p1,
        w_a1,
        data["maps"]["ext_z"],
        data["maps"]["res_ups"],
        data["maps"]["bord_ups"],
        scope=[(0,)],
        e_pairs=(LedgerPair(v, wprime),),
        upsilon_pairs=(LedgerPair(w_mem, uprime),),
        bord_pairs=(),
    )


def make_odd_ledger(data):
    w_z, w_p1, w_a1 = data["W_zP1"], data["W_P1"], data["W_A1"]
    p1 = data["geo"]["P1"]
    u = member(w_a1, "oneU", 0, (), [1, 0])
    vprime = member(w_z, "vp", 1, (1,), [1, 0], twist=p1.pic.element([1]))
    return LocalizationLedger(
        "loc_odd",
        data["geo"]["loc"],
        w_z,
        w_p1,
        w_a1,
        data["maps"]["ext_z"],
        data["maps"]["res_ups"],
        data["maps"]["bord_ups"],
        scope=[(1,)],
        e_pairs=(),
        upsilon_pairs=(),
        bord_pairs=(LedgerPair(u, vprime),),
    )


def test_localization_even_derives_y(data):
    report = check_localization(make_even_ledger(data), assert_basis=("z", "u"))
    assert report.passed, [r for r in report.records if not r.ok]
    assert report.derived_side == "y"
    assert report.derived_verdict is True
    assert report.theta_report.passed
    assert len(report.derived_candidate.members) == 2


def test_localization_odd_derives_empty_y(data):
    report = check_localization(make_odd_ledger(data), assert_basis=("z", "u"))
    assert report.passed, [r for r in report.records if not r.ok]
    assert report.derived_candidate.members == ()
    assert report.derived_verdict is True


def test_localization_other_assertions(data):
    led = make_even_ledger(data)
    rep_zy = check_localization(led, assert_basis=("z", "y"))
    assert rep_zy.passed and rep_zy.derived_side == "u"
    rep_yu = check_localization(led, assert_basis=("y", "u"))
    assert rep_yu.passed and rep_yu.derived_side == "z"


def test_localization_similitude_failure(data):
    from wtc.errors import SimilitudeFailure

    w_z, w_p1, w_a1 = data["W_zP1"], data["W_P1"], data["W_A1"]
    v = member(w_z, "v", 1, (0,), [1, 0])
    wrong = member(w_p1, "sigma", 1, (0,), [0, 1])  # not lax-similar via no witness
    led = LocalizationLedger(
        "bad_pairs", data["geo"]["loc"], w_z, w_p1, w_a1,
        data["maps"]["ext_z"], data["maps"]["res_ups"], data["maps"]["bord_ups"],
        scope=[(0,)],
        e_pairs=(LedgerPair(v, wrong),),
        upsilon_pairs=(),
        bord_pairs=(),
    )
    with pytest.raises(SimilitudeFailure, match="pair 0"):
        check_localization(led, assert_basis=("z", "u"))
    # the same pair with the unit witness declared is honestly lax-similar
    from wtc.align import AlignmentClass

    p1 = data["geo"]["P1"]
    witness = AlignmentClass(
        p1.bundle([0]), p1.bundle([0]), p1.pic.zero(), (1,)
    )
    led_ok = LocalizationLedger(
        "witnessed", data["geo"]["loc"], w_z, w_p1, w_a1,
        data["maps"]["ext_z"], data["maps"]["res_ups"], data["maps"]["bord_ups"],
        scope=[(0,)],
        e_pairs=(LedgerPair(v, wrong, witness),),
        upsilon_pairs=(
            LedgerPair(
                member(w_p1, "one", 0, (0,), [1, 0]),
                member(w_a1, "oneU", 0, (), [1, 0]),
            ),
        ),
        bord_pairs=(),
    )
    rep = check_localization(led_ok, assert_basis=("z", "u"))
    assert rep.passed


def test_localization_mixed_roles_one_class():
    # one class carrying an extension pair, a restriction pair and a
    # connecting pair at once: exercises the block offsets of the model
    from .util import mixed_localization_data

    d = mixed_localization_data()
    w_z, w_y, w_u = d["Wz"], d["Wy"], d["Wu"]
    v = member(w_z, "v", 1, (), [1])
    wprime = member(w_y, "wp", 1, (), [1])
    w_mem = member(w_y, "w", 0, (), [1])
    uprime = member(w_u, "up", 0, (), [1])
    u_mem = member(w_u, "u", 1, (), [1])
    vprime = member(w_z, "vp", 2, (), [1])
    led = LocalizationLedger(
        "mixed", d["loc"], w_z, w_y, w_u,
        d["ext"], d["res"], d["bord"],
        scope=[()],
        e_pairs=(LedgerPair(v, wprime),),
        upsilon_pairs=(LedgerPair(w_mem, uprime),),
        bord_pairs=(LedgerPair(u_mem, vprime),),
    )
    for sides in (("z", "u"), ("z", "y"), ("y", "u")):
        rep = check_localization(led, assert_basis=sides)
        assert rep.passed, (sides, [r for r in rep.records if not r.ok])
        assert rep.derived_verdict is True
        assert rep.theta_report.passed



@pytest.mark.parametrize(
    "e_right,r_right,b_right,record,detail",
    [
        ("zero_y1", "up", "vp", "model_square[e,(),1]", "square not solvable"),
        ("wp", "up", "v", "model_zero[e,(),1]",
         "extension does not kill the connected member"),
        ("wp", "zero_u0", "vp", "model_square[res,(),0]", "square not solvable"),
        ("w", "up", "vp", "model_zero[res,(),0]",
         "restriction does not kill the extended member"),
        ("wp", "up", "zero_z2", "model_square[bord,(),1]", "square not solvable"),
    ],
)
def test_five_lemma_names_the_failed_premise(e_right, r_right, b_right, record, detail):
    # wrong right-hand members break one square or one vanishing premise of
    # the split model; the derivation stops there and names it
    from wtc.basis import LocalizationReport, _five_lemma_derivation

    from .util import mixed_localization_data

    d = mixed_localization_data()
    w_z, w_y, w_u = d["Wz"], d["Wy"], d["Wu"]
    m = {
        "v": member(w_z, "v", 1, (), [1]),
        "vp": member(w_z, "vp", 2, (), [1]),
        "zero_z2": member(w_z, "vp", 2, (), [0]),
        "wp": member(w_y, "wp", 1, (), [1]),
        "w": member(w_y, "w", 0, (), [1]),
        "zero_y1": member(w_y, "wp", 1, (), [0]),
        "up": member(w_u, "up", 0, (), [1]),
        "zero_u0": member(w_u, "up", 0, (), [0]),
        "u": member(w_u, "u", 1, (), [1]),
    }
    led = LocalizationLedger(
        "mixed", d["loc"], w_z, w_y, w_u,
        d["ext"], d["res"], d["bord"],
        scope=[()],
        e_pairs=(LedgerPair(m["v"], m[e_right]),),
        upsilon_pairs=(LedgerPair(m["w"], m[r_right]),),
        bord_pairs=(LedgerPair(m["u"], m[b_right]),),
    )
    report = LocalizationReport(led)
    assert _five_lemma_derivation(led, report, {(): ()}) is False
    assert [(r.name, r.ok, r.detail) for r in report.records] == [
        (record, False, detail),
        ("five_lemma_premises", False, ""),
    ]

def test_full_pipeline_size_two(data, unit_x):
    # devissage per chunk, affine transfer, two ledgers, union: a total
    # basis of the projective-line presentation of size exactly 2
    zpt = data["geo"]["Zpt"]
    iota = data["geo"]["iota"]
    res_z = transfer_basis(unit_x, zpt.structure_map, "affine")
    res0 = transfer_basis(res_z.candidate, iota, "devissage", target_scope=[(0,)])
    res1 = transfer_basis(res_z.candidate, iota, "devissage", target_scope=[(1,)])
    a1 = data["geo"]["A1"]
    res_u = transfer_basis(unit_x, a1.structure_map, "affine")

    rep_even = check_localization(make_even_ledger(data), assert_basis=("z", "u"))
    rep_odd = check_localization(make_odd_ledger(data), assert_basis=("z", "u"))
    assert rep_even.passed and rep_odd.passed
    merged = union_bases(rep_even.derived_candidate, rep_odd.derived_candidate)
    assert merged.independence_transferred
    assert len(merged.candidate.members) == 2
    final = check_total_basis(merged.candidate)
    assert final.passed
