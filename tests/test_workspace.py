import json

import pytest

from wtc.basis import check_localization, check_total_basis
from wtc.errors import OverlapWarning, ParseError, ValidationError
from wtc.workspace import (
    fixture_path,
    loads,
    parse_workspace,
    serialize,
    workspace_from_dict,
)


def test_minimal_point_workspace_loads():
    ws = parse_workspace(fixture_path("point"))
    assert ws.base.name == "X"
    assert ws.base_ring.piece(0, ()).invariants == (2,)
    assert "unit" in ws.candidates
    assert check_total_basis(ws.candidates["unit"]).passed


def test_parse_error_location():
    with pytest.raises(ParseError) as err:
        loads("{\n  broken json\n}")
    assert err.value.line == 2


def test_roundtrip_idempotent():
    for name in (
        "point",
        "affine_line",
        "projective_line",
        "torsion_pic",
        "failing_smpic",
        "broken_exactness",
    ):
        once = serialize(parse_workspace(fixture_path(name)))
        twice = serialize(loads(once))
        assert once == twice, name


def test_projective_line_contents():
    ws = parse_workspace(fixture_path("projective_line"))
    assert set(ws.presentations) == {"W_Xm", "W_Zpt", "W_A1", "W_P1", "W_zP1"}
    assert ws.presentations["W_P1"].scope == ((0,), (1,))
    assert check_total_basis(ws.candidates["p1_basis"]).passed
    rep = check_localization(ws.ledgers["loc_even"], assert_basis=("z", "u"))
    assert rep.passed


def test_validation_error_nonassociative_ring():
    doc = json.loads(open(fixture_path("point")).read())
    # corrupt the product table: 1*1 = 0 breaks the unit law
    doc["base_ring"]["products"][0]["table"] = [[[0]]]
    with pytest.raises(ValidationError) as err:
        workspace_from_dict(doc)
    assert "ring_unit" in str(err.value)


def test_validation_error_names_offending_triple():
    # unital commutative but genuinely non-associative on (u, a, b):
    # (a*a)*b = b while a*(a*b) = u
    doc = json.loads(open(fixture_path("point")).read())
    doc["base_ring"]["pieces"] = [
        {
            "degree": 0,
            "class": [],
            "group": {"generators": ["u", "a", "b"], "relations": [[2, 0, 0], [0, 2, 0], [0, 0, 2]]},
        }
    ]
    doc["base_ring"]["unit"] = [1, 0, 0]
    u, a, b = [1, 0, 0], [0, 1, 0], [0, 0, 1]
    table = [
        [u, a, b],
        [a, u, a],
        [b, a, u],
    ]
    doc["base_ring"]["products"] = [
        {"left": [0, []], "right": [0, []], "table": table, "transport": None}
    ]
    doc["presentations"] = {}
    doc["basis_candidates"] = {}
    with pytest.raises(ValidationError) as err:
        workspace_from_dict(doc)
    assert err.value.axiom == "ring_associativity"
    assert err.value.witness is not None and len(err.value.witness) == 3


def test_validation_error_names_axiom_for_nonlinear_map():
    with pytest.raises(ValidationError) as err:
        parse_workspace(fixture_path("nonlinear_bord"))
    assert err.value.axiom == "map_action_linearity"


def test_overlap_union_fixture_fails_with_witness():
    with pytest.raises(OverlapWarning) as err:
        parse_workspace(fixture_path("overlap_union"))
    assert err.value.witness == ((0,),)


def test_broken_exactness_loads_but_fails_localization():
    from wtc.errors import ExactnessFailure

    ws = parse_workspace(fixture_path("broken_exactness"))
    with pytest.raises(ExactnessFailure):
        check_localization(ws.ledgers["loc_odd"], assert_basis=("z", "u"))


def test_failing_smpic_fixture():
    from wtc.descent import certify_smpic

    ws = parse_workspace(fixture_path("failing_smpic"))
    c1 = certify_smpic(ws.morphisms["pi_bad1"])
    assert not c1.pic_injective and c1.torsion_free and c1.units_surjective
    c2 = certify_smpic(ws.morphisms["pi_bad2"])
    assert c2.pic_injective and not c2.torsion_free and c2.units_surjective
    c3 = certify_smpic(ws.morphisms["pi_bad3"])
    assert c3.pic_injective and c3.torsion_free and not c3.units_surjective


def test_torsion_pic_fixture_descends():
    from wtc.align import AlignmentClass
    from wtc.descent import descend_alignment

    ws = parse_workspace(fixture_path("torsion_pic"))
    y, ybar = ws.schemes["Y"], ws.schemes["Ybar"]
    f = ws.morphisms["f"]
    l1 = y.bundle(y.pic.from_presentation([0, 0]))
    l2 = y.bundle(y.pic.from_presentation([0, 2]))
    abar = AlignmentClass(
        ybar.bundle(ybar.pic.from_presentation([0, 0])),
        ybar.bundle(ybar.pic.from_presentation([0, 2])),
        ybar.pic.from_presentation([1, 1]),
        (0,),
    )
    cert = descend_alignment(f, abar, l1, l2)
    assert cert.check
    assert cert.output.m == y.pic.from_presentation([1, 1])


def test_unknown_map_kind_with_blocks_is_located():
    doc = json.loads(open(fixture_path("projective_line")).read())
    doc["registered_maps"]["pull_piA1"]["kind"] = "pullback"
    assert doc["registered_maps"]["pull_piA1"]["blocks"]
    with pytest.raises(ValidationError) as err:
        workspace_from_dict(doc)
    assert err.value.axiom == "map_kind"
    assert "pull_piA1: unknown kind 'pullback'" in str(err.value)
