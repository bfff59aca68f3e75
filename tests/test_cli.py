import json

import pytest

from wtc.cli import main
from wtc.workspace import fixture_path


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_certify_smpic_pass(capsys):
    code, out = run_cli(
        [
            "certify-smpic",
            "--workspace", fixture_path("projective_line"),
            "--morphism", "pi_P1",
        ],
        capsys,
    )
    assert code == 0
    assert "result: pass" in out


def test_certify_smpic_fail_exit_one(capsys):
    code, out = run_cli(
        [
            "certify-smpic",
            "--workspace", fixture_path("failing_smpic"),
            "--morphism", "pi_bad2",
        ],
        capsys,
    )
    assert code == 1
    assert "witness" in out
    assert "relative_pic_torsion_free" in out


def test_unknown_command_exit_two(capsys):
    code = main(["frobnicate", "--workspace", fixture_path("point")])
    assert code == 2


def test_normalize_merges_periodicities(capsys):
    code, out = run_cli(
        [
            "normalize",
            "--workspace", fixture_path("projective_line"),
            "--expr", "per(2h) . per(h)",
            "--scheme", "P1",
        ],
        capsys,
    )
    assert code == 0
    assert "normal_form = per(3h)" in out


def test_normalize_pull_rule(capsys):
    code, out = run_cli(
        [
            "normalize",
            "--workspace", fixture_path("projective_line"),
            "--expr", "pull(f) . per(h)",
            "--scheme", "P1",
        ],
        capsys,
    )
    assert code == 0
    assert "normal_form = per(hb) . pull(f)" in out


def test_descend_cli(capsys):
    code, out = run_cli(
        [
            "descend",
            "--workspace", fixture_path("projective_line"),
            "--morphism", "f",
            "--l1", "0",
            "--l2", "2h",
            "--m", "hb",
            "--u", "a",
        ],
        capsys,
    )
    assert code == 0
    assert "descended = (M=h, u=a)" in out


def test_descend_class_mismatch_exit_one(capsys):
    code, out = run_cli(
        [
            "descend",
            "--workspace", fixture_path("projective_line"),
            "--morphism", "f",
            "--l1", "0",
            "--l2", "h",
            "--m", "0",
        ],
        capsys,
    )
    assert code == 1
    assert "ClassMismatch" in out


def test_eval_cli(capsys):
    code, out = run_cli(
        [
            "eval",
            "--workspace", fixture_path("projective_line"),
            "--expr", "ext(z<total) . bord(h)",
            "--scheme", "A1",
            "--degree", "0",
            "--twist", "0",
            "--presentation", "W_A1",
            "--coords", "1,0",
        ],
        capsys,
    )
    assert code == 0
    # the odd-class piece of W(P1) is the zero group: the image dies
    assert "presentation = W_P1" in out
    assert "degree = 1" in out and "coords = \n" in out


def test_check_basis_cli(capsys):
    code, out = run_cli(
        [
            "check-basis",
            "--workspace", fixture_path("projective_line"),
            "--candidate", "p1_basis",
        ],
        capsys,
    )
    assert code == 0
    assert out.count("[PASS]") == 8


def test_check_basis_json_mirror(capsys):
    code, out = run_cli(
        [
            "check-basis",
            "--workspace", fixture_path("projective_line"),
            "--candidate", "p1_basis",
            "--json",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert len(doc["records"]) == 8


def test_transfer_basis_cli(capsys):
    code, out = run_cli(
        [
            "transfer-basis",
            "--workspace", fixture_path("projective_line"),
            "--candidate", "unit_X",
            "--morphism", "pi_A1",
            "--mode", "affine",
        ],
        capsys,
    )
    assert code == 0
    assert "target_presentation = W_A1" in out


def test_transfer_devissage_chunked_cli(capsys):
    code, out = run_cli(
        [
            "transfer-basis",
            "--workspace", fixture_path("projective_line"),
            "--candidate", "unit_X",
            "--morphism", "iota",
            "--mode", "devissage",
            "--target-class", "1",
        ],
        capsys,
    )
    # unit_X lives on W_Xm; the push map starts at W_Zpt: MissingMap, exit 1
    assert code == 1
    assert "MissingMap" in out


def test_check_localization_cli(capsys):
    code, out = run_cli(
        [
            "check-localization",
            "--workspace", fixture_path("projective_line"),
            "--ledger", "loc_even",
        ],
        capsys,
    )
    assert code == 0
    assert "derived-by-five-lemma: pass" in out
    assert "verified-by-theta: pass" in out


def test_check_localization_broken_exit_one(capsys):
    code, out = run_cli(
        [
            "check-localization",
            "--workspace", fixture_path("broken_exactness"),
            "--ledger", "loc_odd",
        ],
        capsys,
    )
    assert code == 1
    assert "ExactnessFailure" in out


def test_nonlinear_fixture_fails_any_command(capsys):
    code, out = run_cli(
        [
            "certify-smpic",
            "--workspace", fixture_path("nonlinear_bord"),
            "--morphism", "pi_P1",
        ],
        capsys,
    )
    assert code == 1
    assert "ValidationError" in out


def test_overlap_fixture_fails_check_basis(capsys):
    code, out = run_cli(
        [
            "check-basis",
            "--workspace", fixture_path("overlap_union"),
            "--candidate", "overlapping_union",
        ],
        capsys,
    )
    assert code == 1
    assert "OverlapWarning" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["certify-smpic", "--workspace", fixture_path("projective_line"), "--morphism", "pi_P1"],
        ["check-basis", "--workspace", fixture_path("projective_line"), "--candidate", "p1_basis"],
        ["check-basis", "--workspace", fixture_path("projective_line"), "--candidate", "p1_basis", "--json"],
        ["check-localization", "--workspace", fixture_path("projective_line"), "--ledger", "loc_even"],
        ["normalize", "--workspace", fixture_path("projective_line"), "--expr", "per(2h).per(h)", "--scheme", "P1"],
    ],
)
def test_cli_determinism(argv, capsys):
    code1, out1 = run_cli(argv, capsys)
    code2, out2 = run_cli(argv, capsys)
    assert code1 == code2
    assert out1 == out2


def test_unknown_map_kind_exits_one_with_located_message(tmp_path, capsys):
    doc = json.loads(open(fixture_path("projective_line")).read())
    doc["registered_maps"]["pull_piA1"]["kind"] = "pullback"
    path = tmp_path / "unknown_kind.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(
        ["certify-smpic", "--workspace", str(path), "--morphism", "pi_P1"], capsys
    )
    assert code == 1
    assert (
        "[FAIL] ValidationError: map_kind: pull_piA1: unknown kind 'pullback'" in out
    )
