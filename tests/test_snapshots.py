"""Golden snapshots of CLI reports and saved workspaces.

The determinism tests compare a run with itself; these compare every run
with the bytes committed under ``tests/snapshots/``, so a refactor that
changes any report, exit code or saved workspace fails here.
"""

import pathlib

import pytest

from wtc.cli import main
from wtc.workspace import fixture_path, parse_workspace, serialize

SNAPSHOTS = pathlib.Path(__file__).parent / "snapshots"

LOADABLE = (
    "affine_line",
    "broken_exactness",
    "failing_smpic",
    "point",
    "projective_line",
    "torsion_pic",
)

# (fixture, argv after the workspace); the criterion-9 and CLI determinism
# commands first, then commands that reach the remaining map kinds and the
# fixtures that fail at load
COMMANDS = (
    ("projective_line", ["certify-smpic", "--morphism", "pi_P1"]),
    ("torsion_pic", ["certify-smpic", "--morphism", "f"]),
    ("failing_smpic", ["certify-smpic", "--morphism", "pi_bad2"]),
    ("projective_line", ["descend", "--morphism", "f", "--l1", "0", "--l2", "2h",
                         "--m", "hb", "--u", "a"]),
    ("torsion_pic", ["descend", "--morphism", "f", "--l1", "0", "--l2", "2h",
                     "--m", "t+h", "--u", "1"]),
    ("projective_line", ["realign", "--morphism", "f", "--side", "pull", "--l1", "0",
                         "--l2", "2h", "--lbar", "2hb", "--a1", "M=hb,u=a",
                         "--a2", "M=0,u=1"]),
    ("projective_line", ["realign", "--morphism", "pi_P1", "--side", "push", "--l1", "0",
                         "--l2", "0", "--lbar", "0", "--a1", "M=-h,u=1",
                         "--a2", "M=-h,u=a"]),
    ("failing_smpic", ["certify-smpic", "--morphism", "pi_bad3"]),
    ("projective_line", ["normalize", "--expr", "per(2h) . per(h)", "--scheme", "P1"]),
    ("projective_line", ["normalize", "--expr", "ext(z<total) . per(h) . bord(h)",
                         "--scheme", "A1"]),
    ("projective_line", ["eval", "--expr", "pull(pi_A1)", "--scheme", "X",
                         "--presentation", "W_Xm", "--coords", "1,0"]),
    ("projective_line", ["check-basis", "--candidate", "p1_basis"]),
    ("projective_line", ["check-basis", "--candidate", "z_basis", "--all-choices"]),
    ("point", ["check-basis", "--candidate", "unit"]),
    ("affine_line", ["check-basis", "--candidate", "unit_A1"]),
    ("projective_line", ["transfer-basis", "--candidate", "unit_X", "--morphism", "pi_A1",
                         "--mode", "affine"]),
    ("affine_line", ["transfer-basis", "--candidate", "unit_X", "--morphism", "pi_A1",
                     "--mode", "affine"]),
    ("projective_line", ["check-localization", "--ledger", "loc_even"]),
    ("projective_line", ["check-localization", "--ledger", "loc_odd"]),
    ("broken_exactness", ["check-localization", "--ledger", "loc_odd"]),
    ("projective_line", ["normalize", "--expr", "per(2h).per(h)", "--scheme", "P1"]),
    ("projective_line", ["eval", "--expr", "push(iota)", "--scheme", "Zpt",
                         "--presentation", "W_Zpt", "--coords", "1,1"]),
    ("projective_line", ["eval", "--expr", "bord(h)", "--scheme", "A1",
                         "--presentation", "W_A1", "--coords", "1,0"]),
    ("projective_line", ["eval", "--expr", "ext(z<total) . per(h)", "--scheme", "P1",
                         "--support", "z", "--degree", "1", "--twist", "h",
                         "--presentation", "W_zP1", "--coords", "1,1"]),
    ("projective_line", ["eval", "--expr", "restrict(zloc)", "--scheme", "P1",
                         "--presentation", "W_P1", "--coords", "1,1"]),
    ("projective_line", ["transfer-basis", "--candidate", "unit_X", "--morphism", "pi_Zpt",
                         "--mode", "pullback"]),
    ("projective_line", ["check-localization", "--ledger", "loc_even",
                         "--assert-basis", "z,y"]),
    ("projective_line", ["check-localization", "--ledger", "loc_odd",
                         "--assert-basis", "y,u"]),
    ("broken_exactness", ["check-localization", "--ledger", "loc_even"]),
    ("failing_smpic", ["certify-smpic", "--morphism", "pi_bad1"]),
    ("nonlinear_bord", ["certify-smpic", "--morphism", "pi_P1"]),
    ("overlap_union", ["check-basis", "--candidate", "overlapping_union"]),
)


def _case_id(index, fixture, argv):
    return f"{index:02d}-{fixture}-{argv[0]}"


CASES = [
    pytest.param(fixture, argv, as_json, id=_case_id(i, fixture, argv) + suffix)
    for i, (fixture, argv) in enumerate(COMMANDS)
    for as_json, suffix in ((False, ""), (True, "-json"))
]


def run_report(fixture, argv, as_json, capsys):
    full = [argv[0], "--workspace", fixture_path(fixture)] + argv[1:]
    code = main(full + (["--json"] if as_json else []))
    return f"exit: {code}\n" + capsys.readouterr().out


@pytest.mark.parametrize("fixture,argv,as_json", CASES)
def test_cli_report_snapshot(fixture, argv, as_json, capsys, request):
    name = request.node.callspec.id + ".txt"
    expected = (SNAPSHOTS / "cli" / name).read_text(encoding="utf-8")
    assert run_report(fixture, argv, as_json, capsys) == expected


@pytest.mark.parametrize("fixture", LOADABLE)
def test_serialize_snapshot(fixture):
    expected = (SNAPSHOTS / "serialize" / f"{fixture}.json").read_text(encoding="utf-8")
    assert serialize(parse_workspace(fixture_path(fixture))) == expected
