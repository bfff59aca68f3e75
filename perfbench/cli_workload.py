"""``cli`` workload: cold in-process ``wtc.cli.main`` commands.

Every command loads its workspace from the shipped fixture file, as a shell
user's command does; nothing is reused between operations.  The command list
follows the CLI determinism acceptance test and covers every command kind and
every loadable shipped fixture, including the verified failures that exit
with code 1.  Every command runs as text and with ``--json``.  One workspace
save per loadable fixture (``loads -> serialize -> loads -> serialize``)
rides along in every round.

Expected results are written out by hand below: the exit code and report
lines that must appear.  The same lines are checked against the ``--json``
form, and every repeat of a command must print byte-identical output.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass

# (fixture, argv after the fixture, exit code, lines the text report holds).
# "[PASS] name" and "[FAIL] name: detail" are records, "key = value" payload
# entries, "result: pass|fail" the verdict.
COMMANDS = (
    ("projective_line", ["certify-smpic", "--morphism", "pi_P1"], 0, [
        "[PASS] pic_pullback_injective",
        "[PASS] relative_pic_torsion_free",
        "[PASS] units_surjective_mod_squares",
        "result: pass",
    ]),
    ("projective_line", ["descend", "--morphism", "f", "--l1", "0", "--l2", "2h",
                         "--m", "hb", "--u", "a"], 0, [
        "[PASS] descent_recomposes",
        "descended = (M=h, u=a): 0 ~> 2h",
    ]),
    ("projective_line", ["realign", "--morphism", "f", "--side", "pull", "--l1", "0",
                         "--l2", "2h", "--lbar", "2hb", "--a1", "M=hb,u=a",
                         "--a2", "M=0,u=1"], 0, [
        "[PASS] realignment_recomposes",
        "alignment = (M=h, u=a): 0 ~> 2h",
    ]),
    ("projective_line", ["realign", "--morphism", "pi_P1", "--side", "push", "--l1", "0",
                         "--l2", "0", "--lbar", "0", "--a1", "M=-h,u=1",
                         "--a2", "M=-h,u=a"], 0, [
        "[PASS] realignment_recomposes",
        "alignment = (M=0, u=a): 0 ~> 0",
    ]),
    ("projective_line", ["normalize", "--expr", "per(2h) . per(h)", "--scheme", "P1"], 0, [
        "normal_form = per(3h)",
        "domain = W^0_total(P1, 0)",
        "codomain = W^0_total(P1, 6h)",
    ]),
    ("projective_line", ["normalize", "--expr", "ext(z<total) . per(h) . bord(h)",
                         "--scheme", "A1"], 0, [
        "normal_form = ext(z<total) . bord(3h)",
        "codomain = W^1_total(P1, 3h)",
    ]),
    ("projective_line", ["eval", "--expr", "pull(pi_A1)", "--scheme", "X",
                         "--presentation", "W_Xm", "--coords", "1,0"], 0, [
        "presentation = W_A1",
        "coords = 1,0",
        "twist = 0",
    ]),
    ("projective_line", ["check-basis", "--candidate", "p1_basis"], 0, [
        "[PASS] theta[k=0,p=0]: (Z/2 + Z/2 -> (Z/2 + Z/2",
        "[PASS] theta[k=1,p=0]: (Z/2 + Z/2 -> (Z/2 + Z/2",
        "[PASS] theta[k=3,p=1]: 0 -> 0",
        "members = 2",
        "mode = fixed-choices",
        "result: pass",
    ]),
    ("projective_line", ["check-basis", "--candidate", "z_basis", "--all-choices"], 0, [
        "[PASS] theta[k=1,p=1]: (Z/2 + Z/2 -> (Z/2 + Z/2",
        "mode = all-choices",
        "result: pass",
    ]),
    ("projective_line", ["transfer-basis", "--candidate", "unit_X", "--morphism", "pi_A1",
                         "--mode", "affine"], 0, [
        "[PASS] verdicts_agree",
        "target_presentation = W_A1",
        "members = one@deg0",
    ]),
    ("projective_line", ["check-localization", "--ledger", "loc_even"], 0, [
        "[PASS] five_lemma_premises",
        "derived_side = y",
        "derived_verdict = derived-by-five-lemma: pass",
        "theta_verdict = verified-by-theta: pass",
        "derived_members = sigma@deg1;one@deg0",
    ]),
    ("projective_line", ["check-localization", "--ledger", "loc_odd"], 0, [
        "derived_verdict = derived-by-five-lemma: pass",
        "derived_members = ",
    ]),
    ("projective_line", ["certify-smpic", "--morphism", "pi_A1"], 0, ["result: pass"]),
    ("projective_line", ["certify-smpic", "--morphism", "pi_P1b"], 0, ["result: pass"]),
    ("projective_line", ["certify-smpic", "--morphism", "pi_Zpt"], 0, ["result: pass"]),
    ("projective_line", ["descend", "--morphism", "f", "--l1", "h", "--l2=-h", "--m=-hb"], 0, [
        "descended = (M=-h, u=1): h ~> -h",
    ]),
    ("projective_line", ["descend", "--morphism", "f", "--l1", "0", "--l2", "h",
                         "--m", "0"], 1, [
        "[FAIL] ClassMismatch: endpoints differ in the relative Picard group mod 2",
        "result: fail",
    ]),
    ("projective_line", ["normalize", "--expr", "restrict(zloc) . per(h)", "--scheme", "P1"], 0, [
        "normal_form = restrict(zloc)",
        "codomain = W^0_total(A1, 0)",
    ]),
    ("projective_line", ["eval", "--expr", "per(h)", "--scheme", "P1",
                         "--presentation", "W_P1", "--coords", "1,0"], 0, [
        "presentation = W_P1",
        "twist = 2h",
        "transport_m = h",
    ]),
    ("projective_line", ["eval", "--expr", "push(iota)", "--scheme", "Zpt",
                         "--presentation", "W_Zpt", "--coords", "1,0"], 0, [
        "presentation = W_zP1",
        "degree = 1",
    ]),
    ("projective_line", ["check-basis", "--candidate", "u_basis"], 0, ["members = 1"]),
    ("projective_line", ["check-basis", "--candidate", "unit_X"], 0, ["members = 1"]),
    ("projective_line", ["check-basis", "--candidate", "z_basis"], 0, [
        "[PASS] theta[k=1,p=0]: (Z/2 + Z/2 -> (Z/2 + Z/2",
        "[PASS] theta[k=0,p=0]: 0 -> 0",
        "members = 2",
    ]),
    ("projective_line", ["transfer-basis", "--candidate", "unit_X", "--morphism", "pi_Zpt",
                         "--mode", "pullback"], 0, [
        "[PASS] verdicts_agree",
        "target_presentation = W_Zpt",
    ]),
    ("broken_exactness", ["certify-smpic", "--morphism", "pi_P1"], 0, ["result: pass"]),
    ("broken_exactness", ["descend", "--morphism", "f", "--l1", "0", "--l2", "2h",
                          "--m", "hb", "--u", "a"], 0, [
        "descended = (M=h, u=a): 0 ~> 2h",
    ]),
    ("broken_exactness", ["normalize", "--expr", "per(2h) . per(h)", "--scheme", "P1"], 0, [
        "normal_form = per(3h)",
    ]),
    ("broken_exactness", ["check-basis", "--candidate", "z_basis"], 0, ["members = 2"]),
    ("broken_exactness", ["check-localization", "--ledger", "loc_even"], 0, [
        "derived_verdict = derived-by-five-lemma: pass",
        "theta_verdict = verified-by-theta: pass",
    ]),
    ("torsion_pic", ["certify-smpic", "--morphism", "f"], 0, ["result: pass"]),
    ("torsion_pic", ["descend", "--morphism", "f", "--l1", "0", "--l2", "2h",
                     "--m", "t+h", "--u", "1"], 0, [
        "descended = (M=t+h, u=1): 0 ~> 2h",
    ]),
    ("torsion_pic", ["normalize", "--expr", "per(h) . per(t)", "--scheme", "Y"], 0, [
        "normal_form = per(t+h)",
        "codomain = W^0_total(Y, 2h)",
    ]),
    ("failing_smpic", ["certify-smpic", "--morphism", "pi_bad1"], 1, [
        "[FAIL] pic_pullback_injective: witness <1>",
        "result: fail",
    ]),
    ("failing_smpic", ["certify-smpic", "--morphism", "pi_bad2"], 1, [
        "[PASS] pic_pullback_injective",
        "[FAIL] relative_pic_torsion_free: witness (<1>, <1>)",
        "result: fail",
    ]),
    ("failing_smpic", ["certify-smpic", "--morphism", "pi_bad3"], 1, [
        "[FAIL] units_surjective_mod_squares: witness (0, 1)",
        "result: fail",
    ]),
    ("point", ["check-basis", "--candidate", "unit"], 0, [
        "[PASS] theta[k=0,p=()]: (Z/2 -> (Z/2",
        "members = 1",
    ]),
    ("point", ["eval", "--expr", "per(0)", "--scheme", "X", "--presentation", "W_Xm",
               "--coords", "1"], 0, [
        "presentation = W_Xm",
        "coords = 1",
    ]),
    ("affine_line", ["certify-smpic", "--morphism", "pi_A1"], 0, ["result: pass"]),
    ("affine_line", ["normalize", "--expr", "pull(pi_A1)", "--scheme", "X"], 0, [
        "normal_form = pull(pi_A1)",
        "codomain = W^0_total(A1, 0)",
    ]),
    ("affine_line", ["check-basis", "--candidate", "unit_A1"], 0, [
        "[PASS] theta[k=0,p=()]: (Z/2 + Z/2 -> (Z/2 + Z/2",
    ]),
    ("affine_line", ["transfer-basis", "--candidate", "unit_X", "--morphism", "pi_A1",
                     "--mode", "affine"], 0, [
        "[PASS] source_basis",
        "[PASS] target_basis",
    ]),
    ("broken_exactness", ["check-basis", "--candidate", "p1_basis"], 0, ["result: pass"]),
    ("broken_exactness", ["check-localization", "--ledger", "loc_odd"], 1, [
        "[FAIL] ExactnessFailure: registered sequence not exact at class (1,)",
        "result: fail",
    ]),
)

SAVED_FIXTURES = (
    "affine_line", "broken_exactness", "failing_smpic", "point",
    "projective_line", "torsion_pic",
)


@dataclass
class CliOp:
    """A command (``argv``) or, with ``text`` set, a save of that workspace."""

    label: str
    argv: list = None
    code: int = 0
    lines: list = ()
    as_json: bool = False
    text: str = None


class CliWorkload:
    name = "cli"

    def __init__(self, seed):
        from wtc import cli, workspace

        self.cli = cli
        self.workspace = workspace
        self.templates = []
        for fixture, argv, code, lines in COMMANDS:
            path = workspace.fixture_path(fixture)
            full = [argv[0], "--workspace", path] + argv[1:]
            for as_json in (False, True):
                label = f"{fixture}: {' '.join(argv)}{' --json' if as_json else ''}"
                self.templates.append(CliOp(
                    label, full + (["--json"] if as_json else []), code, lines, as_json
                ))
        for fixture in SAVED_FIXTURES:
            with open(workspace.fixture_path(fixture), encoding="utf-8") as fh:
                text = fh.read()
            self.templates.append(CliOp(f"{fixture}: save", text=text))
        self._seen = {}
        self._seed = seed

    def warm_up(self):
        for fixture in SAVED_FIXTURES:
            self.workspace.parse_workspace(self.workspace.fixture_path(fixture))

    def round(self, i):
        ops = list(self.templates)
        random.Random(f"cli:{self._seed}:{i}").shuffle(ops)
        return ops

    def run(self, op):
        if op.text is not None:
            ws = self.workspace
            first = ws.serialize(ws.loads(op.text))
            return first, ws.serialize(ws.loads(first))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(op.argv)
        return code, buf.getvalue()

    def check(self, op, out):
        if op.text is not None:
            return _check_save(op, *out)
        code, stdout = out
        if code != op.code:
            return f"{op.label}: exit {code}, expected {op.code}"
        first = self._seen.setdefault(op.label, stdout)
        if stdout != first:
            return f"{op.label}: output differs from an earlier run"
        if op.as_json:
            return _check_json(op, stdout)
        present = stdout.splitlines()
        for line in op.lines:
            if line not in present:
                return f"{op.label}: missing line {line!r}"
        verdict = "result: pass" if op.code == 0 else "result: fail"
        if present[-1] != verdict:
            return f"{op.label}: last line {present[-1]!r}, expected {verdict!r}"
        return None


def _check_json(op, stdout):
    try:
        doc = json.loads(stdout)
    except ValueError:
        return f"{op.label}: not JSON"
    if doc.get("passed") is not (op.code == 0):
        return f"{op.label}: passed={doc.get('passed')!r}"
    records = {r["check"]: r for r in doc.get("records", [])}
    payload = doc.get("payload", {})
    for line in op.lines:
        if line.startswith("["):
            tag, rest = line[1:5], line[7:]
            name, _, detail = rest.partition(": ")
            rec = records.get(name)
            ok = rec is not None and rec["ok"] is (tag == "PASS")
            if not ok or (detail and rec["detail"] != detail):
                return f"{op.label}: record {line!r} missing"
        elif line.startswith("result: "):
            continue
        else:
            key, _, value = line.partition(" = ")
            if key not in payload or str(payload[key]) != value:
                return f"{op.label}: payload {key}={payload.get(key)!r}, expected {value!r}"
    return None


def _check_save(op, first, second):
    if first != second:
        return f"{op.label}: serialize does not reach a fixpoint"
    saved, original = json.loads(first), json.loads(op.text)
    for section in ("schemes", "morphisms", "presentations", "registered_maps", "ledgers"):
        if sorted(saved.get(section) or {}) != sorted(original.get(section) or {}):
            return f"{op.label}: section {section} changed its names"
    return None
