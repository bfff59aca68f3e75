"""``descent`` workload: ``descend_alignment`` on warm generated workspaces.

Each grid size ``r<r>k<k>`` is a workspace with
Pic(Y) = Pic(Ybar) = Z + (Z/2)^r, where the torsion is pulled back from the
base X, and unit spaces of dimension k+2 on X and Y and 2 on Ybar.  The unit
pullback along ``f: Ybar -> Y`` is the projection onto the first two unit
classes, so its kernel has dimension k.  The Picard pullback along ``f``
fixes the torsion generators and sends ``h`` to ``e*hb + sum c_i*tb_i`` with
a seeded sign ``e`` and seeded bits ``c``.

Because the construction is known, every expected answer is computed here in
presentation coordinates, without the engine:

- a matched operation aligns ``f*L1`` with ``f*L2`` where L1, L2 share their
  torsion part and their ``h`` coefficients differ by ``2a``; the upstairs
  class is ``m = e*a*hb + tau``.  The descended class is ``a*h + t`` with
  ``t = tau + a*c`` mod 2, and the descended unit class is the upstairs one
  padded with k zeros (the lexicographically least lift);
- a mismatched operation has ``h`` coefficients of different parity, so the
  endpoints differ in the relative Picard group mod 2 and ``ClassMismatch``
  is the expected answer.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# (label, r, k, mismatched operations a round); every size gets four
# operations a round.  The mismatch is detected before any size-dependent
# work, so the largest size runs matched operations only: that keeps p90
# inside its group rather than at the group's lower edge.
GRID = (
    ("r2k0", 2, 0, 1),
    ("r6k0", 6, 0, 1),
    ("r10k0", 10, 0, 1),
    ("r12k0", 12, 0, 0),
    ("r2k6", 2, 6, 1),
    ("r2k10", 2, 10, 1),
    ("r2k12", 2, 12, 1),
)
OPS_PER_SIZE = 4
# sizes small enough for the exhaustive alignments_between oracle
ORACLE_MAX = 6


def workspace_doc(r, k, sign, cbits):
    """Workspace JSON document for grid size (r, k)."""
    units = ["a", "b"] + [f"c{j}" for j in range(1, k + 1)]
    n = len(units)

    def unit_cols(keep):
        # column j: image of unit j; identity on the first `keep`, zero after
        return [[1 if i == j else 0 for i in range(keep)] for j in range(n)]

    def e(i, size):
        return [1 if j == i else 0 for j in range(size)]

    def pic(gens):
        rels = [[2 if j == i else 0 for j in range(len(gens))] for i in range(r)]
        return {"generators": gens, "relations": rels}

    def scheme(gens, unit_labels, structure):
        return {
            "pic": pic(gens),
            "structure": structure,
            "support_inclusions": [],
            "supports": ["total"],
            "units": unit_labels,
        }

    def morphism(source, target, pic_map, unit_map):
        return {
            "annotations": [],
            "pic_map": pic_map,
            "proper": None,
            "push_support_map": {},
            "source": source,
            "support_map": {},
            "target": target,
            "unit_map": unit_map,
        }

    y_gens = [f"t{i}" for i in range(1, r + 1)] + ["h"]
    ybar_gens = [f"tb{i}" for i in range(1, r + 1)] + ["hb"]
    torsion_in = [e(i, r + 1) for i in range(r)]  # s_i -> t_i
    h_image = list(cbits) + [sign]
    return {
        "base": "X",
        "base_ring": None,
        "basis_candidates": {},
        "ledgers": {},
        "localizations": {},
        "morphisms": {
            "f": morphism("Ybar", "Y", torsion_in + [h_image], unit_cols(2)),
            "pi_Y": morphism("Y", "X", torsion_in, unit_cols(n)),
            "pi_Ybar": morphism("Ybar", "X", torsion_in, unit_cols(2)),
        },
        "presentations": {},
        "registered_maps": {},
        "schemes": {
            "X": {
                "pic": {
                    "generators": [f"s{i}" for i in range(1, r + 1)],
                    "relations": [[2 if j == i else 0 for j in range(r)] for i in range(r)],
                },
                "structure": None,
                "support_inclusions": [],
                "supports": ["total"],
                "units": units,
            },
            "Y": scheme(y_gens, units, "pi_Y"),
            "Ybar": scheme(ybar_gens, ["a", "b"], "pi_Ybar"),
        },
        "version": "1",
    }


@dataclass
class GridSize:
    """One loaded workspace of the grid and the seeded choices behind it."""

    label: str
    r: int
    k: int
    mismatched: int
    sign: int
    cbits: list
    f: object


@dataclass
class DescentOp:
    label: str
    grid: GridSize
    abar: object
    l1: object
    l2: object
    matched: bool
    expect_m: object = None
    expect_u: tuple = None


class DescentWorkload:
    name = "descent"

    def __init__(self, seed):
        from wtc import align, descent, errors, workspace

        self.align = align
        self.descent = descent
        self.errors = errors
        self._seed = seed
        rng = random.Random(f"descent:{seed}")
        self.grid = []
        for label, r, k, mismatched in GRID:
            sign = rng.choice((1, -1))
            cbits = [rng.randint(0, 1) for _ in range(r)]
            ws = workspace.loads(json.dumps(workspace_doc(r, k, sign, cbits)))
            self.grid.append(GridSize(label, r, k, mismatched, sign, cbits, ws.morphism("f")))

    def round(self, i):
        rng = random.Random(f"descent:{self._seed}:{i}")
        ops = [
            self._make_op(g, j >= g.mismatched, rng)
            for g in self.grid for j in range(OPS_PER_SIZE)
        ]
        rng.shuffle(ops)
        return ops

    def _make_op(self, g, matched, rng):
        f = g.f
        y, ybar = f.target, f.source
        tors = [rng.randint(0, 1) for _ in range(g.r)]
        h1 = rng.randint(-20, 20)
        a = rng.randint(-10, 10)
        if matched:
            l2_coords = tors + [h1 + 2 * a]
        else:
            l2_coords = [rng.randint(0, 1) for _ in range(g.r)] + [h1 + 2 * a + 1]
        l1 = y.bundle(y.pic.from_presentation(tors + [h1]))
        l2 = y.bundle(y.pic.from_presentation(l2_coords))
        src = ybar.bundle(f.pic_pullback.apply(l1.cls))
        if not matched:
            abar = self.align.identity_alignment(src)
            return DescentOp(f"{g.label}-mismatch", g, abar, l1, l2, False)
        tau = [rng.randint(0, 1) for _ in range(g.r)]
        ubar = (rng.randint(0, 1), rng.randint(0, 1))
        tgt = ybar.bundle(f.pic_pullback.apply(l2.cls))
        m_bar = ybar.pic.from_presentation(tau + [g.sign * a])
        abar = self.align.AlignmentClass(src, tgt, m_bar, ubar)
        expect_m = y.pic.from_presentation(
            [(t + a * c) % 2 for t, c in zip(tau, g.cbits)] + [a]
        )
        return DescentOp(g.label, g, abar, l1, l2, True, expect_m, ubar + (0,) * g.k)

    def warm_up(self):
        rng = random.Random(f"descent-warm-up:{self._seed}")
        for g in self.grid:
            self.run(self._make_op(g, True, rng))

    def run(self, op):
        try:
            return self.descent.descend_alignment(op.grid.f, op.abar, op.l1, op.l2)
        except self.errors.ClassMismatch as exc:
            return exc

    def check(self, op, out):
        if not op.matched:
            if isinstance(out, self.errors.ClassMismatch):
                return None
            return f"{op.label}: expected ClassMismatch, got {out!r}"
        if isinstance(out, Exception):
            return f"{op.label}: unexpected {out!r}"
        a = out.output
        if a.source.cls != op.l1.cls or a.target.cls != op.l2.cls:
            return f"{op.label}: endpoints moved"
        if a.m != op.expect_m or tuple(a.u) != op.expect_u:
            return f"{op.label}: got {a.data()}, expected {(op.expect_m.coords, op.expect_u)}"
        pull = self.align.pull_alignment
        f = op.grid.f
        if pull(f, a).data() != op.abar.data():
            return f"{op.label}: pullback does not recompose"
        if op.grid.r <= ORACLE_MAX and op.grid.k <= ORACLE_MAX:
            oracle = sorted(
                b.data()
                for b in self.align.alignments_between(op.l1, op.l2)
                if pull(f, b).data() == op.abar.data()
            )
            if not oracle or a.data() != oracle[0]:
                return f"{op.label}: not the oracle's canonical representative"
        return None
