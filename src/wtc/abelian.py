"""Exact arithmetic for finitely generated abelian groups.

Groups are presented by integer relation rows on a list of generators and
normalized once, at construction time, through the Smith normal form.  All
later arithmetic happens in canonical coordinates: one coordinate per
invariant factor, where factor 0 denotes a free summand and torsion
coordinates are kept reduced to ``[0, d)``.

Everything here uses Python integers; Smith transforms can blow up
coefficients way past machine size.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property

from .errors import IllFormedHom, NotEnumerable, TypeMismatch


# ---------------------------------------------------------------------------
# integer matrices as lists of lists


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    if not a:
        return []
    n = len(b[0]) if b else 0
    return [
        [sum(row[k] * b[k][j] for k in range(len(b))) for j in range(n)]
        for row in a
    ]


def mat_vec(a, v):
    return [sum(map(operator.mul, row, v)) for row in a]


def transpose(a):
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def smith_normal_form(mat):
    """Diagonalize an integer matrix: returns ``(diag, U, Uinv, V, Vinv)``.

    ``U @ mat @ V`` is diagonal with a divisibility chain d1 | d2 | ...,
    nonnegative entries and zeros last; ``U, V`` are unimodular and the
    inverses are tracked alongside so no matrix inversion is ever needed.
    ``diag`` is the full list of diagonal entries, length ``min(m, n)``.
    """
    a = [list(row) for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    u, uinv = identity_matrix(m), identity_matrix(m)
    v, vinv = identity_matrix(n), identity_matrix(n)

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for r in uinv:
            r[i], r[j] = r[j], r[i]

    def row_add(i, j, c):
        # row i += c * row j
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        for r in uinv:
            r[j] -= c * r[i]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for r in uinv:
            r[i] = -r[i]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def col_add(i, j, c):
        # col j += c * col i
        for r in a:
            r[j] += c * r[i]
        for r in v:
            r[j] += c * r[i]
        vinv[i] = [x - c * y for x, y in zip(vinv[i], vinv[j])]

    def col_neg(i):
        for r in a:
            r[i] = -r[i]
        for r in v:
            r[i] = -r[i]
        vinv[i] = [-x for x in vinv[i]]

    def find_pivot(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best[0]):
                    best = (abs(a[i][j]), i, j)
        return best

    rank = min(m, n)
    for t in range(rank):
        while True:
            piv = find_pivot(t)
            if piv is None:
                break
            _, pi, pj = piv
            if pi != t:
                row_swap(t, pi)
            if pj != t:
                col_swap(t, pj)
            dirty = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    row_add(i, t, -q)
                    if a[i][t] != 0:
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_add(t, j, -q)
                    if a[t][j] != 0:
                        dirty = True
            if not dirty:
                break
        if a[t][t] < 0:
            row_neg(t)

    # repair the divisibility chain
    changed = True
    while changed:
        changed = False
        for t in range(rank - 1):
            x, y = a[t][t], a[t + 1][t + 1]
            if x == 0 and y != 0:
                row_swap(t, t + 1)
                col_swap(t, t + 1)
                changed = True
            elif x != 0 and y % x != 0:
                # fold the next entry into position t and re-reduce the 2x2 block
                col_add(t + 1, t, 1)
                while a[t + 1][t] != 0:
                    q = a[t][t] // a[t + 1][t] if a[t + 1][t] != 0 else 0
                    if a[t][t] != 0 and abs(a[t + 1][t]) <= abs(a[t][t]):
                        q = a[t][t] // a[t + 1][t]
                        row_add(t, t + 1, -q)
                        row_swap(t, t + 1)
                    else:
                        row_swap(t, t + 1)
                # clear the fill-in at (t, t+1)
                if a[t][t] != 0:
                    q = a[t][t + 1] // a[t][t]
                    col_add(t, t + 1, -q)
                if a[t][t] < 0:
                    row_neg(t)
                if a[t + 1][t + 1] < 0:
                    row_neg(t + 1)
                changed = True
    diag = [a[i][i] for i in range(rank)]
    return diag, u, uinv, v, vinv


def minors_gcd_invariants(mat):
    """Invariant factors via gcds of k x k minors; an independent oracle."""
    import math

    m = len(mat)
    n = len(mat[0]) if m else 0
    rank = min(m, n)

    def det(sq):
        k = len(sq)
        if k == 0:
            return 1
        if k == 1:
            return sq[0][0]
        total = 0
        for j in range(k):
            if sq[0][j]:
                minor = [r[:j] + r[j + 1 :] for r in sq[1:]]
                sign = -1 if j % 2 else 1
                total += sign * sq[0][j] * det(minor)
        return total

    gcds = []
    for k in range(1, rank + 1):
        g = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                g = math.gcd(g, det([[mat[i][j] for j in cols] for i in rows]))
        gcds.append(g)
    factors = []
    prev = 1
    for g in gcds:
        if g == 0 or prev == 0:
            factors.append(0)
            prev = 0
        else:
            factors.append(g // prev)
            prev = g
    return factors


def integer_kernel(mat):
    """Basis (list of column vectors) of ``{x : mat @ x = 0}``."""
    diag, _u, _uinv, v, _vinv = smith_normal_form(mat)
    return _snf_kernel(diag, v)


def integer_solve(mat, b):
    """One solution of ``mat @ x = b`` over Z, or None."""
    diag, u, _uinv, v, _vinv = smith_normal_form(mat)
    return _snf_solve(diag, u, v, b)


def _snf_kernel(diag, v):
    """Kernel basis of a matrix from its Smith form ``U @ mat @ V = diag``."""
    n = len(v)
    return [
        [v[i][j] for i in range(n)]
        for j in range(n)
        if j >= len(diag) or diag[j] == 0
    ]


def _snf_solve(diag, u, v, b):
    """One solution of ``mat @ x = b`` from the Smith form
    ``U @ mat @ V = diag`` of ``mat``, or None.

    Only the columns of V at nonzero diagonal entries are used, so V may be
    cut to those columns and to the rows of the wanted coordinates of x.
    """
    y = mat_vec(u, b)
    x_diag = [0] * len(diag)
    for i, yi in enumerate(y):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if yi != 0:
                return None
        elif yi % d != 0:
            return None
        else:
            x_diag[i] = yi // d
    return mat_vec(v, x_diag)


def column_hnf(cols, n):
    """Column-style Hermite form of the lattice spanned by ``cols`` in Z^n.

    Returns a list of basis columns, each with a pivot row; pivots positive,
    pivot rows strictly increasing, entries above a pivot untouched by later
    columns (enough for canonical coset reduction, not a full HNF).
    """
    basis = [list(c) for c in cols if any(c)]
    result = []
    row = 0
    while basis and row < n:
        with_pivot = [c for c in basis if c[row] != 0]
        if not with_pivot:
            row += 1
            continue
        # gcd-reduce all columns against each other at this row
        while len(with_pivot) > 1:
            with_pivot.sort(key=lambda c: abs(c[row]))
            c0 = with_pivot[0]
            for c in with_pivot[1:]:
                q = c[row] // c0[row]
                for i in range(n):
                    c[i] -= q * c0[i]
            with_pivot = [c for c in with_pivot if c[row] != 0]
        piv = with_pivot[0]
        if piv[row] < 0:
            piv = [-x for x in piv]
        result.append((row, piv))
        basis = [c for c in basis if c is not with_pivot[0] and any(c)]
        # eliminate this row from the remaining columns
        for c in basis:
            if c[row] != 0:
                q = c[row] // piv[row]
                for i in range(n):
                    c[i] -= q * piv[i]
        basis = [c for c in basis if any(c)]
        row += 1
    return result


def reduce_mod_lattice(hnf, x):
    """Canonical representative of ``x + lattice`` using a column_hnf basis."""
    x = list(x)
    for row, col in hnf:
        q = x[row] // col[row]
        if q:
            for i in range(len(x)):
                x[i] -= q * col[i]
    return x


# ---------------------------------------------------------------------------
# groups, elements, homomorphisms


class FgAbGroup:
    """Finitely generated abelian group given by integer relation rows.

    ``relations`` is an iterable of coordinate rows over ``ngens``
    presentation generators; the group is Z^ngens modulo those rows.
    Canonical coordinates drop the trivial invariant factors.

    A group's presentation and invariants are never changed after
    construction; that is what makes it safe to compute the data derived
    from them alone (the doubling hom, the 2-torsion subgroup) once and keep
    it on the group.
    """

    def __init__(self, relations=(), ngens=None, names=None):
        rel = [list(r) for r in relations]
        if ngens is None:
            if not rel:
                raise ValueError("ngens required when there are no relations")
            ngens = len(rel[0])
        for r in rel:
            if len(r) != ngens:
                raise ValueError("relation length does not match generator count")
        self.ngens = ngens
        self.relation_rows = tuple(tuple(r) for r in rel)
        self.names = tuple(names) if names else tuple(f"g{i}" for i in range(ngens))

        # columns of `a` are the relations
        a = [[rel[j][i] for j in range(len(rel))] for i in range(ngens)]
        if not rel:
            a = [[] for _ in range(ngens)]
        diag, u, uinv, _v, _vinv = smith_normal_form(a) if rel else ([], identity_matrix(ngens), identity_matrix(ngens), [], [])
        full = [diag[i] if i < len(diag) else 0 for i in range(ngens)]
        kept = [i for i in range(ngens) if full[i] != 1]
        self.invariants = tuple(full[i] for i in kept)
        self._kept = kept
        self._u = u
        self._uinv = uinv

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_invariants(cls, invariants, names=None):
        """Group ⊕ Z/d_i with 0 meaning a free factor."""
        n = len(invariants)
        rel = []
        for i, d in enumerate(invariants):
            if d:
                row = [0] * n
                row[i] = d
                rel.append(row)
        return cls(rel, ngens=n, names=names)

    @classmethod
    def trivial(cls):
        return cls((), ngens=0)

    # -- canonical coordinates -----------------------------------------------

    @property
    def rank(self):
        return len(self.invariants)

    def _reduce(self, coords):
        out = []
        for c, d in zip(coords, self.invariants):
            out.append(c % d if d else c)
        return tuple(out)

    def element(self, coords):
        coords = list(coords)
        if len(coords) != self.rank:
            raise ValueError(
                f"expected {self.rank} canonical coordinates, got {len(coords)}"
            )
        return GroupElement(self, self._reduce(coords))

    def zero(self):
        return self.element([0] * self.rank)

    def generators(self):
        return [
            self.element([1 if i == j else 0 for j in range(self.rank)])
            for i in range(self.rank)
        ]

    def from_presentation(self, coords):
        """Element from coordinates over the original presentation generators."""
        if len(coords) != self.ngens:
            raise ValueError(
                f"expected {self.ngens} presentation coordinates, got {len(coords)}"
            )
        y = mat_vec(self._u, list(coords))
        return self.element([y[i] for i in self._kept])

    def lift_to_presentation(self, el):
        """One presentation-coordinate lift of a canonical element."""
        y = [0] * self.ngens
        for j, i in enumerate(self._kept):
            y[i] = el.coords[j]
        return mat_vec(self._uinv, y)

    # -- structure -----------------------------------------------------------

    def order(self):
        """Group order, or None when the group is infinite."""
        total = 1
        for d in self.invariants:
            if d == 0:
                return None
            total *= d
        return total

    def is_trivial(self):
        return self.order() == 1

    def elements(self):
        """Iterate all elements; requires a finite group."""
        if self.order() is None:
            raise NotEnumerable("group has free directions")
        ranges = [range(d) for d in self.invariants]
        for combo in itertools.product(*ranges):
            yield self.element(combo)

    def elements_window(self, free_span=1):
        """All elements with free coordinates in ``[-free_span, free_span]``."""
        ranges = [
            range(d) if d else range(-free_span, free_span + 1)
            for d in self.invariants
        ]
        for combo in itertools.product(*ranges):
            yield self.element(combo)

    @cached_property
    def _doubling(self):
        """The hom ``x -> 2x``; its solver data serves ``canonical_sqrt``."""
        return GroupHom(
            self, self, [(2 * g).coords for g in self.generators()], check=False
        )

    @cached_property
    def _two_torsion(self):
        gens = []
        for i, d in enumerate(self.invariants):
            if d and d % 2 == 0:
                gens.append(
                    self.element([d // 2 if i == j else 0 for j in range(self.rank)])
                )
        return subgroup_from_elements(self, gens)

    def relation_lattice(self):
        """Columns spanning the kernel of Z^rank -> G (canonical coords)."""
        cols = []
        for i, d in enumerate(self.invariants):
            if d:
                col = [0] * self.rank
                col[i] = d
                cols.append(col)
        return cols

    def __repr__(self):
        if not self.invariants:
            return "FgAbGroup(0)"
        parts = []
        for d in self.invariants:
            parts.append("Z" if d == 0 else f"Z/{d}")
        return "FgAbGroup(" + " + ".join(parts) + ")"

    def describe(self):
        return repr(self)[9:-1] if self.invariants else "0"


@dataclass(frozen=True, slots=True)
class GroupElement:
    group: FgAbGroup
    coords: tuple

    def __add__(self, other):
        self._check(other)
        return self.group.element([a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        self._check(other)
        return self.group.element([a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return self.group.element([-a for a in self.coords])

    def __rmul__(self, k):
        return self.group.element([k * a for a in self.coords])

    def _check(self, other):
        if self.group is not other.group:
            raise TypeMismatch("elements of different groups")

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def __hash__(self):
        return hash((id(self.group), self.coords))

    def __repr__(self):
        return f"<{','.join(map(str, self.coords))}>"


class GroupHom:
    """Homomorphism in canonical coordinates; ``cols[i]`` is the image of
    the i-th canonical generator of the source.

    A hom is never changed after construction (nor are its groups), so the
    data derived from it alone (solver data, cokernel, restriction to
    2-torsion) is computed on first use and kept on the hom.
    """

    def __init__(self, source, target, cols, check=True):
        self.source = source
        self.target = target
        cols = [target._reduce(c) for c in cols]
        if len(cols) != source.rank:
            raise IllFormedHom(
                f"expected {source.rank} columns, got {len(cols)}"
            )
        self.cols = tuple(tuple(c) for c in cols)
        if check:
            self._check_relations()

    def _check_relations(self):
        for i, d in enumerate(self.source.invariants):
            if d == 0:
                continue
            img = self.target.element([d * c for c in self.cols[i]])
            if not img.is_zero():
                raise IllFormedHom(
                    f"relation {d}*g{i} is not killed in the target",
                    witness=(i, d, img),
                )

    @classmethod
    def from_presentation(cls, source, target, images, check=True):
        """Build from images (target presentation coords) of the source's
        presentation generators."""
        cols = []
        for j in range(source.rank):
            pres = source.lift_to_presentation(
                source.element([1 if t == j else 0 for t in range(source.rank)])
            )
            acc = [0] * target.ngens
            for g, c in enumerate(pres):
                img = images[g]
                acc = [a + c * x for a, x in zip(acc, img)]
            cols.append(target.from_presentation(acc).coords)
        return cls(source, target, cols, check=check)

    @classmethod
    def identity(cls, group):
        return cls(group, group, [g.coords for g in group.generators()], check=False)

    @classmethod
    def zero(cls, source, target):
        return cls(source, target, [[0] * target.rank for _ in range(source.rank)], check=False)

    def apply(self, el):
        if el.group is not self.source:
            raise TypeMismatch("element not in the hom's source")
        acc = [0] * self.target.rank
        for c, col in zip(el.coords, self.cols):
            if c:
                acc = [a + c * x for a, x in zip(acc, col)]
        return self.target.element(acc)

    def compose(self, inner):
        """self ∘ inner."""
        if inner.target is not self.source:
            raise TypeMismatch("homs do not compose")
        cols = [self.apply(self.source.element(c)).coords for c in inner.cols]
        return GroupHom(inner.source, self.target, cols, check=False)

    def matrix_rows(self):
        """Matrix with rows indexed by target coords, columns by source gens."""
        return [
            [self.cols[j][i] for j in range(self.source.rank)]
            for i in range(self.target.rank)
        ]

    @cached_property
    def _solver(self):
        """``(snf, hnf, kernel, kernel_inclusion)`` for ``solve_linear``.

        ``snf`` is ``(diag, U, V)`` of the Smith form of
        ``[matrix | target relations]`` (None when the target is trivial),
        with V cut to what ``_snf_solve`` needs for the source coordinates;
        ``hnf`` reduces modulo the solution lattice plus the source
        relations, so representatives are canonical in the source group.
        """
        src, tgt = self.source, self.target
        mat = self.matrix_rows()
        rel = tgt.relation_lattice()
        stacked = [mat[i] + [rc[i] for rc in rel] for i in range(tgt.rank)]
        if stacked:
            diag, u, _uinv, v, _vinv = smith_normal_form(stacked)
            nonzero = sum(1 for d in diag if d)
            snf = diag, u, [row[:nonzero] for row in v[: src.rank]]
            lattice = [k[: src.rank] for k in _snf_kernel(diag, v)]
            lattice = [c for c in lattice if any(c)]
        else:
            snf = None
            lattice = identity_matrix(src.rank)
        hnf = column_hnf(lattice + src.relation_lattice(), src.rank)
        kernel, incl = subgroup_from_elements(
            src, [src.element(c) for c in lattice]
        )
        return snf, hnf, kernel, incl

    @cached_property
    def _cokernel(self):
        tgt = self.target
        rel = [
            [d if i == j else 0 for j in range(tgt.rank)]
            for i, d in enumerate(tgt.invariants) if d
        ]
        rel += [list(c) for c in self.cols]
        cok = FgAbGroup(rel, ngens=tgt.rank)
        proj = GroupHom(
            tgt,
            cok,
            [
                cok.from_presentation(
                    [1 if i == j else 0 for i in range(tgt.rank)]
                ).coords
                for j in range(tgt.rank)
            ],
            check=False,
        )
        return cok, proj

    @cached_property
    def on_two_torsion(self):
        """This hom restricted to the 2-torsion of its source, i.e.
        ``self ∘ incl`` for the inclusion returned by ``two_torsion``."""
        _, incl = two_torsion(self.source)
        return self.compose(incl)

    def __repr__(self):
        return f"GroupHom({self.source.describe()} -> {self.target.describe()})"


# ---------------------------------------------------------------------------
# subgroups, kernels, images, cokernels


def subgroup_from_elements(parent, elements):
    """Subgroup generated by ``elements``: returns ``(group, inclusion)``."""
    gens = [list(e.coords) for e in elements]
    k = len(gens)
    if k == 0:
        sub = FgAbGroup.trivial()
        return sub, GroupHom(sub, parent, [], check=False)
    rel_cols = parent.relation_lattice()
    # relations: v with sum v_i * gens_i in the relation lattice of parent
    stacked = [
        [gens[j][i] for j in range(k)] + [rc[i] for rc in rel_cols]
        for i in range(parent.rank)
    ]
    if stacked:
        ker = integer_kernel(stacked)
        rel_rows = [kcol[:k] for kcol in ker]
        rel_rows = [r for r in rel_rows if any(r)]
    else:
        rel_rows = []
    sub = FgAbGroup(rel_rows, ngens=k)
    # inclusion: canonical generator j of sub -> combination of the chosen gens
    cols = []
    for j in range(sub.rank):
        pres = sub.lift_to_presentation(
            sub.element([1 if t == j else 0 for t in range(sub.rank)])
        )
        acc = [0] * parent.rank
        for g, c in enumerate(pres):
            acc = [a + c * x for a, x in zip(acc, gens[g])]
        cols.append(acc)
    incl = GroupHom(sub, parent, cols, check=False)
    return sub, incl


def kernel_of(hom):
    """Kernel subgroup with its inclusion into the source."""
    return hom._solver[2:]


def image_of(hom):
    """Image subgroup with its inclusion into the target."""
    elements = [hom.target.element(c) for c in hom.cols]
    return subgroup_from_elements(hom.target, elements)


def cokernel_of(hom):
    """Cokernel with the projection from the target."""
    return hom._cokernel


@dataclass
class HomAnalysis:
    kernel: FgAbGroup
    kernel_inclusion: GroupHom
    image: FgAbGroup
    image_inclusion: GroupHom
    cokernel: FgAbGroup
    projection: GroupHom


def hom_analyze(hom):
    """Exact kernel / image / cokernel of a homomorphism with witness maps."""
    ker, ki = kernel_of(hom)
    img, ii = image_of(hom)
    cok, pr = cokernel_of(hom)
    return HomAnalysis(ker, ki, img, ii, cok, pr)


def solve_linear(hom, target_el):
    """Canonical particular solution of ``hom(x) = target`` plus kernel data.

    Returns ``(solution, kernel_group, kernel_inclusion)`` or None.  The
    solution is the canonical coset representative: coordinates reduced
    against the full solution lattice, smallest nonnegative on pivot rows.
    """
    if target_el.group is not hom.target:
        raise TypeMismatch("target element not in the hom's target group")
    src = hom.source
    snf, hnf, ker, ki = hom._solver
    if snf is None:
        x0 = [0] * src.rank
    else:
        x0 = _snf_solve(*snf, list(target_el.coords))
        if x0 is None:
            return None
    return src.element(reduce_mod_lattice(hnf, x0)), ker, ki


def canonical_sqrt(group, delta):
    """Canonical m with 2m = delta, or None."""
    res = solve_linear(group._doubling, delta)
    if res is None:
        return None
    return res[0]


def sqrt_solutions(group, delta):
    """All m with 2m = delta; finite since the doubling kernel is torsion."""
    m0 = canonical_sqrt(group, delta)
    if m0 is None:
        return []
    tor, incl = two_torsion(group)
    return sorted(
        {(m0 + incl.apply(t)) for t in tor.elements()},
        key=lambda e: e.coords,
    )


def two_torsion(group):
    """The subgroup of elements killed by 2, with its inclusion."""
    return group._two_torsion


def mod2_reduction(group):
    """``G/2G`` as an F2 space together with the reduction map on elements.

    Returns ``(space, reduce)`` where ``reduce`` takes a GroupElement to a
    tuple of F2 coordinates.  Coordinates at odd invariant factors die.
    """
    from .f2 import F2Space

    kept = [i for i, d in enumerate(group.invariants) if d == 0 or d % 2 == 0]
    labels = tuple(f"e{i}" for i in kept)
    space = F2Space(labels)

    def reduce(el):
        if el.group is not group:
            raise TypeMismatch("element of a different group")
        return tuple(el.coords[i] % 2 for i in kept)

    return space, reduce


def hom_mod2(hom, src_data=None, tgt_data=None):
    """Induced F2 map ``G/2 -> H/2`` of a homomorphism."""
    from .f2 import F2Map

    src_space, src_red = src_data or mod2_reduction(hom.source)
    tgt_space, tgt_red = tgt_data or mod2_reduction(hom.target)
    kept = [i for i, d in enumerate(hom.source.invariants) if d == 0 or d % 2 == 0]
    cols = [tgt_red(hom.apply(hom.source.generators()[i])) for i in kept]
    return F2Map(src_space, tgt_space, cols)


@dataclass
class ExactnessReport:
    injective: bool
    injectivity_witness: object
    composite_zero: bool
    composite_witness: object
    exact_middle: bool
    middle_witness: object
    surjective: bool
    surjectivity_witness: object

    @property
    def exact(self):
        return (
            self.injective
            and self.composite_zero
            and self.exact_middle
            and self.surjective
        )


def verify_short_exact(f, g):
    """Check that ``0 -> A -f-> B -g-> C -> 0`` is exact, with witnesses."""
    if f.target is not g.source:
        raise TypeMismatch("maps do not compose")
    ker_f, ker_f_incl = kernel_of(f)
    injective = ker_f.is_trivial()
    inj_wit = None
    if not injective:
        for t in ker_f.generators():
            el = ker_f_incl.apply(t)
            if not el.is_zero():
                inj_wit = el
                break

    composite_zero = True
    comp_wit = None
    for gen in f.source.generators():
        out = g.apply(f.apply(gen))
        if not out.is_zero():
            composite_zero = False
            comp_wit = (gen, out)
            break

    ker_g, ker_g_incl = kernel_of(g)
    exact_middle = True
    mid_wit = None
    for t in ker_g.generators():
        el = ker_g_incl.apply(t)
        if solve_linear(f, el) is None:
            exact_middle = False
            mid_wit = el
            break

    cok, proj = cokernel_of(g)
    surjective = cok.is_trivial()
    surj_wit = None
    if not surjective:
        for gen in g.target.generators():
            if not proj.apply(gen).is_zero():
                surj_wit = gen
                break

    return ExactnessReport(
        injective,
        inj_wit,
        composite_zero,
        comp_wit,
        exact_middle and composite_zero,
        mid_wit,
        surjective,
        surj_wit,
    )


def direct_sum(groups):
    """Direct sum with injections and projections (as GroupHoms)."""
    offsets = []
    total = 0
    rel = []
    for g in groups:
        offsets.append(total)
        total += g.rank
    for gi, g in enumerate(groups):
        for i, d in enumerate(g.invariants):
            if d:
                row = [0] * total
                row[offsets[gi] + i] = d
                rel.append(row)
    sum_group = FgAbGroup(rel, ngens=total)
    injections = []
    projections = []
    for gi, g in enumerate(groups):
        cols = []
        for i in range(g.rank):
            pres = [0] * total
            pres[offsets[gi] + i] = 1
            cols.append(sum_group.from_presentation(pres).coords)
        injections.append(GroupHom(g, sum_group, cols, check=False))
    for gi, g in enumerate(groups):
        cols = []
        for j in range(sum_group.rank):
            pres = sum_group.lift_to_presentation(
                sum_group.element(
                    [1 if t == j else 0 for t in range(sum_group.rank)]
                )
            )
            chunk = pres[offsets[gi] : offsets[gi] + g.rank]
            cols.append(g.from_presentation(chunk).coords)
        projections.append(GroupHom(sum_group, g, cols, check=False))
    return sum_group, injections, projections
