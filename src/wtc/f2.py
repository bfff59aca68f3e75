"""Vector spaces and linear maps over the two-element field.

Vectors are plain tuples of 0/1; spaces carry named basis labels so unit
groups modulo squares can report witnesses by generator name.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import TypeMismatch


@dataclass(frozen=True)
class F2Space:
    labels: tuple

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def dim(self):
        return len(self.labels)

    def zero(self):
        return (0,) * self.dim

    def check(self, v):
        if len(v) != self.dim:
            raise TypeMismatch(f"vector of length {len(v)} in a {self.dim}-dim space")
        return tuple(x & 1 for x in v)

    def basis(self):
        return [
            tuple(1 if i == j else 0 for j in range(self.dim))
            for i in range(self.dim)
        ]

    def vectors(self):
        return [tuple(v) for v in itertools.product((0, 1), repeat=self.dim)]

    def vector_from_labels(self, names):
        v = [0] * self.dim
        for name in names:
            try:
                v[self.labels.index(name)] ^= 1
            except ValueError:
                raise TypeMismatch(f"unknown unit generator {name!r}") from None
        return tuple(v)

    def describe(self, v):
        names = [self.labels[i] for i, x in enumerate(v) if x & 1]
        return "*".join(names) if names else "1"


def add(u, v):
    return tuple((a ^ b) for a, b in zip(u, v))


def _echelon(rows):
    """Reduced row echelon form (list of nonzero rows) with pivot columns:
    each pivot column is 0 in every row but its own."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


class F2Map:
    """Linear map between labeled F2 spaces; ``cols[i]`` is the image of the
    i-th basis vector of the source."""

    def __init__(self, source, target, cols):
        self.source = source
        self.target = target
        cols = [target.check(c) for c in cols]
        if len(cols) != source.dim:
            raise TypeMismatch(
                f"expected {source.dim} columns, got {len(cols)}"
            )
        self.cols = tuple(cols)

    @classmethod
    def identity(cls, space):
        return cls(space, space, space.basis())

    @classmethod
    def zero(cls, source, target):
        return cls(source, target, [target.zero()] * source.dim)

    def apply(self, v):
        v = self.source.check(v)
        acc = self.target.zero()
        for x, col in zip(v, self.cols):
            if x:
                acc = add(acc, col)
        return acc

    def compose(self, inner):
        if inner.target is not self.source:
            raise TypeMismatch("maps do not compose")
        return F2Map(inner.source, self.target, [self.apply(c) for c in inner.cols])

    def solve(self, b):
        """One solution of ``self(x) = b`` or None."""
        b = self.target.check(b)
        n = self.source.dim
        rows = [
            [self.cols[j][i] for j in range(n)] + [b[i]]
            for i in range(self.target.dim)
        ]
        ech, pivots = _echelon(rows)
        x = [0] * n
        for row, c in zip(ech, pivots):
            if c == n:
                return None
            x[c] = row[n]
        # rows reduced to zero on the left must be zero on the right
        for row in ech:
            if not any(row[:n]) and row[n]:
                return None
        # verify (free variables at 0)
        if self.apply(tuple(x)) != b:
            return None
        return tuple(x)

    def kernel_basis(self):
        n = self.source.dim
        rows = [[self.cols[j][i] for j in range(n)] for i in range(self.target.dim)]
        ech, pivots = _echelon(rows)
        free = [c for c in range(n) if c not in pivots]
        basis = []
        for f in free:
            v = [0] * n
            v[f] = 1
            for row, c in zip(ech, pivots):
                if row[f]:
                    v[c] = 1
            basis.append(tuple(v))
        return basis

    def image_basis(self):
        rows = [list(c) for c in self.cols]
        ech, _ = _echelon(rows)
        return [tuple(r) for r in ech]

    def is_injective(self):
        return not self.kernel_basis()

    def is_surjective(self):
        return len(self.image_basis()) == self.target.dim

    def cokernel_witness(self):
        """A target vector outside the image, or None when surjective."""
        img = self.image_basis()
        for b in self.target.basis():
            if not in_span(img, b):
                return b
        return None

    def stack(self, other):
        """Map into the direct sum of targets: x -> (self(x), other(x))."""
        if other.source is not self.source:
            raise TypeMismatch("stack needs a common source")
        tgt = F2Space(
            tuple(f"l.{t}" for t in self.target.labels)
            + tuple(f"r.{t}" for t in other.target.labels)
        )
        cols = [a + b for a, b in zip(self.cols, other.cols)]
        return F2Map(self.source, tgt, cols)


def in_span(vectors, v):
    if not any(v):
        return True
    if not vectors:
        return False
    rows = [list(r) for r in vectors]
    before, _ = _echelon(rows)
    after, _ = _echelon(rows + [list(v)])
    return len(after) == len(before)


def coset_min(v, kernel_vectors):
    """Lexicographically smallest element of ``v + span(kernel_vectors)``.

    Clearing every pivot of the reduced echelon form of the span leaves the
    one coset element that is 0 at all pivots; adding any nonzero span
    element sets its first pivot, so that element is the least.
    """
    v = list(v)
    rows, pivots = _echelon(kernel_vectors)
    for row, c in zip(rows, pivots):
        if v[c]:
            v = [a ^ b for a, b in zip(v, row)]
    return tuple(v)
