"""The cosimplicial equalizer of morphism spaces, truncated at a bound.

Level 0 is the full matrix space Hom(X, Y); level 1 has one component per
size s <= bound of a tensor power, holding matrices Hom(X^(x)s, Y).  The
empty tensor power participates as the size-0 class, contributing the
unit condition; without it, scalar multiples of graphs would survive the
binary equation alone.

The two coface maps out of level 0 send f to "multiply after applying f
on every factor" and "apply f after multiplying the factors".  A matrix
equalizes them exactly when its entries are idempotent (size-2 class,
diagonal), orthogonal within each row (size-2 class, off-diagonal), and
its rows sum to one (size-0 class) -- that is, exactly when it is the
transposed graph of a set map in the opposite direction.  The two
cofaces are compared entry by entry, and neither is built as a matrix;
both act on one row of f at a time, so the equalizer is solved by rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .artin import solve_coalgebra_morphisms
from .finsets import FinSet
from .qlinalg import QMatrix


def level1_classes(bound: int) -> list:
    """Sizes of the level-1 index classes, the empty power included."""
    return list(range(0, bound + 1))


def cofaces_agree(f: QMatrix, s: int) -> bool:
    """Whether the two cofaces of f agree at the size-s class, decided
    entry by entry.

    Entry (y, (x_1, ..., x_s)) of d0 is the product of the f[y, x_i], and
    of d1 it is f[y, x_1] when all x_i are equal and 0 otherwise; at s = 0
    the two columns are all ones and the row sums of f.  Both sides vanish
    as soon as one f[y, x_i] is zero, so only tuples drawn from the
    nonzero entries of row y are compared.
    """
    rows = {}  # y -> the nonzero (x, f[y, x])
    for k, v in f.terms:
        rows.setdefault(k // f.cols, []).append((k % f.cols, v))
    if s == 0:
        return len(rows) == f.rows and all(
            sum(v for _, v in support) == 1 for support in rows.values())
    for support in rows.values():
        for combo in itertools.product(support, repeat=s):
            xs, vs = zip(*combo)
            if math.prod(vs) != (vs[0] if len(set(xs)) == 1 else 0):
                return False
    return True


def equalizer(x: FinSet, y: FinSet, bound: int = 2) -> list:
    """All f in Hom(X, Y) with equal cofaces at every bounded class, in
    the order of their terms.

    Both cofaces act on f row by row (`cofaces_agree` compares tuples
    drawn from one row at a time), so f equalizes exactly when each of
    its rows does.  Each row in {0, 1}^|X| (entries are idempotent) is
    checked as a 1 x |X| matrix at every class up to the bound, and the
    equalizer is the product of the rows that pass: that they are the
    rows with exactly one 1 is what the check decides.
    """
    if bound < 2:
        raise ValueError("bound must be >= 2")
    nx, ny = x.size, y.size
    candidates = (QMatrix(1, nx, bits)
                  for bits in itertools.product((0, 1), repeat=nx))
    rows = [row.terms for row in candidates
            if all(cofaces_agree(row, s) for s in level1_classes(bound))]
    return sorted((QMatrix(ny, nx, {i * nx + j: v
                                    for i, row in enumerate(choice)
                                    for j, v in row})
                   for choice in itertools.product(rows, repeat=ny)),
                  key=lambda m: m.terms)


@dataclass(frozen=True)
class MdffeReport:
    """Three morphism sets of a pair of finite sets, compared, and the
    count |Y|^|X| of set maps X -> Y."""
    x_size: int
    y_size: int
    equalizer_count: int
    recheck_count: int
    transposed_morphism_count: int
    setmap_count: int
    sets_equal: bool

    @property
    def passed(self) -> bool:
        return (self.equalizer_count == self.recheck_count
                == self.transposed_morphism_count == self.setmap_count
                and self.sets_equal)


def verify_mdffe(x: FinSet, y: FinSet, bound: int = 2) -> MdffeReport:
    """Morphisms of the towers agree with set maps X -> Y.

    The tower pairs the powers of Y against X (the contravariant roles of
    the statement), so the equalizer is computed on (Y, X); its solutions
    are exactly the transposes of the comonoid morphisms C_*X -> C_*Y,
    the graphs of the |Y|^|X| set maps X -> Y.  The equalizer is rechecked
    at truncation bound + 1 and must not change: its classes are those of
    `bound` and one more, so it is the equalizer at `bound` filtered by
    the coface equations of class bound + 1.
    """
    eq = equalizer(y, x, bound)
    eq_re = [f for f in eq if cofaces_agree(f, bound + 1)]
    transposed = sorted((c.matrix.transpose()
                         for c in solve_coalgebra_morphisms(x, y)),
                        key=lambda m: m.terms)
    sets_equal = eq == eq_re == transposed
    return MdffeReport(x.size, y.size, len(eq), len(eq_re),
                       len(transposed), y.size ** x.size, sets_equal)
