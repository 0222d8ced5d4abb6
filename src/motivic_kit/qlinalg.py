"""Exact rational linear algebra: dense matrices, their products and
ranks, and bounded chain complexes with their homology.

Entries are exact rationals in one normal form: an `int` when integral, a
fully reduced `fractions.Fraction` otherwise.  The two compare, hash and
print alike, so the form does not show in equality or output, but the 0/1
and 0/+-1 matrices of finite sets are multiplied, added and eliminated in
plain integers.  There is no floating point anywhere: elimination divides
only by a `Fraction`, and a pivot of +-1 needs no division.  Storage is
dense row-major, elimination uses the first nonzero pivot, and all outputs
are reproducible.
The products, `product_terms` and `matmul` built on it, visit only the
nonzero entries of their factors, since the structure matrices of finite
sets are mostly zeros; `matmul` stores its result densely, zeros
included.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress

from ._value import InputError, Value, compile_reader, degree_key, show


def _frac(x):
    """The normal form of an exact rational: `int` if integral, else `Fraction`."""
    if isinstance(x, str):
        try:
            return int(x)
        except ValueError:
            x = Fraction(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"not an exact rational: {x!r}")


class QMatrix(Value):
    """An exact rational matrix, stored row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(entries)
        if entries and not set(map(type, entries)) <= {int}:
            entries = tuple(map(_frac, entries))
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in self.row(i))
                         for i in range(self.rows))
        return f"QMatrix({self.rows}x{self.cols}: {body})"

    def transpose(self) -> "QMatrix":
        return QMatrix(self.cols, self.rows,
                       (self.entries[i * self.cols + j]
                        for j in range(self.cols) for i in range(self.rows)))

    def to_json(self):
        return {"rows": self.rows, "cols": self.cols,
                "entries": [str(x) for x in self.entries]}

    @staticmethod
    def from_json(data) -> "QMatrix":
        rows, cols, entries = _READ_QMATRIX(data)
        if entries:
            return QMatrix(rows, cols, _entries(entries, data))
        if (rows, cols) not in _EMPTY:  # values are immutable: share one
            _EMPTY[rows, cols] = QMatrix(rows, cols, ())
        return _EMPTY[rows, cols]


def _entry(x):
    """A matrix entry read from JSON: an integer or a rational string."""
    try:
        if type(x) in (int, str):
            return _frac(x)
    except (ValueError, ZeroDivisionError):
        pass
    raise InputError(f"must be an integer or a rational string, got {show(x)}")


def _entries(entries: list, data) -> list:
    """The `entries` of the matrix object `data`: one `int()` pass if all
    are ints or strs, as `_frac` reads them, else `_entry` on each in turn,
    so that every value and every error is the per-entry reader's."""
    if set(map(type, entries)) <= {int, str}:
        try:
            return list(map(int, entries))
        except ValueError:
            pass
    return _READ_ENTRIES(data)[0]


def product_terms(a: QMatrix, b: QMatrix) -> dict:
    """The nonzero entries of the exact product a b (a.cols = b.rows) by
    row-major index i * b.cols + j: each nonzero a[i, t] meets the nonzero
    entries of row t of b.  Products of one shape are equal iff these are."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    if not (a.entries and b.entries):
        return {}
    n, m = a.cols, b.cols
    b_rows = {}  # t -> the nonzero (j, b[t, j])
    for k in compress(range(len(b.entries)), b.entries):
        t, j = divmod(k, m)
        b_rows.setdefault(t, []).append((j, b.entries[k]))
    out = {}
    for k in compress(range(len(a.entries)), a.entries):
        i, t = divmod(k, n)
        if t in b_rows:
            x, base = a.entries[k], i * m
            for j, y in b_rows[t]:
                out[base + j] = out.get(base + j, 0) + x * y
    return {k: v for k, v in out.items() if v}


def matmul(a: QMatrix, b: QMatrix) -> QMatrix:
    """Exact matrix product, stored densely; requires a.cols = b.rows."""
    out = [0] * (a.rows * b.cols)
    for k, v in product_terms(a, b).items():
        out[k] = v
    return QMatrix(a.rows, b.cols, out)


def tensor_index_map(n: int, factors, t: int) -> list:
    """Index map X^(x)t -> X^(x)s of a map of tensor factors, dim X = n.

    `factors` lists sigma(0), ..., sigma(s-1) for a map sigma from the s
    target positions to the t source factors: the basis vector indexed by
    (x_0, ..., x_{t-1}) goes to the one indexed by (x_sigma(0), ...,
    x_sigma(s-1)).  A permutation reorders the factors (source factor
    sigma(j) lands in position j) and a constant map gives the diagonal.
    Indices are flattened with the first factor the most significant
    digit; no other function splits or joins tensor indices.
    """
    weights = [n ** (t - 1 - j) for j in range(t)]
    out = []
    for index in range(n ** t):
        target = 0
        for f in factors:
            target = target * n + index // weights[f] % n
        out.append(target)
    return out


def _row_echelon(a: QMatrix):
    """Row echelon form (first-nonzero pivoting); returns (rows, pivot columns)."""
    m = [list(a.row(i)) for i in range(a.rows)]
    pivots = []
    r = 0
    for c in range(a.cols):
        pivot_row = None
        for i in range(r, a.rows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        if pv == -1:
            m[r] = [-x for x in m[r]]
        elif pv != 1:
            # Fraction, not the pivot itself: int / int would be a float
            pv = Fraction(pv)
            m[r] = [x / pv for x in m[r]]
        for i in range(a.rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == a.rows:
            break
    return m, pivots


def rank(a: QMatrix) -> int:
    return len(_row_echelon(a)[1])


class ChainComplex(Value):
    """A bounded chain complex of Q-vector spaces.

    `dims[n]` is the dimension in degree n, for exactly lo <= n <= hi, and
    `differentials[n]` is the matrix of d_n : degree n -> degree n-1 for
    lo < n <= hi.  Only differentials with a nonzero entry are stored: an
    absent one is zero.  The identity d o d = 0 is enforced exactly at
    construction.
    """

    __slots__ = ("lo", "hi", "dims", "differentials")

    def __init__(self, lo: int, hi: int, dims, differentials):
        if lo > hi:
            raise ValueError("empty degree range")
        dims = {int(n): int(d) for n, d in dims.items()}
        for n in range(lo, hi + 1):
            if n not in dims or dims[n] < 0:
                raise ValueError(f"missing or negative dimension in degree {n}")
        for n in sorted(dims) if len(dims) > hi - lo + 1 else ():
            if not (lo <= n <= hi):
                raise ValueError(f"dimension in degree {n} outside degree "
                                 f"range [{lo}, {hi}]")
        kept = {}
        for n, d in sorted(differentials.items()):
            if not (lo < n <= hi):
                raise ValueError(f"differential {n} outside degree range")
            if d.rows != dims[n - 1] or d.cols != dims[n]:
                raise ValueError(f"differential {n} has wrong shape")
            if any(d.entries):
                kept[n] = d
        for n, d in kept.items():
            if n - 1 in kept and product_terms(kept[n - 1], d):
                raise ValueError(f"d_{n-1} o d_{n} != 0")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "differentials", kept)

    def dim(self, n: int) -> int:
        return self.dims.get(n, 0)

    def __repr__(self):
        dims = " ".join(f"{n}:{self.dims[n]}" for n in range(self.lo, self.hi + 1))
        return f"ChainComplex([{self.lo},{self.hi}], dims {dims})"

    def euler_characteristic(self) -> int:
        return sum(((-1) ** n) * self.dims[n] for n in range(self.lo, self.hi + 1))

    def homology_dims(self) -> dict:
        """dim H_n = dims[n] - rank(d_n) - rank(d_{n+1}), per degree in
        range, with one elimination per stored differential."""
        ranks = {n: rank(d) for n, d in self.differentials.items()}
        return {n: self.dims[n] - ranks.get(n, 0) - ranks.get(n + 1, 0)
                for n in range(self.lo, self.hi + 1)}

    def to_json(self):
        return {"lo": self.lo, "hi": self.hi,
                "dims": {str(n): self.dims[n]
                         for n in range(self.lo, self.hi + 1)},
                "differentials": {str(n): d.to_json()
                                  for n, d in self.differentials.items()}}

    @staticmethod
    def from_json(data) -> "ChainComplex":
        args = _READ_CHAIN_COMPLEX(data)
        try:
            return ChainComplex(*args)
        except ValueError as exc:  # named with the path the readers add
            raise InputError(f"is not a chain complex: {exc}") from None


def single_degree_complex(dim: int, degree: int = 0) -> ChainComplex:
    """The complex with one space in one degree and no differentials."""
    return ChainComplex(degree, degree, {degree: dim}, {})


# the readers of input files, compiled once
_EMPTY = {}  # (rows, cols) -> the one matrix read with no entries
_READ_QMATRIX = compile_reader({"rows": int, "cols": int, "entries": list})
_READ_ENTRIES = compile_reader({"entries": [_entry]})
_READ_CHAIN_COMPLEX = compile_reader({
    "lo": int, "hi": int, "dims": {degree_key: int},
    "differentials": {degree_key: QMatrix.from_json}})
