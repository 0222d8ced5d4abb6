"""Exact rational linear algebra: sparse matrices, their products and
ranks, and bounded chain complexes with their homology.

Entries are exact rationals in one normal form: an `int` when integral, a
fully reduced `fractions.Fraction` otherwise.  The two compare, hash and
print alike, so the form does not show in equality or output, but the 0/1
and 0/+-1 matrices of finite sets are multiplied, added and eliminated in
plain integers.  There is no floating point anywhere: elimination divides
only by a `Fraction`, and a pivot of +-1 needs no division.
A matrix stores only its nonzero entries, since the structure matrices
of finite sets are mostly zeros: an absent entry is zero.  The products,
`product_terms` and `matmul` built on it, and the elimination in `rank`
visit only those entries; elimination uses the first nonzero pivot, and
all outputs are reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from sys import get_int_max_str_digits

from ._value import InputError, Value, compile_reader, degree_key, show

_VALUE = itemgetter(1)  # a term's value: the zero filter keeps the nonzero
_SHARED = 4096  # the distinct matrix and complex records a process keeps
_SCALARS = frozenset({int, str})  # the JSON types of a shared matrix's entries


def _frac(x):
    """The normal form of an exact rational: `int` if integral, else `Fraction`.

    A string's exponent is bounded like the digits `int()` reads, so that
    no entry such as "1e999999999" builds a power of ten without end."""
    if isinstance(x, str):
        try:
            return int(x)
        except ValueError:
            _, e, exp = x.lower().rpartition("e")
            limit = get_int_max_str_digits()
            if e and 0 < limit < abs(int(exp)):
                raise ValueError(f"exponent beyond {limit}") from None
            x = Fraction(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"not an exact rational: {x!r}")


class QMatrix(Value):
    """An exact rational matrix: its shape and its nonzero `terms`, the
    (row-major index i * cols + j, value) pairs in index order.  It is
    built from the dense row-major `entries` or from a dict of its terms
    by index; both are checked alike, and their zeros dropped."""

    __slots__ = ("rows", "cols", "terms")

    def __init__(self, rows: int, cols: int, entries):
        dense = type(entries) is not dict
        values = tuple(entries) if dense else entries.values()
        if values and not set(map(type, values)) <= {int}:
            values = tuple(map(_frac, values))
            if not dense:
                entries = dict(zip(entries, values))
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        if dense and len(values) != rows * cols:
            raise ValueError("entry count does not match shape")
        terms = enumerate(values) if dense else sorted(entries.items())
        if not dense and terms and not (
                0 <= terms[0][0] <= terms[-1][0] < rows * cols):
            raise ValueError("term index out of range")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "terms", tuple(filter(_VALUE, terms)))

    @property
    def entries(self) -> tuple:
        """The dense row-major entries, zeros included."""
        out = [0] * (self.rows * self.cols)
        for k, v in self.terms:
            out[k] = v
        return tuple(out)

    def __repr__(self):
        e, n = self.entries, self.cols
        body = "; ".join(" ".join(map(str, e[i * n:(i + 1) * n]))
                         for i in range(self.rows))
        return f"QMatrix({self.rows}x{self.cols}: {body})"

    def transpose(self) -> "QMatrix":
        r, c = self.rows, self.cols
        return QMatrix(c, r, {k % c * r + k // c: v for k, v in self.terms})

    def to_json(self):
        return {"rows": self.rows, "cols": self.cols,
                "entries": [str(x) for x in self.entries]}

    @staticmethod
    def from_json(data) -> "QMatrix":
        rows, cols, entries = _READ_QMATRIX(data)
        try:
            if not entries or _SCALARS.issuperset(map(type, entries)):
                return _shared_matrix(rows, cols, *entries)
            # the entry reader names a misfit entry
            return QMatrix(rows, cols, _READ_ENTRIES(data)[0])
        except InputError:
            raise
        except ValueError as exc:  # named with the path the readers add
            raise InputError(f"is not a matrix: {exc}") from None


def _entry(x):
    """A matrix entry read from JSON: an integer or a rational string."""
    try:
        if type(x) in (int, str):
            return _frac(x)
    except (ValueError, ZeroDivisionError):
        pass
    raise InputError(f"must be an integer or a rational string, got {show(x)}")


@lru_cache(maxsize=_SHARED)
def _shared_matrix(rows, cols, *entries) -> QMatrix:
    """The one matrix a process reads from equal records of int and str
    entries (values are immutable): one `int()` pass, as `_frac` reads them,
    else `_entry` on each, so that every value and error is that reader's.
    A refusal raises anew each time: only returned values are kept."""
    try:
        values = list(map(int, entries))
    except ValueError:
        values = _READ_ENTRIES({"entries": list(entries)})[0]
    return QMatrix(rows, cols, values)


def product_terms(a: QMatrix, b: QMatrix) -> dict:
    """The nonzero entries of the exact product a b (a.cols = b.rows) by
    row-major index i * b.cols + j: each nonzero a[i, t] meets the nonzero
    entries of row t of b.  Products of one shape are equal iff these are."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    n, m = a.cols, b.cols
    b_rows = {}  # t -> the nonzero (j, b[t, j])
    for k, y in b.terms:
        t, j = divmod(k, m)
        b_rows.setdefault(t, []).append((j, y))
    out = {}
    for k, x in a.terms:
        i, t = divmod(k, n)
        if t in b_rows:
            base = i * m
            for j, y in b_rows[t]:
                out[base + j] = out.get(base + j, 0) + x * y
    return {k: v for k, v in out.items() if v}


def matmul(a: QMatrix, b: QMatrix) -> QMatrix:
    """Exact matrix product; requires a.cols = b.rows."""
    return QMatrix(a.rows, b.cols, product_terms(a, b))


def _echelon_rows(a: QMatrix) -> dict:
    """Gaussian elimination on the rows of a as dicts of their nonzero
    entries: each row is reduced by the rows kept before it, and kept, as
    {its first nonzero column: the row divided by that pivot}, if any entry
    is left.  Only a pivot other than +-1 divides, by a `Fraction`."""
    rows = {}
    for k, v in a.terms:
        i, j = divmod(k, a.cols)
        rows.setdefault(i, {})[j] = v
    kept = {}
    for row in rows.values():
        while row and (c := min(row)) in kept:
            f = row[c]
            for j, y in kept[c].items():
                v = row.get(j, 0) - f * y
                if v:
                    row[j] = v
                else:
                    del row[j]
        if row:
            pv = row[c]
            if pv == -1:
                row = {j: -v for j, v in row.items()}
            elif pv != 1:
                # Fraction, not the pivot itself: int / int would be a float
                pv = Fraction(pv)
                row = {j: v / pv for j, v in row.items()}
            kept[c] = row
    return kept


def rank(a: QMatrix) -> int:
    return len(_echelon_rows(a))


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
            if d.terms:
                kept[n] = d
        for n, d in kept.items():
            if n - 1 in kept and product_terms(kept[n - 1], d):
                raise ValueError(f"d_{n-1} o d_{n} != 0")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "differentials", kept)

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

    @staticmethod
    def from_json(data) -> "ChainComplex":
        lo, hi, dims, differentials = _READ_CHAIN_COMPLEX(data)
        try:
            return _shared_complex(lo, hi, tuple(dims.items()),
                                   tuple(differentials.items()))
        except ValueError as exc:  # named with the path the readers add
            raise InputError(f"is not a chain complex: {exc}") from None


@lru_cache(maxsize=_SHARED)
def _shared_complex(lo, hi, dims, differentials) -> ChainComplex:
    """The one complex a process reads from equal records."""
    return ChainComplex(lo, hi, dict(dims), dict(differentials))


def single_degree_complex(dim: int, degree: int = 0) -> ChainComplex:
    """The complex with one space in one degree and no differentials."""
    return ChainComplex(degree, degree, {degree: dim}, {})


# the readers of input files, compiled once
_READ_QMATRIX = compile_reader({"rows": int, "cols": int, "entries": list})
_READ_ENTRIES = compile_reader({"entries": [_entry]})
_READ_CHAIN_COMPLEX = compile_reader({
    "lo": int, "hi": int, "dims": {degree_key: int},
    "differentials": {degree_key: QMatrix.from_json}})
