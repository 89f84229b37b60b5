"""Exact rational scalars and dense linear algebra.

Every coefficient in this package is a fractions.Fraction, so identities are
certified with defect exactly zero, never merely below a tolerance.  Fractions
normalize on construction (reduced, positive denominator), which makes
equality structural.  Matrices are small (catalog models reach dimension
eight, direct sums of them twelve) and stored dense as rows of Fractions.

The arithmetic itself runs on Python integers.  Each operand of a matrix
product, a matrix-vector product or a linear combination is scaled, per
call, to integer numerators over one common denominator (the lcm of its
entries' denominators); the products are accumulated in int with zero
factors skipped, and one reduced Fraction is built per nonzero output entry.
A product thus costs O(n^2) Fraction constructions instead of O(n^3) Fraction
operations, each with its own gcd.  Sums, differences and scalar multiples
build each entry once from integer numerators.  Determinant, inverse and
reduced row echelon form use fraction-free Gauss-Jordan elimination on the
integer form (Bareiss 1968, "Sylvester's identity and multistep
integer-preserving Gaussian elimination"), whose divisions are all exact.
The signature reduction works on Fractions directly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatchError,
    NotSymmetricError,
    SingularMatrixError,
)

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

_RATIONAL_RE = re.compile(r"^-?\d+(?:/[1-9]\d*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "n" (no whitespace, positive denominator)."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(text)


def format_rational(x: Fraction) -> str:
    return str(Fraction(x))


def rationalize(value) -> Fraction:
    """Coerce an int, Fraction, or rational string to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot use {type(value).__name__} as an exact scalar")


# ---------------------------------------------------------------------------
# vectors: immutable tuples of Fractions, 0-based internally


Vector = tuple[Fraction, ...]


def vector(entries: Iterable) -> tuple[Fraction, ...]:
    return tuple(rationalize(v) for v in entries)


def zero_vector(n: int) -> tuple[Fraction, ...]:
    return (ZERO,) * n


def basis_vector(n: int, i: int) -> tuple[Fraction, ...]:
    """Standard basis vector e_{i+1} (index 0-based)."""
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def vec_sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def vec_scale(c: Fraction, x):
    return tuple(c * a for a in x)


def vec_is_zero(x) -> bool:
    return all(a == 0 for a in x)


# ---------------------------------------------------------------------------
# matrices


class Matrix:
    """Immutable square matrix of Fractions.

    Semantic indexing follows the geometry conventions: entry(i, j) is
    1-based, matching basis labels e_1..e_n.  Internal storage (`rows`) is a
    0-based tuple of row tuples.
    """

    __slots__ = ("n", "rows")

    def __init__(self, rows: Sequence[Sequence]):
        data = tuple(tuple(rationalize(v) for v in row) for row in rows)
        n = len(data)
        if n == 0 or any(len(row) != n for row in data):
            raise DimensionMismatchError("matrix must be square with dimension >= 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", data)

    @classmethod
    def _of(cls, rows: tuple) -> "Matrix":
        """Wrap a kernel result, unchecked: a nonempty square tuple of row tuples of Fractions."""
        m = object.__new__(cls)
        object.__setattr__(m, "n", len(rows))
        object.__setattr__(m, "rows", rows)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, n: int) -> "Matrix":
        return cls([[ZERO] * n for _ in range(n)])

    @classmethod
    def diagonal(cls, entries: Iterable) -> "Matrix":
        d = [rationalize(v) for v in entries]
        return cls([[d[i] if i == j else ZERO for j in range(len(d))] for i in range(len(d))])

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence]) -> "Matrix":
        n = len(cols)
        return cls([[cols[j][i] for j in range(n)] for i in range(n)])

    def entry(self, i: int, j: int) -> Fraction:
        """1-based access m(e_i, e_j)."""
        return self.rows[i - 1][j - 1]

    def column(self, j: int) -> tuple[Fraction, ...]:
        """0-based column extraction."""
        return tuple(row[j] for row in self.rows)

    def matvec(self, v) -> tuple[Fraction, ...]:
        if len(v) != self.n:
            raise DimensionMismatchError("vector length does not match matrix dimension")
        xs, dv = to_integers(v)
        nonzero = [(j, x) for j, x in enumerate(xs) if x]
        d = _denominator(self.rows)
        sums = [sum(row[j] * x for j, x in nonzero) for row in _integer_rows(self.rows, d)]
        return from_integers(sums, d * dv)

    def transpose(self) -> "Matrix":
        return Matrix._of(tuple(zip(*self.rows)))

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.rows for v in row)

    def is_symmetric(self) -> bool:
        return all(self.rows[i][j] == self.rows[j][i] for i in range(self.n) for j in range(i + 1, self.n))

    def is_antisymmetric(self) -> bool:
        return all(self.rows[i][j] == -self.rows[j][i] for i in range(self.n) for j in range(i, self.n))

    def first_nonzero(self):
        """First (i, j, value) in row-major order with nonzero value, 1-based; None if zero."""
        for i in range(self.n):
            for j in range(self.n):
                if self.rows[i][j] != 0:
                    return (i + 1, j + 1, self.rows[i][j])
        return None

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_dim(other)
        return Matrix._of(tuple(tuple(map(_add, r, s)) for r, s in zip(self.rows, other.rows)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_dim(other)
        return Matrix._of(tuple(tuple(map(_sub, r, s)) for r, s in zip(self.rows, other.rows)))

    def __neg__(self) -> "Matrix":
        return Matrix._of(tuple(tuple(-a for a in r) for r in self.rows))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            self._check_dim(other)
            da, db = _denominator(self.rows), _denominator(other.rows)
            b_rows = _numerators(other.rows, db)
            out = []
            for row in _numerators(self.rows, da):
                acc = [0] * self.n
                for k, x in row:
                    for j, y in b_rows[k]:
                        acc[j] += x * y
                out.append(acc)
            return _from_numerators(out, da * db)
        c = rationalize(other)
        p, q = c._numerator, c._denominator
        return Matrix._of(tuple(tuple(_scaled(a, p, q) for a in r) for r in self.rows))

    def __rmul__(self, other):
        return self.__mul__(other)

    def _check_dim(self, other: "Matrix"):
        if self.n != other.n:
            raise DimensionMismatchError("matrix dimensions differ")

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(" ".join(format_rational(v) for v in row) for row in self.rows)
        return f"Matrix[{body}]"


# The integer kernel.  A vector may hold ints as well as Fractions, so
# to_integers reads the public numerator and denominator.  Entries of a
# Matrix are always Fractions, so the helpers on rows read the slots directly:
# the public properties cost a Python-level call each, several times the
# product itself.


def to_integers(values) -> tuple[list[int], int]:
    """(numerators, d): the rationals values as integers over d, the lcm of their denominators."""
    d = lcm(*{x.denominator for x in values})
    return [x.numerator * (d // x.denominator) for x in values], d


def from_integers(numerators, d: int) -> tuple[Fraction, ...]:
    """The integers numerators / d as reduced Fractions; zeros are the ZERO constant."""
    if d == 1:
        return tuple(Fraction(v) if v else ZERO for v in numerators)
    return tuple(Fraction(v, d) if v else ZERO for v in numerators)


def _denominator(rows) -> int:
    """lcm of the denominators of all entries."""
    return lcm(*{x._denominator for row in rows for x in row})


def _integer_rows(rows, d: int) -> list:
    """The rows as integer numerators over d (a multiple of every denominator)."""
    return [[x._numerator * (d // x._denominator) for x in row] for row in rows]


def _numerators(rows, d: int) -> list:
    """Each row as the (column, numerator over d) pairs of its nonzero entries."""
    return [[(j, v) for j, v in enumerate(row) if v] for row in _integer_rows(rows, d)]


def _from_numerators(rows, d: int) -> Matrix:
    return Matrix._of(tuple(from_integers(row, d) for row in rows))


def _scaled(a: Fraction, p: int, q: int) -> Fraction:
    """a * p / q."""
    return Fraction(a._numerator * p, a._denominator * q) if a._numerator else ZERO


def _add(a: Fraction, b: Fraction) -> Fraction:
    if not b._numerator:
        return a
    if not a._numerator:
        return b
    p, q, r, s = a._numerator, a._denominator, b._numerator, b._denominator
    return Fraction(p * s + r * q, q * s) if q != s else Fraction(p + r, q)


def _sub(a: Fraction, b: Fraction) -> Fraction:
    if not b._numerator:
        return a
    p, q, r, s = a._numerator, a._denominator, b._numerator, b._denominator
    return Fraction(p * s - r * q, q * s) if q != s else Fraction(p - r, q)


def linear_combination(coeffs, matrices: Sequence[Matrix]) -> Matrix:
    """sum_a coeffs[a] * matrices[a]; terms with a zero coefficient are skipped."""
    n = matrices[0].n
    terms = [(c, m) for c, m in zip(coeffs, matrices) if c]
    cs, dc = to_integers([c for c, _ in terms])
    dm = lcm(*{_denominator(m.rows) for _, m in terms})
    acc = [[0] * n for _ in range(n)]
    for c, (_, m) in zip(cs, terms):
        for out, row in zip(acc, _numerators(m.rows, dm)):
            for j, v in row:
                out[j] += c * v
    return _from_numerators(acc, dc * dm)


def _gauss_jordan(a: list, ncols: int) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of integer rows, in place.

    Pivots are taken in columns 0..ncols-1 at the lowest available row.  Each
    step replaces every other row by (p * row - f * pivot row) / prev, with p
    the new pivot, f the row's entry in the pivot column and prev the pivot
    before; the division is always exact.  At the end every pivot row holds
    the last pivot D in its pivot column and zeros in the other pivot
    columns, so the reduced row echelon form is a / D, and for a square
    nonsingular block the determinant is sign * D.  Returns (pivot columns,
    D, sign of the row permutation).
    """
    pivots, prev, sign = [], 1, 1
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            sign = -sign
        top = a[rank]
        p = top[col]
        for r, row in enumerate(a):
            if r != rank:
                f = row[col]
                a[r] = [(p * v - f * w) // prev for v, w in zip(row, top)]
        pivots.append(col)
        prev = p
        if len(pivots) == len(a):
            break
    return pivots, prev, sign


def determinant(m: Matrix) -> Fraction:
    """Exact determinant by fraction-free elimination of the integer form."""
    d = _denominator(m.rows)
    pivots, last, sign = _gauss_jordan(_integer_rows(m.rows, d), m.n)
    if len(pivots) < m.n:
        return ZERO
    return Fraction(sign * last, d ** m.n)


def invert(m: Matrix) -> Matrix:
    """Inverse by fraction-free Gauss-Jordan elimination; raises SingularMatrixError.

    With m = M / d for an integer matrix M, reducing [M | Id] leaves
    [D Id | D M^-1], so m^-1 = d (D M^-1) / D.
    """
    n = m.n
    d = _denominator(m.rows)
    a = [row + [int(i == j) for j in range(n)] for i, row in enumerate(_integer_rows(m.rows, d))]
    pivots, last, _ = _gauss_jordan(a, n)
    if len(pivots) < n:
        raise SingularMatrixError("matrix is singular")
    return _from_numerators([[d * v for v in row[n:]] for row in a], last)


def rref(vectors: Sequence[Sequence]) -> tuple[list[tuple[Fraction, ...]], list[int]]:
    """Reduced row echelon form of a list of row vectors.

    Deterministic lowest-index pivoting; zero rows are dropped.  Returns the
    reduced rows and their pivot column indices (0-based).
    """
    rows = [vector(v) for v in vectors]
    if not rows:
        return [], []
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise DimensionMismatchError("vectors of unequal length")
    a = _integer_rows(rows, _denominator(rows))
    pivots, last, _ = _gauss_jordan(a, width)
    return [from_integers(row, last) for row in a[: len(pivots)]], pivots


def rank_of(vectors: Sequence[Sequence]) -> int:
    return len(rref(vectors)[0])


def kernel_basis(m: Matrix) -> list[tuple[Fraction, ...]]:
    """Canonical basis of the kernel of m (RREF-normalized span)."""
    reduced, pivots = rref(m.rows)
    n = m.n
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * n
        v[fc] = ONE
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    if not basis:
        return []
    canon, _ = rref(basis)
    return canon


@dataclass(frozen=True)
class Signature:
    """Sylvester inertia (positive, negative, null) of a symmetric form."""

    positive: int
    negative: int
    null: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.positive, self.negative, self.null)

    def __str__(self):
        return f"({self.positive},{self.negative},{self.null})"


def signature_of_symmetric(m: Matrix) -> Signature:
    """Sylvester inertia by exact symmetric congruence reduction.

    Pivots are taken at the lowest available diagonal index.  When every
    remaining diagonal entry is zero but some off-diagonal entry m_ij is not,
    the congruence e_i -> e_i + e_j turns 2*m_ij into a usable diagonal pivot
    (hyperbolic repair).
    """
    if not m.is_symmetric():
        raise NotSymmetricError("signature requires a symmetric matrix")
    n = m.n
    a = [list(row) for row in m.rows]

    def congruence_add(i, j, f):
        # basis change e_i -> e_i + f e_j applied on both sides
        for c in range(n):
            a[i][c] += f * a[j][c]
        for r in range(n):
            a[r][i] += f * a[r][j]

    def congruence_swap(i, j):
        a[i], a[j] = a[j], a[i]
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]

    pos = neg = 0
    for corner in range(n):
        pivot = next((r for r in range(corner, n) if a[r][r] != 0), None)
        if pivot is None:
            pair = next(
                (
                    (i, j)
                    for i in range(corner, n)
                    for j in range(i + 1, n)
                    if a[i][j] != 0
                ),
                None,
            )
            if pair is None:
                break  # remaining block is identically zero
            congruence_add(pair[0], pair[1], ONE)
            pivot = pair[0]
        if pivot != corner:
            congruence_swap(pivot, corner)
        d = a[corner][corner]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for r in range(corner + 1, n):
            if a[r][corner] != 0:
                congruence_add(r, corner, -a[r][corner] / d)
    return Signature(pos, neg, n - pos - neg)


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """Span of rational vectors inside a fixed R^n.

    The constructor keeps the spanning vectors as given (for serialization)
    and canonicalizes the span to reduced row echelon form with deterministic
    pivoting, so equality and membership tests are reproducible.
    """

    __slots__ = ("n", "given", "basis", "_pivots")

    def __init__(self, n: int, vectors_: Sequence[Sequence]):
        given = tuple(vector(v) for v in vectors_)
        if any(len(v) != n for v in given):
            raise DimensionMismatchError("subspace vector of wrong length")
        basis, pivots = rref(given)
        if len(basis) != len(given):
            raise ValueError("subspace basis vectors are linearly dependent")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "given", given)
        object.__setattr__(self, "basis", tuple(basis))
        object.__setattr__(self, "_pivots", tuple(pivots))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def residual(self, v) -> tuple[Fraction, ...]:
        """Reduce v against the echelon basis; zero iff v lies in the span."""
        w = list(vector(v))
        if len(w) != self.n:
            raise DimensionMismatchError("vector length does not match subspace")
        for row, pc in zip(self.basis, self._pivots):
            if w[pc] != 0:
                f = w[pc]
                w = [a - f * b for a, b in zip(w, row)]
        return tuple(w)

    def contains(self, v) -> bool:
        return vec_is_zero(self.residual(v))

    def is_complementary(self, other: "Subspace") -> bool:
        if self.n != other.n:
            return False
        if self.dim + other.dim != self.n:
            return False
        return rank_of(self.basis + other.basis) == self.n

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.n == other.n
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.n, self.basis))

    def __repr__(self):
        vecs = ", ".join("(" + ", ".join(map(format_rational, v)) + ")" for v in self.basis)
        return f"Subspace[{vecs}]"


def projection_onto(plus: Subspace, minus: Subspace) -> tuple[Matrix, Matrix]:
    """Projections (pi_plus, pi_minus) for a direct sum decomposition."""
    if not plus.is_complementary(minus):
        raise DimensionMismatchError("subspaces are not complementary")
    n = plus.n
    p = Matrix.from_columns(list(plus.basis) + list(minus.basis))
    d = Matrix.diagonal([ONE] * plus.dim + [ZERO] * minus.dim)
    pi_plus = p * d * invert(p)
    return pi_plus, Matrix.identity(n) - pi_plus
