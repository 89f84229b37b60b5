"""Exact rational scalars and dense linear algebra.

Every coefficient in this package is a fractions.Fraction, so identities are
certified with defect exactly zero, never merely below a tolerance.  Fractions
normalize on construction (reduced, positive denominator), which makes
equality structural.  Matrices are small (catalog models reach dimension
eight, direct sums of them twelve) and stored dense; plain Gaussian
elimination over the rationals is exact and fast enough at these sizes.
Products skip zero entries, which most structure data consists of.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatchError,
    NotSymmetricError,
    SingularMatrixError,
)

ZERO = Fraction(0)
ONE = Fraction(1)

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
        return cls([[rationalize(cols[j][i]) for j in range(n)] for i in range(n)])

    def entry(self, i: int, j: int) -> Fraction:
        """1-based access m(e_i, e_j)."""
        return self.rows[i - 1][j - 1]

    def column(self, j: int) -> tuple[Fraction, ...]:
        """0-based column extraction."""
        return tuple(row[j] for row in self.rows)

    def matvec(self, v) -> tuple[Fraction, ...]:
        if len(v) != self.n:
            raise DimensionMismatchError("vector length does not match matrix dimension")
        nonzero = [(j, x) for j, x in enumerate(v) if x != 0]
        return tuple(sum((row[j] * x for j, x in nonzero), ZERO) for row in self.rows)

    def transpose(self) -> "Matrix":
        return Matrix([[self.rows[j][i] for j in range(self.n)] for i in range(self.n)])

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
        return Matrix([[a + b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_dim(other)
        return Matrix([[a - b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __neg__(self) -> "Matrix":
        return Matrix([[-a for a in r] for r in self.rows])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            self._check_dim(other)
            out = []
            for row in self.rows:
                acc = [ZERO] * self.n
                for a, other_row in zip(row, other.rows):
                    if a != 0:
                        for j, b in enumerate(other_row):
                            if b != 0:
                                acc[j] += a * b
                out.append(acc)
            return Matrix(out)
        c = rationalize(other)
        return Matrix([[c * a for a in r] for r in self.rows])

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


def linear_combination(coeffs, matrices: Sequence[Matrix]) -> Matrix:
    """sum_a coeffs[a] * matrices[a]; terms with a zero coefficient are skipped."""
    n = matrices[0].n
    rows = [[ZERO] * n for _ in range(n)]
    for c, m in zip(coeffs, matrices):
        if c != 0:
            for out, row in zip(rows, m.rows):
                for j, v in enumerate(row):
                    out[j] += c * v
    return Matrix(rows)


def determinant(m: Matrix) -> Fraction:
    """Exact determinant by Gaussian elimination with row swaps."""
    n = m.n
    a = [list(row) for row in m.rows]
    det = ONE
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return ZERO
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = ONE / a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] * inv
            if f == 0:
                continue
            for c in range(col, n):
                a[r][c] -= f * a[col][c]
    return det


def invert(m: Matrix) -> Matrix:
    """Inverse by Gauss-Jordan elimination; raises SingularMatrixError."""
    n = m.n
    a = [list(row) + list(Matrix.identity(n).rows[i]) for i, row in enumerate(m.rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
        inv = ONE / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return Matrix([row[n:] for row in a])


def rref(vectors: Sequence[Sequence]) -> tuple[list[tuple[Fraction, ...]], list[int]]:
    """Reduced row echelon form of a list of row vectors.

    Deterministic lowest-index pivoting; zero rows are dropped.  Returns the
    reduced rows and their pivot column indices (0-based).
    """
    rows = [list(vector(v)) for v in vectors]
    if not rows:
        return [], []
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise DimensionMismatchError("vectors of unequal length")
    pivots = []
    rank = 0
    for col in range(width):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = ONE / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return [tuple(r) for r in rows[:rank]], pivots


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
