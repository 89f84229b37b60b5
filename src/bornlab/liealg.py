"""Lie algebras by structure constants and the differential on invariant forms.

A LieAlgebra is a dimension n plus the constants c^k_{ij} for i < j; the full
tensor extends by antisymmetry.  Construction rejects any violation of the
Jacobi identity.  The exterior derivative on left-invariant forms has no
point-derivative terms, so it is determined by brackets alone:

    (d a)(x, y)    = -a([x, y])
    (d w)(x, y, z) = -w([x, y], z) + w([x, z], y) - w([y, z], x)

The sign convention is fixed so that a bracket [e1, e2] = -e5 yields
d alpha_5 = alpha_1 ^ alpha_2.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .errors import DimensionMismatchError, JacobiViolationError
from .exact import (
    Matrix,
    Subspace,
    ZERO,
    basis_vector,
    format_rational,
    rationalize,
    vec_add,
    vec_is_zero,
    vec_scale,
    vector,
    zero_vector,
)
from .multilinear import ANTISYMMETRIC, BilinearForm


class LieAlgebra:
    """Finite-dimensional Lie algebra over the rationals.

    brackets maps 1-based pairs (i, j) with i < j to {k: coefficient of e_k
    in [e_i, e_j]}.  Zero coefficients are dropped, so the stored table is
    canonical and serializes deterministically.
    """

    __slots__ = ("n", "brackets", "_table")

    def __init__(self, n: int, brackets: Mapping = (), *, check: bool = True):
        if n < 1:
            raise DimensionMismatchError("dimension must be >= 1")
        canon: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j), out in dict(brackets).items():
            if not (1 <= i < j <= n):
                raise DimensionMismatchError(f"bracket pair ({i},{j}) out of range for dim {n}")
            row = {}
            for k, coeff in out.items():
                k = int(k)
                if not 1 <= k <= n:
                    raise DimensionMismatchError(f"bracket output index {k} out of range")
                c = rationalize(coeff)
                if c != 0:
                    row[k] = c
            if row:
                canon[(i, j)] = dict(sorted(row.items()))
        table = [[zero_vector(n) for _ in range(n)] for _ in range(n)]
        for (i, j), row in canon.items():
            v = [ZERO] * n
            for k, c in row.items():
                v[k - 1] = c
            table[i - 1][j - 1] = tuple(v)
            table[j - 1][i - 1] = tuple(-c for c in v)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "brackets", {key: canon[key] for key in sorted(canon)})
        object.__setattr__(self, "_table", tuple(tuple(row) for row in table))
        if check:
            defect = jacobi_defect(self)
            for (i, j, k, l), value in sorted(defect.items()):
                if value != 0:
                    raise JacobiViolationError((i, j, k, l), value)

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebra is immutable")

    @classmethod
    def abelian(cls, n: int) -> "LieAlgebra":
        return cls(n, {})

    def basis_bracket(self, i: int, j: int):
        """[e_{i+1}, e_{j+1}] as a coordinate vector (0-based arguments)."""
        return self._table[i][j]

    def ad(self, i: int) -> Matrix:
        """Matrix of ad_{e_{i+1}} (0-based argument): column j is [e_{i+1}, e_{j+1}]."""
        return Matrix.from_columns(self._table[i])

    def bracket(self, x: Sequence, y: Sequence):
        """[x, y]^k = sum_{i,j} x^i y^j c^k_{ij}; bilinear and antisymmetric."""
        x, y = vector(x), vector(y)
        if len(x) != self.n or len(y) != self.n:
            raise DimensionMismatchError("bracket arguments must have the algebra dimension")
        out = zero_vector(self.n)
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                if yj == 0 or i == j:
                    continue
                v = self._table[i][j]
                if not vec_is_zero(v):
                    out = vec_add(out, vec_scale(xi * yj, v))
        return out

    def is_abelian(self) -> bool:
        return not self.brackets

    def __eq__(self, other):
        return isinstance(other, LieAlgebra) and self.n == other.n and self.brackets == other.brackets

    def __hash__(self):
        return hash((self.n, tuple((k, tuple(v.items())) for k, v in self.brackets.items())))

    def __repr__(self):
        rels = ", ".join(
            f"[e{i},e{j}]=" + "+".join(f"{format_rational(c)}*e{k}" for k, c in out.items())
            for (i, j), out in self.brackets.items()
        )
        return f"LieAlgebra(dim={self.n}, {rels or 'abelian'})"


def jacobi_defect(L: LieAlgebra) -> dict:
    """All Jacobi sums [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j].

    Keys are 1-based (i, j, k, l) for i < j < k; the algebra satisfies Jacobi
    exactly when every value is zero.
    """
    n = L.n
    out = {}
    for i in range(n):
        ei = basis_vector(n, i)
        for j in range(i + 1, n):
            ej = basis_vector(n, j)
            for k in range(j + 1, n):
                ek = basis_vector(n, k)
                total = vec_add(
                    vec_add(
                        L.bracket(L.basis_bracket(i, j), ek),
                        L.bracket(L.basis_bracket(j, k), ei),
                    ),
                    L.bracket(L.basis_bracket(k, i), ej),
                )
                for l, value in enumerate(total):
                    out[(i + 1, j + 1, k + 1, l + 1)] = value
    return out


class SubalgebraResult:
    """Outcome of a bracket-closure test, with a witness on failure."""

    __slots__ = ("ok", "witness", "residual")

    def __init__(self, ok, witness=None, residual=None):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "residual", residual)

    def __setattr__(self, name, value):
        raise AttributeError("SubalgebraResult is immutable")

    def __bool__(self):
        return self.ok


def is_subalgebra(L: LieAlgebra, s: Subspace) -> SubalgebraResult:
    """True iff [s, s] is contained in s.

    On failure the witness is the 1-based pair of positions into the echelon
    basis of s together with the residual of the bracket outside the span.
    """
    basis = s.basis
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            v = L.bracket(basis[a], basis[b])
            residual = s.residual(v)
            if not vec_is_zero(residual):
                return SubalgebraResult(False, (a + 1, b + 1), residual)
    return SubalgebraResult(True)


class OneForm:
    """Covector in the dual basis alpha_i."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        object.__setattr__(self, "coefficients", vector(coefficients))

    def __setattr__(self, name, value):
        raise AttributeError("OneForm is immutable")

    @classmethod
    def dual(cls, n: int, i: int) -> "OneForm":
        """alpha_i (1-based)."""
        return cls(basis_vector(n, i - 1))

    @property
    def n(self) -> int:
        return len(self.coefficients)

    def evaluate(self, v):
        return sum(a * b for a, b in zip(self.coefficients, v))

    def __eq__(self, other):
        return isinstance(other, OneForm) and self.coefficients == other.coefficients


class ThreeForm:
    """Alternating trilinear form; only coefficients with i < j < k are stored."""

    __slots__ = ("n", "coefficients")

    def __init__(self, n: int, coefficients: Mapping = ()):
        canon = {}
        for (i, j, k), value in dict(coefficients).items():
            if not 0 <= i < j < k < n:
                raise DimensionMismatchError("three-form indices must satisfy 0 <= i < j < k < n")
            c = rationalize(value)
            if c != 0:
                canon[(i, j, k)] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coefficients", dict(sorted(canon.items())))

    def __setattr__(self, name, value):
        raise AttributeError("ThreeForm is immutable")

    def component(self, i: int, j: int, k: int):
        """Fully antisymmetric component, arbitrary 0-based indices."""
        if len({i, j, k}) < 3:
            return ZERO
        order = sorted((i, j, k))
        value = self.coefficients.get(tuple(order), ZERO)
        if value == 0:
            return ZERO
        perm = (i, j, k)
        sign = 1
        seq = list(perm)
        for a in range(3):
            for b in range(a + 1, 3):
                if seq[a] > seq[b]:
                    seq[a], seq[b] = seq[b], seq[a]
                    sign = -sign
        return sign * value

    def evaluate(self, x, y, z):
        total = ZERO
        for (i, j, k), c in self.coefficients.items():
            det = (
                x[i] * (y[j] * z[k] - y[k] * z[j])
                - x[j] * (y[i] * z[k] - y[k] * z[i])
                + x[k] * (y[i] * z[j] - y[j] * z[i])
            )
            total += c * det
        return total

    def interior(self, x) -> Matrix:
        """The 2-form w(x, ., .) as the matrix of w(x, e_j, e_k)."""
        rows = [[ZERO] * self.n for _ in range(self.n)]
        for (i, j, k), c in self.coefficients.items():
            # cyclic permutations of (i, j, k) are even
            for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
                value = c * x[a]
                rows[b][d] += value
                rows[d][b] -= value
        return Matrix(rows)

    def is_zero(self) -> bool:
        return not self.coefficients

    def witnesses(self):
        """Sorted nonzero components as ((i, j, k) 1-based, value)."""
        return [((i + 1, j + 1, k + 1), v) for (i, j, k), v in self.coefficients.items()]

    def __eq__(self, other):
        return isinstance(other, ThreeForm) and self.n == other.n and self.coefficients == other.coefficients

    def __repr__(self):
        return f"ThreeForm(n={self.n}, nonzero={len(self.coefficients)})"


def _two_form_matrix(w) -> Matrix:
    m = w.matrix if isinstance(w, BilinearForm) else w
    if not isinstance(m, Matrix):
        raise TypeError("expected a BilinearForm or Matrix")
    if not m.is_antisymmetric():
        raise ValueError("two-form matrix must be antisymmetric")
    return m


def ce_d1(L: LieAlgebra, a: OneForm) -> BilinearForm:
    """(d a)(e_i, e_j) = -a([e_i, e_j])."""
    n = L.n
    if a.n != n:
        raise DimensionMismatchError("one-form dimension does not match algebra")
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            value = -a.evaluate(L.basis_bracket(i, j))
            rows[i][j] = value
            rows[j][i] = -value
    return BilinearForm(Matrix(rows), ANTISYMMETRIC)


@lru_cache(maxsize=None)
def ce_d2(L: LieAlgebra, w) -> ThreeForm:
    """(d w)(e_i,e_j,e_k) = -w([e_i,e_j],e_k) + w([e_i,e_k],e_j) - w([e_j,e_k],e_i)."""
    m = _two_form_matrix(w)
    n = L.n
    if m.n != n:
        raise DimensionMismatchError("two-form dimension does not match algebra")

    def ev(u, v):
        return sum(ui * sum(a * b for a, b in zip(row, v)) for ui, row in zip(u, m.rows))

    coeffs = {}
    for i in range(n):
        ei = basis_vector(n, i)
        for j in range(i + 1, n):
            ej = basis_vector(n, j)
            for k in range(j + 1, n):
                ek = basis_vector(n, k)
                coeffs[(i, j, k)] = (
                    -ev(L.basis_bracket(i, j), ek)
                    + ev(L.basis_bracket(i, k), ej)
                    - ev(L.basis_bracket(j, k), ei)
                )
    return ThreeForm(n, coeffs)


def is_closed(L: LieAlgebra, w) -> bool:
    return ce_d2(L, w).is_zero()


def wedge_one_one(a: OneForm, b: OneForm) -> BilinearForm:
    """a ^ b as an antisymmetric bilinear form."""
    n = a.n
    rows = [
        [a.coefficients[i] * b.coefficients[j] - a.coefficients[j] * b.coefficients[i] for j in range(n)]
        for i in range(n)
    ]
    return BilinearForm(Matrix(rows), ANTISYMMETRIC)


def wedge_two_one(w, a: OneForm) -> ThreeForm:
    """(w ^ a)(x,y,z) = w(x,y)a(z) - w(x,z)a(y) + w(y,z)a(x)."""
    m = _two_form_matrix(w)
    n = m.n
    coeffs = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                coeffs[(i, j, k)] = (
                    m.rows[i][j] * a.coefficients[k]
                    - m.rows[i][k] * a.coefficients[j]
                    + m.rows[j][k] * a.coefficients[i]
                )
    return ThreeForm(n, coeffs)
