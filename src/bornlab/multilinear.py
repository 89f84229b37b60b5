"""Bilinear forms, endomorphism fields, recursion operators and Nijenhuis tensors.

Over a fixed basis everything is a matrix of Fractions: a bilinear form b is
stored as the matrix b(e_i, e_j), an endomorphism T as the matrix whose j-th
column is T(e_j).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import (
    AxiomFailureError,
    DegenerateFormError,
    DimensionMismatchError,
    NotInvolutionError,
    TrivialInvolutionError,
)
from .exact import (
    Matrix,
    Subspace,
    basis_vector,
    determinant,
    invert,
    kernel_basis,
    vec_add,
    vec_is_zero,
    vec_sub,
    vector,
)

if TYPE_CHECKING:  # pragma: no cover
    from .liealg import LieAlgebra

SYMMETRIC = "symmetric"
ANTISYMMETRIC = "antisymmetric"
NOSYM = "none"


class BilinearForm:
    """Coordinate matrix of a bilinear form with a declared symmetry type."""

    __slots__ = ("matrix", "symmetry")

    def __init__(self, matrix: Matrix, symmetry: str = NOSYM):
        if symmetry == SYMMETRIC and not matrix.is_symmetric():
            raise ValueError("matrix is not symmetric")
        if symmetry == ANTISYMMETRIC and not matrix.is_antisymmetric():
            raise ValueError("matrix is not antisymmetric")
        if symmetry not in (SYMMETRIC, ANTISYMMETRIC, NOSYM):
            raise ValueError(f"unknown symmetry type {symmetry!r}")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "symmetry", symmetry)

    def __setattr__(self, name, value):
        raise AttributeError("BilinearForm is immutable")

    @classmethod
    def symmetric(cls, matrix: Matrix) -> "BilinearForm":
        return cls(matrix, SYMMETRIC)

    @classmethod
    def antisymmetric(cls, matrix: Matrix) -> "BilinearForm":
        return cls(matrix, ANTISYMMETRIC)

    @classmethod
    def detect(cls, matrix: Matrix) -> "BilinearForm":
        if matrix.is_symmetric():
            return cls(matrix, SYMMETRIC)
        if matrix.is_antisymmetric():
            return cls(matrix, ANTISYMMETRIC)
        return cls(matrix, NOSYM)

    @property
    def n(self) -> int:
        return self.matrix.n

    def evaluate(self, x, y):
        return sum(xi * sum(a * b for a, b in zip(row, y)) for xi, row in zip(x, self.matrix.rows))

    def is_nondegenerate(self) -> bool:
        return determinant(self.matrix) != 0

    def scaled(self, c) -> "BilinearForm":
        return BilinearForm(self.matrix * c, self.symmetry)

    def negated(self) -> "BilinearForm":
        return BilinearForm(-self.matrix, self.symmetry)

    def __eq__(self, other):
        return (
            isinstance(other, BilinearForm)
            and self.matrix == other.matrix
            and self.symmetry == other.symmetry
        )

    def __hash__(self):
        return hash((self.matrix, self.symmetry))

    def __repr__(self):
        return f"BilinearForm({self.symmetry}, {self.matrix!r})"


class Endomorphism:
    """Endomorphism of the fixed basis; column j is the image of e_j."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: Matrix):
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, name, value):
        raise AttributeError("Endomorphism is immutable")

    @classmethod
    def identity(cls, n: int) -> "Endomorphism":
        return cls(Matrix.identity(n))

    @classmethod
    def from_images(cls, images) -> "Endomorphism":
        """Build from the list of images of e_1, ..., e_n."""
        return cls(Matrix.from_columns([vector(v) for v in images]))

    @property
    def n(self) -> int:
        return self.matrix.n

    def apply(self, v):
        return self.matrix.matvec(v)

    def compose(self, other: "Endomorphism") -> "Endomorphism":
        """self after other (matrix product self * other)."""
        return Endomorphism(self.matrix * other.matrix)

    def squared(self) -> Matrix:
        return self.matrix * self.matrix

    def negated(self) -> "Endomorphism":
        return Endomorphism(-self.matrix)

    def scaled(self, c) -> "Endomorphism":
        return Endomorphism(self.matrix * c)

    def inverse(self) -> "Endomorphism":
        return Endomorphism(invert(self.matrix))

    def is_involution(self) -> bool:
        return self.squared() == Matrix.identity(self.n)

    def is_complex_structure(self) -> bool:
        return self.squared() == -Matrix.identity(self.n)

    def maps_subspace_into(self, source: Subspace, target: Subspace) -> bool:
        return all(target.contains(self.apply(v)) for v in source.basis)

    def __eq__(self, other):
        return isinstance(other, Endomorphism) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"Endomorphism({self.matrix!r})"


class OneTwoTensor:
    """A (1,2)-tensor N^k_{ij}, antisymmetric in the lower pair (i, j).

    Only i < j is stored; the full tensor extends by N(y, x) = -N(x, y).
    """

    __slots__ = ("n", "values")

    def __init__(self, n: int, values):
        # values: dict[(i, j) 0-based, i < j] -> image vector
        object.__setattr__(self, "n", n)
        object.__setattr__(
            self,
            "values",
            {key: vector(v) for key, v in sorted(values.items()) if not vec_is_zero(v)},
        )

    def __setattr__(self, name, value):
        raise AttributeError("OneTwoTensor is immutable")

    @classmethod
    def from_function(cls, n: int, fn) -> "OneTwoTensor":
        return cls(n, {(i, j): fn(i, j) for i in range(n) for j in range(i + 1, n)})

    def pair(self, i: int, j: int):
        """Value on (e_i, e_j), 0-based, extended antisymmetrically."""
        if i == j:
            return (0,) * self.n
        if i < j:
            return self.values.get((i, j), tuple([0] * self.n))
        v = self.values.get((j, i), tuple([0] * self.n))
        return tuple(-a for a in v)

    def evaluate(self, x, y):
        out = [0] * self.n
        for (i, j), v in self.values.items():
            c = x[i] * y[j] - x[j] * y[i]
            if c != 0:
                out = [o + c * a for o, a in zip(out, v)]
        return vector(out)

    def is_zero(self) -> bool:
        return not self.values

    def witnesses(self):
        """Sorted nonzero components as ((i, j, k) 1-based, value)."""
        out = []
        for (i, j), v in sorted(self.values.items()):
            for k, a in enumerate(v):
                if a != 0:
                    out.append(((i + 1, j + 1, k + 1), a))
        return out

    def __eq__(self, other):
        return isinstance(other, OneTwoTensor) and self.n == other.n and self.values == other.values

    def __repr__(self):
        return f"OneTwoTensor(n={self.n}, nonzero={len(self.values)})"


def recursion_operator(a: BilinearForm, b: BilinearForm) -> Endomorphism:
    """The unique endomorphism A with a(A x, y) = b(x, y) for all x, y.

    Solving a(A e_j, e_i) = b(e_j, e_i) over all basis pairs gives
    Ma^T A = Mb^T, i.e. A = (Ma^T)^(-1) Mb^T.
    """
    if a.n != b.n:
        raise DimensionMismatchError("forms live on spaces of different dimension")
    ma_t = a.matrix.transpose()
    if determinant(ma_t) == 0:
        raise DegenerateFormError("source form of a recursion operator is degenerate")
    return Endomorphism(invert(ma_t) * b.matrix.transpose())


def pullback(t: Endomorphism, b: BilinearForm) -> BilinearForm:
    """(t^* b)(x, y) = b(t x, t y)."""
    m = t.matrix.transpose() * b.matrix * t.matrix
    return BilinearForm.detect(m)


def nijenhuis(L: "LieAlgebra", t: Endomorphism) -> OneTwoTensor:
    """Nijenhuis tensor [Tx,Ty] + T^2 [x,y] - T[Tx,y] - T[x,Ty] on basis pairs."""
    n = L.n
    if t.n != n:
        raise DimensionMismatchError("endomorphism dimension does not match algebra")
    t2 = Endomorphism(t.squared())
    images = [t.matrix.column(j) for j in range(n)]

    def component(i, j):
        ei, ej = basis_vector(n, i), basis_vector(n, j)
        term = L.bracket(images[i], images[j])
        term = vec_add(term, t2.apply(L.bracket(ei, ej)))
        term = vec_sub(term, t.apply(L.bracket(images[i], ej)))
        term = vec_sub(term, t.apply(L.bracket(ei, images[j])))
        return term

    return OneTwoTensor.from_function(n, component)


class InvolutionSplit:
    """Eigen-decomposition of an involution: subspaces and projections."""

    __slots__ = ("plus", "minus", "pi_plus", "pi_minus")

    def __init__(self, plus, minus, pi_plus, pi_minus):
        object.__setattr__(self, "plus", plus)
        object.__setattr__(self, "minus", minus)
        object.__setattr__(self, "pi_plus", pi_plus)
        object.__setattr__(self, "pi_minus", pi_minus)

    def __setattr__(self, name, value):
        raise AttributeError("InvolutionSplit is immutable")

    def __iter__(self):
        return iter((self.plus, self.minus, self.pi_plus, self.pi_minus))


def involution_split(t: Endomorphism) -> InvolutionSplit:
    """Split into (+1)/(-1) eigenspaces with projections (Id +- t)/2.

    Requires t^2 = Id and t != +-Id; eigenspace bases come out in reduced
    echelon form with deterministic pivoting.
    """
    n = t.n
    ident = Matrix.identity(n)
    defect = t.squared() - ident
    if not defect.is_zero():
        raise NotInvolutionError(defect)
    if t.matrix == ident or t.matrix == -ident:
        raise TrivialInvolutionError("involution is +-identity; no proper splitting")
    plus = Subspace(n, kernel_basis(t.matrix - ident))
    minus = Subspace(n, kernel_basis(t.matrix + ident))
    half = invert(Matrix.identity(n) * 2)
    pi_plus = Endomorphism(half * (ident + t.matrix))
    pi_minus = Endomorphism(half * (ident - t.matrix))
    if plus.dim + minus.dim != n:
        raise AxiomFailureError("eigenspace dimensions do not fill the space")
    return InvolutionSplit(plus, minus, pi_plus, pi_minus)


def anticommutator_defect(s: Endomorphism, t: Endomorphism) -> Matrix:
    """st + ts; the zero matrix exactly when s and t anti-commute."""
    return s.matrix * t.matrix + t.matrix * s.matrix


def two_form(n: int, pairs) -> BilinearForm:
    """Antisymmetric form sum of c * alpha_i ^ alpha_j from {(i, j): c}, 1-based."""
    rows = [[0] * n for _ in range(n)]
    for (i, j), c in pairs.items():
        if i == j or not (1 <= i <= n and 1 <= j <= n):
            raise DimensionMismatchError(f"bad two-form pair ({i},{j})")
        rows[i - 1][j - 1] += c
        rows[j - 1][i - 1] -= c
    return BilinearForm(Matrix(rows), ANTISYMMETRIC)


def symmetric_form(n: int, pairs) -> BilinearForm:
    """Symmetric form with b(e_i, e_j) = b(e_j, e_i) = c from {(i, j): c}, 1-based."""
    rows = [[0] * n for _ in range(n)]
    for (i, j), c in pairs.items():
        if not (1 <= i <= n and 1 <= j <= n):
            raise DimensionMismatchError(f"bad symmetric-form pair ({i},{j})")
        rows[i - 1][j - 1] = c
        rows[j - 1][i - 1] = c
    return BilinearForm(Matrix(rows), SYMMETRIC)
