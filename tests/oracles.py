"""Test-only oracles: one-forms with their differential and wedge products, and
readers of Trilinear tensors that do not go through the engine's scan.

The engine needs d on two-forms only.  The d^2 = 0 and Leibniz tests, and the
acceptance criteria on stated differentials, check ce_d2 against the
one-form differential and the wedge products defined here pair by pair.
"""

from bornlab import BilinearForm, LieAlgebra, Matrix, Trilinear
from bornlab.exact import basis_vector, vector
from bornlab.multilinear import ANTISYMMETRIC


class OneForm:
    """Covector in the dual basis alpha_i."""

    def __init__(self, coefficients):
        self.coefficients = vector(coefficients)

    @classmethod
    def dual(cls, n: int, i: int) -> "OneForm":
        """alpha_i (1-based)."""
        return cls(basis_vector(n, i - 1))

    @property
    def n(self) -> int:
        return len(self.coefficients)

    def evaluate(self, v):
        return sum(a * b for a, b in zip(self.coefficients, v))


def ce_d1(L: LieAlgebra, a: OneForm) -> BilinearForm:
    """(d a)(e_i, e_j) = -a([e_i, e_j])."""
    n = L.n
    rows = [[-a.evaluate(L.bracket(basis_vector(n, i), basis_vector(n, j))) for j in range(n)] for i in range(n)]
    return BilinearForm(Matrix(rows), ANTISYMMETRIC)


def wedge_one_one(a: OneForm, b: OneForm) -> BilinearForm:
    """a ^ b as an antisymmetric bilinear form."""
    x, y = a.coefficients, b.coefficients
    return BilinearForm(Matrix([[x[i] * y[j] - x[j] * y[i] for j in range(a.n)] for i in range(a.n)]), ANTISYMMETRIC)


def wedge_two_one(w: BilinearForm, a: OneForm) -> Trilinear:
    """(w ^ a)(x,y,z) = w(x,y)a(z) - w(x,z)a(y) + w(y,z)a(x) on every basis triple."""
    m, c, n = w.matrix.rows, a.coefficients, a.n
    return Trilinear(
        tuple(
            Matrix([[m[i][j] * c[k] - m[i][k] * c[j] + m[j][k] * c[i] for k in range(n)] for j in range(n)])
            for i in range(n)
        )
    )


def nonzero_entries(t: Trilinear, lower: int = 0):
    """Nonzero entries ((i, j, k) 1-based, value) of t in lexicographic order.

    lower=1 keeps i < j, the entries a tensor antisymmetric in its first two
    arguments determines; lower=2 keeps i < j < k, those of an alternating one.
    """
    return [
        ((i + 1, j + 1, k + 1), v)
        for i, m in enumerate(t.slices)
        for j, row in enumerate(m.rows)
        if lower < 1 or j > i
        for k, v in enumerate(row)
        if v != 0 and (lower < 2 or k > j)
    ]


def contract(t: Trilinear, x):
    """The rows of t(x, ., .) = sum_i x_i (slice i)."""
    n = len(t.slices)
    out = [[0] * n for _ in range(n)]
    for xi, m in zip(x, t.slices):
        if xi:
            out = [[o + xi * v for o, v in zip(out_row, row)] for out_row, row in zip(out, m.rows)]
    return out


def evaluate(rows, y, z=None):
    """b(y, z) for the bilinear map with these rows, or the vector b(y, .) when z is None.

    With rows = contract(t, x) this is t(x, y, z), or the vector t(x, y, .).
    """
    out = [sum(yj * row[k] for yj, row in zip(y, rows) if yj) for k in range(len(rows))]
    return vector(out) if z is None else sum(a * b for a, b in zip(out, z))
