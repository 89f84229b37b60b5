"""Bilinear forms, endomorphism fields, recursion operators and Nijenhuis tensors.

Over a fixed basis everything is an exact rational matrix: a bilinear form b is
its Gram matrix b(e_i, e_j), an endomorphism T the matrix whose j-th column is
T(e_j).  A form's symmetry is read off its matrix (`Matrix.is_symmetric`,
`Matrix.is_antisymmetric`); the builders in `structures` certify it.
"""

from __future__ import annotations

from .errors import (
    DegenerateFormError,
    DimensionMismatchError,
    NotInvolutionError,
    SingularMatrixError,
    TrivialInvolutionError,
)
from .exact import (
    Matrix,
    Splitting,
    Trilinear,
    combinations,
    eigensplitting,
    invert,
    left_products,
    right_products,
)

TYPE_CHECKING = False  # true for static checkers only; importing typing at run time is not needed
if TYPE_CHECKING:  # pragma: no cover
    from .liealg import LieAlgebra

def recursion_operator(a: Matrix, b: Matrix) -> Matrix:
    """The unique endomorphism A with a(A x, y) = b(x, y) for all x, y.

    Solving a(A e_j, e_i) = b(e_j, e_i) over all basis pairs gives
    Ma^T A = Mb^T, i.e. A = (Ma^(-1))^T Mb^T, read from the memoized inverse
    of Ma itself, which every other use of Ma^(-1) shares.
    """
    if a.n != b.n:
        raise DimensionMismatchError("forms live on spaces of different dimension")
    try:
        ma_inv = invert(a)
    except SingularMatrixError:
        raise DegenerateFormError("source form of a recursion operator is degenerate") from None
    return ma_inv.transpose() * b.transpose()


def pullback(t: Matrix, b: Matrix) -> Matrix:
    """(t^* b)(x, y) = b(t x, t y), of the symmetry of b: (T^T M T)^T = T^T M^T T."""
    return t.transpose() * b * t


def nijenhuis(L: "LieAlgebra", t: Matrix) -> Trilinear:
    """Nijenhuis tensor N(x, y) = [Tx,Ty] + T^2 [x,y] - T[Tx,y] - T[x,Ty] on basis pairs.

    Along x = e_i it is the matrix

        N_i = ad_{Te_i} T + T^2 ad_i - T ad_{Te_i} - T ad_i T
            = sum_k T_ki V_k - T V_i,   V_k = [ad_k, T],

    since ad_{Te_i} = sum_k T_ki ad_k; column j of N_i is N(e_i, e_j), so the
    tensor's slices are the N_i^T.
    """
    n = L.n
    if t.n != n:
        raise DimensionMismatchError("endomorphism dimension does not match algebra")
    v = [at - ta for at, ta in zip(right_products(L._ad, t), left_products(t, L._ad))]
    return Trilinear(tuple((w - tv).transpose() for w, tv in zip(combinations(t, v, range(n)), left_products(t, v))))


def involution_split(t: Matrix) -> Splitting:
    """The splitting into the (+1)/(-1) eigenspaces of t, whose involution is t.

    Requires t^2 = Id and t != +-Id; eigenspace bases come out in reduced
    echelon form with deterministic pivoting.  The splitting equals the one
    `splitting` gives for the same eigenspaces.

    Once t^2 = Id, pi_+- = (Id +- t)/2 satisfy pi_+ + pi_- = Id, t pi_+- =
    +-pi_+- and pi_+- x = x on the eigenspace E+-, so the columns of pi_+-
    span E+-: at most one elimination each, and t = pi_+ - pi_-.  The frame P holds
    the echelon bases b_1..b_p of E+ and c_1..c_m of E-; b_i is 1 at its
    pivot column r_i and 0 at the other r_j, and c_i likewise at s_i.  Any
    x is pi_+ x + pi_- x = sum alpha_i b_i + sum beta_i c_i, and coordinate
    r_i of the first sum is alpha_i, so alpha_i = (pi_+ x)_{r_i} and beta_i
    = (pi_- x)_{s_i}.  So P^-1 x = (alpha, beta) has as rows the rows r_i of
    pi_+ and then the rows s_i of pi_-, and the frame is never eliminated.
    """
    n = t.n
    ident = Matrix.identity(n)
    defect = t * t - ident
    if not defect.is_zero():
        raise NotInvolutionError(defect.first_witness())
    if t == ident or t == -ident:
        raise TrivialInvolutionError("involution is +-identity; no proper splitting")
    return eigensplitting(t)


def anticommutator_defect(s: Matrix, t: Matrix) -> Matrix:
    """st + ts; the zero matrix exactly when s and t anti-commute."""
    return s * t + t * s


def two_form(n: int, pairs) -> Matrix:
    """Antisymmetric form sum of c * alpha_i ^ alpha_j from {(i, j): c}, 1-based."""
    rows = [[0] * n for _ in range(n)]
    for (i, j), c in pairs.items():
        if i == j or not (1 <= i <= n and 1 <= j <= n):
            raise DimensionMismatchError(f"bad two-form pair ({i},{j})")
        rows[i - 1][j - 1] += c
        rows[j - 1][i - 1] -= c
    return Matrix(rows)


def symmetric_form(n: int, pairs) -> Matrix:
    """Symmetric form with b(e_i, e_j) = b(e_j, e_i) = c from {(i, j): c}, 1-based."""
    rows = [[0] * n for _ in range(n)]
    for (i, j), c in pairs.items():
        if not (1 <= i <= n and 1 <= j <= n):
            raise DimensionMismatchError(f"bad symmetric-form pair ({i},{j})")
        rows[i - 1][j - 1] = c
        rows[j - 1][i - 1] = c
    return Matrix(rows)
