"""Recursion operators, pullbacks, Nijenhuis tensors and involution splittings."""

import random
from fractions import Fraction

import pytest

from bornlab import (
    LieAlgebra,
    Matrix,
    Subspace,
    anticommutator_defect,
    involution_split,
    is_subalgebra,
    nijenhuis,
    pullback,
    recursion_operator,
)
from bornlab.errors import DegenerateFormError, NotInvolutionError, TrivialInvolutionError
from bornlab.exact import determinant, invert
from bornlab.multilinear import symmetric_form, two_form
from oracles import basis_vector, diagonal, evaluate, from_columns


def random_form(rng, n, symmetry=None):
    while True:
        m = Matrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)])
        if symmetry == "symmetric":
            m = m + m.transpose()
        elif symmetry == "antisymmetric":
            m = m - m.transpose()
        if determinant(m) != 0:
            return m


# --- recursion operators --------------------------------------------------


def test_recursion_identity_case():
    rng = random.Random(2)
    a = random_form(rng, 4)
    assert recursion_operator(a, a) == Matrix.identity(4)


def test_recursion_nil3_tables():
    omega = two_form(4, {(1, 3): -1, (2, 4): 1})
    alpha = two_form(4, {(1, 4): 1, (2, 3): -1})
    beta = two_form(4, {(1, 3): -1, (2, 4): -1})
    a = recursion_operator(omega, alpha)
    assert a == from_columns([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]])
    j = recursion_operator(alpha, beta)
    # Je1 = e2, Je2 = -e1, Je3 = -e4 as printed in the source table; the
    # printed Je4 = -e3 is inconsistent (see below), the true value is Je4 = e3
    assert j == from_columns([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])


def test_recursion_nil3_printed_j_table_is_inconsistent():
    """The transcribed table with Je4 = -e3 fails both J^2 = -Id and the
    defining relation alpha(Jx, y) = beta(x, y); the catalog keeps the
    corrected value Je4 = e3."""
    alpha = two_form(4, {(1, 4): 1, (2, 3): -1})
    beta = two_form(4, {(1, 3): -1, (2, 4): -1})
    printed = from_columns([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]])
    assert printed * printed != -Matrix.identity(4)
    e4, e2 = basis_vector(4, 3), basis_vector(4, 1)
    assert evaluate(alpha.rows, printed.matvec(e4), e2) != evaluate(beta.rows, e4, e2)
    corrected = recursion_operator(alpha, beta)
    assert corrected * corrected == -Matrix.identity(4)
    for i in range(4):
        for j in range(4):
            x, y = basis_vector(4, i), basis_vector(4, j)
            assert evaluate(alpha.rows, corrected.matvec(x), y) == evaluate(beta.rows, x, y)


def test_recursion_defining_relation_random():
    rng = random.Random(7)
    for _ in range(15):
        n = rng.choice((2, 4))
        a, b = random_form(rng, n), random_form(rng, n)
        t = recursion_operator(a, b)
        for i in range(n):
            for j in range(n):
                x, y = basis_vector(n, i), basis_vector(n, j)
                assert evaluate(a.rows, t.matvec(x), y) == evaluate(b.rows, x, y)


def test_recursion_composition_law():
    # chaining a -> b -> c composes as rec(a,c) = rec(a,b) o rec(b,c)
    rng = random.Random(19)
    for _ in range(15):
        n = rng.choice((2, 3, 4))
        a, b, c = (random_form(rng, n) for _ in range(3))
        ab, bc, ac = recursion_operator(a, b), recursion_operator(b, c), recursion_operator(a, c)
        assert ac == ab * bc


def test_recursion_inverse_reverses_arrow():
    rng = random.Random(23)
    a, b = random_form(rng, 4), random_form(rng, 4)
    assert recursion_operator(b, a) == invert(recursion_operator(a, b))


def test_recursion_degenerate_source():
    singular = Matrix([[1, 1], [1, 1]])
    target = Matrix.identity(2)
    with pytest.raises(DegenerateFormError, match="^source form of a recursion operator is degenerate$"):
        recursion_operator(singular, target)


# --- pullback ---------------------------------------------------------------


def test_pullback_identity():
    rng = random.Random(3)
    b = random_form(rng, 4)
    assert pullback(Matrix.identity(4), b) == b


def test_pullback_h4_j_preserves_omega():
    omega = two_form(6, {(1, 3): 1, (2, 6): 1, (4, 5): 1})
    j = from_columns(
        [
            [0, 0, -2, 0, 0, 0],
            [0, 0, 0, -1, 0, 0],
            [Fraction(1, 2), 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, -1, 0],
        ]
    )
    assert pullback(j, omega) == omega


def test_pullback_nil3_jtilde_negates_metric():
    g = symmetric_form(4, {(1, 4): -1, (2, 3): -1})
    jt = from_columns([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    assert pullback(jt, g) == -g


# --- Nijenhuis tensor --------------------------------------------------------


def test_nijenhuis_abelian_always_zero():
    rng = random.Random(5)
    L = LieAlgebra(4, {})
    for _ in range(10):
        t = Matrix([[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)])
        assert nijenhuis(L, t).is_zero()


def test_nijenhuis_h4_j_zero(h4_algebra):
    j = from_columns(
        [
            [0, 0, -2, 0, 0, 0],
            [0, 0, 0, -1, 0, 0],
            [Fraction(1, 2), 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, -1, 0],
        ]
    )
    assert nijenhuis(h4_algebra, j).is_zero()


def test_nijenhuis_product_structure_detects_nonintegrability(nil3):
    p = diagonal([1, 1, -1, -1])
    n = nijenhuis(nil3, p)
    assert n.slices[0].rows[1] == (0, 0, 4, 0)  # N(e1, e2) = 4 e3
    assert not n.is_zero()


def test_nijenhuis_antisymmetric_in_lower_slots(nil3):
    rng = random.Random(11)
    t = Matrix([[Fraction(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)])
    n = nijenhuis(nil3, t)
    for i in range(4):
        for j in range(4):
            assert n.slices[i].rows[j] == tuple(-v for v in n.slices[j].rows[i])


def test_nijenhuis_zero_iff_eigenspaces_subalgebras(nil3, h4_algebra):
    cases = [
        (nil3, diagonal([1, 1, -1, -1])),
        (nil3, diagonal([1, -1, -1, 1])),
        (nil3, diagonal([1, -1, 1, -1])),
        (h4_algebra, diagonal([1, 1, -1, -1, 1, -1])),
        (h4_algebra, diagonal([1, -1, 1, -1, 1, -1])),
    ]
    for L, t in cases:
        split = involution_split(t)
        subalgebras = bool(is_subalgebra(L, split.plus)) and bool(is_subalgebra(L, split.minus))
        assert nijenhuis(L, t).is_zero() == subalgebras


# --- involution splitting ----------------------------------------------------


def test_involution_split_diagonal():
    split = involution_split(diagonal([1, 1, -1, -1]))
    assert split.plus == Subspace(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert split.minus == Subspace(4, [[0, 0, 1, 0], [0, 0, 0, 1]])


def test_involution_split_nil3_b():
    b = diagonal([1, -1, 1, -1])
    split = involution_split(b)
    assert split.plus == Subspace(4, [[1, 0, 0, 0], [0, 0, 1, 0]])
    assert split.minus == Subspace(4, [[0, 1, 0, 0], [0, 0, 0, 1]])


def test_involution_split_nil3_a_kernel_oracle():
    a = from_columns([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]])
    split = involution_split(a)
    assert split.plus == Subspace(4, [[1, 1, 0, 0], [0, 0, 1, -1]])
    assert split.minus == Subspace(4, [[1, -1, 0, 0], [0, 0, 1, 1]])
    # kernel property: a fixes the plus basis and negates the minus basis
    for v in split.plus.basis:
        assert a.matvec(v) == v
    for v in split.minus.basis:
        assert a.matvec(v) == tuple(-x for x in v)


def test_involution_split_projection_algebra():
    from bornlab import invert

    rng = random.Random(13)
    for diag in ([1, -1], [1, 1, -1, -1], [1, -1, -1, 1]):
        n = len(diag)
        while True:
            p = Matrix([[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
            if determinant(p) != 0:
                break
        t = p * diagonal(diag) * invert(p)
        split = involution_split(t)
        pi_minus = Matrix.identity(n) - split.pi_plus
        assert split.pi_plus * split.pi_plus == split.pi_plus
        assert split.pi_plus * pi_minus == Matrix.zero(n)
        assert split.pi_plus - pi_minus == t
        assert split.plus.dim + split.minus.dim == n


def test_involution_split_errors():
    with pytest.raises(NotInvolutionError):
        involution_split(Matrix([[1, 1], [0, 1]]))
    with pytest.raises(TrivialInvolutionError):
        involution_split(Matrix.identity(3))
    with pytest.raises(TrivialInvolutionError):
        involution_split(-Matrix.identity(3))


# --- anticommutators ---------------------------------------------------------


def test_anticommutator_pauli_like_pair():
    s = diagonal([1, -1])
    t = Matrix([[0, 1], [1, 0]])
    assert anticommutator_defect(s, t).is_zero()


def test_anticommutator_nil3_a_jtilde():
    a = from_columns([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]])
    jt = from_columns([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    assert anticommutator_defect(a, jt).is_zero()


def test_anticommutator_identity_pair():
    i3 = Matrix.identity(3)
    assert anticommutator_defect(i3, i3) == 2 * Matrix.identity(3)
