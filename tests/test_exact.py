"""Exact scalar and linear-algebra substrate."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from bornlab import Matrix, Signature, Subspace, determinant, invert, signature_of_symmetric
from bornlab.errors import NotComplementaryError, NotSymmetricError, SingularMatrixError
from bornlab.exact import (
    MAX_LITERAL_DIGITS,
    format_rational,
    from_integers,
    parse_rational,
    rational_parts,
    read_integer,
    splitting,
    to_integers,
)
from oracles import old_parse_rational


def cofactor_det(rows):
    """Independent determinant oracle by cofactor expansion along row 0."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[r][c] for c in range(n) if c != j] for r in range(1, n)]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def random_matrix(rng, n, height=4):
    return Matrix([[Fraction(rng.randint(-height, height), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)])


def random_invertible(rng, n):
    while True:
        m = random_matrix(rng, n)
        if determinant(m) != 0:
            return m


# --- rationals ----------------------------------------------------------


def test_rational_normalization():
    x = parse_rational("4/6")
    assert (x.numerator, x.denominator) == (2, 3)
    assert parse_rational("-4/6") == Fraction(-2, 3)
    assert parse_rational("-4/6").denominator == 3
    assert parse_rational("0/7") == 0


@pytest.mark.parametrize("text", ["3/4", "-3/4", "7", "-7", "0"])
def test_rational_round_trip(text):
    assert format_rational(parse_rational(text)) == text


# the digits of a literal are ASCII: other decimal digits are rejected wherever they stand
@pytest.mark.parametrize(
    "bad", ["3/-4", "3.5", " 1", "1 ", "1/0", "", "a/b", "+1", "1/2\n", "\u0663", "\u0663/1\uff11", "\u0663/\u0664"]
)
def test_rational_rejects_non_canonical(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


# ASCII and other decimal digits, and the characters a near-miss literal uses
LITERAL_CHARS = "0123456789" + "\u0663\uff11\U0001d7d9" + "-+/._ \t\neE"
LITERALS = st.one_of(
    st.text(st.sampled_from(LITERAL_CHARS), max_size=8),
    st.from_regex(r"\A-?[0-9]{1,4}(/[0-9]{1,4})?\Z"),
)


def read_both(text):
    """(old value or None, integer parts or None) for one candidate literal."""
    try:
        old = old_parse_rational(text)
    except ValueError:
        old = None
    try:
        parts = rational_parts(text)
    except ValueError:
        parts = None
    return old, parts


@settings(max_examples=400, deadline=None)
@given(LITERALS)
@example("007")
@example("-007/010")
@example("-0")
@example("0/7")
@example("1/0")
@example("1/-2")
@example("+1")
@example("1.5")
@example("1_0")
@example(" 1")
@example("1 ")
@example("1\n")
@example("1/2\n")
@example("\u0663/\uff11\U0001d7d9")
@example("\u0663/1\uff11")
@example("")
def test_integer_reader_accepts_exactly_the_old_literals(text):
    """The old grammar ended in `$`, which let one trailing newline through, and
    read any decimal digit; the literal is the whole text now, in ASCII digits."""
    old, parts = read_both(text)
    if text.endswith("\n") or not text.isascii():
        old = None
    assert (old is None) == (parts is None), text
    if parts is not None:
        p, q = parts
        assert q > 0
        assert Fraction(p, q) == old == parse_rational(text)


@pytest.mark.parametrize(
    "text, parts",
    [("007", (7, 1)), ("-0", (0, 1)), ("0/7", (0, 7)), ("-4/6", (-4, 6)), ("10/15", (10, 15))],
)
def test_integer_reader_values(text, parts):
    assert rational_parts(text) == parts


def test_literal_integers_are_bounded_in_digits():
    """Each integer of a literal has at most MAX_LITERAL_DIGITS digits, sign not
    counted; one more digit, in the numerator or the denominator, is a ValueError."""
    most = "9" * MAX_LITERAL_DIGITS
    assert MAX_LITERAL_DIGITS == 10000
    assert rational_parts(most) == (10**MAX_LITERAL_DIGITS - 1, 1)
    assert rational_parts(f"-{most}/{most}") == (1 - 10**MAX_LITERAL_DIGITS, 10**MAX_LITERAL_DIGITS - 1)
    for text in ("9" + most, f"-9{most}", f"1/9{most}", f"9{most}/1"):
        with pytest.raises(ValueError, match="an integer of 10001 digits is above the bound of 10000 digits"):
            parse_rational(text)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="the interpreter has no int-from-text digit limit")
@pytest.mark.parametrize("digits", [640, 641, 4400])
def test_integer_reader_is_exact_under_the_least_digit_limit(digits):
    """Under the least int-from-text limit an interpreter accepts, 640 digits,
    integers of 640 digits (read by `int`), 641 and 4400 (read through
    Decimal) read as digit-by-digit arithmetic gives them, with either sign."""
    text = "".join(str((7 * i + 3) % 10) for i in range(digits - 1)) + "9"
    value = 0
    for ch in text:
        value = 10 * value + ord(ch) - ord("0")
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        assert read_integer(text) == value and read_integer("-" + text) == -value
        assert rational_parts(f"-{text}/{text}") == (-value, value)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("value", [1, 1.5, True, None, ["1"], {"1": "1"}])
def test_rational_readers_reject_non_strings(value):
    for reader in (rational_parts, parse_rational):
        with pytest.raises(ValueError, match="not a rational literal"):
            reader(value)


# --- inversion ----------------------------------------------------------


def test_invert_identity():
    assert invert(Matrix.identity(4)) == Matrix.identity(4)


def test_invert_swap_matrix_multiplies_back():
    m = Matrix([[0, 1], [1, 0]])
    inv = invert(m)
    assert m * inv == Matrix.identity(2)
    assert inv * m == Matrix.identity(2)
    assert inv == m


def test_invert_singular_raises():
    with pytest.raises(SingularMatrixError):
        invert(Matrix([[1, 1], [2, 2]]))


def test_invert_involutive_on_random_matrices():
    rng = random.Random(11)
    for _ in range(25):
        m = random_invertible(rng, rng.randint(2, 5))
        assert invert(invert(m)) == m
        assert m * invert(m) == Matrix.identity(m.n)


# --- determinant --------------------------------------------------------


def test_determinant_examples():
    assert determinant(Matrix.identity(3)) == 1
    assert determinant(Matrix([[0, 1], [-1, 0]])) == 1


def test_determinant_h4_omega_nonzero():
    # omega = a13 + a26 + a45 on six generators
    rows = [[0] * 6 for _ in range(6)]
    for i, j in ((1, 3), (2, 6), (4, 5)):
        rows[i - 1][j - 1] = 1
        rows[j - 1][i - 1] = -1
    m = Matrix(rows)
    expected = cofactor_det([list(r) for r in m.rows])
    assert determinant(m) == expected
    assert expected != 0
    assert expected == 1


def test_determinant_agrees_with_cofactor_oracle():
    rng = random.Random(5)
    for _ in range(20):
        m = random_matrix(rng, rng.randint(1, 4))
        assert determinant(m) == cofactor_det([list(r) for r in m.rows])


def test_determinant_multiplicative():
    rng = random.Random(17)
    for _ in range(15):
        n = rng.randint(2, 4)
        a, b = random_matrix(rng, n), random_matrix(rng, n)
        assert determinant(a * b) == determinant(a) * determinant(b)


# --- signature ----------------------------------------------------------


def test_signature_examples():
    assert signature_of_symmetric(Matrix.identity(2)) == Signature(2, 0, 0)
    # eigenvalues of [[0,1],[1,0]] are +1 and -1
    assert signature_of_symmetric(Matrix([[0, 1], [1, 0]])) == Signature(1, 1, 0)


def test_signature_hypersymplectic_metric():
    # two hyperbolic 2x2 blocks
    rows = [[0] * 4 for _ in range(4)]
    for i, j in ((1, 4), (2, 3)):
        rows[i - 1][j - 1] = -1
        rows[j - 1][i - 1] = -1
    assert signature_of_symmetric(Matrix(rows)) == Signature(2, 2, 0)


def test_signature_requires_symmetry():
    with pytest.raises(NotSymmetricError):
        signature_of_symmetric(Matrix([[0, 1], [0, 0]]))


def test_signature_congruence_invariant():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(2, 5)
        m = random_matrix(rng, n)
        sym = m + m.transpose()
        p = random_invertible(rng, n)
        assert signature_of_symmetric(sym) == signature_of_symmetric(p.transpose() * sym * p)


def test_signature_counts_and_negation():
    rng = random.Random(29)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n)
        sym = m + m.transpose()
        sig = signature_of_symmetric(sym)
        assert sig.positive + sig.negative + sig.null == n
        flipped = signature_of_symmetric(-sym)
        assert (flipped.positive, flipped.negative) == (sig.negative, sig.positive)


def test_signature_null_block_with_hyperbolic_repair():
    # zero diagonal everywhere: needs the e_i -> e_i + e_j congruence
    m = Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    assert signature_of_symmetric(m) == Signature(1, 1, 1)


# --- subspaces ----------------------------------------------------------


def test_subspace_membership_and_residual():
    s = Subspace(3, [[1, 0, 1], [0, 1, 0]])

    def residual(v):
        return from_integers(*s._reduce_integers(*to_integers([Fraction(x) for x in v])))

    assert s.dim == 2
    assert residual([2, 3, 2]) == (0, 0, 0)
    assert residual([1, 0, 0]) == (0, 0, -1)
    assert residual([1, 1, 1]) == (0, 0, 0)


def test_subspace_rejects_dependent_basis():
    with pytest.raises(ValueError):
        Subspace(3, [[1, 1, 0], [2, 2, 0]])


def test_subspace_equality_is_span_equality():
    a = Subspace(3, [[1, 1, 0], [0, 0, 1]])
    b = Subspace(3, [[2, 2, 2], [1, 1, -1]])
    assert a == b


def test_subspace_complementarity():
    """splitting is the complementarity test: it raises on dimensions that do
    not fill the space and on intersecting subspaces of complementary dimensions."""
    f = Subspace(4, [[1, 1, 0, 0], [0, 0, 1, -1]])
    g = Subspace(4, [[1, -1, 0, 0], [0, 0, 1, 1]])
    s = splitting(f, g)
    assert s.pi_plus * s.pi_plus == s.pi_plus and s.pi_plus * (Matrix.identity(4) - s.pi_plus) == Matrix.zero(4)
    line = Subspace(4, [[1, 0, 0, 0]])
    wide = Subspace(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])  # contains the line
    for plus, minus in ((f, line), (line, f), (f, wide), (f, f), (line, wide)):
        with pytest.raises(NotComplementaryError, match="^subspaces do not decompose the space$"):
            splitting(plus, minus)
