"""The integer kernel against plain-Fraction references, and elimination against sympy.

A Matrix is integer numerators over one denominator in canonical form; the
form is checked after every kernel operation, and equality, hashing and the
Fraction accessors are checked against plain Fraction rows.  Products, sums,
linear combinations, brackets and subspace reduction run on integers; each
is checked here against the textbook Fraction formula on inputs with zeros,
negatives and large or coprime denominators.  Determinant, inverse, rank and
reduced row echelon form run on fraction-free elimination; they are checked
against sympy where it is installed, and the lazily scaled elimination
against the eager one, row for row.  Sylvester inertia runs on symmetric
fraction-free elimination; it is checked against a congruence reduction on
Fractions and against the sign changes of the characteristic polynomial.
"""

import random
from fractions import Fraction
from math import gcd, isqrt
from operator import add, mul, sub

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bornlab import LieAlgebra, Matrix, determinant, exact, invert, liealg, signature_of_symmetric
from bornlab.errors import DimensionMismatchError, SingularMatrixError
from bornlab.exact import (
    HALF,
    Subspace,
    _gauss_jordan,
    column_slices,
    combinations,
    from_integers,
    left_products,
    linear_combination,
    right_products,
    rref,
    to_integers,
)
from oracles import column, congruence_signature, descartes_signature, diagonal, eager_bareiss

ZERO = Fraction(0)

# zero often, then small and huge numerators over small, coprime prime and huge denominators
DENOMINATORS = st.one_of(
    st.integers(1, 6),
    st.sampled_from([7, 11, 13, 97, 997, 65537, 2**31 - 1, 2**61 - 1, 10**18 + 9]),
    st.integers(1, 10**12),
)
NUMERATORS = st.one_of(st.integers(-5, 5), st.integers(-(10**15), 10**15))
SCALARS = st.one_of(st.just(ZERO), st.builds(Fraction, NUMERATORS, DENOMINATORS))


def rows_of(n):
    return st.lists(st.lists(SCALARS, min_size=n, max_size=n), min_size=n, max_size=n)


def vector_of(n):
    return st.lists(SCALARS, min_size=n, max_size=n)


DIMS = st.integers(1, 5)
SQUARES = DIMS.flatmap(rows_of)
PAIRS = DIMS.flatmap(lambda n: st.tuples(rows_of(n), rows_of(n)))


def ref_mul(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), ZERO) for j in range(n)] for i in range(n)]


def ref_combination(coeffs, mats):
    n = len(mats[0])
    return [[sum((c * m[i][j] for c, m in zip(coeffs, mats)), ZERO) for j in range(n)] for i in range(n)]


def assert_matrix(result, expected):
    assert result.rows == tuple(tuple(row) for row in expected)
    assert all(type(x) is Fraction for row in result.rows for x in row)


@settings(max_examples=100, deadline=None)
@given(PAIRS)
def test_matmul_matches_fraction_reference(pair):
    a, b = pair
    assert_matrix(Matrix(a) * Matrix(b), ref_mul(a, b))


@settings(max_examples=100, deadline=None)
@given(PAIRS)
def test_add_and_sub_match_fraction_reference(pair):
    a, b = pair
    assert_matrix(Matrix(a) + Matrix(b), [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)])
    assert_matrix(Matrix(a) - Matrix(b), [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)])


@settings(max_examples=100, deadline=None)
@given(SQUARES, SCALARS)
def test_scalar_multiple_matches_fraction_reference(a, c):
    expected = [[c * x for x in row] for row in a]
    assert_matrix(Matrix(a) * c, expected)
    assert_matrix(c * Matrix(a), expected)


@settings(max_examples=100, deadline=None)
@given(DIMS.flatmap(lambda n: st.tuples(rows_of(n), vector_of(n))))
def test_matvec_matches_fraction_reference(case):
    a, v = case
    result = Matrix(a).matvec(v)
    assert result == tuple(sum((x * y for x, y in zip(row, v)), ZERO) for row in a)
    assert all(type(x) is Fraction for x in result)


def test_matvec_accepts_integer_vectors():
    assert Matrix([[Fraction(1, 2), 3], [0, Fraction(-2, 7)]]).matvec((2, 1)) == (4, Fraction(-2, 7))


@settings(max_examples=100, deadline=None)
@given(DIMS.flatmap(lambda n: st.integers(1, 4).flatmap(
    lambda k: st.tuples(vector_of(k), st.lists(rows_of(n), min_size=k, max_size=k)))))
def test_linear_combination_matches_fraction_reference(case):
    coeffs, mats = case
    assert_matrix(linear_combination(coeffs, [Matrix(m) for m in mats]), ref_combination(coeffs, mats))


@settings(max_examples=100, deadline=None)
@given(DIMS.flatmap(lambda n: st.lists(rows_of(n), min_size=n, max_size=n)))
def test_column_slices_match_fraction_reference(mats):
    n = len(mats)
    slices = column_slices([Matrix(m) for m in mats])
    assert len(slices) == n
    for i, s in enumerate(slices):
        # column j of S_i is column i of M_j
        assert_matrix(s, [[mats[j][k][i] for j in range(n)] for k in range(n)])
        assert_canonical(s)


@settings(max_examples=100, deadline=None)
@given(DIMS.flatmap(lambda n: st.tuples(
    st.dictionaries(
        st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] < p[1]),
        st.dictionaries(st.integers(1, n), SCALARS, max_size=n),
        max_size=n * (n - 1) // 2,
    ),
    vector_of(n),
    vector_of(n),
)))
def test_bracket_matches_structure_constant_reference(case):
    brackets, x, y = case
    n = len(x)
    # the bracket is bilinear whether or not Jacobi holds
    L = LieAlgebra(n, brackets, check=False)
    expected = [ZERO] * n
    for i in range(n):
        for j in range(n):
            for k, c in enumerate(column(L.ad(i), j)):
                expected[k] += x[i] * y[j] * c
    result = L.bracket(x, y)
    assert result == tuple(expected)
    assert all(type(v) is Fraction for v in result)


# --- the canonical form and the Fraction boundary ------------------------------


def assert_canonical(m):
    """den > 0, no factor common to den and every numerator, zero over 1."""
    assert type(m.den) is int and m.den > 0
    assert type(m.num) is tuple and len(m.num) == m.n
    assert all(type(row) is tuple and len(row) == m.n for row in m.num)
    assert all(type(v) is int for row in m.num for v in row)
    assert gcd(m.den, *(v for row in m.num for v in row)) == 1
    if all(v == 0 for row in m.num for v in row):
        assert m.den == 1
    # the zero test recorded at construction is a scan of num
    assert m.is_zero() is all(v == 0 for row in m.num for v in row)


@settings(max_examples=100, deadline=None)
@given(PAIRS, SCALARS, st.lists(SCALARS, min_size=2, max_size=2))
def test_every_kernel_result_is_canonical(pair, c, coeffs):
    a, b = Matrix(pair[0]), Matrix(pair[1])
    results = [a, b, a * b, a + b, a - b, a - a, -a, a * c, c * a, a.transpose(), a * 0,
               linear_combination(coeffs, [a, b]), Matrix.identity(a.n), Matrix.zero(a.n)]
    if determinant(a) != 0:
        results.append(invert(a))
    for m in results:
        assert_canonical(m)


@settings(max_examples=100, deadline=None)
@given(PAIRS, SCALARS)
def test_equality_and_hash_follow_the_fraction_rows(pair, c):
    a, b = Matrix(pair[0]), Matrix(pair[1])
    # the same values reached along different routes, and different values
    candidates = [a, b, a + b - b, (a * b) * 1, a * Fraction(2) * Fraction(1, 2), b + a - a]
    if c:
        candidates.append(a * c * (1 / c))
    for x in candidates:
        for y in candidates:
            assert (x == y) == (x.rows == y.rows)
            if x == y:
                assert hash(x) == hash(y)


# --- zero operands --------------------------------------------------------------


def zero_rows(n):
    return [[ZERO] * n for _ in range(n)]


@settings(max_examples=100, deadline=None)
@given(SQUARES, SCALARS)
@example([[Fraction(1, 2), Fraction(-2, 3)], [ZERO, Fraction(5, 7)]], Fraction(3, 4))
@example([[Fraction(-1, 6)]], ZERO)
def test_zero_operands_match_fraction_reference(a, c):
    """An all-zero operand gives the Fraction result, in canonical form, whatever the other's den."""
    n = len(a)
    z = zero_rows(n)
    A, Z = Matrix(a), Matrix(z)
    coeffs = [c, 2, Fraction(1, 3)]
    cases = [
        (A * Z, ref_mul(a, z)),
        (Z * A, ref_mul(z, a)),
        (Z * Z, z),
        (A + Z, a),
        (Z + A, a),
        (A - Z, a),
        (Z - A, [[-x for x in row] for row in a]),
        (A - A, z),
        (A * 0, z),
        (0 * A, z),
        (A * ZERO, z),
        (Z * c, z),
        (linear_combination(coeffs, [A, Z, A]), ref_combination(coeffs, [a, z, a])),
        (linear_combination([Fraction(-1, 2), c], [Z, Z]), z),
        (linear_combination([ZERO, c], [A, Z]), z),
    ]
    for result, expected in cases:
        assert_matrix(result, expected)
        assert_canonical(result)


def test_canonical_form_keeps_zero_rows():
    m = Matrix.over([[0, 0, 0], [2, -4, 6], [0, 0, 0]], -6)
    assert (m.num, m.den) == (((0, 0, 0), (-1, 2, -3), (0, 0, 0)), 3)
    assert_canonical(m)


@pytest.mark.parametrize("op", [mul, add, sub], ids=["mul", "add", "sub"])
def test_zero_operand_of_another_dimension_is_a_mismatch(op):
    a = Matrix([[Fraction(1, 2), 3], [0, Fraction(-1, 5)]])
    for x, y in [(a, Matrix.zero(3)), (a, Matrix.zero(1)), (Matrix.zero(2), Matrix.zero(3))]:
        with pytest.raises(DimensionMismatchError):
            op(x, y)
        with pytest.raises(DimensionMismatchError):
            op(y, x)


# --- sparse operands at the sizes of direct sums ---------------------------------

SPARSE_DIMS = st.integers(6, 12)


@st.composite
def sparse_rows(draw, n):
    """n x n rows as direct sums in the standard basis give them: a few entries
    in a few rows and columns, so that some whole rows and columns are zero, or
    blocks on the diagonal, some of them zero."""
    rows = zero_rows(n)
    if draw(st.booleans()):
        live_cols = draw(st.lists(st.integers(0, n - 1), unique=True, min_size=1, max_size=n - 1))
        for i in draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n - 1)):
            for j in draw(st.lists(st.sampled_from(live_cols), unique=True, min_size=1, max_size=3)):
                rows[i][j] = draw(SCALARS)
        return rows
    start = 0
    while start < n:
        size = draw(st.integers(1, min(4, n - start)))
        if draw(st.booleans()):
            for i, row in enumerate(draw(rows_of(size)), start):
                rows[i][start:start + size] = row
        start += size
    return rows


SPARSE_PAIRS = SPARSE_DIMS.flatmap(lambda n: st.tuples(sparse_rows(n), sparse_rows(n)))


def assert_fresh(result, expected):
    """The Fraction rows expected, in canonical form, equal and hashed as a Matrix built afresh from them."""
    assert_matrix(result, expected)
    assert_canonical(result)
    fresh = Matrix(expected)
    assert result == fresh and hash(result) == hash(fresh)


@settings(max_examples=80, deadline=None)
@given(SPARSE_PAIRS, SCALARS)
def test_sparse_operands_match_fraction_reference(pair, c):
    a, b = pair
    A, B = Matrix(a), Matrix(b)
    cases = [
        (A * B, ref_mul(a, b)),
        (B * A, ref_mul(b, a)),
        (A + B, [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]),
        (A - B, [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)]),
        (-A, [[-x for x in row] for row in a]),
        (A * HALF, [[x * HALF for x in row] for row in a]),
        (c * B, [[c * x for x in row] for row in b]),
        (A.transpose(), [list(col) for col in zip(*a)]),
    ]
    for result, expected in cases:
        assert_fresh(result, expected)
    assert A.first_witness() == ref_first_witness(a)


@settings(max_examples=40, deadline=None)
@given(SPARSE_DIMS.flatmap(lambda n: st.tuples(st.lists(sparse_rows(n), min_size=n, max_size=n), vector_of(n))))
def test_sparse_combinations_and_slices_match_fraction_reference(case):
    mats, coeffs = case
    n = len(mats)
    matrices = [Matrix(m) for m in mats]
    assert_fresh(linear_combination(coeffs, matrices), ref_combination(coeffs, mats))
    for i, s in enumerate(column_slices(matrices)):
        assert_fresh(s, [[mats[j][k][i] for j in range(n)] for k in range(n)])


def ref_first_witness(rows):
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v != 0:
                return (i + 1, j + 1), v
    return None


@settings(max_examples=100, deadline=None)
@given(PAIRS)
def test_fraction_accessors_match_fraction_reference(pair):
    a, b = pair
    n = len(a)
    for m, expected in ((Matrix(a), a), (Matrix(a) * Matrix(b), ref_mul(a, b))):
        assert_matrix(m, expected)
        for i in range(n):
            for j in range(n):
                value = m.entry(i + 1, j + 1)
                assert value == expected[i][j] and type(value) is Fraction
        assert m.first_witness() == ref_first_witness(expected)
        hit = m.first_witness()
        assert hit is None or type(hit[1]) is Fraction


def ref_echelon(vectors):
    """Reduced row echelon rows and pivots by Fraction Gauss-Jordan."""
    rows = [list(v) for v in vectors]
    pivots, r = [], 0
    for col in range(len(rows[0]) if rows else 0):
        p = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return rows[:r], pivots


def ref_residual(vectors, v):
    w = list(v)
    for row, pc in zip(*ref_echelon(vectors)):
        if w[pc] != 0:
            f = w[pc]
            w = [x - f * y for x, y in zip(w, row)]
    return tuple(w)


@settings(max_examples=100, deadline=None)
@given(DIMS.flatmap(lambda n: st.integers(1, n).flatmap(lambda k: st.tuples(
    st.lists(vector_of(n), min_size=k, max_size=k), vector_of(n), vector_of(k)))))
def test_subspace_reduction_matches_fraction_reduction(case):
    """The integer reduction the subalgebra test runs equals reduction on Fractions."""
    vectors, v, coeffs = case
    n = len(v)
    assume(len(rref(vectors)[0]) == len(vectors))
    s = Subspace(n, vectors)
    basis, _ = ref_echelon(vectors)
    assert s.basis == tuple(tuple(row) for row in basis)

    def residual(w):
        return from_integers(*s._reduce_integers(*to_integers([Fraction(x) for x in w])))

    assert residual(v) == ref_residual(vectors, v)
    assert all(type(x) is Fraction for x in residual(v))
    # a combination of the spanning vectors lies in the span
    inside = [sum((c * u[j] for c, u in zip(coeffs, vectors)), ZERO) for j in range(n)]
    assert residual(inside) == (ZERO,) * n
    # equal spans are equal subspaces with equal hashes, whatever the spanning set
    again = Subspace(n, basis)
    assert again == s and hash(again) == hash(s)


@st.composite
def reduced_echelon_rows(draw):
    """k rows of width n in reduced row echelon form: pivots 1, zeros above and below them."""
    n = draw(st.integers(1, 6))
    pivots = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    rows = []
    for pc in pivots:
        row = [ZERO] * n
        row[pc] = Fraction(1)
        for j in range(pc + 1, n):
            if j not in pivots:
                row[j] = draw(SCALARS)
        rows.append(row)
    return n, rows


def eliminations(monkeypatch) -> list:
    """The rows of each fraction-free elimination run from now on."""
    runs, original = [], exact._gauss_jordan

    def counted(a, ncols):
        runs.append([list(row) for row in a])
        return original(a, ncols)

    monkeypatch.setattr(exact, "_gauss_jordan", counted)
    return runs


def assert_reference_echelon(s, vectors):
    """s's echelon rows are the Fraction reduction of vectors, each in lowest terms over its pivot entry."""
    basis, pivots = ref_echelon(vectors)
    assert [pc for pc, _, _ in s._echelon] == pivots
    for (pc, row, d), expected in zip(s._echelon, basis):
        assert type(row) is tuple and d > 0 and row[pc] == d and gcd(d, *row) == 1
        assert from_integers(row, d) == tuple(expected)


def test_catalog_subspaces_are_read_off_without_elimination(catalog_models, monkeypatch):
    """Every catalog subspace is given in reduced row echelon form: building it
    runs no elimination and keeps the rows of the Fraction reduction."""
    runs = eliminations(monkeypatch)
    built = 0
    for name, entry in catalog_models.items():
        for s in entry.model.subspaces.values():
            again = Subspace(s.n, s.given)
            assert_reference_echelon(again, s.given)
            assert again == s, name
            built += 1
    assert runs == [] and built == 20


EDITS = ["none", "scale", "swap", "add", "zero", "repeat"]


@settings(max_examples=150, deadline=None)
@given(reduced_echelon_rows(), st.sampled_from(EDITS), SCALARS)
def test_echelon_input_is_read_off_and_other_input_is_eliminated(case, edit, c):
    """Rows in reduced row echelon form, also with a row scaled or a zero row
    added (a zero row is dropped), are read off; rows out of order, combined
    or repeated are eliminated.  Either way the echelon rows are those of the
    Fraction reduction, and zero or repeated rows raise the dependence error."""
    n, rows = case
    if edit == "scale" and c:
        rows[0] = [c * x for x in rows[0]]
    elif edit == "swap" and len(rows) > 1:
        rows[0], rows[1] = rows[1], rows[0]
    elif edit == "add" and len(rows) > 1:
        rows[0] = [x + y for x, y in zip(rows[0], rows[1])]
    elif edit == "zero":
        rows.append([ZERO] * n)
    elif edit == "repeat":
        rows.append(list(rows[-1]))
    else:
        edit = "none"
    with pytest.MonkeyPatch.context() as mp:
        runs = eliminations(mp)
        if edit in ("zero", "repeat"):
            with pytest.raises(ValueError, match="^subspace basis vectors are linearly dependent$"):
                Subspace(n, rows)
        else:
            assert_reference_echelon(Subspace(n, rows), rows)
    assert (runs == []) == (edit in ("none", "scale", "zero"))


# --- packed batches against the per-matrix kernel ------------------------------


def filled(n, v, den=1):
    """The n x n matrix with every entry v / den."""
    return Matrix.over([[v] * n] * n, den)


def random_over(n, rng, density, bits, den):
    """An n x n matrix over den with about density of its entries nonzero, of up to bits bits, either sign."""
    num = [[rng.randint(-(2**bits), 2**bits) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
    return Matrix.over(num, den)


def dense_algebra(n, rng, peak=None):
    """Structure constants with every c^k_ij nonzero, so every ad_m is more than two thirds nonzero: random
    Fractions, or +-peak; Jacobi need not hold."""
    def constant():
        return rng.choice((-1, 1)) * (peak or Fraction(rng.randint(1, 99), rng.choice((1, 2, 15))))
    return LieAlgebra(n, {(i, j): {k: constant() for k in range(1, n + 1)}
                          for i in range(1, n + 1) for j in range(i + 1, n + 1)}, check=False)


def moved(L, p):
    """L in the basis f_a = P e_a: [f_a, f_b] = P^-1 [P e_a, P e_b]."""
    p_inv, cols = invert(p), [column(p, a) for a in range(L.n)]
    return LieAlgebra(L.n, {(a + 1, b + 1): dict(enumerate(p_inv.matvec(L.bracket(cols[a], cols[b])), 1))
                            for a in range(L.n) for b in range(a + 1, L.n)})


def test_packed_batches_and_jacobi_match_the_per_matrix_kernel(monkeypatch):
    """right_products, left_products and combinations equal x * b, a * x and
    linear_combination, and _jacobi_sums its unpacked sums, over n = 1..12,
    dense and sparse shared factors, negative entries, zero and mixed slices
    and den != 1.  A batch packs exactly when its shared factor is dense, some
    x is nonzero and its bound has at most 62 bits: at the bound (result
    entries near 2^62) it packs, one past it does not, and neither does one
    whose entries reach 2^63, one more than a slot holds.  The decode is exact
    at the slot limits."""
    rng = random.Random(48)
    packed, pack, calls, packings = exact._packed, liealg._pack, [], []
    monkeypatch.setattr(exact, "_packed", lambda *args: calls.append(1) or packed(*args))
    monkeypatch.setattr(liealg, "_pack", lambda *args: packings.append(1) or pack(*args))

    def check(shared, xs, packs):
        """Each batch of xs against shared equals the per-matrix kernel, returns an x itself where it does, and
        packs if packs."""
        n = shared.n
        for batch, expected in (
            (right_products(xs, shared), [x * shared for x in xs]),
            (left_products(shared, xs), [shared * x for x in xs]),
        ):
            assert batch == expected
            assert [g is x for g, x in zip(batch, xs)] == [e is x for e, x in zip(expected, xs)]
        assert combinations(shared, xs, range(n)) == [linear_combination(column(shared, j), xs) for j in range(n)]
        assert calls == [1] * 3 * packs, (n, packs)
        calls.clear()

    for n in range(1, 13):
        for density in (1.0, 0.5):
            shared = random_over(n, rng, density, 20, rng.choice((1, 6)))
            xs = [random_over(n, rng, rng.choice((0, 0.2, 1.0)), 20, rng.choice((1, 2, 35))) for _ in range(n)]
            check(shared, xs, exact._dense(shared) and not all(x.is_zero() for x in xs))
    # both bounds are 6 a b: 62 bits at b, 63 at b + 1
    a = 2**31 - 1
    b = (2**62 - 1) // (6 * a)
    for sign in (1, -1):
        check(filled(6, b), [filled(6, sign * a)] * 6, True)
        check(filled(6, b + 1), [filled(6, sign * a, 5)] * 6, False)
    check(filled(8, 2**30), [filled(8, 2**30), filled(8, 0)] * 4, False)  # entries 8 2^30 2^30 = 2^63
    check(filled(6, 3), [filled(6, 0)] * 6, False)  # every x zero: nothing to pack
    extremes = [[2**63 - 1, -(2**63)], [-1, 0]]
    assert packed([[1, 0], [0, 1]], extremes, False, 2, [1]) == [Matrix.over(extremes, 1)]

    # 3 n peak^2 at n = 6: 62 bits at peak, 63 at peak + 1; a valid algebra in a dense basis has zero sums
    peak, basis = isqrt((2**62 - 1) // 18), random.Random(0)
    lower = Matrix([[1 if i == j else basis.choice((-1, 1)) if i > j else 0 for j in range(6)] for i in range(6)])
    filiform = LieAlgebra(6, {(1, k): {k + 1: 1} for k in range(2, 6)})
    algebras = [dense_algebra(n, rng) for n in (6, 7, 8)] + [dense_algebra(6, rng, c) for c in (peak, peak + 1)]
    for L, packs in zip(algebras + [moved(filiform, lower * lower.transpose())], (1, 1, 1, 1, 0, 1)):
        packings.clear()
        sums = list(liealg._jacobi_sums(L))
        assert len(packings) == packs and any(any(s) for _, s in sums) == (L in algebras)
        with monkeypatch.context() as unpacked:
            unpacked.setattr(liealg, "_dense", lambda m: False)
            assert sums == list(liealg._jacobi_sums(L))


# --- elimination against sympy -----------------------------------------------


def random_rows(rng, rows, cols):
    """Rational rows with zeros, large and coprime denominators; some rows dependent."""
    out = []
    for _ in range(rows):
        if out and rng.random() < 0.2:
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 5))
            out.append([c * x for x in rng.choice(out)])
            continue
        out.append([
            Fraction(rng.randint(-(10**6), 10**6), rng.choice([1, 2, 3, 7, 97, 65537, 10**9 + 7]))
            if rng.random() < 0.7 else ZERO
            for _ in range(cols)
        ])
    return out


def test_elimination_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2024)
    for _ in range(120):
        n = rng.randint(1, 7)
        rows = random_rows(rng, n, n)
        s = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])
        m = Matrix(rows)
        det = s.det()
        assert determinant(m) == Fraction(int(det.p), int(det.q))
        if det == 0:
            with pytest.raises(SingularMatrixError):
                invert(m)
        else:
            inv = s.inv()
            assert invert(m).rows == tuple(
                tuple(Fraction(int(inv[i, j].p), int(inv[i, j].q)) for j in range(n)) for i in range(n)
            )
        assert len(rref(rows)[0]) == s.rank()


def test_rref_matches_sympy_on_rectangular_inputs():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7)
    for _ in range(120):
        height, width = rng.randint(1, 6), rng.randint(1, 7)
        rows = random_rows(rng, height, width)
        reduced, pivots = sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
        ).rref()
        expected = tuple(
            tuple(Fraction(int(reduced[i, j].p), int(reduced[i, j].q)) for j in range(width))
            for i in range(len(pivots))
        )
        ours, our_pivots = rref(rows)
        assert tuple(ours) == expected
        assert tuple(our_pivots) == tuple(pivots)


# --- lazy row scaling against the eager elimination ---------------------------

# 1x1, zero rows, zero columns, rank-deficient blocks and negative pivots, with
# the number of columns to eliminate
ADVERSARIAL_ELIMINATIONS = [
    ([[5]], 1),
    ([[-3]], 1),
    ([[0]], 1),
    ([[0, 0], [0, 0]], 2),
    ([[0, 0, 0], [0, 2, 1], [0, 0, 0]], 3),
    ([[0, 3, 1], [0, 6, 2], [0, -3, 4]], 3),
    ([[2, 4, 1, 7], [1, 2, 3, 5], [3, 6, 4, 12]], 3),
    ([[-2, 0, 0, 1], [0, -3, 0, 1], [0, 0, -5, 1], [0, 0, 0, -7]], 4),
    # pivots 2, 3, 5 that do not divide one another, over rows that miss them
    ([[2, 0, 0, 1, 0], [0, 3, 0, 1, 1], [0, 0, 5, 0, 1], [0, 0, 0, 4, 6]], 5),
    ([[-2, 0, 1, 1], [0, 3, 1, 0], [0, 0, 0, 0], [0, 0, 5, 7]], 2),
    ([[0, -4, 0, 3, 1, 0], [6, 0, -9, 0, 0, 1]], 3),
]


def random_elimination(rng):
    """Integer rows of a random shape and density 0-1, some repeated, and how many columns to eliminate."""
    height, width, density = rng.randint(1, 7), rng.randint(1, 9), rng.random()
    rows = []
    for _ in range(height):
        if rows and rng.random() < 0.15:
            rows.append([rng.choice((-2, -1, 2)) * v for v in rng.choice(rows)])
        else:
            rows.append([rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(width)])
    return rows, rng.randint(0, width)


def test_lazy_scaling_matches_eager_elimination():
    """`_gauss_jordan` returns the pivots, last pivot and sign of the elimination
    that updates every row at every step, and leaves every row equal."""
    rng = random.Random(28)
    cases = ADVERSARIAL_ELIMINATIONS + [random_elimination(rng) for _ in range(3000)]
    for rows, ncols in cases:
        lazy, eager = [list(r) for r in rows], [list(r) for r in rows]
        assert _gauss_jordan(lazy, ncols) == eager_bareiss(eager, ncols), (rows, ncols)
        assert lazy == eager, (rows, ncols)


# --- inertia against two oracles ---------------------------------------------


@st.composite
def symmetric_matrices(draw):
    """Symmetric n x n for n in 1..10: general, with an all-zero diagonal, or singular of low rank."""
    n = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(("general", "zero_diagonal", "low_rank")))
    rows = [[ZERO] * n for _ in range(n)]
    if kind == "low_rank":
        # sum of r < n terms d v v^T
        for _ in range(draw(st.integers(0, n - 1))):
            d = draw(SCALARS.filter(bool))
            v = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
            rows = [[x + d * v[i] * v[j] for j, x in enumerate(row)] for i, row in enumerate(rows)]
        return Matrix(rows)
    for i in range(n):
        for j in range(i if kind == "general" else i + 1, n):
            rows[i][j] = rows[j][i] = draw(SCALARS)
    return Matrix(rows)


@settings(max_examples=150, deadline=None)
@given(symmetric_matrices())
# a negative pivot before a positive one, and before a negative one
@example(diagonal([-1, 1]))
@example(diagonal([1, -1, -1]))
# the hyperbolic repair after a negative pivot
@example(Matrix([[-1, 0, 0], [0, 0, 3], [0, 3, 0]]))
@example(Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 0]]))
def test_signature_matches_congruence_and_descartes(m):
    pytest.importorskip("sympy")
    sig = signature_of_symmetric(m)
    assert sig == congruence_signature(m)
    assert sig == descartes_signature(m)
