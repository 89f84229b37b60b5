"""Exact rational scalars and dense linear algebra.

Every coefficient in this package is an exact rational, so identities are
certified with defect exactly zero, never merely below a tolerance.
Matrices are small (a model declares at most `model.MAX_DIM` = 32
dimensions) and stored dense.

A Matrix is integer numerators over one integer denominator, num / den,
kept in canonical form: den > 0, gcd(den, every numerator) = 1, and the
zero matrix over den = 1.  That makes equality and hashing structural, on
ints.  Products, sums, differences, scalar multiples, transposes and linear
combinations work on the numerators alone and bring each result to
canonical form with one gcd over its nonzero entries.  Their work follows
the nonzero rows, which `any`, `compress` and `filter` find at C speed.  A
matrix records at construction whether it is zero (only one over den = 1
can be, so only that one is scanned), and every zero test reads the
record.  A product with a zero factor is that factor (after the dimension
check), a sum or difference with a zero operand is the other or its
negative, and a zero matrix is its own transpose.  A zero row is skipped
and kept as the same tuple.  A sparse row of a product meets only its
nonzero entries and the nonzero entries of the rows of the right factor
that they select; a denser row takes dot products with the columns.  A
scalar with numerator 1 changes only den, unless it shares a factor with
the numerators.
Determinant, inverse and reduced row echelon form use fraction-free
Gauss-Jordan elimination on the numerators (Bareiss 1968, "Sylvester's
identity and multistep integer-preserving Gaussian elimination"), and the
signature its symmetric form; all their divisions are exact.  Rows are
scaled lazily: a step that finds a zero in a row's pivot column only
multiplies the row by a ratio of pivots, so the row is brought up to date
when a step needs it and at the end.  `invert` is memoized on its matrix
(`owned`), so every fact read off one inverse shares one elimination.  A
Subspace keeps its echelon basis as integer rows too, so the subalgebra
test (`liealg.is_subalgebra`) never leaves the integers.

A Splitting of the space into two complementary subspaces holds the frame
adapted to it, its inverse, the projection onto plus and the involution;
the structure that certified it keeps it (`AlmostKunneth.split`), and the
properties of a splitting are blocks of products in that frame.  The
splitting of an involution t eliminates only the columns of (Id +- t)/2,
at most once each, and reads the frame inverse off their rows at the
pivots of the echelon bases.

A Trilinear tensor is n matrix slices, entry (j, k) of slice i being
t(e_i, e_j, e_k); d omega, the Nijenhuis tensors, torsion and every defect
are kept this way.

The n slices of a tensor meet one shared matrix in batches that pack it once
into 64-bit slots (Kronecker substitution; Harvey 2009): the rows of b for
[x b], row k of every x side by side for [a x], each whole x for the column
combinations [sum_a m[a][j] x_a].  A packed v is (int.from_bytes(array('q',
v)) ^ S) - S, S holding 2^63 in every slot; a result row r is one dot product
of big ints, and a batch decodes at once, all ((r + S) ^ S).to_bytes(..) cast
to 'q' slots.  A batch packs its nonzero x against a factor with n >= 6 and
over two thirds nonzero if the bound n max|a| max|b| (max_j sum_a |m[a][j]|
max|x|) has at most 62 bits; else it calls the per-matrix kernel.

Fractions (fractions.Fraction, reduced, with ZERO for zero) appear only at
the boundary: vectors are tuples of Fractions, and `Matrix.rows`, `entry`,
`first_witness` and `matvec` return Fractions.  `rows` is built on each
access, so code that loops over entries reads `num` and `den`.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterable, Sequence
from decimal import Decimal
from fractions import Fraction
from functools import partial, wraps
from itertools import chain, compress, count
from math import gcd, lcm
from operator import add, mul, neg, sub

from .errors import (
    DimensionMismatchError,
    NotComplementaryError,
    NotSymmetricError,
    SingularMatrixError,
    format_rational,
    shown,
)

ZERO = Fraction(0)
HALF = Fraction(1, 2)

# the one literal grammar: "p/q" or "n" in ASCII digits, no whitespace,
# positive denominator
_RATIONAL_RE = re.compile(r"(-?\d+)(?:/([1-9]\d*))?", re.ASCII)

# the most digits an integer in a literal may have, so that input bounds the
# work of exact arithmetic on it
MAX_LITERAL_DIGITS = 10000


def read_integer(digits: str) -> int:
    """The ASCII integer text "-?[0-9]+" as an int, the same under any
    int-from-text limit of the interpreter (sys.get_int_max_str_digits), as
    `format_rational` prints the same: no limit may be set below 640 digits,
    so `int` reads up to 640 exactly, and longer text is read through
    Decimal, exact at any length.  More than MAX_LITERAL_DIGITS digits raise
    ValueError.
    """
    count = len(digits.removeprefix("-"))
    if count <= 640:
        return int(digits)
    if count > MAX_LITERAL_DIGITS:
        raise ValueError(f"an integer of {count} digits is above the bound of {MAX_LITERAL_DIGITS} digits")
    return int(Decimal(digits))


def rational_parts(text: str) -> tuple[int, int]:
    """The literal "p/q" or "n" as the integers (p, q), q > 0 and not reduced,
    each read by `read_integer`."""
    match = _RATIONAL_RE.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"not a rational literal: {shown(text)}")
    p, q = match.groups()
    return read_integer(p), 1 if q is None else read_integer(q)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "n" (no whitespace, positive denominator)."""
    return Fraction(*rational_parts(text))


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
# immutable value classes


class Value:
    """Base of the immutable value classes: a value is its fields and its key.

    A subclass names its fields in __slots__, in constructor order, and may
    give defaults in _defaults.  The one constructor takes the fields by
    position or by name, as a frozen dataclass does, sets each once and
    keeps the compared ones, all but those named in _uncompared, as one
    tuple: _key.  A subclass that validates or derives its fields ends its
    own __init__ in super().__init__.  Afterwards assignment and deletion
    raise AttributeError.  Two instances are equal when they are of the same
    class and their keys are equal; the hash of the key is computed on first
    use and kept, so a value used again as a cache key is not hashed again,
    and a value whose key holds a dict is unhashable.  repr lists every
    field.  _memo, also uncompared, holds the results that `owned` functions
    computed from the value, and lives and dies with it.
    """

    __slots__ = ("_key", "_hash", "_memo")
    _uncompared = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # positions of the compared fields; None when every field is compared
        compared = tuple(i for i, f in enumerate(cls.__slots__) if f not in cls._uncompared)
        cls._compared = None if len(compared) == len(cls.__slots__) else compared

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        compared = self._compared
        object.__setattr__(self, "_key", args if compared is None else tuple(args[i] for i in compared))

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The fields in slot order, from arguments by position or by name and from _defaults."""
        fields, name = cls.__slots__, cls.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for field, value in kwargs.items():
            if field not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {field!r}")
            if field in values:
                raise TypeError(f"{name}() got multiple values for argument {field!r}")
            values[field] = value
        missing = [f for f in fields if f not in values and f not in cls._defaults]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {', '.join(map(repr, missing))}")
        return tuple(values[f] if f in values else cls._defaults[f] for f in fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(self._key)
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


def owned(fn=None, *, owner: str = ""):
    """Memoize fn in the `_memo` of its owner, a Value passed by position (the parameter named owner, else the
    first), keyed by fn and the other arguments by value; an exception is not stored.  Every memo keeps one rule:
    neither result nor key references the owner, so what it keeps is acyclic and goes with it (test_lifetime)."""
    if fn is None:
        return partial(owned, owner=owner)
    at = fn.__code__.co_varnames.index(owner) if owner else 0

    @wraps(fn)
    def memoized(*args, **kwargs):
        value, key = args[at], (fn, args[:at], args[at + 1:], *kwargs.items())
        try:
            return value._memo[key]
        except AttributeError:
            object.__setattr__(value, "_memo", {})
        except KeyError:
            pass
        return value._memo.setdefault(key, fn(*args, **kwargs))

    return memoized


# ---------------------------------------------------------------------------
# vectors: immutable tuples of Fractions, 0-based internally


Vector = tuple[Fraction, ...]


def vector(entries: Iterable) -> tuple[Fraction, ...]:
    return tuple(rationalize(v) for v in entries)


# ---------------------------------------------------------------------------
# matrices


class Matrix(Value):
    """Immutable square matrix of rationals, stored as integers over one denominator.

    The matrix is num / den, with num a tuple of n rows of ints and den an
    int, kept in canonical form: den > 0, gcd(den, every entry of num) = 1,
    and the zero matrix over den = 1.  Equal matrices therefore have equal
    (num, den), which equality and hashing compare directly; the hash is
    computed once.  _zero, derived from (num, den), is `is_zero()`.

    Semantic indexing follows the geometry conventions: entry(i, j) is
    1-based, matching basis labels e_1..e_n.  `rows` is a 0-based tuple of
    row tuples of Fractions, built on each access.
    """

    __slots__ = ("n", "num", "den", "_zero")

    def __init__(self, rows: Sequence[Sequence]):
        data = tuple(tuple(rationalize(v) for v in row) for row in rows)
        n = len(data)
        if n == 0 or any(len(row) != n for row in data):
            raise DimensionMismatchError("matrix must be square with dimension >= 1")
        num, d = _over_lcm(data)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", d)
        object.__setattr__(self, "_zero", d == 1 and not any(map(any, num)))

    @classmethod
    def of_fractions(cls, rows: Sequence[Sequence[Fraction]]) -> "Matrix":
        """The matrix of n rows of n Fractions, unchecked."""
        return cls._of(*_over_lcm(rows))

    @classmethod
    def over(cls, num: Sequence[Sequence[int]], den: int) -> "Matrix":
        """The matrix num / den, for integer rows num and an int den != 0.

        One gcd over the nonzero entries brings it to canonical form; a
        tuple row that is zero or needs no division is kept as it is.
        """
        if den != 1:
            g = gcd(den, *filter(None, chain.from_iterable(num)))
            if den < 0:
                g = -g
            if g != 1:
                num = tuple(tuple([v // g for v in row]) if any(row) else tuple(row) for row in num)
                return cls._of(num, den // g)
        return cls._of(tuple(map(tuple, num)), den)

    @classmethod
    def _of(cls, num: tuple, den: int) -> "Matrix":
        """Wrap a kernel result, unchecked: num / den already in canonical form."""
        m = object.__new__(cls)
        object.__setattr__(m, "n", len(num))
        object.__setattr__(m, "num", num)
        object.__setattr__(m, "den", den)
        object.__setattr__(m, "_zero", den == 1 and not any(map(any, num)))
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1)

    @classmethod
    def zero(cls, n: int) -> "Matrix":
        return cls._of(((0,) * n,) * n, 1)

    def num_over(self, d: int):
        """The numerators of this matrix over d, a multiple of den."""
        return _scaled(self.num, d // self.den)

    @property
    def rows(self) -> tuple:
        """The entries as Fractions, 0-based row tuples."""
        return tuple(from_integers(row, self.den) for row in self.num)

    def entry(self, i: int, j: int) -> Fraction:
        """1-based access m(e_i, e_j)."""
        return _fraction(self.num[i - 1][j - 1], self.den)

    def matvec(self, v) -> tuple[Fraction, ...]:
        if len(v) != self.n:
            raise DimensionMismatchError("vector length does not match matrix dimension")
        xs, dv = to_integers(v)
        nonzero = [(j, x) for j, x in enumerate(xs) if x]
        sums = [sum(row[j] * x for j, x in nonzero) for row in self.num]
        return from_integers(sums, self.den * dv)

    def transpose(self) -> "Matrix":
        return self if self._zero else Matrix._of(tuple(zip(*self.num)), self.den)

    def is_zero(self) -> bool:
        return self._zero

    def is_symmetric(self) -> bool:
        return self.num == tuple(zip(*self.num))

    def is_antisymmetric(self) -> bool:
        return self.num == tuple(tuple(map(neg, col)) for col in zip(*self.num))

    def first_witness(self):
        """First nonzero ((i, j) 1-based, value) in row-major order; None if zero."""
        return None if self._zero else _first_witness(self.num, self.den)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_dim(other)
        return _combined(self, other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_dim(other)
        return _combined(self, other, -1)

    def __neg__(self) -> "Matrix":
        return Matrix._of(_scaled(self.num, -1), self.den)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            self._check_dim(other)
            n = self.n
            if self._zero:
                return self
            if other._zero:
                return other
            rhs, cols, zero, out = other.num, None, (0,) * n, []
            # a row more than a third nonzero is faster as dot products with
            # the columns of other; a sparser one meets only the nonzero
            # entries of the rows of other that its nonzero entries select
            for row in self.num:
                nonzero = n - row.count(0)
                if not nonzero:
                    out.append(zero)
                elif nonzero * 3 > n:
                    if cols is None:
                        cols = [col if any(col) else None for col in zip(*rhs)]
                    out.append([sum(map(mul, row, col)) if col is not None else 0 for col in cols])
                else:
                    acc = [0] * n
                    for k in compress(count(), row):
                        x, b = row[k], rhs[k]
                        for j in compress(count(), b):
                            acc[j] += x * b[j]
                    out.append(acc)
            return Matrix.over(out, self.den * other.den)
        c = rationalize(other)
        if not c or self._zero:
            return Matrix.zero(self.n)
        return Matrix.over(_scaled(self.num, c._numerator), self.den * c._denominator)

    def __rmul__(self, other):
        return self.__mul__(other)

    def _check_dim(self, other: "Matrix"):
        if self.n != other.n:
            raise DimensionMismatchError("matrix dimensions differ")

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.den == other.den and self.num == other.num

    __hash__ = Value.__hash__

    @property
    def _key(self):
        """(num, den), which the hash reads; no matrix keeps it, so `_of` stays four stores."""
        return self.num, self.den

    def __repr__(self):
        body = "; ".join(" ".join(format_rational(v) for v in row) for row in self.rows)
        return f"Matrix[{body}]"


def _first_witness(rows, den: int):
    """First nonzero ((i, j) 1-based, value / den) in rows of integers, row-major; None if all zero."""
    if not any(map(any, rows)):
        return None
    i, row = next((i, row) for i, row in enumerate(rows) if any(row))
    j = next(compress(count(), row))
    return (i + 1, j + 1), _fraction(row[j], den)


def _scaled(rows, f: int):
    """The integer rows times f; rows itself for f = 1, and a row of zeros is kept as it is."""
    if f == 1:
        return rows
    return tuple(tuple([v * f for v in row]) if any(row) else row for row in rows)


def _combined(a: Matrix, b: Matrix, sign: int) -> Matrix:
    """a + sign * b; where a row of b is zero, the row of the sum is a's."""
    if b._zero:
        return a
    if a._zero:
        return b if sign > 0 else -b
    ra, rb, d = a.num, b.num, a.den
    if d != b.den:
        d = lcm(d, b.den)
        ra, rb = _scaled(ra, d // a.den), _scaled(rb, d // b.den)
    op, num = add if sign > 0 else sub, list(ra)
    for i in compress(count(), map(any, rb)):
        num[i] = tuple(map(op, ra[i], rb[i]))
    return Matrix.over(num, d)


# Fractions at the boundary.  A vector may hold ints as well as Fractions, so
# to_integers reads the public numerator and denominator.


def _over_lcm(rows: Sequence[Sequence[Fraction]]) -> tuple[tuple, int]:
    """Rows of Fractions as (numerators, d) over the lcm d of their denominators.

    The lcm of reduced denominators leaves no common factor, so the pair is
    canonical without a gcd pass; over d = 1 the numerators are the entries.
    """
    d = lcm(*{x._denominator for row in rows for x in row})
    if d == 1:
        return tuple(tuple(x._numerator for x in row) for row in rows), 1
    return tuple(tuple(x._numerator * (d // x._denominator) for x in row) for row in rows), d


def _fraction(v: int, d: int) -> Fraction:
    """v / d as a reduced Fraction; zero is the ZERO constant."""
    if not v:
        return ZERO
    return Fraction(v) if d == 1 else Fraction(v, d)


def to_integers(values) -> tuple[list[int], int]:
    """(numerators, d): the rationals values as integers over d, the lcm of their denominators."""
    d = lcm(*{x.denominator for x in values})
    return [x.numerator * (d // x.denominator) for x in values], d


def from_integers(numerators, d: int) -> tuple[Fraction, ...]:
    """The integers numerators / d as reduced Fractions; zeros are the ZERO constant."""
    if d == 1:
        return tuple(Fraction(v) if v else ZERO for v in numerators)
    return tuple(Fraction(v, d) if v else ZERO for v in numerators)


def linear_combination(coeffs, matrices: Sequence[Matrix], den: int = 1) -> Matrix:
    """sum_a (coeffs[a] / den) * matrices[a]; terms with a zero coefficient or a zero matrix are skipped."""
    n = matrices[0].n
    terms = [(c, m) for c, m in zip(coeffs, matrices) if c and not m._zero]
    cs, dc = to_integers([c for c, _ in terms])
    dm = lcm(*{m.den for _, m in terms})
    acc = [(0,) * n] * n
    for c, (_, m) in zip(cs, terms):
        f, rows = c * (dm // m.den), m.num
        for i in compress(range(n), map(any, rows)):
            acc[i] = [a + f * v for a, v in zip(acc[i], rows[i])]
    return Matrix.over(acc, dc * dm * den)


def _pack(vectors, width: int) -> tuple[int, list[int]]:
    """(S, each vector of width ints in [-2^63, 2^63) as the int sum_s v_s 2^(64 s)); S holds 2^63 in every slot."""
    from array import array  # a process that never packs never loads the module
    bias = int.from_bytes((1 << 63).to_bytes(8, sys.byteorder) * width, sys.byteorder)
    return bias, [(int.from_bytes(array("q", v).tobytes(), sys.byteorder) ^ bias) - bias for v in vectors]


def _packed(rows, vectors, wide: bool, n: int, dens) -> list[Matrix]:
    """n x n matrices over dens: row i of matrix t is slots t n + i w (wide) or (t n + i) n of rows * vectors."""
    bias, packed = _pack(vectors, width := len(vectors[0]))
    sums = [((sum(map(mul, row, packed)) + bias) ^ bias).to_bytes(8 * width, sys.byteorder) for row in rows]
    flat, (a, b) = memoryview(b"".join(sums)).cast("q").tolist(), (n, width) if wide else (n * n, n)
    return [Matrix.over([flat[s:s + n] for s in range(t * a, t * a + n * b, b)], d) for t, d in enumerate(dens)]


def _dense(m: Matrix) -> bool:
    """Whether a batch packs against m: n >= 6 and more than two thirds of its entries nonzero."""
    return m.n >= 6 and 3 * sum([m.n - row.count(0) for row in m.num]) > 2 * m.n * m.n


def _packed_products(xs: Sequence[Matrix], m: Matrix, right: bool):
    """[x * m] if right, else [m * x], the nonzero xs packed (a zero x is itself) if m is `_dense`; else None."""
    n = m.n
    if not (_dense(m) and all(x.n == n for x in xs)):
        return None
    live = [x for x in xs if not x._zero]
    rows = [row for x in live for row in x.num]
    if not rows or (n * max(map(abs, chain(*m.num))) * max(map(abs, chain(*rows)))).bit_length() > 62:
        return None
    args = (rows, m.num, False) if right else (m.num, [list(chain(*rows[k::n])) for k in range(n)], True)
    out = iter(_packed(*args, n, [x.den * m.den for x in live]))
    return [x if x._zero else next(out) for x in xs]


def right_products(xs: Sequence[Matrix], b: Matrix) -> list[Matrix]:
    """[x * b for x in xs]; one packing of the rows of b serves them all (`_packed_products`)."""
    return _packed_products(xs, b, True) or [x * b for x in xs]


def left_products(a: Matrix, xs: Sequence[Matrix]) -> list[Matrix]:
    """[a * x for x in xs]; one wide packing of the xs serves them all (`_packed_products`)."""
    return _packed_products(xs, a, False) or [a * x for x in xs]


def combinations(m: Matrix, xs: Sequence[Matrix], cols: Iterable[int]) -> list[Matrix]:
    """[sum_a m[a][j] xs[a] for j in cols] from the integer columns of m, packed, or per column if m is not
    `_dense`, every x is zero or past the bound (`linear_combination`)."""
    columns, d = [[row[j] for row in m.num] for j in cols], lcm(*{x.den for x in xs})
    if _dense(m) and not all(x._zero for x in xs):
        whole = [list(chain(*x.num_over(d))) for x in xs]
        if (max((sum(map(abs, c)) for c in columns), default=0) * max(map(abs, chain(*whole)))).bit_length() <= 62:
            return _packed(columns, whole, False, m.n, [m.den * d] * len(columns))
    return [linear_combination(c, xs, m.den) for c in columns]


def column_slices(matrices: Sequence[Matrix]) -> list[Matrix]:
    """For n matrices M_0..M_{n-1} of size n, the n matrices S_i whose column j is column i of M_j."""
    d, n = lcm(*{m.den for m in matrices}), len(matrices)
    # rows k of all M_j, zipped: row k of every S_i; None where all are zero
    blocks = [list(zip(*rows)) if any(map(any, rows)) else None for rows in zip(*(m.num_over(d) for m in matrices))]
    zero = (0,) * n
    return [Matrix.over([zero if b is None else b[i] for b in blocks], d) for i in range(n)]


class Trilinear(Value):
    """A trilinear tensor t(e_i, e_j, e_k) on the fixed basis, kept as n matrices.

    Entry (j, k) of slices[i] is t(e_i, e_j, e_k).  A vector-valued tensor
    N(e_i, e_j) takes its output coordinate as k, so when column j of N_i is
    N(e_i, e_j), slice i is N_i^T.  d omega, the Nijenhuis tensors, torsion
    and every defect share this layout, so one row-major scan of the slices
    finds the first nonzero (i, j, k) in lexicographic order.  For a tensor
    antisymmetric in i and j (or alternating) that witness already has
    i < j (or i < j < k).
    """

    __slots__ = ("slices",)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.slices)

    def first_witness(self):
        """First nonzero ((i, j, k) 1-based, value) in lexicographic order; None if zero."""
        for i, m in enumerate(self.slices):
            hit = m.first_witness()
            if hit is not None:
                return (i + 1, *hit[0]), hit[1]
        return None


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

    Rows are scaled lazily.  A step changes a row whose pivot-column entry is
    0 only by p / prev, so after a run of such steps the row is its value
    when last brought up to date, at pivot s, times prev / s, a quotient that
    is exact as every intermediate entry is a minor.  So each row keeps its
    s and is brought up to date (v * prev // s) only when its entry in the
    pivot column is nonzero, and at the end.
    """
    pivots, prev, sign = [], 1, 1
    scale = [1] * len(a)
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            scale[rank], scale[pivot] = scale[pivot], scale[rank]
            sign = -sign
        for r, row in enumerate(a):
            s = scale[r]
            if row[col] and s != prev:
                a[r] = [v * prev // s for v in row]
        top = a[rank]
        p = top[col]
        for r, row in enumerate(a):
            if r != rank and row[col]:
                f = row[col]
                a[r] = [(p * v - f * w) // prev for v, w in zip(row, top)]
                scale[r] = p
        scale[rank] = p
        pivots.append(col)
        prev = p
        if len(pivots) == len(a):
            break
    a[:] = [row if s == prev else [v * prev // s for v in row] for row, s in zip(a, scale)]
    return pivots, prev, sign


def determinant(m: Matrix) -> Fraction:
    """Exact determinant by fraction-free elimination of the numerators."""
    pivots, last, sign = _gauss_jordan([list(row) for row in m.num], m.n)
    if len(pivots) < m.n:
        return ZERO
    return Fraction(sign * last, m.den ** m.n)


@owned
def invert(m: Matrix) -> Matrix:
    """Inverse by fraction-free Gauss-Jordan elimination; raises SingularMatrixError.

    With m = M / d for an integer matrix M, reducing [M | Id] leaves
    [D Id | D M^-1], so m^-1 = d (D M^-1) / D.  Memoized on m; an exception
    is not stored, so a singular matrix raises on every call.
    """
    n, d = m.n, m.den
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m.num)]
    pivots, last, _ = _gauss_jordan(a, n)
    if len(pivots) < n:
        raise SingularMatrixError("matrix is singular")
    return Matrix.over([[d * v for v in row[n:]] for row in a], last)


def _echelon(a: list, width: int) -> tuple[tuple[int, tuple, int], ...]:
    """Reduced row echelon form of integer rows (each row may be scaled freely).

    Returns the nonzero reduced rows as (pivot column, numerators,
    denominator) in lowest terms, with a positive denominator equal to the
    numerator at the pivot column.  Zero rows are dropped, as they add
    nothing to the span, and rows already reduced up to those scalings
    (pivot columns increasing, no other row nonzero at a pivot column) are
    read off without elimination.
    """
    a = [row for row in a if any(row)]
    pivots = [next(compress(range(width), row)) for row in a]
    if pivots != sorted(set(pivots)) or any(a[q][pc] for r, pc in enumerate(pivots) for q in range(r)):
        pivots = _gauss_jordan(a, width)[0]
    out = []
    for pc, row in zip(pivots, a):
        g = gcd(*row) if row[pc] > 0 else -gcd(*row)
        out.append((pc, tuple(row) if g == 1 else tuple(v // g for v in row), row[pc] // g))
    return tuple(out)


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
    reduced = _echelon([to_integers(r)[0] for r in rows], width)
    return [from_integers(row, d) for _, row, d in reduced], [pc for pc, _, _ in reduced]


def kernel_basis(m: Matrix) -> list[tuple[Fraction, ...]]:
    """Canonical basis of the kernel of m (RREF-normalized span).

    With the numerators reduced to a / D, the kernel vector of a free column
    fc, scaled by D, has D at fc and -a[r][fc] at the pivot column of row r.
    """
    n = m.n
    a = [list(row) for row in m.num]
    pivots, last, _ = _gauss_jordan(a, n)
    basis = []
    for fc in range(n):
        if fc not in pivots:
            v = [0] * n
            v[fc] = last
            for row, pc in zip(a, pivots):
                v[pc] = -row[fc]
            basis.append(v)
    if not basis:
        return []
    return [from_integers(row, d) for _, row, d in _echelon(basis, n)]


class Signature(Value):
    """Sylvester inertia (positive, negative, null) of a symmetric form."""

    __slots__ = ("positive", "negative", "null")

    def __str__(self):
        return f"({self.positive},{self.negative},{self.null})"


def signature_of_symmetric(m: Matrix) -> Signature:
    """Sylvester inertia by fraction-free symmetric elimination (Bareiss 1968).

    Pivots are taken at the lowest available diagonal index of the trailing
    block, which is swapped to its front.  When every remaining diagonal
    entry is zero but some off-diagonal entry a_ij is not, the congruence
    e_i -> e_i + e_j turns 2*a_ij into a usable diagonal pivot (hyperbolic
    repair).  The integer block is prev times the Schur complement of the
    eliminated pivots, prev the last pivot: the step with pivot p takes
    a_rc to (p * a_rc - a_rk * a_kc) / prev, which divides exactly, and the
    pivot of the congruence diagonal is p / prev.
    """
    if not m.is_symmetric():
        raise NotSymmetricError("signature requires a symmetric matrix")
    a = [list(row) for row in m.num]
    pos = neg = 0
    prev = 1
    while a:
        pivot = next((r for r, row in enumerate(a) if row[r]), None)
        if pivot is None:
            pair = next(((i, j) for i, row in enumerate(a) for j in range(i + 1, len(a)) if row[j]), None)
            if pair is None:
                break  # remaining block is identically zero
            i, j = pair
            a[i] = list(map(add, a[i], a[j]))
            for row in a:
                row[i] += row[j]
            pivot = i
        a[0], a[pivot] = a[pivot], a[0]
        for row in a:
            row[0], row[pivot] = row[pivot], row[0]
        top = a[0]
        p = top[0]
        if (p > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        a = [[(p * v - row[0] * w) // prev for v, w in zip(row[1:], top[1:])] for row in a[1:]]
        prev = p
    return Signature(pos, neg, m.n - pos - neg)


# ---------------------------------------------------------------------------
# subspaces


class Subspace(Value):
    """Span of rational vectors inside a fixed R^n.

    The constructor keeps the spanning vectors as given (for serialization)
    and canonicalizes the span to reduced row echelon form with deterministic
    pivoting, so equality and reduction are reproducible.  The echelon
    rows are kept as integers, (pivot column, numerators, denominator) with
    the numerator at the pivot equal to the denominator; `basis` builds the
    same rows as Fractions on each access.
    """

    __slots__ = ("n", "given", "_echelon")
    _uncompared = ("given",)

    def __init__(self, n: int, vectors_: Sequence[Sequence]):
        given = tuple(vector(v) for v in vectors_)
        if any(len(v) != n for v in given):
            raise DimensionMismatchError("subspace vector of wrong length")
        rows = _echelon(list(_over_lcm(given)[0]), n)
        if len(rows) != len(given):
            raise ValueError("subspace basis vectors are linearly dependent")
        super().__init__(n, given, rows)

    @property
    def basis(self) -> tuple:
        """The echelon rows as Fractions."""
        return tuple(from_integers(row, d) for _, row, d in self._echelon)

    @property
    def dim(self) -> int:
        return len(self._echelon)

    def _reduce_integers(self, ws: list, dw: int) -> tuple[list[int], int]:
        """The vector ws / dw (n integers, dw > 0) reduced against the echelon rows."""
        # w - (w[pc] / dw) (row / d), scaled by dw * d; row[pc] = d clears pc
        for pc, row, d in self._echelon:
            f = ws[pc]
            if f:
                if d == 1:
                    ws = [x - f * y for x, y in zip(ws, row)]
                else:
                    ws = [x * d - f * y for x, y in zip(ws, row)]
                    dw *= d
        return ws, dw

    def __repr__(self):
        vecs = ", ".join("(" + ", ".join(map(format_rational, v)) + ")" for v in self.basis)
        return f"Subspace[{vecs}]"


class Splitting(Value):
    """A splitting V = plus + minus and the frame adapted to it.

    The frame P has the echelon bases of plus and then of minus as its
    columns.  pi_plus = P diag(Id, 0) P^-1 is the projection onto plus along
    minus, and involution = 2 pi_plus - Id = P diag(Id, -Id) P^-1.

    Every property of the splitting is a block of one product in the frame:
    a bilinear form M reads P^T M P, whose entry (a, c) is M on frame vectors
    a and c, and an endomorphism T reads P^-1 T P, whose column c holds the
    frame coordinates of T applied to frame vector c.  `block_witness` finds
    the first nonzero entry of the (+, +), (+, -), (-, +) or (-, -) block of
    either, and `map_witness` that of a vector-valued bilinear map on pairs
    of frame vectors.
    """

    __slots__ = ("plus", "minus", "frame", "frame_inv", "pi_plus", "involution")

    def pairing(self, m: Matrix) -> Matrix:
        """P^T M P: the bilinear form with matrix m on pairs of frame vectors."""
        return self.frame.transpose() * m * self.frame

    def in_frame(self, t: Matrix) -> Matrix:
        """P^-1 T P: the endomorphism with matrix t in frame coordinates."""
        return self.frame_inv * t * self.frame

    def _sides(self, rows: str, cols: str):
        p = self.plus.dim
        return (slice(None, p) if side == "+" else slice(p, None) for side in (rows, cols))

    def block(self, m: Matrix, rows: str, cols: str) -> Matrix:
        """The block of m with rows and columns on the "+" or "-" side; the two sides have one dimension."""
        r, c = self._sides(rows, cols)
        return Matrix.over([row[c] for row in m.num[r]], m.den)

    def block_witness(self, m: Matrix, rows: str, cols: str):
        """First nonzero ((a, c) 1-based within the block, value) of a block of m, row-major; None if zero."""
        r, c = self._sides(rows, cols)
        return _first_witness([row[c] for row in m.num[r]], m.den)

    def map_witness(self, matrices: Sequence[Matrix], rows: str, cols: str):
        """First ((a, c, k), value) in lexicographic order with M(x_a, x_c) nonzero at coordinate k.

        M(e_i, e_j) is column j of matrices[i], so column c of (sum_i P_ia M_i) P
        is M(x_a, x_c); a and c are 1-based within the rows and cols sides.
        """
        r, c = self._sides(rows, cols)
        sums = combinations(self.frame, matrices, range(self.frame.n)[r])
        for a, values in enumerate(right_products(sums, self.frame), 1):
            hit = _first_witness(tuple(zip(*values.num))[c], values.den)
            if hit is not None:
                return (a, *hit[0]), hit[1]
        return None


def _frame(plus: Subspace, minus: Subspace) -> Matrix:
    """The matrix whose columns are the echelon rows of plus and then of minus."""
    rows = plus._echelon + minus._echelon
    d = lcm(*(e for _, _, e in rows))
    return Matrix.over(list(zip(*([v * (d // e) for v in row] for _, row, e in rows))), d)


def splitting(plus: Subspace, minus: Subspace) -> Splitting:
    """The splitting into two complementary subspaces, with its adapted frame.

    The frame inverse is the complementarity proof: NotComplementaryError when
    the dimensions do not sum to n or the frame is singular.  pi_plus is the
    frame with its minus columns zeroed times P^-1.
    """
    message = "subspaces do not decompose the space"
    if plus.n != minus.n or plus.dim + minus.dim != plus.n:
        raise NotComplementaryError(message)
    frame = _frame(plus, minus)
    try:
        frame_inv = invert(frame)
    except SingularMatrixError:
        raise NotComplementaryError(message) from None
    pi_plus = Matrix.over([row[: plus.dim] + (0,) * minus.dim for row in frame.num], frame.den) * frame_inv
    return Splitting(plus, minus, frame, frame_inv, pi_plus, pi_plus + pi_plus - Matrix.identity(plus.n))


def eigensplitting(t: Matrix) -> Splitting:
    """The splitting into the +1 and -1 eigenspaces of t, for t^2 = Id and t != +-Id, unchecked.

    At most two eliminations and no frame inverse, as
    `multilinear.involution_split` proves.
    """
    n, d = t.n, t.den
    # 2d pi_+ = d Id + num and 2d pi_- = d Id - num; the columns of each span its eigenspace
    twice = [[[sign * v + d * (i == j) for j, v in enumerate(row)] for i, row in enumerate(t.num)] for sign in (1, -1)]
    plus, minus = spaces = [object.__new__(Subspace) for _ in twice]
    for space, m in zip(spaces, twice):
        rows = _echelon([list(col) for col in zip(*m)], n)
        Value.__init__(space, n, tuple(from_integers(row, e) for _, row, e in rows), rows)
    inv = [twice[0][pc] for pc, _, _ in plus._echelon] + [twice[1][pc] for pc, _, _ in minus._echelon]
    return Splitting(plus, minus, _frame(plus, minus), Matrix.over(inv, 2 * d), Matrix.over(twice[0], 2 * d), t)


def projection_onto(plus: Subspace, minus: Subspace) -> tuple[Matrix, Matrix]:
    """Projections (pi_plus, Id - pi_plus) for a direct sum decomposition."""
    pi_plus = splitting(plus, minus).pi_plus
    return pi_plus, Matrix.identity(plus.n) - pi_plus
