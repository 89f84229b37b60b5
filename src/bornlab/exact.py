"""Exact rational scalars and dense linear algebra.

Every coefficient in this package is an exact rational, so identities are
certified with defect exactly zero, never merely below a tolerance.
Matrices are small (a model declares at most `model.MAX_DIM` = 32
dimensions) and stored dense.

A Matrix is integer numerators over one integer denominator, num / den,
kept in canonical form: den > 0, gcd(den, every numerator) = 1, and the
zero matrix over den = 1, so equality and hashing are structural, on ints.
A Trilinear tensor t is one block of the same kind: its n x n slices
stacked, row j of slice i at row i n + j, over one denominator; entry
(j, k) of slice i is t(e_i, e_j, e_k).  d omega, the Nijenhuis tensors,
torsion, every defect, the Gamma of a connection and the ad_i of an
algebra are kept this way.  A matrix is the one-slice case: sums,
differences, negation, scalar multiples, slice transposes, the
first-witness scan and products by a Matrix are one kernel call per
block, not one per slice, on the numerators alone, and each result takes
one gcd over its nonzero rows.  A block keeps one byte per row, 1 where
the row is nonzero, so a zero row or a zero slice costs one C-level test
of its bytes and nothing else, and whether the block is zero (only one
over den = 1 can be).  A scalar with numerator 1 changes only den, unless
it shares a factor with the numerators.
Determinant, inverse and reduced row echelon form use fraction-free
Gauss-Jordan elimination on the numerators (Bareiss 1968, "Sylvester's
identity and multistep integer-preserving Gaussian elimination"), and the
signature its symmetric form; all their divisions are exact.  Rows are
scaled lazily: a step that finds a zero in a row's pivot column only
multiplies the row by a ratio of pivots, so the row is brought up to date
when a step needs it and at the end.  `invert` is memoized on its matrix
(`owned`), so every fact read off one inverse shares one elimination.  A
Subspace keeps only its echelon basis, as integer rows, so the subalgebra
test (`liealg.is_subalgebra`) never leaves the integers.

A Splitting of the space into two complementary subspaces holds the frame
adapted to it, its inverse, the projection onto plus and the involution;
the structure that certified it keeps it (`AlmostKunneth.split`), and the
properties of a splitting are blocks of products in that frame.  The
splitting of an involution t eliminates only the columns of (Id +- t)/2,
at most once each, and reads the frame inverse off their rows at the
pivots of the echelon bases.

Each product with one shared Matrix, [t_i b], [a t_i] or the combinations
[sum_a m[a][j] t_a] for some or all columns j of m, is integer rows
against the integer rows of one factor: the tall block against b, the rows
of a against the wide rows that lay row k of every nonzero slice side by
side, the columns of m against the flattened nonzero slices.  The factor
is packed once into 64-bit slots (Kronecker substitution; Harvey 2009): a
packed v is (int.from_bytes(array('q', v)) ^ S) - S, S holding 2^63 in
every slot, each nonzero row r of the result is one dot product of big
ints, and all decode at once, ((r + S) ^ S).to_bytes(..) cast to 'q'
slots.  It packs when the shared Matrix (b, a or m) has n >= 6 and is over
two thirds nonzero and the bound n max|a| max|b| (max_j sum_a |m[a][j]|
max|t|) has at most 62 bits.  Else a row more than a third nonzero takes
dot products with the columns of the factor, and a sparser one meets only
the nonzero entries of the factor rows it selects.

Fractions (fractions.Fraction, reduced, with ZERO for zero) appear only at
the boundary: vectors are tuples of Fractions, and `Matrix.rows`, `entry`,
`first_witness` and `matvec` return Fractions.  `rows` is built on each
access, as are the Matrix views `Trilinear.slices` and `Connection.gammas`,
so code that loops over entries reads `num` and `den`.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterable, Sequence
from decimal import Decimal
from fractions import Fraction
from functools import partial, wraps
from itertools import chain, compress, count, repeat
from math import gcd, lcm
from operator import add, floordiv, mul, neg, sub

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
# blocks of integer rows: matrices and trilinear tensors


class _Block(Value):
    """Integer rows num of width n over one integer denominator den, in canonical form; equal values have equal
    (num, den), which equality and the hash (computed once) read.  _live, derived from num, holds one byte per row,
    1 where the row is nonzero, and _zero, derived from (den, _live), is `is_zero()`."""

    __slots__ = ("n", "num", "den", "_zero", "_live")

    @classmethod
    def over(cls, num: Sequence[Sequence[int]], den: int, live: bytes = None):
        """The block num / den, for integer rows num and an int den != 0, and live its row bytes if known.

        One gcd over the nonzero rows brings it to canonical form; a tuple
        row that is zero or needs no division is kept as it is.
        """
        num = tuple(map(tuple, num))
        if den != 1:
            if live is None:
                live = bytes(map(any, num))
            g = gcd(den, *chain.from_iterable(compress(num, live)))
            if den < 0:
                g = -g
            if g != 1:
                num = _scaled(num, g, live, floordiv)
                den //= g
        return cls._of(num, den, live)

    @classmethod
    def _of(cls, num: tuple, den: int, live: bytes = None):
        """Wrap a kernel result, unchecked: num / den already in canonical form, and live its row bytes if known."""
        return _fill(object.__new__(cls), num, den, live)

    def _zeros(self):
        """The zero block of this shape."""
        return self._of(((0,) * self.n,) * len(self.num), 1, bytes(len(self.num)))

    def is_zero(self) -> bool:
        return self._zero

    def transpose(self):
        """Each n x n slice transposed (a Matrix is one slice); a zero slice is kept as it is."""
        if self._zero:
            return self
        n, num, live = self.n, self.num, self._live
        blocks = (zip(*num[s:s + n]) if 1 in live[s:s + n] else num[s:s + n] for s in range(0, len(num), n))
        return self._of(tuple(chain.from_iterable(blocks)), self.den)

    def first_witness(self):
        """First nonzero ((row, column) 1-based, value) in row-major order; None if zero."""
        if self._zero:
            return None
        i = self._live.find(1)
        j = next(compress(count(), self.num[i]))
        return (i + 1, j + 1), _fraction(self.num[i][j], self.den)

    def __add__(self, other):
        self._check_shape(other)
        return _combined(self, other, add)

    def __sub__(self, other):
        self._check_shape(other)
        return _combined(self, other, sub)

    def __neg__(self):
        return self._of(_scaled(self.num, -1, self._live), self.den, self._live)

    def __mul__(self, other):
        """Each slice times the Matrix other, row by row against its rows (for a Matrix, the product), or a scalar
        multiple; packed if other is `_dense`."""
        if isinstance(other, Matrix):
            if self.n != other.n:
                raise DimensionMismatchError("matrix dimensions differ")
            if self._zero or other._zero:
                return self if self._zero else self._zeros()
            out, live = _product(self.num, self._live, other.num, _bound(other, self))
            return self.over(out, self.den * other.den, live)
        if isinstance(other, _Block):
            return NotImplemented
        return self._times(other)

    def __rmul__(self, other):
        """The Matrix other times each slice, or a scalar multiple.  Row k of every nonzero slice side by side is
        one wide row, so row j of the product's nonzero slices is row j of other against the wide rows; packed if
        other is `_dense`.  A zero slice stays zero."""
        if not isinstance(other, Matrix):
            return self._times(other)
        n, num, live = self.n, self.num, self._live
        if other.n != n:
            raise DimensionMismatchError("matrix dimensions differ")
        if self._zero or other._zero:
            return self if self._zero else self._zeros()
        starts = [s for s in range(0, len(num), n) if 1 in live[s:s + n]]
        rows = tuple(chain.from_iterable(num[s:s + n] for s in starts))
        wide = [tuple(chain.from_iterable(rows[k::n])) for k in range(n)]
        wide = _product(other.num, other._live, wide, _bound(other, self))[0]
        out = list(num)
        for t, s in enumerate(starts):
            out[s:s + n] = [row[t * n:t * n + n] for row in wide]
        return self.over(out, self.den * other.den)

    def _times(self, c) -> "_Block":
        """The scalar multiple c * self."""
        c = rationalize(c)
        if self._zero or not c:
            return self if self._zero else self._zeros()
        return self.over(_scaled(self.num, c._numerator, self._live), self.den * c._denominator, self._live)

    def _check_shape(self, other):
        if self.n != other.n or len(self.num) != len(other.num):
            raise DimensionMismatchError("matrix dimensions differ")

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self.den == other.den and self.num == other.num

    __hash__ = Value.__hash__

    @property
    def _key(self):
        """(num, den), which the hash reads; no block keeps it, so `_of` stays a few stores."""
        return self.num, self.den


def _fill(block: _Block, num: tuple, den: int, live: bytes = None) -> _Block:
    """Set the fields of block to the canonical num / den, live the row bytes of num (found if None)."""
    if live is None:
        live = bytes(map(any, num))
    store = object.__setattr__
    store(block, "n", len(num[0]))
    store(block, "num", num)
    store(block, "den", den)
    store(block, "_live", live)
    store(block, "_zero", den == 1 and 1 not in live)
    return block


class Matrix(_Block):
    """Immutable square matrix of rationals: num, n rows of n ints, over den.

    Semantic indexing follows the geometry conventions: entry(i, j) is
    1-based, matching basis labels e_1..e_n.  `rows` is a 0-based tuple of
    row tuples of Fractions, built on each access.
    """

    __slots__ = ()

    def __init__(self, rows: Sequence[Sequence]):
        data = tuple(tuple(rationalize(v) for v in row) for row in rows)
        n = len(data)
        if n == 0 or any(len(row) != n for row in data):
            raise DimensionMismatchError("matrix must be square with dimension >= 1")
        _fill(self, *_over_lcm(data))

    @classmethod
    def of_fractions(cls, rows: Sequence[Sequence[Fraction]]) -> "Matrix":
        """The matrix of n rows of n Fractions, unchecked."""
        return cls._of(*_over_lcm(rows))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1)

    @classmethod
    def zero(cls, n: int) -> "Matrix":
        return cls._of(((0,) * n,) * n, 1, bytes(n))

    def num_over(self, d: int):
        """The numerators of this matrix over d, a multiple of den."""
        return _scaled(self.num, d // self.den, self._live)

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

    def is_symmetric(self) -> bool:
        return self.num == tuple(zip(*self.num))

    def is_antisymmetric(self) -> bool:
        return self.num == tuple(tuple(map(neg, col)) for col in zip(*self.num))

    def __repr__(self):
        body = "; ".join(" ".join(format_rational(v) for v in row) for row in self.rows)
        return f"Matrix[{body}]"


class Trilinear(_Block):
    """A trilinear tensor t(e_i, e_j, e_k) on the fixed basis: slice i, with entry (j, k) t(e_i, e_j, e_k), is rows
    i n .. i n + n - 1 of one block, so one row-major scan finds the first nonzero (i, j, k) in lexicographic
    order.  A vector-valued tensor N(e_i, e_j) takes its output coordinate as k: when column j of N_i is
    N(e_i, e_j), slice i is N_i^T.  For a tensor antisymmetric in i and j (or alternating) the witness already has
    i < j (or i < j < k).  A combination of slices may have fewer than n of them.
    """

    __slots__ = ()

    def __init__(self, slices: Sequence[Matrix]):
        """The tensor of these n x n Matrices: over the lcm of their denominators, which is canonical."""
        d = lcm(*{m.den for m in slices})
        num = tuple(chain.from_iterable(_scaled(m.num, d // m.den, m._live) for m in slices))
        _fill(self, num, d, b"".join(m._live for m in slices))

    @property
    def slices(self) -> tuple:
        """The slices as canonical Matrices, built on each access."""
        n, num, live = self.n, self.num, self._live
        return tuple(Matrix.over(num[s:s + n], self.den, live[s:s + n]) for s in range(0, len(num), n))

    def swap_outer(self) -> "Trilinear":
        """s(i, j, k) = t(k, j, i), for n slices: column j of slice i is column i of slice j; rows j of all
        slices, zipped, are rows j of all slices of s."""
        if self._zero:
            return self
        n, num, live = self.n, self.num, self._live
        zero = ((0,) * n,) * n
        blocks = [tuple(zip(*num[j::n])) if 1 in live[j::n] else zero for j in range(n)]
        return self._of(tuple(chain.from_iterable(zip(*blocks))), self.den)

    def combine(self, m: Matrix, cols: Iterable[int] = None) -> "Trilinear":
        """The tensor whose slices are sum_a m[a][j] t_a, for j in cols (every column of m by default): each column
        of m is one row of coefficients against the nonzero slices, each flattened into one row."""
        n, num, live = self.n, self.num, self._live
        if m.n != len(num) // n:
            raise DimensionMismatchError("matrix dimension does not match the number of slices")
        columns = list(zip(*m.num))
        if cols is not None:
            columns = [columns[j] for j in cols]
        if self._zero:
            return self._of(((0,) * n,) * (n * len(columns)), 1, bytes(n * len(columns)))
        starts = [s for s in range(0, len(num), n) if 1 in live[s:s + n]]
        flat = [tuple(chain.from_iterable(num[s:s + n])) for s in starts]
        picked = [s // n for s in starts]
        coefficients = [tuple(map(c.__getitem__, picked)) for c in columns]
        bound = max(sum(map(abs, c)) for c in columns) * _peak(self) if _dense(m) else 0
        out, flags = _product(coefficients, bytes(map(any, coefficients)), flat, bound)
        rows = list(chain.from_iterable(((0,) * n,) * n if not x else (row[s:s + n] for s in range(0, n * n, n))
                                        for row, x in zip(out, flags)))
        return self.over(rows, m.den * self.den)

    def first_witness(self):
        """First nonzero ((i, j, k) 1-based, value) in lexicographic order; None if zero."""
        hit = super().first_witness()
        if hit is None:
            return None
        i, j = divmod(hit[0][0] - 1, self.n)
        return (i + 1, j + 1, hit[0][1]), hit[1]

    def __repr__(self):
        return f"Trilinear({self.slices!r})"


def _scaled(rows, f: int, live: bytes, op=mul) -> tuple:
    """The integer rows, each entry v of a nonzero row (a 1 in live) taken to op(v, f); rows itself for f = 1, and a
    zero row kept as it is."""
    if f == 1:
        return rows
    if 0 not in live:
        return tuple(map(tuple, map(map, repeat(op), rows, repeat(repeat(f)))))
    out = list(rows)
    for i in compress(count(), live):
        out[i] = tuple(map(op, rows[i], repeat(f)))
    return tuple(out)


def _combined(a: _Block, b: _Block, op) -> _Block:
    """a + b or a - b, op add or sub; where a row of b is zero, the row of the result is a's."""
    if b._zero:
        return a
    if a._zero:
        return b if op is add else -b
    ra, rb, d = a.num, b.num, a.den
    if d != b.den:
        d = lcm(d, b.den)
        ra, rb = _scaled(ra, d // a.den, a._live), _scaled(rb, d // b.den, b._live)
    if 0 not in b._live:
        return a.over(list(map(tuple, map(map, repeat(op), ra, rb))), d)
    num, live = list(ra), bytearray(a._live)
    for i in compress(count(), b._live):
        num[i] = row = tuple(map(op, ra[i], rb[i]))
        live[i] = any(row)
    return a.over(num, d, bytes(live))


def _peak(block: _Block) -> int:
    """max |v| over the entries of a nonzero block."""
    return max(map(abs, chain.from_iterable(compress(block.num, block._live))))


def _dense(m: _Block) -> bool:
    """Whether a product packs against m: n >= 6 and more than two thirds of its entries nonzero."""
    n, live = m.n, m._live
    nonzero = n * live.count(1) - sum(map(tuple.count, compress(m.num, live), repeat(0)))
    return n >= 6 and 3 * nonzero > 2 * n * len(m.num)


def _bound(shared: Matrix, x: _Block) -> int:
    """n max|shared| max|x|, which bounds every entry of a product of shared and the rows of x, if a product
    against shared packs (`_dense`); else 0."""
    return shared.n * _peak(shared) * _peak(x) if _dense(shared) else 0


def _pack(vectors, width: int) -> tuple[int, list[int]]:
    """(S, each vector of width ints in [-2^63, 2^63) as the int sum_s v_s 2^(64 s), 0 for a zero vector); S holds
    2^63 in every slot."""
    from array import array  # a process that never packs never loads the module
    bias = int.from_bytes((1 << 63).to_bytes(8, sys.byteorder) * width, sys.byteorder)
    return bias, [(int.from_bytes(array("q", v).tobytes(), sys.byteorder) ^ bias) - bias if any(v) else 0
                  for v in vectors]


def _product(rows, live: bytes, factor, bound: int) -> tuple[list, bytes]:
    """([sum_k row[k] factor[k] for row in rows], its row bytes): only the nonzero rows, a 1 in live, are
    multiplied, each packed (see the module docstring) if 0 < bound < 2^62, bound at least every |entry| of the
    result, and else by dot products with the nonzero columns of factor or, if sparse, by its nonzero entries."""
    width, picked = len(factor[0]), compress(rows, live)
    if 0 < bound < 1 << 62:
        bias, packed = _pack(factor, width)
        sums = [((sum(map(mul, row, packed)) + bias) ^ bias).to_bytes(8 * width, sys.byteorder) for row in picked]
        flat = memoryview(b"".join(sums)).cast("q").tolist()
        results = [flat[s:s + width] for s in range(0, len(flat), width)]
    else:
        results, q, cols = [], len(factor), None
        for row in picked:
            if (q - row.count(0)) * 3 > q:
                if cols is None:
                    cols = [col if any(col) else None for col in zip(*factor)]
                results.append([sum(map(mul, row, col)) if col is not None else 0 for col in cols])
            else:
                acc = [0] * width
                for k in compress(count(), row):
                    x, b = row[k], factor[k]
                    for j in compress(count(), b):
                        acc[j] += x * b[j]
                results.append(acc)
    if len(results) == len(rows):
        return results, bytes(map(any, results))
    out, flags = [(0,) * width] * len(rows), bytearray(len(rows))
    for i, row in zip(compress(count(), live), results):
        out[i] = row
        flags[i] = any(row)
    return out, bytes(flags)


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

    The constructor canonicalizes the span to reduced row echelon form with
    deterministic pivoting, so equality and reduction are reproducible, and
    keeps only that: the echelon rows as integers, (pivot column,
    numerators, denominator) with the numerator at the pivot equal to the
    denominator.  `basis` builds the same rows as Fractions on each access.
    """

    __slots__ = ("n", "_echelon")

    def __init__(self, n: int, vectors_: Sequence[Sequence]):
        given = tuple(vector(v) for v in vectors_)
        if any(len(v) != n for v in given):
            raise DimensionMismatchError("subspace vector of wrong length")
        rows = _echelon(list(_over_lcm(given)[0]), n)
        if len(rows) != len(given):
            raise ValueError("subspace basis vectors are linearly dependent")
        super().__init__(n, rows)

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
    frame coordinates of T applied to frame vector c.  `block` reads the
    (+, +), (+, -), (-, +) or (-, -) block of either, and `map_witness` the
    first nonzero entry of a vector-valued bilinear map on pairs of frame
    vectors.
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

    def map_witness(self, m: Trilinear, rows: str, cols: str):
        """First ((a, c, k), value) in lexicographic order with M(x_a, x_c) nonzero at coordinate k.

        M(e_i, e_j) is column j of slice i of m, so column c of (sum_i P_ia M_i) P
        is M(x_a, x_c): row c of slice a of x below.  a and c are 1-based
        within the rows and cols sides.
        """
        r, c = self._sides(rows, cols)
        x = (m.combine(self.frame, range(m.n)[r]) * self.frame).transpose()
        n, width = x.n, len(range(x.n)[c])
        hit = _Block.over([row for s in range(0, len(x.num), n) for row in x.num[s:s + n][c]], x.den).first_witness()
        if hit is None:
            return None
        a, c = divmod(hit[0][0] - 1, width)
        return (a + 1, c + 1, hit[0][1]), hit[1]


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
        Value.__init__(space, n, _echelon([list(col) for col in zip(*m)], n))
    inv = [twice[0][pc] for pc, _, _ in plus._echelon] + [twice[1][pc] for pc, _, _ in minus._echelon]
    return Splitting(plus, minus, _frame(plus, minus), Matrix.over(inv, 2 * d), Matrix.over(twice[0], 2 * d), t)


def projection_onto(plus: Subspace, minus: Subspace) -> tuple[Matrix, Matrix]:
    """Projections (pi_plus, Id - pi_plus) for a direct sum decomposition."""
    pi_plus = splitting(plus, minus).pi_plus
    return pi_plus, Matrix.identity(plus.n) - pi_plus
