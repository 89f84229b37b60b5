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

from collections.abc import Mapping, Sequence
from fractions import Fraction
from itertools import chain, combinations
from math import lcm
from operator import mul

from .errors import DimensionMismatchError, JacobiViolationError
from .exact import (
    Matrix,
    Subspace,
    Trilinear,
    Value,
    _dense,
    _pack,
    format_rational,
    from_integers,
    owned,
    rationalize,
    to_integers,
    vector,
)


class LieAlgebra(Value):
    """Finite-dimensional Lie algebra over the rationals.

    Given a dimension n and a table mapping 1-based pairs (i, j) with i < j to
    {k: coefficient of e_k in [e_i, e_j]}, it keeps two derived forms of the
    constants c^k_ij and nothing else: `_ad`, the tensor of the ad_i as one
    canonical block, and `_constants`, its sparse index (dc, the common
    denominator, and per pair with a nonzero output the 0-based (i, j) and
    the nonzero (k, numerator over dc), pairs and outputs sorted).  Algebras
    are equal by (n, `_ad`) and hashed by it; `brackets` reads the table back
    off `_constants`, sorted, reduced and free of zeros.
    """

    __slots__ = ("n", "_ad", "_constants")
    _uncompared = ("_constants",)

    def __init__(self, n: int, brackets: Mapping = (), *, check: bool = True):
        if n < 1:
            raise DimensionMismatchError("dimension must be >= 1")
        # pairs and output keys are validated in the caller's order, before anything is sorted
        table = []
        for (i, j), out in dict(brackets).items():
            if not (1 <= i < j <= n):
                raise DimensionMismatchError(
                    f"bracket pair ({format_rational(i)},{format_rational(j)}) out of range for dim {n}"
                )
            row = {}
            for k, coeff in out.items():
                k = int(k)
                if not 1 <= k <= n:
                    raise DimensionMismatchError(f"bracket output index {format_rational(k)} out of range")
                c = rationalize(coeff)
                if c != 0:
                    row[k - 1] = c
            if row:
                table.append((i - 1, j - 1, sorted(row.items())))
        table.sort()
        # the structure constants as integers over their common denominator dc
        dc = lcm(*{c.denominator for _, _, row in table for _, c in row})
        constants = tuple(
            (i, j, tuple((k, c.numerator * (dc // c.denominator)) for k, c in row)) for i, j, row in table
        )
        # entry (k, j) of ad_i is c^k_ij, the e_k coefficient of [e_i, e_j], at row i n + k of one block; over the
        # lcm dc of the reduced denominators the block is canonical
        ad = [[0] * n for _ in range(n * n)]
        for i, j, out in constants:
            for k, c in out:
                ad[i * n + k][j] = c
                ad[j * n + k][i] = -c
        super().__init__(n, Trilinear._of(tuple(map(tuple, ad)), dc), (dc, constants))
        if check:
            for triple, sums in _jacobi_sums(self):
                if any(sums):
                    l, value = next((l, v) for l, v in enumerate(sums, 1) if v)
                    raise JacobiViolationError(((*triple, l), Fraction(value, dc * dc)))

    @property
    def brackets(self) -> dict:
        """{(i, j): {k: c^k_ij}}, 1-based, for the pairs i < j with a nonzero bracket, built on each access."""
        dc, constants = self._constants
        return {(i + 1, j + 1): {k + 1: Fraction(c, dc) for k, c in out} for i, j, out in constants}

    def ad(self, i: int) -> Matrix:
        """Matrix of ad_{e_{i+1}} (0-based argument): column j is [e_{i+1}, e_{j+1}]; slice i of the ad tensor."""
        rows = slice(i * self.n, (i + 1) * self.n)
        return Matrix.over(self._ad.num[rows], self._ad.den, self._ad._live[rows])

    def bracket(self, x: Sequence, y: Sequence):
        """[x, y]^k = sum_{i<j} (x^i y^j - x^j y^i) c^k_{ij}; bilinear and antisymmetric.

        Accumulated on integer numerators over the common denominator of x,
        of y and of the structure constants.
        """
        x, y = vector(x), vector(y)
        if len(x) != self.n or len(y) != self.n:
            raise DimensionMismatchError("bracket arguments must have the algebra dimension")
        (xs, dx), (ys, dy) = to_integers(x), to_integers(y)
        return from_integers(self._bracket_integers(xs, ys), dx * dy * self._constants[0])

    def _bracket_integers(self, xs: Sequence[int], ys: Sequence[int]) -> list[int]:
        """[xs, ys] for integer coordinate vectors, as integers over dc."""
        acc = [0] * self.n
        for i, j, out in self._constants[1]:
            w = xs[i] * ys[j] - xs[j] * ys[i]
            if w:
                for k, c in out:
                    acc[k] += w * c
        return acc

    def __repr__(self):
        rels = ", ".join(
            f"[e{i},e{j}]=" + "+".join(f"{format_rational(c)}*e{k}" for k, c in out.items())
            for (i, j), out in self.brackets.items()
        )
        return f"LieAlgebra(dim={self.n}, {rels or 'abelian'})"


def _jacobi_sums(L: LieAlgebra):
    """The Jacobi sums as integers over dc^2, dc the denominator of the structure constants.

    Yields ((i, j, k) 1-based, the list of the n numerators l = 1..n) for
    i < j < k in lexicographic order.  With [e_p, e_q] = sum_m c^m_pq e_m,
    the sum [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] at (i, j, k)
    is the combination of the columns [e_m, e_x] of ad_m with coefficients
    c^m_ij (x = k), c^m_jk (x = i) and c^m_ki (x = j): only the nonzero
    constants of three pairs enter, so a triple of abelian pairs costs no
    arithmetic.  If the tensor of the ad_m is `exact._dense` and 3 n max|c|^2
    has at most 62 bits, a triple is one sum of packed columns, expanded only
    if nonzero.
    """
    n = L.n
    dc, constants = L._constants
    ad = L._ad.transpose().num  # ad[m n + x]: column x of ad_m, over dc
    out = {}  # (p, q) 0-based -> the nonzero (m, c^m_pq), in both orders
    for i, j, row in constants:
        out[i, j] = row
        out[j, i] = tuple((m, -c) for m, c in row)
    dense = _dense(L._ad) and (3 * n * max(map(abs, chain(*ad))) ** 2).bit_length() <= 62
    packed = _pack(ad, n)[1] if dense else None
    for i, j, k in combinations(range(n), 3):
        terms = [(c, m * n + x) for p, q, x in ((i, j, k), (j, k, i), (k, i, j)) for m, c in out.get((p, q), ())]
        coefficients, keys = zip(*terms) if terms else ((), ())
        if terms and (packed is None or sum(map(mul, coefficients, map(packed.__getitem__, keys)))):
            yield (i + 1, j + 1, k + 1), [sum(map(mul, coefficients, e)) for e in zip(*map(ad.__getitem__, keys))]
        else:
            yield (i + 1, j + 1, k + 1), [0] * n


class SubalgebraResult(Value):
    """Outcome of a bracket-closure test, with a witness on failure."""

    __slots__ = ("ok", "witness", "residual")
    _defaults = {"witness": None, "residual": None}

    def __bool__(self):
        return self.ok


@owned(owner="s")
def is_subalgebra(L: LieAlgebra, s: Subspace) -> SubalgebraResult:
    """True iff [s, s] is contained in s; kept on s, keyed by L.

    On failure the witness is the 1-based pair of positions into the echelon
    basis of s together with the residual of the bracket outside the span.
    The echelon rows row_a / d_a stay integers: the bracket of two of them is
    an integer vector over d_a d_b dc, reduced against the same rows.
    """
    if s.n != L.n:
        raise DimensionMismatchError("subspace dimension does not match the algebra")
    dc = L._constants[0]
    rows = [(row, d) for _, row, d in s._echelon]
    for a, (x, dx) in enumerate(rows):
        for b in range(a + 1, len(rows)):
            y, dy = rows[b]
            residual, d = s._reduce_integers(L._bracket_integers(x, y), dx * dy * dc)
            if any(residual):
                return SubalgebraResult(False, (a + 1, b + 1), from_integers(residual, d))
    return SubalgebraResult(True)


@owned(owner="m")
def ad_pairings(L: LieAlgebra, m: Matrix) -> Trilinear:
    """The tensor of slices Q_i = ad_i^T M, entry (j, k) w([e_i,e_j], e_k) for the form w of M, for `ce_d2` and
    `connections.kunneth_connection`; kept on M, keyed by L, so the two share it while M lives."""
    if m.n != L.n:
        raise DimensionMismatchError("two-form dimension does not match algebra")
    return L._ad.transpose() * m


@owned(owner="m")
def ce_d2(L: LieAlgebra, m: Matrix) -> Trilinear:
    """(d w)(e_i,e_j,e_k) = -w([e_i,e_j],e_k) + w([e_i,e_k],e_j) - w([e_j,e_k],e_i).

    For the 2-form w of antisymmetric matrix M, slice i of Q = `ad_pairings`(L, M) has entry (j, k) =
    w([e_i,e_j], e_k), and R = Q.swap_outer() has entry (k, j) of R_i = Q_j[k][i] = w([e_j,e_k], e_i),
    so d w is the tensor

        W = Q^T - Q - R^T,

    ^T transposing each slice.
    """
    q = ad_pairings(L, m)
    return q.transpose() - q - q.swap_outer().transpose()
