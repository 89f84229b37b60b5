"""Test-only oracles: vectors on Fractions, nabla_x y of a connection and the
antipode of a circle point, one-forms with their differential and wedge
products, the Jacobi sums bracket by bracket and as the engine's integer
sums read off, closedness of a two-form, readers of Trilinear tensors
that do not go through the engine's scan, two computations of Sylvester
inertia, the Levi-Civita connection solved by sympy, the pairwise
bracket-closure test on Fractions, the four-combination Kunneth connection,
every leg of Born integrability computed on its own, the rational-literal
reader the integer one replaced, the mixed torsion of a connection on a
splitting, the whole Born identity table computed from matrix products on raw
data, and the eager fraction-free elimination that the lazily scaling one
replaced.

The engine needs d on two-forms only.  The d^2 = 0 and Leibniz tests, and the
acceptance criteria on stated differentials, check ce_d2 against the
one-form differential and the wedge products defined here pair by pair.
The engine's fraction-free inertia is checked against a congruence reduction
on Fractions and against the signs of the characteristic polynomial.

The engine proves its Born identity table and its connections' defining
properties from what the builders certify, and computes none of them;
`reference_identity_table` and the pairwise nabla-form, torsion and mixed
torsion oracles compute them, on built structures, where they must hold,
and on forged data, where they must fail with witnesses.
"""

import re
from fractions import Fraction
from typing import NamedTuple

from bornlab import CirclePoint, LieAlgebra, Matrix, Signature, Subspace, Trilinear, torsion
from bornlab.connections import Connection
from bornlab.exact import invert, linear_combination, splitting, vector
from bornlab.liealg import _jacobi_sums, ce_d2
from bornlab.multilinear import nijenhuis
from bornlab.structures import IDENTITY_TABLE, Witness, subalgebra_witness, witness_at, witness_of


def diagonal(entries) -> Matrix:
    """The diagonal matrix with these entries."""
    d = list(entries)
    return Matrix([[d[i] if i == j else 0 for j in range(len(d))] for i in range(len(d))])


def column(m: Matrix, j: int) -> tuple:
    """Column j (0-based) of m, as Fractions."""
    return tuple(row[j] for row in m.rows)


def from_columns(cols) -> Matrix:
    """The matrix whose j-th column is cols[j]."""
    n = len(cols)
    return Matrix([[cols[j][i] for j in range(n)] for i in range(n)])


def fresh(L: LieAlgebra) -> LieAlgebra:
    """A new algebra equal to L: the memos on it, and on every structure built over it, start empty."""
    return LieAlgebra(L.n, L.brackets)


def basis_vector(n: int, i: int) -> tuple:
    """Standard basis vector e_{i+1} (index 0-based)."""
    return tuple(Fraction(int(j == i)) for j in range(n))


def vec_add(x, y) -> tuple:
    return tuple(a + b for a, b in zip(x, y))


def vec_sub(x, y) -> tuple:
    return tuple(a - b for a, b in zip(x, y))


def nabla(c: Connection, x, y) -> tuple:
    """nabla_x y = sum_i x_i Gamma_i y, slice by slice."""
    out = [Fraction(0)] * len(y)
    for xi, g in zip(x, c.gammas):
        if xi:
            out = [o + xi * v for o, v in zip(out, g.matvec(y))]
    return tuple(out)


def antipode(p: CirclePoint) -> CirclePoint:
    """The point at theta + pi: t -> -1/t, with t = 0 and theta = pi exchanged."""
    if p.t is None:
        return CirclePoint.from_t(0)
    if p.t == 0:
        return CirclePoint.theta_pi()
    return CirclePoint.from_t(-1 / p.t)


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


def ce_d1(L: LieAlgebra, a: OneForm) -> Matrix:
    """(d a)(e_i, e_j) = -a([e_i, e_j])."""
    n = L.n
    rows = [[-a.evaluate(L.bracket(basis_vector(n, i), basis_vector(n, j))) for j in range(n)] for i in range(n)]
    return Matrix(rows)


def wedge_one_one(a: OneForm, b: OneForm) -> Matrix:
    """The matrix of the antisymmetric form a ^ b."""
    x, y = a.coefficients, b.coefficients
    return Matrix([[x[i] * y[j] - x[j] * y[i] for j in range(a.n)] for i in range(a.n)])


def wedge_two_one(w: Matrix, a: OneForm) -> Trilinear:
    """(w ^ a)(x,y,z) = w(x,y)a(z) - w(x,z)a(y) + w(y,z)a(x) on every basis triple."""
    m, c, n = w.rows, a.coefficients, a.n
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


def congruence_signature(m: Matrix) -> Signature:
    """Sylvester inertia by symmetric congruence reduction on Fractions.

    Pivots are taken at the lowest available diagonal index.  When every
    remaining diagonal entry is zero but some off-diagonal entry m_ij is not,
    the congruence e_i -> e_i + e_j turns 2*m_ij into a usable diagonal pivot.
    """
    n = m.n
    a = [list(row) for row in m.rows]

    def congruence_add(i, j, f):
        # basis change e_i -> e_i + f e_j applied on both sides
        for c in range(n):
            a[i][c] += f * a[j][c]
        for r in range(n):
            a[r][i] += f * a[r][j]

    def congruence_swap(i, j):
        a[i], a[j] = a[j], a[i]
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]

    pos = neg = 0
    for corner in range(n):
        pivot = next((r for r in range(corner, n) if a[r][r] != 0), None)
        if pivot is None:
            pair = next(((i, j) for i in range(corner, n) for j in range(i + 1, n) if a[i][j] != 0), None)
            if pair is None:
                break  # remaining block is identically zero
            congruence_add(pair[0], pair[1], 1)
            pivot = pair[0]
        if pivot != corner:
            congruence_swap(pivot, corner)
        d = a[corner][corner]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for r in range(corner + 1, n):
            if a[r][corner] != 0:
                congruence_add(r, corner, -a[r][corner] / d)
    return Signature(pos, neg, n - pos - neg)


def _sign_changes(coefficients) -> int:
    signs = [c > 0 for c in coefficients if c != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def descartes_signature(m: Matrix) -> Signature:
    """Sylvester inertia from the characteristic polynomial chi, without elimination (needs sympy).

    A real symmetric matrix has only real eigenvalues, so by Descartes' rule
    of signs the positive ones, counted with multiplicity, are the sign
    changes of the coefficients of chi(x), the negative ones those of
    chi(-x), and the null ones the multiplicity of the root 0.
    """
    import sympy

    x = sympy.Symbol("x")
    rows = [[sympy.Rational(v.numerator, v.denominator) for v in row] for row in m.rows]
    coefficients = sympy.Matrix(rows).charpoly(x).all_coeffs()  # leading coefficient first
    null = len(coefficients) - 1 - max(k for k, c in enumerate(coefficients) if c != 0)
    degree = len(coefficients) - 1
    mirrored = [c if (degree - k) % 2 == 0 else -c for k, c in enumerate(coefficients)]
    return Signature(_sign_changes(coefficients), _sign_changes(mirrored), null)


def fraction_bracket(L: LieAlgebra, x, y) -> tuple:
    """[x, y] summed over the bracket table on Fractions."""
    out = [Fraction(0)] * L.n
    for (i, j), row in L.brackets.items():
        w = x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1]
        for k, c in row.items():
            out[k - 1] += w * c
    return tuple(out)


def reference_jacobi(L: LieAlgebra) -> dict:
    """Every Jacobi sum [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] for
    i < j < k, as {(i, j, k, l) 1-based: value} in lexicographic order, each
    bracket taken pairwise by `LieAlgebra.bracket` on basis vectors."""
    n = L.n
    e = [basis_vector(n, i) for i in range(n)]
    sums = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = [Fraction(0)] * n
                for first, second, third in ((i, j, k), (j, k, i), (k, i, j)):
                    total = vec_add(total, L.bracket(L.bracket(e[first], e[second]), e[third]))
                for l, value in enumerate(total):
                    sums[i + 1, j + 1, k + 1, l + 1] = value
    return sums


def jacobi_defect(L: LieAlgebra) -> dict:
    """All Jacobi sums [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] as
    the engine computes them, {(i, j, k, l) 1-based, i < j < k: value}; the
    algebra satisfies Jacobi exactly when every value is zero."""
    dc = L._constants[0]
    return {
        (*triple, l): Fraction(value, dc * dc) for triple, sums in _jacobi_sums(L) for l, value in enumerate(sums, 1)
    }


def is_closed(L: LieAlgebra, m: Matrix) -> bool:
    """d m = 0 for the two-form m."""
    return ce_d2(L, m).is_zero()


def sympy_levi_civita(L: LieAlgebra, g: Matrix):
    """The torsion-free g-parallel connection, solved in all n^3 entries of Gamma at once (needs sympy).

    The unknown G[i][k][j] is coordinate k of nabla_{e_i} e_j.  Torsion-free:
    G[i][k][j] - G[j][k][i] = c^k_ij for i < j.  g-parallel:
    sum_k G[i][k][j] g_kl + G[i][k][l] g_jk = 0 for j <= l.  Returns the
    matrices Gamma_i, or None when the solution is not unique.
    """
    import sympy

    n = L.n
    rational = lambda v: sympy.Rational(v.numerator, v.denominator)
    gm = [[rational(v) for v in row] for row in g.rows]
    unknown = [[[sympy.Symbol(f"G_{i}_{k}_{j}") for j in range(n)] for k in range(n)] for i in range(n)]
    equations = []
    for i in range(n):
        for j in range(i + 1, n):
            bracket = fraction_bracket(L, basis_vector(n, i), basis_vector(n, j))
            equations += [unknown[i][k][j] - unknown[j][k][i] - rational(bracket[k]) for k in range(n)]
        for j in range(n):
            for l in range(j, n):
                equations.append(sum(unknown[i][k][j] * gm[k][l] + unknown[i][k][l] * gm[j][k] for k in range(n)))
    flat = [s for slice_ in unknown for row in slice_ for s in row]
    (solution,) = sympy.linsolve(equations, flat)
    if any(v.free_symbols for v in solution):
        return None
    values = iter(Fraction(int(v.p), int(v.q)) for v in solution)
    return tuple(Matrix([[next(values) for _ in range(n)] for _ in range(n)]) for _ in range(n))


def fraction_residual(s: Subspace, v) -> tuple:
    """v minus its parts along the reduced echelon basis of s, whose pivot entries are 1."""
    w = list(v)
    for b in s.basis:
        f = w[next(c for c, x in enumerate(b) if x)]
        if f:
            w = [a - f * x for a, x in zip(w, b)]
    return tuple(w)


def pairwise_subalgebra(L: LieAlgebra, s: Subspace):
    """(ok, witness, residual) of [s, s] in s, pair by pair of echelon basis vectors."""
    basis = s.basis
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            residual = fraction_residual(s, fraction_bracket(L, basis[a], basis[b]))
            if any(residual):
                return False, (a + 1, b + 1), residual
    return True, None, None


def four_combination_kunneth(k) -> Connection:
    """Gamma_i = pi_F (D_{pi_F e_i} + ad_{pi_G e_i}) pi_F + pi_G (D_{pi_G e_i} + ad_{pi_F e_i}) pi_G,

    with D_a solved from D_a^T M = -M ad_a and four combinations per slice.
    """
    L, m = k.algebra, k.omega
    ad = [L.ad(a) for a in range(L.n)]
    d = [-(invert(m.transpose()) * (m * ad_a).transpose()) for ad_a in ad]
    split = splitting(k.plus, k.minus)
    pi_f, pi_g = split.pi_plus, Matrix.identity(L.n) - split.pi_plus
    gammas = []
    for i in range(L.n):
        x_f, x_g = column(pi_f, i), column(pi_g, i)
        on_f = linear_combination(x_f, d) + linear_combination(x_g, ad)
        on_g = linear_combination(x_g, d) + linear_combination(x_f, ad)
        gammas.append(pi_f * on_f * pi_f + pi_g * on_g * pi_g)
    return Connection(tuple(gammas))


def integrability_legs(b) -> tuple:
    """d omega, N_A, N_B, N_J, then L+ and L- as subalgebras, each its witness or None where it holds.

    All six are computed; the first failing one, in this order, is the
    witness integrability_report must return.
    """
    L = b.algebra
    return (
        witness_of(ce_d2(L, b.omega), "d omega"),
        *(witness_of(nijenhuis(L, op), f"N_{name}") for name, op in (("A", b.a_op), ("B", b.b_op), ("J", b.j_op))),
        subalgebra_witness(L, b.kunneth.plus),
        subalgebra_witness(L, b.kunneth.minus),
    )


def integrable(b) -> bool:
    """Closed omega and all three Nijenhuis tensors zero (so L+ and L- are subalgebras)."""
    return not any(integrability_legs(b))


_OLD_RATIONAL_RE = re.compile(r"^-?\d+(?:/[1-9]\d*)?$")


def old_parse_rational(text) -> Fraction:
    """The reader before integer parsing: the grammar without groups, then Fraction(text)."""
    if not isinstance(text, str) or not _OLD_RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(text)


def mixed_torsion_defect(L: LieAlgebra, c: Connection, plus: Subspace, minus: Subspace):
    """First ((a, b, k), value) in lexicographic order with T(x_a, y_b) nonzero at coordinate k.

    x_a and y_b run over the echelon bases of plus and minus; None when the
    mixed torsion vanishes.  Read by `Splitting.map_witness` on the matrices
    T_i, whose column j is T(e_i, e_j).
    """
    t = [s.transpose() for s in torsion(L, c).slices]
    return splitting(plus, minus).map_witness(t, "+", "-")


# --- the Born identity table, from matrix products on raw data --------------


class BornData(NamedTuple):
    """The matrices of g, h, omega, A, B, J and the subspaces L+, L-, with no certificate."""

    g: Matrix
    h: Matrix
    omega: Matrix
    a: Matrix
    b: Matrix
    j: Matrix
    l_plus: Subspace
    l_minus: Subspace


def born_data(b) -> BornData:
    """The raw data of a built Born structure."""
    return BornData(b.g, b.h, b.omega, b.a_op, b.b_op, b.j_op, b.kunneth.plus, b.kunneth.minus)


def gauss_jordan(rows, width: int) -> tuple[list, list]:
    """Rows reduced on Fractions in their first width columns, and the pivot columns."""
    rows = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for c in range(width):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def eager_bareiss(a: list, ncols: int) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination that updates every row at every step, in place.

    The engine's `_gauss_jordan` before it scaled rows lazily: the same pivot
    rule, the same (pivots, last pivot, sign) and the same rows.
    """
    pivots, prev, sign = [], 1, 1
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            sign = -sign
        top = a[rank]
        p = top[col]
        for r, row in enumerate(a):
            if r != rank:
                f = row[col]
                a[r] = [(p * v - f * w) // prev for v, w in zip(row, top)]
        pivots.append(col)
        prev = p
        if len(pivots) == len(a):
            break
    return pivots, prev, sign


def fraction_kernel(rows) -> list:
    """A basis of {x : M x = 0} for the matrix M with these rows, by `gauss_jordan`.

    The basis vector of free column f has a 1 at f and 0 at the other free columns.
    """
    width = len(rows[0])
    rows, pivots = gauss_jordan(rows, width)
    free = [c for c in range(width) if c not in pivots]
    return [
        tuple(-rows[pivots.index(c)][f] if c in pivots else Fraction(int(c == f)) for c in range(width)) for f in free
    ]


def reference_coordinates(vectors, v) -> list:
    """The coefficients of v in the independent vectors, from the reduced augmented system."""
    m = len(vectors)
    rows, _ = gauss_jordan([[x[i] for x in vectors] + [v[i]] for i in range(len(v))], m)
    return [row[m] for row in rows[:m]]


def reference_pairing(m: Matrix, left: Subspace, right: Subspace, upper: bool):
    """First ((a, c), m(x_a, y_c)) != 0 over pairs of basis vectors; c > a when upper."""
    rows = m.rows
    for a, x in enumerate(left.basis):
        for c in range(a + 1 if upper else 0, right.dim):
            value = evaluate(rows, x, right.basis[c])
            if value != 0:
                return (a + 1, c + 1), value
    return None


def _exchange_witness(t: Matrix, own, other):
    """First ((a, c), value), a outer: coordinate a, along the own eigenspace, of T applied to its c-th vector.

    None when T maps own into other; the bases of own and other together are
    a basis of the space.
    """
    coords = [reference_coordinates(own + other, t.matvec(v)) for v in own]
    hits = (((a + 1, c + 1), coords[c][a]) for a in range(len(own)) for c in range(len(own)))
    return next((hit for hit in hits if hit[1]), None)


def reference_identity_table(d: BornData) -> list:
    """(name, group, witness or None) for the 37 items of the Born identity table, in report order.

    Algebraic items are products: ABJ - Id, the anticommutators, and
    T^T M T - s M and T^T M - s' M T for each row of IDENTITY_TABLE, each
    witnessed by its first nonzero entry.  The frames are L = (L+, L-) and
    B = the kernels of B - Id and B + Id, in reduced echelon bases; an
    exchange item is witnessed by `_exchange_witness`, a pairing item by
    `reference_pairing`.  The signature items compare the congruence
    signatures with (n/2, n/2, 0) and (2p, 2q, 0), witnessed by the
    signature with value 0.
    """
    n = d.g.n
    ops = {"A": d.a, "B": d.b, "J": d.j}
    forms = {"g": d.g, "h": d.h, "omega": d.omega}
    ident = Matrix.identity(n)
    items = [("ABJ = Id", "algebra", witness_of(d.a * d.b * d.j - ident))]
    for x, y in (("A", "B"), ("A", "J"), ("B", "J")):
        items.append((f"{x}{y} + {y}{x} = 0", "algebra", witness_of(ops[x] * ops[y] + ops[y] * ops[x])))
    for form_name, op_name, both_sign, mixed_sign in IDENTITY_TABLE:
        m, t = forms[form_name], ops[op_name]
        for defect, lhs, rhs, sign in (
            (t.transpose() * m * t - m * both_sign, f"{op_name}x,{op_name}y", "x,y", both_sign),
            (t.transpose() * m - m * t * mixed_sign, f"{op_name}x,y", f"x,{op_name}y", mixed_sign),
        ):
            name = f"{form_name}({lhs}) = {'' if sign == 1 else '-'}{form_name}({rhs})"
            items.append((name, "algebra", witness_of(defect)))
    frames = {
        "L": (d.l_plus, d.l_minus),
        "B": tuple(Subspace(n, fraction_kernel((d.b - ident * sign).rows)) for sign in (1, -1)),
    }
    for op_name, frame in (("J", "L"), ("J", "B"), ("A", "B"), ("B", "L")):
        plus, minus = frames[frame]
        for side, other, own, rest in (("+", "-", plus, minus), ("-", "+", minus, plus)):
            hit = _exchange_witness(ops[op_name], own.basis, rest.basis)
            items.append((f"{op_name} maps {frame}{side} to {frame}{other}", "eigenspace", witness_at(hit)))
    for name, form_name, frame, rows, cols in (
        ("L+ Lagrangian for omega", "omega", "L", 0, 0),
        ("L- Lagrangian for omega", "omega", "L", 1, 1),
        ("B-eigenspaces g-orthogonal", "g", "B", 0, 1),
        ("A-eigenspaces h-orthogonal", "h", "L", 0, 1),
        ("B-eigenspaces h-orthogonal", "h", "B", 0, 1),
    ):
        hit = reference_pairing(forms[form_name], frames[frame][rows], frames[frame][cols], upper=False)
        items.append((name, "eigenspace", witness_at(hit)))
    sig_g, sig_h = congruence_signature(d.g), congruence_signature(d.h)
    for name, sig, ok in (
        ("signature(g) neutral", sig_g, sig_g == Signature(n // 2, n // 2, 0)),
        ("signature(h) = (2p,2q)", sig_h, sig_h.null == 0 and sig_h.positive % 2 == 0 and sig_h.negative % 2 == 0),
    ):
        items.append((name, "signature", None if ok else Witness.at((sig.positive, sig.negative, sig.null), 0)))
    return items
