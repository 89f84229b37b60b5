"""Left-invariant connections: Levi-Civita, Kunneth, canonical and Born averages.

A connection is stored as n matrices Gamma_i = nabla_{e_i} on the fixed
basis: column j of Gamma_i is nabla_{e_i} e_j.  Because all data is
left-invariant, derivatives of scalar pairings vanish, and every defining
property is an identity between exact matrices:

    torsion           T(e_i, e_j) = Gamma_i e_j - Gamma_j e_i - [e_i, e_j]
    b parallel        nabla_{e_i} b = -(Gamma_i^T M_b + M_b Gamma_i) = 0
    commutes with T   [Gamma_i, T] = 0

When M_b^T = eps M_b (eps = +1 for a symmetric form, -1 for an
antisymmetric one), Gamma_i^T M_b = eps (M_b Gamma_i)^T, so b is parallel
exactly when -(P_i + eps P_i^T) = 0, with one product P_i = M_b Gamma_i.

The canonical and Born connections are averages under conjugation:

    canonical         Gamma^c_i = (Gamma^g_i + A Gamma^g_i A) / 2
    Born              Gamma_i   = (Gamma^K_i + B Gamma^K_i B) / 2
                                = (Gamma^K_i - J Gamma^K_i J) / 2

Torsion and every trilinear defect are `exact.Trilinear` tensors.

Statements about a splitting are read in its adapted frame P, whose columns
x_a are the bases of the two subspaces.  For a bilinear map M stored as n
matrices M_i (column j of M_i is M(e_i, e_j)), column c of (sum_i P_ia M_i) P
is M(x_a, x_c): mixed torsion takes M = T, the torsion formula of the Born
connection M_i = T_i + pi_+ Gamma^K_i - pi_- E_i (column j of E_i is
Gamma^K_j e_i), which equals T_i + pi_+ (Gamma^K_i + E_i) - E_i as
pi_- = Id - pi_+.  A connection preserves both subspaces exactly when the
off-diagonal blocks of P^-1 Gamma_i P vanish.

Every constructor re-verifies the defining properties of what it built; a
violation raises, it is never returned silently.  The error carries the violated tensor (torsion, nabla b)
or the Gamma difference of the two Born averages as its defect.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import (
    AxiomFailureError,
    DegenerateFormError,
    NotIntegrableError,
    NotInvolutionError,
    SingularMatrixError,
)
from .exact import (
    HALF,
    Matrix,
    Subspace,
    Trilinear,
    Value,
    column_slices,
    first_nonzero_entry,
    invert,
    linear_combination,
    splitting,
)
from .liealg import LieAlgebra, ce_d2
from .multilinear import BilinearForm, Endomorphism, involution_split
from .structures import (
    AlmostKunneth,
    BornStructure,
    CheckItem,
    StructureReport,
    Witness,
    almost_product,
    integrability_report,
    neutral_metric,
)


class Connection(Value):
    """Left-invariant connection as the matrices Gamma_i = nabla_{e_i}."""

    __slots__ = ("gammas",)

    def __init__(self, gammas: tuple):
        object.__setattr__(self, "gammas", gammas)  # gammas[i] is a Matrix whose column j is nabla_{e_i} e_j

    def apply(self, x, y):
        """nabla_x y = (sum_i x_i Gamma_i) y."""
        return linear_combination(x, self.gammas).matvec(y)

    def basis_value(self, i: int, j: int):
        """nabla_{e_{i+1}} e_{j+1} (0-based arguments)."""
        return self.gammas[i].column(j)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.gammas)

    def __sub__(self, other: "Connection") -> Trilinear:
        """The Gamma difference: slice i is Gamma_i - Gamma'_i, so witness (i, j, k) is entry (j, k) of it."""
        return Trilinear(tuple(a - b for a, b in zip(self.gammas, other.gammas)))


def _torsion_matrices(L: LieAlgebra, c: Connection) -> list:
    """T_i = Gamma_i - E_i - ad_i, whose column j is T(e_i, e_j); column j of E_i is Gamma_j e_i."""
    e = column_slices(c.gammas)
    return [g - e_i - L.ad(i) for i, (g, e_i) in enumerate(zip(c.gammas, e))]


def torsion(L: LieAlgebra, c: Connection) -> Trilinear:
    """T(e_i, e_j) = Gamma_i e_j - Gamma_j e_i - [e_i, e_j]; slice i is T_i^T."""
    return Trilinear(tuple(t_i.transpose() for t_i in _torsion_matrices(L, c)))


def _frame_witnesses(matrices, frame: Matrix, rows: range, cols: range):
    """Witnesses of a bilinear map M on pairs of frame vectors x_a, x_c.

    M(e_i, e_j) is column j of matrices[i], so column c of
    (sum_i P_ia M_i) P is M(x_a, x_c), with x_a column a of the frame P.  For
    each a in rows and then c in cols with M(x_a, x_c) != 0, yields the
    witness (a, c, k), 1-based within rows, cols and the coordinates, at the
    first nonzero coordinate k of M(x_a, x_c).
    """
    for a in rows:
        values = linear_combination(frame.column(a), matrices) * frame
        for c in cols:
            hit = next(((k, v) for k, v in enumerate(values.column(c)) if v), None)
            if hit is not None:
                yield Witness.at((a - rows.start + 1, c - cols.start + 1, hit[0] + 1), hit[1])


def nabla_form(L: LieAlgebra, c: Connection, b: BilinearForm) -> Trilinear:
    """(nabla_{e_i} b)(e_j, e_k) = -(Gamma_i^T M_b + M_b Gamma_i)[j][k]; zero iff b is parallel.

    Gamma_i^T M_b comes from P_i = M_b Gamma_i (`BilinearForm.transpose_times`).
    """
    m = b.matrix
    p = [m * g for g in c.gammas]
    return Trilinear(tuple(-(b.transpose_times(g, p_i) + p_i) for g, p_i in zip(c.gammas, p)))


def _require_zero(which: str, defect: Trilinear):
    """A violated defining property raises with its defect, which locates the failure."""
    if not defect.is_zero():
        raise AxiomFailureError(which, defect)


def _commutes(c: Connection, t: Endomorphism) -> bool:
    """Gamma_i T = T Gamma_i for every i."""
    return all(g * t.matrix == t.matrix * g for g in c.gammas)


def _conjugate_average(c: Connection, t: Endomorphism, sign: int) -> Connection:
    """(Gamma_i + sign * T Gamma_i T) / 2 for every i."""
    m = t.matrix
    if sign > 0:
        return Connection(tuple((g + m * g * m) * HALF for g in c.gammas))
    return Connection(tuple((g - m * g * m) * HALF for g in c.gammas))


@lru_cache(maxsize=None)
def levi_civita(L: LieAlgebra, g: BilinearForm) -> Connection:
    """Koszul formula restricted to left-invariant fields:

    2 g(nabla_{e_i} e_j, e_k) = g([e_i,e_j],e_k) - g([e_j,e_k],e_i) + g([e_k,e_i],e_j),

    that is 2 M Gamma_i = P_i - P_i^T - R_i, with P_i = M ad_i and column j of
    R_i the i-th row of P_j.  The result is re-verified to be torsion-free and
    g-parallel.
    """
    n = L.n
    try:
        half_g_inv = invert(g.matrix) * HALF
    except SingularMatrixError:
        raise DegenerateFormError("metric is degenerate") from None
    p = [g.matrix * L.ad(i) for i in range(n)]
    r = column_slices([p_j.transpose() for p_j in p])
    conn = Connection(tuple(half_g_inv * (p[i] - p[i].transpose() - r[i]) for i in range(n)))
    _require_zero("Levi-Civita connection has torsion", torsion(L, conn))
    _require_zero("Levi-Civita connection does not preserve g", nabla_form(L, conn, g))
    return conn


@lru_cache(maxsize=None)
def kunneth_connection(k: AlmostKunneth) -> Connection:
    """The unique connection preserving both subspaces, parallel for omega,
    with identically vanishing mixed torsion.

    D_a = D(e_a, .) is solved from omega(D_a y, z) = -omega(y, [e_a, z]), that
    is D_a^T M = -M ad_a, and with D_x = sum_a x_a D_a the connection is
    assembled blockwise (pi_F, pi_G the projections of the splitting):

        Gamma_i = pi_F (D_{pi_F e_i} + ad_{pi_G e_i}) pi_F
                + pi_G (D_{pi_G e_i} + ad_{pi_F e_i}) pi_G.

    As pi_F e_i + pi_G e_i = e_i, one combination W_i = sum_a (pi_F e_i)_a C_a
    of C_a = D_a - ad_a gives both blocks: the first is W_i + ad_i and the
    second D_i - W_i.

    All three defining properties are re-verified after construction.
    """
    L, m = k.algebra, k.omega.matrix
    n = L.n
    ad = [L.ad(a) for a in range(n)]
    m_t_inv = invert(m.transpose())
    d = [-(m_t_inv * (m * ad_a).transpose()) for ad_a in ad]
    c = [d_a - ad_a for d_a, ad_a in zip(d, ad)]
    split = splitting(k.plus, k.minus)
    pi_f, pi_g = split.pi_plus, split.pi_minus
    gammas = []
    for i in range(n):
        w = linear_combination(pi_f.column(i), c)
        gammas.append(pi_f * (w + ad[i]) * pi_f + pi_g * (d[i] - w) * pi_g)
    conn = Connection(tuple(gammas))
    # nabla preserves plus iff the (-,+) block of P^-1 Gamma_i P vanishes, and
    # minus iff the (+,-) block does
    in_frame = [split.in_frame(g) for g in gammas]
    for name, rows, cols in (("plus", "-", "+"), ("minus", "+", "-")):
        if any(first_nonzero_entry(split.block(g, rows, cols)) is not None for g in in_frame):
            raise AxiomFailureError(f"Kunneth connection does not preserve {name}")
    _require_zero("Kunneth connection does not preserve omega", nabla_form(L, conn, k.omega))
    if mixed_torsion_defect(L, conn, k.plus, k.minus):
        raise AxiomFailureError("Kunneth connection has mixed torsion")
    return conn


@lru_cache(maxsize=None)
def canonical_connection(L: LieAlgebra, g: BilinearForm, a_op: Endomorphism) -> Connection:
    """Average of the Levi-Civita connection under conjugation with A:

    Gamma^c_i = (Gamma^g_i + A Gamma^g_i A) / 2.

    Re-verified: commutes with A, parallel for g and for omega(x,y) = g(Ax,y).
    """
    if not a_op.is_involution():
        raise NotInvolutionError(a_op.squared() - Matrix.identity(a_op.n))
    conn = _conjugate_average(levi_civita(L, g), a_op, 1)
    if not _commutes(conn, a_op):
        raise AxiomFailureError("canonical connection does not commute with A")
    _require_zero("canonical connection does not preserve g", nabla_form(L, conn, g))
    omega = BilinearForm.detect(a_op.matrix.transpose() * g.matrix)
    _require_zero("canonical connection does not preserve omega", nabla_form(L, conn, omega))
    return conn


@lru_cache(maxsize=None)
def born_connection(b: BornStructure) -> Connection:
    """Average of the Kunneth connection under conjugation with B:

    Gamma_i = (Gamma^K_i + B Gamma^K_i B) / 2,

    re-verified to equal the J-average (Gamma^K_i - J Gamma^K_i J) / 2 and to
    be compatible with the whole structure (g, h, omega parallel; commutes
    with A, B, J).  For integrable structures this is the Born connection;
    for non-integrable ones it is still a compatible connection but the
    identification is not asserted.
    """
    L = b.algebra
    kunneth = kunneth_connection(b.underlying_kunneth())
    conn = _conjugate_average(kunneth, b.b_op, 1)
    j_average = _conjugate_average(kunneth, b.j_op, -1)
    if conn != j_average:
        raise AxiomFailureError("B-average and J-average of the Kunneth connection differ", conn - j_average)
    for name, op in (("A", b.a_op), ("B", b.b_op), ("J", b.j_op)):
        if not _commutes(conn, op):
            raise AxiomFailureError(f"Born-compatible connection does not commute with {name}")
    for name, form in (("g", b.g), ("h", b.h), ("omega", b.omega)):
        _require_zero(f"Born-compatible connection does not preserve {name}", nabla_form(L, conn, form))
    return conn


def mixed_torsion_defect(L: LieAlgebra, c: Connection, plus: Subspace, minus: Subspace):
    """Nonzero values of T(x, y) for x in the plus basis, y in the minus basis.

    Witness indices are (a, b, k): positions into the echelon bases and the
    first coordinate where the torsion vector is nonzero.
    """
    split = splitting(plus, minus)
    p = plus.dim
    return list(_frame_witnesses(_torsion_matrices(L, c), split.frame, range(p), range(p, L.n)))


def generalized_torsion_defect(
    L: LieAlgebra, c: Connection, cc: Connection, g: BilinearForm
) -> Trilinear:
    """GT(x,y,z) = g(nabla_x y - nabla_y x, z) + g(nabla_z x, y), compared
    between c and the canonical connection cc on all basis triples.

    With Delta = c - cc and E_i the matrix whose column j is Delta_j e_i, the
    i-th slice of the defect is (Delta_i - E_i)^T M_g + M_g E_i.
    """
    m = g.matrix
    delta = (c - cc).slices
    e = column_slices(delta)
    return Trilinear(tuple((delta_i - e_i).transpose() * m + m * e_i for delta_i, e_i in zip(delta, e)))


def omega_K_defect(k: AlmostKunneth) -> Trilinear:
    """Defect of the exact relation between Kunneth and canonical connections:

    omega(nabla^K_x y, z) - omega(nabla^c_x y, z)
        + (d omega(Ax, y_-, z_+) - d omega(Ax, y_+, z_-)) / 2  =  0

    for all basis triples, whether or not omega is closed (A is the almost
    product structure of the splitting).  The correction term expands to the
    four projection patterns with alternating signs,

        -d(x+,y+,z-) + d(x-,y+,z-) + d(x+,y-,z+) - d(x-,y-,z+)   (each * 1/2),

    which is the unique such combination; a commonly quoted variant with the
    first slot unprojected and both signs positive is not an identity (it
    already fails on a non-closed form over the Heisenberg algebra, which the
    test suite demonstrates).

    With C_i = sum_a (A e_i)_a W_a the matrix of i_{A e_i} d omega (W_a the
    slices of d omega), the i-th slice of the defect is
    (Gamma^K_i - Gamma^c_i)^T M_omega + (pi_G^T C_i pi_F - pi_F^T C_i pi_G) / 2.
    As pi_G = Id - pi_F and C_i is antisymmetric (d omega is alternating),
    the correction is (X_i + X_i^T) / 2 with X_i = C_i pi_F.
    """
    L, m = k.algebra, k.omega.matrix
    kunneth = kunneth_connection(k)
    split = splitting(k.plus, k.minus)
    canonical = canonical_connection(L, neutral_metric(k), almost_product(k))
    d_omega = ce_d2(L, k.omega)
    out = []
    for i, (nk_i, nc_i) in enumerate(zip(kunneth.gammas, canonical.gammas)):
        x_i = linear_combination(split.involution.column(i), d_omega.slices) * split.pi_plus
        out.append((nk_i - nc_i).transpose() * m + (x_i + x_i.transpose()) * HALF)
    return Trilinear(tuple(out))


def born_torsion_formula_defect(b: BornStructure) -> StructureReport:
    """Torsion of the Born connection on a basis adapted to the B-eigenspaces.

    For an integrable structure: T(x, y) = 0 when x, y lie in the same
    eigenspace of B, and T(x, y) = -pi_+(nabla^K_x y) + pi_-(nabla^K_y x)
    when Bx = x, By = -y.
    """
    report = integrability_report(b)
    if not report.integrable:
        raise NotIntegrableError("the torsion formula is asserted only for integrable structures")
    L = b.algebra
    kunneth = kunneth_connection(b.underlying_kunneth())
    born = born_connection(b)
    split = involution_split(b.b_op)
    p = split.plus.dim
    t = _torsion_matrices(L, born)
    items = []
    for name, block in (("B+", range(p)), ("B-", range(p, L.n))):
        # T is antisymmetric, so the first witness on the whole block has a < c
        witness = next(_frame_witnesses(t, split.frame, block, block), None)
        items.append(CheckItem(f"T = 0 on {name} x {name}", witness))

    # D(x, y) = T(x, y) + pi+(nabla^K_x y) - pi-(nabla^K_y x) along e_i is
    # D_i = T_i + pi+ Gamma^K_i - pi- E_i = T_i + pi+ (Gamma^K_i + E_i) - E_i,
    # with column j of E_i equal to Gamma^K_j e_i
    e = column_slices(kunneth.gammas)
    d = [t_i + split.pi_plus * (g_i + e_i) - e_i for t_i, g_i, e_i in zip(t, kunneth.gammas, e)]
    witness = next(_frame_witnesses(d, split.frame, range(p), range(p, L.n)), None)
    items.append(CheckItem("T(x,y) = -pi+(nabla^K_x y) + pi-(nabla^K_y x) on B+ x B-", witness))
    return StructureReport(tuple(items))
