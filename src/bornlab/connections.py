"""Left-invariant connections: Levi-Civita, Kunneth, canonical and Born averages.

A connection is stored as n matrices Gamma_i = nabla_{e_i} on the fixed
basis: column j of Gamma_i is nabla_{e_i} e_j.  Because all data is
left-invariant, derivatives of scalar pairings vanish, and every defining
property is an identity between exact matrices:

    torsion           T(e_i, e_j) = Gamma_i e_j - Gamma_j e_i - [e_i, e_j]
    b parallel        nabla_{e_i} b = -(Gamma_i^T M_b + M_b Gamma_i) = 0
    commutes with T   [Gamma_i, T] = 0

The canonical and Born connections are averages under conjugation:

    canonical         Gamma^c_i = (Gamma^g_i + A Gamma^g_i A) / 2
    Born              Gamma_i   = (Gamma^K_i + B Gamma^K_i B) / 2
                                = (Gamma^K_i - J Gamma^K_i J) / 2

A trilinear defect d(e_i, e_j, e_k) is kept as n matrices, entry (j, k) of
the i-th; its witness is the first nonzero (i, j, k) in lexicographic order.

Every constructor re-verifies the defining properties of what it built and
records them in the connection's certificate; a violation raises, it is never
returned silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .errors import (
    AxiomFailureError,
    DegenerateFormError,
    NotIntegrableError,
    NotInvolutionError,
)
from .exact import (
    Matrix,
    Subspace,
    determinant,
    invert,
    linear_combination,
    projection_onto,
    vec_sub,
)
from .liealg import LieAlgebra, ce_d2
from .multilinear import BilinearForm, Endomorphism, OneTwoTensor, involution_split
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


HALF = Fraction(1, 2)


@dataclass(frozen=True)
class Connection:
    """Left-invariant connection as the matrices Gamma_i = nabla_{e_i}."""

    gammas: tuple  # gammas[i] is a Matrix whose column j is nabla_{e_i} e_j
    certified: tuple = field(default=(), compare=False)

    def apply(self, x, y):
        """nabla_x y = (sum_i x_i Gamma_i) y."""
        return linear_combination(x, self.gammas).matvec(y)

    def basis_value(self, i: int, j: int):
        """nabla_{e_{i+1}} e_{j+1} (0-based arguments)."""
        return self.gammas[i].column(j)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.gammas)


def _first_witness(indexed_vectors) -> Optional[Witness]:
    """First nonzero coordinate k over (index, vector) pairs, as index + (k,), 1-based."""
    for index, v in indexed_vectors:
        for k, value in enumerate(v):
            if value != 0:
                return Witness.at(index + (k + 1,), value)
    return None


@dataclass(frozen=True)
class Defect:
    """Trilinear defect d(e_i, e_j, e_k): entry (j, k) of matrices[i]."""

    matrices: tuple

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.matrices)

    def first_witness(self) -> Optional[Witness]:
        """First nonzero (i, j, k), 1-based, in lexicographic order."""
        return _first_witness(
            ((i + 1, j + 1), row) for i, m in enumerate(self.matrices) for j, row in enumerate(m.rows)
        )


def torsion(L: LieAlgebra, c: Connection) -> OneTwoTensor:
    """T(e_i, e_j) = Gamma_i e_j - Gamma_j e_i - [e_i, e_j]."""
    return OneTwoTensor.from_function(
        L.n,
        lambda i, j: vec_sub(vec_sub(c.basis_value(i, j), c.basis_value(j, i)), L.basis_bracket(i, j)),
    )


def _torsion_at(L: LieAlgebra, c: Connection, x, y):
    return vec_sub(vec_sub(c.apply(x, y), c.apply(y, x)), L.bracket(x, y))


def nabla_form(L: LieAlgebra, c: Connection, b: BilinearForm) -> Defect:
    """(nabla_{e_i} b)(e_j, e_k) = -(Gamma_i^T M_b + M_b Gamma_i)[j][k]; zero iff b is parallel."""
    m = b.matrix
    return Defect(tuple(-(g.transpose() * m + m * g) for g in c.gammas))


def _commutes(c: Connection, t: Endomorphism) -> bool:
    """[Gamma_i, T] = 0 for every i."""
    return all((g * t.matrix - t.matrix * g).is_zero() for g in c.gammas)


def _conjugate_average(c: Connection, t: Endomorphism, sign: int) -> Connection:
    """(Gamma_i + sign * T Gamma_i T) / 2 for every i."""
    m = t.matrix
    return Connection(tuple((g + m * g * m * sign) * HALF for g in c.gammas))


@lru_cache(maxsize=None)
def levi_civita(L: LieAlgebra, g: BilinearForm) -> Connection:
    """Koszul formula restricted to left-invariant fields:

    2 g(nabla_{e_i} e_j, e_k) = g([e_i,e_j],e_k) - g([e_j,e_k],e_i) + g([e_k,e_i],e_j),

    that is 2 M Gamma_i = P_i - P_i^T - R_i, with P_i = M ad_i and column j of
    R_i the i-th row of P_j.  The result is re-verified to be torsion-free and
    g-parallel.
    """
    n = L.n
    if determinant(g.matrix) == 0:
        raise DegenerateFormError("metric is degenerate")
    half_g_inv = invert(g.matrix) * HALF
    p = [g.matrix * L.ad(i) for i in range(n)]
    conn = Connection(
        tuple(
            half_g_inv * (p[i] - p[i].transpose() - Matrix.from_columns([p_j.rows[i] for p_j in p]))
            for i in range(n)
        )
    )
    if not torsion(L, conn).is_zero():
        raise AxiomFailureError("Levi-Civita connection has torsion")
    if not nabla_form(L, conn, g).is_zero():
        raise AxiomFailureError("Levi-Civita connection does not preserve g")
    return Connection(conn.gammas, ("torsion_free", "parallel:g"))


@lru_cache(maxsize=None)
def kunneth_connection(k: AlmostKunneth) -> Connection:
    """The unique connection preserving both subspaces, parallel for omega,
    with identically vanishing mixed torsion.

    D_a = D(e_a, .) is solved from omega(D_a y, z) = -omega(y, [e_a, z]), that
    is D_a^T M = -M ad_a, and with D_x = sum_a x_a D_a the connection is
    assembled blockwise (pi_F, pi_G the projections of the splitting):

        Gamma_i = pi_F (D_{pi_F e_i} + ad_{pi_G e_i}) pi_F
                + pi_G (D_{pi_G e_i} + ad_{pi_F e_i}) pi_G.

    All three defining properties are re-verified after construction.
    """
    L, m = k.algebra, k.omega.matrix
    n = L.n
    ad = [L.ad(a) for a in range(n)]
    m_t_inv = invert(m.transpose())
    d = [-(m_t_inv * (m * ad_a).transpose()) for ad_a in ad]
    pi_f, pi_g = projection_onto(k.plus, k.minus)
    gammas = []
    for i in range(n):
        x_f, x_g = pi_f.column(i), pi_g.column(i)
        on_f = linear_combination(x_f, d) + linear_combination(x_g, ad)
        on_g = linear_combination(x_g, d) + linear_combination(x_f, ad)
        gammas.append(pi_f * on_f * pi_f + pi_g * on_g * pi_g)
    conn = Connection(tuple(gammas))
    for sub, name in ((k.plus, "plus"), (k.minus, "minus")):
        if not all(sub.contains(g.matvec(v)) for g in conn.gammas for v in sub.basis):
            raise AxiomFailureError(f"Kunneth connection does not preserve {name}")
    if not nabla_form(L, conn, k.omega).is_zero():
        raise AxiomFailureError("Kunneth connection does not preserve omega")
    if mixed_torsion_defect(L, conn, k.plus, k.minus):
        raise AxiomFailureError("Kunneth connection has mixed torsion")
    return Connection(conn.gammas, ("preserves_subspaces", "parallel:omega", "mixed_torsion_zero"))


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
    if not nabla_form(L, conn, g).is_zero():
        raise AxiomFailureError("canonical connection does not preserve g")
    omega = BilinearForm.detect(a_op.matrix.transpose() * g.matrix)
    if not nabla_form(L, conn, omega).is_zero():
        raise AxiomFailureError("canonical connection does not preserve omega")
    return Connection(conn.gammas, ("commutes:A", "parallel:g", "parallel:omega"))


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
    if conn != _conjugate_average(kunneth, b.j_op, -1):
        raise AxiomFailureError("B-average and J-average of the Kunneth connection differ")
    for name, op in (("A", b.a_op), ("B", b.b_op), ("J", b.j_op)):
        if not _commutes(conn, op):
            raise AxiomFailureError(f"Born-compatible connection does not commute with {name}")
    for name, form in (("g", b.g), ("h", b.h), ("omega", b.omega)):
        if not nabla_form(L, conn, form).is_zero():
            raise AxiomFailureError(f"Born-compatible connection does not preserve {name}")
    return Connection(
        conn.gammas,
        ("b_average_equals_j_average", "commutes:A,B,J", "parallel:g,h,omega"),
    )


def mixed_torsion_defect(L: LieAlgebra, c: Connection, plus: Subspace, minus: Subspace):
    """Nonzero values of T(x, y) for x in the plus basis, y in the minus basis.

    Witness indices are (a, b, k): positions into the echelon bases and the
    first coordinate where the torsion vector is nonzero.
    """
    out = []
    for a, x in enumerate(plus.basis):
        for b_idx, y in enumerate(minus.basis):
            witness = _first_witness([((a + 1, b_idx + 1), _torsion_at(L, c, x, y))])
            if witness is not None:
                out.append(witness)
    return out


def generalized_torsion_defect(
    L: LieAlgebra, c: Connection, cc: Connection, g: BilinearForm
) -> Defect:
    """GT(x,y,z) = g(nabla_x y - nabla_y x, z) + g(nabla_z x, y), compared
    between c and the canonical connection cc on all basis triples.

    With Delta = c - cc and E_i the matrix whose column j is Delta_j e_i, the
    i-th matrix of the defect is (Delta_i - E_i)^T M_g + M_g E_i.
    """
    m = g.matrix
    delta = [a - b for a, b in zip(c.gammas, cc.gammas)]
    out = []
    for i, delta_i in enumerate(delta):
        e_i = Matrix.from_columns([delta_j.column(i) for delta_j in delta])
        out.append((delta_i - e_i).transpose() * m + m * e_i)
    return Defect(tuple(out))


def omega_K_defect(k: AlmostKunneth) -> Defect:
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

    With C_i the matrix of i_{A e_i} d omega, the i-th matrix of the defect is
    (Gamma^K_i - Gamma^c_i)^T M_omega + (pi_G^T C_i pi_F - pi_F^T C_i pi_G) / 2.
    """
    L, m = k.algebra, k.omega.matrix
    kunneth = kunneth_connection(k)
    a_op = almost_product(k)
    canonical = canonical_connection(L, neutral_metric(k), a_op)
    d_omega = ce_d2(L, k.omega)
    pi_f, pi_g = projection_onto(k.plus, k.minus)
    pi_f_t, pi_g_t = pi_f.transpose(), pi_g.transpose()
    out = []
    for i, (nk_i, nc_i) in enumerate(zip(kunneth.gammas, canonical.gammas)):
        c_i = d_omega.interior(a_op.matrix.column(i))
        correction = (pi_g_t * c_i * pi_f - pi_f_t * c_i * pi_g) * HALF
        out.append((nk_i - nc_i).transpose() * m + correction)
    return Defect(tuple(out))


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
    items = []
    for name, sub in (("B+", split.plus), ("B-", split.minus)):
        basis = sub.basis
        witness = _first_witness(
            ((a + 1, c + 1), _torsion_at(L, born, basis[a], basis[c]))
            for a in range(len(basis))
            for c in range(a + 1, len(basis))
        )
        items.append(CheckItem(f"T = 0 on {name} x {name}", witness is None, witness))

    def formula_defect(x, y):
        expected = vec_sub(
            split.pi_minus.apply(kunneth.apply(y, x)), split.pi_plus.apply(kunneth.apply(x, y))
        )
        return vec_sub(_torsion_at(L, born, x, y), expected)

    witness = _first_witness(
        ((a + 1, c + 1), formula_defect(x, y))
        for a, x in enumerate(split.plus.basis)
        for c, y in enumerate(split.minus.basis)
    )
    items.append(
        CheckItem("T(x,y) = -pi+(nabla^K_x y) + pi-(nabla^K_y x) on B+ x B-", witness is None, witness)
    )
    return StructureReport(tuple(items))
