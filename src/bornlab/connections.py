"""Left-invariant connections: Levi-Civita, Kunneth, canonical and Born averages.

A connection is stored as the tensor of the n matrices Gamma_i = nabla_{e_i}
on the fixed basis: column j of Gamma_i is nabla_{e_i} e_j.  Because all
data is left-invariant, derivatives of scalar pairings vanish, and every
defining property is an identity between exact matrices:

    torsion           T(e_i, e_j) = Gamma_i e_j - Gamma_j e_i - [e_i, e_j]
    b parallel        nabla_{e_i} b = -(Gamma_i^T M_b + M_b Gamma_i) = 0

with M_b the Gram matrix of the form b.

The canonical and Born connections are averages under conjugation:

    canonical         Gamma^c_i = (Gamma^g_i + A Gamma^g_i A) / 2
    Born              Gamma_i   = (Gamma^K_i + B Gamma^K_i B) / 2

Each is built once.  The forms it keeps parallel, that it commutes with A
(the Born average also with B and J), and that the Born average equals the
J-average (Gamma^K_i - J Gamma^K_i J) / 2, are proved in the constructors'
docstrings from what the structure's builder certified, not recomputed.

Torsion and every trilinear defect are `exact.Trilinear` tensors, and each
formula below is a tensor expression of sums, slice transposes (^T), the
swap of the outer slots (E_i) and products of every slice with one matrix.

Statements about a splitting are read in its adapted frame P, whose columns
x_a are the bases of the two subspaces.  For a bilinear map M stored as n
matrices M_i (column j of M_i is M(e_i, e_j)), column c of (sum_i P_ia M_i) P
is M(x_a, x_c): the torsion formula of the Born connection takes
M_i = T_i + pi_+ Gamma^K_i - pi_- E_i (column j of E_i is Gamma^K_j e_i),
which equals T_i + pi_+ (Gamma^K_i + E_i) - E_i as pi_- = Id - pi_+.

No constructor re-certifies what it built: every defining property of each
connection follows from its formula and from what `build_almost_kunneth` or
`build_born` certified, and is proved in its docstring.  The tests check
each one with pairwise oracles on every structure they build.
"""

from __future__ import annotations

from .errors import DegenerateFormError, NotIntegrableError, SingularMatrixError
from .exact import (
    HALF,
    Matrix,
    Trilinear,
    Value,
    eigensplitting,
    invert,
    owned,
)
from .liealg import LieAlgebra, ad_pairings, ce_d2
from .structures import (
    AlmostKunneth,
    BornStructure,
    integrability_report,
    neutral_metric,
)


class Connection(Value):
    """Left-invariant connection as the tensor gamma of the matrices Gamma_i = nabla_{e_i}."""

    __slots__ = ("gamma",)  # slice i of the Trilinear gamma is Gamma_i, whose column j is nabla_{e_i} e_j
    gammas = property(lambda self: self.gamma.slices, doc="The Gamma_i as Matrices, built on each access.")

    def __sub__(self, other: "Connection") -> Trilinear:
        """The Gamma difference: slice i is Gamma_i - Gamma'_i, so witness (i, j, k) is entry (j, k) of it."""
        return self.gamma - other.gamma


def _torsion_slices(L: LieAlgebra, c: Connection) -> Trilinear:
    """T_i = Gamma_i - E_i - ad_i, whose column j is T(e_i, e_j); column j of E_i is Gamma_j e_i."""
    return c.gamma - c.gamma.swap_outer() - L._ad


def torsion(L: LieAlgebra, c: Connection) -> Trilinear:
    """T(e_i, e_j) = Gamma_i e_j - Gamma_j e_i - [e_i, e_j]; slice i is T_i^T."""
    return _torsion_slices(L, c).transpose()


def nabla_form(c: Connection, m: Matrix) -> Trilinear:
    """(nabla_{e_i} b)(e_j, e_k) = -(Gamma_i^T M + M Gamma_i)[j][k], M the matrix of b; zero iff b is parallel."""
    return -(c.gamma.transpose() * m + m * c.gamma)


def _conjugate_average(c: Connection, t: Matrix) -> Connection:
    """(Gamma_i + T Gamma_i T) / 2 for every i.

    When T^2 = Id it commutes with T: T (Gamma + T Gamma T) = T Gamma + Gamma T
    = (Gamma + T Gamma T) T.
    """
    return Connection((c.gamma + t * c.gamma * t) * HALF)


@owned(owner="g")
def levi_civita(L: LieAlgebra, g: Matrix) -> Connection:
    """Koszul formula restricted to left-invariant fields:

    2 g(nabla_{e_i} e_j, e_k) = g([e_i,e_j],e_k) - g([e_j,e_k],e_i) + g([e_k,e_i],e_j),

    that is 2 M Gamma_i = P_i - P_i^T - R_i, with P_i = M ad_i and column j of
    R_i the i-th row of P_j.

    It is torsion-free and g-parallel by the formula, for any nondegenerate
    symmetric g; write K(i, j, k) for the right side.  K(i, j, k) - K(j, i, k)
    = 2 g([e_i,e_j],e_k), the other four terms cancelling in pairs by
    antisymmetry of the bracket, so g(T(e_i, e_j), e_k) = 0 for every k.
    K(i, j, k) + K(i, k, j) = 0, the three pairs of terms cancelling by the
    same antisymmetry and the symmetry of g, so g(nabla_i e_j, e_k) +
    g(e_j, nabla_i e_k) = 0.  g is nondegenerate, so T = 0 and nabla g = 0.
    """
    try:
        half_g_inv = invert(g) * HALF
    except SingularMatrixError:
        raise DegenerateFormError("metric is degenerate") from None
    p = g * L._ad
    return Connection(half_g_inv * (p - p.transpose() - p.transpose().swap_outer()))


@owned
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
    second Z_i = D_i - W_i.  Two identities make this 4n products, n for D
    and three per slice, once the Q_a = ad_a^T M of `ad_pairings`, which
    `ce_d2` reads too, are formed:
    - D_a = -M^-1 Q_a.  Transposing D_a^T M = -M ad_a gives
      M^T D_a = -ad_a^T M^T, and M^T = -M, so M D_a = -ad_a^T M = -Q_a.
    - Gamma_i = pi_F ((D_i + ad_i) pi_F - Z_i) + Z_i - Z_i pi_F.  As
      pi_G = Id - pi_F, pi_G Z_i pi_G = Z_i - pi_F Z_i - Z_i pi_F
      + pi_F Z_i pi_F, and pi_F (W_i + ad_i) pi_F + pi_F Z_i pi_F =
      pi_F (D_i + ad_i) pi_F as W_i + Z_i = D_i; the two blocks sum to it.

    Its three properties hold by construction, with F and G Lagrangian,
    as `build_almost_kunneth` certified; none is checked:
    - It preserves both subspaces.  pi_F projects onto F along G and pi_G
      onto G along F, so pi_G x = 0 for x in F and pi_F y = 0 for y in G.
      Hence Gamma_i x = pi_F (W_i + ad_i) x lies in F, and
      Gamma_i y = pi_G (D_i - W_i) y lies in G.
    - No mixed torsion.  For x in F and y in G, nabla_x y = pi_G [x, y] and
      nabla_y x = pi_F [y, x], so T(x, y) = (pi_G + pi_F)[x, y] - [x, y]
      = 0.
    - nabla omega = 0.  Write x = x_F + x_G.  On F x F and G x G both terms
      of (nabla_x omega)(y, z) = -omega(nabla_x y, z) - omega(y, nabla_x z)
      pair a subspace with itself and vanish.  For y in F and z in G,
      omega(pi_F u, z) = omega(u, z) and omega(y, pi_G u) = omega(y, u), so
      omega(nabla_x y, z) = omega(D_{x_F} y + [x_G, y], z) =
      -omega(y, [x_F, z]) + omega([x_G, y], z) and omega(y, nabla_x z) =
      omega(y, D_{x_G} z + [x_F, z]) = -omega([x_G, y], z) +
      omega(y, [x_F, z]) by the defining relation of D, and the two cancel;
      G x F follows by antisymmetry.
    """
    L, m, pi_f = k.algebra, k.omega, k.split.pi_plus
    d = -invert(m) * ad_pairings(L, m)
    z = d - (d - L._ad).combine(pi_f)
    return Connection(pi_f * ((d + L._ad) * pi_f - z) + z - z * pi_f)


@owned
def canonical_connection(k: AlmostKunneth) -> Connection:
    """Average of the Levi-Civita connection of g = `neutral_metric(k)` under
    conjugation with the almost product structure A = `k.split.involution`:

    Gamma^c_i = (Gamma^g_i + A Gamma^g_i A) / 2,

    parallel for g and for omega = k.omega by construction, not recomputed:
    - A = pi_+ - pi_- with pi_+ + pi_- = Id, pi_+^2 = pi_+ and
      pi_+ pi_- = pi_- pi_+ = 0, so A^2 = pi_+ + pi_- = Id exactly.
    - g is A^T M_omega, so A^T M_g = (A^2)^T M_omega = M_omega: omega(x, y)
      = g(Ax, y), with no form to re-derive.  omega is antisymmetric, so
      A^T M_g A = M_omega A = -M_g: A is g-skew and M_g A = -A^T M_g.
    - nabla g = 0.  Gamma^g is g-parallel (`levi_civita`), that is
      M_g Gamma + Gamma^T M_g = 0, and then M_g A Gamma A +
      (A Gamma A)^T M_g = -A^T (M_g Gamma + Gamma^T M_g) A = 0: the
      conjugate is g-parallel, and so is the average.
    - It commutes with A: (Gamma + A Gamma A) / 2 commutes with A whenever
      A^2 = Id.  So nabla A = 0, and omega = g(A., .) gives nabla omega =
      (nabla g)(A., .) + g((nabla A)., .) = 0.
    """
    return _conjugate_average(levi_civita(k.algebra, neutral_metric(k)), k.split.involution)


@owned
def born_connection(b: BornStructure) -> Connection:
    """Average of the Kunneth connection under conjugation with B:

    Gamma_i = (Gamma^K_i + B Gamma^K_i B) / 2,

    parallel for g, h and omega, the defining properties of a
    Born-compatible connection.  For integrable structures this is the Born
    connection; for non-integrable ones it is still a compatible connection
    but the identification is not asserted.

    Everything is proved from what `build_born` certified, not recomputed
    (the identity table it implies is proved at `verify_born_identities`):
    - It commutes with B: (Gamma + B Gamma B) / 2 commutes with B whenever
      B^2 = Id.
    - nabla g = nabla omega = nabla h = 0.  Gamma^K is omega-parallel
      (`kunneth_connection`) and commutes with A, so nabla A = 0, and
      g = omega(A., .) is parallel too.  For a form M with B^T M B = eps M
      (eps = 1 for g, -1 for omega), M B = eps B^T M as B^2 = Id, and a
      M-parallel Gamma has M B Gamma B + (B Gamma B)^T M =
      eps B^T (M Gamma + Gamma^T M) B = 0; so the average keeps g and
      omega parallel.  It commutes with B, so h = g(B., .) is parallel.
    - It equals the J-average (Gamma^K_i - J Gamma^K_i J) / 2.  Gamma^K
      commutes with A because it preserves L+ and L-, the eigenspaces of A
      (by its shape, proved at `kunneth_connection`).  A^2 = B^2 = Id,
      AB = -J and J^2 = -Id give ABAB = -Id, so BA = -AB, and then
      J Gamma^K J = AB Gamma^K AB = A(BA) Gamma^K B = -B Gamma^K B.
    - It commutes with A and J too: the average commutes with A because
      Gamma^K and B Gamma^K B do (BA = -AB), and then with J = BA.
    """
    return _conjugate_average(kunneth_connection(b.kunneth), b.b_op)


def generalized_torsion_defect(c: Connection, cc: Connection, g: Matrix) -> Trilinear:
    """GT(x,y,z) = g(nabla_x y - nabla_y x, z) + g(nabla_z x, y), compared
    between c and the canonical connection cc on all basis triples.

    With Delta = c - cc and E_i the matrix whose column j is Delta_j e_i, the
    i-th slice of the defect is (Delta_i - E_i)^T M_g + M_g E_i.  For g
    symmetric (as `build_born` certifies) and Q_j = M_g Delta_j, column j of
    M_g E_i is column i of Q_j, so M_g E_i = S_i with S = Q.swap_outer()
    and the slice is (Q_i - S_i)^T + S_i: n products.
    """
    q = g * (c - cc)
    s = q.swap_outer()
    return (q - s).transpose() + s


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
    split, delta = k.split, kunneth_connection(k) - canonical_connection(k)
    x = ce_d2(k.algebra, k.omega).combine(split.involution) * split.pi_plus
    return delta.transpose() * k.omega + (x + x.transpose()) * HALF


def born_torsion_formula_defect(b: BornStructure):
    """Torsion of the Born connection on a basis adapted to the B-eigenspaces.

    For an integrable structure: T(x, y) = 0 when x, y lie in the same
    eigenspace of B, and T(x, y) = -pi_+(nabla^K_x y) + pi_-(nabla^K_y x)
    when Bx = x, By = -y.  Returns the first ((a, c, k), value) where this
    fails, reading B+ x B+, then B- x B-, then B+ x B- (a and c are 1-based
    positions in the echelon bases of the two eigenspaces, k the coordinate);
    None when it holds.

    B is split by `exact.eigensplitting`, unchecked: `build_born` certified
    B^2 = Id, and B = +-Id would make J = -AB = -+A, so J^2 = A^2 = Id
    against the certified J^2 = -Id.
    """
    if integrability_report(b) is not None:
        raise NotIntegrableError("the torsion formula is asserted only for integrable structures")
    L = b.algebra
    kunneth = kunneth_connection(b.kunneth)
    born = born_connection(b)
    split = eigensplitting(b.b_op)
    t = _torsion_slices(L, born)
    # T is antisymmetric, so the first witness on a whole diagonal block has a < c
    hit = split.map_witness(t, "+", "+") or split.map_witness(t, "-", "-")
    if hit is not None:
        return hit
    # D(x, y) = T(x, y) + pi+(nabla^K_x y) - pi-(nabla^K_y x) along e_i is
    # D_i = T_i + pi+ Gamma^K_i - pi- E_i = T_i + pi+ (Gamma^K_i + E_i) - E_i,
    # with column j of E_i equal to Gamma^K_j e_i
    e = kunneth.gamma.swap_outer()
    return split.map_witness(t + split.pi_plus * (kunneth.gamma + e) - e, "+", "-")
