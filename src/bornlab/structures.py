"""Almost Kunneth, Born and hypersymplectic structures with exact validation.

Constructors never trust their inputs: every defining identity is recomputed
and must hold with defect exactly zero, otherwise a typed error carrying a
witness is raised.  Derived operators are always recomputed from the defining
recursion relations; expected operator tables (e.g. transcribed from a
reference) can be passed in and are then cross-checked against the derived
ones.

A Born structure sits inside the Kunneth geometry of (omega, L+, L-), and is
integrable exactly when that Kunneth structure is (d omega = 0, L+ and L-
subalgebras) and N_B = 0; integrability_report returns the first obstruction
as a Witness, building at most one Nijenhuis tensor.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import (
    AxiomFailureError,
    DegenerateFormError,
    DimensionMismatchError,
    HypothesisFailureError,
    NotClosedError,
    NotCompatibleError,
    NotIsotropicError,
    NotSymmetricError,
    SingularMatrixError,
)
from .exact import (
    Matrix,
    Subspace,
    Value,
    eigensplitting,
    format_rational,
    invert,
    owned,
    rationalize,
    splitting,
)
from .liealg import LieAlgebra, ce_d2, is_subalgebra
from .multilinear import (
    anticommutator_defect,
    nijenhuis,
    pullback,
    recursion_operator,
)


class Witness(Value):
    """Exact counterexample: a 1-based index tuple and the offending value."""

    __slots__ = ("index", "value", "note")
    _defaults = {"note": ""}

    @classmethod
    def at(cls, index, value, note=""):
        return cls(tuple(index), format_rational(rationalize(value)), note)


def witness_at(hit, note="") -> Witness | None:
    """The Witness of a kernel hit (index, value); None for no hit."""
    return None if hit is None else Witness.at(*hit, note)


def witness_of(defect, note="") -> Witness | None:
    """The first nonzero entry of a Matrix or Trilinear defect; None when it vanishes."""
    return witness_at(defect.first_witness(), note)


def require_zero(which: str, defect, error=AxiomFailureError):
    """A Matrix or Trilinear defect that does not vanish raises error at its first nonzero entry."""
    if not defect.is_zero():
        raise error(which, defect.first_witness())


def _require_tables(*tables):
    """Each (name, expected table or None, derived matrix) must match entry for entry where a table is given."""
    for name, expected, derived in tables:
        if expected is not None and expected != derived:
            raise AxiomFailureError(f"{name} matches expected table", (derived - expected).first_witness())


def subalgebra_witness(L: LieAlgebra, sub: Subspace) -> Witness | None:
    """None when sub is a subalgebra, else (a, b, c) = residual.

    a and b are positions into the echelon basis of sub, and c is the first
    nonzero coordinate of their bracket's residual outside the span.
    """
    result = is_subalgebra(L, sub)
    if result:
        return None
    c, value = next((c, v) for c, v in enumerate(result.residual, 1) if v)
    return Witness.at((*result.witness, c), value)


# ---------------------------------------------------------------------------
# almost Kunneth structures

# held by the builders alone: an AlmostKunneth or a BornStructure exists only
# as its builder certified it, which is what the proofs below rest on
_CERTIFIED = object()


def _require_builder(key, cls, builder: str):
    if key is not _CERTIFIED:
        raise TypeError(f"a {cls.__name__} is made by {builder}, which certifies it")


class AlmostKunneth(Value):
    """Non-degenerate 2-form with two complementary isotropic subspaces.

    Made by `build_almost_kunneth`, or by `build_born` for a Born
    structure's own Kunneth structure.  split is the Splitting of plus and
    minus that proved them complementary and metric the neutral metric
    (`neutral_metric`), functions of omega, plus and minus, so structures on
    one (omega, plus, minus) are equal whichever builder made them.  A model
    builds none for a triple a Born structure of it holds.
    """

    __slots__ = ("algebra", "omega", "plus", "minus", "split", "metric")

    def __init__(self, algebra: LieAlgebra, omega: Matrix, plus: Subspace, minus: Subspace, split, metric, *, key=None):
        _require_builder(key, AlmostKunneth, "build_almost_kunneth")
        super().__init__(algebra, omega, plus, minus, split, metric)


def build_almost_kunneth(L: LieAlgebra, omega: Matrix, plus: Subspace, minus: Subspace) -> AlmostKunneth:
    n = L.n
    if omega.n != n or plus.n != n or minus.n != n:
        raise DimensionMismatchError("almost Kunneth data on mismatched dimensions")
    _require_form("the 2-form", omega, symmetric=False)
    s = splitting(plus, minus)
    pairing = s.pairing(omega)
    for name, side in (("plus", "+"), ("minus", "-")):
        # the block is antisymmetric, so its first nonzero entry has a < c
        hit = s.block(pairing, side, side).first_witness()
        if hit is not None:
            raise NotIsotropicError(name, hit)
    return AlmostKunneth(L, omega, plus, minus, s, s.involution.transpose() * omega, key=_CERTIFIED)


def neutral_metric(k: AlmostKunneth) -> Matrix:
    """g(x, y) = omega(I x, y), with I = `k.split.involution` the almost
    product structure (+Id on plus, -Id on minus): symmetric and of
    signature (n/2, n/2, 0) by construction; the builder formed it.

    The builder certified omega nondegenerate and plus, minus
    complementary and omega-isotropic.  Two complementary isotropic
    subspaces of a nondegenerate form have dimension n/2 each.  g is
    nondegenerate, I being invertible (I^2 = Id), and it vanishes on
    plus x plus and minus x minus, where it is +-omega.  A nondegenerate
    form of signature (p, q) has no isotropic subspace of dimension above
    min(p, q), so p = q = n/2.
    """
    return k.metric


# ---------------------------------------------------------------------------
# Born structures


class BornStructure(Value):
    """Two metrics and a 2-form whose recursion operators square correctly; made by `build_born`.

    a_op, b_op, j_op are derived from the defining relations
    g(A x, y) = omega(x, y), g(B x, y) = h(x, y), omega(-J x, y) = h(x, y)
    and satisfy A^2 = B^2 = Id, J^2 = -Id, AB = -J.  kunneth is the Kunneth
    structure (omega, L+, L-), L+ and L- the (+1)/(-1) eigenspaces of A.
    """

    __slots__ = ("algebra", "g", "h", "omega", "a_op", "b_op", "j_op", "kunneth")

    def __init__(self, algebra, g, h, omega, a_op, b_op, j_op, kunneth, *, key=None):
        _require_builder(key, BornStructure, "build_born")
        super().__init__(algebra, g, h, omega, a_op, b_op, j_op, kunneth)


def _require_form(name: str, form: Matrix, *, symmetric: bool):
    """Certify a form symmetric (or antisymmetric) and nondegenerate.

    The symmetry is read off the matrix.  The proof of nondegeneracy is the
    memoized inverse of the matrix, which the recursion operators and the
    connections read again.
    """
    if not (form.is_symmetric() if symmetric else form.is_antisymmetric()):
        raise NotSymmetricError(f"{name} must be {'symmetric' if symmetric else 'antisymmetric'}")
    try:
        invert(form)
    except SingularMatrixError:
        raise DegenerateFormError(f"{name} is degenerate") from None


def build_born(
    L: LieAlgebra,
    g: Matrix,
    h: Matrix,
    omega: Matrix,
    *,
    expect_a: Matrix | None = None,
    expect_b: Matrix | None = None,
    expect_j: Matrix | None = None,
) -> BornStructure:
    """Derive A, B, J from (g, h, omega) and certify the Born axioms.

    The operators are computed, never accepted as input, so commutativity of
    the diagram is a verified fact.  Optional expected operators are checked
    against the derived ones entry for entry.

    A = rec(g, omega), B = rec(g, h) and J = -rec(omega, h) read the
    memoized inverses of g and omega that certified their nondegeneracy.
    What these certificates imply, the whole identity table, is proved at
    `verify_born_identities`.

    A is split by `exact.eigensplitting`, unchecked: A^2 = Id is certified
    below, and A = +-Id would make omega(x, y) = g(Ax, y) = +-g(x, y) both
    symmetric and antisymmetric, hence zero, against the certified
    nondegenerate omega.

    The Kunneth structure (omega, L+, L-) of the result needs no second
    certification: omega is certified nondegenerate above; L+ and L- are
    the eigenspaces of the involution A, so they are complementary, and the
    frame inverse is read off the projections (Id +- A)/2 (`involution_split`
    proves it); and they are omega-Lagrangian, as `verify_born_identities`
    proves.  So the triple meets every condition `build_almost_kunneth`
    checks, and it keeps the splitting of A as its proof and g itself as its
    neutral metric omega(A x, y) = g(A A x, y) = g(x, y).
    """
    n = L.n
    if g.n != n or h.n != n or omega.n != n:
        raise DimensionMismatchError("Born data on mismatched dimensions")
    _require_form("g", g, symmetric=True)
    _require_form("h", h, symmetric=True)
    _require_form("omega", omega, symmetric=False)

    a_op = recursion_operator(g, omega)
    b_op = recursion_operator(g, h)
    j_op = -recursion_operator(omega, h)

    ident = Matrix.identity(n)
    for name, defect in (
        ("A^2 = Id", a_op * a_op - ident),
        ("B^2 = Id", b_op * b_op - ident),
        ("J^2 = -Id", j_op * j_op + ident),
        ("AB = -J", a_op * b_op + j_op),
    ):
        require_zero(name, defect)

    _require_tables(("A", expect_a, a_op), ("B", expect_b, b_op), ("J", expect_j, j_op))

    split = eigensplitting(a_op)
    kunneth = AlmostKunneth(L, omega, split.plus, split.minus, split, g, key=_CERTIFIED)
    return BornStructure(L, g, h, omega, a_op, b_op, j_op, kunneth, key=_CERTIFIED)


# Transformation table of (g, h, omega) under A, B, J: for each (form, op)
# the sign s in b(Tx, Ty) = s b(x, y) and s' in b(Tx, y) = s' b(x, Ty).
IDENTITY_TABLE = (
    ("g", "A", -1, -1),
    ("h", "A", +1, +1),
    ("omega", "A", -1, -1),
    ("g", "B", +1, +1),
    ("h", "B", +1, +1),
    ("omega", "B", -1, -1),
    ("g", "J", -1, +1),
    ("h", "J", +1, -1),
    ("omega", "J", +1, -1),
)


def _signed(sign: int) -> str:
    return "" if sign == 1 else "-"


# the name of every item of the identity table, in report order; an
# exchange row says that the operator maps each eigenspace of the frame, L
# (L+, L-) or B (the +1 and -1 eigenspaces of B), into the other
_ITEMS = (
    ("ABJ = Id",)
    + tuple(f"{x}{y} + {y}{x} = 0" for x, y in (("A", "B"), ("A", "J"), ("B", "J")))
    + tuple(
        name
        for f, t, both_sign, mixed_sign in IDENTITY_TABLE
        for name in (
            f"{f}({t}x,{t}y) = {_signed(both_sign)}{f}(x,y)",
            f"{f}({t}x,y) = {_signed(mixed_sign)}{f}(x,{t}y)",
        )
    )
    + tuple(
        f"{t} maps {frame}{side} to {frame}{other}"
        for t, frame in (("J", "L"), ("J", "B"), ("A", "B"), ("B", "L"))
        for side, other in (("+", "-"), ("-", "+"))
    )
    + (
        "L+ Lagrangian for omega",
        "L- Lagrangian for omega",
        "B-eigenspaces g-orthogonal",
        "A-eigenspaces h-orthogonal",
        "B-eigenspaces h-orthogonal",
        "signature(g) neutral",
        "signature(h) = (2p,2q)",
    )
)


def verify_born_identities(b: BornStructure) -> tuple[str, ...]:
    """The names of the 37 algebraic identities of a Born structure, in
    report order: all hold, by proof.

    The table covers ABJ = Id, pairwise anti-commutation, the eighteen
    transformation identities of (g, h, omega) under (A, B, J), eigenspace
    exchange, Lagrangian and orthogonality properties, and the two signature
    laws.  A BornStructure exists only as built by `build_born`, which
    certified g and h symmetric and nondegenerate, omega antisymmetric and
    nondegenerate, g(Ax, y) = omega(x, y), g(Bx, y) = h(x, y),
    A^2 = B^2 = Id, J^2 = -Id and AB = -J.  These imply every item:

    - Operators.  ABAB = J^2 = -Id, so BAB = -A and BA = -AB; then J = BA,
      AJ = -B = -JA, BJ = A = -JB and ABJ = -(AB)^2 = -J^2 = Id.
    - Transformations.  A is g-skew: g(Ax, y) = omega(x, y) = -omega(y, x)
      = -g(Ay, x).  B is g-self-adjoint: g(Bx, y) = h(x, y) = h(y, x) =
      g(By, x).  So the g-adjoints are A* = -A, B* = B and J* = A*B* = J.
      Each form is M(x, y) = g(Sx, y), with S = Id, B, A for g, h, omega;
      then M(Tx, Ty) = g(T*STx, y) and M(x, Ty) = g(T*Sx, y), so the signs
      s and s' of a row are those of T*ST = s S and ST = s' T*S, which
      A^2 = B^2 = Id and BA = -AB decide: for instance J*J = J^2 = -Id for
      g under J, and AJ = -B = -JA for omega under J.
    - Exchanges.  An operator that anti-commutes with an involution maps
      its +1 eigenspace into its -1 one and back: J and B exchange L+ and
      L-, the eigenspaces of A; J and A exchange those of B.
    - Pairings.  For x, y in L+, g(x, y) = g(Ax, y) = omega(x, y) and
      g(x, y) = -g(Ax, Ay) = -g(x, y), so L+ (and likewise L-) is isotropic
      for g and Lagrangian for omega.  For x in B+ and y in B-, g(x, y) =
      g(Bx, y) = g(x, By) = -g(x, y) = 0, and h(x, y) = g(Bx, y) = 0.  For
      x in L+ and y in L-, h(x, y) = h(Ax, y) = h(x, Ay) = -h(x, y) = 0.
    - Signatures.  L+ and L- are complementary (A^2 = Id) and g-isotropic,
      and a nondegenerate form of signature (p, q) has no isotropic
      subspace of dimension above min(p, q); so p = q = n/2.  h is
      nondegenerate and J-invariant with h(Jx, y) = -h(x, Jy), so it is the
      real part of the hermitian form h(x, y) + i h(x, Jy) on (V, J), and
      its signature is twice that form's: (2p, 2q).

    tests/oracles.py recomputes all 37 items from matrix products on every
    built structure of the suite, and shows the same computation failing,
    with witnesses, on forged data that no builder would return.
    """
    return _ITEMS


@owned
def integrability_report(b: BornStructure) -> Witness | None:
    """The first obstruction to integrability of a Born structure; None when it is integrable.

    Integrable means d omega = 0 and N_A = N_B = N_J = 0.  The witness is the
    first failing leg in the order d omega, N_A, N_B, N_J, L+, L- (L+ and L-
    as subalgebras), yet at most one Nijenhuis tensor is built, and never
    N_J, by two facts:

    (i) For an involution T with eigenspaces V+ and V- and projections
    pi_+ and pi_-, N_T(x, y) = [Tx,Ty] + T^2 [x,y] - T[Tx,y] - T[x,Ty] is
    4 pi_-[x, y] on V+ x V+, 4 pi_+[x, y] on V- x V- and 0 on V+ x V-.  So
    N_A = 0 exactly when L+ and L- are subalgebras, and a closed structure
    whose L+ or L- is not one fails first at N_A.

    (ii) For x, y in L+ put P = [x,y], Q = [Bx,By] and R = [x,By] + [Bx,y].
    B maps L+ onto L- (AB = -BA), so the B-eigenvectors are x + Bx and
    x - Bx, and by (i) N_B = 0 exactly when [x+Bx, y+By] = P + Q + R is
    fixed by B and [x-Bx, y-By] = P + Q - R is negated by it, that is
    R = B(P+Q).  J = BA is B on L+ and -B on L-, so the (1,0)-vectors of
    J are x - iBx; the argument of (i) for J, whose N_J vanishes on
    (1,0) x (0,1) pairs, gives N_J = 0 exactly when [x-iBx, y-iBy] =
    P - Q - iR is a (1,0)-vector, that is R = J(P-Q) = BA(P-Q).  By (i),
    N_A = 0 exactly when P lies in L+ and Q in L-, that is A(P-Q) = P+Q
    (which says the L- part of P is minus the L+ part of Q, so both vanish).
    Any two of the three equations give the third, B being invertible, so
    with N_A = 0 the tensors N_B and N_J vanish together.

    Hence a closed structure with L+ and L- subalgebras has N_A = 0, and is
    integrable exactly when N_B = 0: the Born structure is integrable
    exactly when its underlying Kunneth structure is and N_B = 0.
    """
    L = b.algebra
    w = witness_of(ce_d2(L, b.omega), "d omega")
    if w is None and (subalgebra_witness(L, b.kunneth.plus) or subalgebra_witness(L, b.kunneth.minus)):
        w = witness_of(nijenhuis(L, b.a_op), "N_A")  # nonzero by (i)
    return w or witness_of(nijenhuis(L, b.b_op), "N_B")


# ---------------------------------------------------------------------------
# enhancement of an almost Kunneth structure to a Born structure


def enhance_kunneth(k: AlmostKunneth, jtilde: Matrix | None = None) -> BornStructure:
    """Complete an almost Kunneth structure to a Born structure.

    jtilde, when given, must restrict to an isomorphism plus -> minus with
    omega(Jt x, y) = -omega(x, Jt y) on the plus subspace.  When absent, the
    omega-dual frame construction is used (then h is positive definite).  The
    complex structure is assembled as J = Jt on plus and -Jt^(-1) on minus,
    and h(x, y) = omega(x, J y).
    """
    split = k.split
    omega = k.omega
    if jtilde is None:
        # the omega-dual frame g'_c = sum_r (W^-1)_rc g_r, with W the (+,-)
        # block of P^T Omega P, has omega(f_a, g'_c) = delta_ac and S = W^-1
        s_inv = split.block(split.pairing(omega), "+", "-")
        s = invert(s_inv)
    else:
        if jtilde.n != k.algebra.n:
            raise DimensionMismatchError("jtilde dimension mismatch")
        # column c of P^-1 Jt P holds the frame coordinates of Jt f_c: its
        # plus part must vanish, and its minus part is column c of S; a
        # failure is (c, a), the first f_c whose image has plus coordinate a
        t = split.in_frame(jtilde)
        hit = split.block(t.transpose(), "+", "+").first_witness()
        if hit is not None:
            raise NotCompatibleError(hit, "jtilde does not map the plus subspace into the minus one")
        # entry (a, c) of the (+,+) block is omega(Jt f_a, f_c) + omega(f_a, Jt f_c)
        compatibility = jtilde.transpose() * omega + omega * jtilde
        hit = split.block(split.pairing(compatibility), "+", "+").first_witness()
        if hit is not None:
            raise NotCompatibleError(hit)
        s = split.block(t, "-", "+")
        try:
            s_inv = invert(s)
        except SingularMatrixError:
            raise NotCompatibleError(None, "jtilde is not an isomorphism onto the minus subspace") from None
    # J in the frame is [[0, -S^-1], [S, 0]], over the common denominator d
    m, d = s.n, lcm(s.den, s_inv.den)
    block = [[0] * m + [-v for v in row] for row in s_inv.num_over(d)]
    block += [list(row) + [0] * m for row in s.num_over(d)]
    j_op = split.frame * Matrix.over(block, d) * split.frame_inv

    return build_born(k.algebra, neutral_metric(k), omega * j_op, omega, expect_j=j_op)


# ---------------------------------------------------------------------------
# hypersymplectic structures and the circle family


class Hypersymplectic(Value):
    """Three symplectic forms whose recursion operators satisfy A^2=B^2=-J^2=Id.

    The derived metric is g(x, y) = alpha(x, B y).
    """

    __slots__ = ("algebra", "omega", "alpha", "beta", "a_op", "b_op", "j_op", "metric")


def build_hypersymplectic(
    L: LieAlgebra,
    omega: Matrix,
    alpha: Matrix,
    beta: Matrix,
    *,
    expect_a: Matrix | None = None,
    expect_b: Matrix | None = None,
    expect_j: Matrix | None = None,
    expect_metric: Matrix | None = None,
) -> Hypersymplectic:
    """Validate a hypersymplectic triple and derive its operators and metric.

    A = rec(omega, alpha), B = rec(omega, beta) and J = rec(alpha, beta)
    read the memoized inverses of omega and alpha that certified their
    nondegeneracy.

    The metric g(x, y) = alpha(x, By) is symmetric by construction, so it
    is not checked.  As alpha and beta are antisymmetric, A and B are
    omega-symmetric: omega(x, Ay) = -omega(Ay, x) = -alpha(y, x) =
    alpha(x, y) = omega(Ax, y), and likewise for B.  A^2 = B^2 = Id,
    J^2 = -Id and AJ = B, certified below, give J = AB and ABAB = -Id, so
    BA = -AB.  Hence alpha(x, By) = omega(Ax, By) = omega(BAx, y) =
    -omega(ABx, y) = -alpha(Bx, y) = alpha(y, Bx).
    """
    n = L.n
    for name, form in (("omega", omega), ("alpha", alpha), ("beta", beta)):
        if form.n != n:
            raise DimensionMismatchError("hypersymplectic data on mismatched dimensions")
        _require_form(name, form, symmetric=False)
        require_zero(name, ce_d2(L, form), NotClosedError)

    a_op = recursion_operator(omega, alpha)
    b_op = recursion_operator(omega, beta)
    j_op = recursion_operator(alpha, beta)

    ident = Matrix.identity(n)
    for name, defect in (
        ("A^2 = Id", a_op * a_op - ident),
        ("B^2 = Id", b_op * b_op - ident),
        ("J^2 = -Id", j_op * j_op + ident),
        ("AJ = B", a_op * j_op - b_op),
    ):
        require_zero(name, defect)

    metric = alpha * b_op
    _require_tables(
        ("A", expect_a, a_op), ("B", expect_b, b_op), ("J", expect_j, j_op), ("metric", expect_metric, metric)
    )

    # a given table, certified equal, is kept: what is memoized on it is shared
    return Hypersymplectic(L, omega, alpha, beta, a_op, b_op, j_op, metric if expect_metric is None else expect_metric)


class CirclePoint(Value):
    """Exact rational point on the unit circle.

    A rational parameter t maps to (cos, sin) = ((1-t^2)/(1+t^2), 2t/(1+t^2));
    theta = pi (the point t -> infinity) is the distinguished case (-1, 0).
    cos^2 + sin^2 = 1 holds exactly by construction.  Points are equal, and
    hash alike, by (cos, sin), whichever t named them.
    """

    __slots__ = ("t", "cos", "sin")
    _uncompared = ("t",)

    def __init__(self, t, cos, sin):
        if cos * cos + sin * sin != 1:
            raise ValueError("not a point on the unit circle")
        super().__init__(t, cos, sin)

    @classmethod
    def from_t(cls, t) -> "CirclePoint":
        t = rationalize(t)
        denom = 1 + t * t
        return cls(t, (1 - t * t) / denom, 2 * t / denom)

    @classmethod
    def theta_pi(cls) -> "CirclePoint":
        return cls(None, Fraction(-1), Fraction(0))

    def label(self) -> str:
        return "theta=pi" if self.t is None else f"t={format_rational(self.t)}"

    def __repr__(self):
        return f"CirclePoint({self.label()}, cos={format_rational(self.cos)}, sin={format_rational(self.sin)})"


@owned
def _family_hypotheses(hs: Hypersymplectic, jtilde: Matrix) -> None:
    """Certify the hypotheses of the circle family once per (hs, jtilde); a failure raises on every call."""
    for which, defect in (
        ("jtilde^2 = -Id", jtilde * jtilde + Matrix.identity(hs.algebra.n)),
        ("jtilde anti-commutes with A", anticommutator_defect(jtilde, hs.a_op)),
        ("jtilde anti-commutes with B", anticommutator_defect(jtilde, hs.b_op)),
        ("jtilde^* g = -g", pullback(jtilde, hs.metric) + hs.metric),
    ):
        require_zero(which, defect, HypothesisFailureError)


def s1_family(hs: Hypersymplectic, jtilde: Matrix, p: CirclePoint) -> BornStructure:
    """Born structure at one point of the circle family of a hypersymplectic triple.

    Hypotheses (checked exactly, once per (hs, jtilde)): jtilde^2 = -Id,
    jtilde anti-commutes with A and B, and jtilde^* g = -g for the
    hypersymplectic metric g.  The member is the diagram g -> beta_t (via
    I_t), g -> h_t (via Bt = jtilde I_t), beta_t -> h_t (via -jtilde), with
    beta_t = -sin * alpha + cos * beta and I_t = cos * A + sin * B.
    Each call builds a new member, which keeps what is computed from it; a
    failed hypothesis raises again on every call.

    The third leg needs no check of its own.  build_born derives
    J = -rec(beta_t, h_t), so beta_t(-J x, y) = h_t(x, y) by construction,
    and certifies J = jtilde entry for entry (expect_j); hence
    h_t(x, y) = beta_t(-jtilde x, y).
    """
    _family_hypotheses(hs, jtilde)
    beta_t = hs.alpha * (-p.sin) + hs.beta * p.cos
    i_t = hs.a_op * p.cos + hs.b_op * p.sin
    bt = jtilde * i_t
    h_t = bt.transpose() * hs.metric

    return build_born(
        hs.algebra,
        hs.metric,
        h_t,
        beta_t,
        expect_a=i_t,
        expect_b=bt,
        expect_j=jtilde,
    )
