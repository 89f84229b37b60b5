"""Almost Kunneth, Born and hypersymplectic structures with exact validation.

Constructors never trust their inputs: every defining identity is recomputed
and must hold with defect exactly zero, otherwise a typed error carrying a
witness is raised.  Derived operators are always recomputed from the defining
recursion relations; expected operator tables (e.g. transcribed from a
reference) can be passed in and are then cross-checked against the derived
ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .errors import (
    AxiomFailureError,
    DegenerateFormError,
    DimensionMismatchError,
    HypothesisFailureError,
    NotClosedError,
    NotCompatibleError,
    NotComplementaryError,
    NotIsotropicError,
)
from .exact import (
    Matrix,
    Subspace,
    determinant,
    format_rational,
    invert,
    rationalize,
    signature_of_symmetric,
)
from .liealg import LieAlgebra, ce_d2, is_subalgebra
from .multilinear import (
    ANTISYMMETRIC,
    SYMMETRIC,
    BilinearForm,
    Endomorphism,
    anticommutator_defect,
    involution_split,
    nijenhuis,
    pullback,
    recursion_operator,
)


@dataclass(frozen=True)
class Witness:
    """Exact counterexample: a 1-based index tuple and the offending value."""

    index: tuple
    value: str
    note: str = ""

    @classmethod
    def at(cls, index, value, note=""):
        return cls(tuple(index), format_rational(rationalize(value)), note)


@dataclass(frozen=True)
class CheckItem:
    name: str
    ok: bool
    witness: Optional[Witness] = None
    group: str = "algebra"  # algebra | eigenspace | signature


@dataclass(frozen=True)
class StructureReport:
    items: tuple

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)

    def failures(self):
        return [item for item in self.items if not item.ok]

    def first_witness(self) -> Optional[Witness]:
        for item in self.items:
            if not item.ok:
                return item.witness
        return None


def _matrix_witness(m: Matrix, note="") -> Optional[Witness]:
    hit = m.first_nonzero()
    if hit is None:
        return None
    i, j, value = hit
    return Witness.at((i, j), value, note)


# ---------------------------------------------------------------------------
# almost Kunneth structures


@dataclass(frozen=True)
class AlmostKunneth:
    """Non-degenerate 2-form with two complementary isotropic subspaces."""

    algebra: LieAlgebra
    omega: BilinearForm
    plus: Subspace
    minus: Subspace


def build_almost_kunneth(L: LieAlgebra, omega: BilinearForm, plus: Subspace, minus: Subspace) -> AlmostKunneth:
    n = L.n
    if omega.n != n or plus.n != n or minus.n != n:
        raise DimensionMismatchError("almost Kunneth data on mismatched dimensions")
    if omega.symmetry != ANTISYMMETRIC:
        raise DegenerateFormError("the 2-form must be antisymmetric")
    if determinant(omega.matrix) == 0:
        raise DegenerateFormError("the 2-form is degenerate")
    if not plus.is_complementary(minus):
        raise NotComplementaryError("subspaces do not decompose the space")
    for name, sub in (("plus", plus), ("minus", minus)):
        basis = sub.basis
        for a in range(len(basis)):
            for b in range(a + 1, len(basis)):
                value = omega.evaluate(basis[a], basis[b])
                if value != 0:
                    raise NotIsotropicError(name, (a + 1, b + 1), value)
    return AlmostKunneth(L, omega, plus, minus)


def almost_product(k: AlmostKunneth) -> Endomorphism:
    """The involution that is +Id on the plus subspace and -Id on the minus one."""
    p = Matrix.from_columns(list(k.plus.basis) + list(k.minus.basis))
    d = Matrix.diagonal([1] * k.plus.dim + [-1] * k.minus.dim)
    return Endomorphism(p * d * invert(p))


@lru_cache(maxsize=None)
def neutral_metric(k: AlmostKunneth) -> BilinearForm:
    """g(x, y) = omega(I x, y); symmetric of neutral signature by construction."""
    i_op = almost_product(k)
    m = i_op.matrix.transpose() * k.omega.matrix
    g = BilinearForm(m, SYMMETRIC)
    sig = signature_of_symmetric(m)
    half = k.algebra.n // 2
    if sig.as_tuple() != (half, half, 0):
        raise AxiomFailureError(f"neutral metric has signature {sig}", m)
    return g


# ---------------------------------------------------------------------------
# Born structures


@dataclass(frozen=True)
class BornStructure:
    """Two metrics and a 2-form whose recursion operators square correctly.

    a_op, b_op, j_op are derived from the defining relations
    g(A x, y) = omega(x, y), g(B x, y) = h(x, y), omega(-J x, y) = h(x, y)
    and satisfy A^2 = B^2 = Id, J^2 = -Id, AB = -J.  l_plus / l_minus are the
    (+1)/(-1) eigenspaces of A.
    """

    algebra: LieAlgebra
    g: BilinearForm
    h: BilinearForm
    omega: BilinearForm
    a_op: Endomorphism
    b_op: Endomorphism
    j_op: Endomorphism
    l_plus: Subspace
    l_minus: Subspace

    @lru_cache(maxsize=None)
    def underlying_kunneth(self) -> AlmostKunneth:
        return build_almost_kunneth(self.algebra, self.omega, self.l_plus, self.l_minus)


def _require_form(name: str, form: BilinearForm, symmetry: str):
    if form.symmetry != symmetry:
        raise DegenerateFormError(f"{name} must be {symmetry}")
    if determinant(form.matrix) == 0:
        raise DegenerateFormError(f"{name} is degenerate")


def build_born(
    L: LieAlgebra,
    g: BilinearForm,
    h: BilinearForm,
    omega: BilinearForm,
    *,
    expect_a: Optional[Endomorphism] = None,
    expect_b: Optional[Endomorphism] = None,
    expect_j: Optional[Endomorphism] = None,
) -> BornStructure:
    """Derive A, B, J from (g, h, omega) and certify the Born axioms.

    The operators are computed, never accepted as input, so commutativity of
    the diagram is a verified fact.  Optional expected operators are checked
    against the derived ones entry for entry.
    """
    n = L.n
    if g.n != n or h.n != n or omega.n != n:
        raise DimensionMismatchError("Born data on mismatched dimensions")
    _require_form("g", g, SYMMETRIC)
    _require_form("h", h, SYMMETRIC)
    _require_form("omega", omega, ANTISYMMETRIC)

    a_op = recursion_operator(g, omega)
    b_op = recursion_operator(g, h)
    j_op = recursion_operator(omega, h).negated()

    ident = Matrix.identity(n)
    for name, defect in (
        ("A^2 = Id", a_op.squared() - ident),
        ("B^2 = Id", b_op.squared() - ident),
        ("J^2 = -Id", j_op.squared() + ident),
        ("AB = -J", a_op.matrix * b_op.matrix + j_op.matrix),
    ):
        if not defect.is_zero():
            raise AxiomFailureError(name, defect)

    for name, expected, derived in (
        ("A matches expected table", expect_a, a_op),
        ("B matches expected table", expect_b, b_op),
        ("J matches expected table", expect_j, j_op),
    ):
        if expected is not None and expected != derived:
            raise AxiomFailureError(name, derived.matrix - expected.matrix)

    split = involution_split(a_op)
    return BornStructure(L, g, h, omega, a_op, b_op, j_op, split.plus, split.minus)


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


@lru_cache(maxsize=None)
def verify_born_identities(b: BornStructure) -> StructureReport:
    """Certify every algebraic identity of a Born structure, exactly.

    Covers ABJ = Id, pairwise anti-commutation, the eighteen transformation
    identities of (g, h, omega) under (A, B, J), eigenspace exchange,
    Lagrangian and orthogonality properties, and the two signature laws.
    """
    items = []
    n = b.algebra.n
    ident = Matrix.identity(n)
    forms = {"g": b.g, "h": b.h, "omega": b.omega}
    ops = {"A": b.a_op, "B": b.b_op, "J": b.j_op}

    defect = b.a_op.matrix * b.b_op.matrix * b.j_op.matrix - ident
    items.append(CheckItem("ABJ = Id", defect.is_zero(), _matrix_witness(defect)))
    for x, y in (("A", "B"), ("A", "J"), ("B", "J")):
        defect = anticommutator_defect(ops[x], ops[y])
        items.append(CheckItem(f"{x}{y} + {y}{x} = 0", defect.is_zero(), _matrix_witness(defect)))

    for form_name, op_name, both_sign, mixed_sign in IDENTITY_TABLE:
        m = forms[form_name].matrix
        t = ops[op_name].matrix
        sign = "" if both_sign == 1 else "-"
        defect = t.transpose() * m * t - m * both_sign
        items.append(
            CheckItem(
                f"{form_name}({op_name}x,{op_name}y) = {sign}{form_name}(x,y)",
                defect.is_zero(),
                _matrix_witness(defect),
            )
        )
        sign = "" if mixed_sign == 1 else "-"
        defect = t.transpose() * m - m * t * mixed_sign
        items.append(
            CheckItem(
                f"{form_name}({op_name}x,y) = {sign}{form_name}(x,{op_name}y)",
                defect.is_zero(),
                _matrix_witness(defect),
            )
        )

    b_split = involution_split(b.b_op)
    swaps = (
        ("J maps L+ to L-", b.j_op, b.l_plus, b.l_minus),
        ("J maps L- to L+", b.j_op, b.l_minus, b.l_plus),
        ("J maps B+ to B-", b.j_op, b_split.plus, b_split.minus),
        ("J maps B- to B+", b.j_op, b_split.minus, b_split.plus),
        ("A maps B+ to B-", b.a_op, b_split.plus, b_split.minus),
        ("A maps B- to B+", b.a_op, b_split.minus, b_split.plus),
        ("B maps L+ to L-", b.b_op, b.l_plus, b.l_minus),
        ("B maps L- to L+", b.b_op, b.l_minus, b.l_plus),
    )
    for name, op, source, target in swaps:
        ok = op.maps_subspace_into(source, target)
        items.append(CheckItem(name, ok, None, "eigenspace"))

    def pairing_items(name, form, left, right):
        out = []
        for a in range(len(left.basis)):
            start = a + 1 if left is right else 0
            for c in range(start, len(right.basis)):
                value = form.evaluate(left.basis[a], right.basis[c])
                if value != 0:
                    out.append(Witness.at((a + 1, c + 1), value))
        return CheckItem(name, not out, out[0] if out else None, "eigenspace")

    items.append(pairing_items("L+ Lagrangian for omega", b.omega, b.l_plus, b.l_plus))
    items.append(pairing_items("L- Lagrangian for omega", b.omega, b.l_minus, b.l_minus))
    items.append(pairing_items("B-eigenspaces g-orthogonal", b.g, b_split.plus, b_split.minus))
    items.append(pairing_items("A-eigenspaces h-orthogonal", b.h, b.l_plus, b.l_minus))
    items.append(pairing_items("B-eigenspaces h-orthogonal", b.h, b_split.plus, b_split.minus))

    sig_g = signature_of_symmetric(b.g.matrix)
    half = n // 2
    items.append(
        CheckItem(
            "signature(g) neutral",
            sig_g.as_tuple() == (half, half, 0),
            None if sig_g.as_tuple() == (half, half, 0) else Witness.at(sig_g.as_tuple(), 0),
            "signature",
        )
    )
    sig_h = signature_of_symmetric(b.h.matrix)
    h_ok = sig_h.null == 0 and sig_h.positive % 2 == 0 and sig_h.negative % 2 == 0
    items.append(
        CheckItem(
            "signature(h) = (2p,2q)",
            h_ok,
            None if h_ok else Witness.at(sig_h.as_tuple(), 0),
            "signature",
        )
    )
    return StructureReport(tuple(items))


@dataclass(frozen=True)
class IntegrabilityReport:
    """Closedness of omega plus the three Nijenhuis tensors, classified.

    A Born structure is integrable when omega is closed and at least two of
    N_A, N_B, N_J vanish (then all three do; the cross-check re-verifies the
    implication on each run).
    """

    closed: bool
    d_omega_witness: Optional[Witness]
    vanishing: dict
    nijenhuis_witnesses: dict
    plus_subalgebra: bool
    minus_subalgebra: bool
    integrable: bool
    two_implies_three: bool
    nijenhuis_matches_subalgebras: bool

    @property
    def ok(self) -> bool:
        return self.two_implies_three and self.nijenhuis_matches_subalgebras

    def first_witness(self) -> Optional[Witness]:
        if not self.closed:
            return self.d_omega_witness
        for name in ("A", "B", "J"):
            if not self.vanishing[name]:
                return self.nijenhuis_witnesses[name]
        return None


@lru_cache(maxsize=None)
def integrability_report(b: BornStructure) -> IntegrabilityReport:
    d_omega = ce_d2(b.algebra, b.omega)
    closed = d_omega.is_zero()
    d_witness = None
    if not closed:
        (idx, value) = d_omega.witnesses()[0]
        d_witness = Witness.at(idx, value, "d omega")

    tensors = {
        "A": nijenhuis(b.algebra, b.a_op),
        "B": nijenhuis(b.algebra, b.b_op),
        "J": nijenhuis(b.algebra, b.j_op),
    }
    vanishing = {name: t.is_zero() for name, t in tensors.items()}
    witnesses = {}
    for name, t in tensors.items():
        if vanishing[name]:
            witnesses[name] = None
        else:
            idx, value = t.witnesses()[0]
            witnesses[name] = Witness.at(idx, value, f"N_{name}")

    count = sum(vanishing.values())
    integrable = closed and count >= 2
    two_implies_three = count != 2

    plus_sub = bool(is_subalgebra(b.algebra, b.l_plus))
    minus_sub = bool(is_subalgebra(b.algebra, b.l_minus))
    matches = vanishing["A"] == (plus_sub and minus_sub)

    return IntegrabilityReport(
        closed=closed,
        d_omega_witness=d_witness,
        vanishing=vanishing,
        nijenhuis_witnesses=witnesses,
        plus_subalgebra=plus_sub,
        minus_subalgebra=minus_sub,
        integrable=integrable,
        two_implies_three=two_implies_three,
        nijenhuis_matches_subalgebras=matches,
    )


# ---------------------------------------------------------------------------
# enhancement of an almost Kunneth structure to a Born structure


def omega_dual_frame(k: AlmostKunneth):
    """Frames (f_i in plus, g_i in minus) with omega(f_i, g_j) = delta_ij.

    Exact symplectic Gram-Schmidt: keep the echelon basis of the plus
    subspace and absorb the inverse pairing matrix into the minus basis.
    Deterministic by the lowest-index pivoting of the echelon bases.
    """
    f_basis = list(k.plus.basis)
    g_raw = list(k.minus.basis)
    m = len(f_basis)
    pairing = Matrix(
        [[k.omega.evaluate(f_basis[i], g_raw[j]) for j in range(m)] for i in range(m)]
    )
    inv = invert(pairing)
    g_basis = []
    for j in range(m):
        col = inv.column(j)
        vec = tuple(
            sum(col[r] * g_raw[r][c] for r in range(m)) for c in range(k.algebra.n)
        )
        g_basis.append(vec)
    return f_basis, g_basis


def enhance_kunneth(k: AlmostKunneth, jtilde: Optional[Endomorphism] = None) -> BornStructure:
    """Complete an almost Kunneth structure to a Born structure.

    jtilde, when given, must restrict to an isomorphism plus -> minus with
    omega(Jt x, y) = -omega(x, Jt y) on the plus subspace.  When absent, the
    omega-dual frame construction is used (then h is positive definite).  The
    complex structure is assembled as J = Jt on plus and -Jt^(-1) on minus,
    and h(x, y) = omega(x, J y).
    """
    n = k.algebra.n
    f_basis = list(k.plus.basis)
    if jtilde is None:
        f_basis, g_images = omega_dual_frame(k)
    else:
        if jtilde.n != n:
            raise DimensionMismatchError("jtilde dimension mismatch")
        g_images = [jtilde.apply(f) for f in f_basis]
        for idx, image in enumerate(g_images):
            if not k.minus.contains(image):
                raise NotCompatibleError(
                    (idx + 1,), 0, "jtilde does not map the plus subspace into the minus one"
                )
        for a in range(len(f_basis)):
            for c in range(len(f_basis)):
                value = k.omega.evaluate(g_images[a], f_basis[c]) + k.omega.evaluate(
                    f_basis[a], g_images[c]
                )
                if value != 0:
                    raise NotCompatibleError((a + 1, c + 1), value)

    m = len(f_basis)
    p = Matrix.from_columns(f_basis + list(k.minus.basis))
    # express each jtilde image in the (f, minus-basis) coordinates; the
    # first m coordinates must vanish, leaving the m x m block S
    p_inv = invert(p)
    s_cols = []
    for image in g_images:
        coords = p_inv.matvec(image)
        if any(c != 0 for c in coords[:m]):
            raise NotCompatibleError((0,), 0, "jtilde image leaves the minus subspace")
        s_cols.append(coords[m:])
    s = Matrix.from_columns(s_cols)
    if determinant(s) == 0:
        raise NotCompatibleError((0,), 0, "jtilde is not an isomorphism onto the minus subspace")
    s_inv = invert(s)
    zero = Matrix.zero(m)
    block = [[zero.rows[i][j] for j in range(m)] + [-s_inv.rows[i][j] for j in range(m)] for i in range(m)]
    block += [[s.rows[i][j] for j in range(m)] + [zero.rows[i][j] for j in range(m)] for i in range(m)]
    j_op = Endomorphism(p * Matrix(block) * p_inv)

    g = neutral_metric(k)
    h = BilinearForm(k.omega.matrix * j_op.matrix, SYMMETRIC)
    return build_born(k.algebra, g, h, k.omega, expect_j=j_op)


# ---------------------------------------------------------------------------
# hypersymplectic structures and the circle family


@dataclass(frozen=True)
class Hypersymplectic:
    """Three symplectic forms whose recursion operators satisfy A^2=B^2=-J^2=Id.

    The derived metric is g(x, y) = alpha(x, B y).
    """

    algebra: LieAlgebra
    omega: BilinearForm
    alpha: BilinearForm
    beta: BilinearForm
    a_op: Endomorphism
    b_op: Endomorphism
    j_op: Endomorphism
    metric: BilinearForm


def build_hypersymplectic(
    L: LieAlgebra,
    omega: BilinearForm,
    alpha: BilinearForm,
    beta: BilinearForm,
    *,
    expect_a: Optional[Endomorphism] = None,
    expect_b: Optional[Endomorphism] = None,
    expect_j: Optional[Endomorphism] = None,
    expect_metric: Optional[BilinearForm] = None,
) -> Hypersymplectic:
    """Validate a hypersymplectic triple and derive its operators and metric."""
    n = L.n
    named = (("omega", omega), ("alpha", alpha), ("beta", beta))
    for name, form in named:
        if form.n != n:
            raise DimensionMismatchError("hypersymplectic data on mismatched dimensions")
        _require_form(name, form, ANTISYMMETRIC)
        d = ce_d2(L, form)
        if not d.is_zero():
            idx, value = d.witnesses()[0]
            raise NotClosedError(name, idx, value)

    a_op = recursion_operator(omega, alpha)
    b_op = recursion_operator(omega, beta)
    j_op = recursion_operator(alpha, beta)

    ident = Matrix.identity(n)
    for name, defect in (
        ("A^2 = Id", a_op.squared() - ident),
        ("B^2 = Id", b_op.squared() - ident),
        ("J^2 = -Id", j_op.squared() + ident),
        ("AJ = B", a_op.matrix * j_op.matrix - b_op.matrix),
    ):
        if not defect.is_zero():
            raise AxiomFailureError(name, defect)

    metric_matrix = alpha.matrix * b_op.matrix
    if not metric_matrix.is_symmetric():
        raise AxiomFailureError("hypersymplectic metric alpha(x, By) is not symmetric", metric_matrix)
    metric = BilinearForm(metric_matrix, SYMMETRIC)

    for name, expected, derived in (
        ("A matches expected table", expect_a, a_op.matrix),
        ("B matches expected table", expect_b, b_op.matrix),
        ("J matches expected table", expect_j, j_op.matrix),
        ("metric matches expected table", expect_metric, metric_matrix),
    ):
        if expected is not None:
            expected_matrix = expected.matrix
            if expected_matrix != derived:
                raise AxiomFailureError(name, derived - expected_matrix)

    return Hypersymplectic(L, omega, alpha, beta, a_op, b_op, j_op, metric)


class CirclePoint:
    """Exact rational point on the unit circle.

    A rational parameter t maps to (cos, sin) = ((1-t^2)/(1+t^2), 2t/(1+t^2));
    theta = pi (the point t -> infinity) is the distinguished case (-1, 0).
    cos^2 + sin^2 = 1 holds exactly by construction.
    """

    __slots__ = ("t", "cos", "sin")

    def __init__(self, t, cos, sin):
        if cos * cos + sin * sin != 1:
            raise ValueError("not a point on the unit circle")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "cos", cos)
        object.__setattr__(self, "sin", sin)

    def __setattr__(self, name, value):
        raise AttributeError("CirclePoint is immutable")

    @classmethod
    def from_t(cls, t) -> "CirclePoint":
        t = rationalize(t)
        denom = 1 + t * t
        return cls(t, (1 - t * t) / denom, 2 * t / denom)

    @classmethod
    def theta_pi(cls) -> "CirclePoint":
        return cls(None, Fraction(-1), Fraction(0))

    def antipode(self) -> "CirclePoint":
        if self.t is None:
            return CirclePoint.from_t(0)
        if self.t == 0:
            return CirclePoint.theta_pi()
        return CirclePoint.from_t(-1 / self.t)

    def label(self) -> str:
        return "theta=pi" if self.t is None else f"t={format_rational(self.t)}"

    def __eq__(self, other):
        return isinstance(other, CirclePoint) and (self.cos, self.sin) == (other.cos, other.sin)

    def __repr__(self):
        return f"CirclePoint({self.label()}, cos={self.cos}, sin={self.sin})"


def s1_family(hs: Hypersymplectic, jtilde: Endomorphism, p: CirclePoint) -> BornStructure:
    """Born structure at one point of the circle family of a hypersymplectic triple.

    Hypotheses (checked exactly): jtilde^2 = -Id, jtilde anti-commutes with A
    and B, and jtilde^* g = -g for the hypersymplectic metric g.  The member
    is the diagram g -> beta_t (via I_t), g -> h_t (via Bt = jtilde I_t),
    beta_t -> h_t (via -jtilde), with
    beta_t = -sin * alpha + cos * beta and I_t = cos * A + sin * B.
    """
    n = hs.algebra.n
    ident = Matrix.identity(n)
    defect = jtilde.squared() + ident
    if not defect.is_zero():
        raise HypothesisFailureError("jtilde^2 = -Id", defect)
    for name, op in (("A", hs.a_op), ("B", hs.b_op)):
        defect = anticommutator_defect(jtilde, op)
        if not defect.is_zero():
            raise HypothesisFailureError(f"jtilde anti-commutes with {name}", defect)
    defect = pullback(jtilde, hs.metric).matrix + hs.metric.matrix
    if not defect.is_zero():
        raise HypothesisFailureError("jtilde^* g = -g", defect)

    beta_t = BilinearForm(
        hs.alpha.matrix * (-p.sin) + hs.beta.matrix * p.cos, ANTISYMMETRIC
    )
    i_t = Endomorphism(hs.a_op.matrix * p.cos + hs.b_op.matrix * p.sin)
    bt = jtilde.compose(i_t)
    h_t = BilinearForm(bt.matrix.transpose() * hs.metric.matrix, SYMMETRIC)

    born = build_born(
        hs.algebra,
        hs.metric,
        h_t,
        beta_t,
        expect_a=i_t,
        expect_b=bt,
        expect_j=jtilde,
    )
    # third leg of the diagram: h_t(x, y) = beta_t(-jtilde x, y)
    defect = jtilde.matrix.transpose() * beta_t.matrix + h_t.matrix
    if not defect.is_zero():
        raise AxiomFailureError("beta_t -> h_t leg of the family diagram", defect)
    return born
