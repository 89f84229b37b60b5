"""Almost Kunneth, Born and hypersymplectic structure validation."""

import random
from fractions import Fraction

import pytest

from bornlab import (
    AlmostKunneth,
    BornStructure,
    CirclePoint,
    LieAlgebra,
    Matrix,
    Subspace,
    build_almost_kunneth,
    build_born,
    build_hypersymplectic,
    enhance_kunneth,
    integrability_report,
    neutral_metric,
    s1_family,
    Signature,
    signature_of_symmetric,
    structures,
    verify_born_identities,
)
from bornlab.catalog import family_member
from bornlab.errors import (
    AxiomFailureError,
    DegenerateFormError,
    HypothesisFailureError,
    NotClosedError,
    NotCompatibleError,
    NotComplementaryError,
    NotIsotropicError,
    NotSymmetricError,
)
from bornlab.exact import determinant, invert, splitting
from bornlab.liealg import ce_d2
from bornlab.multilinear import nijenhuis, pullback, symmetric_form, two_form
from bornlab.structures import witness_at
from conftest import structures_of
from oracles import (
    BornData,
    antipode,
    basis_vector,
    born_data,
    column,
    diagonal,
    evaluate,
    fresh,
    from_columns,
    integrability_legs,
    integrable,
    reference_identity_table,
)
from phase_spaces import ALGEBRAS, phase_space, phase_space_borns, sheared
from test_builders import moved_algebra, random_unimodular
from test_exact import random_invertible
from test_frames import (
    SEEDS,
    born_cases,
    kunneth_cases,
    moved_form,
    moved_subspace,
    random_matrix,
    random_splitting,
)
from test_liealg import random_semidirect, random_two_step


@pytest.fixture(scope="module")
def h4_kunneth(h4_algebra):
    omega = two_form(6, {(1, 3): 1, (2, 6): 1, (4, 5): 1})
    plus = Subspace(6, [basis_vector(6, i) for i in (0, 1, 4)])
    minus = Subspace(6, [basis_vector(6, i) for i in (2, 3, 5)])
    return build_almost_kunneth(h4_algebra, omega, plus, minus)


@pytest.fixture(scope="module")
def nil3_hypersymplectic(nil3):
    return build_hypersymplectic(
        nil3,
        two_form(4, {(1, 3): -1, (2, 4): 1}),
        two_form(4, {(1, 4): 1, (2, 3): -1}),
        two_form(4, {(1, 3): -1, (2, 4): -1}),
    )


@pytest.fixture(scope="module")
def nil3_jtilde():
    return from_columns([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])


# --- almost Kunneth -----------------------------------------------------


def test_build_almost_kunneth_h4(h4_kunneth):
    assert h4_kunneth.plus.dim == h4_kunneth.minus.dim == 3


def test_build_almost_kunneth_r2():
    L = LieAlgebra(2, {})
    k = build_almost_kunneth(L, two_form(2, {(1, 2): 1}), Subspace(2, [[1, 0]]), Subspace(2, [[0, 1]]))
    assert evaluate(k.omega.rows, (1, 0), (0, 1)) == 1


def test_build_almost_kunneth_isotropy_witness(h4_algebra):
    omega = two_form(6, {(1, 3): 1, (2, 6): 1, (4, 5): 1})
    bad_plus = Subspace(6, [basis_vector(6, i) for i in (0, 2, 4)])  # contains e1, e3
    minus = Subspace(6, [basis_vector(6, i) for i in (1, 3, 5)])
    with pytest.raises(NotIsotropicError) as info:
        build_almost_kunneth(h4_algebra, omega, bad_plus, minus)
    assert info.value.hit == ((1, 2), 1)  # omega(x_1, x_2) = omega(e1, e3) = 1


def test_build_almost_kunneth_not_complementary(nil3):
    omega = two_form(4, {(1, 3): -1, (2, 4): 1})
    with pytest.raises(NotComplementaryError):
        build_almost_kunneth(
            nil3, omega, Subspace(4, [[1, 0, 0, 0]]), Subspace(4, [[0, 1, 0, 0]])
        )


# --- almost product and neutral metric ----------------------------------


def test_almost_product_r2():
    L = LieAlgebra(2, {})
    k = build_almost_kunneth(L, two_form(2, {(1, 2): 1}), Subspace(2, [[1, 0]]), Subspace(2, [[0, 1]]))
    assert k.split.involution == diagonal([1, -1])


def test_almost_product_h4(h4_kunneth):
    assert h4_kunneth.split.involution == diagonal([1, 1, -1, -1, 1, -1])


def test_almost_product_fixture_splitting(nil3):
    k = build_almost_kunneth(
        nil3,
        two_form(4, {(1, 2): 1, (4, 3): 1}),
        Subspace(4, [[1, 0, 0, 0], [0, 0, 0, 1]]),
        Subspace(4, [[0, 1, 0, 0], [0, 0, 1, 0]]),
    )
    assert k.split.involution == diagonal([1, -1, -1, 1])


def test_neutral_metric_r2():
    # g(x, y) = omega(Ix, y) with I = diag(1, -1) and omega = a1 ^ a2 gives
    # the hyperbolic pairing +(a1*a2 + a2*a1); restricted to F and G it is
    # identically zero, matching the isotropy of the splitting
    L = LieAlgebra(2, {})
    k = build_almost_kunneth(L, two_form(2, {(1, 2): 1}), Subspace(2, [[1, 0]]), Subspace(2, [[0, 1]]))
    g = neutral_metric(k)
    assert g == symmetric_form(2, {(1, 2): 1})
    assert signature_of_symmetric(g) == Signature(1, 1, 0)


def test_neutral_metric_is_neutral_catalog_wide(catalog_models):
    for entry in catalog_models.values():
        for k in structures_of(entry, "kunneth"):
            sig = signature_of_symmetric(neutral_metric(k))
            half = k.algebra.n // 2
            assert sig == Signature(half, half, 0)


def test_neutral_metric_null_on_subspaces(catalog_models):
    for entry in catalog_models.values():
        for k in structures_of(entry, "kunneth"):
            g, omega = neutral_metric(k).rows, k.omega.rows
            for sub, sign in ((k.plus, 1), (k.minus, -1)):
                for x in sub.basis:
                    assert evaluate(g, x, x) == 0
                    for y in sub.basis:
                        # g agrees with +-omega on each subspace (both vanish)
                        assert evaluate(g, x, y) == sign * evaluate(omega, x, y) == 0


# --- Born structures ----------------------------------------------------


def test_build_born_standard_c1():
    L = LieAlgebra(2, {})
    omega = two_form(2, {(1, 2): 1})
    h = symmetric_form(2, {(1, 1): 1, (2, 2): 1})
    g = symmetric_form(2, {(1, 2): 1})
    born = build_born(L, g, h, omega)
    assert born.a_op == diagonal([1, -1])
    assert born.j_op == from_columns([[0, 1], [-1, 0]])
    # the opposite sign of g is a Born structure too, with A and B negated
    flipped = build_born(L, -g, h, omega)
    assert flipped.a_op == -born.a_op
    assert flipped.b_op == -born.b_op
    assert flipped.j_op == born.j_op


def test_build_born_sign_flip_invariant(catalog_models):
    for name in ("h4", "h9_corrected", "torus_2_2"):
        for born in structures_of(catalog_models[name], "born"):
            flipped = build_born(born.algebra, -born.g, born.h, born.omega)
            assert flipped.a_op == -born.a_op
            assert flipped.b_op == -born.b_op
            assert flipped.j_op == born.j_op


def test_build_born_h4_from_enhancement_data(h4_algebra, h4_kunneth):
    j = from_columns(
        [
            [0, 0, -2, 0, 0, 0],
            [0, 0, 0, -1, 0, 0],
            [Fraction(1, 2), 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, -1, 0],
        ]
    )
    g = neutral_metric(h4_kunneth)
    h = h4_kunneth.omega * j
    born = build_born(h4_algebra, g, h, h4_kunneth.omega, expect_j=j)
    assert born.a_op == h4_kunneth.split.involution


def test_build_born_axiom_failure_j_squared():
    # with h = g the operator from omega to h does not square to -Id
    L = LieAlgebra(2, {})
    g = symmetric_form(2, {(1, 2): 1})
    omega = two_form(2, {(1, 2): 1})
    with pytest.raises(AxiomFailureError) as info:
        build_born(L, g, g, omega)
    assert "J^2" in info.value.which


# the circle family's points that the nil3_r catalog entry expects to pass, theta = pi among them
FAMILY_POINTS = tuple(CirclePoint.from_t(t) for t in (0, 1, -1, Fraction(1, 2), 2, Fraction(3, 5))) + (
    CirclePoint.theta_pi(),
)


def assert_recursion_relation(a, t, b):
    """a(T e_i, e_j) = b(e_i, e_j) on every basis pair, each side evaluated on its own."""
    n, rows = a.n, a.rows
    for i in range(n):
        image = t.matvec(basis_vector(n, i))
        for j in range(n):
            assert evaluate(rows, image, basis_vector(n, j)) == b.entry(i + 1, j + 1), (i + 1, j + 1)


def test_build_born_operators_are_the_recursion_operators(catalog_models, catalog_structures):
    """g(Ax, y) = omega(x, y), g(Bx, y) = h(x, y) and omega(-Jx, y) = h(x, y)
    pair by pair, on the catalog's Born structures, in seeded bases, and at
    the circle family's catalog points."""
    borns = [b for _, b in born_cases(catalog_models, catalog_structures)]
    borns += [family_member(catalog_models["nil3_r"], p) for p in FAMILY_POINTS]
    for born in borns:
        assert_recursion_relation(born.g, born.a_op, born.omega)
        assert_recursion_relation(born.g, born.b_op, born.h)
        assert_recursion_relation(born.omega, -born.j_op, born.h)


def _first_degenerate(build, forms, singular, name):
    """The builder accepts forms, rejects `name` as degenerate when it alone is
    singular, and still rejects `name` first when the later forms are singular too."""
    build(*forms.values())
    names = list(forms)
    for bad in ({name}, set(names[names.index(name):])):
        args = [singular[f] if f in bad else forms[f] for f in names]
        with pytest.raises(DegenerateFormError) as info:
            build(*args)
        assert str(info.value) == f"{name} is degenerate"


@pytest.mark.parametrize("name", ["g", "h", "omega"])
def test_build_born_rejects_each_degenerate_form_in_order(name):
    forms = {
        "g": symmetric_form(2, {(1, 2): 1}),
        "h": symmetric_form(2, {(1, 1): 1, (2, 2): 1}),
        "omega": two_form(2, {(1, 2): 1}),
    }
    singular = {
        "g": symmetric_form(2, {(1, 1): 1}),
        "h": symmetric_form(2, {(2, 2): 1}),
        "omega": Matrix.zero(2),
    }
    _first_degenerate(lambda *f: build_born(LieAlgebra(2, {}), *f), forms, singular, name)


def _rejects_wrong_symmetry(build, forms, name, symmetry):
    """The builder accepts forms, and rejects `name` with NotSymmetricError when
    it is replaced by a nondegenerate matrix of the other symmetry (the identity,
    or e^12 on the plane) or by one of neither (the identity plus E_12)."""
    build(*forms.values())
    n = forms[name].n
    other = Matrix.identity(n) if symmetry == "antisymmetric" else two_form(2, {(1, 2): 1})
    neither = Matrix.identity(n) + Matrix([[int((i, j) == (0, 1)) for j in range(n)] for i in range(n)])
    for wrong in (other, neither):
        assert determinant(wrong) != 0
        with pytest.raises(NotSymmetricError, match=f"^{name} must be {symmetry}$"):
            build(*{**forms, name: wrong}.values())


@pytest.mark.parametrize("name", ["g", "h", "omega"])
def test_build_born_rejects_a_form_of_the_wrong_symmetry(name):
    forms = {
        "g": symmetric_form(2, {(1, 2): 1}),
        "h": symmetric_form(2, {(1, 1): 1, (2, 2): 1}),
        "omega": two_form(2, {(1, 2): 1}),
    }
    symmetry = "antisymmetric" if name == "omega" else "symmetric"
    _rejects_wrong_symmetry(lambda *f: build_born(LieAlgebra(2, {}), *f), forms, name, symmetry)


def test_build_almost_kunneth_rejects_a_form_of_the_wrong_symmetry():
    plus, minus = Subspace(2, [[1, 0]]), Subspace(2, [[0, 1]])
    _rejects_wrong_symmetry(
        lambda w: build_almost_kunneth(LieAlgebra(2, {}), w, plus, minus),
        {"the 2-form": two_form(2, {(1, 2): 1})},
        "the 2-form",
        "antisymmetric",
    )


# --- identity table -----------------------------------------------------


def test_identities_pass_on_all_catalog_borns(catalog_models):
    for entry in catalog_models.values():
        for born in structures_of(entry, "born"):
            assert len(verify_born_identities(born)) == 37


def test_identities_fail_on_corrupted_structure(catalog_models):
    born = structures_of(catalog_models["h4"], "born")[0]
    rows = [list(r) for r in born.h.rows]
    rows[0][0] = -rows[0][0]  # flip h(e1, e1) = -2 to 2
    h_bad = Matrix(rows)
    with pytest.raises(AxiomFailureError):
        build_born(born.algebra, born.g, h_bad, born.omega)


def built_borns(catalog_models, catalog_structures):
    """Born structures that build_born certified: the catalog's, each also in
    seeded bases, nil3_r's circle family at seeded t and at theta = pi, the
    phase spaces plain and sheared, and enhancements of random Kunneth data."""
    rng = random.Random(67)
    borns = [b for _, b in born_cases(catalog_models, catalog_structures)]
    points = [CirclePoint.from_t(Fraction(rng.randint(-40, 40), rng.randint(1, 40))) for _ in range(12)]
    borns += [family_member(catalog_models["nil3_r"], p) for p in points + [CirclePoint.theta_pi()]]
    borns += [b for _, _, b in phase_space_borns()]
    borns += [enhance_kunneth(sheared(phase_space(*a), random.Random(seed))) for a in ALGEBRAS for seed in (1, 2)]
    borns += [enhance_kunneth(random_kunneth(rng)) for _ in range(12)]
    return borns


def test_identity_table_matches_product_formulas(catalog_models, catalog_structures):
    """verify_born_identities proves the 37 items from build_born's
    certificates; on every built structure the table computed from matrix
    products on the raw data passes item for item, with the same names in
    the same order."""
    borns = built_borns(catalog_models, catalog_structures)
    for b in borns:
        table = reference_identity_table(born_data(b))
        assert tuple(name for name, _, _ in table) == verify_born_identities(b)
        assert all(witness is None for _, _, witness in table)
    assert len(borns) >= 70 and len(table) == 37


def test_built_structures_decide_the_identity_table_in_the_frame(catalog_models, catalog_structures):
    """Every built Born structure is para-quaternionic: in the frame of the
    echelon basis f_a of L+ followed by the B f_a, A = diag(Id, -Id), B swaps
    the halves and J = BA, and the raw data moved into that frame passes the
    reference table item for item as verify_born_identities reports."""
    borns = built_borns(catalog_models, catalog_structures)
    for b in borns:
        n, m = b.algebra.n, b.algebra.n // 2
        frame = list(b.kunneth.plus.basis) + [b.b_op.matvec(f) for f in b.kunneth.plus.basis]
        p = Matrix([list(row) for row in zip(*frame)])
        p_inv = invert(p)
        a, bb, j = (p_inv * t * p for t in (b.a_op, b.b_op, b.j_op))
        assert a == diagonal([1] * m + [-1] * m)
        assert bb == Matrix([[1 if abs(r - c) == m else 0 for c in range(n)] for r in range(n)])
        assert j == bb * a
        moved = BornData(
            *(moved_form(w, p) for w in (b.g, b.h, b.omega)),
            a, bb, j, moved_subspace(b.kunneth.plus, p_inv), moved_subspace(b.kunneth.minus, p_inv),
        )
        table = reference_identity_table(moved)
        assert tuple(name for name, _, _ in table) == verify_born_identities(b)
        assert all(witness is None for _, _, witness in table)
    assert len(borns) >= 70


def test_a_born_structure_holds_the_kunneth_structure_it_certified(catalog_models, catalog_structures):
    """build_born keeps (omega, L+, L-) as the Kunneth structure that
    build_almost_kunneth would certify, with the splitting of A as its proof,
    and enhancing that Kunneth structure gives it back."""
    borns = built_borns(catalog_models, catalog_structures)
    for b in borns:
        k = b.kunneth
        assert k == build_almost_kunneth(b.algebra, b.omega, k.plus, k.minus)
        assert k.split == splitting(k.plus, k.minus)
        assert k.split.involution == b.a_op
        assert enhance_kunneth(k).kunneth == k
    assert len(borns) >= 70


def test_the_born_metric_is_the_neutral_metric_of_its_kunneth_structure(catalog_models, catalog_structures):
    """With A = `b.kunneth.split.involution`, omega(Ax, y) = g(A^2 x, y) =
    g(x, y): the Born metric is the neutral metric of its Kunneth structure,
    so the Kunneth rows decided on `b.kunneth` (nabla^g in the connections
    row among them) are the Born structure's own."""
    borns = built_borns(catalog_models, catalog_structures)
    for b in borns:
        assert neutral_metric(b.kunneth) == b.g
    assert len(borns) >= 70


def forged_borns(catalog_structures):
    """Raw data of built Born structures with one of g, h, omega replaced by
    a random form of its symmetry, and h4's with L- replaced by
    span(f_a + J f_a); no builder returns any of them."""
    rng = random.Random(71)
    out = []
    for s in catalog_structures.values():
        for b in s["borns"]:
            for name in ("g", "h", "omega"):
                m = random_matrix(b.algebra.n, rng, density=0.8)
                form = m - m.transpose() if name == "omega" else m + m.transpose()
                out.append(born_data(b)._replace(**{name: form}))
    b = catalog_structures["h4"]["borns"][0]
    tilted = Subspace(b.algebra.n, [tuple(map(sum, zip(f, b.j_op.matvec(f)))) for f in b.kunneth.plus.basis])
    out.append(born_data(b)._replace(l_minus=tilted))
    return out


def test_forged_tuples_fail_the_reference_table_with_witnesses(catalog_structures):
    """On forged data the product table fails, and every failing item carries
    a witness; with L- tilted off the -1 eigenspace of A, exactly the items
    that read L- fail."""
    forged = forged_borns(catalog_structures)
    tables = [reference_identity_table(d) for d in forged]
    assert sum(any(w is not None for _, _, w in table) for table in tables) >= len(forged) - 3
    for table in tables:
        for name, _, witness in table:
            assert witness is None or witness.value != "0" or name.startswith("signature"), name
    failing = [name for name, _, witness in tables[-1] if witness is not None]
    assert failing == [
        "J maps L+ to L-", "J maps L- to L+", "B maps L+ to L-", "B maps L- to L+", "A-eigenspaces h-orthogonal",
    ]


def test_eigenspace_exchange_failures_carry_the_block_entry():
    """Raw data with random A and J breaks the eigenspace exchanges of the
    reference table; each failing item's witness (a, c) = value is the entry
    of the operator's diagonal block in the frame of the two eigenspaces,
    as the engine's `Splitting.block_witness` reads it."""
    rng = random.Random(59)
    failures = 0
    for n in (2, 4, 6):
        for _ in range(3):
            m, k = random_matrix(n, rng), random_matrix(n, rng)
            p = random_invertible(rng, n)
            signs = [1, -1] + [rng.choice((1, -1)) for _ in range(n - 2)]
            split = random_splitting(n, rng)
            d = BornData(
                m + m.transpose(), k + k.transpose(), m - m.transpose(), random_matrix(n, rng),
                p * diagonal(signs) * invert(p), random_matrix(n, rng), split.plus, split.minus,
            )
            columns = p.transpose().rows
            frames = {
                "L": split,
                "B": splitting(*(Subspace(n, [c for c, s in zip(columns, signs) if s == sign]) for sign in (1, -1))),
            }
            ops = {"A": d.a, "B": d.b, "J": d.j}
            for name, _, witness in reference_identity_table(d):
                if " maps " not in name:
                    continue
                op_name, _, source, _, _ = name.split()  # "J maps L+ to L-"
                frame = frames[source[0]]
                side = source[1]
                assert witness == witness_at(frame.block_witness(frame.in_frame(ops[op_name]), side, side)), name
                failures += witness is not None
    assert failures > 50


def test_structures_exist_only_as_their_builders_made_them(catalog_structures):
    """BornStructure and AlmostKunneth cannot be built around their builders,
    so no uncertified data reaches the proofs of the identity table and the
    connections."""
    b = catalog_structures["h4"]["borns"][0]
    with pytest.raises(TypeError, match="build_born"):
        BornStructure(b.algebra, b.g, b.h, b.omega, b.a_op, b.b_op, b.j_op, b.kunneth)
    k = b.kunneth
    with pytest.raises(TypeError, match="build_almost_kunneth"):
        AlmostKunneth(k.algebra, k.omega, k.plus, k.minus, k.split, k.metric)
    with pytest.raises(TypeError, match="build_almost_kunneth"):
        AlmostKunneth(k.algebra, k.omega, k.plus, k.minus, k.split, k.metric, key=object())


def test_torus_2_2_signature(catalog_models):
    born = structures_of(catalog_models["torus_2_2"], "born")[0]
    assert signature_of_symmetric(born.h) == Signature(2, 2, 0)


# --- integrability ------------------------------------------------------


def test_integrability_h4(catalog_models):
    born = structures_of(catalog_models["h4"], "born")[0]
    assert integrability_report(born) is None
    assert integrability_legs(born) == (None,) * 6


def test_integrability_abelian(catalog_models):
    for name in ("abelian_c1", "abelian_c2", "abelian_c3", "abelian_c4"):
        born = structures_of(catalog_models[name], "born")[0]
        assert integrability_report(born) is None and integrable(born)


def test_integrability_fixture_fails_on_closedness(nil3):
    k = build_almost_kunneth(
        nil3,
        two_form(4, {(1, 2): 1, (4, 3): 1}),
        Subspace(4, [[1, 0, 0, 0], [0, 0, 0, 1]]),
        Subspace(4, [[0, 1, 0, 0], [0, 0, 1, 0]]),
    )
    born = enhance_kunneth(k)
    witness = integrability_report(born)
    assert witness.index == (1, 2, 4) and witness.note == "d omega"
    assert not ce_d2(nil3, born.omega).is_zero()
    # the obstruction is closedness alone: all three operators are integrable
    assert all(nijenhuis(nil3, op).is_zero() for op in (born.a_op, born.b_op, born.j_op))


def test_two_nijenhuis_imply_third_across_catalog(catalog_models):
    for entry in catalog_models.values():
        for born in structures_of(entry, "born"):
            _, n_a, n_b, n_j, l_plus, l_minus = integrability_legs(born)
            assert [n_a, n_b, n_j].count(None) != 2
            assert (n_a is None) == (l_plus is None and l_minus is None)


# (k, strict) of the phase spaces random_kunneth draws: aff(1), of dim 2, and
# those of strictly upper triangular 3x3 and upper triangular 2x2 matrices, of dim 6
DRAWN_PHASE_SPACES = ((1, False), (3, True), (2, False))


def random_kunneth(rng):
    """Random Kunneth data, with a closed form on half of the draws.

    A closed draw is a phase space of `phase_spaces`, sheared on half of
    them, in a seeded unimodular basis.  Its omega-dual enhancement is
    integrable on aff(1), where every form is closed and every line a
    subalgebra, and otherwise fails at N_B, or at N_A once sheared.

    Any other draw sits on a random solvable algebra: plus and minus are the
    first and last n/2 columns of an invertible frame P, and omega reads
    [[0, S], [-S^T, 0]] on that frame for a random invertible S, so as a
    rule d omega != 0.  On half of the semidirect algebras plus lies in the
    abelian ideal spanned by e_2..e_n, so it is a subalgebra while minus
    need not be."""
    if rng.random() < 0.5:
        k = phase_space(*rng.choice(DRAWN_PHASE_SPACES))
        if rng.random() < 0.5:
            k = sheared(k, rng)
        p = random_unimodular(k.algebra.n, rng)
        p_inv = invert(p)
        return build_almost_kunneth(
            moved_algebra(k.algebra, p),
            moved_form(k.omega, p),
            moved_subspace(k.plus, p_inv),
            moved_subspace(k.minus, p_inv),
        )
    n = rng.choice((4, 6))
    build = rng.choice((random_semidirect, random_two_step))
    L = build(n, rng)
    m = n // 2
    in_ideal = build is random_semidirect and rng.random() < 0.5
    while True:
        p = random_unimodular(n, rng)
        if in_ideal:
            p = Matrix([[int(c == m) for c in range(n)]] + [list(r) for r in p.rows[1:]])
        if determinant(p) != 0:
            break
    while True:
        s = Matrix([[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)])
        if determinant(s) != 0:
            break
    frame_omega = [[0] * m + list(r) for r in s.rows] + [[-v for v in r] + [0] * m for r in s.transpose().rows]
    p_inv = invert(p)
    omega = p_inv.transpose() * Matrix(frame_omega) * p_inv
    plus = Subspace(n, [column(p, a) for a in range(m)])
    minus = Subspace(n, [column(p, a) for a in range(m, n)])
    return build_almost_kunneth(L, omega, plus, minus)


def test_integrability_legs_match_direct_computation(catalog_models, catalog_structures):
    """The report is the first failing leg in the order d omega, N_A, N_B,
    N_J, L+, L-, with every leg computed on its own; N_A vanishes exactly when
    L+ and L- are subalgebras, and any two vanishing Nijenhuis tensors imply
    the third.  On the catalog's Born structures, on Born structures enhanced
    from the catalog's Kunneth structures (also moved to seeded bases) and
    from random Kunneth data, whose draws reach every leg, and on the phase
    spaces, which fail at N_B, and their sheared forms, which fail at N_A.
    """
    rng = random.Random(61)
    borns = [b for s in catalog_structures.values() for b in s["borns"]]
    borns += [enhance_kunneth(k) for _, k in kunneth_cases(catalog_models, catalog_structures)]
    drawn = [enhance_kunneth(random_kunneth(rng)) for _ in range(40)]
    borns += drawn
    phase_spaces = [b for _, _, b in phase_space_borns()]
    shears = [enhance_kunneth(sheared(phase_space(*a), random.Random(seed))) for a in ALGEBRAS for seed in (1, 2)]
    borns += phase_spaces + shears
    notes = []
    for born in borns:
        legs = integrability_legs(born)
        _, n_a, n_b, n_j, l_plus, l_minus = legs
        witness = integrability_report(born)
        assert witness == next((w for w in legs if w is not None), None)
        assert (n_a is None) == (l_plus is None and l_minus is None)
        assert [n_a, n_b, n_j].count(None) != 2
        notes.append(None if witness is None else witness.note)
    assert 40 <= notes.count(None) <= len(borns) - 40, notes
    drawn_notes = {w and w.note for w in map(integrability_report, drawn)}
    assert drawn_notes == {"d omega", "N_A", "N_B", None}, drawn_notes
    assert notes[-len(phase_spaces + shears):] == ["N_B"] * len(phase_spaces) + ["N_A"] * len(shears)


def test_integrability_builds_at_most_one_nijenhuis_tensor(catalog_models, nil3, monkeypatch):
    """An integrable structure builds N_B alone, a non-closed one no tensor,
    and a closed one whose L+ is not a subalgebra N_A alone; each is built
    over a fresh algebra, so no memo has seen it."""
    b = structures_of(catalog_models["h4"], "born")[0]
    integrable_born = build_born(fresh(b.algebra), b.g, b.h, b.omega)
    not_closed = enhance_kunneth(build_almost_kunneth(
        fresh(nil3),
        two_form(4, {(1, 2): 1, (4, 3): 1}),
        Subspace(4, [[1, 0, 0, 0], [0, 0, 0, 1]]),
        Subspace(4, [[0, 1, 0, 0], [0, 0, 1, 0]]),
    ))
    # [e1, e2] = e3 leaves span(e1, e2) while omega = e^14 + e^23 is closed
    not_subalgebra = enhance_kunneth(build_almost_kunneth(
        fresh(nil3),
        two_form(4, {(1, 4): 1, (2, 3): 1}),
        Subspace(4, [[1, 0, 0, 0], [0, 1, 0, 0]]),
        Subspace(4, [[0, 0, 1, 0], [0, 0, 0, 1]]),
    ))
    built = []
    original = structures.nijenhuis
    monkeypatch.setattr(structures, "nijenhuis", lambda L, op: built.append(op) or original(L, op))
    notes = []
    for born in (integrable_born, not_closed, not_subalgebra):
        built.clear()
        witness = integrability_report(born)
        notes.append((witness and witness.note, [op == born.a_op for op in built]))
    assert notes == [(None, [False]), ("d omega", []), ("N_A", [True])]


# --- enhancement --------------------------------------------------------


def test_enhance_default_frame_on_standard_kunneth():
    # flat R^4 = R^2 x R^2 with omega = a1^a3 + a2^a4 enhances to the
    # standard flat structure: J maps the first factor onto the second
    L = LieAlgebra(4, {})
    omega = two_form(4, {(1, 3): 1, (2, 4): 1})
    k = build_almost_kunneth(
        L, omega, Subspace(4, [[1, 0, 0, 0], [0, 1, 0, 0]]), Subspace(4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    )
    born = enhance_kunneth(k)
    assert born.j_op == from_columns(
        [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
    )
    assert born.h == symmetric_form(4, {(i, i): 1 for i in range(1, 5)})


def test_enhance_default_frame_h4_positive_definite(h4_kunneth):
    born = enhance_kunneth(h4_kunneth)
    assert signature_of_symmetric(born.h) == Signature(6, 0, 0)
    assert all(witness is None for _, _, witness in reference_identity_table(born_data(born)))


def test_enhance_h9_with_printed_j(h9_algebra):
    omega = two_form(6, {(1, 3): 1, (2, 6): 4, (4, 5): 4})
    k = build_almost_kunneth(
        h9_algebra,
        omega,
        Subspace(6, [basis_vector(6, i) for i in (0, 4, 5)]),
        Subspace(6, [basis_vector(6, i) for i in (1, 2, 3)]),
    )
    j = from_columns(
        [
            [0, -1, 0, 0, 0, 0],
            [1, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, Fraction(-1, 4)],
            [0, 0, 0, 0, -1, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 4, 0, 0, 0],
        ]
    )
    born = enhance_kunneth(k, jtilde=j)
    assert born.j_op == j  # the full J is recovered from its restriction to g+
    assert integrability_report(born) is None and integrable(born)


def test_enhance_round_trip_recovers_splitting(catalog_models):
    for entry in catalog_models.values():
        for k in structures_of(entry, "kunneth"):
            born = enhance_kunneth(k)
            assert born.kunneth == k
            assert born.omega == k.omega


def test_enhance_rejects_incompatible_jtilde(h4_kunneth):
    # maps plus into minus but makes the pairing omega(f_i, Jt f_j)
    # asymmetric, violating omega(Jt x, y) = -omega(x, Jt y) on the plus side
    bad = from_columns(
        [
            [0, 0, 1, 0, 0, 1],  # Jt e1 = e3 + e6
            [0, 0, 0, 0, 0, 1],  # Jt e2 = e6
            [0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0],
            [0, 0, 0, -1, 0, 0],  # Jt e5 = -e4
            [0, 0, 0, 0, 0, 0],
        ]
    )
    with pytest.raises(NotCompatibleError) as info:
        enhance_kunneth(h4_kunneth, jtilde=bad)
    assert info.value.hit is not None


def test_enhance_rejects_jtilde_not_into_minus(h4_kunneth):
    with pytest.raises(NotCompatibleError):
        enhance_kunneth(h4_kunneth, jtilde=Matrix.identity(6))


def test_enhance_rejects_jtilde_that_is_not_an_isomorphism(h4_kunneth):
    # the zero map sends plus into minus and passes the pairing test, but is singular
    message = "^jtilde is not an isomorphism onto the minus subspace$"
    with pytest.raises(NotCompatibleError, match=message) as info:
        enhance_kunneth(h4_kunneth, jtilde=Matrix.zero(6))
    assert info.value.hit is None
    assert info.value.__suppress_context__


# --- hypersymplectic ----------------------------------------------------


def test_hypersymplectic_nil3_tables(nil3_hypersymplectic):
    hs = nil3_hypersymplectic
    assert hs.a_op == from_columns([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]])
    assert hs.b_op == diagonal([1, -1, 1, -1])
    assert hs.j_op == from_columns([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    assert hs.metric == symmetric_form(4, {(1, 4): -1, (2, 3): -1})
    assert signature_of_symmetric(hs.metric) == Signature(2, 2, 0)


def hypersymplectic_cases(catalog_models):
    """The catalog's hypersymplectic structures, each also in seeded bases."""
    triples = []
    for name, entry in catalog_models.items():
        for hs in structures_of(entry, "hypersymplectic"):
            triples.append(hs)
            for seed in SEEDS:
                p = random_unimodular(hs.algebra.n, random.Random(f"{name}-{seed}"))
                forms = (moved_form(f, p) for f in (hs.omega, hs.alpha, hs.beta))
                triples.append(build_hypersymplectic(moved_algebra(hs.algebra, p), *forms))
    assert len(triples) >= 4
    return triples


def test_hypersymplectic_operators_are_the_recursion_operators(catalog_models):
    """omega(Ax, y) = alpha(x, y), omega(Bx, y) = beta(x, y) and
    alpha(Jx, y) = beta(x, y) pair by pair, on the catalog's hypersymplectic
    structures and in seeded bases."""
    for hs in hypersymplectic_cases(catalog_models):
        assert_recursion_relation(hs.omega, hs.a_op, hs.alpha)
        assert_recursion_relation(hs.omega, hs.b_op, hs.beta)
        assert_recursion_relation(hs.alpha, hs.j_op, hs.beta)


def test_hypersymplectic_metric_is_symmetric_by_construction(catalog_models):
    """build_hypersymplectic proves g(x, y) = alpha(x, By) symmetric rather
    than checking it: g(e_i, e_j) = alpha(e_i, B e_j) = alpha(e_j, B e_i),
    pair by pair, in the catalog basis and in seeded ones."""
    for hs in hypersymplectic_cases(catalog_models):
        n, alpha, b = hs.algebra.n, hs.alpha.rows, hs.b_op
        for i in range(n):
            for j in range(n):
                value = evaluate(alpha, basis_vector(n, i), column(b, j))
                assert value == evaluate(alpha, basis_vector(n, j), column(b, i)), (i + 1, j + 1)
                assert hs.metric.entry(i + 1, j + 1) == value, (i + 1, j + 1)


@pytest.mark.parametrize("name", ["omega", "alpha", "beta"])
def test_hypersymplectic_rejects_each_degenerate_form_in_order(nil3, nil3_hypersymplectic, name):
    hs = nil3_hypersymplectic
    forms = {"omega": hs.omega, "alpha": hs.alpha, "beta": hs.beta}
    # closed and degenerate: e^12 is closed on nil3
    singular = dict.fromkeys(forms, two_form(4, {(1, 2): 1}))
    _first_degenerate(lambda *f: build_hypersymplectic(nil3, *f), forms, singular, name)


@pytest.mark.parametrize("name", ["omega", "alpha", "beta"])
def test_hypersymplectic_rejects_a_form_of_the_wrong_symmetry(nil3, nil3_hypersymplectic, name):
    hs = nil3_hypersymplectic
    forms = {"omega": hs.omega, "alpha": hs.alpha, "beta": hs.beta}
    _rejects_wrong_symmetry(lambda *f: build_hypersymplectic(nil3, *f), forms, name, "antisymmetric")


def test_hypersymplectic_degenerate_leg_fails(nil3):
    omega = two_form(4, {(1, 3): -1, (2, 4): 1})
    alpha = two_form(4, {(1, 4): 1, (2, 3): -1})
    with pytest.raises(AxiomFailureError) as info:
        build_hypersymplectic(nil3, omega, alpha, alpha)  # J = rec(alpha, alpha) = Id
    assert "J^2" in info.value.which


def test_hypersymplectic_rejects_non_closed_form(nil3):
    omega = two_form(4, {(1, 3): -1, (2, 4): 1})
    alpha = two_form(4, {(1, 4): 1, (2, 3): -1})
    beta = two_form(4, {(1, 2): 1, (4, 3): 1})  # d(beta) != 0
    with pytest.raises(NotClosedError) as info:
        build_hypersymplectic(nil3, omega, alpha, beta)
    assert info.value.form_name == "beta"
    assert info.value.hit[0] == (1, 2, 4)


# --- circle family ------------------------------------------------------


def test_circle_point_exactness():
    p = CirclePoint.from_t(Fraction(1, 2))
    assert (p.cos, p.sin) == (Fraction(3, 5), Fraction(4, 5))
    q = CirclePoint.from_t(Fraction(3, 5))
    assert (q.cos, q.sin) == (Fraction(8, 17), Fraction(15, 17))
    assert CirclePoint.theta_pi().cos == -1
    rng = random.Random(7)
    for _ in range(20):
        t = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        p = CirclePoint.from_t(t)
        assert p.cos * p.cos + p.sin * p.sin == 1


def test_circle_point_antipode():
    p = CirclePoint.from_t(Fraction(1, 2))
    q = antipode(p)
    assert (q.cos, q.sin) == (-p.cos, -p.sin)
    assert antipode(CirclePoint.from_t(0)) == CirclePoint.theta_pi()
    assert antipode(CirclePoint.theta_pi()) == CirclePoint.from_t(0)


def test_family_points_all_valid(nil3_hypersymplectic, nil3_jtilde):
    points = [CirclePoint.from_t(t) for t in (0, 1, -1, Fraction(1, 2), 2, Fraction(3, 5))]
    points.append(CirclePoint.theta_pi())
    for p in points:
        born = s1_family(nil3_hypersymplectic, nil3_jtilde, p)
        assert all(witness is None for _, _, witness in reference_identity_table(born_data(born)))
        assert integrability_report(born) is None and integrable(born)


def test_family_third_leg_is_the_recursion_relation(catalog_models):
    """h_t(x, y) = beta_t(-jtilde x, y) pair by pair at the circle family's
    catalog points: s1_family proves this leg rather than re-checking it."""
    entry = catalog_models["nil3_r"]
    jtilde = entry.model.endos["jtilde"]
    for p in FAMILY_POINTS:
        born = family_member(entry, p)
        assert_recursion_relation(born.omega, -jtilde, born.h)


def test_family_quarter_turn_selects_b_leg(nil3_hypersymplectic, nil3_jtilde):
    born = s1_family(nil3_hypersymplectic, nil3_jtilde, CirclePoint.from_t(1))
    assert born.a_op == nil3_hypersymplectic.b_op  # I at theta = pi/2 is B


def test_family_antipode_negates_product_structure(nil3_hypersymplectic, nil3_jtilde):
    for t in (0, Fraction(1, 2), 2):
        p = CirclePoint.from_t(t)
        member = s1_family(nil3_hypersymplectic, nil3_jtilde, p)
        opposite = s1_family(nil3_hypersymplectic, nil3_jtilde, antipode(p))
        assert opposite.a_op == -member.a_op
        assert opposite.b_op == -member.b_op
        assert opposite.j_op == member.j_op
        assert opposite.omega == -member.omega
        assert opposite.h == -member.h


def test_family_hypothesis_failure(nil3_hypersymplectic):
    # an almost complex structure commuting (not anti-commuting) with A; a
    # failure is not memoized, so every call raises
    bad = from_columns([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    for _ in range(2):
        with pytest.raises(HypothesisFailureError):
            s1_family(nil3_hypersymplectic, bad, CirclePoint.from_t(0))


def test_family_hypotheses_are_checked_once_per_triple_and_jtilde(nil3_hypersymplectic, nil3_jtilde, monkeypatch):
    """Members at seven points of a triple no memo has seen certify the four
    hypotheses once: one jtilde^* g pullback, not one per point."""
    hs = nil3_hypersymplectic
    hs = build_hypersymplectic(fresh(hs.algebra), hs.omega, hs.alpha, hs.beta)
    checked = []
    monkeypatch.setattr(structures, "pullback", lambda *args: checked.append(args) or pullback(*args))
    for t in range(101, 108):
        born = s1_family(hs, nil3_jtilde, CirclePoint.from_t(Fraction(t, 13)))
        assert born.j_op == nil3_jtilde
    assert len(checked) == 1


def test_circle_points_hash_by_value():
    p, q = CirclePoint.from_t(0), antipode(CirclePoint.theta_pi())
    assert p is not q and p == q and hash(p) == hash(q)
    assert CirclePoint.theta_pi() == antipode(CirclePoint.from_t(0))
    assert len({CirclePoint.from_t(Fraction(1, 2)), CirclePoint.from_t(Fraction(2, 4)), CirclePoint.from_t(2)}) == 2


def test_family_member_built_again_checks_no_hypothesis_again(nil3_hypersymplectic, nil3_jtilde, monkeypatch):
    first = s1_family(nil3_hypersymplectic, nil3_jtilde, CirclePoint.from_t(Fraction(2, 7)))
    # a repeat call builds the member again, equal, but does not re-check the jtilde hypotheses
    checked = []
    monkeypatch.setattr(structures, "pullback", lambda *args: checked.append(args) or pullback(*args))
    assert s1_family(nil3_hypersymplectic, nil3_jtilde, CirclePoint.from_t(Fraction(2, 7))) == first
    assert checked == []
