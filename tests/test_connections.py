"""Connections: Levi-Civita, Kunneth, canonical and the Born average."""

import random
from fractions import Fraction
from operator import mul

import pytest

from bornlab import (
    LieAlgebra,
    Matrix,
    Subspace,
    almost_product,
    born_connection,
    born_torsion_formula_defect,
    build_almost_kunneth,
    build_hypersymplectic,
    canonical_connection,
    enhance_kunneth,
    generalized_torsion_defect,
    integrability_report,
    kunneth_connection,
    levi_civita,
    mixed_torsion_defect,
    nabla_form,
    neutral_metric,
    omega_K_defect,
    s1_family,
    torsion,
    CirclePoint,
    Trilinear,
    Endomorphism,
    BilinearForm,
)
from bornlab import connections
from bornlab.connections import Connection
from bornlab.errors import AxiomFailureError, DegenerateFormError, NotIntegrableError
from bornlab.exact import basis_vector, determinant, invert, projection_onto, vec_sub
from bornlab.liealg import ce_d2
from bornlab.model import _error_witness
from bornlab.multilinear import ANTISYMMETRIC, NOSYM, SYMMETRIC, symmetric_form, two_form
from bornlab.structures import Witness
from conftest import structures_of
from oracles import contract, evaluate, nonzero_entries
from test_builders import cases, first_entry, reference_ce_d2, reference_tensor
from test_frames import kunneth_cases, random_connection, random_matrix


def solve_gauss(rows, rhs):
    """Independent dense solver for the Koszul oracle."""
    n = len(rows)
    a = [list(map(Fraction, rows[i])) + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        scale = a[col][col]
        a[col] = [v / scale for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return tuple(a[i][n] for i in range(n))


@pytest.fixture(scope="module")
def fixture_kunneth(nil3):
    return build_almost_kunneth(
        nil3,
        two_form(4, {(1, 2): 1, (4, 3): 1}),
        Subspace(4, [[1, 0, 0, 0], [0, 0, 0, 1]]),
        Subspace(4, [[0, 1, 0, 0], [0, 0, 1, 0]]),
    )


@pytest.fixture(scope="module")
def nil3_family(nil3):
    hs = build_hypersymplectic(
        nil3,
        two_form(4, {(1, 3): -1, (2, 4): 1}),
        two_form(4, {(1, 4): 1, (2, 3): -1}),
        two_form(4, {(1, 3): -1, (2, 4): -1}),
    )
    jt = Endomorphism.from_images([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    return hs, jt


# --- Levi-Civita ---------------------------------------------------------


def test_levi_civita_abelian_is_zero():
    L = LieAlgebra.abelian(4)
    g = symmetric_form(4, {(i, i): 1 for i in range(1, 5)})
    assert levi_civita(L, g).is_zero()


def test_levi_civita_nil3_metric_values(nil3):
    g = symmetric_form(4, {(1, 4): -1, (2, 3): -1})
    lc = levi_civita(nil3, g)
    assert lc.basis_value(1, 1) == (0, 0, 0, 1)  # nabla_{e2} e2 = e4
    assert lc.basis_value(0, 1) == (0, 0, 0, 0)  # nabla_{e1} e2 = 0


def test_levi_civita_matches_koszul_oracle(nil3, h4_algebra):
    for L, pairs in ((nil3, {(1, 4): -1, (2, 3): -1}), (h4_algebra, {(1, 3): 1, (2, 6): 1, (4, 5): -1})):
        g = symmetric_form(L.n, pairs)
        lc = levi_civita(L, g)
        n = L.n
        basis = [basis_vector(n, i) for i in range(n)]
        for i in range(n):
            for j in range(n):
                rhs = []
                for k in range(n):
                    value = (
                        g.evaluate(L.bracket(basis[i], basis[j]), basis[k])
                        - g.evaluate(L.bracket(basis[j], basis[k]), basis[i])
                        + g.evaluate(L.bracket(basis[k], basis[i]), basis[j])
                    )
                    rhs.append(value / 2)
                expected = solve_gauss([list(r) for r in g.matrix.rows], rhs)
                assert lc.basis_value(i, j) == expected


def test_levi_civita_certificates(catalog_models):
    for entry in catalog_models.values():
        for born in structures_of(entry, "born"):
            lc = levi_civita(born.algebra, born.g)
            assert torsion(born.algebra, lc).is_zero()
            assert nabla_form(born.algebra, lc, born.g).is_zero()


def test_levi_civita_rejects_degenerate_metric(nil3):
    with pytest.raises(DegenerateFormError, match="^metric is degenerate$"):
        levi_civita(nil3, BilinearForm.detect(Matrix.zero(4) + Matrix.zero(4)))


# --- Kunneth connection --------------------------------------------------


def test_kunneth_connection_abelian_zero():
    L = LieAlgebra.abelian(2)
    k = build_almost_kunneth(L, two_form(2, {(1, 2): 1}), Subspace(2, [[1, 0]]), Subspace(2, [[0, 1]]))
    assert kunneth_connection(k).is_zero()


def test_kunneth_equals_levi_civita_when_integrable(catalog_models):
    for entry in catalog_models.values():
        for k in structures_of(entry, "kunneth"):
            L = entry.model.algebra
            integrable = ce_d2(L, k.omega).is_zero()
            if not integrable:
                continue
            assert kunneth_connection(k) == levi_civita(L, neutral_metric(k))


def test_kunneth_preserves_subspaces_and_omega(fixture_kunneth, nil3):
    nk = kunneth_connection(fixture_kunneth)
    basis = [basis_vector(4, i) for i in range(4)]
    for sub in (fixture_kunneth.plus, fixture_kunneth.minus):
        for x in basis:
            for v in sub.basis:
                assert sub.contains(nk.apply(x, v))
    assert nabla_form(nil3, nk, fixture_kunneth.omega).is_zero()


def test_kunneth_torsion_nonzero_on_fixture(fixture_kunneth, nil3):
    assert not torsion(nil3, kunneth_connection(fixture_kunneth)).is_zero()


def test_mixed_torsion_empty_for_kunneth_everywhere(catalog_models, fixture_kunneth, nil3):
    for entry in catalog_models.values():
        L = entry.model.algebra
        for k in structures_of(entry, "kunneth"):
            assert mixed_torsion_defect(L, kunneth_connection(k), k.plus, k.minus) == []
    nk = kunneth_connection(fixture_kunneth)
    assert mixed_torsion_defect(nil3, nk, fixture_kunneth.plus, fixture_kunneth.minus) == []


def test_levi_civita_differs_from_kunneth_on_fixture(fixture_kunneth, nil3):
    """On the non-integrable fixture the two connections differ, and what
    fails for Levi-Civita is subspace preservation and omega-parallelism;
    its mixed torsion is empty like that of any torsion-free connection."""
    g = neutral_metric(fixture_kunneth)
    lc = levi_civita(nil3, g)
    nk = kunneth_connection(fixture_kunneth)
    assert lc != nk
    assert mixed_torsion_defect(nil3, lc, fixture_kunneth.plus, fixture_kunneth.minus) == []
    preserved = all(
        fixture_kunneth.plus.contains(lc.apply(basis_vector(4, i), v))
        for i in range(4)
        for v in fixture_kunneth.plus.basis
    )
    assert not preserved
    assert not nabla_form(nil3, lc, fixture_kunneth.omega).is_zero()


def test_zero_connection_mixed_torsion_empty():
    L = LieAlgebra.abelian(4)
    zero = Connection((Matrix.zero(4),) * 4)
    f = Subspace(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    g = Subspace(4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    assert mixed_torsion_defect(L, zero, f, g) == []


# --- canonical connection ------------------------------------------------


def test_canonical_collapse_on_integrable(catalog_models):
    for entry in catalog_models.values():
        for born in structures_of(entry, "born"):
            if not integrability_report(born).integrable:
                continue
            L = born.algebra
            nc = canonical_connection(L, born.g, born.a_op)
            nk = kunneth_connection(born.underlying_kunneth())
            lc = levi_civita(L, born.g)
            assert nc == nk == lc


def test_canonical_differs_from_kunneth_on_fixture(fixture_kunneth, nil3):
    nc = canonical_connection(nil3, neutral_metric(fixture_kunneth), almost_product(fixture_kunneth))
    nk = kunneth_connection(fixture_kunneth)
    assert nc != nk
    # the defect is accounted for exactly by the omega_k relation
    assert omega_K_defect(fixture_kunneth).is_zero()


def test_canonical_commutes_with_involution(fixture_kunneth, nil3):
    a = almost_product(fixture_kunneth)
    nc = canonical_connection(nil3, neutral_metric(fixture_kunneth), a)
    basis = [basis_vector(4, i) for i in range(4)]
    for i in range(4):
        for j in range(4):
            lhs = nc.apply(basis[i], a.matrix.column(j))
            rhs = a.apply(nc.basis_value(i, j))
            assert lhs == rhs


# --- Born connection -----------------------------------------------------


def test_born_connection_parallel_everything(catalog_models):
    for name in ("h4", "h9_corrected", "h8", "torus_2_2"):
        born = structures_of(catalog_models[name], "born")[0]
        nb = born_connection(born)
        L = born.algebra
        for form in (born.g, born.h, born.omega):
            assert nabla_form(L, nb, form).is_zero()
        nk, j = kunneth_connection(born.underlying_kunneth()), born.j_op.matrix
        assert nb.gammas == tuple((g - j * g * j) * Fraction(1, 2) for g in nk.gammas)


def test_born_connection_zero_on_abelian(catalog_models):
    born = structures_of(catalog_models["abelian_c2"], "born")[0]
    nb = born_connection(born)
    assert nb.is_zero()
    assert nb == kunneth_connection(born.underlying_kunneth())


def test_generalized_torsion_zero_for_born_connection(catalog_models):
    for name in ("h4", "h9_corrected", "h8"):
        born = structures_of(catalog_models[name], "born")[0]
        L = born.algebra
        nb = born_connection(born)
        nc = canonical_connection(L, born.g, born.a_op)
        assert generalized_torsion_defect(L, nb, nc, born.g).is_zero()


def test_generalized_torsion_self_is_zero(catalog_models):
    born = structures_of(catalog_models["h4"], "born")[0]
    nc = canonical_connection(born.algebra, born.g, born.a_op)
    assert generalized_torsion_defect(born.algebra, nc, nc, born.g).is_zero()


def test_generalized_torsion_family_points(nil3_family, nil3):
    hs, jt = nil3_family
    for t in (0, 1, Fraction(1, 2), 2):
        born = s1_family(hs, jt, CirclePoint.from_t(t))
        nb = born_connection(born)
        nc = canonical_connection(nil3, born.g, born.a_op)
        assert generalized_torsion_defect(nil3, nb, nc, born.g).is_zero()


def test_born_connection_theta_independent(nil3_family):
    hs, jt = nil3_family
    gammas = set()
    for t in (0, 1, -1, Fraction(1, 2), 2, Fraction(3, 5)):
        born = s1_family(hs, jt, CirclePoint.from_t(t))
        gammas.add(born_connection(born))
    born = s1_family(hs, jt, CirclePoint.theta_pi())
    gammas.add(born_connection(born))
    assert len(gammas) == 1


def test_kunneth_vs_born_connection_on_h4(catalog_models):
    """On h4 the Kunneth connection does not commute with B, so the Born
    connection differs from it even though both have vanishing generalized
    torsion (trivially in the integrable case, where nabla^K = nabla^c).
    There is no clash with uniqueness: nabla^K fails to be h-parallel, so it
    is not a competitor among fully compatible connections."""
    born = structures_of(catalog_models["h4"], "born")[0]
    L = born.algebra
    nk = kunneth_connection(born.underlying_kunneth())
    nc = canonical_connection(L, born.g, born.a_op)
    nb = born_connection(born)
    assert nk == nc
    assert generalized_torsion_defect(L, nk, nc, born.g).is_zero()
    n = L.n
    basis = [basis_vector(n, i) for i in range(n)]
    commutes = all(
        nk.apply(basis[i], born.b_op.matrix.column(j)) == born.b_op.apply(nk.basis_value(i, j))
        for i in range(n)
        for j in range(n)
    )
    assert not commutes
    assert nb != nk
    assert not nabla_form(L, nk, born.h).is_zero()
    assert not torsion(L, nb).is_zero()


# --- nabla_form ----------------------------------------------------------


def test_nabla_form_zero_connection(nil3):
    zero = Connection((Matrix.zero(4),) * 4)
    g = symmetric_form(4, {(1, 4): -1, (2, 3): -1})
    assert nabla_form(nil3, zero, g).is_zero()


def test_nabla_form_levi_civita_does_not_preserve_h(nil3_family, nil3):
    hs, jt = nil3_family
    born = s1_family(hs, jt, CirclePoint.from_t(Fraction(1, 2)))
    lc = levi_civita(nil3, hs.metric)
    assert not nabla_form(nil3, lc, born.h).is_zero()


# --- pinned witnesses ----------------------------------------------------
# A failing defect reports its lexicographically first nonzero (i, j, k).
# These values pin that order, so a change in how connections or defects are
# stored cannot silently reorder the witnesses a report prints.


def test_nabla_form_witness_levi_civita_omega_on_fixture(fixture_kunneth, nil3):
    lc = levi_civita(nil3, neutral_metric(fixture_kunneth))
    assert nabla_form(nil3, lc, fixture_kunneth.omega).first_witness() == ((2, 1, 4), -1)


def test_nabla_form_witness_kunneth_h_on_h4(catalog_models):
    born = structures_of(catalog_models["h4"], "born")[0]
    nk = kunneth_connection(born.underlying_kunneth())
    assert nabla_form(born.algebra, nk, born.h).first_witness() == ((1, 2, 2), 2)


def test_torsion_witnesses_kunneth_on_fixture(fixture_kunneth, nil3):
    assert nonzero_entries(torsion(nil3, kunneth_connection(fixture_kunneth)), lower=1) == [((1, 4, 1), -1)]


def test_torsion_witnesses_born_connection(catalog_models, fixture_kunneth, nil3):
    h4 = structures_of(catalog_models["h4"], "born")[0]
    assert nonzero_entries(torsion(h4.algebra, born_connection(h4)), lower=1) == [
        ((1, 4, 6), 1),
        ((2, 3, 6), Fraction(1, 2)),
        ((2, 4, 3), 1),
    ]
    born = enhance_kunneth(fixture_kunneth)
    assert not integrability_report(born).integrable
    half = Fraction(-1, 2)
    assert nonzero_entries(torsion(nil3, born_connection(born)), lower=1) == [
        ((1, 2, 3), half),
        ((1, 3, 2), half),
        ((1, 4, 1), half),
    ]


def test_generalized_torsion_witness_kunneth_on_fixture(fixture_kunneth, nil3):
    g = neutral_metric(fixture_kunneth)
    nc = canonical_connection(nil3, g, almost_product(fixture_kunneth))
    defect = generalized_torsion_defect(nil3, kunneth_connection(fixture_kunneth), nc, g)
    assert defect.first_witness() == ((1, 2, 4), 1)


# --- first witnesses against the pairwise definitions ---------------------
# Catalog defects are mostly zero, so random connections and forms stand in
# for the built ones.  The first witness of torsion must be the first nonzero
# reference entry with i < j, which determine it; that of every other defect
# the first nonzero reference entry over all triples.


def reference_torsion(L, c):
    """T(e_i, e_j) = nabla_{e_i} e_j - nabla_{e_j} e_i - [e_i, e_j], pair by pair."""
    basis = [basis_vector(L.n, i) for i in range(L.n)]
    return reference_tensor(
        L.n, lambda i, j: vec_sub(vec_sub(c.basis_value(i, j), c.basis_value(j, i)), L.bracket(basis[i], basis[j]))
    )


def reference_nabla_form(c, b):
    """(nabla_{e_i} b)(e_j, e_k) = -b(nabla_{e_i} e_j, e_k) - b(e_j, nabla_{e_i} e_k)."""
    n = b.n
    basis = [basis_vector(n, i) for i in range(n)]
    return reference_tensor(
        n,
        lambda i, j: [
            -b.evaluate(c.basis_value(i, j), basis[k]) - b.evaluate(basis[j], c.basis_value(i, k)) for k in range(n)
        ],
    )


def reference_generalized_torsion(c, cc, g):
    """GT_c - GT_cc on basis triples, GT(x,y,z) = g(nabla_x y - nabla_y x, z) + g(nabla_z x, y)."""
    n = g.n
    basis = [basis_vector(n, i) for i in range(n)]

    def gt(conn, i, j, k):
        torsion_part = vec_sub(conn.basis_value(i, j), conn.basis_value(j, i))
        return g.evaluate(torsion_part, basis[k]) + g.evaluate(conn.basis_value(k, i), basis[j])

    return reference_tensor(n, lambda i, j: [gt(c, i, j, k) - gt(cc, i, j, k) for k in range(n)])


def reference_omega_k(ks, nk, nc):
    """omega(nabla^K_x y - nabla^c_x y, z) + (d omega(Ax, y-, z+) - d omega(Ax, y+, z-)) / 2 on basis triples."""
    L, n = ks.algebra, ks.algebra.n
    basis = [basis_vector(n, i) for i in range(n)]
    pf, pg = projection_onto(ks.plus, ks.minus)
    a = pf - pg
    dw = reference_ce_d2(L, ks.omega.matrix)
    along = [contract(dw, a.column(i)) for i in range(n)]  # d omega(A e_i, ., .)

    def row(i, j):
        diff = vec_sub(nk.basis_value(i, j), nc.basis_value(i, j))
        minus_then = evaluate(along[i], pg.column(j))
        plus_then = evaluate(along[i], pf.column(j))
        return [
            ks.omega.evaluate(diff, basis[k])
            + (sum(map(mul, minus_then, pf.column(k))) - sum(map(mul, plus_then, pg.column(k)))) / 2
            for k in range(n)
        ]

    return reference_tensor(n, row)


def test_defect_witnesses_match_pairwise_definitions(catalog_models, catalog_structures, monkeypatch):
    rng = random.Random(41)
    witnesses = 0
    for name, L, _, _ in cases(catalog_models, catalog_structures):
        c, cc = random_connection(L.n, rng), random_connection(L.n, rng)
        m = random_matrix(L.n, rng)
        # nabla_form takes one branch per declared symmetry
        forms = (
            BilinearForm(m + m.transpose(), SYMMETRIC),
            BilinearForm(m - m.transpose(), ANTISYMMETRIC),
            BilinearForm(m, NOSYM),
        )
        checks = [(torsion(L, c), reference_torsion(L, c), 1)]
        checks += [(nabla_form(L, c, b), reference_nabla_form(c, b), 0) for b in forms]
        g = forms[0]
        checks.append((generalized_torsion_defect(L, c, cc, g), reference_generalized_torsion(c, cc, g), 0))
        for t, expected, lower in checks:
            assert t == expected, name
            assert t.first_witness() == first_entry(expected, lower), name
            witnesses += t.first_witness() is not None
    for name, ks in kunneth_cases(catalog_models, catalog_structures):
        nk, nc = random_connection(ks.algebra.n, rng), random_connection(ks.algebra.n, rng)
        monkeypatch.setattr(connections, "kunneth_connection", lambda _k: nk)
        monkeypatch.setattr(connections, "canonical_connection", lambda *_: nc)
        t = connections.omega_K_defect(ks)
        monkeypatch.undo()
        expected = reference_omega_k(ks, nk, nc)
        assert t == expected, name
        assert t.first_witness() == first_entry(expected, 0), name
        witnesses += t.first_witness() is not None
    assert witnesses > 250


# --- omega_k relation ----------------------------------------------------


def test_omega_k_zero_on_catalog_and_fixture(catalog_models, fixture_kunneth):
    assert omega_K_defect(fixture_kunneth).is_zero()
    for entry in catalog_models.values():
        for k in structures_of(entry, "kunneth"):
            assert omega_K_defect(k).is_zero()
        for born in structures_of(entry, "born"):
            assert omega_K_defect(born.underlying_kunneth()).is_zero()


def test_omega_k_unprojected_variant_is_not_an_identity(fixture_kunneth, nil3):
    """The variant of the correction term with the first slot unprojected and
    both patterns added with the same sign fails already on this fixture; the
    implemented alternating form is the actual identity."""
    k = fixture_kunneth
    nk = kunneth_connection(k)
    nc = canonical_connection(nil3, neutral_metric(k), almost_product(k))
    dw = ce_d2(nil3, k.omega)
    pf, pg = projection_onto(k.plus, k.minus)
    basis = [basis_vector(4, i) for i in range(4)]
    half = Fraction(1, 2)
    bad_holds = True
    for i in range(4):
        for j in range(4):
            for kk in range(4):
                diff = vec_sub(nk.basis_value(i, j), nc.basis_value(i, j))
                value = k.omega.evaluate(diff, basis[kk])
                corr = evaluate(contract(dw, basis[i]), pf.matvec(basis[j]), pg.matvec(basis[kk]))
                corr += evaluate(contract(dw, basis[i]), pg.matvec(basis[j]), pf.matvec(basis[kk]))
                if value + half * corr != 0:
                    bad_holds = False
    assert not bad_holds


def test_omega_k_randomized_dimension_four(nil3):
    rng = random.Random(101)
    algebras = [nil3, LieAlgebra.abelian(4), LieAlgebra(4, {(1, 2): {2: 1}})]
    checked = 0
    while checked < 30:
        L = rng.choice(algebras)
        while True:
            cols = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)] for _ in range(4)]
            p = Matrix.from_columns(cols)
            if determinant(p) != 0:
                break
        while True:
            s = Matrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)] for _ in range(2)])
            if determinant(s) != 0:
                break
        blk = [[0] * 4 for _ in range(4)]
        for i in range(2):
            for j in range(2):
                blk[i][2 + j] = s.rows[i][j]
                blk[2 + j][i] = -s.rows[i][j]
        p_inv = invert(p)
        w = p_inv.transpose() * Matrix(blk) * p_inv
        k = build_almost_kunneth(
            L,
            BilinearForm(w, "antisymmetric"),
            Subspace(4, [p.column(0), p.column(1)]),
            Subspace(4, [p.column(2), p.column(3)]),
        )
        assert omega_K_defect(k).is_zero()
        checked += 1


# --- torsion <-> integrability -------------------------------------------


def test_torsion_iff_integrability(catalog_models, fixture_kunneth, nil3):
    from bornlab import is_subalgebra

    for entry in catalog_models.values():
        L = entry.model.algebra
        for k in structures_of(entry, "kunneth"):
            integrable = (
                ce_d2(L, k.omega).is_zero()
                and bool(is_subalgebra(L, k.plus))
                and bool(is_subalgebra(L, k.minus))
            )
            assert torsion(L, kunneth_connection(k)).is_zero() == integrable
    assert not torsion(nil3, kunneth_connection(fixture_kunneth)).is_zero()


# --- Born torsion formula -------------------------------------------------


def test_born_torsion_formula_h4(catalog_models):
    report = born_torsion_formula_defect(structures_of(catalog_models["h4"], "born")[0])
    assert report.ok, [i.name for i in report.failures()]


def test_born_torsion_formula_abelian(catalog_models):
    report = born_torsion_formula_defect(structures_of(catalog_models["abelian_c1"], "born")[0])
    assert report.ok


def test_born_torsion_formula_family_branch(nil3_family):
    # at t = 0 the torsion of the Born connection vanishes exactly when the
    # Kunneth connection commutes with B; the engine reports which branch holds
    hs, jt = nil3_family
    born = s1_family(hs, jt, CirclePoint.from_t(0))
    nk = kunneth_connection(born.underlying_kunneth())
    nb = born_connection(born)
    n = born.algebra.n
    basis = [basis_vector(n, i) for i in range(n)]
    commutes = all(
        nk.apply(basis[i], born.b_op.matrix.column(j)) == born.b_op.apply(nk.basis_value(i, j))
        for i in range(n)
        for j in range(n)
    )
    torsion_zero = torsion(born.algebra, nb).is_zero()
    assert torsion_zero == commutes
    assert born_torsion_formula_defect(born).ok


def test_born_torsion_formula_requires_integrability(fixture_kunneth):
    born = enhance_kunneth(fixture_kunneth)
    with pytest.raises(NotIntegrableError):
        born_torsion_formula_defect(born)


def test_connection_errors_carry_their_defect(monkeypatch, catalog_models):
    """A constructor whose re-verification fails raises with the defect, and
    the report witness is that defect's first nonzero entry: the Gamma
    difference of the two averages, or the nabla b tensor."""
    born = structures_of(catalog_models["h4"], "born")[0]
    k = born.underlying_kunneth()
    true_average = connections._conjugate_average

    def skewed(c, t, sign):
        """The J-average moved by 1/2 at entry (1, 3) of Gamma_2."""
        average = true_average(c, t, sign)
        if sign > 0:
            return average
        gammas = list(average.gammas)
        unit = Matrix([[Fraction(1, 2) if (r, s) == (0, 2) else 0 for s in range(6)] for r in range(6)])
        gammas[1] = gammas[1] + unit
        return Connection(tuple(gammas))

    def cached_builders_cleared():
        for builder in (connections.born_connection, connections.canonical_connection):
            builder.cache_clear()

    cached_builders_cleared()
    try:
        monkeypatch.setattr(connections, "_conjugate_average", skewed)
        with pytest.raises(AxiomFailureError) as info:
            connections.born_connection(born)
        assert info.value.defect.first_witness() == ((2, 1, 3), Fraction(-1, 2))
        assert _error_witness(info.value) == Witness((2, 1, 3), "-1/2", str(info.value))

        levi_civita(k.algebra, neutral_metric(k))  # built unpatched; canonical_connection reads it from the cache
        bent = Trilinear(tuple(Matrix.zero(6) if i != 3 else Matrix.identity(6) * 7 for i in range(6)))
        monkeypatch.setattr(connections, "nabla_form", lambda L, c, b: bent)
        monkeypatch.setattr(connections, "_conjugate_average", true_average)
        with pytest.raises(AxiomFailureError) as info:
            connections.canonical_connection(k.algebra, neutral_metric(k), almost_product(k))
        assert info.value.which == "canonical connection does not preserve g"
        assert _error_witness(info.value) == Witness((4, 1, 1), "7", str(info.value))
    finally:
        monkeypatch.undo()
        cached_builders_cleared()
