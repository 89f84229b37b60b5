"""Connections: Levi-Civita, Kunneth, canonical and the Born average."""

import random
from fractions import Fraction
from operator import mul

import pytest

from bornlab import (
    LieAlgebra,
    Matrix,
    Subspace,
    born_connection,
    born_torsion_formula_defect,
    build_almost_kunneth,
    build_born,
    build_hypersymplectic,
    canonical_connection,
    enhance_kunneth,
    generalized_torsion_defect,
    integrability_report,
    kunneth_connection,
    levi_civita,
    nabla_form,
    neutral_metric,
    omega_K_defect,
    s1_family,
    torsion,
    CirclePoint,
)
from bornlab import connections, model
from bornlab.connections import Connection
from bornlab.errors import DegenerateFormError, NotIntegrableError
from bornlab.exact import Trilinear, determinant, invert, projection_onto, splitting
from bornlab.liealg import ce_d2
from bornlab.multilinear import symmetric_form, two_form
from bornlab.structures import Witness
from conftest import structures_of
import oracles
from oracles import (
    basis_vector,
    column,
    contract,
    evaluate,
    fraction_residual,
    fresh,
    from_columns,
    mixed_torsion_defect,
    nonzero_entries,
    reference_coordinates,
    vec_sub,
)
from test_builders import cases, first_entry, reference_ce_d2, reference_tensor
from test_frames import (
    born_cases,
    kunneth_cases,
    random_connection,
    random_matrix,
    reference_mixed_torsion,
)
from phase_spaces import phase_space, sheared
from test_structures import DRAWN_PHASE_SPACES, built_borns, random_kunneth


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
    jt = from_columns([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    return hs, jt


# --- Levi-Civita ---------------------------------------------------------


def test_levi_civita_abelian_is_zero():
    L = LieAlgebra(4, {})
    g = symmetric_form(4, {(i, i): 1 for i in range(1, 5)})
    assert all(m.is_zero() for m in levi_civita(L, g).gammas)


def test_levi_civita_nil3_metric_values(nil3):
    g = symmetric_form(4, {(1, 4): -1, (2, 3): -1})
    lc = levi_civita(nil3, g)
    assert column(lc.gammas[1], 1) == (0, 0, 0, 1)  # nabla_{e2} e2 = e4
    assert column(lc.gammas[0], 1) == (0, 0, 0, 0)  # nabla_{e1} e2 = 0


def test_levi_civita_matches_koszul_oracle(nil3, h4_algebra):
    for L, pairs in ((nil3, {(1, 4): -1, (2, 3): -1}), (h4_algebra, {(1, 3): 1, (2, 6): 1, (4, 5): -1})):
        g = symmetric_form(L.n, pairs)
        lc = levi_civita(L, g)
        n = L.n
        basis = [basis_vector(n, i) for i in range(n)]
        rows = g.rows
        for i in range(n):
            for j in range(n):
                rhs = []
                for k in range(n):
                    value = (
                        evaluate(rows, L.bracket(basis[i], basis[j]), basis[k])
                        - evaluate(rows, L.bracket(basis[j], basis[k]), basis[i])
                        + evaluate(rows, L.bracket(basis[k], basis[i]), basis[j])
                    )
                    rhs.append(value / 2)
                expected = tuple(reference_coordinates([column(g, k) for k in range(n)], rhs))
                assert column(lc.gammas[i], j) == expected


def test_levi_civita_certificates(catalog_models):
    for entry in catalog_models.values():
        for born in structures_of(entry, "born"):
            lc = levi_civita(born.algebra, born.g)
            assert torsion(born.algebra, lc).is_zero()
            assert nabla_form(lc, born.g).is_zero()


def test_levi_civita_matches_sympy_linsolve(catalog_models, catalog_structures, nil3_family):
    """Torsion-free and g-parallel, solved by sympy in all n^3 entries of Gamma,
    has a unique solution equal to levi_civita's: on the Kunneth neutral
    metrics of the catalog entries of dim <= 4, the same in two seeded bases,
    and on nil3_r's hypersymplectic metric."""
    pytest.importorskip("sympy")
    metrics = {}  # (algebra, metric) -> the names it comes under
    for name, k in kunneth_cases(catalog_models, catalog_structures):
        if k.algebra.n <= 4 and name.partition("~")[2] in ("", "1", "2"):
            metrics.setdefault((k.algebra, neutral_metric(k)), []).append(name)
    hs, _ = nil3_family
    metrics.setdefault((hs.algebra, hs.metric), []).append("nil3_r hypersymplectic metric")
    curved = 0
    for (L, g), names in metrics.items():
        gammas = levi_civita(L, g).gammas
        assert oracles.sympy_levi_civita(L, g) == gammas, names
        curved += any(not m.is_zero() for m in gammas)
    assert len(metrics) >= 12 and curved >= 6


def test_levi_civita_rejects_degenerate_metric(nil3):
    with pytest.raises(DegenerateFormError, match="^metric is degenerate$"):
        levi_civita(nil3, Matrix.zero(4))


# --- Kunneth connection --------------------------------------------------


def test_kunneth_connection_abelian_zero():
    L = LieAlgebra(2, {})
    k = build_almost_kunneth(L, two_form(2, {(1, 2): 1}), Subspace(2, [[1, 0]]), Subspace(2, [[0, 1]]))
    assert all(m.is_zero() for m in kunneth_connection(k).gammas)


def test_kunneth_equals_levi_civita_when_integrable(catalog_models):
    for entry in catalog_models.values():
        for k in structures_of(entry, "kunneth"):
            L = entry.model.algebra
            integrable = ce_d2(L, k.omega).is_zero()
            if not integrable:
                continue
            assert kunneth_connection(k) == levi_civita(L, neutral_metric(k))


def test_kunneth_preserves_subspaces_and_omega(fixture_kunneth):
    nk = kunneth_connection(fixture_kunneth)
    for sub in (fixture_kunneth.plus, fixture_kunneth.minus):
        for g in nk.gammas:
            for v in sub.basis:
                assert not any(fraction_residual(sub, g.matvec(v)))
    assert nabla_form(nk, fixture_kunneth.omega).is_zero()


def test_kunneth_torsion_nonzero_on_fixture(fixture_kunneth, nil3):
    assert not torsion(nil3, kunneth_connection(fixture_kunneth)).is_zero()


def test_mixed_torsion_empty_for_kunneth_everywhere(catalog_models, fixture_kunneth, nil3):
    for entry in catalog_models.values():
        L = entry.model.algebra
        for k in structures_of(entry, "kunneth"):
            assert mixed_torsion_defect(L, kunneth_connection(k), k.plus, k.minus) is None
    nk = kunneth_connection(fixture_kunneth)
    assert mixed_torsion_defect(nil3, nk, fixture_kunneth.plus, fixture_kunneth.minus) is None


def test_levi_civita_differs_from_kunneth_on_fixture(fixture_kunneth, nil3):
    """On the non-integrable fixture the two connections differ, and what
    fails for Levi-Civita is subspace preservation and omega-parallelism;
    its mixed torsion is empty like that of any torsion-free connection."""
    g = neutral_metric(fixture_kunneth)
    lc = levi_civita(nil3, g)
    nk = kunneth_connection(fixture_kunneth)
    assert lc != nk
    assert mixed_torsion_defect(nil3, lc, fixture_kunneth.plus, fixture_kunneth.minus) is None
    preserved = not any(
        any(fraction_residual(fixture_kunneth.plus, g.matvec(v))) for g in lc.gammas for v in fixture_kunneth.plus.basis
    )
    assert not preserved
    assert not nabla_form(lc, fixture_kunneth.omega).is_zero()


def test_zero_connection_mixed_torsion_empty():
    L = LieAlgebra(4, {})
    zero = Connection(Trilinear((Matrix.zero(4),) * 4))
    f = Subspace(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    g = Subspace(4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    assert mixed_torsion_defect(L, zero, f, g) is None


# --- canonical connection ------------------------------------------------


def test_canonical_collapse_on_integrable(catalog_models):
    for entry in catalog_models.values():
        for born in structures_of(entry, "born"):
            if integrability_report(born) is not None:
                continue
            L = born.algebra
            nc = canonical_connection(born.kunneth)
            nk = kunneth_connection(born.kunneth)
            lc = levi_civita(L, born.g)
            assert nc == nk == lc


def test_canonical_differs_from_kunneth_on_fixture(fixture_kunneth):
    nc = canonical_connection(fixture_kunneth)
    nk = kunneth_connection(fixture_kunneth)
    assert nc != nk
    # the defect is accounted for exactly by the omega_k relation
    assert omega_K_defect(fixture_kunneth).is_zero()


def test_canonical_commutes_with_involution(fixture_kunneth):
    a = fixture_kunneth.split.involution
    nc = canonical_connection(fixture_kunneth)
    for g in nc.gammas:
        for j in range(4):
            assert g.matvec(column(a, j)) == a.matvec(column(g, j))


# --- Born connection -----------------------------------------------------


def test_born_connection_parallel_everything(catalog_models):
    for name in ("h4", "h9_corrected", "h8", "torus_2_2"):
        born = structures_of(catalog_models[name], "born")[0]
        nb = born_connection(born)
        for form in (born.g, born.h, born.omega):
            assert nabla_form(nb, form).is_zero()
        nk, j = kunneth_connection(born.kunneth), born.j_op
        assert nb.gammas == tuple((g - j * g * j) * Fraction(1, 2) for g in nk.gammas)


def test_born_connection_zero_on_abelian(catalog_models):
    born = structures_of(catalog_models["abelian_c2"], "born")[0]
    nb = born_connection(born)
    assert all(m.is_zero() for m in nb.gammas)
    assert nb == kunneth_connection(born.kunneth)


def test_generalized_torsion_zero_for_born_connection(catalog_models):
    for name in ("h4", "h9_corrected", "h8"):
        born = structures_of(catalog_models[name], "born")[0]
        nb = born_connection(born)
        nc = canonical_connection(born.kunneth)
        assert generalized_torsion_defect(nb, nc, born.g).is_zero()


def test_generalized_torsion_self_is_zero(catalog_models):
    born = structures_of(catalog_models["h4"], "born")[0]
    nc = canonical_connection(born.kunneth)
    assert generalized_torsion_defect(nc, nc, born.g).is_zero()


def test_generalized_torsion_family_points(nil3_family):
    hs, jt = nil3_family
    for t in (0, 1, Fraction(1, 2), 2):
        born = s1_family(hs, jt, CirclePoint.from_t(t))
        nb = born_connection(born)
        nc = canonical_connection(born.kunneth)
        assert generalized_torsion_defect(nb, nc, born.g).is_zero()


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
    nk = kunneth_connection(born.kunneth)
    nc = canonical_connection(born.kunneth)
    nb = born_connection(born)
    assert nk == nc
    assert generalized_torsion_defect(nk, nc, born.g).is_zero()
    assert reference_commutator_hit(nk.gammas, born.b_op) is not None
    assert nb != nk
    assert not nabla_form(nk, born.h).is_zero()
    assert not torsion(L, nb).is_zero()


# --- nabla_form ----------------------------------------------------------


def test_nabla_form_zero_connection():
    zero = Connection(Trilinear((Matrix.zero(4),) * 4))
    g = symmetric_form(4, {(1, 4): -1, (2, 3): -1})
    assert nabla_form(zero, g).is_zero()


def test_nabla_form_levi_civita_does_not_preserve_h(nil3_family, nil3):
    hs, jt = nil3_family
    born = s1_family(hs, jt, CirclePoint.from_t(Fraction(1, 2)))
    lc = levi_civita(nil3, hs.metric)
    assert not nabla_form(lc, born.h).is_zero()


# --- pinned witnesses ----------------------------------------------------
# A failing defect reports its lexicographically first nonzero (i, j, k).
# These values pin that order, so a change in how connections or defects are
# stored cannot silently reorder the witnesses a report prints.


def test_nabla_form_witness_levi_civita_omega_on_fixture(fixture_kunneth, nil3):
    lc = levi_civita(nil3, neutral_metric(fixture_kunneth))
    assert nabla_form(lc, fixture_kunneth.omega).first_witness() == ((2, 1, 4), -1)


def test_nabla_form_witness_kunneth_h_on_h4(catalog_models):
    born = structures_of(catalog_models["h4"], "born")[0]
    nk = kunneth_connection(born.kunneth)
    assert nabla_form(nk, born.h).first_witness() == ((1, 2, 2), 2)


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
    assert integrability_report(born) is not None
    half = Fraction(-1, 2)
    assert nonzero_entries(torsion(nil3, born_connection(born)), lower=1) == [
        ((1, 2, 3), half),
        ((1, 3, 2), half),
        ((1, 4, 1), half),
    ]


def test_generalized_torsion_witness_kunneth_on_fixture(fixture_kunneth):
    g = neutral_metric(fixture_kunneth)
    nc = canonical_connection(fixture_kunneth)
    defect = generalized_torsion_defect(kunneth_connection(fixture_kunneth), nc, g)
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
        L.n, lambda i, j: vec_sub(vec_sub(column(c.gammas[i], j), column(c.gammas[j], i)), L.bracket(basis[i], basis[j]))
    )


def basis_values(c):
    """values[i][j] = nabla_{e_i} e_j, as Fractions."""
    return [[column(g, j) for j in range(len(c.gammas))] for g in c.gammas]


def reference_nabla_form(c, b):
    """(nabla_{e_i} b)(e_j, e_k) = -b(nabla_{e_i} e_j, e_k) - b(e_j, nabla_{e_i} e_k), entry by entry.

    The sums run on the integer numerators: with Gamma_i = gn / gd and
    M_b = mn / md, b(nabla_{e_i} e_j, e_k) = sum_a gn[a][j] mn[a][k] / (gd md)
    and b(e_j, nabla_{e_i} e_k) = sum_a mn[j][a] gn[a][k] / (gd md).
    """
    n, mn, md = b.n, b.num, b.den

    def row(i, j):
        gn, gd = c.gammas[i].num, c.gammas[i].den
        return [Fraction(-sum(gn[a][j] * mn[a][k] + mn[j][a] * gn[a][k] for a in range(n)), gd * md) for k in range(n)]

    return reference_tensor(n, row)


def reference_generalized_torsion(c, cc, g):
    """GT_c - GT_cc on basis triples, GT(x,y,z) = g(nabla_x y - nabla_y x, z) + g(nabla_z x, y)."""
    n, rows = g.n, g.rows

    def gt(conn):
        values = basis_values(conn)
        paired = [[evaluate(rows, v) for v in row] for row in values]  # paired[k][i][j] = g(nabla_{e_k} e_i, e_j)

        def row(i, j):
            torsion_part = evaluate(rows, vec_sub(values[i][j], values[j][i]))  # g(nabla_i e_j - nabla_j e_i, .)
            return [torsion_part[k] + paired[k][i][j] for k in range(n)]

        return row

    gt_c, gt_cc = gt(c), gt(cc)
    return reference_tensor(n, lambda i, j: vec_sub(gt_c(i, j), gt_cc(i, j)))


def reference_omega_k(ks, nk, nc):
    """omega(nabla^K_x y - nabla^c_x y, z) + (d omega(Ax, y-, z+) - d omega(Ax, y+, z-)) / 2 on basis triples."""
    L, n = ks.algebra, ks.algebra.n
    pf, pg = projection_onto(ks.plus, ks.minus)
    a = pf - pg
    dw = reference_ce_d2(L, ks.omega)
    along = [contract(dw, column(a, i)) for i in range(n)]  # d omega(A e_i, ., .)
    omega = ks.omega.rows
    vk, vc = basis_values(nk), basis_values(nc)
    pf_columns, pg_columns = [column(pf, k) for k in range(n)], [column(pg, k) for k in range(n)]

    def row(i, j):
        first = evaluate(omega, vec_sub(vk[i][j], vc[i][j]))  # omega(nabla^K_i e_j - nabla^c_i e_j, .)
        minus_then = evaluate(along[i], pg_columns[j])
        plus_then = evaluate(along[i], pf_columns[j])
        return [
            first[k] + (sum(map(mul, minus_then, pf_columns[k])) - sum(map(mul, plus_then, pg_columns[k]))) / 2
            for k in range(n)
        ]

    return reference_tensor(n, row)


def test_defect_witnesses_match_pairwise_definitions(catalog_models, catalog_structures, monkeypatch):
    rng = random.Random(41)
    witnesses = 0
    for name, L, _, _ in cases(catalog_models, catalog_structures):
        c, cc = random_connection(L.n, rng), random_connection(L.n, rng)
        m = random_matrix(L.n, rng)
        # a symmetric, an antisymmetric and a general form
        forms = (m + m.transpose(), m - m.transpose(), m)
        checks = [(torsion(L, c), reference_torsion(L, c), 1)]
        checks += [(nabla_form(c, b), reference_nabla_form(c, b), 0) for b in forms]
        g = forms[0]
        checks.append((generalized_torsion_defect(c, cc, g), reference_generalized_torsion(c, cc, g), 0))
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
            assert omega_K_defect(born.kunneth).is_zero()


def test_omega_k_unprojected_variant_is_not_an_identity(fixture_kunneth, nil3):
    """The variant of the correction term with the first slot unprojected and
    both patterns added with the same sign fails already on this fixture; the
    implemented alternating form is the actual identity."""
    k = fixture_kunneth
    nk = kunneth_connection(k)
    nc = canonical_connection(k)
    dw = ce_d2(nil3, k.omega)
    pf, pg = projection_onto(k.plus, k.minus)
    basis = [basis_vector(4, i) for i in range(4)]
    half = Fraction(1, 2)
    omega = k.omega.rows
    bad_holds = True
    for i in range(4):
        for j in range(4):
            for kk in range(4):
                diff = vec_sub(column(nk.gammas[i], j), column(nc.gammas[i], j))
                value = evaluate(omega, diff, basis[kk])
                corr = evaluate(contract(dw, basis[i]), pf.matvec(basis[j]), pg.matvec(basis[kk]))
                corr += evaluate(contract(dw, basis[i]), pg.matvec(basis[j]), pf.matvec(basis[kk]))
                if value + half * corr != 0:
                    bad_holds = False
    assert not bad_holds


def test_omega_k_randomized_dimension_four(nil3):
    rng = random.Random(101)
    algebras = [nil3, LieAlgebra(4, {}), LieAlgebra(4, {(1, 2): {2: 1}})]
    checked = 0
    while checked < 30:
        L = rng.choice(algebras)
        while True:
            cols = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)] for _ in range(4)]
            p = from_columns(cols)
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
            w,
            Subspace(4, [column(p, 0), column(p, 1)]),
            Subspace(4, [column(p, 2), column(p, 3)]),
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
    assert born_torsion_formula_defect(structures_of(catalog_models["h4"], "born")[0]) is None


def test_born_torsion_formula_abelian(catalog_models):
    assert born_torsion_formula_defect(structures_of(catalog_models["abelian_c1"], "born")[0]) is None


def test_born_torsion_formula_family_branch(nil3_family):
    # at t = 0 the torsion of the Born connection vanishes exactly when the
    # Kunneth connection commutes with B; the engine reports which branch holds
    hs, jt = nil3_family
    born = s1_family(hs, jt, CirclePoint.from_t(0))
    nk = kunneth_connection(born.kunneth)
    nb = born_connection(born)
    commutes = reference_commutator_hit(nk.gammas, born.b_op) is None
    torsion_zero = torsion(born.algebra, nb).is_zero()
    assert torsion_zero == commutes
    assert born_torsion_formula_defect(born) is None


def test_born_torsion_formula_requires_integrability(fixture_kunneth):
    born = enhance_kunneth(fixture_kunneth)
    with pytest.raises(NotIntegrableError):
        born_torsion_formula_defect(born)


def test_connection_errors_carry_their_defect(monkeypatch, catalog_models):
    """A connections row that fails reports its defect: on integrable h4, a
    canonical connection bent by 7 Id at Gamma_4 differs from the Kunneth
    one, and the row's witness is the first nonzero entry of nabla^c - nabla^K."""
    k = structures_of(catalog_models["h4"], "born")[0].kunneth
    nk, nc = kunneth_connection(k), canonical_connection(k)
    assert model._kunneth_connections(k) is None
    bent = Connection(Trilinear(tuple(g + Matrix.identity(6) * 7 if i == 3 else g for i, g in enumerate(nc.gammas))))
    monkeypatch.setattr(model, "canonical_connection", lambda _k: bent)
    note = "integrable case: nabla^g = nabla^K = nabla^c"
    assert first_entry(bent - nk, 0) == ((4, 1, 1), 7)
    assert model._kunneth_connections(k) == Witness((4, 1, 1), "7", note)


# --- frame and commutator oracles -----------------------------------------


def reference_frame_block_hit(gammas, split, rows, cols):
    """First nonzero ((i, a, c), value) of a block of the Gamma_i in the frame, from frame coordinates.

    Entry (a, c) is coordinate a of Gamma_i x_c, with x_c the c-th vector of
    the cols side, solved pairwise against both bases.
    """
    bases = {"+": split.plus.basis, "-": split.minus.basis}
    offset = 0 if rows == "+" else split.plus.dim
    for i, g in enumerate(gammas):
        coords = [reference_coordinates(bases["+"] + bases["-"], g.matvec(x)) for x in bases[cols]]
        for a in range(len(bases[rows])):
            for c, u in enumerate(coords):
                if u[offset + a] != 0:
                    return (i + 1, a + 1, c + 1), u[offset + a]
    return None


def reference_commutator_hit(gammas, t):
    """First nonzero ((i, j, k), value) of Gamma_i T - T Gamma_i, entry by entry on the integer numerators."""
    n, tn = t.n, t.num
    for i, g in enumerate(gammas):
        gn = g.num
        for j in range(n):
            for k in range(n):
                value = sum(gn[j][l] * tn[l][k] - tn[j][l] * gn[l][k] for l in range(n))
                if value != 0:
                    return (i + 1, j + 1, k + 1), Fraction(value, g.den * t.den)
    return None


# --- failures the constructions rule out carry their witnesses -----------


def test_kunneth_mixed_torsion_failure_carries_its_witness(catalog_models):
    """Adding c (pi_F - pi_G) to each Gamma_i of the Kunneth connection keeps
    both subspaces preserved but gives mixed torsion, whose first witness is
    the pairwise oracle's."""
    k = structures_of(catalog_models["h4"], "born")[0].kunneth
    c = Fraction(1, 3)
    involution = splitting(k.plus, k.minus).involution
    conn = Connection(Trilinear(tuple(g + involution * c for g in kunneth_connection(k).gammas)))
    for s in (k.plus, k.minus):
        assert not any(any(fraction_residual(s, g.matvec(v))) for g in conn.gammas for v in s.basis)
    expected = next(iter(reference_mixed_torsion(k.algebra, conn, k.plus, k.minus)))
    assert Witness.at(*mixed_torsion_defect(k.algebra, conn, k.plus, k.minus)) == expected


def unit_at(n, r, s, value):
    return Matrix([[value if (a, b) == (r, s) else 0 for b in range(n)] for a in range(n)])


def skewed_average(c, t, at, unit):
    """The conjugation average of c by t, moved by unit at Gamma_at."""
    gammas = list(connections._conjugate_average(c, t).gammas)
    gammas[at] = gammas[at] + unit
    return Connection(Trilinear(tuple(gammas)))


def test_canonical_commutation_failure_carries_its_commutator_witness(catalog_models):
    """The proof that the canonical connection is g-parallel rests on the
    A-average: moved off it, an average that does not commute with A is not
    g-parallel (nabla g = nabla omega = 0 would give nabla A = 0), and
    nabla_form locates the failure at the first nonzero entry of nabla g."""
    k = structures_of(catalog_models["h4"], "born")[0].kunneth
    g, a_op = neutral_metric(k), k.split.involution
    lc = levi_civita(k.algebra, g)
    assert skewed_average(lc, a_op, 2, Matrix.zero(6)) == canonical_connection(k)
    conn = skewed_average(lc, a_op, 2, unit_at(6, 0, 2, Fraction(2, 5)))
    assert reference_commutator_hit(conn.gammas, a_op) is not None
    expected = first_entry(reference_nabla_form(conn, g), 0)
    assert expected == ((3, 3, 3), Fraction(-4, 5))
    assert nabla_form(conn, g).first_witness() == expected


def test_born_commutation_failure_carries_its_commutator_witness(catalog_models):
    """The proof that the Born connection is g-, h- and omega-parallel rests
    on the B-average: moved off it, an average that does not commute with A,
    B and J fails to keep one of g, h, omega parallel, and nabla_form locates
    the failure at the first nonzero entry of the first such nabla b."""
    born = structures_of(catalog_models["h4"], "born")[0]
    nk = kunneth_connection(born.kunneth)
    assert skewed_average(nk, born.b_op, 1, Matrix.zero(6)) == born_connection(born)
    conn = skewed_average(nk, born.b_op, 1, unit_at(6, 3, 0, Fraction(-3)))
    assert all(reference_commutator_hit(conn.gammas, op) for op in (born.a_op, born.b_op, born.j_op))
    forms = (("g", born.g), ("h", born.h), ("omega", born.omega))
    expected = next((name, hit) for name, b in forms if (hit := first_entry(reference_nabla_form(conn, b), 0)))
    assert expected == ("g", ((2, 1, 5), -3))
    assert next((name, hit) for name, b in forms if (hit := nabla_form(conn, b).first_witness())) == expected


# --- what the constructions prove instead of recomputing ----------------


@pytest.fixture(scope="module")
def kunneth_structures(catalog_models, catalog_structures):
    """Every catalog Kunneth structure, the same in seeded bases, seeded random
    Kunneth data, and the phase spaces of dim <= 6 plain and sheared."""
    out = list(kunneth_cases(catalog_models, catalog_structures))
    rng = random.Random(19)
    out += [(f"random-{r}", random_kunneth(rng)) for r in range(20)]
    for k, strict in DRAWN_PHASE_SPACES:
        plain = phase_space(k, strict)
        out += [(f"phase-{k}-{strict}", plain), (f"sheared-{k}-{strict}", sheared(plain, random.Random(k)))]
    return out


def test_kunneth_connection_preserves_both_subspaces_by_its_shape(kunneth_structures):
    """kunneth_connection proves that each Gamma^K_i maps plus into plus and
    minus into minus: the (-,+) and (+,-) frame blocks vanish, solved here
    vector by vector in frame coordinates."""
    for name, k in kunneth_structures:
        gammas, split = kunneth_connection(k).gammas, splitting(k.plus, k.minus)
        assert reference_frame_block_hit(gammas, split, "-", "+") is None, name
        assert reference_frame_block_hit(gammas, split, "+", "-") is None, name
    assert len(kunneth_structures) > 100


def test_almost_product_is_an_involution_and_recovers_omega(kunneth_structures):
    """canonical_connection reads A = k.split.involution and g = neutral_metric(k)
    without re-checking them: A^2 = Id and g(A e_i, e_j) = omega(e_i, e_j),
    entry by entry."""
    for name, k in kunneth_structures:
        n = k.algebra.n
        a, g, omega = k.split.involution.rows, neutral_metric(k).rows, k.omega.rows
        for i in range(n):
            image = [a[r][i] for r in range(n)]  # A e_i
            assert evaluate(list(zip(*a)), image) == basis_vector(n, i), name  # A (A e_i) = e_i
            assert evaluate(g, image) == omega[i], name  # g(A e_i, e_j) = omega(e_i, e_j) for every j


def test_canonical_connection_is_the_a_average_of_levi_civita(kunneth_structures):
    """canonical_connection averages Levi-Civita with A = k.split.involution
    and g = neutral_metric(k), as its docstring states, entry by entry."""
    for name, k in kunneth_structures:
        lc = levi_civita(k.algebra, neutral_metric(k)).gammas
        assert canonical_connection(k).gammas == reference_conjugate_average(lc, k.split.involution, 1), name


def test_constructions_prove_the_nine_connection_certifications(kunneth_structures, catalog_models, catalog_structures):
    """No connection constructor re-certifies what it built; each property its
    docstring proves is computed here by the pairwise oracles.  On every
    Kunneth structure: Levi-Civita of the neutral metric is torsion-free and
    g-parallel, the Kunneth connection is omega-parallel with no mixed
    torsion, and the canonical connection is g- and omega-parallel.  On every
    built Born structure the B-average is g-, h- and omega-parallel."""
    borns = built_borns(catalog_models, catalog_structures)
    named = kunneth_structures + [(f"born-{r}", b.kunneth) for r, b in enumerate(borns)]
    kunneths = {k: name for name, k in reversed(named)}  # each distinct structure once, under its first name
    for k, name in kunneths.items():
        L, g = k.algebra, neutral_metric(k)
        lc, nk, nc = levi_civita(L, g), kunneth_connection(k), canonical_connection(k)
        assert first_entry(reference_torsion(L, lc), 1) is None, name
        assert reference_mixed_torsion(L, nk, k.plus, k.minus) == [], name
        for c, b in ((lc, g), (nk, k.omega), (nc, g), (nc, k.omega)):
            assert first_entry(reference_nabla_form(c, b), 0) is None, name
    for b in borns:
        nb = born_connection(b)
        for form in (b.g, b.h, b.omega):
            assert first_entry(reference_nabla_form(nb, form), 0) is None
    assert len(kunneths) > 90 and len(borns) >= 70


def reference_conjugate_average(gammas, t, sign):
    """(Gamma_i + sign T Gamma_i T) / 2, entry by entry, as the matrices of each slice.

    The sums run on the integer numerators: with T = tn / td and
    Gamma_i = gn / gd, the average is (td^2 gn + sign tn gn tn) / (2 td^2 gd).
    """
    n, tn, td = t.n, t.num, t.den
    out = []
    for g in gammas:
        gn = g.num
        t_g = [[sum(tn[j][l] * gn[l][m] for l in range(n)) for m in range(n)] for j in range(n)]
        rows = [
            [td * td * gn[j][k] + sign * sum(t_g[j][m] * tn[m][k] for m in range(n)) for k in range(n)]
            for j in range(n)
        ]
        out.append(Matrix([[Fraction(v, 2 * td * td * g.den) for v in row] for row in rows]))
    return tuple(out)


def test_born_average_is_the_j_average_and_commutes_with_a_b_j(catalog_models, catalog_structures):
    """born_connection certifies only nabla g = nabla h = nabla omega = 0 and
    canonical_connection only nabla g = nabla omega = 0; the statements their
    docstrings prove instead are checked here entry by entry, on every catalog
    Born structure, the same in seeded unimodular bases, and Born structures
    enhanced from random Kunneth data."""
    rng = random.Random(16)
    borns = list(born_cases(catalog_models, catalog_structures))
    borns += [(f"random-{r}", enhance_kunneth(random_kunneth(rng))) for r in range(20)]
    moved = 0
    for name, b in borns:
        nk = kunneth_connection(b.kunneth).gammas
        nb = born_connection(b).gammas
        assert nb == reference_conjugate_average(nk, b.b_op, 1), name
        assert nb == reference_conjugate_average(nk, b.j_op, -1), name
        for op in (b.a_op, b.b_op, b.j_op):
            assert reference_commutator_hit(nb, op) is None, name
        nc = canonical_connection(b.kunneth).gammas
        assert reference_commutator_hit(nc, b.a_op) is None, name
        moved += nb != nk
    # the average does work: on these the Kunneth connection itself is not B-invariant
    assert moved > 30


def counted_products(monkeypatch):
    """The factors of every product by a Matrix made from now on, in order: a Matrix times a Matrix counts as one,
    and a tensor times a Matrix, or a Matrix times a tensor, as one per slice, packed or not."""
    products = []

    def counting(method, left):
        def counted(self, other):
            if isinstance(other, Matrix):
                pair = (self, other) if left else (other, self)
                products.extend([pair] * (len(self.num) // self.n))
            return method(self, other)
        return counted

    monkeypatch.setattr(Matrix, "__mul__", counting(Matrix.__mul__, True))
    monkeypatch.setattr(Trilinear, "__mul__", counting(Trilinear.__mul__, True))
    monkeypatch.setattr(Trilinear, "__rmul__", counting(Trilinear.__rmul__, False))
    return products


def test_kunneth_connection_makes_four_products_per_slice_and_reads_the_q_of_d_omega(
    catalog_models, catalog_structures, monkeypatch
):
    """On every catalog Kunneth structure, in the catalog basis and seeded
    ones: d omega from cold makes n products (the Q_a = ad_a^T omega), and
    the Kunneth connection after it exactly 4n, n for D_a = -omega^-1 Q_a and
    three per slice, with the same result as the memoized one.  The cold
    copy is the structure built again over a fresh omega, which d omega and
    the Q_a are kept on."""
    products = counted_products(monkeypatch)
    for name, k in kunneth_cases(catalog_models, catalog_structures):
        n, d_omega, nk = k.algebra.n, ce_d2(k.algebra, k.omega), kunneth_connection(k)
        cold = build_almost_kunneth(k.algebra, Matrix.of_fractions(k.omega.rows), k.plus, k.minus)
        products.clear()
        assert ce_d2(cold.algebra, cold.omega) == d_omega, name
        assert len(products) == n, name
        products.clear()
        assert kunneth_connection(cold) == nk, name
        assert len(products) == 4 * n, name


def test_certified_involutions_are_not_squared_again(catalog_models, catalog_structures, monkeypatch):
    """On every catalog Born structure, in the catalog basis and seeded ones,
    build_born forms A A and B B once each, to certify A^2 = B^2 = Id, and
    the torsion formula of an integrable one forms no B B."""
    products = counted_products(monkeypatch)
    for name, b in born_cases(catalog_models, catalog_structures):
        products.clear()
        assert build_born(b.algebra, b.g, b.h, b.omega) == b, name
        assert products.count((b.a_op, b.a_op)) == 1 and products.count((b.b_op, b.b_op)) == 1, name
        if integrability_report(b) is None:
            born_connection(b)
            products.clear()
            born_torsion_formula_defect(b)
            assert (b.b_op, b.b_op) not in products, name
