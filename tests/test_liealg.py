"""Lie algebras, Jacobi validation and the invariant differential."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from bornlab import LieAlgebra, Matrix, ce_d2, determinant, invert, is_subalgebra
from bornlab.errors import DimensionMismatchError, JacobiViolationError
from bornlab.exact import Subspace
from bornlab.multilinear import two_form
from conftest import rational_grid
from oracles import (
    OneForm,
    basis_vector,
    ce_d1,
    is_closed,
    jacobi_defect,
    nonzero_entries,
    pairwise_subalgebra,
    reference_jacobi,
    wedge_one_one,
    wedge_two_one,
)
from test_builders import moved_algebra, random_unimodular


def e(n, i):
    """1-based basis vector."""
    return basis_vector(n, i - 1)


def gauss_member(basis, v):
    """Independent membership oracle: eliminate v against a copy of basis."""
    rows = [list(map(Fraction, b)) for b in basis]
    w = list(map(Fraction, v))
    used = set()
    for row in rows:
        pivot = next((c for c, x in enumerate(row) if x != 0), None)
        assert pivot is not None and pivot not in used
        used.add(pivot)
        if w[pivot] != 0:
            f = w[pivot] / row[pivot]
            w = [a - f * b for a, b in zip(w, row)]
    return all(x == 0 for x in w)


# --- brackets -----------------------------------------------------------


def test_bracket_nil3(nil3):
    assert nil3.bracket(e(4, 1), e(4, 2)) == e(4, 3)


def test_bracket_h4(h4_algebra):
    assert h4_algebra.bracket(e(6, 1), e(6, 4)) == tuple(-x for x in e(6, 6))


def test_bracket_antisymmetry_and_bilinearity(nil3):
    rng = random.Random(3)
    for _ in range(20):
        x = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4))
        y = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4))
        z = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4))
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        assert nil3.bracket(x, x) == (0, 0, 0, 0)
        assert nil3.bracket(x, y) == tuple(-v for v in nil3.bracket(y, x))
        lhs = nil3.bracket(tuple(a + c * b for a, b in zip(x, z)), y)
        rhs = tuple(a + c * b for a, b in zip(nil3.bracket(x, y), nil3.bracket(z, y)))
        assert lhs == rhs


def test_bracket_dimension_mismatch(nil3):
    with pytest.raises(DimensionMismatchError):
        nil3.bracket((1, 0, 0), (0, 1, 0, 0))


# --- Jacobi -------------------------------------------------------------


def test_jacobi_abelian_zero():
    defect = jacobi_defect(LieAlgebra(4, {}))
    assert all(v == 0 for v in defect.values())


def test_jacobi_h4_zero_against_expansion_oracle(h4_algebra):
    assert not any(reference_jacobi(h4_algebra).values())


def test_jacobi_violation_rejected_at_construction():
    # [[e1,e2],e4] + [[e2,e4],e1] + [[e4,e1],e2] = [e3,e4] = e1 != 0
    bad = {(1, 2): {3: 1}, (3, 4): {1: 1}}
    with pytest.raises(JacobiViolationError) as info:
        LieAlgebra(4, bad)
    assert info.value.hit[1] != 0


def test_jacobi_defect_nonzero_unchecked():
    L = LieAlgebra(4, {(1, 2): {3: 1}, (3, 4): {1: 1}}, check=False)
    defect = jacobi_defect(L)
    assert any(v != 0 for v in defect.values())


def random_brackets(n, rng):
    """Seeded rational brackets on a few pairs: most such tables violate Jacobi."""
    grid = rational_grid()
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return {
        pair: {k: rng.choice(grid) for k in rng.sample(range(1, n + 1), rng.randint(1, 2))}
        for pair in rng.sample(pairs, rng.randint(2, min(len(pairs), 2 * n)))
    }


def test_jacobi_violation_and_defect_match_pairwise_oracle(catalog_models):
    """Seeded bracket tables of dims 3-8, each also in a seeded unimodular
    basis: construction raises at the oracle's lexicographically first nonzero
    Jacobi sum, and jacobi_defect of the unchecked algebra is the oracle, entry
    for entry and in the same order; on the catalog algebras both vanish."""
    rng = random.Random(23)
    cases = []
    for n in range(3, 9):
        for _ in range(3):
            L = LieAlgebra(n, random_brackets(n, rng), check=False)
            cases += [L, moved_algebra(L, random_unimodular(n, rng), check=False)]
    first = []  # the index of each raised hit
    for L in cases:
        reference = reference_jacobi(L)
        defect = jacobi_defect(L)
        assert list(defect.items()) == list(reference.items()), L
        hits = [(index, value) for index, value in reference.items() if value]
        if not hits:
            LieAlgebra(L.n, L.brackets)
            continue
        with pytest.raises(JacobiViolationError) as info:
            LieAlgebra(L.n, L.brackets)
        assert info.value.hit == hits[0], L
        first.append(hits[0][0])
    # most tables violate, and some hits lie beyond the first triple or the first output index
    assert len(first) >= 30
    assert any(index[:3] != (1, 2, 3) for index in first) and any(index[3] > 1 for index in first)
    for entry in catalog_models.values():
        L = entry.model.algebra
        reference = reference_jacobi(L)
        assert list(jacobi_defect(L).items()) == list(reference.items())
        assert not any(reference.values())


# --- differential -------------------------------------------------------


def test_brackets_read_back_build_the_same_algebra(catalog_models):
    """On every catalog algebra and on seeded moved ones, the table `brackets`
    reads off the algebra builds an equal algebra with an equal hash; the
    table is sorted, reduced and free of zeros.  A table given with pairs and
    outputs out of order and with zero coefficients builds the same algebra."""
    rng = random.Random(31)
    algebras = []
    for entry in catalog_models.values():
        L = entry.model.algebra
        algebras += [L, moved_algebra(L, random_unimodular(L.n, rng))]
    for L in algebras:
        table = L.brackets
        assert list(table) == sorted(table) and all(i < j for i, j in table), L
        for out in table.values():
            assert out and list(out) == sorted(out), L
            assert all(type(c) is Fraction and c != 0 for c in out.values()), L
        again = LieAlgebra(L.n, table)
        assert again == L and hash(again) == hash(L) and again.brackets == table, L
    assert len(algebras) == 20 and sum(bool(L.brackets) for L in algebras) >= 10
    h4 = LieAlgebra(6, {(1, 2): {5: -1}, (1, 4): {6: -1}, (2, 3): {6: -1}})
    shuffled = LieAlgebra(6, {(2, 3): {6: "-2/2", 1: 0}, (3, 5): {2: 0}, (1, 4): {6: -1}, (1, 2): {5: Fraction(-1)}})
    assert shuffled == h4 and hash(shuffled) == hash(h4) and shuffled.brackets == h4.brackets


def test_d1_h4_alpha5(h4_algebra):
    d = ce_d1(h4_algebra, OneForm.dual(6, 5))
    assert d == two_form(6, {(1, 2): 1})


def test_d1_abelian_zero():
    L = LieAlgebra(3, {})
    d = ce_d1(L, OneForm([1, 2, 3]))
    assert d.is_zero()


def test_d1_nil3_alpha3(nil3):
    d = ce_d1(nil3, OneForm.dual(4, 3))
    assert d == two_form(4, {(1, 2): -1})


def test_d2_h4_omega_closed(h4_algebra):
    omega = two_form(6, {(1, 3): 1, (2, 6): 1, (4, 5): 1})
    assert ce_d2(h4_algebra, omega).is_zero()
    assert is_closed(h4_algebra, omega)


def test_d2_abelian_zero():
    L = LieAlgebra(4, {})
    w = two_form(4, {(1, 2): 3, (1, 4): Fraction(-2, 3)})
    assert ce_d2(L, w).is_zero()


def test_d2_fixture_form_not_closed(nil3):
    w = two_form(4, {(1, 2): 1, (4, 3): 1})
    d = ce_d2(nil3, w)
    assert nonzero_entries(d, lower=2) == [((1, 2, 4), Fraction(1))]
    assert not is_closed(nil3, w)


def test_d_squared_is_zero(nil3, h4_algebra, h9_algebra):
    rng = random.Random(9)
    for L in (nil3, h4_algebra, h9_algebra, LieAlgebra(4, {})):
        for i in range(L.n):
            assert ce_d2(L, ce_d1(L, OneForm.dual(L.n, i + 1))).is_zero()
        for _ in range(5):
            a = OneForm([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(L.n)])
            assert ce_d2(L, ce_d1(L, a)).is_zero()


def test_leibniz_rule(nil3, h4_algebra):
    # d(a ^ b) = da ^ b - a ^ db for one-forms
    rng = random.Random(13)
    for L in (nil3, h4_algebra):
        for _ in range(8):
            a = OneForm([Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(L.n)])
            b = OneForm([Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(L.n)])
            lhs = ce_d2(L, wedge_one_one(a, b))
            rhs_plus = wedge_two_one(ce_d1(L, a), b)
            rhs_minus = wedge_two_one(ce_d1(L, b), a)
            assert lhs.slices == tuple(p - m for p, m in zip(rhs_plus.slices, rhs_minus.slices))


# --- subalgebras --------------------------------------------------------


def test_subalgebra_h4(h4_algebra):
    s = Subspace(6, [e(6, 1), e(6, 2), e(6, 5)])
    assert is_subalgebra(h4_algebra, s)


def test_subalgebra_one_dimensional(nil3):
    for i in range(1, 5):
        assert is_subalgebra(nil3, Subspace(4, [e(4, i)]))


def test_subalgebra_failure_witness(nil3):
    s = Subspace(4, [e(4, 1), e(4, 2)])
    result = is_subalgebra(nil3, s)
    assert not result
    assert result.witness == (1, 2)
    assert result.residual == e(4, 3)
    # cross-check with the independent membership oracle
    assert not gauss_member(s.basis, nil3.bracket(e(4, 1), e(4, 2)))


def test_subalgebra_agrees_with_oracle(h4_algebra):
    rng = random.Random(31)
    n = h4_algebra.n
    for _ in range(10):
        vs = []
        while len(vs) < 2:
            v = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
            try:
                Subspace(n, vs + [v])
            except ValueError:
                continue
            vs.append(v)
        s = Subspace(n, vs)
        expected = all(
            gauss_member(s.basis, h4_algebra.bracket(a, b))
            for idx, a in enumerate(s.basis)
            for b in s.basis[idx + 1:]
        )
        assert bool(is_subalgebra(h4_algebra, s)) == expected


def test_subalgebra_rejects_subspace_of_another_dimension(nil3, h4_algebra):
    for L, n in ((nil3, 6), (h4_algebra, 4), (h4_algebra, 8)):
        for k in (1, 2, 3):
            with pytest.raises(DimensionMismatchError):
                is_subalgebra(L, Subspace(n, [e(n, i) for i in range(1, k + 1)]))


def random_semidirect(n, rng):
    """R e_1 acting on the abelian ideal spanned by e_2..e_n through a random matrix."""
    grid = rational_grid()
    brackets = {(1, j): {k: rng.choice(grid) for k in range(2, n + 1)} for j in range(2, n + 1)}
    return LieAlgebra(n, brackets)


def random_two_step(n, rng):
    """Brackets of e_3..e_n into the centre spanned by e_1, e_2, which leads every echelon basis."""
    grid = rational_grid()
    brackets = {(i, j): {1: rng.choice(grid), 2: rng.choice(grid)} for i in range(3, n + 1) for j in range(i + 1, n + 1)}
    return LieAlgebra(n, brackets)


def random_subspaces(n, rng):
    """Per dimension 1..n-1: three spans of basis vectors and a span of rational vectors."""
    grid = rational_grid()
    for k in range(1, n):
        for _ in range(3):
            yield Subspace(n, [e(n, i) for i in sorted(rng.sample(range(1, n + 1), k))])
        while True:
            try:
                yield Subspace(n, [[rng.choice(grid) for _ in range(n)] for _ in range(k)])
                break
            except ValueError:
                continue


def test_subalgebra_witness_and_residual_match_pairwise_oracle(catalog_models, catalog_structures):
    """Catalog algebras, also in seeded unimodular bases, and random algebras, also in rational bases."""
    rng = random.Random(37)
    cases = []
    for name, entry in catalog_models.items():
        L = entry.model.algebra
        declared = list(entry.model.subspaces.values())
        declared += [s for b in catalog_structures[name]["borns"] for s in (b.kunneth.plus, b.kunneth.minus)]
        cases.append((L, declared))
        for seed in (1, 2):
            p = random_unimodular(L.n, random.Random(f"{name}-{seed}"))
            p_inv = invert(p)
            cases.append((moved_algebra(L, p), [Subspace(L.n, [p_inv.matvec(v) for v in s.basis]) for s in declared]))
    for n in (3, 4, 5, 6):
        for make in (random_semidirect, random_two_step):
            L = make(n, rng)
            cases.append((L, []))
            p = Matrix([[rng.choice(rational_grid()) for _ in range(n)] for _ in range(n)])
            if determinant(p) != 0:
                cases.append((moved_algebra(L, p), []))
    outcomes = Counter()
    for L, declared in cases:
        for s in declared + list(random_subspaces(L.n, rng)):
            result = is_subalgebra(L, s)
            expected = pairwise_subalgebra(L, s)
            assert (result.ok, result.witness, result.residual) == expected, (L, s)
            outcomes[result.ok, result.witness] += 1
    assert outcomes[True, None] > 300
    failures = [w for ok, w in outcomes if not ok]
    assert sum(outcomes[False, w] for w in failures) > 100
    assert any(a > 1 for a, _ in failures)  # the pair order shows beyond the first basis vector
