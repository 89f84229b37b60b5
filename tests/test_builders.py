"""ce_d2 and nijenhuis against their per-component definitions.

The builders compute n matrix identities (W_i = Q_i^T - Q_i - R_i^T with
Q_i = ad_i^T M for d omega, N_i for the Nijenhuis tensor).  The reference
oracles below are the per-triple and four-bracket formulas they replaced,
filling the full slices pair by pair.  Both are compared on every catalog
algebra with its forms and operators, and again after seeded unimodular
changes of basis, which make every entry dense.  The first witness is
compared with the first nonzero reference entry with i < j < k for d omega
and with i < j for N, the entries that determine an alternating tensor and
one antisymmetric in its first two arguments.
"""

import random
from fractions import Fraction

import pytest

from bornlab import LieAlgebra, Matrix, Trilinear, ce_d2, invert, nijenhuis
from oracles import basis_vector, column, contract, evaluate, nonzero_entries, vec_add, vec_sub

SEEDS = (1, 2, 3)


def reference_tensor(n, row):
    """The Trilinear whose slice i has row(i, j) as its row j, filled pair by pair."""
    return Trilinear(tuple(Matrix([row(i, j) for j in range(n)]) for i in range(n)))


def reference_ce_d2(L, m):
    """dw(e_i,e_j,e_k) = -w([e_i,e_j],e_k) + w([e_i,e_k],e_j) - w([e_j,e_k],e_i), triple by triple."""
    n = L.n
    basis = [basis_vector(n, i) for i in range(n)]
    rows = m.rows
    # w_br[i][j][k] = w([e_i,e_j], e_k)
    w_br = [
        [[sum(c * rows[a][k] for a, c in enumerate(L.bracket(x, y))) for k in range(n)] for y in basis]
        for x in basis
    ]

    def row(i, j):
        return [-w_br[i][j][k] + w_br[i][k][j] - w_br[j][k][i] for k in range(n)]

    return reference_tensor(n, row)


def reference_nijenhuis(L, t):
    """[Te_i,Te_j] + T^2 [e_i,e_j] - T[Te_i,e_j] - T[e_i,Te_j], pair by pair."""
    n = L.n
    t2 = t * t
    images = [column(t, j) for j in range(n)]

    def component(i, j):
        ei, ej = basis_vector(n, i), basis_vector(n, j)
        term = L.bracket(images[i], images[j])
        term = vec_add(term, t2.matvec(L.bracket(ei, ej)))
        term = vec_sub(term, t.matvec(L.bracket(images[i], ej)))
        term = vec_sub(term, t.matvec(L.bracket(ei, images[j])))
        return term

    return reference_tensor(n, component)


def first_entry(t, lower):
    """The first of nonzero_entries(t, lower), or None."""
    return next(iter(nonzero_entries(t, lower)), None)


def random_unimodular(n, rng):
    """P = L U with unit triangular integer factors, so P^-1 is integral too."""
    lower = Matrix([[1 if i == j else rng.randint(-2, 2) if i > j else 0 for j in range(n)] for i in range(n)])
    upper = Matrix([[1 if i == j else rng.randint(-2, 2) if i < j else 0 for j in range(n)] for i in range(n)])
    return lower * upper


def moved_algebra(L, p, check=True):
    """The algebra in the basis f_a = P e_a: [f_a, f_b] = P^-1 [P e_a, P e_b];
    with check=False the brackets need not satisfy Jacobi."""
    n, p_inv = L.n, invert(p)
    cols = [column(p, a) for a in range(n)]
    brackets = {}
    for a in range(n):
        for b in range(a + 1, n):
            out = p_inv.matvec(L.bracket(cols[a], cols[b]))
            brackets[(a + 1, b + 1)] = {k + 1: c for k, c in enumerate(out) if c}
    return LieAlgebra(n, brackets, check=check)


def catalog_cases(catalog_models, catalog_structures):
    """(name, algebra, two-forms, endomorphisms) per catalog entry with a model."""
    for name, entry in catalog_models.items():
        model = entry.model
        forms = list(model.forms.values())
        endos = list(model.endos.values())
        for b in catalog_structures[name]["borns"]:
            forms.append(b.omega)
            endos += [b.a_op, b.b_op, b.j_op]
        yield name, model.algebra, forms, endos


def cases(catalog_models, catalog_structures):
    """Catalog cases in the standard basis, then in seeded unimodular bases."""
    for name, L, forms, endos in catalog_cases(catalog_models, catalog_structures):
        yield name, L, forms, endos
        for seed in SEEDS:
            p = random_unimodular(L.n, random.Random(f"{name}-{seed}"))
            p_inv = invert(p)
            yield (
                f"{name}~{seed}",
                moved_algebra(L, p),
                [p.transpose() * w * p for w in forms],
                [p_inv * t * p for t in endos],
            )


def test_ce_d2_matches_per_triple_oracle(catalog_models, catalog_structures):
    checked = witnesses = 0
    for name, L, forms, _ in cases(catalog_models, catalog_structures):
        rng = random.Random(name)
        random_form = [[Fraction(0)] * L.n for _ in range(L.n)]
        for i in range(L.n):
            for j in range(i + 1, L.n):
                random_form[i][j] = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
                random_form[j][i] = -random_form[i][j]
        for w in forms + [Matrix(random_form)]:
            d, expected = ce_d2(L, w), reference_ce_d2(L, w)
            assert d == expected, name
            assert d.first_witness() == first_entry(expected, 2), name
            checked += 1
            witnesses += d.first_witness() is not None
    assert checked > 40
    assert witnesses > 25


def test_nijenhuis_matches_four_bracket_oracle(catalog_models, catalog_structures):
    checked = witnesses = 0
    for name, L, _, endos in cases(catalog_models, catalog_structures):
        rng = random.Random(name)
        random_endo = Matrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(L.n)] for _ in range(L.n)])
        for t in endos + [random_endo]:
            n_t, expected = nijenhuis(L, t), reference_nijenhuis(L, t)
            assert n_t == expected, name
            assert n_t.first_witness() == first_entry(expected, 1), name
            checked += 1
            witnesses += n_t.first_witness() is not None
    assert checked > 40
    assert witnesses > 15


@pytest.mark.parametrize("seed", SEEDS)
def test_builders_are_covariant_under_change_of_basis(catalog_models, catalog_structures, seed):
    """d omega and N_T in the basis P e_a are the originals evaluated on P e_a (N mapped back by P^-1).

    The originals are evaluated through their slices, the moved tensors read entry by entry.
    """
    for name, L, forms, endos in catalog_cases(catalog_models, catalog_structures):
        p = random_unimodular(L.n, random.Random(f"{name}-{seed}"))
        p_inv = invert(p)
        moved = moved_algebra(L, p)
        cols = [column(p, a) for a in range(L.n)]
        for w in forms:
            d, d_moved = ce_d2(L, w), ce_d2(moved, p.transpose() * w * p)
            for i in range(L.n):
                along = contract(d, cols[i])
                for j in range(i + 1, L.n):
                    for k in range(j + 1, L.n):
                        assert d_moved.slices[i].entry(j + 1, k + 1) == evaluate(along, cols[j], cols[k]), name
        for t in endos:
            n_t, n_moved = nijenhuis(L, t), nijenhuis(moved, p_inv * t * p)
            for i in range(L.n):
                along = contract(n_t, cols[i])
                for j in range(i + 1, L.n):
                    assert n_moved.slices[i].rows[j] == p_inv.matvec(evaluate(along, cols[j])), name
