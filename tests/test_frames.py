"""Subspace checks, mixed torsion, the torsion formula and Jacobi against their pairwise definitions.

These properties are blocks of one product in the frame adapted to a
splitting, or values of a bilinear map on pairs of frame vectors.  The
reference oracles below are the loops over pairs of basis vectors (and the
Jacobi triple loop) they replaced.  Catalog structures pass every check, so
they also run after seeded unimodular changes of basis, on seeded random
connections, endomorphisms and subspaces, and on random algebras that
violate Jacobi: there the witnesses are nonzero and their order is tested.
The Kunneth connection is also compared with the four-combination formula
its one-combination assembly replaced.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from bornlab import (
    LieAlgebra,
    Matrix,
    Subspace,
    born_torsion_formula_defect,
    build_almost_kunneth,
    build_born,
    enhance_kunneth,
    integrability_report,
    invert,
    involution_split,
    verify_born_identities,
)
from bornlab import connections, exact
from bornlab.connections import Connection
from bornlab.errors import JacobiViolationError, NotCompatibleError, NotComplementaryError, NotIsotropicError
from bornlab.exact import kernel_basis, linear_combination, projection_onto, splitting
from bornlab.structures import Witness, witness_at
from oracles import (
    basis_vector,
    column,
    diagonal,
    evaluate,
    four_combination_kunneth,
    fraction_residual,
    from_columns,
    jacobi_defect,
    mixed_torsion_defect,
    nabla,
    reference_coordinates,
    reference_pairing,
    vec_add,
    vec_sub,
)
from test_builders import moved_algebra, random_unimodular

SEEDS = (1, 2, 3)


# --- reference oracles: the pairwise definitions -----------------------------


def reference_maps_into(t, source, target):
    return not any(any(fraction_residual(target, t.matvec(v))) for v in source.basis)


def reference_torsion(L, c, x, y):
    return vec_sub(vec_sub(nabla(c, x, y), nabla(c, y, x)), L.bracket(x, y))


def reference_witnesses(indexed_vectors):
    """(index + (k,), value) at the first nonzero coordinate k of each vector, in order."""
    out = []
    for index, v in indexed_vectors:
        k = next((k for k, value in enumerate(v) if value != 0), None)
        if k is not None:
            out.append(Witness.at(index + (k + 1,), v[k]))
    return out


def reference_mixed_torsion(L, c, plus, minus):
    return reference_witnesses(
        ((a + 1, b + 1), reference_torsion(L, c, x, y))
        for a, x in enumerate(plus.basis)
        for b, y in enumerate(minus.basis)
    )


def reference_torsion_formula(b, nb, nk):
    """First witness of T = 0 on B+ x B+, on B- x B-, and of the formula on B+ x B-."""
    L, n = b.algebra, b.algebra.n
    ident = Matrix.identity(n)
    plus = Subspace(n, kernel_basis(b.b_op - ident))
    minus = Subspace(n, kernel_basis(b.b_op + ident))
    pi_plus, pi_minus = (ident + b.b_op) * Fraction(1, 2), (ident - b.b_op) * Fraction(1, 2)
    out = []
    for basis in (plus.basis, minus.basis):
        pairs = (
            ((a + 1, c + 1), reference_torsion(L, nb, basis[a], basis[c]))
            for a in range(len(basis))
            for c in range(a + 1, len(basis))
        )
        out.append(next(iter(reference_witnesses(pairs)), None))
    pairs = []
    for a, x in enumerate(plus.basis):
        for c, y in enumerate(minus.basis):
            expected = vec_sub(pi_minus.matvec(nabla(nk, y, x)), pi_plus.matvec(nabla(nk, x, y)))
            pairs.append(((a + 1, c + 1), vec_sub(reference_torsion(L, nb, x, y), expected)))
    out.append(next(iter(reference_witnesses(pairs)), None))
    return out


def reference_enhance_error(k, jtilde):
    """(hit, message) of the NotCompatibleError the pairwise checks raise, or None.

    An image leaving minus is witnessed by (c, a): the first plus basis vector
    f_c whose image has a nonzero f_a coefficient, with that coefficient.
    """
    f = k.plus.basis
    images = [jtilde.matvec(x) for x in f]
    for idx, image in enumerate(images):
        if any(fraction_residual(k.minus, image)):
            u = reference_coordinates(f + k.minus.basis, image)[: len(f)]
            a = next(a for a, value in enumerate(u) if value != 0)
            return ((idx + 1, a + 1), u[a]), "jtilde does not map the plus subspace into the minus one"
    omega = k.omega.rows
    for a in range(len(f)):
        for c in range(len(f)):
            value = evaluate(omega, images[a], f[c]) + evaluate(omega, f[a], images[c])
            if value != 0:
                return ((a + 1, c + 1), value), ""
    return None


def reference_jacobi(L):
    """The Jacobi sums triple by triple, from brackets of basis vectors."""
    n = L.n
    e = [basis_vector(n, i) for i in range(n)]
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = vec_add(
                    vec_add(L.bracket(L.bracket(e[i], e[j]), e[k]), L.bracket(L.bracket(e[j], e[k]), e[i])),
                    L.bracket(L.bracket(e[k], e[i]), e[j]),
                )
                for l, value in enumerate(total):
                    out[(i + 1, j + 1, k + 1, l + 1)] = value
    return out


# --- inputs ------------------------------------------------------------------


def moved_form(w, p):
    return p.transpose() * w * p


def moved_subspace(s, p_inv):
    return Subspace(s.n, [p_inv.matvec(v) for v in s.basis])


def born_cases(catalog_models, catalog_structures):
    """Every catalog Born structure, then each in seeded unimodular bases."""
    for name in catalog_models:
        for b in catalog_structures[name]["borns"]:
            yield name, b
            for seed in SEEDS:
                p = random_unimodular(b.algebra.n, random.Random(f"{name}-{seed}"))
                moved = build_born(
                    moved_algebra(b.algebra, p),
                    moved_form(b.g, p),
                    moved_form(b.h, p),
                    moved_form(b.omega, p),
                )
                yield f"{name}~{seed}", moved


def kunneth_cases(catalog_models, catalog_structures):
    """Every catalog almost Kunneth structure (declared or underlying a Born one), moved as well."""
    for name in catalog_models:
        structures = catalog_structures[name]
        for k in structures["kunneths"] + [b.kunneth for b in structures["borns"]]:
            yield name, k
            for seed in SEEDS:
                p = random_unimodular(k.algebra.n, random.Random(f"{name}-{seed}"))
                p_inv = invert(p)
                yield f"{name}~{seed}", build_almost_kunneth(
                    moved_algebra(k.algebra, p),
                    moved_form(k.omega, p),
                    moved_subspace(k.plus, p_inv),
                    moved_subspace(k.minus, p_inv),
                )


def random_matrix(n, rng, density=0.5):
    return Matrix(
        [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < density else 0 for _ in range(n)]
         for _ in range(n)]
    )


def random_connection(n, rng):
    return Connection(tuple(random_matrix(n, rng) for _ in range(n)))


def random_splitting(n, rng):
    while True:
        vectors = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        cut = rng.randint(1, n - 1)
        try:
            return splitting(Subspace(n, vectors[:cut]), Subspace(n, vectors[cut:]))
        except (ValueError, NotComplementaryError):
            continue


# --- block forms against the oracles -----------------------------------------


def test_identity_items_match_pairwise_oracles(catalog_models, catalog_structures):
    checked = 0
    for name, b in born_cases(catalog_models, catalog_structures):
        names = verify_born_identities(b)
        l_split, b_split = involution_split(b.a_op), involution_split(b.b_op)
        for op_name, op in (("J", b.j_op), ("A", b.a_op), ("B", b.b_op)):
            for label, s in (("L", l_split), ("B", b_split)):
                for src, dst in (("+", "-"), ("-", "+")):
                    key = f"{op_name} maps {label}{src} to {label}{dst}"
                    if key in names:
                        source, target = (s.plus, s.minus) if src == "+" else (s.minus, s.plus)
                        assert reference_maps_into(op, source, target), (name, key)
                        checked += 1
        for key, form, left, right in (
            ("L+ Lagrangian for omega", b.omega, l_split.plus, l_split.plus),
            ("L- Lagrangian for omega", b.omega, l_split.minus, l_split.minus),
            ("B-eigenspaces g-orthogonal", b.g, b_split.plus, b_split.minus),
            ("A-eigenspaces h-orthogonal", b.h, l_split.plus, l_split.minus),
            ("B-eigenspaces h-orthogonal", b.h, b_split.plus, b_split.minus),
        ):
            hit = reference_pairing(form, left, right, left is right)
            assert key in names and hit is None, (name, key)
            checked += 1
    assert checked > 400


@pytest.mark.parametrize("seed", SEEDS)
def test_frame_blocks_match_pairwise_oracles_on_random_data(seed):
    """Pairings and exchanges on random splittings, forms and endomorphisms, where blocks are nonzero."""
    rng = random.Random(seed)
    witnesses = 0
    for _ in range(40):
        n = rng.randint(2, 7)
        s = random_splitting(n, rng)
        m = random_matrix(n, rng, density=0.3)
        anti = m - m.transpose()
        pairing, anti_pairing = s.pairing(m), s.pairing(anti)
        for rows, left in (("+", s.plus), ("-", s.minus)):
            # antisymmetric diagonal blocks: the first entry has a < c
            expected = reference_pairing(anti, left, left, upper=True)
            assert s.block_witness(anti_pairing, rows, rows) == expected
            for cols, right in (("+", s.plus), ("-", s.minus)):
                expected = reference_pairing(m, left, right, upper=False)
                assert s.block_witness(pairing, rows, cols) == expected
                witnesses += expected is not None
        # an endomorphism whose diagonal blocks in the frame are zero at random,
        # so that exchanges both hold and fail
        p = s.plus.dim
        zero = {side: rng.random() < 0.5 for side in (True, False)}
        frame_t = Matrix(
            [
                [0 if (i < p) == (j < p) and zero[i < p] else v for j, v in enumerate(row)]
                for i, row in enumerate(random_matrix(n, rng).rows)
            ]
        )
        t = s.frame * frame_t * s.frame_inv
        in_frame = s.in_frame(t)
        for side, source, target in (("+", s.plus, s.minus), ("-", s.minus, s.plus)):
            maps = s.block_witness(in_frame, side, side) is None
            assert maps == reference_maps_into(t, source, target)
    assert witnesses > 50


def test_isotropy_witnesses_match_pairwise_oracle(catalog_models, catalog_structures):
    rng = random.Random(5)
    raised = 0
    for name, k in kunneth_cases(catalog_models, catalog_structures):
        n = k.algebra.n
        for _ in range(3):
            s = random_splitting(n, rng)
            expected = None
            for which, sub in (("plus", s.plus), ("minus", s.minus)):
                hit = reference_pairing(k.omega, sub, sub, upper=True)
                if hit is not None:
                    expected = (which, hit)
                    break
            if expected is None:
                build_almost_kunneth(k.algebra, k.omega, s.plus, s.minus)
                continue
            with pytest.raises(NotIsotropicError) as info:
                build_almost_kunneth(k.algebra, k.omega, s.plus, s.minus)
            assert (info.value.which, info.value.hit) == expected, name
            assert str(info.value) == str(NotIsotropicError(*expected))
            raised += 1
    assert raised > 100


def test_enhance_kunneth_errors_match_pairwise_oracle(catalog_models, catalog_structures):
    rng = random.Random(11)
    outcomes = {"built": 0, "leaves minus": 0, "incompatible": 0}
    for name, k in kunneth_cases(catalog_models, catalog_structures):
        s = splitting(k.plus, k.minus)
        n, m = k.algebra.n, k.plus.dim
        for trial in range(5):
            # J~ in the frame: a random S block, plus-coordinates only in the last trials
            frame_j = [[0] * n for _ in range(n)]
            for a in range(m):
                for c in range(m):
                    frame_j[m + a][c] = rng.randint(-2, 2)
                    if trial >= 3 and rng.random() < 0.3:
                        frame_j[a][c] = rng.randint(-1, 1)
            jtilde = s.frame * Matrix(frame_j) * s.frame_inv
            expected = reference_enhance_error(k, jtilde)
            if expected is None:
                try:
                    enhance_kunneth(k, jtilde)
                    outcomes["built"] += 1
                except NotCompatibleError as exc:
                    assert str(exc) == "jtilde is not an isomorphism onto the minus subspace"
                    assert exc.hit is None
                continue
            with pytest.raises(NotCompatibleError) as info:
                enhance_kunneth(k, jtilde)
            assert info.value.hit == expected[0], name
            assert str(info.value) == str(NotCompatibleError(*expected))
            outcomes["leaves minus" if expected[1] else "incompatible"] += 1
        # the omega-dual J is compatible, and enhancing with it rebuilds the same structure
        born = enhance_kunneth(k)
        assert reference_enhance_error(k, born.j_op) is None
        assert enhance_kunneth(k, born.j_op) == born
    assert min(outcomes.values()) > 10, outcomes


def test_mixed_torsion_matches_pairwise_oracle(catalog_models, catalog_structures):
    """The first witness of mixed torsion, read by map_witness on the (+,-) pairs of the frame."""
    rng = random.Random(17)
    witnesses = 0
    for name, k in kunneth_cases(catalog_models, catalog_structures):
        L, n = k.algebra, k.algebra.n
        cases = [(connections.kunneth_connection(k), k.plus, k.minus)]
        cases += [(random_connection(n, rng), k.plus, k.minus) for _ in range(2)]
        s = random_splitting(n, rng)
        cases.append((random_connection(n, rng), s.plus, s.minus))
        for c, plus, minus in cases:
            hit = mixed_torsion_defect(L, c, plus, minus)
            assert witness_at(hit) == next(iter(reference_mixed_torsion(L, c, plus, minus)), None), name
            witnesses += hit is not None
    assert witnesses > 200


def test_kunneth_connection_matches_four_combination_formula(catalog_models, catalog_structures):
    cases = 0
    for name, k in kunneth_cases(catalog_models, catalog_structures):
        assert connections.kunneth_connection(k).gammas == four_combination_kunneth(k).gammas, name
        cases += 1
    assert cases >= 80


def test_torsion_formula_matches_pairwise_oracle(catalog_models, catalog_structures, monkeypatch):
    """On the Born and Kunneth connections, then with random or skewed connections in
    their place: the one hit is the first witness of the three reference parts."""
    rng = random.Random(23)
    firsts = Counter()
    for name, b in born_cases(catalog_models, catalog_structures):
        if integrability_report(b) is not None:
            continue
        nb = connections.born_connection(b)
        nk = connections.kunneth_connection(b.kunneth)
        n = b.algebra.n
        # Delta_x y = R(pi_- x) pi_- y adds torsion on B- x B- alone, and the
        # true Born connection with a random Kunneth one fails on B+ x B- alone
        pi_minus = (Matrix.identity(n) - b.b_op) * Fraction(1, 2)
        r = random_connection(n, rng).gammas
        delta = [linear_combination(column(pi_minus, i), r) * pi_minus for i in range(n)]
        skewed = Connection(tuple(g + d for g, d in zip(nb.gammas, delta)))
        pairs = [
            (nb, nk),
            (random_connection(n, rng), random_connection(n, rng)),
            (skewed, nk),
            (nb, random_connection(n, rng)),
        ]
        for rb, rk in pairs:
            monkeypatch.setattr(connections, "born_connection", lambda _b, rb=rb: rb)
            monkeypatch.setattr(connections, "kunneth_connection", lambda _k, rk=rk: rk)
            hit = born_torsion_formula_defect(b)
            monkeypatch.undo()
            references = reference_torsion_formula(b, rb, rk)
            first = next((part for part, w in enumerate(references) if w is not None), None)
            assert witness_at(hit) == (None if first is None else references[first]), name
            firsts[first] += 1
    # each part is the first failure somewhere: B+ x B+, B- x B-, B+ x B-
    assert all(firsts[part] > 10 for part in range(3)), firsts


def test_projection_almost_product_and_involution_split_share_one_splitting(
    catalog_models, catalog_structures
):
    for name, k in kunneth_cases(catalog_models, catalog_structures):
        s = splitting(k.plus, k.minus)
        assert k.split == s and involution_split(k.split.involution) == s, name
        pi_minus = Matrix.identity(k.algebra.n) - s.pi_plus
        assert projection_onto(k.plus, k.minus) == (s.pi_plus, pi_minus)
        assert k.split.involution == s.involution == s.pi_plus - pi_minus
        assert s.frame * s.frame_inv == Matrix.identity(k.algebra.n)
        assert s.pi_plus * pi_minus == Matrix.zero(k.algebra.n)
        for v in k.plus.basis:
            assert s.pi_plus.matvec(v) == v
        for v in k.minus.basis:
            assert pi_minus.matvec(v) == v


def test_involution_split_reads_its_frame_inverse_off_the_projections(
    catalog_models, catalog_structures, monkeypatch
):
    """On every catalog A and B, in the catalog basis and seeded ones, and on
    seeded involutions: the eigenspaces are the kernels of T -+ Id, pi+- =
    (Id +- T)/2, the frame inverse read off pi+- is the inverse of the frame,
    the splitting equals the one `splitting` gives for its eigenspaces, and
    every call eliminates the columns of Id +- T once each, except where
    their nonzero columns are already in reduced echelon form up to scaling
    (the standard-basis catalog operators), which are read off."""
    cases = [(f"{name} {op}", getattr(b, op)) for name, b in born_cases(catalog_models, catalog_structures)
             for op in ("a_op", "b_op")]
    rng = random.Random(28)
    for i in range(40):
        n = rng.randint(3, 8)
        p = random_unimodular(n, rng)
        signs = [1, -1] + [rng.choice((1, -1)) for _ in range(n - 2)]
        rng.shuffle(signs)
        cases.append((f"seeded {i}", p * diagonal(signs) * invert(p)))
    original, eliminations = exact._gauss_jordan, []
    monkeypatch.setattr(exact, "_gauss_jordan", lambda a, ncols: eliminations.append(ncols) or original(a, ncols))
    read_off = 0
    for name, t in cases:
        n, ident = t.n, Matrix.identity(t.n)
        eliminations.clear()
        s = involution_split(t)
        echelon_sides = sum(in_echelon_form(list(zip(*m.num))) for m in (ident + t, ident - t))
        assert len(eliminations) == 2 - echelon_sides, name
        read_off += echelon_sides
        assert s.plus == Subspace(n, kernel_basis(t - ident)), name
        assert s.minus == Subspace(n, kernel_basis(t + ident)), name
        assert s.pi_plus == (ident + t) * Fraction(1, 2) and ident - s.pi_plus == (ident - t) * Fraction(1, 2), name
        assert s.involution == t, name
        assert s.frame == from_columns(s.plus.basis + s.minus.basis), name
        assert s.frame * s.frame_inv == ident and s.frame_inv == invert(s.frame), name
        assert splitting(s.plus, s.minus) == s, name
    # both ways are taken: some sides are read off, most are eliminated
    assert 0 < read_off < len(cases)


def in_echelon_form(rows) -> bool:
    """Whether the nonzero rows have increasing pivot columns and each pivot column is zero in every other row."""
    rows = [row for row in rows if any(row)]
    pivots = [next(j for j, x in enumerate(row) if x) for row in rows]
    return pivots == sorted(set(pivots)) and not any(
        other[pc] for r, pc in enumerate(pivots) for q, other in enumerate(rows) if q != r
    )


def test_declared_splitting_projects_with_one_product():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(2, 7)
        s = random_splitting(n, rng)
        keep = diagonal([1] * s.plus.dim + [0] * s.minus.dim)
        assert s.frame == from_columns(s.plus.basis + s.minus.basis)
        assert s.frame_inv == invert(s.frame)
        assert s.pi_plus == s.frame * keep * s.frame_inv
        assert s.involution == s.frame * diagonal([1] * s.plus.dim + [-1] * s.minus.dim) * s.frame_inv
        assert involution_split(s.involution) == s


def random_brackets(n, rng):
    return {
        (i, j): {rng.randint(1, n): Fraction(rng.randint(-3, 3), rng.randint(1, 2))}
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if rng.random() < 0.35
    }


def test_jacobi_matches_triple_loop(catalog_models):
    algebras = [entry.model.algebra for entry in catalog_models.values()]
    rng = random.Random(29)
    violating = 0
    for _ in range(60):
        n = rng.randint(3, 7)
        brackets = random_brackets(n, rng)
        L = LieAlgebra(n, brackets, check=False)
        expected = reference_jacobi(L)
        assert jacobi_defect(L) == expected
        first = next(((key, v) for key, v in sorted(expected.items()) if v != 0), None)
        if first is None:
            LieAlgebra(n, brackets)
            continue
        violating += 1
        with pytest.raises(JacobiViolationError) as info:
            LieAlgebra(n, brackets)
        assert info.value.hit == first
        assert str(info.value) == str(JacobiViolationError(first))
    for L in algebras:
        assert jacobi_defect(L) == reference_jacobi(L)
        assert not any(jacobi_defect(L).values())
    assert violating > 20
