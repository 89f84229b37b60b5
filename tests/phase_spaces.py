"""Phase spaces A x A* of associative matrix algebras: Kunneth structures at any even dimension.

An associative algebra A is left-symmetric, so its phase space A x A*, with
[x, y] = xy - yx on A, [x, xi] = -xi o L_x and A* abelian, is a Lie algebra
(Kupershmidt 1994; Bai 2006).  omega(x + xi, y + eta) = eta(x) - xi(y) is
closed and A and A* are Lagrangian subalgebras, so (omega, A, A*) is an
integrable Kunneth structure.  Here A is the algebra of strictly upper or of
upper triangular k x k matrices, in the basis of matrix units E_ij ordered by
(i, j), followed by the dual basis of A*.

Each Kunneth structure is enhanced to Born structures with the omega-dual
jtilde (S = Id) and with seeded ones: jtilde maps the unit a to sum_c S_ca
times the dual vector c, which is compatible exactly when S is symmetric.
These Born structures have integrable Kunneth structures and yet fail at N_B.
With A replaced by the graph of a symmetric S: A -> A*, omega stays closed
but the graph is as a rule not a subalgebra, and Born structures fail at N_A.
"""

import random

from bornlab import LieAlgebra, Subspace, build_almost_kunneth, enhance_kunneth
from bornlab.exact import Matrix, determinant
from bornlab.model import Model, StructureDecl, render_model
from bornlab.multilinear import two_form
from oracles import basis_vector, column

# (k, strict) of the algebras used: dims 6, 12 (strictly upper) and 6, 12 (upper)
ALGEBRAS = ((3, True), (4, True), (2, False), (3, False))


def phase_space(k: int, strict: bool):
    """The Kunneth structure (omega, A, A*) on the phase space of (strictly) upper triangular k x k matrices."""
    units = [(i, j) for i in range(k) for j in range(k) if i < j or (i == j and not strict)]
    m = len(units)
    index = {unit: a for a, unit in enumerate(units)}
    # product[a][b] is the position of E_a E_b, or None when it is zero
    product = [[index[(i, l)] if j == r else None for (r, l) in units] for (i, j) in units]
    brackets = {}
    for a in range(m):
        for b in range(a + 1, m):
            out = {}
            for c, sign in ((product[a][b], 1), (product[b][a], -1)):
                if c is not None:
                    out[c + 1] = out.get(c + 1, 0) + sign
            brackets[(a + 1, b + 1)] = out
        # [E_a, xi](E_b) = -xi(E_a E_b): the dual vector c gets -1 at b when E_a E_b = E_c
        for c in range(m):
            brackets[(a + 1, m + c + 1)] = {m + b + 1: -1 for b in range(m) if product[a][b] == c}
    n = 2 * m
    L = LieAlgebra(n, brackets)
    omega = two_form(n, {(a + 1, m + a + 1): 1 for a in range(m)})
    plus = Subspace(n, [basis_vector(n, a) for a in range(m)])
    minus = Subspace(n, [basis_vector(n, m + a) for a in range(m)])
    return build_almost_kunneth(L, omega, plus, minus)


def seeded_jtilde(m: int, rng: random.Random) -> Matrix:
    """jtilde = [[0, 0], [S, 0]] for a seeded invertible symmetric integer S."""
    while True:
        s = [[0] * m for _ in range(m)]
        for a in range(m):
            for c in range(a, m):
                s[a][c] = s[c][a] = rng.randint(-2, 2)
        if determinant(Matrix(s)) != 0:
            return Matrix([[0] * (2 * m) for _ in range(m)] + [row + [0] * m for row in s])


def sheared(kunneth, rng: random.Random):
    """The same omega with A replaced by the graph of a seeded symmetric S: A -> A*.

    The graph is Lagrangian and complementary to A*, but as a rule not a
    subalgebra, so a Born structure on it fails integrability at N_A.
    """
    n = kunneth.algebra.n
    shear = Matrix.identity(n) + seeded_jtilde(n // 2, rng)
    plus = Subspace(n, [column(shear, a) for a in range(n // 2)])
    return build_almost_kunneth(kunneth.algebra, kunneth.omega, plus, kunneth.minus)


def phase_space_borns(seeds=(1, 2)):
    """(name, Kunneth structure, Born structure) for every algebra, with the omega-dual and each seeded jtilde."""
    out = []
    for k, strict in ALGEBRAS:
        kunneth = phase_space(k, strict)
        name = f"{'strict_' if strict else ''}upper{k}"
        out.append((f"{name}_dual", kunneth, enhance_kunneth(kunneth)))
        for seed in seeds:
            jtilde = seeded_jtilde(kunneth.algebra.n // 2, random.Random(f"{name}-{seed}"))
            out.append((f"{name}_s{seed}", kunneth, enhance_kunneth(kunneth, jtilde)))
    return out


def phase_space_model(name: str, kunneth, born) -> str:
    """A model document declaring the Born structure and its Kunneth structure."""
    model = Model(
        name,
        born.algebra,
        {"omega": born.omega},
        {"g": born.g, "h": born.h},
        {},
        {"F": kunneth.plus, "G": kunneth.minus},
        (StructureDecl.of("born", g="g", h="h", omega="omega"),
         StructureDecl.of("kunneth", omega="omega", plus="F", minus="G")),
    )
    return render_model(model)
