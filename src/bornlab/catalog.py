"""Built-in example structures with exact, provenance-tagged data.

Every entry carries its tensors as explicit rational tables (frozen here, not
derived at load time), so the engine's recomputation of recursion operators,
metrics and connections is a genuine cross-check of the transcribed source
data.  Transcription corrections are never silent: they are listed in the
entry's provenance note and backed by a negative expectation that shows the
uncorrected data failing.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import BornlabError, NotExportableError, UnknownEntryError
from .exact import Subspace, Value
from .liealg import LieAlgebra, ce_d2
from .model import CHECK_ORDER, Model, StructureDecl, materialize, render_model, run_checks
from .multilinear import Endomorphism, symmetric_form, two_form
from .structures import CirclePoint, integrability_report, s1_family, verify_born_identities

F = Fraction


class Expectation(Value):
    """A named check with its expected outcome, re-run on demand.

    kind "check": target is a run_checks name, expected its status.
    kind "family_point": target is "t=<rational>" or "theta=pi"; the circle
        family member must build and be a fully integrable Born structure.
    kind "closedness": target is a form name; expected "pass" iff d(form)=0.
    """

    __slots__ = ("kind", "target", "expected")

    def __init__(self, kind: str, target: str, expected: str):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "expected", expected)


class CatalogEntry(Value):
    __slots__ = ("name", "summary", "model", "expectations", "provenance")

    def __init__(self, name: str, summary: str, model: Model | None, expectations: tuple, provenance: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "summary", summary)
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "expectations", expectations)
        object.__setattr__(self, "provenance", provenance)


def _all_pass(*overrides) -> tuple:
    status = dict.fromkeys(CHECK_ORDER, "pass")
    status.update(dict(overrides))
    return tuple(Expectation("check", k, v) for k, v in status.items())


def _basis_subspace(n, indices):
    return Subspace(n, [[1 if c == i - 1 else 0 for c in range(n)] for i in indices])


def _endo(images) -> Endomorphism:
    return Endomorphism.from_images(images)


# ---------------------------------------------------------------------------
# entry constructors


def _abelian_cn(n: int) -> CatalogEntry:
    """Flat space C^n as R^n x R^n with the translation-invariant structure.

    Basis (x_1..x_n, y_1..y_n); omega = sum alpha_i ^ alpha_{n+i}, h the
    standard positive metric, J the standard complex structure, and the
    splitting into the two factors gives A and the neutral metric g.
    """
    dim = 2 * n
    omega = two_form(dim, {(i, n + i): 1 for i in range(1, n + 1)})
    g = symmetric_form(dim, {(i, n + i): 1 for i in range(1, n + 1)})
    h = symmetric_form(dim, {(i, i): 1 for i in range(1, dim + 1)})
    a_images = [[1 if r == c else 0 for r in range(dim)] for c in range(n)]
    a_images += [[-1 if r == c else 0 for r in range(dim)] for c in range(n, dim)]
    j_images = [[1 if r == c + n else 0 for r in range(dim)] for c in range(n)]
    j_images += [[-1 if r == c - n else 0 for r in range(dim)] for c in range(n, dim)]
    b_images = [[1 if r == (c + n) % dim else 0 for r in range(dim)] for c in range(dim)]
    model = Model(
        name=f"abelian_c{n}",
        algebra=LieAlgebra.abelian(dim),
        forms={"omega": omega},
        metrics={"g": g, "h": h},
        endos={"A": _endo(a_images), "B": _endo(b_images), "J": _endo(j_images)},
        subspaces={
            "F": _basis_subspace(dim, range(1, n + 1)),
            "G": _basis_subspace(dim, range(n + 1, dim + 1)),
        },
        structures=(
            StructureDecl.of("kunneth", omega="omega", plus="F", minus="G"),
            StructureDecl.of("born", g="g", h="h", omega="omega", A="A", B="B", J="J"),
        ),
    )
    return CatalogEntry(
        name=f"abelian_c{n}",
        summary=f"flat C^{n} (dim {dim}), integrable, h positive definite",
        model=model,
        expectations=_all_pass(),
        provenance="Standard translation-invariant structure on C^n; descends to tori.",
    )


def _torus_2_2() -> CatalogEntry:
    """Product of two flat factors with the complex structure negated on one.

    Basis (x1, y1, x2, y2); J = J_1 + (-J_1) makes h indefinite of signature
    (2,2) while omega and g stay the standard product data.
    """
    omega = two_form(4, {(1, 2): 1, (3, 4): 1})
    g = symmetric_form(4, {(1, 2): 1, (3, 4): 1})
    h = symmetric_form(4, {(1, 1): 1, (2, 2): 1, (3, 3): -1, (4, 4): -1})
    a = _endo([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])
    j = _endo([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    b = _endo([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]])
    model = Model(
        name="torus_2_2",
        algebra=LieAlgebra.abelian(4),
        forms={"omega": omega},
        metrics={"g": g, "h": h},
        endos={"A": a, "B": b, "J": j},
        subspaces={"F": _basis_subspace(4, (1, 3)), "G": _basis_subspace(4, (2, 4))},
        structures=(
            StructureDecl.of("kunneth", omega="omega", plus="F", minus="G"),
            StructureDecl.of("born", g="g", h="h", omega="omega", A="A", B="B", J="J"),
        ),
    )
    return CatalogEntry(
        name="torus_2_2",
        summary="flat dim-4 torus model with indefinite h of signature (2,2)",
        model=model,
        expectations=_all_pass(),
        provenance="Flat product with J negated on the second factor; h has signature (2,2).",
    )


def _nil3_r() -> CatalogEntry:
    """nil3 + R: the hypersymplectic triple and its circle family of Born
    structures (family member frozen at t = 0)."""
    L = LieAlgebra(4, {(1, 2): {3: 1}})
    omega = two_form(4, {(1, 3): -1, (2, 4): 1})
    alpha = two_form(4, {(1, 4): 1, (2, 3): -1})
    beta = two_form(4, {(1, 3): -1, (2, 4): -1})
    g_h = symmetric_form(4, {(1, 4): -1, (2, 3): -1})
    a = _endo([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]])
    b = _endo([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])
    # corrected: the source table's Je4 = -e3 fails J^2 = -Id and the
    # defining relation alpha(J., .) = beta; the consistent value is Je4 = e3
    j = _endo([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    jt = _endo([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    h_t0 = symmetric_form(4, {(1, 4): 1, (2, 3): -1})
    i_t0 = a
    bt_t0 = _endo([[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])
    f0 = Subspace(4, [[1, 1, 0, 0], [0, 0, 1, -1]])
    g0 = Subspace(4, [[1, -1, 0, 0], [0, 0, 1, 1]])
    model = Model(
        name="nil3_r",
        algebra=L,
        forms={"omega": omega, "alpha": alpha, "beta": beta, "beta_t0": beta},
        metrics={"gH": g_h, "h_t0": h_t0},
        endos={"A": a, "B": b, "J": j, "jtilde": jt, "I_t0": i_t0, "Bt_t0": bt_t0},
        subspaces={"F0": f0, "G0": g0},
        structures=(
            StructureDecl.of(
                "hypersymplectic", omega="omega", alpha="alpha", beta="beta",
                A="A", B="B", J="J", metric="gH",
            ),
            StructureDecl.of("kunneth", omega="beta_t0", plus="F0", minus="G0"),
            StructureDecl.of(
                "born", g="gH", h="h_t0", omega="beta_t0", A="I_t0", B="Bt_t0", J="jtilde",
            ),
        ),
    )
    family = tuple(
        Expectation("family_point", target, "pass")
        for target in ("t=0", "t=1", "t=-1", "t=1/2", "t=2", "t=3/5", "theta=pi")
    )
    return CatalogEntry(
        name="nil3_r",
        summary="nil3 + R hypersymplectic triple with its circle family of Born structures",
        model=model,
        expectations=_all_pass() + family,
        provenance=(
            "Hypersymplectic triple omega = -a13 + a24, alpha = a14 - a23, "
            "beta = -a13 - a24 on the bracket [e1,e2] = e3; metric gH = "
            "-(a1*a4 + a4*a1 + a2*a3 + a3*a2).  Correction: the source prints "
            "Je4 = -e3, which fails J^2 = -Id and alpha(J.,.) = beta; the "
            "value forced by the defining relation is Je4 = e3 (Je3 = -e4 as "
            "printed).  The Born member stored here is the family point t = 0."
        ),
    )


def _h4() -> CatalogEntry:
    """Six-dimensional nilpotent algebra with brackets [e1,e2] = -e5,
    [e1,e4] = [e2,e3] = -e6 and its integrable Born structure."""
    L = LieAlgebra(6, {(1, 2): {5: -1}, (1, 4): {6: -1}, (2, 3): {6: -1}})
    omega = two_form(6, {(1, 3): 1, (2, 6): 1, (4, 5): 1})
    g = symmetric_form(6, {(1, 3): 1, (2, 6): 1, (4, 5): -1})
    h = symmetric_form(6, {(1, 1): -2, (3, 3): F(-1, 2), (2, 5): 1, (4, 6): -1})
    a = Endomorphism.from_images(
        [
            [1, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, -1, 0, 0, 0],
            [0, 0, 0, -1, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, -1],
        ]
    )
    j = Endomorphism.from_images(
        [
            [0, 0, -2, 0, 0, 0],
            [0, 0, 0, -1, 0, 0],
            [F(1, 2), 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, -1, 0],
        ]
    )
    b = Endomorphism.from_images(
        [
            [0, 0, -2, 0, 0, 0],
            [0, 0, 0, -1, 0, 0],
            [F(-1, 2), 0, 0, 0, 0, 0],
            [0, -1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, 1, 0],
        ]
    )
    model = Model(
        name="h4",
        algebra=L,
        forms={"omega": omega},
        metrics={"g": g, "h": h},
        endos={"A": a, "B": b, "J": j},
        subspaces={
            "gplus": _basis_subspace(6, (1, 2, 5)),
            "gminus": _basis_subspace(6, (3, 4, 6)),
        },
        structures=(
            StructureDecl.of("kunneth", omega="omega", plus="gplus", minus="gminus"),
            StructureDecl.of("born", g="g", h="h", omega="omega", A="A", B="B", J="J"),
        ),
    )
    return CatalogEntry(
        name="h4",
        summary="dim-6 nilpotent algebra, integrable Born structure, h of signature (2,4)",
        model=model,
        expectations=_all_pass(),
        provenance=(
            "omega = a13 + a26 + a45 with splitting <e1,e2,e5> / <e3,e4,e6>; "
            "J sends e1 -> -2e3, e2 -> -e4, e3 -> e1/2, e4 -> e2, e5 -> e6, "
            "e6 -> -e5; g is the neutral metric of the splitting and "
            "h = omega(., J.)."
        ),
    )


def _h8() -> CatalogEntry:
    """nil3 + R^3: direct sum of the nil3_r family point t = 0 and flat C^1."""
    L = LieAlgebra(6, {(1, 2): {3: 1}})
    omega = two_form(6, {(1, 3): -1, (2, 4): -1, (5, 6): 1})
    g = symmetric_form(6, {(1, 4): -1, (2, 3): -1, (5, 6): 1})
    h = symmetric_form(6, {(1, 4): 1, (2, 3): -1, (5, 5): 1, (6, 6): 1})
    a = Endomorphism.from_images(
        [
            [0, 1, 0, 0, 0, 0],
            [1, 0, 0, 0, 0, 0],
            [0, 0, 0, -1, 0, 0],
            [0, 0, -1, 0, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, -1],
        ]
    )
    b = Endomorphism.from_images(
        [
            [-1, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, -1, 0, 0],
            [0, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, 1, 0],
        ]
    )
    j = Endomorphism.from_images(
        [
            [0, 1, 0, 0, 0, 0],
            [-1, 0, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, -1, 0, 0, 0],
            [0, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, -1, 0],
        ]
    )
    model = Model(
        name="h8",
        algebra=L,
        forms={"omega": omega},
        metrics={"g": g, "h": h},
        endos={"A": a, "B": b, "J": j},
        subspaces={
            "plus": Subspace(6, [[1, 1, 0, 0, 0, 0], [0, 0, 1, -1, 0, 0], [0, 0, 0, 0, 1, 0]]),
            "minus": Subspace(6, [[1, -1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 0, 1]]),
        },
        structures=(
            StructureDecl.of("kunneth", omega="omega", plus="plus", minus="minus"),
            StructureDecl.of("born", g="g", h="h", omega="omega", A="A", B="B", J="J"),
        ),
    )
    return CatalogEntry(
        name="h8",
        summary="nil3 + R^3 (dim 6): direct sum of nil3_r at t=0 with flat C^1",
        model=model,
        expectations=_all_pass(),
        provenance="Direct sum of the nil3_r Born structure at t = 0 and the abelian_c1 structure on <e5,e6>.",
    )


def _h9_corrected() -> CatalogEntry:
    """Three-step nilpotent dim-6 algebra, with two transcription fixes.

    The source's bracket list contradicts its own differentials; the brackets
    here ([e1,e2] = -e5, [e1,e4] = -e6, [e2,e5] = -e6) are the set consistent
    with d(a5) = a12 and d(a6) = a14 + a25.  Under those differentials the
    printed 2-form a13 + 4 a26 - 4 a45 is not closed; flipping the sign of the
    last coefficient makes it closed, and the printed J stays compatible.
    """
    L = LieAlgebra(6, {(1, 2): {5: -1}, (1, 4): {6: -1}, (2, 5): {6: -1}})
    omega = two_form(6, {(1, 3): 1, (2, 6): 4, (4, 5): 4})
    omega_printed = two_form(6, {(1, 3): 1, (2, 6): 4, (4, 5): -4})
    g = symmetric_form(6, {(1, 3): 1, (2, 6): -4, (4, 5): -4})
    h = symmetric_form(6, {(1, 6): 4, (2, 3): -1, (4, 4): -4, (5, 5): -4})
    a = Endomorphism.from_images(
        [
            [1, 0, 0, 0, 0, 0],
            [0, -1, 0, 0, 0, 0],
            [0, 0, -1, 0, 0, 0],
            [0, 0, 0, -1, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 1],
        ]
    )
    j = Endomorphism.from_images(
        [
            [0, -1, 0, 0, 0, 0],
            [1, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, F(-1, 4)],
            [0, 0, 0, 0, -1, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 4, 0, 0, 0],
        ]
    )
    b = Endomorphism.from_images(
        [
            [0, -1, 0, 0, 0, 0],
            [-1, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, F(1, 4)],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 4, 0, 0, 0],
        ]
    )
    model = Model(
        name="h9_corrected",
        algebra=L,
        forms={"omega": omega, "omega_printed": omega_printed},
        metrics={"g": g, "h": h},
        endos={"A": a, "B": b, "J": j},
        subspaces={
            "gplus": _basis_subspace(6, (1, 5, 6)),
            "gminus": _basis_subspace(6, (2, 3, 4)),
        },
        structures=(
            StructureDecl.of("kunneth", omega="omega", plus="gplus", minus="gminus"),
            StructureDecl.of("born", g="g", h="h", omega="omega", A="A", B="B", J="J"),
        ),
    )
    expectations = _all_pass() + (
        Expectation("closedness", "omega", "pass"),
        Expectation("closedness", "omega_printed", "fail"),
    )
    return CatalogEntry(
        name="h9_corrected",
        summary="dim-6 three-step nilpotent algebra; corrected brackets and omega sign",
        model=model,
        expectations=expectations,
        provenance=(
            "Corrections relative to the source: (1) printed brackets "
            "[e1,e2] = -e4, [e1,e4] = -e6, [e2,e5] = -e6 contradict the stated "
            "differentials d(a5) = a12, d(a6) = a14 + a25; this entry adopts "
            "[e1,e2] = -e5 to match the differentials.  (2) Under those "
            "differentials the printed omega = a13 + 4 a26 - 4 a45 has "
            "d(omega)(e1,e2,e4) = 8 != 0; the entry uses +4 a45, which is "
            "closed, and the printed J satisfies J* omega = omega either way.  "
            "The uncorrected form is kept as 'omega_printed' with a failing "
            "closedness expectation."
        ),
    )


def _nil3_r_fixture() -> CatalogEntry:
    """Engineered counterexample: integrable splitting under a non-closed form.

    d(omega~) = a124 != 0 while both subspaces are subalgebras, so exactly the
    closedness leg of integrability fails: the Kunneth connection acquires
    torsion even though its mixed part still vanishes, and the relation
    checked by omega_k holds regardless.
    """
    L = LieAlgebra(4, {(1, 2): {3: 1}})
    omega = two_form(4, {(1, 2): 1, (4, 3): 1})
    g = symmetric_form(4, {(1, 2): 1, (3, 4): 1})
    h = symmetric_form(4, {(1, 1): 1, (2, 2): 1, (3, 3): 1, (4, 4): 1})
    a = _endo([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]])
    j = _endo([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    b = _endo([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    model = Model(
        name="nil3_r_nonintegrable_fixture",
        algebra=L,
        forms={"omega_tilde": omega},
        metrics={"g": g, "h": h},
        endos={"A": a, "B": b, "J": j},
        subspaces={"F": _basis_subspace(4, (1, 4)), "G": _basis_subspace(4, (2, 3))},
        structures=(
            StructureDecl.of("kunneth", omega="omega_tilde", plus="F", minus="G"),
            StructureDecl.of("born", g="g", h="h", omega="omega_tilde", A="A", B="B", J="J"),
        ),
    )
    expectations = _all_pass(
        ("integrability", "fail"),
        ("generalized_torsion", "skipped"),
        ("torsion_formula", "skipped"),
    )
    return CatalogEntry(
        name="nil3_r_nonintegrable_fixture",
        summary="non-integrable fixture: omega~ = a12 + a43 on nil3 + R, d(omega~) != 0",
        model=model,
        expectations=expectations,
        provenance=(
            "omega~ = a12 + a43 with the splitting <e1,e4> / <e2,e3>: both "
            "subspaces are subalgebras but d(omega~) = a124, so integrability "
            "fails exactly at closedness.  Exercises the torsion criterion for "
            "the Kunneth connection and the omega_k relation on a non-closed "
            "form."
        ),
    )


def _h15_note() -> CatalogEntry:
    return CatalogEntry(
        name="h15_note",
        summary="documentation stub: no integrable Born structure exists on h15",
        model=None,
        expectations=(),
        provenance=(
            "The dim-6 algebra usually labelled h15 admits no complex product "
            "structure, hence no integrable Born structure; recorded here as a "
            "non-entry with no data and no checks."
        ),
    )


_BUILDERS = {
    "abelian_c1": lambda: _abelian_cn(1),
    "abelian_c2": lambda: _abelian_cn(2),
    "abelian_c3": lambda: _abelian_cn(3),
    "abelian_c4": lambda: _abelian_cn(4),
    "torus_2_2": _torus_2_2,
    "nil3_r": _nil3_r,
    "h4": _h4,
    "h8": _h8,
    "h9_corrected": _h9_corrected,
    "nil3_r_nonintegrable_fixture": _nil3_r_fixture,
    "h15_note": _h15_note,
}


def list_entries():
    """All entry names with one-line summaries, in a fixed order."""
    return [(name, get_entry(name).summary) for name in _BUILDERS]


@lru_cache(maxsize=None)
def get_entry(name: str) -> CatalogEntry:
    """Materialize a catalog entry; its declared structures validate on load."""
    if name not in _BUILDERS:
        raise UnknownEntryError(f"unknown catalog entry {name!r}")
    entry = _BUILDERS[name]()
    if entry.model is not None:
        for _, obj in materialize(entry.model):
            if isinstance(obj, Exception):
                raise obj
    return entry


def export_entry(name: str) -> str:
    """Model file text for an entry; parses back to an equal model."""
    entry = get_entry(name)
    if entry.model is None:
        raise NotExportableError(f"{name} is a documentation stub with no model data")
    return render_model(entry.model)


def family_member(entry: CatalogEntry, point: CirclePoint):
    """Born structure of the circle family at the given exact point.

    The family is that of the entry's hypersymplectic structure as materialize
    builds it; a structure that does not build raises its BornlabError.
    """
    if entry.model is None:
        raise UnknownEntryError(f"{entry.name} has no model data")
    hs = next((obj for decl, obj in materialize(entry.model) if decl.kind == "hypersymplectic"), None)
    jt = entry.model.endos.get("jtilde")
    if hs is None or jt is None:
        raise UnknownEntryError(f"{entry.name} does not carry a hypersymplectic structure with jtilde")
    if isinstance(hs, BornlabError):
        raise hs
    return s1_family(hs, jt, point)


def _parse_point(target: str) -> CirclePoint:
    if target == "theta=pi":
        return CirclePoint.theta_pi()
    if target.startswith("t="):
        try:
            return CirclePoint.from_t(target[2:])
        except ValueError:
            pass
    raise UnknownEntryError(f"bad family point {target!r}")


class ExpectationOutcome(Value):
    __slots__ = ("expectation", "actual")

    def __init__(self, expectation: Expectation, actual: str):
        object.__setattr__(self, "expectation", expectation)
        object.__setattr__(self, "actual", actual)

    @property
    def ok(self) -> bool:
        return self.actual == self.expectation.expected


def verify_entry(entry: CatalogEntry):
    """Run every expectation of an entry and report actual vs expected."""
    outcomes = []
    report = run_checks(entry.model) if entry.model is not None else None
    statuses = {r.check: r.status for r in report.results} if report else {}
    for expectation in entry.expectations:
        if expectation.kind == "check":
            actual = statuses.get(expectation.target, "skipped")
        elif expectation.kind == "closedness":
            form = entry.model.forms[expectation.target]
            actual = "pass" if ce_d2(entry.model.algebra, form).is_zero() else "fail"
        elif expectation.kind == "family_point":
            try:
                member = family_member(entry, _parse_point(expectation.target))
                ok = verify_born_identities(member).ok and integrability_report(member).integrable
                actual = "pass" if ok else "fail"
            except BornlabError:
                actual = "fail"
        else:
            actual = "fail"
        outcomes.append(ExpectationOutcome(expectation, actual))
    return outcomes
