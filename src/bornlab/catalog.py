"""Built-in example structures with exact, provenance-tagged data.

Every entry is a model document, `entries/<name>.json`, that `bornlab check`
reads like any user file.  Its tensors are explicit rational tables, not
derived at load time, so the engine's recomputation of recursion operators,
metrics and connections is a genuine cross-check of the transcribed source
data.  The summary, provenance and expectations of every entry sit in one
table, _ENTRIES.  Transcription corrections are never silent: they are listed
in the entry's provenance note and backed by a negative expectation that
shows the uncorrected data failing.

An entry's document is parsed through `model.parsed`, the parse memo that
`check` uses, so an entry whose text the memo still holds is not parsed
again, and its report is the one `check` kept on the Model.  `verify_entry`
keeps its outcomes on the entry, and `materialize` its structures on the Model.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import BornlabError, UnknownEntryError, shown
from .exact import Value, owned
from .liealg import ce_d2
from .model import CHECK_ORDER, materialize, parsed, render_model, run_checks
from .structures import CirclePoint, integrability_report, s1_family


class Expectation(Value):
    """A named check with its expected outcome, re-run on demand.

    kind "check": target is a run_checks name, expected its status.
    kind "family_point": target is "t=<rational>" or "theta=pi"; the circle
        family member must build and be a fully integrable Born structure.
    kind "closedness": target is a form name; expected "pass" iff d(form)=0.
    """

    __slots__ = ("kind", "target", "expected")


class CatalogEntry(Value):
    __slots__ = ("name", "summary", "model", "expectations", "provenance")


def _all_pass(*overrides) -> tuple:
    status = dict.fromkeys(CHECK_ORDER, "pass")
    status.update(dict(overrides))
    return tuple(Expectation("check", k, v) for k, v in status.items())


# name -> (summary, expectations, provenance), in catalog order
_ENTRIES = {
    # Flat space C^n as R^n x R^n with the translation-invariant structure.
    # Basis (x_1..x_n, y_1..y_n); omega = sum alpha_i ^ alpha_{n+i}, h the
    # standard positive metric, J the standard complex structure, and the
    # splitting into the two factors gives A and the neutral metric g.
    **{
        f"abelian_c{n}": (
            f"flat C^{n} (dim {2 * n}), integrable, h positive definite",
            _all_pass(),
            "Standard translation-invariant structure on C^n; descends to tori.",
        )
        for n in (1, 2, 3, 4)
    },
    # Product of two flat factors with the complex structure negated on one.
    # Basis (x1, y1, x2, y2); J = J_1 + (-J_1) makes h indefinite of signature
    # (2,2) while omega and g stay the standard product data.
    "torus_2_2": (
        "flat dim-4 torus model with indefinite h of signature (2,2)",
        _all_pass(),
        "Flat product with J negated on the second factor; h has signature (2,2).",
    ),
    # nil3 + R: the hypersymplectic triple and its circle family of Born
    # structures (family member frozen at t = 0).  J is corrected: the source
    # table's Je4 = -e3 fails J^2 = -Id and the defining relation
    # alpha(J., .) = beta; the consistent value is Je4 = e3.
    "nil3_r": (
        "nil3 + R hypersymplectic triple with its circle family of Born structures",
        _all_pass() + tuple(
            Expectation("family_point", t, "pass")
            for t in ("t=0", "t=1", "t=-1", "t=1/2", "t=2", "t=3/5", "theta=pi")
        ),
        "Hypersymplectic triple omega = -a13 + a24, alpha = a14 - a23, "
        "beta = -a13 - a24 on the bracket [e1,e2] = e3; metric gH = "
        "-(a1*a4 + a4*a1 + a2*a3 + a3*a2).  Correction: the source prints "
        "Je4 = -e3, which fails J^2 = -Id and alpha(J.,.) = beta; the "
        "value forced by the defining relation is Je4 = e3 (Je3 = -e4 as "
        "printed).  The Born member stored here is the family point t = 0.",
    ),
    # Six-dimensional nilpotent algebra with brackets [e1,e2] = -e5,
    # [e1,e4] = [e2,e3] = -e6 and its integrable Born structure.
    "h4": (
        "dim-6 nilpotent algebra, integrable Born structure, h of signature (2,4)",
        _all_pass(),
        "omega = a13 + a26 + a45 with splitting <e1,e2,e5> / <e3,e4,e6>; "
        "J sends e1 -> -2e3, e2 -> -e4, e3 -> e1/2, e4 -> e2, e5 -> e6, "
        "e6 -> -e5; g is the neutral metric of the splitting and "
        "h = omega(., J.).",
    ),
    # nil3 + R^3: direct sum of the nil3_r family point t = 0 and flat C^1.
    "h8": (
        "nil3 + R^3 (dim 6): direct sum of nil3_r at t=0 with flat C^1",
        _all_pass(),
        "Direct sum of the nil3_r Born structure at t = 0 and the abelian_c1 structure on <e5,e6>.",
    ),
    # Three-step nilpotent dim-6 algebra, with two transcription fixes.
    # The source's bracket list contradicts its own differentials; the brackets
    # here ([e1,e2] = -e5, [e1,e4] = -e6, [e2,e5] = -e6) are the set consistent
    # with d(a5) = a12 and d(a6) = a14 + a25.  Under those differentials the
    # printed 2-form a13 + 4 a26 - 4 a45 is not closed; flipping the sign of the
    # last coefficient makes it closed, and the printed J stays compatible.
    "h9_corrected": (
        "dim-6 three-step nilpotent algebra; corrected brackets and omega sign",
        _all_pass() + (
            Expectation("closedness", "omega", "pass"),
            Expectation("closedness", "omega_printed", "fail"),
        ),
        "Corrections relative to the source: (1) printed brackets "
        "[e1,e2] = -e4, [e1,e4] = -e6, [e2,e5] = -e6 contradict the stated "
        "differentials d(a5) = a12, d(a6) = a14 + a25; this entry adopts "
        "[e1,e2] = -e5 to match the differentials.  (2) Under those "
        "differentials the printed omega = a13 + 4 a26 - 4 a45 has "
        "d(omega)(e1,e2,e4) = 8 != 0; the entry uses +4 a45, which is "
        "closed, and the printed J satisfies J* omega = omega either way.  "
        "The uncorrected form is kept as 'omega_printed' with a failing "
        "closedness expectation.",
    ),
    # Engineered counterexample: integrable splitting under a non-closed form.
    # d(omega~) = a124 != 0 while both subspaces are subalgebras, so exactly the
    # closedness leg of integrability fails: the Kunneth connection acquires
    # torsion even though its mixed part still vanishes, and the relation
    # checked by omega_k holds regardless.
    "nil3_r_nonintegrable_fixture": (
        "non-integrable fixture: omega~ = a12 + a43 on nil3 + R, d(omega~) != 0",
        _all_pass(
            ("integrability", "fail"),
            ("generalized_torsion", "skipped"),
            ("torsion_formula", "skipped"),
        ),
        "omega~ = a12 + a43 with the splitting <e1,e4> / <e2,e3>: both "
        "subspaces are subalgebras but d(omega~) = a124, so integrability "
        "fails exactly at closedness.  Exercises the torsion criterion for "
        "the Kunneth connection and the omega_k relation on a non-closed "
        "form.",
    ),
}


def list_entries():
    """All entry names with one-line summaries, in a fixed order; nothing is parsed."""
    return [(name, summary) for name, (summary, _, _) in _ENTRIES.items()]


@lru_cache(maxsize=None)
def get_entry(name: str) -> CatalogEntry:
    """Parse an entry's model document; its declared structures validate on load.

    Only a name in the table opens a file, so no name reaches outside entries/.
    An install that lacks the document raises UnknownEntryError, not OSError.
    """
    if name not in _ENTRIES:
        raise UnknownEntryError(f"unknown catalog entry {shown(name)}")
    import os.path

    try:
        with open(os.path.join(os.path.dirname(__file__), "entries", f"{name}.json"), encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UnknownEntryError(f"catalog entry {name} has no model document: {exc}") from None
    model = parsed(text)
    summary, expectations, provenance = _ENTRIES[name]
    entry = CatalogEntry(name, summary, model, expectations, provenance)
    for _, _, obj in materialize(model):
        if isinstance(obj, BornlabError):
            raise obj.again()
    return entry


def export_entry(name: str) -> str:
    """Model file text for an entry; parses back to an equal model."""
    return render_model(get_entry(name).model)


def _family(entry: CatalogEntry):
    """(hypersymplectic structure as materialize builds it, jtilde); raises the structure's BornlabError."""
    hs = next((obj for kind, _, obj in materialize(entry.model) if kind == "hypersymplectic"), None)
    jt = entry.model.endos.get("jtilde")
    if hs is None or jt is None:
        raise UnknownEntryError(f"{entry.name} does not carry a hypersymplectic structure with jtilde")
    if isinstance(hs, BornlabError):
        raise hs.again()
    return hs, jt


def family_member(entry: CatalogEntry, point: CirclePoint):
    """Born structure of the circle family at the given exact point."""
    return s1_family(*_family(entry), point)


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

    @property
    def ok(self) -> bool:
        return self.actual == self.expectation.expected


@owned
def verify_entry(entry: CatalogEntry) -> tuple:
    """Every expectation of an entry with its actual outcome, kept on the entry; the family is looked up once."""
    outcomes = []
    statuses = {r.check: r.status for r in run_checks(entry.model).results}
    try:
        family = _family(entry) if any(e.kind == "family_point" for e in entry.expectations) else None
    except BornlabError:
        family = None  # every family point fails
    for expectation in entry.expectations:
        if expectation.kind == "check":
            actual = statuses.get(expectation.target, "skipped")
        elif expectation.kind == "closedness":
            form = entry.model.forms[expectation.target]
            actual = "pass" if ce_d2(entry.model.algebra, form).is_zero() else "fail"
        elif family is None:
            actual = "fail"
        else:
            try:
                member = s1_family(*family, _parse_point(expectation.target))
                ok = integrability_report(member) is None
                actual = "pass" if ok else "fail"
            except BornlabError:
                actual = "fail"
        outcomes.append(ExpectationOutcome(expectation, actual))
    return tuple(outcomes)
