"""Model files, check orchestration and deterministic reporting.

A model is a single JSON document: a Lie algebra by brackets, named tensors
(forms are antisymmetric, metrics symmetric), named subspaces, and the list
of structures they assemble into.  Indices are 1-based throughout, matching
the basis conventions of the catalog; rationals are "p/q" strings.

run_checks executes the fixed check list against every declared structure,
collects exact witnesses for failures, and reports deterministically: result
rows appear in a fixed order and witnesses are the lexicographically first
offending index, independent of evaluation order.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .connections import (
    born_connection,
    born_torsion_formula_defect,
    canonical_connection,
    generalized_torsion_defect,
    kunneth_connection,
    levi_civita,
    omega_K_defect,
    torsion,
)
from .errors import (
    BornlabError,
    DimensionMismatchError,
    ModelSyntaxError,
    UnknownNameError,
)
from .exact import Matrix, Subspace, format_rational, parse_rational, signature_of_symmetric
from .liealg import LieAlgebra, ce_d2, is_subalgebra
from .multilinear import ANTISYMMETRIC, SYMMETRIC, BilinearForm, Endomorphism
from .structures import (
    AlmostKunneth,
    BornStructure,
    Witness,
    almost_product,
    build_almost_kunneth,
    build_born,
    build_hypersymplectic,
    integrability_report,
    neutral_metric,
    verify_born_identities,
)

CHECK_ORDER = (
    "born_axioms",
    "identity_table",
    "integrability",
    "eigenspace_geometry",
    "signatures",
    "connections",
    "generalized_torsion",
    "omega_k",
    "torsion_formula",
)

_STRUCTURE_ROLES = {
    "kunneth": (("omega", "forms"), ("plus", "subspaces"), ("minus", "subspaces")),
    "born": (
        ("g", "metrics"),
        ("h", "metrics"),
        ("omega", "forms"),
        ("A", "endos"),
        ("B", "endos"),
        ("J", "endos"),
    ),
    "hypersymplectic": (
        ("omega", "forms"),
        ("alpha", "forms"),
        ("beta", "forms"),
        ("A", "endos"),
        ("B", "endos"),
        ("J", "endos"),
        ("metric", "metrics"),
    ),
}
_REQUIRED_ROLES = {
    "kunneth": ("omega", "plus", "minus"),
    "born": ("g", "h", "omega"),
    "hypersymplectic": ("omega", "alpha", "beta"),
}


@dataclass(frozen=True)
class StructureDecl:
    kind: str
    refs: tuple  # sorted (role, name) pairs

    @classmethod
    def of(cls, kind: str, **refs) -> "StructureDecl":
        return cls(kind, tuple(sorted(refs.items())))

    def ref(self, role: str) -> Optional[str]:
        for key, name in self.refs:
            if key == role:
                return name
        return None

    def label(self) -> str:
        named = ",".join(str(self.ref(role)) for role in _REQUIRED_ROLES[self.kind])
        return f"{self.kind}({named})"


@dataclass(frozen=True)
class Model:
    name: str
    algebra: LieAlgebra
    forms: Mapping[str, BilinearForm]
    metrics: Mapping[str, BilinearForm]
    endos: Mapping[str, Endomorphism]
    subspaces: Mapping[str, Subspace]
    structures: tuple
    checks: Optional[tuple] = None


# ---------------------------------------------------------------------------
# parsing and rendering


def _parse_matrix(name: str, rows, n: int) -> Matrix:
    if not isinstance(rows, list) or len(rows) != n or any(
        not isinstance(r, list) or len(r) != n for r in rows
    ):
        raise DimensionMismatchError(f"{name}: expected a {n}x{n} matrix of rational strings")
    try:
        return Matrix([[parse_rational(v) for v in r] for r in rows])
    except ValueError as exc:
        raise ModelSyntaxError(f"{name}: {exc}") from exc


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _section(doc: dict, key: str, kind: type):
    value = doc.get(key, kind())
    if not isinstance(value, kind):
        raise ModelSyntaxError(f"'{key}' must be a JSON {'object' if kind is dict else 'array'}")
    return value


def parse_model(text: str) -> Model:
    """Parse and validate a model document.

    Raises ModelSyntaxError for malformed JSON or fields, JacobiViolationError
    for invalid structure constants, DimensionMismatchError for shape errors
    and UnknownNameError for dangling references.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelSyntaxError(exc.msg, line=exc.lineno) from exc
    if not isinstance(doc, dict):
        raise ModelSyntaxError("model document must be a JSON object")
    allowed = {"name", "dim", "brackets", "forms", "metrics", "endos", "subspaces", "structures", "checks"}
    unknown = set(doc) - allowed
    if unknown:
        raise ModelSyntaxError(f"unknown keys: {sorted(unknown)}")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise ModelSyntaxError("missing or invalid 'name'")
    dim = doc.get("dim")
    if not _is_int(dim) or dim < 1:
        raise ModelSyntaxError("missing or invalid 'dim'")

    brackets = {}
    for item in _section(doc, "brackets", list):
        if not isinstance(item, dict) or set(item) != {"i", "j", "out"}:
            raise ModelSyntaxError("bracket entries need exactly the keys i, j, out")
        i, j = item["i"], item["j"]
        if not _is_int(i) or not _is_int(j):
            raise ModelSyntaxError("bracket indices must be integers")
        try:
            out = {int(k): parse_rational(v) for k, v in item["out"].items()}
        except (TypeError, ValueError, AttributeError) as exc:
            raise ModelSyntaxError(f"bracket output of ({i},{j}): {exc}") from exc
        brackets[(i, j)] = out
    algebra = LieAlgebra(dim, brackets)

    forms = {}
    for fname, rows in sorted(_section(doc, "forms", dict).items()):
        m = _parse_matrix(f"forms.{fname}", rows, dim)
        if not m.is_antisymmetric():
            raise ModelSyntaxError(f"forms.{fname} is not antisymmetric")
        forms[fname] = BilinearForm(m, ANTISYMMETRIC)
    metrics = {}
    for mname, rows in sorted(_section(doc, "metrics", dict).items()):
        m = _parse_matrix(f"metrics.{mname}", rows, dim)
        if not m.is_symmetric():
            raise ModelSyntaxError(f"metrics.{mname} is not symmetric")
        metrics[mname] = BilinearForm(m, SYMMETRIC)
    endos = {}
    for ename, rows in sorted(_section(doc, "endos", dict).items()):
        endos[ename] = Endomorphism(_parse_matrix(f"endos.{ename}", rows, dim))
    subspaces = {}
    for sname, vectors in sorted(_section(doc, "subspaces", dict).items()):
        if not isinstance(vectors, list) or not vectors:
            raise ModelSyntaxError(f"subspaces.{sname} must be a non-empty list of vectors")
        for v in vectors:
            if not isinstance(v, list) or len(v) != dim:
                raise DimensionMismatchError(f"subspaces.{sname}: vector of wrong length")
        try:
            subspaces[sname] = Subspace(dim, [[parse_rational(x) for x in v] for v in vectors])
        except ValueError as exc:
            raise ModelSyntaxError(f"subspaces.{sname}: {exc}") from exc

    sections = {"forms": forms, "metrics": metrics, "endos": endos, "subspaces": subspaces}
    structures = []
    for decl in _section(doc, "structures", list):
        if not isinstance(decl, dict) or "type" not in decl:
            raise ModelSyntaxError("structure declarations need a 'type'")
        kind = decl["type"]
        if not isinstance(kind, str) or kind not in _STRUCTURE_ROLES:
            raise ModelSyntaxError(f"unknown structure type {kind!r}")
        roles = dict(_STRUCTURE_ROLES[kind])
        refs = {}
        for key, value in decl.items():
            if key == "type":
                continue
            if key not in roles:
                raise ModelSyntaxError(f"{kind} structure has no role {key!r}")
            if not isinstance(value, str):
                raise ModelSyntaxError(f"{kind}.{key} must name a {roles[key]} entry")
            if value not in sections[roles[key]]:
                raise UnknownNameError(f"{kind}.{key} references unknown {roles[key]} entry {value!r}")
            refs[key] = value
        missing = [r for r in _REQUIRED_ROLES[kind] if r not in refs]
        if missing:
            raise ModelSyntaxError(f"{kind} structure is missing roles {missing}")
        structures.append(StructureDecl.of(kind, **refs))

    checks = doc.get("checks")
    if checks is not None:
        if not isinstance(checks, list):
            raise ModelSyntaxError("'checks' must be a list of check names")
        for c in checks:
            if c not in CHECK_ORDER:
                raise UnknownNameError(f"unknown check {c!r}")
        checks = tuple(checks)

    return Model(name, algebra, forms, metrics, endos, subspaces, tuple(structures), checks)


def _matrix_json(m: Matrix):
    return [[format_rational(v) for v in row] for row in m.rows]


def render_model(model: Model) -> str:
    """Canonical JSON serialization; parse(render(parse(x))) is idempotent."""
    doc = {"name": model.name, "dim": model.algebra.n}
    doc["brackets"] = [
        {"i": i, "j": j, "out": {str(k): format_rational(c) for k, c in out.items()}}
        for (i, j), out in model.algebra.brackets.items()
    ]
    doc["forms"] = {name: _matrix_json(f.matrix) for name, f in sorted(model.forms.items())}
    doc["metrics"] = {name: _matrix_json(f.matrix) for name, f in sorted(model.metrics.items())}
    doc["endos"] = {name: _matrix_json(e.matrix) for name, e in sorted(model.endos.items())}
    doc["subspaces"] = {
        name: [[format_rational(v) for v in vec] for vec in s.given]
        for name, s in sorted(model.subspaces.items())
    }
    doc["structures"] = [
        {"type": decl.kind, **{role: ref for role, ref in decl.refs}} for decl in model.structures
    ]
    if model.checks is not None:
        doc["checks"] = list(model.checks)
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# check execution


@dataclass(frozen=True)
class CheckResult:
    check: str
    status: str  # pass | fail | skipped
    witness: Optional[Witness]
    elapsed_ms: int


@dataclass(frozen=True)
class Report:
    model: str
    results: tuple

    @property
    def overall(self) -> str:
        return "fail" if any(r.status == "fail" for r in self.results) else "pass"


class _Materialized:
    """Structures built once per run, with construction failures kept."""

    def __init__(self, model: Model):
        self.model = model
        self.borns = []  # (decl, BornStructure | BornlabError)
        self.kunneths = []  # (decl, AlmostKunneth | BornlabError)
        self.hypers = []  # (decl, Hypersymplectic | BornlabError)
        L = model.algebra
        for decl in model.structures:
            try:
                if decl.kind == "born":
                    obj = build_born(
                        L,
                        model.metrics[decl.ref("g")],
                        model.metrics[decl.ref("h")],
                        model.forms[decl.ref("omega")],
                        expect_a=_maybe(model.endos, decl.ref("A")),
                        expect_b=_maybe(model.endos, decl.ref("B")),
                        expect_j=_maybe(model.endos, decl.ref("J")),
                    )
                    self.borns.append((decl, obj))
                elif decl.kind == "kunneth":
                    obj = build_almost_kunneth(
                        L,
                        model.forms[decl.ref("omega")],
                        model.subspaces[decl.ref("plus")],
                        model.subspaces[decl.ref("minus")],
                    )
                    self.kunneths.append((decl, obj))
                else:
                    obj = build_hypersymplectic(
                        L,
                        model.forms[decl.ref("omega")],
                        model.forms[decl.ref("alpha")],
                        model.forms[decl.ref("beta")],
                        expect_a=_maybe(model.endos, decl.ref("A")),
                        expect_b=_maybe(model.endos, decl.ref("B")),
                        expect_j=_maybe(model.endos, decl.ref("J")),
                        expect_metric=_maybe(model.metrics, decl.ref("metric")),
                    )
                    self.hypers.append((decl, obj))
            except BornlabError as exc:
                bucket = {"born": self.borns, "kunneth": self.kunneths, "hypersymplectic": self.hypers}
                bucket[decl.kind].append((decl, exc))

    def built_borns(self):
        return [(d, b) for d, b in self.borns if isinstance(b, BornStructure)]

    def built_kunneths(self):
        return [(d, k) for d, k in self.kunneths if isinstance(k, AlmostKunneth)]


def _maybe(section, name):
    return section[name] if name else None


def _error_witness(exc: BornlabError) -> Witness:
    index = getattr(exc, "witness", None) or ()
    defect = getattr(exc, "defect", None)
    value = getattr(exc, "value", None)
    if value is None and defect is not None and hasattr(defect, "first_nonzero"):
        hit = defect.first_nonzero()
        if hit is not None:
            index, value = (hit[0], hit[1]), hit[2]
    return Witness.at(tuple(index), value if value is not None else 0, str(exc))


def _aggregate(check: str, outcomes) -> CheckResult:
    """Combine per-structure outcomes ("pass"/"fail"/witness) into one row."""
    if not outcomes:
        return CheckResult(check, "skipped", None, 0)
    for status, witness in outcomes:
        if status == "fail":
            return CheckResult(check, "fail", witness, 0)
    return CheckResult(check, "pass", None, 0)


def _built_outcomes(pairs):
    """Fail with the construction error's witness where a structure did not build."""
    return [
        ("fail", _error_witness(obj)) if isinstance(obj, BornlabError) else ("pass", None)
        for decl, obj in pairs
    ]


def _first_failure(items):
    """Outcome of the first failing CheckItem, or a pass when none fails."""
    for item in items:
        if not item.ok:
            return ("fail", item.witness or Witness.at((), 0, item.name))
    return ("pass", None)


def _group_outcomes(mat: _Materialized, group: str):
    """One outcome per built Born structure: its first failing identity in a group."""
    return [
        _first_failure(i for i in verify_born_identities(born).items if i.group == group)
        for decl, born in mat.built_borns()
    ]


def _defect_outcome(defect):
    return ("pass", None) if defect.is_zero() else ("fail", defect.first_witness())


def _kunneth_obstruction(L, k: AlmostKunneth) -> Optional[Witness]:
    """First obstruction to integrability of a splitting, or None.

    Integrable means a closed form with both subspaces bracket-closed; this is
    the notion the torsion criterion for the Kunneth connection refers to (it
    can hold for a Born structure whose complex leg is not integrable).
    """
    d = ce_d2(L, k.omega)
    if not d.is_zero():
        idx, value = d.witnesses()[0]
        return Witness.at(idx, value, "d omega")
    for name, sub in (("plus", k.plus), ("minus", k.minus)):
        result = is_subalgebra(L, sub)
        if not result:
            return Witness.at(result.witness, 0, f"{name} subspace is not a subalgebra")
    return None


def _check_born_axioms(mat: _Materialized):
    return _built_outcomes(mat.borns + mat.hypers)


def _check_identity_table(mat: _Materialized):
    return _group_outcomes(mat, "algebra")


def _check_integrability(mat: _Materialized):
    outcomes = []
    for decl, born in mat.built_borns():
        report = integrability_report(born)
        if report.integrable and report.ok:
            outcomes.append(("pass", None))
        else:
            outcomes.append(("fail", report.first_witness() or Witness.at((), 0, "inconsistent")))
    for decl, k in mat.built_kunneths():
        witness = _kunneth_obstruction(mat.model.algebra, k)
        outcomes.append(("pass", None) if witness is None else ("fail", witness))
    return outcomes


def _check_eigenspace_geometry(mat: _Materialized):
    return _group_outcomes(mat, "eigenspace") + _built_outcomes(mat.kunneths)


def _check_signatures(mat: _Materialized):
    outcomes = _group_outcomes(mat, "signature")
    for decl, k in mat.built_kunneths():
        sig = signature_of_symmetric(neutral_metric(k).matrix)
        half = k.algebra.n // 2
        if sig.as_tuple() == (half, half, 0):
            outcomes.append(("pass", None))
        else:
            outcomes.append(("fail", Witness.at(sig.as_tuple(), 0, "neutral metric signature")))
    return outcomes


def _canonical_of(L, k: AlmostKunneth):
    return canonical_connection(L, neutral_metric(k), almost_product(k))


def _connection_outcome(L, k: AlmostKunneth):
    try:
        lc = levi_civita(L, neutral_metric(k))
        nk = kunneth_connection(k)
        nc = _canonical_of(L, k)
    except BornlabError as exc:
        return ("fail", _error_witness(exc))
    integrable = _kunneth_obstruction(L, k) is None
    if torsion(L, nk).is_zero() != integrable:
        return ("fail", Witness.at((), 0, "torsion-free Kunneth connection iff integrable"))
    if integrable and not (lc == nk == nc):
        return ("fail", Witness.at((), 0, "integrable case: nabla^g = nabla^K = nabla^c"))
    return ("pass", None)


def _check_connections(mat: _Materialized):
    outcomes = []
    L = mat.model.algebra
    for decl, born in mat.built_borns():
        outcomes.append(_connection_outcome(L, born.underlying_kunneth()))
        if outcomes[-1][0] == "pass":
            try:
                born_connection(born)
            except BornlabError as exc:
                outcomes[-1] = ("fail", _error_witness(exc))
    for decl, k in mat.built_kunneths():
        outcomes.append(_connection_outcome(L, k))
    return outcomes


def _check_generalized_torsion(mat: _Materialized):
    outcomes = []
    L = mat.model.algebra
    for decl, born in mat.built_borns():
        if not integrability_report(born).integrable:
            continue  # measured but not asserted for non-integrable structures
        try:
            nb = born_connection(born)
            nc = _canonical_of(L, born.underlying_kunneth())
        except BornlabError as exc:
            outcomes.append(("fail", _error_witness(exc)))
            continue
        outcomes.append(_defect_outcome(generalized_torsion_defect(L, nb, nc, born.g)))
    return outcomes


def _check_omega_k(mat: _Materialized):
    return [
        _defect_outcome(omega_K_defect(born.underlying_kunneth())) for decl, born in mat.built_borns()
    ] + [_defect_outcome(omega_K_defect(k)) for decl, k in mat.built_kunneths()]


def _check_torsion_formula(mat: _Materialized):
    return [
        _first_failure(born_torsion_formula_defect(born).items)
        for decl, born in mat.built_borns()
        if integrability_report(born).integrable
    ]


_CHECK_FUNCTIONS = {
    "born_axioms": _check_born_axioms,
    "identity_table": _check_identity_table,
    "integrability": _check_integrability,
    "eigenspace_geometry": _check_eigenspace_geometry,
    "signatures": _check_signatures,
    "connections": _check_connections,
    "generalized_torsion": _check_generalized_torsion,
    "omega_k": _check_omega_k,
    "torsion_formula": _check_torsion_formula,
}


def run_checks(model: Model, only: Optional[Sequence[str]] = None) -> Report:
    """Execute the requested checks (default: all applicable) against a model."""
    selected = tuple(only) if only is not None else (model.checks or CHECK_ORDER)
    for name in selected:
        if name not in CHECK_ORDER:
            raise UnknownNameError(f"unknown check {name!r}")
    mat = _Materialized(model)
    results = []
    for check in CHECK_ORDER:
        if check not in selected:
            continue
        start = time.perf_counter()
        outcome = _aggregate(check, _CHECK_FUNCTIONS[check](mat))
        elapsed = int((time.perf_counter() - start) * 1000)
        results.append(CheckResult(check, outcome.status, outcome.witness, elapsed))
    return Report(model.name, tuple(results))


# ---------------------------------------------------------------------------
# rendering


def _witness_json(w: Optional[Witness]):
    if w is None:
        return None
    out = {"index": list(w.index), "value": w.value}
    if w.note:
        out["note"] = w.note
    return out


def render_report(report: Report, fmt: str = "text") -> str:
    """Render as an aligned text table or stable-key JSON.

    The text format carries no timing, so it is byte-identical across runs;
    the JSON format includes elapsed_ms per the report schema.
    """
    if fmt == "json":
        doc = {
            "model": report.model,
            "overall": report.overall,
            "results": [
                {
                    "check": r.check,
                    "status": r.status,
                    "witness": _witness_json(r.witness),
                    "elapsed_ms": r.elapsed_ms,
                }
                for r in report.results
            ],
        }
        return json.dumps(doc, indent=2) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")
    width = max((len(r.check) for r in report.results), default=10)
    lines = [f"model: {report.model}"]
    for r in report.results:
        line = f"  {r.check.ljust(width)}  {r.status.upper()}"
        if r.witness is not None:
            idx = ",".join(str(i) for i in r.witness.index)
            line += f"  witness ({idx}) = {r.witness.value}"
            if r.witness.note:
                line += f"  [{r.witness.note}]"
        lines.append(line)
    lines.append(f"overall: {report.overall.upper()}")
    return "\n".join(lines) + "\n"
