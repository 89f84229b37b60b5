"""Model files, check orchestration and deterministic reporting.

A model is a single JSON document: a Lie algebra by brackets, named tensors
(forms are antisymmetric, metrics symmetric), named subspaces, and the list
of structures they assemble into.  Indices are 1-based throughout, matching
the basis conventions of the catalog; rationals are "p/q" strings.

run_checks executes the fixed check list against every declared structure,
collects exact witnesses for failures, and reports deterministically: result
rows appear in a fixed order and witnesses are the lexicographically first
offending index, independent of evaluation order.

One table, _KINDS, declares each structure kind: its builder, its required
and optional roles with the model section each names, and by its order the
order in which checks combine outcomes; parsing, labels and materialize all
read it.  A second table, _CHECKS, says which check applies to which kind and
how it is decided there.  materialize builds every declared structure,
keeping construction errors, and orders them born, kunneth, hypersymplectic,
each in declaration order; a check's row is the first failing outcome in that
order.  A structure that did not build fails only its kind's construction
check, the one whose row for that kind is _built, and is left out of every
other.

The builders are memoized by value, and so is each check's outcome on one
built structure, in one memo keyed by (check, kind, structure); a Born row
that rests on its underlying Kunneth structure reads that outcome through
the same memo.  A structure checked again (by `catalog show` after `check`,
or in another model) costs lookups; memory grows with the number of distinct
structures checked.  Reports and their timings are not memoized.
"""

from __future__ import annotations

import json
import time
from collections.abc import Sequence
from functools import lru_cache
from math import lcm

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
from .exact import Matrix, Subspace, Value, format_rational, parse_rational, rational_parts
from .liealg import LieAlgebra, ce_d2
from .multilinear import ANTISYMMETRIC, SYMMETRIC, BilinearForm, Endomorphism
from . import structures
from .structures import (
    AlmostKunneth,
    BornStructure,
    Witness,
    almost_product,
    integrability_report,
    neutral_metric,
    subalgebra_witness,
    verify_born_identities,
    witness_of,
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

# kind -> (builder in structures, required roles, optional roles), each role
# with the model section it names; the builder takes the required tables in
# order and each optional role X as expect_x.  The builder is looked up by name
# at call time, so a rebinding of the public function (perfbench's tracing)
# sees the call.  The kinds are listed in the order checks combine outcomes in.
_KINDS = {
    "born": (
        "build_born",
        (("g", "metrics"), ("h", "metrics"), ("omega", "forms")),
        (("A", "endos"), ("B", "endos"), ("J", "endos")),
    ),
    "kunneth": (
        "build_almost_kunneth",
        (("omega", "forms"), ("plus", "subspaces"), ("minus", "subspaces")),
        (),
    ),
    "hypersymplectic": (
        "build_hypersymplectic",
        (("omega", "forms"), ("alpha", "forms"), ("beta", "forms")),
        (("A", "endos"), ("B", "endos"), ("J", "endos"), ("metric", "metrics")),
    ),
}


class StructureDecl(Value):
    __slots__ = ("kind", "refs")

    def __init__(self, kind: str, refs: tuple):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "refs", refs)  # sorted (role, name) pairs

    @classmethod
    def of(cls, kind: str, **refs) -> "StructureDecl":
        return cls(kind, tuple(sorted(refs.items())))

    def ref(self, role: str) -> str | None:
        for key, name in self.refs:
            if key == role:
                return name
        return None

    def label(self) -> str:
        named = ",".join(str(self.ref(role)) for role, _ in _KINDS[self.kind][1])
        return f"{self.kind}({named})"


class Model(Value):
    """A parsed model: forms, metrics, endos and subspaces are dicts by name, so it is unhashable."""

    __slots__ = ("name", "algebra", "forms", "metrics", "endos", "subspaces", "structures", "checks")

    def __init__(self, name, algebra, forms, metrics, endos, subspaces, structures, checks=None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "forms", forms)
        object.__setattr__(self, "metrics", metrics)
        object.__setattr__(self, "endos", endos)
        object.__setattr__(self, "subspaces", subspaces)
        object.__setattr__(self, "structures", structures)
        object.__setattr__(self, "checks", checks)


# ---------------------------------------------------------------------------
# parsing and rendering


def _parse_matrix(name: str, rows, n: int) -> Matrix:
    if not isinstance(rows, list) or len(rows) != n or any(
        not isinstance(r, list) or len(r) != n for r in rows
    ):
        raise DimensionMismatchError(f"{name}: expected a {n}x{n} matrix of rational strings")
    try:
        parts = [[rational_parts(v) for v in r] for r in rows]
    except ValueError as exc:
        raise ModelSyntaxError(f"{name}: {exc}") from exc
    d = lcm(*{q for r in parts for _, q in r})
    return Matrix.over([[p * (d // q) for p, q in r] for r in parts], d)


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
    decls = []
    for decl in _section(doc, "structures", list):
        if not isinstance(decl, dict) or "type" not in decl:
            raise ModelSyntaxError("structure declarations need a 'type'")
        kind = decl["type"]
        if not isinstance(kind, str) or kind not in _KINDS:
            raise ModelSyntaxError(f"unknown structure type {kind!r}")
        _, required, optional = _KINDS[kind]
        roles = dict(required + optional)
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
        missing = [r for r, _ in required if r not in refs]
        if missing:
            raise ModelSyntaxError(f"{kind} structure is missing roles {missing}")
        decls.append(StructureDecl.of(kind, **refs))

    checks = doc.get("checks")
    if checks is not None:
        if not isinstance(checks, list):
            raise ModelSyntaxError("'checks' must be a list of check names")
        for c in checks:
            if c not in CHECK_ORDER:
                raise UnknownNameError(f"unknown check {c!r}")
        checks = tuple(checks)

    return Model(name, algebra, forms, metrics, endos, subspaces, tuple(decls), checks)


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


class CheckResult(Value):
    __slots__ = ("check", "status", "witness", "elapsed_ms")

    def __init__(self, check: str, status: str, witness: Witness | None, elapsed_ms: float):
        object.__setattr__(self, "check", check)
        object.__setattr__(self, "status", status)  # pass | fail | skipped
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "elapsed_ms", elapsed_ms)


class Report(Value):
    __slots__ = ("model", "results")

    def __init__(self, model: str, results: tuple):
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "results", results)

    @property
    def overall(self) -> str:
        return "fail" if any(r.status == "fail" for r in self.results) else "pass"


def materialize(model: Model) -> list:
    """(decl, structure or its BornlabError) per declared structure.

    Structures are built in declaration order, each by its kind's row of
    _KINDS, and returned in the order of _KINDS, each kind in declaration
    order: the order in which every check combines outcomes, so a row's
    witness is that of the first failing structure in it.
    """
    built = []
    for decl in model.structures:
        builder, required, optional = _KINDS[decl.kind]
        try:
            obj = getattr(structures, builder)(
                model.algebra,
                *(getattr(model, section)[decl.ref(role)] for role, section in required),
                **{
                    f"expect_{role.lower()}": getattr(model, section).get(decl.ref(role))
                    for role, section in optional
                },
            )
        except BornlabError as exc:
            obj = exc
        built.append((decl, obj))
    order = list(_KINDS)
    return sorted(built, key=lambda pair: order.index(pair[0].kind))


def _error_witness(exc: BornlabError) -> Witness:
    """The error's defect at its first nonzero entry, else its own index and value, else () = 0."""
    defect = getattr(exc, "defect", None)
    hit = None if defect is None else defect.first_witness()
    index, value = hit or (getattr(exc, "witness", None) or (), getattr(exc, "value", None) or 0)
    return Witness.at(tuple(index), value, str(exc))


# a row is a structure -> outcome function: None when the check passes, its
# Witness when it fails, and _SKIP where the check does not apply
_SKIP = object()


def _built(structure):
    """Construction is the check: a structure that built passes it, one that did not fails it."""
    return None


def _identity_group(group: str):
    """Row of a check made of one group of the Born identities."""
    return lambda born: next(
        (i.witness for i in verify_born_identities(born).items if i.group == group and not i.ok), None
    )


def _kunneth_integrability(k: AlmostKunneth):
    """Fails a splitting at its first obstruction to integrability.

    Integrable means a closed form with both subspaces bracket-closed; this is
    the notion the torsion criterion for the Kunneth connection refers to (it
    can hold for a Born structure whose complex leg is not integrable).
    """
    L = k.algebra
    return (
        witness_of(ce_d2(L, k.omega), "d omega")
        or subalgebra_witness(L, k.plus)
        or subalgebra_witness(L, k.minus)
    )


def _neutral_signature(k: AlmostKunneth):
    neutral_metric(k)  # certifies the neutral signature; raises otherwise
    return None


def _canonical_of(k: AlmostKunneth):
    return canonical_connection(k.algebra, neutral_metric(k), almost_product(k))


def _kunneth_connections(k: AlmostKunneth):
    """Torsion-free iff integrable, and then nabla^g = nabla^K = nabla^c.

    The first claim fails with the torsion witness of nabla^K, or with the
    integrability witness when nabla^K is torsion-free; the second with the
    first Gamma entry (i, j, k) where nabla^K - nabla^g or else nabla^c - nabla^K
    is nonzero.
    """
    L = k.algebra
    try:
        lc = levi_civita(L, neutral_metric(k))
        nk = kunneth_connection(k)
        nc = _canonical_of(k)
    except BornlabError as exc:
        return _error_witness(exc)
    note = "torsion-free Kunneth connection iff integrable"
    torsion_witness = witness_of(torsion(L, nk), note)
    obstruction = _outcome("integrability", "kunneth", k)
    if obstruction is not None:
        return None if torsion_witness is not None else Witness(obstruction.index, obstruction.value, note)
    if torsion_witness is not None or lc == nk == nc:
        return torsion_witness
    note = "integrable case: nabla^g = nabla^K = nabla^c"
    differences = [w for w in (witness_of(nk - lc, note), witness_of(nc - nk, note)) if w is not None]
    return min(differences, key=lambda w: w.index)


def _born_connections(born: BornStructure):
    witness = _outcome("connections", "kunneth", born.underlying_kunneth())
    if witness is None:
        try:
            born_connection(born)
        except BornlabError as exc:
            return _error_witness(exc)
    return witness


def _generalized_torsion(born: BornStructure):
    try:
        nb = born_connection(born)
        nc = _canonical_of(born.underlying_kunneth())
    except BornlabError as exc:
        return _error_witness(exc)
    return witness_of(generalized_torsion_defect(born.algebra, nb, nc, born.g))


def _if_integrable(row):
    """The row on an integrable Born structure; the check does not apply to others."""
    return lambda born: row(born) if integrability_report(born).integrable else _SKIP


# check -> {structure kind: row}; the check does not apply to a kind it does not name
_CHECKS = {
    "born_axioms": {"born": _built, "hypersymplectic": _built},
    "identity_table": {"born": _identity_group("algebra")},
    "integrability": {
        "born": lambda b: integrability_report(b).first_witness(),
        "kunneth": _kunneth_integrability,
    },
    "eigenspace_geometry": {"born": _identity_group("eigenspace"), "kunneth": _built},
    "signatures": {"born": _identity_group("signature"), "kunneth": _neutral_signature},
    "connections": {"born": _born_connections, "kunneth": _kunneth_connections},
    "generalized_torsion": {"born": _if_integrable(_generalized_torsion)},
    "omega_k": {
        "born": lambda b: _outcome("omega_k", "kunneth", b.underlying_kunneth()),
        "kunneth": lambda k: witness_of(omega_K_defect(k)),
    },
    "torsion_formula": {
        "born": _if_integrable(lambda b: born_torsion_formula_defect(b).first_witness()),
    },
}


@lru_cache(maxsize=None)
def _outcome(check: str, kind: str, structure):
    """One check's outcome for one built structure, memoized by value."""
    row = _CHECKS[check].get(kind)
    return row(structure) if row else _SKIP


def _row(check: str, kind: str, obj):
    """Outcome of a check on a structure or on its construction error."""
    if isinstance(obj, BornlabError):
        return _error_witness(obj) if _CHECKS[check].get(kind) is _built else _SKIP
    return _outcome(check, kind, obj)


def run_checks(model: Model, only: Sequence[str] | None = None) -> Report:
    """Execute the requested checks (default: all applicable) against a model."""
    selected = tuple(only) if only is not None else (model.checks or CHECK_ORDER)
    for name in selected:
        if name not in CHECK_ORDER:
            raise UnknownNameError(f"unknown check {name!r}")
    built = materialize(model)
    results = []
    for check in CHECK_ORDER:
        if check not in selected:
            continue
        start = time.perf_counter()
        # every applicable structure is evaluated, so no error depends on an earlier failure
        outcomes = [o for o in (_row(check, decl.kind, obj) for decl, obj in built) if o is not _SKIP]
        witness = next((o for o in outcomes if o is not None), None)
        status = "skipped" if not outcomes else "pass" if witness is None else "fail"
        elapsed = round((time.perf_counter() - start) * 1000, 3)
        results.append(CheckResult(check, status, witness, elapsed))
    return Report(model.name, tuple(results))


# ---------------------------------------------------------------------------
# rendering


def _witness_json(w: Witness | None):
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
