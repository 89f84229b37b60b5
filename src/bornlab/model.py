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
keeping construction errors, kind by kind in that order and each kind in
declaration order, and follows a built Born structure with the Kunneth
structure it holds, so one Kunneth structure per (omega, L+, L-) is listed,
and checked by the Kunneth rows, whether a Born structure holds it or the
model declares it.  A report evaluates each row once on each listed
structure; a check's row is the first failing outcome in that order.  A
structure that did not build fails only its kind's construction check, the
one whose row for that kind is _built, and is left out of every other.

Every result is kept on the value it was computed from (`exact.owned`):
materialize's structures on the Model, and each report on the Model, keyed
by the selection.  None holds its owner, so all go with the parsed Model.
`parsed`, the one memo across calls, keeps the Models of the last
PARSED_DOCUMENTS document texts; `check` and the catalog both read models
through it, so a document checked again, or an entry shown after its text
was checked, is answered by the report kept on its Model, timings included.
A JSON row names the declaration whose outcome gave its witness.
"""

from __future__ import annotations

import json
import re
import time
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

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
    shown,
)
from .exact import Matrix, Subspace, Value, format_rational, owned, parse_rational, read_integer
from .liealg import LieAlgebra, ce_d2
from . import structures
from .structures import (
    AlmostKunneth,
    BornStructure,
    Witness,
    integrability_report,
    neutral_metric,
    subalgebra_witness,
    witness_at,
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

# the documents whose Models `parsed` keeps: the catalog's ten and a few more
PARSED_DOCUMENTS = 16

# The largest dim a model may declare.  LieAlgebra builds an n^3 table of
# structure constants and checks n^4 Jacobi sums, so an unbounded dim would
# exhaust memory or time before an error could be reported.
MAX_DIM = 32

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
    __slots__ = ("kind", "refs")  # refs: sorted (role, name) pairs

    @classmethod
    def of(cls, kind: str, **refs) -> "StructureDecl":
        return cls(kind, tuple(sorted(refs.items())))

    def ref(self, role: str) -> str | None:
        return dict(self.refs).get(role)

    def label(self) -> str:
        named = ",".join(str(self.ref(role)) for role, _ in _KINDS[self.kind][1])
        return f"{self.kind}({named})"


class Model(Value):
    """A parsed model: forms, metrics, endos and subspaces are dicts by name, so it is unhashable.

    Forms and metrics are Gram matrices, checked antisymmetric and symmetric
    at parse; endos are the matrices of endomorphisms.
    """

    __slots__ = ("name", "algebra", "forms", "metrics", "endos", "subspaces", "structures", "checks")
    _defaults = {"checks": None}


# ---------------------------------------------------------------------------
# parsing


# a bracket-output key: a plain ASCII integer, so distinct keys are distinct indices
_INDEX_RE = re.compile(r"0|-?[1-9][0-9]*", re.ASCII)


def _pair(i: int, j: int) -> str:
    """A bracket pair as "(i,j)", each index printed exactly at any size."""
    return f"({format_rational(i)},{format_rational(j)})"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _object(pairs) -> dict:
    """A JSON object whose keys are distinct; a repeated key is an error, not a silent overwrite."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {shown(key)} is given twice")
        obj[key] = value
    return obj


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
        # JSON integers are read as literal integers are: exact under any
        # int-from-text digit limit, and bounded in digits
        doc = json.loads(text, parse_int=read_integer, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise ModelSyntaxError(exc.msg, line=exc.lineno) from exc
    except ValueError as exc:
        raise ModelSyntaxError(str(exc)) from exc
    except RecursionError:
        raise ModelSyntaxError("the document nests too deeply") from None
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
    if dim > MAX_DIM:
        raise ModelSyntaxError(f"'dim' {format_rational(dim)} is above the bound {MAX_DIM}")
    # each distinct literal of the document is read once; one that fails is not stored, and a list or an
    # object is no key and no literal, so every bad entry raises as `parse_rational` alone would
    literals = {}

    def read(text) -> Fraction:
        try:
            return literals[text]
        except (KeyError, TypeError):
            value = parse_rational(text)
        literals[text] = value
        return value

    brackets = {}
    for item in _section(doc, "brackets", list):
        if not isinstance(item, dict) or set(item) != {"i", "j", "out"}:
            raise ModelSyntaxError("bracket entries need exactly the keys i, j, out")
        i, j = item["i"], item["j"]
        if not _is_int(i) or not _is_int(j):
            raise ModelSyntaxError("bracket indices must be integers")
        if (i, j) in brackets:
            raise ModelSyntaxError(f"bracket {_pair(i, j)} is given twice")
        try:
            out = {k: read(v) for k, v in item["out"].items()}
            if not all(map(_INDEX_RE.fullmatch, out)):
                raise ValueError(f"indices must be plain integers, each given once: {list(out)}")
            out = {read_integer(k): c for k, c in out.items()}
        except (TypeError, ValueError, AttributeError) as exc:
            raise ModelSyntaxError(f"bracket output of {_pair(i, j)}: {exc}") from exc
        brackets[(i, j)] = out
    algebra = LieAlgebra(dim, brackets)

    # equal tables of a document are one Matrix, so what `exact.owned` keeps on one serves every name
    sections, tables = {}, {}
    for section, symmetry in (("forms", "antisymmetric"), ("metrics", "symmetric"), ("endos", None)):
        sections[section] = named = {}
        for tname, rows in sorted(_section(doc, section, dict).items()):
            where = f"{section}.{tname}"
            square = isinstance(rows, list) and len(rows) == dim
            if not square or not all(isinstance(r, list) and len(r) == dim for r in rows):
                raise DimensionMismatchError(f"{where}: expected a {dim}x{dim} matrix of rational strings")
            try:
                m = Matrix.of_fractions([[read(v) for v in r] for r in rows])
            except ValueError as exc:
                raise ModelSyntaxError(f"{where}: {exc}") from exc
            if symmetry and not getattr(m, f"is_{symmetry}")():
                raise ModelSyntaxError(f"{where} is not {symmetry}")
            named[tname] = tables.setdefault(m, m)
    sections["subspaces"] = subspaces = {}
    for sname, vectors in sorted(_section(doc, "subspaces", dict).items()):
        if not isinstance(vectors, list) or not vectors:
            raise ModelSyntaxError(f"subspaces.{sname} must be a non-empty list of vectors")
        for v in vectors:
            if not isinstance(v, list) or len(v) != dim:
                raise DimensionMismatchError(f"subspaces.{sname}: vector of wrong length")
        try:
            subspaces[sname] = Subspace(dim, [tuple(map(read, v)) for v in vectors])
        except ValueError as exc:
            raise ModelSyntaxError(f"subspaces.{sname}: {exc}") from exc

    decls = []
    for decl in _section(doc, "structures", list):
        if not isinstance(decl, dict) or "type" not in decl:
            raise ModelSyntaxError("structure declarations need a 'type'")
        kind = decl["type"]
        if not isinstance(kind, str) or kind not in _KINDS:
            raise ModelSyntaxError(f"unknown structure type {shown(kind)}")
        _, required, optional = _KINDS[kind]
        roles = dict(required + optional)
        refs = {}
        for key, value in decl.items():
            if key == "type":
                continue
            if key not in roles:
                raise ModelSyntaxError(f"{kind} structure has no role {shown(key)}")
            if not isinstance(value, str):
                raise ModelSyntaxError(f"{kind}.{key} must name a {roles[key]} entry")
            if value not in sections[roles[key]]:
                raise UnknownNameError(f"{kind}.{key} references unknown {roles[key]} entry {shown(value)}")
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
                raise UnknownNameError(f"unknown check {shown(c)}")
        checks = tuple(checks)

    return Model(name, algebra, **sections, structures=tuple(decls), checks=checks)


@lru_cache(maxsize=PARSED_DOCUMENTS)
def parsed(text: str) -> Model:
    """`parse_model(text)` once per text of the last PARSED_DOCUMENTS; an error is not stored, so it raises again.

    `check` and the catalog share the Model of a text, and only read its dicts.
    """
    return parse_model(text)


# ---------------------------------------------------------------------------
# check execution


class CheckResult(Value):
    # status: pass | fail | skipped; structure: the label of the declaration whose outcome gave the witness
    __slots__ = ("check", "status", "witness", "structure", "elapsed_ms")


class Report(Value):
    __slots__ = ("model", "results")

    @property
    def overall(self) -> str:
        return "fail" if any(r.status == "fail" for r in self.results) else "pass"


@owned
def materialize(model: Model) -> tuple:
    """(kind, decl, structure or its BornlabError) per structure, in the order rows combine outcomes.

    Kinds are built in the order of _KINDS, each in declaration order, by its
    row of _KINDS, so a row's witness is that of the first failing structure
    in the list.  A built Born structure is followed by its Kunneth structure
    `born.kunneth`, a kunneth triple under the Born declaration.  A declared
    Kunneth structure on an (omega, plus, minus) already listed is not built
    or listed again: `build_born` proves that its Kunneth structure meets
    every condition `build_almost_kunneth` checks.  So no structure is listed
    twice, and each is checked under the declaration listed first.  The
    result is kept on the model, a construction error without its traceback
    and context, whose frames would reach the model.
    """
    built, kunneths = [], set()
    for kind, (builder, required, optional) in _KINDS.items():
        for decl in model.structures:
            if decl.kind != kind:
                continue
            tables = tuple(getattr(model, section)[decl.ref(role)] for role, section in required)
            if kind == "kunneth" and tables in kunneths:
                continue
            expected = {f"expect_{role.lower()}": getattr(model, sec).get(decl.ref(role)) for role, sec in optional}
            try:
                obj = getattr(structures, builder)(model.algebra, *tables, **expected)
            except BornlabError as exc:
                exc.__context__ = None
                obj = exc.with_traceback(None)
            built.append((kind, decl, obj))
            k = obj.kunneth if isinstance(obj, BornStructure) else obj
            if isinstance(k, AlmostKunneth):
                kunneths.add((k.omega, k.plus, k.minus))
                if k is not obj:
                    built.append(("kunneth", decl, k))
    return tuple(built)


def _error_witness(exc: BornlabError) -> Witness:
    """The error's hit, or () = 0 for an error with no location."""
    return Witness.at(*(exc.hit or ((), 0)), str(exc))


# a row is a structure -> outcome function: None when the check passes, its
# Witness when it fails, and _SKIP where the check does not apply
_SKIP = object()


def _built(structure):
    """Construction is the check: a structure that built passes it, one that did not fails it."""
    return None


def _holds(structure):
    """The builder's certificates prove the check: it holds on every built structure.

    The Born identity table (proved at `structures.verify_born_identities`)
    and the neutral signature of a Kunneth structure's metric (proved at
    `structures.neutral_metric`), which on a Born structure's own Kunneth
    structure is its metric g.
    Unlike `_built`, the row is skipped on a structure that did not build.
    """
    return None


def _kunneth_integrability(k: AlmostKunneth):
    """Fails a splitting at its first obstruction to integrability.

    Integrable means a closed form with both subspaces bracket-closed; this is
    the notion the torsion criterion for the Kunneth connection refers to.  A
    Born structure is integrable exactly when its underlying Kunneth structure
    is and N_B = 0 (proved at structures.integrability_report), so this can
    hold where the Born structure's N_B, and with it N_J, does not vanish.
    """
    L = k.algebra
    return (
        witness_of(ce_d2(L, k.omega), "d omega")
        or subalgebra_witness(L, k.plus)
        or subalgebra_witness(L, k.minus)
    )


def _kunneth_connections(k: AlmostKunneth):
    """Torsion-free iff integrable, and then nabla^g = nabla^K = nabla^c.

    The first claim fails with the torsion witness of nabla^K, or with the
    integrability witness when nabla^K is torsion-free; the second with the
    first Gamma entry (i, j, k) where nabla^K - nabla^g or else nabla^c - nabla^K
    is nonzero.  Each connection is what it is meant to be by its
    construction (proved in `connections`); the row compares them.
    """
    L = k.algebra
    lc = levi_civita(L, neutral_metric(k))
    nk = kunneth_connection(k)
    nc = canonical_connection(k)
    note = "torsion-free Kunneth connection iff integrable"
    torsion_witness = witness_of(torsion(L, nk), note)
    obstruction = _kunneth_integrability(k)
    if obstruction is not None:
        return None if torsion_witness is not None else Witness(obstruction.index, obstruction.value, note)
    if torsion_witness is not None or lc == nk == nc:
        return torsion_witness
    note = "integrable case: nabla^g = nabla^K = nabla^c"
    differences = [w for w in (witness_of(nk - lc, note), witness_of(nc - nk, note)) if w is not None]
    return min(differences, key=lambda w: w.index)


def _generalized_torsion(born: BornStructure):
    nc = canonical_connection(born.kunneth)
    return witness_of(generalized_torsion_defect(born_connection(born), nc, born.g))


def _if_integrable(row):
    """The row on an integrable Born structure; the check does not apply to others."""
    return lambda born: row(born) if integrability_report(born) is None else _SKIP


# check -> {structure kind: row}; the check does not apply to a kind it does not name
_CHECKS = {
    "born_axioms": {"born": _built, "hypersymplectic": _built},
    "identity_table": {"born": _holds},
    "integrability": {
        # looked up by name at call time, as _KINDS looks up the builders
        "born": lambda b: integrability_report(b),
        "kunneth": _kunneth_integrability,
    },
    "eigenspace_geometry": {"kunneth": _built},
    "signatures": {"kunneth": _holds},
    "connections": {"kunneth": _kunneth_connections},
    "generalized_torsion": {"born": _if_integrable(_generalized_torsion)},
    "omega_k": {"kunneth": lambda k: witness_of(omega_K_defect(k))},
    "torsion_formula": {
        "born": _if_integrable(lambda b: witness_at(born_torsion_formula_defect(b))),
    },
}


def _row(check: str, kind: str, obj):
    """Outcome of a check on a structure or on its construction error; _SKIP where the check does not apply."""
    row = _CHECKS[check].get(kind)
    if row is None or isinstance(obj, BornlabError):
        return _error_witness(obj) if row is _built else _SKIP
    return row(obj)


def run_checks(model: Model, only: Sequence[str] | None = None) -> Report:
    """Execute the checks in only, else the model's checks, else all of them.

    Neither the selection nor the model's structures may be empty: a report of
    nothing but skipped rows would read as a pass.  The report is kept on the
    model for the selection, with the timings of the run that produced it.
    """
    return _report(model, None if only is None else tuple(only))


@owned
def _report(model: Model, selected: tuple | None) -> Report:
    if selected is None:
        selected = CHECK_ORDER if model.checks is None else model.checks
    if not selected:
        raise ModelSyntaxError("no checks selected")
    for name in selected:
        if name not in CHECK_ORDER:
            raise UnknownNameError(f"unknown check {name!r}")
    if not model.structures:
        raise ModelSyntaxError("model declares no structures")
    listed, results = materialize(model), []
    for check in CHECK_ORDER:
        if check not in selected:
            continue
        start = time.perf_counter()
        # every applicable structure is evaluated, so no error depends on an earlier failure
        outcomes = [(o, decl) for kind, decl, obj in listed if (o := _row(check, kind, obj)) is not _SKIP]
        witness, decl = next(((o, decl) for o, decl in outcomes if o is not None), (None, None))
        status = "skipped" if not outcomes else "pass" if witness is None else "fail"
        elapsed = round((time.perf_counter() - start) * 1000, 3)
        results.append(CheckResult(check, status, witness, decl and decl.label(), elapsed))
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
                    "structure": r.structure,
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
