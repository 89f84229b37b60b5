"""Value classes: frozen-dataclass behaviour on slotted classes, and a lean import of the CLI."""

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

import bornlab
from bornlab import catalog
from bornlab.catalog import CatalogEntry, Expectation, ExpectationOutcome
from bornlab.connections import Connection
from bornlab.exact import Matrix, Signature, Splitting, Subspace, Trilinear
from bornlab.liealg import SubalgebraResult
from bornlab.model import CheckResult, Model, Report, StructureDecl
from bornlab.multilinear import BilinearForm, Endomorphism
from bornlab.structures import (
    AlmostKunneth,
    BornStructure,
    CheckItem,
    Hypersymplectic,
    IntegrabilityReport,
    StructureReport,
    Witness,
    integrability_report,
)
from conftest import structures_of

SRC = Path(bornlab.__file__).resolve().parents[1]

# each class with its fields in constructor order, as the frozen dataclasses declared them
FIELDS = {
    Expectation: "kind target expected",
    CatalogEntry: "name summary model expectations provenance",
    ExpectationOutcome: "expectation actual",
    Connection: "gammas",
    Trilinear: "slices",
    Signature: "positive negative null",
    Splitting: "plus minus frame frame_inv pi_plus pi_minus involution",
    StructureDecl: "kind refs",
    Model: "name algebra forms metrics endos subspaces structures checks",
    CheckResult: "check status witness elapsed_ms",
    Report: "model results",
    Witness: "index value note",
    CheckItem: "name witness group",
    StructureReport: "items",
    AlmostKunneth: "algebra omega plus minus",
    BornStructure: "algebra g h omega a_op b_op j_op l_plus l_minus",
    IntegrabilityReport: "d_omega_witness nijenhuis_witnesses subalgebra_witnesses",
    Hypersymplectic: "algebra omega alpha beta a_op b_op j_op metric",
    SubalgebraResult: "ok witness residual",
}
DEFAULTS = {
    Witness: {"note": ""},
    CheckItem: {"witness": None, "group": "algebra"},
    Model: {"checks": None},
    SubalgebraResult: {"witness": None, "residual": None},
}


def test_import_loads_no_dataclasses_inspect_or_typing():
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import bornlab.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_value_class_behaves_as_its_frozen_dataclass(cls):
    names = FIELDS[cls].split()
    reference = dataclasses.make_dataclass(cls.__name__, [(f, object) for f in names], frozen=True)
    values = [f"{f}-value" for f in names]
    obj = cls(*values)
    ref = reference(*values)
    assert repr(obj) == repr(ref)
    assert obj.__eq__(ref) is NotImplemented and obj != ref

    twin = cls(**dict(zip(names, values)))
    assert twin is not obj and twin == obj and hash(twin) == hash(obj) == hash(obj)
    for k in range(len(names)):
        changed = cls(*values[:k], "other", *values[k + 1 :])
        assert changed != obj and not changed == obj

    for name in names:
        with pytest.raises(AttributeError):
            setattr(obj, name, "other")
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = "other"
    assert getattr(obj, names[0]) == values[0]

    defaults = DEFAULTS.get(cls, {})
    short = cls(*values[: len(names) - len(defaults)])
    assert {f: getattr(short, f) for f in defaults} == defaults


def test_values_holding_dicts_are_unhashable():
    entry = catalog.get_entry("h4")
    model = entry.model
    copy = Model(**{f: getattr(model, f) for f in FIELDS[Model].split()})
    assert copy == model
    with pytest.raises(TypeError):
        hash(model)
    born, *_ = structures_of(entry, "born")
    report = integrability_report(born)
    assert report == IntegrabilityReport(*(getattr(report, f) for f in FIELDS[IntegrabilityReport].split()))
    with pytest.raises(TypeError):
        hash(report)


def test_kernel_values_are_immutable_and_compared_by_value():
    m = Matrix([[1, 2], [3, 4]])
    assert m == Matrix.over([[2, 4], [6, 8]], 2) and hash(m) == hash(Matrix([[1, 2], [3, 4]]))
    s, t = Subspace(2, [[1, 1]]), Subspace(2, [[2, 2]])
    assert s.given != t.given and s == t and hash(s) == hash(t)
    sym = m + m.transpose()
    assert BilinearForm.symmetric(sym) == BilinearForm(sym, "symmetric") != BilinearForm(sym)
    assert Endomorphism(m) == Endomorphism(Matrix([[1, 2], [3, 4]])) != Endomorphism(-m)
    for obj in (m, s, BilinearForm(m), Endomorphism(m)):
        with pytest.raises(AttributeError):
            obj.n = 3
        with pytest.raises(AttributeError):
            del obj.n
