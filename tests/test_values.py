"""Value classes: frozen-dataclass behaviour on slotted classes, and a lean import of the CLI."""

import ast
import dataclasses
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

import bornlab
from bornlab import catalog
from bornlab.catalog import CatalogEntry, Expectation, ExpectationOutcome
from bornlab.connections import Connection
from bornlab.exact import Matrix, Signature, Splitting, Subspace, Trilinear, Value
from bornlab.liealg import LieAlgebra, SubalgebraResult
from bornlab.model import CheckResult, Model, Report, StructureDecl
from bornlab.structures import _CERTIFIED, AlmostKunneth, BornStructure, Hypersymplectic, Witness

SRC = Path(bornlab.__file__).resolve().parents[1]

# each class with its fields in constructor order, as the frozen dataclasses declared them
FIELDS = {
    Expectation: "kind target expected",
    CatalogEntry: "name summary model expectations provenance",
    ExpectationOutcome: "expectation actual",
    Connection: "gamma",
    Signature: "positive negative null",
    Splitting: "plus minus frame frame_inv pi_plus involution",
    StructureDecl: "kind refs",
    Model: "name algebra forms metrics endos subspaces structures checks",
    CheckResult: "check status witness structure elapsed_ms",
    Report: "model results",
    Witness: "index value note",
    AlmostKunneth: "algebra omega plus minus split metric",
    BornStructure: "algebra g h omega a_op b_op j_op kunneth",
    Hypersymplectic: "algebra omega alpha beta a_op b_op j_op metric",
    SubalgebraResult: "ok witness residual",
}
# classes only their builders make; the builders' key lets the test make them too
CERTIFIED = (AlmostKunneth, BornStructure)
DEFAULTS = {
    Witness: {"note": ""},
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
    make = partial(cls, key=_CERTIFIED) if cls in CERTIFIED else cls
    reference = dataclasses.make_dataclass(cls.__name__, [(f, object) for f in names], frozen=True)
    values = [f"{f}-value" for f in names]
    obj = make(*values)
    ref = reference(*values)
    assert repr(obj) == repr(ref)
    assert obj.__eq__(ref) is NotImplemented and obj != ref

    twin = make(**dict(zip(names, values)))
    assert twin is not obj and twin == obj and hash(twin) == hash(obj) == hash(obj)
    for k, name in enumerate(names):
        changed = make(*values[:k], "other", *values[k + 1 :])
        if name in cls._uncompared:
            assert changed == obj and hash(changed) == hash(obj)
        else:
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
    short = make(*values[: len(names) - len(defaults)])
    assert {f: getattr(short, f) for f in defaults} == defaults


def test_values_holding_dicts_are_unhashable():
    entry = catalog.get_entry("h4")
    model = entry.model
    copy = Model(**{f: getattr(model, f) for f in FIELDS[Model].split()})
    assert copy == model
    with pytest.raises(TypeError):
        hash(model)


def test_kernel_values_are_immutable_and_compared_by_value():
    m = Matrix([[1, 2], [3, 4]])
    assert m == Matrix.over([[2, 4], [6, 8]], 2) and hash(m) == hash(Matrix([[1, 2], [3, 4]]))
    s, t = Subspace(2, [[1, 1]]), Subspace(2, [[2, 2]])
    assert s == t and hash(s) == hash(t) and s.basis == t.basis == ((1, 1),)
    # a tensor built from its slices is one block over one denominator, equal to the same block reached otherwise
    tensor = Trilinear((m, m * Fraction(1, 2)))
    assert (tensor.num, tensor.den) == (((2, 4), (6, 8), (1, 2), (3, 4)), 2) and tensor.slices == (m, m * Fraction(1, 2))
    assert tensor == Trilinear.over([[4, 8], [12, 16], [2, 4], [6, 8]], 4) and hash(tensor) == hash(Trilinear(tensor.slices))
    assert tensor != Trilinear((m, m)) and tensor != m
    for obj in (m, s, tensor):
        with pytest.raises(AttributeError):
            obj.n = 3
        with pytest.raises(AttributeError):
            del obj.n


# the classes built by Value's one constructor, with no __init__ of their own
GENERIC = [cls for cls in FIELDS if "__init__" not in vars(cls)]


@pytest.mark.parametrize("cls", GENERIC, ids=lambda cls: cls.__name__)
def test_generic_constructor_rejects_what_a_frozen_dataclass_rejects(cls):
    names = FIELDS[cls].split()
    defaults = DEFAULTS.get(cls, {})
    fields = [(f, object, dataclasses.field(default=defaults[f])) if f in defaults else (f, object) for f in names]
    reference = dataclasses.make_dataclass(cls.__name__, fields, frozen=True)
    values = [f"{f}-value" for f in names]
    required = len(names) - len(defaults)
    calls = (
        (values + ["extra"], {}),  # too many positional arguments
        (values, {names[0]: "again"}),  # a field given twice
        (values[: required - 1], {}),  # a missing field
        (values, {"unknown": "value"}),  # an unknown keyword
    )
    for args, kwargs in calls:
        with pytest.raises(TypeError):
            reference(*args, **kwargs)
        with pytest.raises(TypeError, match=f"^{cls.__name__}\\(\\) "):
            cls(*args, **kwargs)


def test_lie_algebra_is_a_value_compared_by_n_and_brackets():
    a = LieAlgebra(3, {(1, 2): {3: 1}})
    same = LieAlgebra(3, {(1, 2): {3: "2/2", 1: 0}})
    assert same is not a and same == a and hash(same) == hash(a) and same.brackets == {(1, 2): {3: 1}}
    assert a != LieAlgebra(3, {(1, 2): {3: 2}}) and a != LieAlgebra(3, {}) and a != LieAlgebra(4, a.brackets)
    assert a.__eq__(a.brackets) is NotImplemented
    # compared and hashed by n and the canonical ad tensor; _constants, its sparse index, is not compared
    bare = object.__new__(LieAlgebra)
    Value.__init__(bare, 3, a._ad, None)
    assert bare == a and hash(bare) == hash(a)
    for name in LieAlgebra.__slots__ + ("brackets", "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert repr(a) == "LieAlgebra(dim=3, [e1,e2]=1*e3)"


def stores_only(init: ast.FunctionDef) -> bool:
    """Whether a constructor only stores its parameters, by object.__setattr__ or super().__init__."""
    params = {a.arg for a in init.args.args + init.args.kwonlyargs} - {"self"}
    body = init.body[1:] if ast.get_docstring(init) else init.body

    def stores(stmt) -> bool:
        if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)):
            return False
        func, args = ast.unparse(stmt.value.func), stmt.value.args
        stored = {"object.__setattr__": args[2:], "super().__init__": args}.get(func)
        return stored is not None and all(isinstance(a, ast.Name) and a.id in params for a in stored)

    return all(map(stores, body))


def test_no_value_class_writes_out_the_constructor_it_inherits():
    store_only = [
        f"{path.name}:{node.name}"
        for path in sorted((SRC / "bornlab").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        for init in node.body
        if isinstance(init, ast.FunctionDef) and init.name == "__init__" and stores_only(init)
    ]
    assert store_only == []
