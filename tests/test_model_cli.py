"""Model parsing, check orchestration, report rendering and the CLI."""

import decimal
import gc
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import bornlab
from bornlab import (
    CirclePoint,
    Matrix,
    Subspace,
    build_almost_kunneth,
    catalog,
    invert,
    levi_civita,
    neutral_metric,
    parse_model,
    render_model,
    render_report,
    run_checks,
)
from bornlab import exact
from bornlab.exact import MAX_LITERAL_DIGITS
from bornlab import model as model_module
from bornlab.connections import Connection
from bornlab.cli import main
from bornlab.errors import (
    BornlabError,
    DimensionMismatchError,
    JacobiViolationError,
    ModelSyntaxError,
    UnknownNameError,
    shown,
)
from bornlab.multilinear import two_form
from bornlab.structures import BornStructure, Witness
from oracles import fresh
from test_builders import moved_algebra, random_unimodular
from test_frames import moved_form, moved_subspace

MINIMAL_NIL3 = """
{
  "name": "minimal",
  "dim": 4,
  "brackets": [{"i": 1, "j": 2, "out": {"3": "1"}}]
}
"""

FIXTURE_KUNNETH_ONLY = """
{
  "name": "fixture-kunneth",
  "dim": 4,
  "brackets": [{"i": 1, "j": 2, "out": {"3": "1"}}],
  "forms": {"w": [["0","8","0","0"],["-8","0","0","0"],["0","0","0","-8"],["0","0","8","0"]]},
  "subspaces": {"F": [["1","0","0","0"],["0","0","0","1"]], "G": [["0","1","0","0"],["0","0","1","0"]]},
  "structures": [{"type": "kunneth", "omega": "w", "plus": "F", "minus": "G"}]
}
"""


# [e1,e2] = e3 leaves span(e1, e2) for a closed form: the plus subspace is not a subalgebra
NOT_SUBALGEBRA = """
{
  "name": "not-subalgebra",
  "dim": 4,
  "brackets": [{"i": 1, "j": 2, "out": {"3": "1"}}],
  "forms": {"w": [["0","0","0","1"],["0","0","1","0"],["0","-1","0","0"],["-1","0","0","0"]]},
  "subspaces": {"F": [["1","0","0","0"],["0","1","0","0"]], "G": [["0","0","1","0"],["0","0","0","1"]]},
  "structures": [{"type": "kunneth", "omega": "w", "plus": "F", "minus": "G"}]
}
"""


def _patched(path, value, base=FIXTURE_KUNNETH_ONLY):
    """The base document with the entry at a key path replaced by value."""
    doc = json.loads(base)
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    target[last] = value
    return json.dumps(doc)


MALFORMED_MODELS = {
    "dim_bool": '{"name": "x", "dim": true}',
    "forms_not_object": _patched(("forms",), []),
    "reference_not_name": _patched(("structures", 0, "omega"), ["w"]),
    "dependent_subspace": _patched(("subspaces", "F", 1), ["2", "0", "0", "0"]),
    "non_rational_subspace_entry": _patched(("subspaces", "F", 0, 0), "one"),
    "trailing_newline": json.dumps({"name": "x", "dim": 1, "forms": {"w": [["0\n"]]}}),
    "repeated_key": NOT_SUBALGEBRA.replace('"out": {"3": "1"}', '"out": {"3": "1", "3": "2"}'),
    # past the decoder's depth on every supported Python: from 3.12 the C
    # scanner checks nesting against the C recursion limit, not against 1000
    "nested_too_deep": "[" * 100_000 + "]" * 100_000,
    # quoted in the message by its first characters and its length
    "long_structure_type": _patched(("structures", 0, "type"), "k" * 10**6),
}


# --- parsing -------------------------------------------------------------


def test_parse_minimal_model():
    model = parse_model(MINIMAL_NIL3)
    assert model.algebra.n == 4
    assert model.algebra.brackets == {(1, 2): {3: 1}}


def test_parse_render_parse_idempotent():
    for name in ("h4", "nil3_r", "torus_2_2"):
        text = catalog.export_entry(name)
        once = parse_model(text)
        again = parse_model(render_model(once))
        assert once == again
        assert render_model(once) == render_model(again)


def test_parse_rejects_bad_json():
    with pytest.raises(ModelSyntaxError) as info:
        parse_model("{\n  \"name\": \"x\",\n  oops\n}")
    assert info.value.line == 3


def test_parse_rejects_unknown_keys():
    with pytest.raises(ModelSyntaxError):
        parse_model('{"name": "x", "dim": 2, "extra": 1}')


def test_parse_rejects_bad_rational():
    text = MINIMAL_NIL3.replace('"1"', '"1.5"')
    with pytest.raises(ModelSyntaxError):
        parse_model(text)


BAD_ENTRIES = [
    ("1.5", "'1.5'"),
    (" 1", "' 1'"),
    ("1/0", "'1/0'"),
    ("1/-2", "'1/-2'"),
    ("+1", "'+1'"),
    (1, "1"),
    (1.5, "1.5"),
    (True, "True"),
    (None, "None"),
    (["1"], "['1']"),
    ("1\n", "'1\\n'"),
]


@pytest.mark.parametrize("value, shown", BAD_ENTRIES)
@pytest.mark.parametrize("path", [("forms", "w", 0, 1), ("subspaces", "F", 1, 3)])
def test_parse_bad_entry_message(path, value, shown):
    with pytest.raises(ModelSyntaxError) as info:
        parse_model(_patched(path, value))
    assert str(info.value) == f"{path[0]}.{path[1]}: not a rational literal: {shown}"


def _brackets(*entries):
    return json.dumps({"name": "b", "dim": 3, "brackets": [{"i": 1, "j": 2, "out": out} for out in entries]})


PLAIN = "bracket output of (1,2): indices must be plain integers, each given once:"
BRACKET_TABLES = {
    "repeated_pair": (_brackets({"3": "1"}, {"3": "1"}), "bracket (1,2) is given twice"),
    "erased_by_empty_output": (_brackets({"3": "1"}, {}), "bracket (1,2) is given twice"),
    "leading_zero": (_brackets({"03": "1"}), f"{PLAIN} ['03']"),
    "plus_sign": (_brackets({"+3": "1"}), f"{PLAIN} ['+3']"),
    "space": (_brackets({" 3": "1"}), f"{PLAIN} [' 3']"),
    "alias_of_a_key": (_brackets({"3": "1", "03": "2"}), f"{PLAIN} ['3', '03']"),
}


@pytest.mark.parametrize("text, message", list(BRACKET_TABLES.values()), ids=list(BRACKET_TABLES))
def test_bracket_table_rejects_repeats_and_aliases(tmp_path, capsys, text, message):
    """Each pair is given once, and each output key is one plain 1-based index."""
    with pytest.raises(ModelSyntaxError) as info:
        parse_model(text)
    assert str(info.value) == message
    path = tmp_path / "b.json"
    path.write_text(text)
    assert main(["check", str(path)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")


def _literals(doc) -> list:
    """Every literal of a model document, in the order parse_model reads them."""
    found = [v for item in doc.get("brackets", []) for v in item["out"].values()]
    for section in ("forms", "metrics", "endos", "subspaces"):
        found += [v for _, rows in sorted(doc.get(section, {}).items()) for row in rows for v in row]
    return found


def test_each_distinct_literal_is_read_once_per_document(catalog_models, monkeypatch):
    """parse_model reads each distinct literal of a document once, and its
    memo ends with the call: a second parse reads them all again."""
    reads = []

    def counted(text):
        reads.append(text)
        return exact.parse_rational(text)

    monkeypatch.setattr(model_module, "parse_rational", counted)
    for name in catalog_models:
        text = catalog.export_entry(name)
        literals = _literals(json.loads(text))
        for _ in range(2):
            reads.clear()
            assert parse_model(text) == catalog_models[name].model
            assert reads == list(dict.fromkeys(literals)), name
        assert len(literals) > len(reads) or name == "abelian_c1"


# the memo's error paths: a model with a form, a metric, an endo, two
# subspaces and a bracket whose literals repeat, and for each place a later
# entry and an earlier one that the edits replace
MEMO_BASE = {
    "name": "memo", "dim": 2,
    "brackets": [{"i": 1, "j": 2, "out": {"1": "1/2", "2": "1/2"}}],
    "forms": {"w": [["0", "1/2"], ["-1/2", "0"]]},
    "metrics": {"g": [["1/2", "0"], ["0", "1/2"]]},
    "endos": {"A": [["1/2", "0"], ["0", "-1/2"]]},
    "subspaces": {"F": [["1/2", "0"]], "G": [["0", "1/2"]]},
    "structures": [{"type": "kunneth", "omega": "w", "plus": "F", "minus": "G"}],
}
MEMO_PLACES = {
    "form": (("forms", "w", 0, 1), ("forms", "w", 1, 0)),
    "metric": (("metrics", "g", 0, 0), ("metrics", "g", 1, 1)),
    "endo": (("endos", "A", 0, 0), ("endos", "A", 1, 1)),
    "subspace": (("subspaces", "F", 0, 0), ("subspaces", "G", 0, 1)),
    "bracket": (("brackets", 0, "out", "1"), ("brackets", 0, "out", "2")),
}
# (earlier entry, later entry); None leaves the entry as it is
MEMO_EDITS = {
    "list": (None, ["1/2"]),
    "object": (None, {"p": "1/2"}),
    "bad_twice": ("1.5", "1.5"),
    "good_then_bad": ("1/2", "x"),
}
# exit code and stderr of `check`, recorded before literals were memoized
MEMO_ERRORS = {
    ("form", "list"): (2, "error: forms.w: not a rational literal: ['1/2']\n"),
    ("form", "object"): (2, "error: forms.w: not a rational literal: {'p': '1/2'}\n"),
    ("form", "bad_twice"): (2, "error: forms.w: not a rational literal: '1.5'\n"),
    ("form", "good_then_bad"): (2, "error: forms.w: not a rational literal: 'x'\n"),
    ("metric", "list"): (2, "error: metrics.g: not a rational literal: ['1/2']\n"),
    ("metric", "object"): (2, "error: metrics.g: not a rational literal: {'p': '1/2'}\n"),
    ("metric", "bad_twice"): (2, "error: metrics.g: not a rational literal: '1.5'\n"),
    ("metric", "good_then_bad"): (2, "error: metrics.g: not a rational literal: 'x'\n"),
    ("endo", "list"): (2, "error: endos.A: not a rational literal: ['1/2']\n"),
    ("endo", "object"): (2, "error: endos.A: not a rational literal: {'p': '1/2'}\n"),
    ("endo", "bad_twice"): (2, "error: endos.A: not a rational literal: '1.5'\n"),
    ("endo", "good_then_bad"): (2, "error: endos.A: not a rational literal: 'x'\n"),
    ("subspace", "list"): (2, "error: subspaces.G: not a rational literal: ['1/2']\n"),
    ("subspace", "object"): (2, "error: subspaces.G: not a rational literal: {'p': '1/2'}\n"),
    ("subspace", "bad_twice"): (2, "error: subspaces.F: not a rational literal: '1.5'\n"),
    ("subspace", "good_then_bad"): (2, "error: subspaces.G: not a rational literal: 'x'\n"),
    ("bracket", "list"): (2, "error: bracket output of (1,2): not a rational literal: ['1/2']\n"),
    ("bracket", "object"): (2, "error: bracket output of (1,2): not a rational literal: {'p': '1/2'}\n"),
    ("bracket", "bad_twice"): (2, "error: bracket output of (1,2): not a rational literal: '1.5'\n"),
    ("bracket", "good_then_bad"): (2, "error: bracket output of (1,2): not a rational literal: 'x'\n"),
}


def test_memoized_literals_fail_as_unmemoized_ones(tmp_path, capsys):
    """A list or object entry, a bad literal given twice and a bad literal
    after a repeated good one, in each place a literal is read: the exit code
    and message are those recorded before literals were memoized, and the
    unedited model passes."""
    path = tmp_path / "memo.json"
    path.write_text(json.dumps(MEMO_BASE))
    assert main(["check", str(path)]) == 0
    capsys.readouterr()
    for (place, edit), expected in MEMO_ERRORS.items():
        doc = json.loads(json.dumps(MEMO_BASE))
        for (*head, last), value in zip(MEMO_PLACES[place], MEMO_EDITS[edit]):
            if value is not None:
                target = doc
                for key in head:
                    target = target[key]
                target[last] = value
        path.write_text(json.dumps(doc))
        code = main(["check", str(path)])
        out, err = capsys.readouterr()
        assert (code, out, err) == (expected[0], "", expected[1]), (place, edit)


def test_parse_rejects_jacobi_violation():
    text = """
    {"name": "bad", "dim": 4,
     "brackets": [{"i": 1, "j": 2, "out": {"3": "1"}}, {"i": 3, "j": 4, "out": {"1": "1"}}]}
    """
    with pytest.raises(JacobiViolationError) as info:
        parse_model(text)
    assert len(info.value.hit[0]) == 4


def test_parse_rejects_unknown_reference():
    text = """
    {"name": "x", "dim": 2, "forms": {"w": [["0","1"],["-1","0"]]},
     "structures": [{"type": "kunneth", "omega": "nope", "plus": "F", "minus": "G"}]}
    """
    with pytest.raises(UnknownNameError):
        parse_model(text)


def test_parse_rejects_wrong_dimension():
    text = '{"name": "x", "dim": 3, "forms": {"w": [["0","1"],["-1","0"]]}}'
    with pytest.raises(DimensionMismatchError):
        parse_model(text)


def test_parse_rejects_asymmetric_metric():
    text = '{"name": "x", "dim": 2, "metrics": {"g": [["0","1"],["2","0"]]}}'
    with pytest.raises(ModelSyntaxError):
        parse_model(text)


def test_parse_rejects_unknown_check_name():
    text = '{"name": "x", "dim": 2, "checks": ["nope"]}'
    with pytest.raises(UnknownNameError):
        parse_model(text)


def test_parse_rejects_dim_above_the_bound_before_building_the_algebra(tmp_path, capsys, monkeypatch):
    """A dim above MAX_DIM is a syntax error; the n^3 table of a LieAlgebra is never allocated."""
    bound = model_module.MAX_DIM
    assert parse_model(json.dumps({"name": "x", "dim": bound})).algebra.n == bound

    def no_algebra(*args):
        raise AssertionError("LieAlgebra built for an out-of-bound dim")

    monkeypatch.setattr(model_module, "LieAlgebra", no_algebra)
    text, message = json.dumps({"name": "x", "dim": bound + 1}), f"'dim' {bound + 1} is above the bound {bound}"
    with pytest.raises(ModelSyntaxError) as info:
        parse_model(text)
    assert str(info.value) == message
    path = tmp_path / "wide.json"
    path.write_text(text)
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


# --- checks --------------------------------------------------------------


def test_h4_default_checks_pass():
    report = run_checks(parse_model(catalog.export_entry("h4")))
    assert report.overall == "pass"
    assert [r.check for r in report.results] == [
        "born_axioms",
        "identity_table",
        "integrability",
        "eigenspace_geometry",
        "signatures",
        "connections",
        "generalized_torsion",
        "omega_k",
        "torsion_formula",
    ]


def test_kunneth_only_model_skips_born_scope():
    report = run_checks(parse_model(FIXTURE_KUNNETH_ONLY))
    statuses = {r.check: r.status for r in report.results}
    assert statuses["born_axioms"] == "skipped"
    assert statuses["identity_table"] == "skipped"
    assert statuses["eigenspace_geometry"] == "pass"
    assert statuses["connections"] == "pass"
    assert statuses["omega_k"] == "pass"
    # the scaled fixture form is not closed; the witness carries the defect 8
    assert statuses["integrability"] == "fail"
    failing = next(r for r in report.results if r.check == "integrability")
    assert failing.witness.index == (1, 2, 4)
    assert failing.witness.value == "8"
    assert report.overall == "fail"


# [e3,e4] = e2 with omega = e13 + e24 closed: <e1,e2> is a subalgebra and <e3,e4> is not
ONE_LEG_NOT_SUBALGEBRA = """
{
  "name": "one-leg",
  "dim": 4,
  "brackets": [{"i": 3, "j": 4, "out": {"2": "1"}}],
  "forms": {"w": [["0","0","1","0"],["0","0","0","1"],["-1","0","0","0"],["0","-1","0","0"]]},
  "subspaces": {"F": [["1","0","0","0"],["0","1","0","0"]], "G": [["0","0","1","0"],["0","0","0","1"]]},
  "structures": [{"type": "kunneth", "omega": "w", "plus": "F", "minus": "G"}]
}
"""


@pytest.mark.parametrize("swap", [False, True], ids=["minus_leg", "plus_leg"])
def test_kunneth_integrability_reads_both_legs(swap):
    """Only one of L+ and L- fails to be a subalgebra: integrability fails on
    either leg with the witness (1,2,2) = 1 of [e3, e4] = e2 outside <e3, e4>,
    and the connections row agrees, a torsion-free Kunneth connection being
    the integrable case."""
    text = ONE_LEG_NOT_SUBALGEBRA
    if swap:
        text = text.replace('"plus": "F", "minus": "G"', '"plus": "G", "minus": "F"')
    assert render_report(run_checks(parse_model(text))) == (
        "model: one-leg\n"
        "  born_axioms          SKIPPED\n"
        "  identity_table       SKIPPED\n"
        "  integrability        FAIL  witness (1,2,2) = 1\n"
        "  eigenspace_geometry  PASS\n"
        "  signatures           PASS\n"
        "  connections          PASS\n"
        "  generalized_torsion  SKIPPED\n"
        "  omega_k              PASS\n"
        "  torsion_formula      SKIPPED\n"
        "overall: FAIL\n"
    )


def test_mutated_omega_fails_with_witness():
    doc = json.loads(catalog.export_entry("h4"))
    # flip one sign in omega: breaks antisymmetry? no - flip the (1,3)/(3,1) pair
    doc["forms"]["omega"][0][2] = "-1"
    doc["forms"]["omega"][2][0] = "1"
    report = run_checks(parse_model(json.dumps(doc)))
    assert report.overall == "fail"
    failed = [r for r in report.results if r.status == "fail"]
    assert failed and all(r.witness is not None for r in failed)


def test_checks_subset_selection():
    model = parse_model(catalog.export_entry("h4"))
    report = run_checks(model, only=["signatures", "omega_k"])
    assert [r.check for r in report.results] == ["signatures", "omega_k"]
    with pytest.raises(UnknownNameError):
        run_checks(model, only=["nope"])


def test_model_checks_field_restricts_run():
    text = catalog.export_entry("abelian_c1")
    doc = json.loads(text)
    doc["checks"] = ["born_axioms", "signatures"]
    report = run_checks(parse_model(json.dumps(doc)))
    assert [r.check for r in report.results] == ["born_axioms", "signatures"]


def test_empty_check_selection_is_an_error(tmp_path, capsys):
    """An empty selection is rejected alike from the library, a model's "checks" and --checks."""
    model = parse_model(catalog.export_entry("abelian_c1"))
    with pytest.raises(ModelSyntaxError, match="^no checks selected$"):
        run_checks(model, only=())
    doc = json.loads(catalog.export_entry("abelian_c1"))
    doc["checks"] = []
    with pytest.raises(ModelSyntaxError, match="^no checks selected$"):
        run_checks(parse_model(json.dumps(doc)))
    unselected, full = tmp_path / "unselected.json", tmp_path / "full.json"
    unselected.write_text(json.dumps(doc))
    full.write_text(catalog.export_entry("abelian_c1"))
    for argv in (["check", str(unselected)], ["check", str(full), "--checks", ""]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: no checks selected\n")


def test_model_without_structures_is_an_error(tmp_path, capsys):
    """A model declaring no structures is rejected rather than reported as all SKIPPED and PASS,
    whether its "structures" list is empty or absent, and whatever checks are selected."""
    doc = json.loads(catalog.export_entry("nil3_r"))
    doc["structures"] = []
    empty = parse_model(json.dumps(doc))
    del doc["structures"]
    absent = parse_model(json.dumps(doc))
    for model in (empty, absent):
        for only in (None, ["integrability"], list(model_module.CHECK_ORDER)):
            with pytest.raises(ModelSyntaxError, match="^model declares no structures$"):
                run_checks(model, only=only)
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(doc))
    for extra in ([], ["--format", "json"], ["--checks", "signatures"]):
        assert main(["check", str(path), *extra]) == 2
        assert capsys.readouterr() == ("", "error: model declares no structures\n")
    # the selection is validated first, so its own errors keep their messages
    with pytest.raises(ModelSyntaxError, match="^no checks selected$"):
        run_checks(absent, only=())
    with pytest.raises(UnknownNameError):
        run_checks(absent, only=["nope"])


def test_repeated_check_is_memoized(monkeypatch):
    """A document checked again in the same process is the same parsed Model,
    whose structures keep their check outcomes."""
    original, calls = model_module.omega_K_defect, []

    def counting(k):
        calls.append(k)
        return original(k)

    monkeypatch.setattr(model_module, "omega_K_defect", counting)
    # the fixture form scaled by 7919/13, which no other test uses: a structure
    # this process has not checked yet
    rows = json.loads(FIXTURE_KUNNETH_ONLY)["forms"]["w"]
    text = _patched(("forms", "w"), [[f"{int(v) * 7919}/13" for v in row] for row in rows])
    first = run_checks(model_module.parsed(text))
    evaluated, row = [], model_module._row
    monkeypatch.setattr(model_module, "_row", lambda *args: evaluated.append(args) or row(*args))
    second = run_checks(model_module.parsed(text))
    assert len(calls) == 1
    # the report itself is kept on the Model: no row is evaluated again
    assert second is first and evaluated == []
    assert render_report(first) == render_report(second)


def test_a_kept_report_is_kept_for_its_selection(tmp_path, capsys):
    """A selection checked first does not answer for the full selection on
    the same text: the full report equals that of a fresh parse."""
    rows = json.loads(FIXTURE_KUNNETH_ONLY)["forms"]["w"]
    text = _patched(("forms", "w"), [[f"{int(v) * 7907}/17" for v in row] for row in rows])
    path = tmp_path / "selected.json"
    path.write_text(text)
    assert main(["check", str(path), "--checks", "signatures,omega_k"]) == 0
    assert capsys.readouterr().out.count("PASS") == 3
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert out == render_report(run_checks(parse_model(text))) and "integrability        FAIL" in out
    model = model_module.parsed(text)
    assert run_checks(model, ["signatures", "omega_k"]) is run_checks(model, ("signatures", "omega_k"))


def test_a_failing_selection_raises_on_every_call():
    model = parse_model(catalog.export_entry("h4"))
    for _ in range(2):
        with pytest.raises(UnknownNameError):
            run_checks(model, only=["signatures", "nope"])
        with pytest.raises(ModelSyntaxError, match="^no checks selected$"):
            run_checks(model, only=[])


def _moved_model(model, seed):
    """The model in the seeded unimodular basis f_a = P e_a."""
    p = random_unimodular(model.algebra.n, random.Random(f"{model.name}-cache-{seed}"))
    p_inv = invert(p)
    return model_module.Model(
        name=f"{model.name}~{seed}",
        algebra=moved_algebra(model.algebra, p),
        forms={k: moved_form(f, p) for k, f in model.forms.items()},
        metrics={k: moved_form(f, p) for k, f in model.metrics.items()},
        endos={k: p_inv * e * p for k, e in model.endos.items()},
        subspaces={k: moved_subspace(s, p_inv) for k, s in model.subspaces.items()},
        structures=model.structures,
        checks=model.checks,
    )


def test_check_keeps_the_structures_of_the_memoized_documents_alone(tmp_path, capsys):
    """Checking 60 distinct documents in one process keeps the Born
    structures of the documents the parse memo holds and no others: once the
    memo is full, the number of live BornStructure objects is the same after
    20, 40 and 60 documents."""
    assert model_module.PARSED_DOCUMENTS < 20
    sources = [catalog.get_entry(name).model for name in ("h4", "nil3_r", "h8")]
    path, live = tmp_path / "moved.json", []
    for i in range(1, 61):
        path.write_text(render_model(_moved_model(sources[i % 3], f"lifetime-{i}")))
        assert main(["check", str(path)]) == 0
        if i % 20 == 0:
            gc.collect()
            live.append(sum(isinstance(obj, BornStructure) for obj in gc.get_objects()))
    capsys.readouterr()
    assert live[0] == live[1] == live[2], live


def test_run_checks_eliminates_each_form_once(monkeypatch):
    """On a model no cache has seen, run_checks eliminates the matrices of g,
    h and omega once each: the nondegeneracy proofs, the recursion operators
    and the connections all read one memoized inverse."""
    model = _moved_model(catalog.get_entry("h4").model, "eliminations")
    n = model.algebra.n
    born = next(decl for decl in model.structures if decl.kind == "born")
    tables = {"g": model.metrics, "h": model.metrics, "omega": model.forms}
    original, eliminated = exact._gauss_jordan, []

    def counting(rows, ncols):
        eliminated.append(tuple(tuple(row[:n]) for row in rows))
        return original(rows, ncols)

    monkeypatch.setattr(exact, "_gauss_jordan", counting)
    assert run_checks(model).overall == "pass"
    for role, table in tables.items():
        m = table[born.ref(role)]
        assert sum(block in (m.num, m.transpose().num) for block in eliminated) == 1, role


def test_run_checks_evaluates_each_structure_once_per_check(catalog_models, monkeypatch):
    """On every catalog model each check evaluates each structure object
    once, though `materialize` lists a declared Kunneth structure that a Born
    structure holds twice: every catalog model lists born, kunneth, kunneth."""
    evaluated, original = [], model_module._row
    monkeypatch.setattr(model_module, "_row", lambda *args: evaluated.append((args[0], id(args[2]))) or original(*args))
    listed_twice = 0
    for name in catalog_models:
        # a new parse, on which no report is kept yet
        model = parse_model(catalog.export_entry(name))
        listed = [id(obj) for _, _, obj in model_module.materialize(model)]
        listed_twice += len(listed) > len(set(listed))
        evaluated.clear()
        run_checks(model)
        checks = model.checks or model_module.CHECK_ORDER
        assert sorted(evaluated) == sorted((check, i) for check in checks for i in set(listed)), name
    assert listed_twice == len(catalog_models) == 10


_REPORTS = """
import json, sys
from bornlab import parse_model, render_report, run_checks
reports = [run_checks(parse_model(open(path).read())) for path in sys.argv[1:]]
print(json.dumps([[render_report(r), render_report(r, "json")] for r in reports]))
"""


def _stable(text_report, json_report):
    doc = json.loads(json_report)
    for row in doc["results"]:
        del row["elapsed_ms"]
    return text_report, doc


def test_reports_do_not_depend_on_cache_state(tmp_path):
    """Every catalog model and a seeded-basis copy of each, checked forwards,
    backwards and both again in this process, report what a fresh process
    reports checking them once in reverse order (so that no model sees the
    same cache state in both)."""
    models = [catalog.get_entry(name).model for name, _ in catalog.list_entries()]
    models = [m for m in models if m is not None]
    models += [_moved_model(m, 1) for m in models]
    paths = []
    for i, m in enumerate(models):
        paths.append(tmp_path / f"{i:02d}.json")
        paths[-1].write_text(render_model(m))
    env = dict(os.environ, PYTHONPATH=str(Path(bornlab.__file__).parents[1]))
    fresh = subprocess.run(
        [sys.executable, "-c", _REPORTS, *map(str, paths[::-1])],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
        check=True,
    )
    expected = {path: _stable(*pair) for path, pair in zip(paths[::-1], json.loads(fresh.stdout))}
    for order in (paths, paths[::-1], paths, paths[::-1]):
        for path in order:
            report = run_checks(parse_model(path.read_text()))
            assert _stable(render_report(report), render_report(report, "json")) == expected[path], path


def _declaring(name, structures, **sections):
    """A catalog entry's model file with its structures replaced and named entries added."""
    doc = json.loads(catalog.export_entry(name))
    for key, entries in sections.items():
        doc[key].update(entries)
    doc["structures"] = structures
    return json.dumps(doc)


NONINTEGRABLE = "nil3_r_nonintegrable_fixture"
FIXTURE_BORN = {"type": "born", "g": "g", "h": "h", "omega": "omega_tilde", "A": "A", "B": "B", "J": "J"}
FIXTURE_KUNNETH = {"type": "kunneth", "omega": "omega_tilde", "plus": "F", "minus": "G"}
# span(e1, e2) and span(e3, e4): not Lagrangian for omega_tilde, and span(e1, e2) is no subalgebra
SPLIT_12_34 = {"P": [["1", "0", "0", "0"], ["0", "1", "0", "0"]], "Q": [["0", "0", "1", "0"], ["0", "0", "0", "1"]]}
CLOSED_W = {"w": [["0", "0", "0", "1"], ["0", "0", "1", "0"], ["0", "-1", "0", "0"], ["-1", "0", "0", "0"]]}
NOT_SUBALGEBRA_KUNNETH = dict(FIXTURE_KUNNETH, omega="w", plus="P", minus="Q")
# which structures each check combines, and in which order: a structure that
# does not build fails only born_axioms (born, hypersymplectic) or
# eigenspace_geometry (kunneth); a row shows the witness of its first failing
# Born structure, then Kunneth, whatever the declaration order
POLICY_CASES = {
    "born_not_built": (
        _declaring(NONINTEGRABLE, [dict(FIXTURE_BORN, J="A"), FIXTURE_KUNNETH]),
        ("FAIL  witness (1,1) = -1  [axiom failure: J matches expected table]", "SKIPPED",
         "FAIL  witness (1,2,4) = 1  [d omega]", "PASS", "PASS", "PASS", "SKIPPED", "PASS", "SKIPPED"),
    ),
    "kunneth_not_built": (
        _declaring(NONINTEGRABLE, [FIXTURE_BORN, dict(FIXTURE_KUNNETH, plus="P", minus="Q")], subspaces=SPLIT_12_34),
        ("PASS", "PASS", "FAIL  witness (1,2,4) = 1  [d omega]",
         "FAIL  witness (1,2) = 1  [plus is not isotropic: omega(1, 2) = 1]",
         "PASS", "PASS", "SKIPPED", "PASS", "SKIPPED"),
    ),
    "hypersymplectic_not_built": (
        _declaring("nil3_r", [
            {"type": "hypersymplectic", "omega": "omega", "alpha": "alpha", "beta": "beta", "metric": "h_t0"},
            {"type": "kunneth", "omega": "beta_t0", "plus": "F0", "minus": "G0"},
        ]),
        ("FAIL  witness (1,4) = -2  [axiom failure: metric matches expected table]", "SKIPPED",
         "PASS", "PASS", "PASS", "PASS", "SKIPPED", "PASS", "SKIPPED"),
    ),
    # the Kunneth structure of the next case fails integrability with its own witness
    "kunneth_alone": (
        _declaring(NONINTEGRABLE, [NOT_SUBALGEBRA_KUNNETH], forms=CLOSED_W, subspaces=SPLIT_12_34),
        ("SKIPPED", "SKIPPED", "FAIL  witness (1,2,3) = 1", "PASS", "PASS", "PASS", "SKIPPED", "PASS", "SKIPPED"),
    ),
    "kunneth_declared_before_born": (
        _declaring(NONINTEGRABLE, [NOT_SUBALGEBRA_KUNNETH, FIXTURE_BORN], forms=CLOSED_W, subspaces=SPLIT_12_34),
        ("PASS", "PASS", "FAIL  witness (1,2,4) = 1  [d omega]",
         "PASS", "PASS", "PASS", "SKIPPED", "PASS", "SKIPPED"),
    ),
}


@pytest.mark.parametrize("case", sorted(POLICY_CASES))
def test_check_rows_follow_structure_policy(case):
    text, rows = POLICY_CASES[case]
    model = parse_model(text)
    checks = model_module.CHECK_ORDER
    width = max(map(len, checks))
    expected = [f"model: {model.name}"] + [f"  {c.ljust(width)}  {r}" for c, r in zip(checks, rows)]
    expected.append(f"overall: {'FAIL' if any(r.startswith('FAIL') for r in rows) else 'PASS'}")
    assert render_report(run_checks(model)) == "\n".join(expected) + "\n"


# a declaration of each kind that builds, with the catalog entry whose tables it names
DECLARED = {
    "born": (NONINTEGRABLE, FIXTURE_BORN),
    "kunneth": (NONINTEGRABLE, FIXTURE_KUNNETH),
    "hypersymplectic": ("nil3_r", {
        "type": "hypersymplectic", "omega": "omega", "alpha": "alpha", "beta": "beta",
        "A": "A", "B": "B", "J": "J", "metric": "gH",
    }),
}
REQUIRED_ROLES = [
    ("born", "g"), ("born", "h"), ("born", "omega"),
    ("kunneth", "omega"), ("kunneth", "plus"), ("kunneth", "minus"),
    ("hypersymplectic", "omega"), ("hypersymplectic", "alpha"), ("hypersymplectic", "beta"),
]
# each optional role with a table of its section that differs from the one the builder derives
WRONG_TABLES = [
    ("born", "A", "J"), ("born", "B", "J"), ("born", "J", "A"),
    ("hypersymplectic", "A", "B"), ("hypersymplectic", "B", "A"), ("hypersymplectic", "J", "jtilde"),
    ("hypersymplectic", "metric", "h_t0"),
]


@pytest.mark.parametrize("kind, label", [
    ("born", "born(g,h,omega_tilde)"),
    ("kunneth", "kunneth(omega_tilde,F,G)"),
    ("hypersymplectic", "hypersymplectic(omega,alpha,beta)"),
])
def test_declaration_of_each_kind_builds_and_is_labelled_by_its_required_roles(kind, label):
    """A Born declaration also yields the Kunneth structure it holds, under the same label."""
    name, decl = DECLARED[kind]
    built = model_module.materialize(parse_model(_declaring(name, [decl])))
    kinds = [kind, "kunneth"] if kind == "born" else [kind]
    assert [(k, parsed.label()) for k, parsed, _ in built] == [(k, label) for k in kinds]
    assert not any(isinstance(obj, BornlabError) for _, _, obj in built)
    if kind == "born":
        assert built[1][2] is built[0][2].kunneth


@pytest.mark.parametrize("kind, role", REQUIRED_ROLES)
def test_missing_required_role_is_a_syntax_error(kind, role):
    name, decl = DECLARED[kind]
    text = _declaring(name, [{key: ref for key, ref in decl.items() if key != role}])
    with pytest.raises(ModelSyntaxError, match=rf"^{kind} structure is missing roles \['{role}'\]$"):
        parse_model(text)


@pytest.mark.parametrize("kind, role, wrong", WRONG_TABLES)
def test_optional_role_is_checked_against_its_own_table(kind, role, wrong):
    name, decl = DECLARED[kind]
    report = run_checks(parse_model(_declaring(name, [dict(decl, **{role: wrong})])), only=["born_axioms"])
    row = render_report(report).splitlines()[1]
    assert "born_axioms  FAIL  witness" in row
    assert row.endswith(f"  [axiom failure: {role} matches expected table]")


def test_optional_role_naming_the_empty_string_is_checked():
    """A table may be called ""; the role that names it is declared like any other."""
    j_rows = json.loads(catalog.export_entry(NONINTEGRABLE))["endos"]["J"]
    text = _declaring(NONINTEGRABLE, [dict(FIXTURE_BORN, A="")], endos={"": j_rows})
    row = render_report(run_checks(parse_model(text), only=["born_axioms"])).splitlines()[1]
    assert row.endswith("  [axiom failure: A matches expected table]")


def bumped(c, i, j, k, value):
    """The connection c with value added to entry (j, k) of Gamma_i, 1-based."""
    n = len(c.gammas)
    unit = Matrix([[value if (r, s) == (j - 1, k - 1) else 0 for s in range(n)] for r in range(n)])
    return Connection(tuple(g + unit if m == i - 1 else g for m, g in enumerate(c.gammas)))


def test_kunneth_connection_rows_carry_real_witnesses(monkeypatch, nil3):
    """Each failing branch of the Kunneth connections row, forced by a patched builder, shows its witness.

    Every row is decided on a structure built anew, whose outcome memo is
    empty, so no row computed under a patched builder is read again."""
    e = [[1 if i == j else 0 for j in range(4)] for i in range(4)]

    def integrable():
        """Closed e14 + e23 with abelian span(e1, e3) and span(e2, e4)."""
        return build_almost_kunneth(
            fresh(nil3), two_form(4, {(1, 4): 1, (2, 3): 1}), Subspace(4, [e[0], e[2]]), Subspace(4, [e[1], e[3]])
        )

    def fixture():
        """e12 + e43 is not closed, d omega(1,2,4) = 1."""
        return build_almost_kunneth(
            fresh(nil3), two_form(4, {(1, 2): 1, (4, 3): 1}), Subspace(4, [e[0], e[3]]), Subspace(4, [e[1], e[2]])
        )

    def row(build):
        return model_module._outcome(build(), "connections", "kunneth")

    assert row(integrable) is None and row(fixture) is None
    iff = "torsion-free Kunneth connection iff integrable"
    equal = "integrable case: nabla^g = nabla^K = nabla^c"

    # not integrable, yet a torsion-free nabla^K: the integrability witness
    monkeypatch.setattr(model_module, "kunneth_connection", lambda k: levi_civita(k.algebra, neutral_metric(k)))
    assert row(fixture) == Witness((1, 2, 4), "1", iff)
    # integrable, but nabla^K = 0 has torsion T(e1, e2) = -[e1, e2] = -e3
    monkeypatch.setattr(model_module, "kunneth_connection", lambda k: Connection((Matrix.zero(4),) * 4))
    assert row(integrable) == Witness((1, 2, 3), "-1", iff)
    monkeypatch.undo()

    # integrable and torsion-free, but nabla^g moved off nabla^K at Gamma_2 entry (1, 3)
    true_lc = model_module.levi_civita
    monkeypatch.setattr(model_module, "levi_civita", lambda L, g: bumped(true_lc(L, g), 2, 1, 3, 1))
    assert row(integrable) == Witness((2, 1, 3), "-1", equal)
    # and nabla^c moved off nabla^K at Gamma_1 entry (3, 2), which comes first
    true_canonical = model_module.canonical_connection
    monkeypatch.setattr(model_module, "canonical_connection", lambda k: bumped(true_canonical(k), 1, 3, 2, 5))
    assert row(integrable) == Witness((1, 3, 2), "5", equal)


def test_a_catalog_kunneth_declaration_is_the_kunneth_structure_of_its_born_structure(monkeypatch):
    """Every catalog model declares kunneth(omega, F, G) with F and G the
    eigenspaces of its Born structure's A: that declaration is the Born
    structure's own Kunneth structure, so no report builds one."""
    names = [name for name, _ in catalog.list_entries()]
    texts = {name: render_report(run_checks(catalog.get_entry(name).model)) for name in names}

    def unreachable(*args):
        raise AssertionError("build_almost_kunneth is called")

    monkeypatch.setattr(model_module.structures, "build_almost_kunneth", unreachable)
    for name in names:
        model = catalog.get_entry(name).model
        assert render_report(run_checks(model)) == texts[name], name
        built = model_module.materialize(model)
        (born,) = [obj for kind, _, obj in built if kind == "born"]
        (declared,) = [obj for kind, decl, obj in built if kind == decl.kind == "kunneth"]
        assert declared is born.kunneth, name


def _unit(i, value="1"):
    """value times e_i of R^6, as rational strings; i is 1-based."""
    return [value if j == i else "0" for j in range(1, 7)]


# the phase space of strictly upper triangular 3x3 matrices with its omega-dual
# enhancement (h = Id), declaring its Born structure alone: omega = e14 + e25 +
# e36, g pairs e_a with e_(a+3), and A is +Id on <e1,e2,e3> and -Id on <e4,e5,e6>
PHASE = {
    "name": "phase", "dim": 6,
    "brackets": [{"i": 1, "j": 3, "out": {"2": "1"}}, {"i": 1, "j": 5, "out": {"6": "-1"}}],
    "forms": {"omega": [_unit(a + 3) for a in (1, 2, 3)] + [_unit(a, "-1") for a in (1, 2, 3)]},
    "metrics": {
        "g": [_unit(a + 3) for a in (1, 2, 3)] + [_unit(a) for a in (1, 2, 3)],
        "h": [_unit(a) for a in range(1, 7)],
    },
    "structures": [{"type": "born", "g": "g", "h": "h", "omega": "omega"}],
}


def test_a_born_model_reports_alike_with_its_kunneth_structure_declared():
    """Declaring kunneth(omega, plus, minus) first, on the eigenspaces
    <e1,e2,e3> and <e4,e5,e6> of A, adds no Kunneth structure and changes no
    row: text reports are byte-identical and JSON ones equal but for timing."""
    declared = dict(
        PHASE,
        subspaces={"plus": [_unit(a) for a in (1, 2, 3)], "minus": [_unit(a) for a in (4, 5, 6)]},
        structures=[{"type": "kunneth", "omega": "omega", "plus": "plus", "minus": "minus"}, *PHASE["structures"]],
    )
    models = [parse_model(json.dumps(doc)) for doc in (PHASE, declared)]
    (_, _, born), (_, _, own), (_, _, kunneth) = model_module.materialize(models[1])
    assert kunneth is own is born.kunneth
    texts = [render_report(run_checks(m)) for m in models]
    assert texts[0] == texts[1]
    assert "  integrability        FAIL  witness (1,2,3) = 1  [N_B]" in texts[0]
    docs = [json.loads(render_report(run_checks(m), "json")) for m in models]
    for doc in docs:
        for row in doc["results"]:
            assert row.pop("elapsed_ms") >= 0
    assert docs[0] == docs[1]


def test_a_kunneth_declaration_on_another_splitting_follows_the_born_ones():
    """kunneth(omega_tilde, G, F), declared before the fixture's Born
    structure whose L+ and L- are F and G, is a Kunneth structure of its own,
    after the one the Born structure holds."""
    swapped = dict(FIXTURE_KUNNETH, plus="G", minus="F")
    built = model_module.materialize(parse_model(_declaring(NONINTEGRABLE, [swapped, FIXTURE_BORN])))
    assert [(kind, decl.label()) for kind, decl, _ in built] == [
        ("born", "born(g,h,omega_tilde)"),
        ("kunneth", "born(g,h,omega_tilde)"),
        ("kunneth", "kunneth(omega_tilde,G,F)"),
    ]
    (_, _, born), (_, _, own), (_, _, declared) = built
    assert own is born.kunneth
    assert (declared.omega, declared.plus, declared.minus) == (own.omega, own.minus, own.plus)


def test_a_json_row_names_the_structure_behind_its_witness(monkeypatch):
    """Of two Born structures where only the second fails, the failing row
    names the second; a passing or skipped row names none.  A Kunneth row
    decided on a Born structure's own Kunneth structure names the Born
    declaration, though the model also declares that Kunneth structure."""
    passing = {"type": "born", "g": "gH", "h": "h_t0", "omega": "beta_t0"}
    nil3_r = json.loads(catalog.export_entry("nil3_r"))
    text = _declaring(NONINTEGRABLE, [passing, FIXTURE_BORN], forms={"beta_t0": nil3_r["forms"]["beta_t0"]},
                      metrics={name: nil3_r["metrics"][name] for name in ("gH", "h_t0")})
    rows = json.loads(render_report(run_checks(parse_model(text)), "json"))["results"]
    named = {row["check"]: row["structure"] for row in rows}
    assert named == dict.fromkeys(model_module.CHECK_ORDER) | {"integrability": "born(g,h,omega_tilde)"}
    assert [row["status"] for row in rows if row["structure"]] == ["fail"]
    forced = Witness.at((1, 2, 3), 1, "forced")
    monkeypatch.setitem(model_module._CHECKS["omega_k"], "kunneth", lambda k: forced)
    model = parse_model(catalog.export_entry(NONINTEGRABLE))
    assert [decl.kind for decl in model.structures] == ["kunneth", "born"]
    (row,) = run_checks(model, ["omega_k"]).results
    assert (row.witness, row.structure) == (forced, "born(g,h,omega_tilde)")


# --- rendering -----------------------------------------------------------


def test_text_report_contains_pass_per_check():
    report = run_checks(parse_model(catalog.export_entry("abelian_c1")))
    text = render_report(report, "text")
    assert text.count("PASS") == len(report.results) + 1  # one per check + overall
    assert text.endswith("overall: PASS\n")


def test_text_report_is_byte_identical_across_runs():
    model_text = catalog.export_entry("nil3_r_nonintegrable_fixture")
    first = render_report(run_checks(parse_model(model_text)), "text")
    second = render_report(run_checks(parse_model(model_text)), "text")
    assert first == second
    assert "witness (1,2,4) = 1" in first


def test_json_report_round_trips_and_is_stable():
    model_text = catalog.export_entry("h4")
    report = run_checks(parse_model(model_text))
    doc = json.loads(render_report(report, "json"))
    assert doc["model"] == "h4"
    assert doc["overall"] == "pass"
    assert {r["check"] for r in doc["results"]} == {r.check for r in report.results}
    for r in doc["results"]:
        assert set(r) == {"check", "status", "witness", "structure", "elapsed_ms"}
    # deterministic modulo timing
    second = json.loads(render_report(run_checks(parse_model(model_text)), "json"))
    for a, b in zip(doc["results"], second["results"]):
        a.pop("elapsed_ms")
        b.pop("elapsed_ms")
    assert doc == second


def test_json_elapsed_ms_is_a_non_negative_float():
    doc = json.loads(render_report(run_checks(parse_model(catalog.export_entry("h4"))), "json"))
    for r in doc["results"]:
        assert isinstance(r["elapsed_ms"], float) and r["elapsed_ms"] >= 0


# --- CLI -----------------------------------------------------------------


def test_cli_check_pass_and_fail(tmp_path, capsys):
    good = tmp_path / "h4.json"
    good.write_text(catalog.export_entry("h4"))
    assert main(["check", str(good)]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out

    bad = tmp_path / "fixture.json"
    bad.write_text(catalog.export_entry("nil3_r_nonintegrable_fixture"))
    assert main(["check", str(bad)]) == 1
    assert "overall: FAIL" in capsys.readouterr().out


def test_cli_check_json_format(tmp_path, capsys):
    path = tmp_path / "c1.json"
    path.write_text(catalog.export_entry("abelian_c1"))
    assert main(["check", str(path), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["overall"] == "pass"


def test_cli_check_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["check", str(path)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("text", list(MALFORMED_MODELS.values()), ids=list(MALFORMED_MODELS))
def test_cli_check_malformed_model_exit_2(tmp_path, capsys, text):
    with pytest.raises((ModelSyntaxError, DimensionMismatchError)):
        parse_model(text)
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["check", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1
    assert len(err) < 300


def test_cli_check_non_utf8_file_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["check", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: 'utf-8' codec can't decode byte 0xff") and len(err.splitlines()) == 1
    assert err.endswith(f": {str(path)!r}\n")


def test_shown_cuts_a_long_value_and_gives_its_length():
    assert shown("k" * 60) == repr("k" * 60)[:60] + "... (62 characters)"
    assert shown("k" * 58) == repr("k" * 58)
    assert shown(["x"] * 5) == "['x', 'x', 'x', 'x', 'x']"
    assert shown(-(10**58)) == "-1" + "0" * 58
    assert shown(10**60) == "1" + "0" * 59 + "... (61 characters)"


def test_check_report_independent_of_cache_state(tmp_path):
    """A cold process prints the same report as one whose caches the whole
    catalog has warmed."""
    path = tmp_path / "fixture.json"
    path.write_text(catalog.export_entry("nil3_r_nonintegrable_fixture"))
    for name, _ in catalog.list_entries():
        entry = catalog.get_entry(name)
        if entry.model is not None:
            run_checks(entry.model)
    warm = render_report(run_checks(parse_model(path.read_text())))
    env = dict(os.environ, PYTHONPATH=str(Path(bornlab.__file__).parents[1]))
    cold = subprocess.run(
        [sys.executable, "-m", "bornlab.cli", "check", str(path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=False,
    )
    assert cold.returncode == 1, cold.stderr
    assert cold.stdout == warm


def test_cli_check_non_subalgebra_witness_is_the_residual(tmp_path, capsys):
    """The witness is (a, b, c): the echelon pair and the first nonzero coordinate of its bracket's residual."""
    path = tmp_path / "not_subalgebra.json"
    path.write_text(NOT_SUBALGEBRA)
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "  integrability        FAIL  witness (1,2,3) = 1\n" in out


def test_cli_check_missing_file_exit_2(tmp_path, capsys):
    assert main(["check", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()


def test_cli_check_subset(tmp_path, capsys):
    path = tmp_path / "h4.json"
    path.write_text(catalog.export_entry("h4"))
    assert main(["check", str(path), "--checks", "signatures,omega_k"]) == 0
    out = capsys.readouterr().out
    assert "signatures" in out and "born_axioms" not in out


def _counted_reads(monkeypatch) -> list:
    """The literals that model parsing reads from now on, through parse_rational."""
    reads = []

    def counted(text):
        reads.append(text)
        return exact.parse_rational(text)

    monkeypatch.setattr(model_module, "parse_rational", counted)
    return reads


def test_cli_check_parses_each_document_text_once(tmp_path, capsys, monkeypatch):
    """A second check of the same text reads no literal and prints the same
    bytes; a rewritten file is parsed again and reported as its new model,
    and a subset of checks on a memoized text reports only that subset."""
    reads = _counted_reads(monkeypatch)
    path = tmp_path / "model.json"
    # names no other test uses, so this process has parsed neither text yet
    first_text = _patched(("name",), "parsed-once", catalog.export_entry("h4"))
    second_text = _patched(("name",), "parsed-once-rewritten", NOT_SUBALGEBRA)
    runs = []
    for text in (first_text, first_text, second_text, first_text):
        path.write_text(text)
        reads.clear()
        code = main(["check", str(path)])
        runs.append((code, *capsys.readouterr(), len(reads)))
    first, again, rewritten, back = runs
    assert first[0] == 0 and first[3] > 0
    assert again == first[:3] + (0,)
    assert rewritten[0] == 1 and rewritten[3] > 0
    assert rewritten[1].startswith("model: parsed-once-rewritten\n") and rewritten[1] != first[1]
    assert back == again
    reads.clear()
    assert main(["check", str(path), "--checks", "signatures,omega_k"]) == 0
    rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:-1]]
    assert rows == ["signatures", "omega_k"] and reads == []


def test_cli_check_parse_errors_are_not_memoized(tmp_path, capsys, monkeypatch):
    """A text that fails to parse is read again and fails alike on each call."""
    reads = _counted_reads(monkeypatch)
    path = tmp_path / "bad.json"
    path.write_text(_patched(("forms", "w", 0, 1), "8.0", _patched(("name",), "parse-error-twice")))
    runs = []
    for _ in range(2):
        reads.clear()
        code = main(["check", str(path)])
        runs.append((code, *capsys.readouterr(), len(reads)))
    assert runs[0] == runs[1]
    assert runs[0][:3] == (2, "", "error: forms.w: not a rational literal: '8.0'\n")
    assert runs[0][3] > 0


def test_cli_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "nil3_r" in out and "h9_corrected" in out


def test_cli_catalog_show(capsys):
    assert main(["catalog", "show", "h9_corrected"]) == 0
    out = capsys.readouterr().out
    assert "expectations:" in out and "MISMATCH" not in out


def test_cli_catalog_show_unknown(capsys):
    assert main(["catalog", "show", "bogus"]) == 2
    assert capsys.readouterr() == ("", "error: unknown catalog entry 'bogus'\n")
    # a long name is quoted by its first characters and its length
    assert main(["catalog", "show", "x" * 100_000]) == 2
    assert capsys.readouterr().err == "error: unknown catalog entry '" + "x" * 59 + "... (100002 characters)\n"


def test_cli_catalog_export_round_trip(capsys):
    assert main(["catalog", "export", "nil3_r"]) == 0
    out = capsys.readouterr().out
    assert parse_model(out) == catalog.get_entry("nil3_r").model


def test_cli_catalog_export_unknown_fails(capsys):
    assert main(["catalog", "export", "bogus"]) == 2
    capsys.readouterr()


def test_cli_family(capsys):
    assert main(["family", "nil3_r", "--t", "1/2"]) == 0
    out = capsys.readouterr().out
    assert "cos = 3/5" in out and "PASS" in out
    assert main(["family", "nil3_r", "--theta-pi"]) == 0
    capsys.readouterr()


def test_cli_family_rejects_entries_without_hypersymplectic(capsys):
    assert main(["family", "h4", "--t", "0"]) == 2
    capsys.readouterr()


def test_cli_family_rejects_bad_parameter(capsys):
    assert main(["family", "nil3_r", "--t", "x"]) == 2
    capsys.readouterr()


def test_cli_family_takes_a_negative_rational_after_a_space(capsys):
    """`--t -3/7` is the parameter -3/7, as `--t=-3/7` is, not an unknown flag."""
    outputs = []
    for argv in (["--t", "-3/7"], ["--t=-3/7"]):
        assert main(["family", "nil3_r", *argv]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("family member of nil3_r at t=-3/7 (cos = 20/29, sin = -21/29)")


@pytest.mark.parametrize("value", ["x", "-x", "-3/0", "--3/7", "-3 /7", "1/2\n"])
def test_cli_family_rejects_a_non_rational_parameter(value, capsys):
    try:
        code = main(["family", "nil3_r", "--t", value])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert sum("error:" in line for line in err.splitlines()) == 1


def _without_elapsed(argv, text):
    """A JSON report without its timings; other output as printed."""
    if "json" not in argv:
        return text
    doc = json.loads(text)
    for row in doc["results"]:
        del row["elapsed_ms"]
    return doc


def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys):
    """A sequence of calls in one process prints what each prints first in a fresh interpreter."""
    path = tmp_path / "fixture.json"
    path.write_text(catalog.export_entry("nil3_r_nonintegrable_fixture"))
    calls = [
        ["check", str(path), "--format", "json"],
        ["check", str(path)],
        ["family", "nil3_r", "--t=1/2"],
        ["family", "nil3_r", "--t", "-3/7"],
        ["family", "nil3_r", "--theta-pi"],
        ["family", "nil3_r"],
        ["catalog", "list"],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(bornlab.__file__).parents[1]))
    codes = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        codes.append(code)
        out, err = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "bornlab.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
            check=False,
        )
        assert code == fresh.returncode, argv
        assert _without_elapsed(argv, out) == _without_elapsed(argv, fresh.stdout), argv
        assert err == fresh.stderr, argv
    assert codes == [1, 1, 0, 0, 0, 2, 0]


# --- values beyond the interpreter's int-to-str digit limit ---------------

# each literal is under the digit limit (4300 digits), but products of two are over it
HUGE, HUGE_JACOBI, HUGE_T = "7" * 3000, "7" * 2500, "7" * 2200


def _digit_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


def _square_text(literal):
    """-(literal)^2 as decimal text, by decimal arithmetic alone."""
    with decimal.localcontext() as ctx:
        ctx.prec = 3 * len(literal)
        return str(-(decimal.Decimal(literal) ** 2))


def _huge_witness_model(c=HUGE):
    """[e1,e2] = c e1 and omega = c e^13 + e^24, F = <e1,e2>, G = <e3,e4>:
    d omega(e1,e2,e3) = -c^2, of 6001 digits for c = HUGE."""
    omega = [["0"] * 4 for _ in range(4)]
    omega[0][2], omega[2][0], omega[1][3], omega[3][1] = c, "-" + c, "1", "-1"
    return json.dumps({
        "name": "huge", "dim": 4,
        "brackets": [{"i": 1, "j": 2, "out": {"1": c}}],
        "forms": {"omega": omega},
        "subspaces": {"F": [["1", "0", "0", "0"], ["0", "1", "0", "0"]], "G": [["0", "0", "1", "0"], ["0", "0", "0", "1"]]},
        "structures": [{"type": "kunneth", "omega": "omega", "plus": "F", "minus": "G"}],
    })


def test_values_beyond_the_digit_limit_are_printed_exactly(tmp_path, capsys):
    """A witness, an error message and the family header print integers of
    any size in full, and the interpreter's digit limit is left as it was."""
    limit = _digit_limit()
    path = tmp_path / "huge.json"
    path.write_text(_huge_witness_model())
    row = f"  integrability        FAIL  witness (1,2,3) = {_square_text(HUGE)}  [d omega]"
    assert main(["check", str(path)]) == 1
    assert row in capsys.readouterr().out.splitlines() and len(row) == 6059
    assert main(["check", str(path), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert next(r for r in doc["results"] if r["check"] == "integrability")["witness"]["value"] == _square_text(HUGE)

    path = tmp_path / "jacobi.json"
    path.write_text(json.dumps({
        "name": "jacobi", "dim": 3,
        "brackets": [{"i": 1, "j": 2, "out": {"3": HUGE_JACOBI}}, {"i": 2, "j": 3, "out": {"2": HUGE_JACOBI}}],
    }))
    assert main(["check", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: Jacobi identity fails at (i,j,k,l)=(1, 2, 3, 3): defect {_square_text(HUGE_JACOBI)}\n"

    assert main(["family", "nil3_r", f"--t={HUGE_T}"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    point = CirclePoint.from_t(HUGE_T)
    label, _, values = header.partition(" (")
    assert label == f"family member of nil3_r at t={HUGE_T}"
    for text, value in zip(values.rstrip(")").split(", "), (point.cos, point.sin)):
        name, _, literal = text.partition(" = ")
        p, q = literal.split("/")
        assert (decimal.Decimal(p), decimal.Decimal(q)) == (value.numerator, value.denominator), name
    assert _digit_limit() == limit


# a literal over both the default digit limit and the least one an interpreter accepts
OVER_LIMIT, LEAST_LIMIT = "7" * 4400, 640


@pytest.mark.skipif(_digit_limit() is None, reason="the interpreter has no int-from-text digit limit")
def test_literals_read_alike_under_any_digit_limit(tmp_path, capsys):
    """A 4400-digit literal in a form, in a bracket output and as `family --t=`
    gives the same runs under a 640-digit limit as under none, and the limit
    is restored afterwards."""
    limit = _digit_limit()
    path = tmp_path / "over.json"
    path.write_text(_huge_witness_model(OVER_LIMIT))
    runs = {}
    try:
        for digits in (LEAST_LIMIT, 0):
            sys.set_int_max_str_digits(digits)
            for argv in (["check", str(path)], ["family", "nil3_r", f"--t={OVER_LIMIT}"]):
                runs.setdefault(digits, []).append((main(argv), *capsys.readouterr()))
    finally:
        sys.set_int_max_str_digits(limit)
    assert runs[LEAST_LIMIT] == runs[0]
    (check_code, check_out, check_err), (family_code, family_out, family_err) = runs[0]
    assert (check_code, check_err, family_code, family_err) == (1, "", 0, "")
    row = f"  integrability        FAIL  witness (1,2,3) = {_square_text(OVER_LIMIT)}  [d omega]"
    assert row in check_out.splitlines()
    assert family_out.startswith(f"family member of nil3_r at t={OVER_LIMIT} (cos = ")


def test_literals_over_the_digit_bound_are_syntax_errors(tmp_path, capsys):
    """An integer of more than MAX_LITERAL_DIGITS digits in a form, a bracket
    output, a bracket-output key, a subspace vector or `family --t=` is an
    input error: exit 2 with one `error:` line of our own, under any
    int-from-text digit limit of the interpreter."""
    over = "7" * (MAX_LITERAL_DIGITS + 1)
    bound = f"an integer of {MAX_LITERAL_DIGITS + 1} digits is above the bound of {MAX_LITERAL_DIGITS} digits"
    doc = json.loads(_huge_witness_model("1"))
    docs = []
    for edit in (
        lambda d: d["forms"]["omega"][0].__setitem__(2, over),
        lambda d: d["brackets"][0]["out"].__setitem__("1", over),
        lambda d: d["brackets"][0].__setitem__("out", {over: "1"}),
        lambda d: d["subspaces"]["F"][0].__setitem__(0, over),
    ):
        edited = json.loads(json.dumps(doc))
        edit(edited)
        docs.append(edited)
    for k, edited in enumerate(docs):
        path = tmp_path / f"over{k}.json"
        path.write_text(json.dumps(edited))
        assert main(["check", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.endswith(bound + "\n") and len(err.splitlines()) == 1
    assert main(["family", "nil3_r", f"--t={over}"]) == 2
    assert capsys.readouterr() == ("", f"error: {bound}\n")


FIVE_THOUSAND = "7" * 5000
# how a message quotes it as a model value: its first 60 digits and its length
FIVE_THOUSAND_SHOWN = "7" * 60 + "... (5000 characters)"
# a model with a JSON integer over the default digit limit -> its error line;
# the integer is read exactly and printed the same under any digit limit, in
# full where it is an index or a dimension
JSON_INTEGERS = {
    "dim": (f'{{"name": "x", "dim": {FIVE_THOUSAND}}}', f"'dim' {FIVE_THOUSAND} is above the bound 32"),
    "bracket_j": (
        f'{{"name": "x", "dim": 3, "brackets": [{{"i": 1, "j": {FIVE_THOUSAND}, "out": {{"3": "1"}}}}]}}',
        f"bracket pair (1,{FIVE_THOUSAND}) out of range for dim 3",
    ),
    "dim_over_the_bound": (
        f'{{"name": "x", "dim": {"1" * (MAX_LITERAL_DIGITS + 1)}}}',
        f"an integer of {MAX_LITERAL_DIGITS + 1} digits is above the bound of {MAX_LITERAL_DIGITS} digits",
    ),
    "bracket_twice": (
        f'{{"name": "x", "dim": 3, "brackets": [{{"i": {FIVE_THOUSAND}, "j": 2, "out": {{}}}},'
        f' {{"i": {FIVE_THOUSAND}, "j": 2, "out": {{}}}}]}}',
        f"bracket ({FIVE_THOUSAND},2) is given twice",
    ),
    "bracket_output": (
        f'{{"name": "x", "dim": 3, "brackets": [{{"i": {FIVE_THOUSAND}, "j": 2, "out": {{"x": "1"}}}}]}}',
        f"bracket output of ({FIVE_THOUSAND},2): indices must be plain integers, each given once: ['x']",
    ),
    "form_entry": (
        f'{{"name": "x", "dim": 1, "forms": {{"w": [[{FIVE_THOUSAND}]]}}}}',
        f"forms.w: not a rational literal: {FIVE_THOUSAND_SHOWN}",
    ),
    "structure_type": (
        f'{{"name": "x", "dim": 3, "structures": [{{"type": {FIVE_THOUSAND}}}]}}',
        f"unknown structure type {FIVE_THOUSAND_SHOWN}",
    ),
    "check_name": (f'{{"name": "x", "dim": 3, "checks": [{FIVE_THOUSAND}]}}', f"unknown check {FIVE_THOUSAND_SHOWN}"),
}


@pytest.mark.skipif(_digit_limit() is None, reason="the interpreter has no int-from-text digit limit")
@pytest.mark.parametrize("text, message", list(JSON_INTEGERS.values()), ids=list(JSON_INTEGERS))
def test_json_integers_past_the_digit_limit_are_syntax_errors(tmp_path, capsys, text, message):
    """A JSON integer over the interpreter's digit limit (a 5000-digit dim or
    bracket index, or an integer where a name or a literal belongs) exits 2
    with one `error:` line printing it exactly, the same under a 640-digit
    limit as under none; one of more than MAX_LITERAL_DIGITS digits is
    refused as a literal's integer is."""
    limit = _digit_limit()
    path = tmp_path / "integer.json"
    path.write_text(text)
    runs = []
    try:
        for digits in (LEAST_LIMIT, 0):
            sys.set_int_max_str_digits(digits)
            runs.append((main(["check", str(path)]), *capsys.readouterr()))
    finally:
        sys.set_int_max_str_digits(limit)
    assert runs == [(2, "", f"error: {message}\n")] * 2


def test_non_ascii_digits_are_not_literals(tmp_path, capsys):
    """A literal's digits are ASCII: an Arabic-Indic one is an error, exit 2, in a model and as --t."""
    doc = json.loads(FIXTURE_KUNNETH_ONLY)
    doc["brackets"][0]["out"]["3"] = "١"
    path = tmp_path / "arabic.json"
    path.write_text(json.dumps(doc))
    for argv in (["check", str(path)], ["family", "nil3_r", "--t=١"]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1
