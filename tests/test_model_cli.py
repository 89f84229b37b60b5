"""Model parsing, check orchestration, report rendering and the CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bornlab
from bornlab import catalog, parse_model, render_model, render_report, run_checks
from bornlab.cli import main
from bornlab.errors import (
    DimensionMismatchError,
    JacobiViolationError,
    ModelSyntaxError,
    UnknownNameError,
)

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


def test_parse_rejects_jacobi_violation():
    text = """
    {"name": "bad", "dim": 4,
     "brackets": [{"i": 1, "j": 2, "out": {"3": "1"}}, {"i": 3, "j": 4, "out": {"1": "1"}}]}
    """
    with pytest.raises(JacobiViolationError) as info:
        parse_model(text)
    assert len(info.value.witness) == 4


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
        assert set(r) == {"check", "status", "witness", "elapsed_ms"}
    # deterministic modulo timing
    second = json.loads(render_report(run_checks(parse_model(model_text)), "json"))
    for a, b in zip(doc["results"], second["results"]):
        a.pop("elapsed_ms")
        b.pop("elapsed_ms")
    assert doc == second


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
    assert "error" in capsys.readouterr().err


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


def test_cli_check_missing_file_exit_2(tmp_path, capsys):
    assert main(["check", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()


def test_cli_check_subset(tmp_path, capsys):
    path = tmp_path / "h4.json"
    path.write_text(catalog.export_entry("h4"))
    assert main(["check", str(path), "--checks", "signatures,omega_k"]) == 0
    out = capsys.readouterr().out
    assert "signatures" in out and "born_axioms" not in out


def test_cli_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "nil3_r" in out and "h15_note" in out


def test_cli_catalog_show(capsys):
    assert main(["catalog", "show", "h9_corrected"]) == 0
    out = capsys.readouterr().out
    assert "expectations:" in out and "MISMATCH" not in out


def test_cli_catalog_show_unknown(capsys):
    assert main(["catalog", "show", "bogus"]) == 2
    capsys.readouterr()


def test_cli_catalog_export_round_trip(capsys):
    assert main(["catalog", "export", "nil3_r"]) == 0
    out = capsys.readouterr().out
    assert parse_model(out) == catalog.get_entry("nil3_r").model


def test_cli_catalog_export_stub_fails(capsys):
    assert main(["catalog", "export", "h15_note"]) == 2
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
