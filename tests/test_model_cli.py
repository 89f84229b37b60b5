"""Model parsing, check orchestration, report rendering and the CLI."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import bornlab
from bornlab import (
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
from bornlab import model as model_module
from bornlab.connections import Connection
from bornlab.cli import main
from bornlab.errors import (
    BornlabError,
    DimensionMismatchError,
    JacobiViolationError,
    ModelSyntaxError,
    UnknownNameError,
)
from bornlab.multilinear import ANTISYMMETRIC, SYMMETRIC, Endomorphism, two_form
from bornlab.structures import Witness
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
]


@pytest.mark.parametrize("value, shown", BAD_ENTRIES)
@pytest.mark.parametrize("path", [("forms", "w", 0, 1), ("subspaces", "F", 1, 3)])
def test_parse_bad_entry_message(path, value, shown):
    with pytest.raises(ModelSyntaxError) as info:
        parse_model(_patched(path, value))
    assert str(info.value) == f"{path[0]}.{path[1]}: not a rational literal: {shown}"


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


def test_repeated_check_is_memoized(monkeypatch):
    """A structure checked again in the same process reuses its check outcomes."""
    original, calls = model_module.omega_K_defect, []

    def counting(k):
        calls.append(k)
        return original(k)

    monkeypatch.setattr(model_module, "omega_K_defect", counting)
    # the fixture form scaled by 7919/13, which no other test uses: a structure
    # this process has not checked yet
    rows = json.loads(FIXTURE_KUNNETH_ONLY)["forms"]["w"]
    text = _patched(("forms", "w"), [[f"{int(v) * 7919}/13" for v in row] for row in rows])
    first = run_checks(parse_model(text))
    second = run_checks(parse_model(text))
    assert len(calls) == 1
    assert render_report(first) == render_report(second)


def _moved_model(model, seed):
    """The model in the seeded unimodular basis f_a = P e_a."""
    p = random_unimodular(model.algebra.n, random.Random(f"{model.name}-cache-{seed}"))
    p_inv = invert(p)
    return model_module.Model(
        name=f"{model.name}~{seed}",
        algebra=moved_algebra(model.algebra, p),
        forms={k: moved_form(f, p, ANTISYMMETRIC) for k, f in model.forms.items()},
        metrics={k: moved_form(f, p, SYMMETRIC) for k, f in model.metrics.items()},
        endos={k: Endomorphism(p_inv * e.matrix * p) for k, e in model.endos.items()},
        subspaces={k: moved_subspace(s, p_inv) for k, s in model.subspaces.items()},
        structures=model.structures,
        checks=model.checks,
    )


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
    name, decl = DECLARED[kind]
    ((parsed, built),) = model_module.materialize(parse_model(_declaring(name, [decl])))
    assert parsed.label() == label
    assert not isinstance(built, BornlabError)


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


@pytest.fixture
def cold_outcomes():
    """An empty outcome memo, emptied again afterwards: rows computed under a patched builder must not leak."""
    model_module._outcome.cache_clear()
    yield
    model_module._outcome.cache_clear()


def test_kunneth_connection_rows_carry_real_witnesses(monkeypatch, cold_outcomes, nil3):
    """Each failing branch of the Kunneth connections row, forced by a patched builder, shows its witness."""
    e = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    # closed e14 + e23 with abelian span(e1, e3) and span(e2, e4): integrable
    integrable = build_almost_kunneth(
        nil3, two_form(4, {(1, 4): 1, (2, 3): 1}), Subspace(4, [e[0], e[2]]), Subspace(4, [e[1], e[3]])
    )
    # e12 + e43 is not closed, d omega(1,2,4) = 1
    fixture = build_almost_kunneth(
        nil3, two_form(4, {(1, 2): 1, (4, 3): 1}), Subspace(4, [e[0], e[3]]), Subspace(4, [e[1], e[2]])
    )

    def row(k):
        model_module._outcome.cache_clear()
        return model_module._outcome("connections", "kunneth", k)

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
    true_canonical = model_module._canonical_of
    monkeypatch.setattr(model_module, "_canonical_of", lambda k: bumped(true_canonical(k), 1, 3, 2, 5))
    assert row(integrable) == Witness((1, 3, 2), "5", equal)


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


def test_cli_family_takes_a_negative_rational_after_a_space(capsys):
    """`--t -3/7` is the parameter -3/7, as `--t=-3/7` is, not an unknown flag."""
    outputs = []
    for argv in (["--t", "-3/7"], ["--t=-3/7"]):
        assert main(["family", "nil3_r", *argv]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("family member of nil3_r at t=-3/7 (cos = 20/29, sin = -21/29)")


@pytest.mark.parametrize("value", ["x", "-x", "-3/0", "--3/7", "-3 /7"])
def test_cli_family_rejects_a_non_rational_parameter(value, capsys):
    try:
        code = main(["family", "nil3_r", "--t", value])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error:" in err


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
