"""Catalog entries: self-validation, expectations and export round-trips."""

import json
from importlib.resources import files

import pytest

from bornlab import CirclePoint, catalog, parse_model
from bornlab import model as model_module
from bornlab.cli import main
from bornlab.errors import DegenerateFormError, NotClosedError, UnknownEntryError
from bornlab.liealg import ce_d2
from bornlab.model import Model
from bornlab.multilinear import two_form
from oracles import model_text


def _nil3_r_with(forms=None, expectations=None):
    """The nil3_r entry with some of its forms or its expectations replaced."""
    entry = catalog.get_entry("nil3_r")
    m = entry.model
    model = Model(m.name, m.algebra, {**m.forms, **(forms or {})}, m.metrics, m.endos, m.subspaces, m.structures)
    if expectations is None:
        expectations = entry.expectations
    return catalog.CatalogEntry(entry.name, entry.summary, model, expectations, entry.provenance)


def _fresh_entry(name):
    """A catalog entry over a new parse of its text: no report or outcome is kept on it yet."""
    entry = catalog.get_entry(name)
    model = parse_model(catalog.export_entry(name))
    return catalog.CatalogEntry(entry.name, entry.summary, model, entry.expectations, entry.provenance)


def test_list_contains_expected_entries():
    names = [name for name, _ in catalog.list_entries()]
    assert "abelian_c1" in names
    for required in ("nil3_r", "h4", "h8", "h9_corrected"):
        assert required in names
    assert "nil3_r_nonintegrable_fixture" in names


def test_list_order_is_deterministic():
    assert [n for n, _ in catalog.list_entries()] == [n for n, _ in catalog.list_entries()]


def test_get_entry_materializes():
    entry = catalog.get_entry("abelian_c1")
    assert entry.model.algebra.n == 2
    torus = catalog.get_entry("torus_2_2")
    assert torus.model.algebra.n == 4 and not torus.model.algebra.brackets


def test_get_entry_unknown():
    for name in ("bogus", "../entries/h4", "entries/h4", "h4.json"):
        with pytest.raises(UnknownEntryError):
            catalog.get_entry(name)


def test_an_entry_without_its_document_is_an_error_line(monkeypatch, tmp_path, capsys):
    """An install that lost a document exits 2 with one error line, not a traceback."""
    monkeypatch.setattr(catalog, "__file__", str(tmp_path / "catalog.py"))
    monkeypatch.setattr(catalog, "get_entry", catalog.get_entry.__wrapped__)
    assert main(["catalog", "show", "h4"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: catalog entry h4 has no model document: ") and len(err.splitlines()) == 1


def test_every_entry_is_one_packaged_document_named_as_the_entry():
    names = [name for name, _ in catalog.list_entries()]
    documents = {p.name: p for p in (files("bornlab") / "entries").iterdir() if p.name.endswith(".json")}
    assert sorted(documents) == sorted(f"{name}.json" for name in names)
    for name in names:
        assert json.loads(documents[f"{name}.json"].read_text(encoding="utf-8"))["name"] == name


def test_catalog_list_reads_the_table_alone(monkeypatch, capsys):
    def unreachable(name):
        raise AssertionError(f"catalog list parsed {name}")

    monkeypatch.setattr(catalog, "get_entry", unreachable)
    assert main(["catalog", "list"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in rows] == [name for name, _ in catalog.list_entries()]
    assert len(rows) == 10


def test_an_entry_shares_the_parse_of_its_checked_text():
    """`check` of an exported entry and the entry itself hold one Model object
    while the entry's text is among the last PARSED_DOCUMENTS that `parsed`
    keeps.  An entry read before other documents evicted its text holds the
    Model of that earlier parse, so the entries are read anew here."""
    catalog.get_entry.cache_clear()
    for name, _ in catalog.list_entries():
        assert catalog.get_entry(name).model is model_module.parsed(catalog.export_entry(name)), name


def test_every_entry_passes_its_expectations(catalog_models):
    for name, _ in catalog.list_entries():
        entry = catalog.get_entry(name)
        outcomes = catalog.verify_entry(entry)
        bad = [
            (o.expectation.kind, o.expectation.target, o.expectation.expected, o.actual)
            for o in outcomes
            if not o.ok
        ]
        assert not bad, f"{name}: {bad}"


def test_family_point_programming_error_propagates(monkeypatch):
    def broken(hs, jtilde, point):
        raise TypeError("bug in the family builder")

    monkeypatch.setattr(catalog, "s1_family", broken)
    with pytest.raises(TypeError, match="bug in the family builder"):
        catalog.verify_entry(_fresh_entry("nil3_r"))


def test_family_point_bornlab_error_is_a_fail(monkeypatch):
    def degenerate(hs, jtilde, point):
        raise DegenerateFormError("degenerate at this point")

    monkeypatch.setattr(catalog, "s1_family", degenerate)
    outcomes = catalog.verify_entry(_fresh_entry("nil3_r"))
    family = [o for o in outcomes if o.expectation.kind == "family_point"]
    assert family and all(o.actual == "fail" for o in family)


def test_verify_entry_looks_the_family_up_once(monkeypatch):
    """One materialize for the checks and one for the circle family, not one per family point."""
    calls = []
    true_materialize = model_module.materialize

    def counting(m):
        calls.append(m.name)
        return true_materialize(m)

    for module in (model_module, catalog):
        monkeypatch.setattr(module, "materialize", counting)
    entry = _fresh_entry("nil3_r")
    outcomes = catalog.verify_entry(entry)
    assert sum(o.expectation.kind == "family_point" for o in outcomes) == 7
    assert all(o.ok for o in outcomes)
    assert calls == ["nil3_r", "nil3_r"]
    # the outcomes are kept on the entry, as a tuple no caller can change
    assert catalog.verify_entry(entry) is outcomes and isinstance(outcomes, tuple)
    assert len(calls) == 2


def test_catalog_show_again_repeats_no_family_point(monkeypatch, capsys):
    """`catalog show nil3_r` builds its 7 family points on the first call
    only, and prints the same bytes both times."""
    entry, points, original = _fresh_entry("nil3_r"), [], catalog.s1_family

    def counting(hs, jtilde, point):
        points.append(point)
        return original(hs, jtilde, point)

    monkeypatch.setattr(catalog, "get_entry", lambda name: entry)
    monkeypatch.setattr(catalog, "s1_family", counting)
    outputs = []
    for _ in range(2):
        assert main(["catalog", "show", "nil3_r"]) == 0
        outputs.append(capsys.readouterr().out)
        assert len(points) == len(set(points)) == 7
    assert outputs[0] == outputs[1]
    assert outputs[0].count("  family_point:") == 7


def test_verify_entry_fails_each_family_point_of_a_structure_that_does_not_build():
    broken = _nil3_r_with(forms={"beta": two_form(4, {(1, 2): 1, (4, 3): 1})})
    family = [o.actual for o in catalog.verify_entry(broken) if o.expectation.kind == "family_point"]
    assert family == ["fail"] * 7


def test_family_point_that_is_no_rational_literal_is_a_fail():
    """One grammar for every rational: a family point is "t=" and a "p/q" literal, or "theta=pi"."""
    targets = ("t=0.5", "t=1/0", "t=abc", "t= 1/2", "t=1e3", "t=1/2", "theta=pi")
    entry = _nil3_r_with(expectations=tuple(catalog.Expectation("family_point", t, "pass") for t in targets))
    actual = {o.expectation.target: o.actual for o in catalog.verify_entry(entry)}
    assert actual == dict.fromkeys(targets[:-2], "fail") | {"t=1/2": "pass", "theta=pi": "pass"}


def test_family_member_raises_the_error_of_a_structure_that_does_not_build(monkeypatch, capsys):
    # a12 + a43 is nondegenerate but not closed on [e1,e2] = e3
    broken = _nil3_r_with(forms={"beta": two_form(4, {(1, 2): 1, (4, 3): 1})})
    with pytest.raises(NotClosedError, match=r"^dbeta\(1, 2, 4\) = "):
        catalog.family_member(broken, CirclePoint.from_t(0))
    monkeypatch.setattr(catalog, "get_entry", lambda name: broken)
    assert main(["family", "nil3_r", "--t", "1/2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: dbeta") and len(err.splitlines()) == 1


@pytest.mark.parametrize("name", [name for name, _ in catalog.list_entries()])
def test_export_round_trip(name):
    text = catalog.export_entry(name)
    assert text == (files("bornlab") / "entries" / f"{name}.json").read_text(encoding="utf-8")
    model = parse_model(text)
    entry = catalog.get_entry(name)
    assert model == entry.model
    assert parse_model(model_text(model)) == model  # the tests' writer: a second parse gives equal values


def test_export_unknown_entry():
    with pytest.raises(UnknownEntryError):
        catalog.export_entry("bogus")


def test_every_entry_has_a_model_and_expectations():
    for name, _ in catalog.list_entries():
        entry = catalog.get_entry(name)
        assert entry.model is not None and entry.expectations, name


def test_h9_printed_omega_fails_closedness():
    entry = catalog.get_entry("h9_corrected")
    printed = entry.model.forms["omega_printed"]
    d = ce_d2(entry.model.algebra, printed)
    assert d.first_witness() == ((1, 2, 4), 8)
    assert ce_d2(entry.model.algebra, entry.model.forms["omega"]).is_zero()


def test_provenance_records_corrections():
    assert "Je4" in catalog.get_entry("nil3_r").provenance
    assert "omega_printed" in catalog.get_entry("h9_corrected").provenance
