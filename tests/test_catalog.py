"""Catalog entries: self-validation, expectations and export round-trips."""

import pytest

from bornlab import CirclePoint, catalog, parse_model, render_model
from bornlab.cli import main
from bornlab.errors import DegenerateFormError, NotClosedError, NotExportableError, UnknownEntryError
from bornlab.liealg import ce_d2
from bornlab.model import Model
from bornlab.multilinear import two_form


def _nil3_r_with(forms=None, expectations=None):
    """The nil3_r entry with some of its forms or its expectations replaced."""
    entry = catalog.get_entry("nil3_r")
    m = entry.model
    model = Model(m.name, m.algebra, {**m.forms, **(forms or {})}, m.metrics, m.endos, m.subspaces, m.structures)
    if expectations is None:
        expectations = entry.expectations
    return catalog.CatalogEntry(entry.name, entry.summary, model, expectations, entry.provenance)


def test_list_contains_expected_entries():
    names = [name for name, _ in catalog.list_entries()]
    assert "abelian_c1" in names
    for required in ("nil3_r", "h4", "h8", "h9_corrected"):
        assert required in names
    assert "nil3_r_nonintegrable_fixture" in names
    assert "h15_note" in names


def test_list_order_is_deterministic():
    assert [n for n, _ in catalog.list_entries()] == [n for n, _ in catalog.list_entries()]


def test_get_entry_materializes():
    entry = catalog.get_entry("abelian_c1")
    assert entry.model.algebra.n == 2
    torus = catalog.get_entry("torus_2_2")
    assert torus.model.algebra.n == 4 and torus.model.algebra.is_abelian()


def test_get_entry_unknown():
    with pytest.raises(UnknownEntryError):
        catalog.get_entry("bogus")


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
    def broken(entry, point):
        raise TypeError("bug in the family builder")

    monkeypatch.setattr(catalog, "family_member", broken)
    with pytest.raises(TypeError, match="bug in the family builder"):
        catalog.verify_entry(catalog.get_entry("nil3_r"))


def test_family_point_bornlab_error_is_a_fail(monkeypatch):
    def degenerate(entry, point):
        raise DegenerateFormError("degenerate at this point")

    monkeypatch.setattr(catalog, "family_member", degenerate)
    outcomes = catalog.verify_entry(catalog.get_entry("nil3_r"))
    family = [o for o in outcomes if o.expectation.kind == "family_point"]
    assert family and all(o.actual == "fail" for o in family)


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


@pytest.mark.parametrize("name", ["h4", "nil3_r", "h9_corrected", "abelian_c2"])
def test_export_round_trip(name):
    text = catalog.export_entry(name)
    model = parse_model(text)
    entry = catalog.get_entry(name)
    assert model == entry.model
    assert render_model(model) == text  # byte-identical re-render


def test_export_note_entry_fails():
    with pytest.raises(NotExportableError):
        catalog.export_entry("h15_note")


def test_export_unknown_entry():
    with pytest.raises(UnknownEntryError):
        catalog.export_entry("bogus")


def test_h15_note_is_a_stub():
    entry = catalog.get_entry("h15_note")
    assert entry.model is None
    assert entry.expectations == ()
    assert "no" in entry.summary


def test_h9_printed_omega_fails_closedness():
    entry = catalog.get_entry("h9_corrected")
    printed = entry.model.forms["omega_printed"]
    d = ce_d2(entry.model.algebra, printed)
    assert d.first_witness() == ((1, 2, 4), 8)
    assert ce_d2(entry.model.algebra, entry.model.forms["omega"]).is_zero()


def test_provenance_records_corrections():
    assert "Je4" in catalog.get_entry("nil3_r").provenance
    assert "omega_printed" in catalog.get_entry("h9_corrected").provenance
