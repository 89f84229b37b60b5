"""Catalog entries: self-validation, expectations and export round-trips."""

import pytest

from bornlab import catalog, parse_model, render_model
from bornlab.errors import DegenerateFormError, NotExportableError, UnknownEntryError
from bornlab.liealg import ce_d2


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
