"""What a value keeps never holds the value: reference counting frees a Model, and all computed from it, at once.

`exact.owned` keeps each result in the `_memo` of the value it was computed
from.  Neither a result nor its key references that value, so what a value
keeps is acyclic: a Model that the parse memo evicts, a circle-family member
that is dropped, and every structure, connection and outcome kept on them
are freed the moment the last reference goes, with no cycle collection.
"""

import gc
import json
from fractions import Fraction

import pytest

from bornlab import CirclePoint, catalog
from bornlab.errors import BornlabError, DegenerateFormError
from bornlab.exact import Value
from bornlab.model import PARSED_DOCUMENTS, materialize, parse_model, parsed, run_checks
from bornlab.structures import integrability_report

PASSING = ("abelian_c1", "abelian_c2", "torus_2_2", "nil3_r", "h4", "h8", "h9_corrected")


def _document(entry: str, name: str, **metrics) -> str:
    """The text of a catalog entry's document under another name, with some metrics replaced."""
    doc = json.loads(catalog.export_entry(entry))
    doc["name"] = name
    doc["metrics"].update(metrics)
    return json.dumps(doc)


def _check_and_drop(texts, points):
    """Check each text through the parse memo and build each family point on nil3_r, keeping nothing."""
    overall = [run_checks(parsed(text)).overall for text in texts]
    nil3_r = catalog.get_entry("nil3_r")
    integrable = [integrability_report(catalog.family_member(nil3_r, p)) is None for p in points]
    return overall, integrable


def test_evicted_models_and_family_points_leave_no_cyclic_garbage():
    """PARSED_DOCUMENTS + 4 distinct documents, evicted first the one whose h
    is degenerate (its construction error is kept) and the one that fails
    integrability, then 20 circle-family points, all with the cycle
    collector off: a collection then finds no Value and no BornlabError
    unreachable, as reference counting freed them all."""
    texts = [
        _document("abelian_c1", "degenerate h", h=[["1", "0"], ["0", "0"]]),
        _document("nil3_r_nonintegrable_fixture", "not integrable"),
    ]
    texts += [_document(PASSING[i % len(PASSING)], f"passing {i}") for i in range(PARSED_DOCUMENTS + 2)]
    points = [CirclePoint.from_t(Fraction(t, 7)) for t in range(20)]
    gc.collect()
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    try:
        overall, integrable = _check_and_drop(texts, points)
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        gc.collect()
        kept = [type(o).__name__ for o in gc.garbage if isinstance(o, (Value, BornlabError))]
    finally:
        gc.garbage.clear()
        gc.set_debug(flags)
        if enabled:
            gc.enable()
    assert overall == ["fail", "fail"] + ["pass"] * (PARSED_DOCUMENTS + 2)
    assert integrable == [True] * 20
    assert kept == []


def test_a_kept_construction_error_holds_no_frame_and_is_raised_as_a_copy():
    """materialize keeps a construction error with no traceback and no
    context, and the catalog raises a copy of it, so the kept one gains no
    frames that would reach its Model."""
    model = parse_model(_document("nil3_r", "degenerate h", h_t0=[["1", "0", "0", "0"]] + [["0"] * 4] * 3))
    (error,) = [obj for _, _, obj in materialize(model) if isinstance(obj, BornlabError)]
    assert isinstance(error, DegenerateFormError) and str(error) == "h is degenerate"
    assert error.__traceback__ is None and error.__context__ is None
    entry = catalog.get_entry("nil3_r")
    model = parse_model(_document("nil3_r", "no metric", gH=[["0"] * 4] * 4))
    broken = catalog.CatalogEntry(entry.name, entry.summary, model, entry.expectations, entry.provenance)
    with pytest.raises(BornlabError) as raised:
        catalog.family_member(broken, CirclePoint.from_t(0))
    (kept,) = [obj for kind, _, obj in materialize(model) if kind == "hypersymplectic"]
    assert raised.value is not kept and type(raised.value) is type(kept) and str(raised.value) == str(kept)
    assert kept.__traceback__ is None and raised.value.hit == kept.hit
