"""CLI text against the recorded golden oracle, byte for byte.

perfbench/golden.json holds the exit code and stdout of `check` and
`catalog show` for every catalog entry with a model, and of `family nil3_r
--t 1/2`.  The file is only read here; a kernel or builder change must leave
every report exactly as recorded.
"""

import json
from pathlib import Path

import pytest

from bornlab import catalog
from bornlab.cli import main

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text(encoding="utf-8")
)


def run(argv, capsys):
    code = main(argv)
    return {"code": code, "text": capsys.readouterr().out}


@pytest.mark.parametrize("name", list(GOLDEN["entries"]))
def test_check_and_show_match_golden(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(catalog.export_entry(name), encoding="utf-8")
    assert run(["check", str(path)], capsys) == GOLDEN["entries"][name]["check"]
    assert run(["catalog", "show", name], capsys) == GOLDEN["entries"][name]["show"]


def test_family_matches_golden(capsys):
    assert run(["family", "nil3_r", "--t", "1/2"], capsys) == GOLDEN["family"]
