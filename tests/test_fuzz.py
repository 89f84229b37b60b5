"""Seeded mutation fuzzing of the CLI: every input ends in a report or a typed error.

Exported catalog models are mutated (entries, brackets, references, types and
literals) and run through `bornlab check` in process, as text and as JSON.
Each run must exit 0 or 1 with a report whose every FAIL row carries a
witness, or exit 2 with one `error:` line; an uncaught exception fails.
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from bornlab import catalog
from bornlab.cli import main

# small entries, so a run stays well inside the tier-1 budget
SOURCES = ("abelian_c1", "abelian_c2", "torus_2_2", "nil3_r", "nil3_r_nonintegrable_fixture")
VALUES = ("0", "1", "-1", "2", "1/2", "-3/2")
LITERALS = ("1/0", "x", "", "1.5", 1, None, [], {})
# mutation kinds, weighted toward changes that still parse, so most runs reach the checks
# the corpus whose text runs tests/golden_fuzz.json records (tests/record_golden_fuzz.py)
GOLDEN_SEED, GOLDEN_COUNT = 2024, 300
GOLDEN = Path(__file__).resolve().parent / "golden_fuzz.json"
KINDS = ("entry",) * 6 + ("scale",) * 3 + ("drop optional role",) * 3 + (
    "asymmetric entry", "bracket", "subspace", "re-point role", "literal", "structure", "drop row",
)


def _matrices(doc):
    """(section, name, rows) for every matrix in a model document."""
    return [(sec, name, rows) for sec in ("forms", "metrics", "endos") for name, rows in doc.get(sec, {}).items()]


def _negated(value: str) -> str:
    return value[1:] if value.startswith("-") else value if value == "0" else "-" + value


def _mutate_once(doc, rng):
    """Apply one random change to a model document in place."""
    kind = rng.choice(KINDS)
    sec, _, rows = rng.choice(_matrices(doc))
    i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
    roles = [(decl, role) for decl in doc["structures"] for role in decl if role != "type"]
    if kind in ("entry", "asymmetric entry"):
        value = rng.choice(VALUES)
        rows[i][j] = value
        if kind == "entry" and sec != "endos":
            rows[j][i] = value if sec == "metrics" else _negated(value)
    elif kind == "scale":
        factor = rng.choice((2, -1, 3))
        integral = lambda v: isinstance(v, str) and v.lstrip("-").isdigit()
        rows[:] = [[str(int(v) * factor) if integral(v) else v for v in r] for r in rows]
    elif kind == "bracket" and doc["brackets"]:
        rng.choice(doc["brackets"])["out"][str(rng.randint(1, doc["dim"]))] = rng.choice(VALUES)
    elif kind == "bracket":
        doc["brackets"].append({"i": 1, "j": doc["dim"], "out": {"1": "1"}})
    elif kind == "subspace" and doc["subspaces"]:
        vector = rng.choice(rng.choice(list(doc["subspaces"].values())))
        vector[rng.randrange(len(vector))] = rng.choice(VALUES)
    elif kind == "drop optional role":
        optional = [(decl, role) for decl, role in roles if role in ("A", "B", "J", "metric")]
        if optional:
            decl, role = rng.choice(optional)
            del decl[role]
    elif kind == "re-point role" and roles:
        decl, role = rng.choice(roles)
        names = [name for _, name, _ in _matrices(doc)] + list(doc["subspaces"]) + ["missing"]
        decl[role] = rng.choice(names)
    elif kind == "literal":
        rows[i][j] = rng.choice(LITERALS)
    elif kind == "structure" and roles:
        decl, role = rng.choice(roles)
        if rng.random() < 0.5:
            del decl[role]
        else:
            decl["type"] = rng.choice(("born", "kunneth", "hypersymplectic", "bogus"))
    elif kind == "drop row":
        rows.pop()


def mutated_models(seed: int, count: int):
    """count seeded mutations of the exported SOURCES as JSON text.

    Each model takes one to three changes; one in twenty then also loses or
    retypes a top-level field.
    """
    rng = random.Random(seed)
    exported = {name: json.loads(catalog.export_entry(name)) for name in SOURCES}
    out = []
    for _ in range(count):
        doc = json.loads(json.dumps(exported[rng.choice(SOURCES)]))
        for _ in range(rng.randint(1, 3)):
            _mutate_once(doc, rng)
        if rng.random() < 0.05:
            key = rng.choice(("name", "dim", "brackets", "forms", "subspaces", "structures", "checks"))
            if rng.random() < 0.5:
                doc.pop(key, None)
            else:
                doc[key] = rng.choice(LITERALS)
        out.append(json.dumps(doc))
    return out


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_one_of_two_ends(code, out, err, fmt):
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
        return
    assert code in (0, 1) and err == "", (code, err)
    if fmt == "json":
        doc = json.loads(out)
        rows = [(r["status"], r["witness"]) for r in doc["results"]]
        assert all(w is None if s != "fail" else "index" in w and "value" in w for s, w in rows), rows
        overall = doc["overall"]
    else:
        lines = out.splitlines()
        assert all("  witness (" in line for line in lines[1:-1] if line.split()[1] == "FAIL"), out
        overall = lines[-1].removeprefix("overall: ").lower()
    assert overall == ("pass" if code == 0 else "fail"), out


def test_mutated_models_end_in_a_report_or_a_typed_error(tmp_path):
    """Each run ends in one of the two ways, and each text run is the recorded one, byte for byte."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["runs"]
    codes = []
    for k, text in enumerate(mutated_models(seed=GOLDEN_SEED, count=GOLDEN_COUNT)):
        path = tmp_path / f"m{k}.json"
        path.write_text(text)
        for fmt in ("text", "json"):
            code, out, err = run_cli(["check", str(path), "--format", fmt])
            assert_one_of_two_ends(code, out, err, fmt)
            if fmt == "text":
                assert [code, out, err] == golden[k], k
            codes.append(code)
    # the corpus reaches all three ends
    assert {0, 1, 2} <= set(codes)


def test_golden_corpus_replayed_in_a_seeded_shuffle_matches(tmp_path):
    """Reports do not depend on the order of checks or on what a process has
    memoized: after the ordered pass above, the corpus run again in a seeded
    shuffle, in the same process, gives every recorded text run byte for byte."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["runs"]
    corpus = list(enumerate(mutated_models(seed=GOLDEN_SEED, count=GOLDEN_COUNT)))
    random.Random(GOLDEN_SEED).shuffle(corpus)
    for k, text in corpus:
        path = tmp_path / f"m{k}.json"
        path.write_text(text)
        assert list(run_cli(["check", str(path)])) == golden[k], k
