"""Record tests/golden_fuzz.json: the text runs of the seeded fuzz corpus.

For each model of `test_fuzz.mutated_models(seed=2024, count=300)` it stores
the exit code, stdout and stderr of `bornlab check FILE`, run in process on
a file named m<k>.json.  `test_fuzz` compares every text run against it byte
for byte, so a refactor that changes any report or error message fails.

Run from the repository root, on the commit whose output is the reference:

    PYTHONPATH=src python tests/record_golden_fuzz.py
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from test_fuzz import GOLDEN_COUNT, GOLDEN_SEED, mutated_models, run_cli  # noqa: E402


def record() -> dict:
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for k, text in enumerate(mutated_models(seed=GOLDEN_SEED, count=GOLDEN_COUNT)):
            path = Path(tmp) / f"m{k}.json"
            path.write_text(text)
            runs.append(list(run_cli(["check", str(path), "--format", "text"])))
    return {"seed": GOLDEN_SEED, "count": GOLDEN_COUNT, "runs": runs}


if __name__ == "__main__":
    golden = record()
    lines = ",\n".join(json.dumps(run) for run in golden["runs"])
    text = f'{{"seed": {golden["seed"]}, "count": {golden["count"]}, "runs": [\n{lines}\n]}}\n'
    (HERE / "golden_fuzz.json").write_text(text, encoding="utf-8")
