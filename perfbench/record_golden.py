"""Record the golden catalog oracle: byte-exact CLI output of every catalog entry.

    python3 perfbench/record_golden.py     # from the repository root

Writes perfbench/golden.json with, for each catalog entry that carries a
model, the exit code and stdout of `check <exported file>` and of
`catalog show <entry>`, plus one `family nil3_r --t 1/2` output that the
family ops are checked against.  The benchmark counts any byte difference
from this file as a failed op, so re-record it only when a change of the
report text is intended.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from bornlab import catalog, cli  # noqa: E402


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return {"code": code, "text": out.getvalue()}


def main():
    entries = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for name, _ in catalog.list_entries():
            if catalog.get_entry(name).model is None:
                continue
            path = os.path.join(tmp, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(catalog.export_entry(name))
            entries[name] = {"check": run(["check", path]), "show": run(["catalog", "show", name])}
    golden = {"entries": entries, "family": run(["family", "nil3_r", "--t", "1/2"])}
    with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=False)
        fh.write("\n")


if __name__ == "__main__":
    main()
