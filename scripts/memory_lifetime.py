"""Peak memory of many distinct models checked in one process.

Checks MODELS distinct dim-12 models in one interpreter, as a long-lived
caller of the library would: the direct sums h4 + h9_corrected,
h8 + h4 and h9_corrected + h8 (perfbench's sparse_scale pairs at dim 12)
in turn, model i moved into the seeded unimodular basis
random_unimodular(12, Random(i)), all built with perfbench/models.py.  Every
report must pass, as every summand is integrable.  The peak resident set of
this process (VmHWM in /proc/self/status, Linux only) is read after model
50 and after the last; the run fails when the last exceeds 1.1 times the
first, that is, when what the checks keep grows with the number of models
checked rather than with the parse memo's bound.

Then it builds POINTS distinct circle-family members of the catalog entry
nil3_r (`catalog.family_member` at t = 1/7, 2/7, ...), as `bornlab family`
does, and decides each one's integrability.  The catalog keeps its entry
for the process, so a member kept on the entry's structures would never be
freed; the run fails when the live BornStructure objects after the last
point are not as many as after the first.

    python3 scripts/memory_lifetime.py
"""

import gc
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from bornlab import CirclePoint, catalog  # noqa: E402
from bornlab.model import parsed, run_checks  # noqa: E402
from bornlab.structures import BornStructure, integrability_report  # noqa: E402
from models import CHECKS, Case, change_basis, direct_sum, random_unimodular  # noqa: E402

PAIRS = (("h4", "h9_corrected"), ("h8", "h4"), ("h9_corrected", "h8"))
MODELS = 200
FIRST = 50  # the model after which the reference peak is read
BOUND = 1.1
POINTS = 200


def peak_mb() -> float:
    """VmHWM of this process, in MB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def live_born_structures() -> int:
    gc.collect()
    return sum(isinstance(o, BornStructure) for o in gc.get_objects())


def family_phase() -> tuple[int, int]:
    """Live BornStructure objects after the first and after the last of POINTS family members."""
    entry, counts = catalog.get_entry("nil3_r"), []
    for i in range(1, POINTS + 1):
        integrability_report(catalog.family_member(entry, CirclePoint.from_t(Fraction(i, 7))))
        if i in (1, POINTS):
            counts.append(live_born_structures())
    return counts[0], counts[1]


def main() -> int:
    sources = {name: Case(json.loads(catalog.export_entry(name)), dict.fromkeys(CHECKS, "pass"))
               for pair in PAIRS for name in pair}
    first = None
    for i in range(1, MODELS + 1):
        a, b = PAIRS[i % len(PAIRS)]
        p, p_inv = random_unimodular(12, random.Random(i))
        case = change_basis(direct_sum(sources[a], sources[b]), p, p_inv, f"{a}+{b}~{i}")
        report = run_checks(parsed(json.dumps(case.doc)))
        if report.overall != "pass":
            print(f"model {i} ({a}+{b}) does not pass", file=sys.stderr)
            return 1
        if i == FIRST:
            first = peak_mb()
    last = peak_mb()
    print(f"VmHWM after model {FIRST}: {first:.1f} MB; after model {MODELS}: {last:.1f} MB "
          f"({last / first:.3f}x, bound {BOUND}x)")
    born_first, born_last = family_phase()
    print(f"live BornStructure objects after family point 1: {born_first}; after point {POINTS}: {born_last}")
    return 0 if last <= BOUND * first and born_last == born_first else 1


if __name__ == "__main__":
    sys.exit(main())
