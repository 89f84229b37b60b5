"""Model-document generators for the benchmark workloads.

A model document is the parsed JSON of a bornlab model file (the format of
`bornlab catalog export`).  Every generator returns a `Case`: the document
plus the expected status of each of the nine checks, derived from the
statuses of its source models, never from running the engine.

- `direct_sum(a, b)` puts two models side by side (brackets, tensors and
  subspaces block-diagonal, `b` shifted past `a`).  Every defect of a direct
  sum is block-diagonal, so a check fails on the sum exactly when it fails
  on a summand; the checks asserted only for integrable structures are
  skipped when either summand is not integrable.
- `change_basis(case, p, p_inv, name)` re-expresses a model in the basis given by
  the columns of an integer matrix `p`: forms become P^T M P, endomorphisms
  P^-1 T P, subspace vectors P^-1 v, and brackets are transported.  Every
  check is basis-invariant, so the statuses carry over unchanged.

The arithmetic here is stdlib-only and independent of bornlab's kernel, so
generated inputs do not depend on the code under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

CHECKS = (
    "born_axioms",
    "identity_table",
    "integrability",
    "eigenspace_geometry",
    "signatures",
    "connections",
    "generalized_torsion",
    "omega_k",
    "torsion_formula",
)
KINDS = ("kunneth", "born", "hypersymplectic")
# role -> document section, for every structure kind (roles never clash)
ROLE_SECTION = {
    "omega": "forms", "alpha": "forms", "beta": "forms",
    "g": "metrics", "h": "metrics", "metric": "metrics",
    "A": "endos", "B": "endos", "J": "endos",
    "plus": "subspaces", "minus": "subspaces",
}


@dataclass(frozen=True)
class Case:
    doc: dict
    expected: dict  # check name -> "pass" | "fail" | "skipped"

    @property
    def dim(self) -> int:
        return self.doc["dim"]


def _first(doc, kind):
    return next((s for s in doc.get("structures", []) if s["type"] == kind), None)


def _block(a_rows, b_rows, na: int, nb: int):
    """Rows of a padded on the right and rows of b on the left, to width na + nb."""
    return [list(r) + ["0"] * nb for r in a_rows] + [["0"] * na + list(r) for r in b_rows]


def _combine_status(a: str, b: str) -> str:
    for status in ("skipped", "fail"):
        if status in (a, b):
            return status
    return "pass"


def direct_sum(a: Case, b: Case, name: str | None = None) -> Case:
    """Direct sum of two models: every structure kind declared by both."""
    da, db = a.doc, b.doc
    na, nb = da["dim"], db["dim"]
    brackets = [dict(item) for item in da.get("brackets", [])]
    for item in db.get("brackets", []):
        brackets.append({
            "i": item["i"] + na,
            "j": item["j"] + na,
            "out": {str(int(k) + na): v for k, v in item["out"].items()},
        })
    doc = {"name": name or f"{da['name']}+{db['name']}", "dim": na + nb,
           "brackets": brackets, "forms": {}, "metrics": {}, "endos": {},
           "subspaces": {}, "structures": []}
    for kind in KINDS:
        sa, sb = _first(da, kind), _first(db, kind)
        if sa is None or sb is None:
            continue
        decl = {"type": kind}
        for role in sa:
            if role == "type" or role not in sb:
                continue
            section = ROLE_SECTION[role]
            ref_a, ref_b = sa[role], sb[role]
            ref = ref_a if ref_a == ref_b else f"{ref_a}+{ref_b}"
            doc[section][ref] = _block(da[section][ref_a], db[section][ref_b], na, nb)
            decl[role] = ref
        doc["structures"].append(decl)
    expected = {c: _combine_status(a.expected[c], b.expected[c]) for c in CHECKS}
    return Case(doc, expected)


# ---------------------------------------------------------------------------
# change of basis


def random_unimodular(n: int, rng: random.Random, spread: int = 2):
    """P = L U with unit-triangular integer factors, and its exact inverse.

    Both factors have entries drawn from [-spread, spread] off the diagonal,
    so det P = 1 and P^-1 = U^-1 L^-1 is an integer matrix too.
    """
    low = [[1 if i == j else (rng.randint(-spread, spread) if j < i else 0) for j in range(n)] for i in range(n)]
    up = [[1 if i == j else (rng.randint(-spread, spread) if j > i else 0) for j in range(n)] for i in range(n)]
    return _imatmul(low, up), _imatmul(_unit_upper_inverse(up), _unit_lower_inverse(low))


def _imatmul(x, y):
    cols = list(zip(*y))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in x]


def _unit_lower_inverse(low):
    n = len(low)
    inv = [[0] * n for _ in range(n)]
    for c in range(n):
        inv[c][c] = 1
        for r in range(c + 1, n):
            inv[r][c] = -sum(low[r][k] * inv[k][c] for k in range(c, r))
    return inv


def _unit_upper_inverse(up):
    t = _unit_lower_inverse([list(col) for col in zip(*up)])
    return [list(col) for col in zip(*t)]


def _transform(rows, left, right):
    """left . M . right for a rational string matrix M and integer matrices."""
    q = [[Fraction(v) for v in row] for row in rows]
    den = lcm(*(v.denominator for row in q for v in row))
    m = [[int(v * den) for v in row] for row in q]
    return [[str(Fraction(v, den)) for v in row] for row in _imatmul(left, _imatmul(m, right))]


def change_basis(case: Case, p, p_inv, name: str) -> Case:
    """The same model expressed in the basis e'_j = sum_i p[i][j] e_i."""
    doc = case.doc
    n = doc["dim"]
    pt = [list(col) for col in zip(*p)]
    out = {"name": name, "dim": n, "forms": {}, "metrics": {}, "endos": {}, "subspaces": {}}
    for section, left in (("forms", pt), ("metrics", pt), ("endos", p_inv)):
        for key, rows in doc.get(section, {}).items():
            out[section][key] = _transform(rows, left, p)
    for key, vecs in doc.get("subspaces", {}).items():
        out["subspaces"][key] = [
            [str(Fraction(sum(p_inv[r][k] * Fraction(v[k]) for k in range(n)))) for r in range(n)]
            for v in vecs
        ]
    # nonzero structure constants c^k_ab over ordered pairs (0-based)
    consts = []
    for item in doc.get("brackets", []):
        a, b = item["i"] - 1, item["j"] - 1
        for k, v in item["out"].items():
            consts.append((a, b, int(k) - 1, Fraction(v)))
            consts.append((b, a, int(k) - 1, -Fraction(v)))
    brackets = []
    for i in range(n):
        for j in range(i + 1, n):
            old = [Fraction(0)] * n
            for a, b, k, v in consts:
                old[k] += p[a][i] * p[b][j] * v
            new = [sum(p_inv[r][k] * old[k] for k in range(n)) for r in range(n)]
            outs = {str(r + 1): str(Fraction(v)) for r, v in enumerate(new) if v}
            if outs:
                brackets.append({"i": i + 1, "j": j + 1, "out": outs})
    out["brackets"] = brackets
    out["structures"] = [dict(s) for s in doc.get("structures", [])]
    if "checks" in doc:
        out["checks"] = list(doc["checks"])
    return Case(out, dict(case.expected))
