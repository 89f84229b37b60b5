"""Per-layer tracing of bornlab from outside, by rebinding its public names.

`install(tracer)` replaces each public function or method listed in TARGETS
with a timing wrapper, wherever a loaded `bornlab.*` module (or the class
that owns the method) binds it.  Nothing inside bornlab changes and no cache
is touched.  A name that cannot be found is returned in the missing list
rather than raising, so a later refactor shows up as missing metrics.

Each wrapped call is one span: name, start, end, parent span and op id, kept
in flat arrays and written out by `Tracer.dump`.  A span's self time is its
duration minus the time covered by its child spans; the wrapper's own
bookkeeping is charged to neither, so the self times of one op always sum to
at most the op's wall time.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

from models import CHECKS

# (metric prefix, module, attribute path); the layer is the first component
TARGETS = (
    ("exact.matmul", "bornlab.exact", "Matrix.__mul__"),
    ("exact.matvec", "bornlab.exact", "Matrix.matvec"),
    ("exact.determinant", "bornlab.exact", "determinant"),
    ("exact.invert", "bornlab.exact", "invert"),
    ("exact.rref", "bornlab.exact", "rref"),
    ("exact.kernel_basis", "bornlab.exact", "kernel_basis"),
    ("exact.signature_of_symmetric", "bornlab.exact", "signature_of_symmetric"),
    ("exact.subspace_init", "bornlab.exact", "Subspace.__init__"),
    ("exact.projection_onto", "bornlab.exact", "projection_onto"),
    ("liealg.ce_d2", "bornlab.liealg", "ce_d2"),
    ("liealg.lie_algebra_init", "bornlab.liealg", "LieAlgebra.__init__"),
    ("liealg.is_subalgebra", "bornlab.liealg", "is_subalgebra"),
    ("liealg.bracket", "bornlab.liealg", "LieAlgebra.bracket"),
    ("multilinear.nijenhuis", "bornlab.multilinear", "nijenhuis"),
    ("multilinear.recursion_operator", "bornlab.multilinear", "recursion_operator"),
    ("multilinear.involution_split", "bornlab.multilinear", "involution_split"),
    ("multilinear.pullback", "bornlab.multilinear", "pullback"),
    ("structures.build_born", "bornlab.structures", "build_born"),
    ("structures.build_almost_kunneth", "bornlab.structures", "build_almost_kunneth"),
    ("structures.build_hypersymplectic", "bornlab.structures", "build_hypersymplectic"),
    ("structures.s1_family", "bornlab.structures", "s1_family"),
    ("structures.neutral_metric", "bornlab.structures", "neutral_metric"),
    ("structures.verify_born_identities", "bornlab.structures", "verify_born_identities"),
    ("structures.integrability_report", "bornlab.structures", "integrability_report"),
    ("connections.levi_civita", "bornlab.connections", "levi_civita"),
    ("connections.kunneth_connection", "bornlab.connections", "kunneth_connection"),
    ("connections.canonical_connection", "bornlab.connections", "canonical_connection"),
    ("connections.born_connection", "bornlab.connections", "born_connection"),
    ("connections.torsion", "bornlab.connections", "torsion"),
    ("connections.nabla_form", "bornlab.connections", "nabla_form"),
    ("connections.generalized_torsion_defect", "bornlab.connections", "generalized_torsion_defect"),
    ("connections.omega_K_defect", "bornlab.connections", "omega_K_defect"),
    ("connections.born_torsion_formula_defect", "bornlab.connections", "born_torsion_formula_defect"),
    ("model.parse_model", "bornlab.model", "parse_model"),
    ("model.run_checks", "bornlab.model", "run_checks"),
    ("model.render_report", "bornlab.model", "render_report"),
    ("catalog.get_entry", "bornlab.catalog", "get_entry"),
    ("catalog.verify_entry", "bornlab.catalog", "verify_entry"),
    ("catalog.family_member", "bornlab.catalog", "family_member"),
    ("cli.main", "bornlab.cli", "main"),
)
# calls that a value-keyed cache could answer: their repeat share is recorded
REPEAT = frozenset({
    "liealg.ce_d2",
    "multilinear.nijenhuis",
    "structures.verify_born_identities",
    "structures.integrability_report",
    "connections.levi_civita",
    "connections.kunneth_connection",
    "connections.canonical_connection",
    "connections.born_connection",
})
KERNELS = ("exact.matmul", "exact.matvec")
LAYERS = ("exact", "liealg", "multilinear", "structures", "connections", "model", "catalog", "cli")
SWEEP_DIMS = (8, 10, 12)
SPAN_CAP = 2_000_000


def _nonzero_columns(rows):
    counts = [0] * len(rows)
    for row in rows:
        for k, x in enumerate(row):
            if x:
                counts[k] += 1
    return counts


def _count_matmul(args):
    """(scalar products, products with a zero factor) of Matrix.__mul__."""
    a, b = args
    n = a.n
    if type(b) is type(a):
        # a[i][k] * b[k][j] has no zero factor for nonzero_col_a[k] * nonzero_row_b[k] pairs
        nonzero = sum(c * sum(1 for x in row if x) for c, row in zip(_nonzero_columns(a.rows), b.rows))
        return n ** 3, n ** 3 - nonzero
    nonzero = 0 if b == 0 else sum(1 for row in a.rows for x in row if x)
    return n * n, n * n - nonzero


def _count_matvec(args):
    a, v = args
    n = a.n
    nonzero = sum(c for c, x in zip(_nonzero_columns(a.rows), v) if x)
    return n * n, n * n - nonzero


COUNTERS = {"exact.matmul": _count_matmul, "exact.matvec": _count_matvec}


class Tracer:
    """Call statistics and spans of the wrapped functions, in memory."""

    def __init__(self):
        self.names = [prefix for prefix, _, _ in TARGETS]
        size = len(self.names)
        self.calls = [0] * size
        self.self_ns = [0] * size
        self.repeats = [0] * size
        self.mults = [0] * size
        self.zero_mults = [0] * size
        self.check_ms = dict.fromkeys(CHECKS, 0)
        self.dim_ns = {d: [0, 0] for d in SWEEP_DIMS}
        self.op = -1
        self.op_self_ns = 0
        self.dropped = 0
        self._stack = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("l")
        self.ops = array("l")
        self.name_ids = array("H")

    def wrap(self, nid, fn):
        prefix = self.names[nid]
        counter = COUNTERS.get(prefix)
        seen = set() if prefix in REPEAT else None
        observe = {"model.render_report": self._observe_report,
                   "model.run_checks": self._observe_run}.get(prefix)
        stack = self._stack
        clock = time.perf_counter_ns
        starts, ends, parents, ops, name_ids = self.starts, self.ends, self.parents, self.ops, self.name_ids

        def traced(*args, **kwargs):
            entered = clock()
            if counter is not None:
                total, zero = counter(args)
                self.mults[nid] += total
                self.zero_mults[nid] += zero
            if seen is not None:
                key = (args, tuple(sorted(kwargs.items())))
                if key in seen:
                    self.repeats[nid] += 1
                else:
                    seen.add(key)
            idx = len(starts)
            if idx >= SPAN_CAP:
                idx = -1
                self.dropped += 1
            frame = [idx, 0]
            if idx >= 0:
                starts.append(0)
                ends.append(0)
                parents.append(stack[-1][0] if stack else -1)
                ops.append(self.op)
                name_ids.append(nid)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                own = end - start - frame[1]
                self.calls[nid] += 1
                self.self_ns[nid] += own
                self.op_self_ns += own
                if idx >= 0:
                    starts[idx] = start
                    ends[idx] = end
                if observe is not None:
                    observe(args, end - start)
                if stack:
                    stack[-1][1] += clock() - entered

        traced.__wrapped__ = fn
        return traced

    def _observe_report(self, args, _elapsed_ns):
        for result in args[0].results:
            if result.check in self.check_ms:
                self.check_ms[result.check] += result.elapsed_ms

    def _observe_run(self, args, elapsed_ns):
        slot = self.dim_ns.get(args[0].algebra.n)
        if slot is not None:
            slot[0] += 1
            slot[1] += elapsed_ns

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        out = {}
        layer_ns = dict.fromkeys(LAYERS, 0)
        for nid, prefix in enumerate(self.names):
            calls = self.calls[nid]
            out[f"{prefix}.calls"] = (calls, "count")
            out[f"{prefix}.self_s"] = (self.self_ns[nid] / 1e9, "s")
            layer_ns[prefix.split(".")[0]] += self.self_ns[nid]
            if prefix in REPEAT:
                out[f"{prefix}.repeat_ratio"] = (self.repeats[nid] / calls if calls else 0.0, "ratio")
            if prefix in KERNELS:
                mults = self.mults[nid]
                out[f"{prefix}.mults"] = (mults, "count")
                out[f"{prefix}.zero_share"] = (self.zero_mults[nid] / mults if mults else 0.0, "ratio")
        for layer, ns in layer_ns.items():
            out[f"{layer}.self_s"] = (ns / 1e9, "s")
        for check, ms in self.check_ms.items():
            out[f"model.check.{check}_s"] = (ms / 1000, "s")
        for dim, (calls, ns) in self.dim_ns.items():
            out[f"model.run_checks.dim{dim}_s"] = (ns / calls / 1e9 if calls else 0.0, "s")
        return out

    def dump(self, path: str):
        """Write the spans as JSON lines: names first, then one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "dropped": self.dropped}) + "\n")
            for i in range(len(self.starts)):
                fh.write(f"[{self.name_ids[i]},{self.starts[i]},{self.ends[i]},{self.parents[i]},{self.ops[i]}]\n")


def install(tracer: Tracer) -> list:
    """Wrap every target that can be found; return the prefixes that cannot."""
    modules = [m for name, m in sorted(sys.modules.items()) if name == "bornlab" or name.startswith("bornlab.")]
    missing = []
    for nid, (prefix, module_name, path) in enumerate(TARGETS):
        owner = sys.modules.get(module_name)
        *owners, attr = path.split(".")
        try:
            for part in owners:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except AttributeError:
            missing.append(prefix)
            continue
        wrapper = tracer.wrap(nid, original)
        if owners:
            setattr(owner, attr, wrapper)
            continue
        for module in modules:
            if vars(module).get(attr) is original:
                setattr(module, attr, wrapper)
    return missing
