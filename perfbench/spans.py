"""Per-layer tracing for the golodkit benchmark.

The tracer rebinds public entry points of golodkit from the outside: a
module-level function is replaced in every golodkit module that holds a
reference to it (``calculus`` imports ``colon`` from ``groebner``,
``poincare`` imports ``koszul_homology``, and so on), and a method is
replaced on its class.  Spanned entry points record one span per call;
hot leaves are only counted, because a span would cost more than the call.

Spans live in flat arrays until the process exits.  A span's self time is
its duration minus the durations of its direct children; calls are strictly
nested because all work runs on one thread.
"""

from __future__ import annotations

import statistics
import sys
from array import array
from time import perf_counter

# (layer name, module, attribute path).  Several entries may share a layer
# name; their spans are pooled.
SPANNED = [
    ("groebner.normal_form", "golodkit.groebner", "Ideal.normal_form"),
    ("groebner.groebner_basis", "golodkit.groebner", "Ideal.groebner_basis"),
    ("groebner.intersect", "golodkit.groebner", "intersect"),
    ("groebner.colon", "golodkit.groebner", "colon"),
    ("groebner.saturate", "golodkit.groebner", "saturate"),
    ("groebner.module_syzygies", "golodkit.groebner", "module_syzygies"),
    ("calculus.strongly_golod", "golodkit.calculus", "strongly_golod"),
    ("calculus.saturated_power", "golodkit.calculus", "saturated_power"),
    ("calculus.check_colon_condition", "golodkit.calculus", "check_colon_condition"),
    ("resolution.minimal_free_resolution", "golodkit.resolution", "minimal_free_resolution"),
    ("poincare.actual_poincare", "golodkit.poincare", "actual_poincare"),
    ("poincare.serre_bound_series", "golodkit.poincare", "serre_bound_series"),
    ("poincare.golod_verdict", "golodkit.poincare", "golod_verdict"),
    ("koszul.koszul_homology", "golodkit.koszul", "koszul_homology"),
    ("koszul.nf_monomial", "golodkit.koszul", "QuotientBasis.nf_monomial"),
    ("linalg.kernel_of_columns", "golodkit.linalg", "kernel_of_columns"),
    ("linalg.TrackedSpan.add", "golodkit.linalg", "TrackedSpan.add"),
    ("monomial.strongly_golod_monomial", "golodkit.monomial", "strongly_golod_monomial"),
    ("monomial.ideal_ops", "golodkit.monomial", "MonomialIdeal.intersect"),
    ("monomial.ideal_ops", "golodkit.monomial", "MonomialIdeal.product"),
    ("ring.parse_polynomial", "golodkit.ring", "parse_polynomial"),
    ("cli.parse_session", "golodkit.cli", "parse_session"),
    ("cli.main", "golodkit.cli", "main"),
]

COUNTED = [
    ("groebner.order_key", "golodkit.groebner", "MonomialOrder.key"),
    ("linalg.vec_axpy", "golodkit.linalg", "vec_axpy"),
    ("ring.mul", "golodkit.ring", "Polynomial.__mul__"),
]

ITEM = "bench.item"


def _len_or_zero(x) -> int:
    try:
        return len(x)
    except TypeError:
        return 0


def _betti_beyond_f1(res) -> int:
    shifts = getattr(res, "shifts", ())
    return sum(len(s) for s in shifts[2:])


def _betti_sum(res) -> int:
    return sum(len(s) for s in getattr(res, "shifts", ()))


# Per-span quantities taken from a call's result (or first argument), summed
# per layer.  Keys are (layer, stat); values map (result, args) to a number.
EXTRACT = {
    ("groebner.normal_form", "nonzero"): lambda r, a: 0 if getattr(r, "is_member", True) else 1,
    ("groebner.groebner_basis", "basis_elems"): lambda r, a: _len_or_zero(r),
    ("groebner.module_syzygies", "rows"): lambda r, a: _len_or_zero(r),
    ("resolution.minimal_free_resolution", "betti_sum"): lambda r, a: _betti_sum(r),
    ("resolution.minimal_free_resolution", "beyond_f1"): lambda r, a: _betti_beyond_f1(r),
    ("linalg.kernel_of_columns", "columns"): lambda r, a: _len_or_zero(a[0]) if a else 0,
}


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) for a dotted path, or None if absent."""
    owner = sys.modules.get(module_name)
    if owner is None:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    orig = getattr(owner, parts[-1], None)
    if orig is None:
        return None
    return owner, parts[-1], orig


class Tracer:
    """Span recorder plus leaf counters for one benchmark process."""

    def __init__(self):
        self.layers: list[str] = [ITEM]
        self.layer_id = {ITEM: 0}
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.names = array("l")
        self.items = array("l")
        self.stats: dict[tuple[str, str], dict[int, float]] = {key: {} for key in EXTRACT}
        self.stack = [-1]
        self.item = -1
        self.counts = {name: [0] for name, _, _ in COUNTED}
        self.rebound: list[tuple[object, str, object]] = []  # (owner, attr, original)

    def _layer(self, name: str) -> int:
        if name not in self.layer_id:
            self.layer_id[name] = len(self.layers)
            self.layers.append(name)
        return self.layer_id[name]

    # -- recording ---------------------------------------------------------

    def _open(self, layer: int) -> int:
        idx = len(self.starts)
        self.parents.append(self.stack[-1])
        self.names.append(layer)
        self.items.append(self.item)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self.stack.pop()

    def run_item(self, item_index: int, fn):
        """Run one benchmark item under a root span."""
        self.item = item_index
        idx = self._open(0)
        try:
            return fn()
        finally:
            self._close(idx)

    def _span_wrapper(self, name: str, orig):
        layer = self._layer(name)
        extract = [(self.stats[key], fn) for key, fn in EXTRACT.items() if key[0] == name]
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(layer)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close(idx)
            for values, fn in extract:
                values[idx] = fn(result, args)
            return result

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", name)
        return wrapper

    @staticmethod
    def _count_wrapper(cell: list, orig):
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return orig(*args, **kwargs)

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", "counted")
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> list[str]:
        """Rebind every listed entry point; returns the paths not found."""
        missing = []
        for name, module_name, path in SPANNED:
            found = _resolve(module_name, path)
            if found is None:
                missing.append(f"{module_name}:{path}")
                continue
            owner, attr, orig = found
            self._rebind(owner, attr, orig, self._span_wrapper(name, orig))
        for name, module_name, path in COUNTED:
            found = _resolve(module_name, path)
            if found is None:
                missing.append(f"{module_name}:{path}")
                continue
            owner, attr, orig = found
            self._rebind(owner, attr, orig, self._count_wrapper(self.counts[name], orig))
        return missing

    def _rebind(self, owner, attr, orig, wrapper) -> None:
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            self.rebound.append((owner, attr, orig))
            return
        # a module-level function: replace every golodkit reference to it
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "golodkit" or mod_name.startswith("golodkit.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    self.rebound.append((mod, key, orig))

    def uninstall(self) -> None:
        """Restore every original, so that checks after the timed region leave no spans."""
        for owner, attr, orig in reversed(self.rebound):
            setattr(owner, attr, orig)
        self.rebound.clear()

    def counter_snapshot(self) -> dict[str, int]:
        return {name: cell[0] for name, cell in self.counts.items()}

    # -- aggregation -------------------------------------------------------

    def per_pass(self, item_pass: list[int], npasses: int, pass_times: list[float],
                 factors: list[float], counter_deltas: list[dict[str, int]]) -> list[dict[str, float]]:
        """Per-layer figures for each pass; item_pass maps item index to pass."""
        n = len(self.starts)
        nlayers = len(self.layers)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        lid = self.layer_id.get
        sg = lid("calculus.strongly_golod", -2)
        nf = lid("groebner.normal_form", -2)
        nfm = lid("koszul.nf_monomial", -2)
        mfr = lid("resolution.minimal_free_resolution", -2)
        syz = lid("groebner.module_syzygies", -2)
        # whether a span lies anywhere under a span of these layers
        under_sg = array("b", bytes(n))
        under_nfm = array("b", bytes(n))
        under_mfr = array("b", bytes(n))
        calls = [[0] * nlayers for _ in range(npasses)]
        self_s = [[0.0] * nlayers for _ in range(npasses)]
        pairs = [0] * npasses
        nested_nf = [0] * npasses
        mfr_rows = [0.0] * npasses
        stat_tot = {key: [0.0] * npasses for key in EXTRACT}
        syz_rows = self.stats[("groebner.module_syzygies", "rows")]
        for i in range(n):
            p = self.parents[i]
            layer = self.names[i]
            if p >= 0:
                pl = self.names[p]
                under_sg[i] = 1 if (pl == sg or under_sg[p]) else 0
                under_nfm[i] = 1 if (pl == nfm or under_nfm[p]) else 0
                under_mfr[i] = 1 if (pl == mfr or under_mfr[p]) else 0
            k = item_pass[self.items[i]]
            calls[k][layer] += 1
            self_s[k][layer] += (self.ends[i] - self.starts[i]) - child[i]
            if layer == nf:
                pairs[k] += under_sg[i]
                nested_nf[k] += under_nfm[i]
            if layer == syz and under_mfr[i]:
                mfr_rows[k] += syz_rows.get(i, 0)
        for key, values in self.stats.items():
            for i, v in values.items():
                stat_tot[key][item_pass[self.items[i]]] += v
        out = []
        for k in range(npasses):
            row: dict[str, float] = {}
            for name in _span_names():
                j = self.layer_id.get(name)
                row[f"{name}.calls"] = calls[k][j] if j is not None else 0
                row[f"{name}.self_s"] = self_s[k][j] if j is not None else 0.0
            row[f"{ITEM}.self_s"] = self_s[k][0]
            for name, _, _ in COUNTED:
                row[f"{name}.calls"] = counter_deltas[k].get(name, 0)
            for (name, stat), tot in stat_tot.items():
                row[f"{name}.{stat}"] = tot[k]
            nf_calls = row["koszul.nf_monomial.calls"]
            row["koszul.nf_monomial.hit_ratio"] = (
                1.0 - nested_nf[k] / nf_calls if nf_calls else 0.0)
            row["calculus.strongly_golod.pairs"] = pairs[k]
            beyond = row.pop("resolution.minimal_free_resolution.beyond_f1")
            row["resolution.minimal_free_resolution.kept_ratio"] = (
                beyond / mfr_rows[k] if mfr_rows[k] else 0.0)
            row["trace.pass_s"] = pass_times[k]
            row["trace.pass_scaled_s"] = pass_times[k] * factors[k]
            row["trace.self_sum_s"] = sum(self_s[k])
            out.append(row)
        return out


def _span_names() -> list[str]:
    return list(dict.fromkeys(name for name, _, _ in SPANNED))


def median_row(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(r[key] for r in rows) for key in rows[0]}


# The per-layer metrics the benchmark reports: (name, unit, better).
PER_LAYER = [
    ("groebner.order_key.calls", "count", "lower"),
    ("groebner.normal_form.calls", "count", "lower"),
    ("groebner.normal_form.self_s", "s", "lower"),
    ("groebner.normal_form.nonzero", "count", "lower"),
    ("calculus.strongly_golod.calls", "count", "lower"),
    ("calculus.strongly_golod.self_s", "s", "lower"),
    ("calculus.strongly_golod.pairs", "count", "lower"),
    ("groebner.groebner_basis.calls", "count", "lower"),
    ("groebner.groebner_basis.self_s", "s", "lower"),
    ("groebner.groebner_basis.basis_elems", "count", "lower"),
    ("groebner.intersect.self_s", "s", "lower"),
    ("groebner.colon.self_s", "s", "lower"),
    ("groebner.saturate.self_s", "s", "lower"),
    ("calculus.saturated_power.self_s", "s", "lower"),
    ("calculus.check_colon_condition.self_s", "s", "lower"),
    ("groebner.module_syzygies.calls", "count", "lower"),
    ("groebner.module_syzygies.self_s", "s", "lower"),
    ("groebner.module_syzygies.rows", "count", "lower"),
    ("resolution.minimal_free_resolution.calls", "count", "lower"),
    ("resolution.minimal_free_resolution.self_s", "s", "lower"),
    ("resolution.minimal_free_resolution.betti_sum", "count", "lower"),
    ("resolution.minimal_free_resolution.kept_ratio", "ratio", "higher"),
    ("poincare.actual_poincare.calls", "count", "lower"),
    ("poincare.actual_poincare.self_s", "s", "lower"),
    ("poincare.serre_bound_series.self_s", "s", "lower"),
    ("poincare.golod_verdict.self_s", "s", "lower"),
    ("koszul.koszul_homology.calls", "count", "lower"),
    ("koszul.koszul_homology.self_s", "s", "lower"),
    ("koszul.nf_monomial.calls", "count", "lower"),
    ("koszul.nf_monomial.hit_ratio", "ratio", "higher"),
    ("linalg.kernel_of_columns.calls", "count", "lower"),
    ("linalg.kernel_of_columns.self_s", "s", "lower"),
    ("linalg.kernel_of_columns.columns", "count", "lower"),
    ("linalg.TrackedSpan.add.calls", "count", "lower"),
    ("linalg.TrackedSpan.add.self_s", "s", "lower"),
    ("linalg.vec_axpy.calls", "count", "lower"),
    ("monomial.strongly_golod_monomial.self_s", "s", "lower"),
    ("monomial.ideal_ops.self_s", "s", "lower"),
    ("ring.mul.calls", "count", "lower"),
    ("ring.parse_polynomial.self_s", "s", "lower"),
    ("cli.parse_session.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("bench.item.self_s", "s", "lower"),
    ("trace.pass_s", "s", "lower"),
    ("trace.pass_scaled_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
]
