"""Outside-in tracing of pinbeam's layer boundaries.

The tracer wraps a fixed list of public functions, one module (layer) at a
time, by replacing the attribute on the defining module and on every other
``pinbeam`` module that imported the function by name.  Each call records a
span ``[name, start, end, parent, op, bookkeeping]`` in memory; a span's self
time is its duration minus its child spans and minus the tracer's own
bookkeeping that ran inside it.  Work counters are read from the wrapped
calls' arguments and results, never from inside the program.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from pinbeam.kernel import build_cutoff, support_radius, t_grid

# (module, function) pairs whose calls become spans; the layer is the module.
BOUNDARIES = (
    ("fields", "extremal_conv_field"),
    ("fields", "shift_table"),
    ("smoothing", "poisson_smooth_multi"),
    ("smoothing", "martingale_average"),
    ("smoothing", "lp_norm"),
    ("prospect", "prospect"),
    ("prospect", "verify_certificate"),
    ("prospect", "find_dense_window"),
    ("prospect", "normalize_window"),
    ("raster", "cells_of_points"),
    ("raster", "load_raster"),
    ("raster", "save_raster"),
    ("harness", "compute_decomposition"),
    ("harness", "check_smallt_scaling"),
    ("harness", "compute_sq_sums"),
    ("reports", "harness_to_dict"),
    ("reports", "grid_csv"),
    ("reports", "exhaustion_to_dict"),
    ("reports", "certificate_to_dict"),
    ("reports", "write_json"),
    ("reports", "atomic_write_text"),
)
LAYERS = ("fields", "smoothing", "prospect", "raster", "harness", "reports")

# Computed traffic per cell update of the shift engine: read q, read and
# write the accumulator, 8 bytes each.
BYTES_PER_CELL_UPDATE = 24

MB = 1024.0 * 1024.0


class Tracer:
    """Span recorder plus per-op work counters for the traced ops of a run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._installed: list[tuple[object, str, object]] = []
        self._wrappers: dict[str, object] = {}
        self._sigs: dict[str, inspect.Signature] = {}
        self.ops: dict[int, dict] = {}
        for mod_name, fn_name in BOUNDARIES:
            mod = importlib.import_module(f"pinbeam.{mod_name}")
            fn = getattr(mod, fn_name)
            name = f"{mod_name}.{fn_name}"
            self._sigs[name] = inspect.signature(fn)
            self._wrappers[name] = (fn, self._wrap(name, fn))

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        originals = {id(fn): wrapper for fn, wrapper in self._wrappers.values()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "pinbeam" or mod_name.startswith("pinbeam.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._installed.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            mod, attr, value = self._installed.pop()
            setattr(mod, attr, value)

    # -- ops ----------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self._op = op
        self.ops[op] = {"counters": {}, "digests": set(), "slack": [], "alloc_peak": 0,
                        "wall": None}

    def end_op(self, op: int, wall: float) -> None:
        self.ops[op]["wall"] = wall
        self._op = -1

    # -- spans --------------------------------------------------------------

    def _wrap(self, name, fn):
        probe = _PROBES.get(name)
        use_tracemalloc = name == "smoothing.poisson_smooth_multi"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_enter = time.perf_counter()
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            rec = [name, 0.0, 0.0, parent, self._op, 0.0]
            self.spans.append(rec)
            self._stack.append(idx)
            own_tm = use_tracemalloc and not tracemalloc.is_tracing()
            if own_tm:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                rec[1], rec[2] = t0, t1
            if own_tm:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                op = self.ops[self._op]
                op["alloc_peak"] = max(op["alloc_peak"], peak)
            if probe is not None:
                bound = self._sigs[name].bind(*args, **kwargs)
                bound.apply_defaults()
                probe(self, bound.arguments, result)
            if parent >= 0:
                self.spans[parent][5] += (t0 - t_enter) + (time.perf_counter() - t1)
            return result

        return wrapper

    def _count(self, key, value) -> None:
        c = self.ops[self._op]["counters"]
        c[key] = c.get(key, 0) + value

    # -- aggregation --------------------------------------------------------

    def metrics(self, untraced_walls, untraced_cpu_over_wall) -> dict:
        """Per-layer metrics as per-traced-op means, with their units."""
        traced = list(self.ops)
        k = max(1, len(traced))
        calls, busy, self_s = {}, {}, {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        layer_busy = dict.fromkeys(LAYERS, 0.0)
        for (name, t0, t1, parent, _, _), slf in zip(self.spans, self_times(self.spans)):
            dur = t1 - t0
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + slf
            layer = name.split(".", 1)[0]
            layer_self[layer] += slf
            if parent < 0 or self.spans[parent][0].split(".", 1)[0] != layer:
                layer_busy[layer] += dur

        counters: dict = {}
        distinct = alloc_peak = 0
        slacks = []
        for op in traced:
            rec = self.ops[op]
            for key, v in rec["counters"].items():
                counters[key] = counters.get(key, 0) + v
            distinct += len(rec["digests"])
            slacks.extend(rec["slack"])
            alloc_peak = max(alloc_peak, rec["alloc_peak"])
        op_wall = sum(self.ops[op]["wall"] for op in traced)

        def per_op(d, key):
            return d.get(key, 0) / k

        def ratio(num, den):
            return num / den if den else 0.0

        ecf_calls = calls.get("fields.extremal_conv_field", 0)
        cell_updates = counters.get("fields.cell_updates", 0)
        lookups = counters.get("prospect.lookups", 0)
        m = {
            "fields.extremal_conv_field.calls": (per_op(calls, "fields.extremal_conv_field"), "count"),
            "fields.extremal_conv_field.busy_s": (per_op(busy, "fields.extremal_conv_field"), "s"),
            "fields.shift_table.busy_s": (per_op(busy, "fields.shift_table"), "s"),
            "fields.scales": (per_op(counters, "fields.scales"), "count"),
            "fields.shift_groups": (per_op(counters, "fields.shift_groups"), "count"),
            "fields.cell_updates": (cell_updates / k, "count"),
            "fields.bytes_moved_computed": (cell_updates * BYTES_PER_CELL_UPDATE / k, "B"),
            "fields.ns_per_cell_update": (
                ratio(busy.get("fields.extremal_conv_field", 0.0) * 1e9, cell_updates), "ns"),
            "fields.distinct_ratio": (ratio(distinct, ecf_calls), "ratio"),
            "smoothing.poisson_smooth_multi.calls": (per_op(calls, "smoothing.poisson_smooth_multi"), "count"),
            "smoothing.poisson_smooth_multi.busy_s": (per_op(busy, "smoothing.poisson_smooth_multi"), "s"),
            "smoothing.poisson_smooth_multi.scales": (per_op(counters, "smoothing.scales"), "count"),
            "smoothing.poisson_smooth_multi.alloc_peak_mb": (alloc_peak / MB, "MB"),
            "smoothing.martingale_average.busy_s": (per_op(busy, "smoothing.martingale_average"), "s"),
            "smoothing.lp_norm.busy_s": (per_op(busy, "smoothing.lp_norm"), "s"),
            "prospect.prospect.calls": (per_op(calls, "prospect.prospect"), "count"),
            "prospect.prospect.busy_s": (per_op(busy, "prospect.prospect"), "s"),
            "prospect.cells_scanned": (per_op(counters, "prospect.cells_scanned"), "count"),
            "prospect.lookups_computed": (lookups / k, "count"),
            "prospect.ns_per_lookup": (ratio(busy.get("prospect.prospect", 0.0) * 1e9, lookups), "ns"),
            "prospect.certified_ratio": (
                ratio(counters.get("prospect.certified", 0), calls.get("prospect.prospect", 0)), "ratio"),
            "prospect.verify_certificate.busy_s": (per_op(busy, "prospect.verify_certificate"), "s"),
            "prospect.find_dense_window.busy_s": (per_op(busy, "prospect.find_dense_window"), "s"),
            "prospect.normalize_window.busy_s": (per_op(busy, "prospect.normalize_window"), "s"),
            "raster.cells_of_points.calls": (per_op(calls, "raster.cells_of_points"), "count"),
            "raster.cells_of_points.busy_s": (per_op(busy, "raster.cells_of_points"), "s"),
            "raster.load_raster.busy_s": (per_op(busy, "raster.load_raster"), "s"),
            "raster.load_raster.mb_per_s": (
                ratio(counters.get("raster.load_bytes", 0) / MB, busy.get("raster.load_raster", 0.0)), "MB/s"),
            "raster.save_raster.busy_s": (per_op(busy, "raster.save_raster"), "s"),
            "raster.save_raster.mb_per_s": (
                ratio(counters.get("raster.save_bytes", 0) / MB, busy.get("raster.save_raster", 0.0)), "MB/s"),
        }
        for fn in ("compute_decomposition", "check_smallt_scaling", "compute_sq_sums"):
            m[f"harness.{fn}.busy_s"] = (per_op(busy, f"harness.{fn}"), "s")
            m[f"harness.{fn}.self_s"] = (per_op(self_s, f"harness.{fn}"), "s")
        m["harness.triangle_slack_min"] = (min(slacks) if slacks else 0.0, "1")
        m["reports.write_s"] = (layer_busy["reports"] / k, "s")
        m["reports.bytes_written"] = (per_op(counters, "reports.bytes"), "B")
        for layer in LAYERS:
            m[f"layer.{layer}.self_share"] = (ratio(layer_self[layer], op_wall), "ratio")
        m["layer.other.self_share"] = (ratio(op_wall - sum(layer_self.values()), op_wall), "ratio")
        m["trace.op_wall_s"] = (op_wall / k, "s")
        untraced_p50 = statistics.median(untraced_walls) if untraced_walls else 0.0
        traced_p50 = statistics.median(self.ops[op]["wall"] for op in traced) if traced else 0.0
        m["trace.overhead_ratio"] = (ratio(traced_p50, untraced_p50), "ratio")
        m["proc.cpu_over_wall"] = (untraced_cpu_over_wall, "ratio")
        return {name: {"value": float(v), "unit": u} for name, (v, u) in m.items()}

    def write_spans(self, path: Path) -> None:
        """Raw spans as CSV: name,start,end,parent,op,bookkeeping_s,self_s."""
        with open(path, "w") as fh:
            fh.write("idx,name,start_s,end_s,parent,op,bookkeeping_s,self_s\n")
            for i, ((name, t0, t1, parent, op, bk), slf) in enumerate(
                    zip(self.spans, self_times(self.spans))):
                fh.write(f"{i},{name},{t0:.9f},{t1:.9f},{parent},{op},{bk:.9f},{slf:.9f}\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus its child spans and the bookkeeping inside it."""
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [(t1 - t0) - child[i] - bk for i, (_, t0, t1, _, _, bk) in enumerate(spans)]


# ---------------------------------------------------------------------------
# Probes: counters read from a boundary call's arguments and result.
# ---------------------------------------------------------------------------


def _digest(*parts) -> str:
    h = hashlib.sha1()
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes() if isinstance(p, np.ndarray) else repr(p).encode())
        h.update(b"|")
    return h.hexdigest()


def _probe_extremal(tr: Tracer, a: dict, result) -> None:
    q = np.asarray(a["q"], dtype=np.float64)
    grid, cutoff = a["grid"], a["cutoff"]
    ts = a["ts"]
    if ts is None:
        c, b = a["interval"]
        ts = t_grid(c, b, grid.h, support_radius(cutoff.params), a["min_per_octave"])
    base = a["base"]
    base = np.zeros_like(q) if base is None else np.asarray(base, dtype=np.float64)
    tr.ops[tr._op]["digests"].add(_digest(q, base, np.asarray(ts, dtype=np.float64), a["mode"]))


def _probe_shift_table(tr: Tracer, a: dict, result) -> None:
    dx, _, _, tptr = result
    n = a["grid"].n
    tr._count("fields.scales", len(tptr) - 1)
    tr._count("fields.shift_groups", len(dx))
    tr._count("fields.cell_updates", len(dx) * n * n)


def _probe_smooth(tr: Tracer, a: dict, result) -> None:
    tr._count("smoothing.scales", len(list(a["scales"])))


def _probe_prospect(tr: Tracer, a: dict, result) -> None:
    from pinbeam.prospect import BeamCertificate

    raster, ladder, params, sampling = a["a"], a["ladder"], a["params"], a["sampling"]
    if params.requires_swap:
        raise ValueError("the prospect probe counts scans in the beta > 1 system only")
    nodes = build_cutoff(params, sampling.nodes, sampling.plateau_frac).node_count
    grid = raster.grid
    radius = support_radius(params)
    scales = [len(t_grid(c, b, grid.h, radius, sampling.min_per_octave)) for b, c in ladder.entries]
    if isinstance(result, BeamCertificate):
        # Cells before the certified one ran every block; it ran blocks 1..j.
        ix = int(np.floor((result.point[0] - grid.origin[0]) / grid.h))
        iy = int(np.floor((result.point[1] - grid.origin[1]) / grid.h))
        scanned = int(np.count_nonzero(raster.bitmap.ravel()[: iy * grid.n + ix])) + 1
        lookups = ((scanned - 1) * sum(scales) + sum(scales[: result.j])) * nodes
        tr._count("prospect.certified", 1)
    else:
        scanned = result.scanned
        lookups = scanned * sum(scales) * nodes
    tr._count("prospect.cells_scanned", scanned)
    tr._count("prospect.lookups", lookups)


def _file_bytes(path) -> int:
    path = Path(path)
    total = path.stat().st_size
    sidecar = path.with_suffix(".meta.json")
    if sidecar.exists():
        total += sidecar.stat().st_size
    return total


def _probe_load(tr: Tracer, a: dict, result) -> None:
    tr._count("raster.load_bytes", _file_bytes(a["path"]))


def _probe_save(tr: Tracer, a: dict, result) -> None:
    tr._count("raster.save_bytes", _file_bytes(a["path"]))


def _probe_decomposition(tr: Tracer, a: dict, result) -> None:
    tr.ops[tr._op]["slack"].append(result.triangle_slack)


def _probe_write(tr: Tracer, a: dict, result) -> None:
    tr._count("reports.bytes", len(a["text"].encode()))


_PROBES = {
    "fields.extremal_conv_field": _probe_extremal,
    "fields.shift_table": _probe_shift_table,
    "smoothing.poisson_smooth_multi": _probe_smooth,
    "prospect.prospect": _probe_prospect,
    "raster.load_raster": _probe_load,
    "raster.save_raster": _probe_save,
    "harness.compute_decomposition": _probe_decomposition,
    "reports.atomic_write_text": _probe_write,
}
