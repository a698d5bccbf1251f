"""Names that perfbench's tracer binds on pinbeam's layer boundaries.

The tracer (perfbench/tracing.py) binds each wrapped call's arguments by
parameter name and reads some results by shape, so renaming a parameter or
reshaping a result breaks traced benchmark runs.  The workloads
(perfbench/workloads.py) also read results by attribute.  These tests pin
what both read.
"""

import dataclasses
import importlib
import inspect

import pytest

from pinbeam import CurveParams, GridSpec, build_cutoff
from pinbeam.fields import extremal_conv_field, shift_table
from pinbeam.kernel import support_radius, t_grid

# (module, function, parameter names the tracer's probes read)
BOUND = [
    ("fields", "extremal_conv_field",
     {"q", "grid", "cutoff", "interval", "mode", "base", "min_per_octave", "ts"}),
    ("fields", "shift_table", {"grid"}),
    ("smoothing", "poisson_smooth_multi", {"scales"}),
    ("prospect", "prospect", {"a", "ladder", "params", "sampling"}),
    ("raster", "load_raster", {"path"}),
    ("raster", "save_raster", {"path"}),
    ("reports", "atomic_write_text", {"text"}),
]


@pytest.mark.parametrize("module, name, params", BOUND, ids=[f"{m}.{f}" for m, f, _ in BOUND])
def test_tracer_binds_these_parameter_names(module, name, params):
    fn = getattr(importlib.import_module(f"pinbeam.{module}"), name)
    assert params <= set(inspect.signature(fn).parameters)


def test_extremal_conv_field_defaults_the_bound_optionals():
    params = inspect.signature(extremal_conv_field).parameters
    assert params["base"].default is None and params["ts"].default is None
    assert params["min_per_octave"].default == 16


def test_shift_table_returns_dx_dy_w_tptr():
    grid = GridSpec(16)
    params = CurveParams(2.0, 1.0, 2.4)
    cutoff = build_cutoff(params, 16, 0.5)
    ts = t_grid(0.0625, 0.125, grid.h, support_radius(params))
    dx, dy, w, tptr = shift_table(cutoff, grid, ts)
    assert len(tptr) == len(ts) + 1 and tptr[-1] == len(dx) == len(dy) == len(w)


# (module, name, attributes that the tracer or the workloads read)
READ = [
    ("prospect", "ScaleLadder", {"entries", "depth", "block"}),
    ("prospect", "ExhaustionReport", {"points", "scanned"}),
    ("prospect", "BeamCertificate", {"point", "j"}),
    ("prospect", "SamplingConfig", {"nodes", "plateau_frac", "min_per_octave", "subsample"}),
    ("prospect", "DenseWindowResult", {"found", "r", "center", "ratio"}),
    ("prospect", "VerificationResult", {"ok", "failures"}),
    ("kernel", "CurveParams", {"requires_swap"}),
    ("kernel", "Cutoff", {"node_count"}),
    ("harness", "SqSumReport", {"selected_j"}),
    ("harness", "SmallTReport", {"rows"}),
    ("harness", "DecompositionReport",
     {"rho", "triangle_ok", "triangle_slack", "lhs", "term1", "term2", "term3", "term4",
      "tail"}),
]


@pytest.mark.parametrize("module, name, attrs", READ, ids=[f"{m}.{c}" for m, c, _ in READ])
def test_workloads_read_these_attributes(module, name, attrs):
    cls = getattr(importlib.import_module(f"pinbeam.{module}"), name)
    assert attrs <= set(dir(cls)) | {f.name for f in dataclasses.fields(cls)}


def test_default_ladder_takes_the_depth():
    assert importlib.import_module("pinbeam.prospect").default_ladder(3).depth == 3
