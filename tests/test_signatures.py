"""Names that perfbench's tracer binds on pinbeam's layer boundaries.

The tracer (perfbench/tracing.py) binds each wrapped call's arguments by
parameter name and reads some results by shape, so renaming a parameter or
reshaping a result breaks traced benchmark runs.  These tests pin what it
reads.
"""

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
