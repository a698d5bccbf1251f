import numpy as np
import pytest

import pinbeam.fields as fields
from pinbeam import GridSpec, RasterSet


@pytest.fixture
def unit64():
    return GridSpec(64)


def full_square(n: int) -> RasterSet:
    return RasterSet(GridSpec(n), np.ones((n, n), dtype=bool))


def empty_square(n: int) -> RasterSet:
    return RasterSet(GridSpec(n), np.zeros((n, n), dtype=bool))


def single_cell(n: int, ix: int, iy: int) -> RasterSet:
    bm = np.zeros((n, n), dtype=bool)
    bm[iy, ix] = True
    return RasterSet(GridSpec(n), bm)


@pytest.fixture
def engine_runs(monkeypatch):
    """Count the engine runs behind extremal_conv_field calls."""
    runs = []
    run = fields._extremal

    def counted(*args):
        runs.append(1)
        run(*args)

    monkeypatch.setattr(fields, "_extremal", counted)
    return runs
