"""The three workloads: input generation, one op, and the op's output check.

Each op mirrors one CLI flow (load -> compute -> write) and puts most of its
work on a different pinbeam module:

- ``decompose``: the four-term block decomposition; ``fields`` does the work.
- ``exhaust``: a dyadic-ladder search that ends in exhaustion; the per-cell
  scan in ``prospect`` and its point lookups do the work.
- ``reduce``: dense-window reduction of a large window to the unit square,
  then search, verification and square sums; ``smoothing`` and raster I/O
  do the work, and the search exits at the first cell.

Ops call pinbeam through module attributes (``harness.compute_decomposition``)
so that the tracer's wrappers see them.  Inputs are raster files written by
this module from a seed; the program only reads them.  Checks use the
original functions and run outside the timed region.
"""

from __future__ import annotations

import importlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pinbeam.constructions import dead_strip_set
from pinbeam.kernel import CurveParams, arc_hits_set, build_cutoff, support_radius
from pinbeam.prospect import (
    BeamCertificate,
    ExhaustionReport,
    SamplingConfig,
    default_ladder,
)
from pinbeam.raster import load_raster, measure
from pinbeam.reports import certificate_from_dict

harness = importlib.import_module("pinbeam.harness")
prospect_mod = importlib.import_module("pinbeam.prospect")
raster = importlib.import_module("pinbeam.raster")
reports = importlib.import_module("pinbeam.reports")

P24 = CurveParams(2.0, 1.0, 2.4)
NODES = 64


def write_pb(bitmap: np.ndarray, path: Path, side: float = 1.0) -> None:
    """Write a bitmap in pinbeam's plain-bitmap format (row 0 first).

    Inputs are written here rather than with pinbeam's ``save_raster`` so
    that a change to the program cannot change its own inputs.
    """
    n = bitmap.shape[0]
    body = np.full((n, n + 1), ord("\n"), dtype=np.uint8)
    body[:, :n] = np.where(bitmap, ord("1"), ord("0"))
    path.write_bytes(f"PB {n}\n".encode() + body.tobytes())
    if side != 1.0:
        meta = {"window_origin": [0.0, 0.0], "window_side": side}
        path.with_suffix(".meta.json").write_text(json.dumps(meta))


def remove_pb(path: Path) -> None:
    path.unlink(missing_ok=True)
    path.with_suffix(".meta.json").unlink(missing_ok=True)


@dataclass
class OpInput:
    path: Path
    params: CurveParams
    rng: np.random.Generator  # the op's generator, for checks that sample


class Decompose:
    """Block decomposition with hypothesis check, plus small-t scaling."""

    name = "decompose"

    def __init__(self, smoke: bool):
        self.n = 64 if smoke else 256
        self.j = 2 if smoke else 3
        self.rhos = (0.25, 0.5)
        self.deltas = (0.2, 0.3, 0.4, 0.5)

    def sizes(self) -> dict:
        return {"n": self.n, "j": self.j, "rhos": list(self.rhos), "nodes": NODES,
                "deltas": list(self.deltas)}

    def setup(self) -> None:
        self.cutoff = build_cutoff(P24, NODES, 0.5)
        self.ladder = default_ladder(self.j)
        # Just above the threshold that makes J0 = j - 1.
        self.tau = support_radius(P24) * 2.0 ** (2 - 2 * self.j) * 1.001

    def make_input(self, rng: np.random.Generator, index: int, path: Path) -> OpInput:
        delta = self.deltas[index % len(self.deltas)]
        n2 = self.n * self.n
        bits = np.zeros(n2, dtype=bool)
        bits[rng.choice(n2, size=math.ceil(delta * n2), replace=False)] = True
        write_pb(bits.reshape(self.n, self.n), path)
        return OpInput(path, P24, rng)

    def run(self, inp: OpInput, outdir: Path) -> dict:
        a = raster.load_raster(inp.path)
        smallt = harness.check_smallt_scaling(a, self.j, self.ladder, self.rhos, self.cutoff)
        decs, rows = [], []
        for rho, s_val, s_ratio in smallt.rows:
            const = harness.HarnessConstants(tau=self.tau, rho=rho)
            rep = harness.compute_decomposition(
                a, self.j, self.ladder, self.cutoff, const, check_hypothesis=True
            )
            decs.append(rep)
            rows.append({
                "j": self.j, "rho": rho, "lhs": rep.lhs,
                "term1": rep.term1, "term2": rep.term2, "term3": rep.term3,
                "term4": rep.term4, "tail": rep.tail,
                "triangle_ok": rep.triangle_ok, "triangle_slack": rep.triangle_slack,
                "smallt_s": s_val, "smallt_s_over_rho": s_ratio,
            })
        reports.write_json(outdir / "harness.json", reports.harness_to_dict(decs, [smallt], None))
        reports.atomic_write_text(outdir / "grid.csv", reports.grid_csv(rows))
        return {"decs": decs}

    def check(self, inp: OpInput, out: dict) -> list[str]:
        decs = out["decs"]
        if len(decs) != len(self.rhos):
            return [f"{len(decs)} decompositions, expected {len(self.rhos)}"]
        return [f"triangle inequality fails at rho={d.rho}: slack {d.triangle_slack!r}"
                for d in decs if not d.triangle_ok]


class Exhaust:
    """Ladder search on a dead-strip set: every point fails every block."""

    name = "exhaust"

    def __init__(self, smoke: bool):
        self.n = 128
        self.thetas = (1.04, 1.05, 1.06)
        self.depth = 2
        self.dead_block = 2
        self.pad = 2
        self.subsample = 48 if smoke else None
        self.check_points = 8

    def sizes(self) -> dict:
        return {"n": self.n, "ladder_depth": self.depth, "dead_block": self.dead_block,
                "thetas": list(self.thetas), "nodes": NODES, "subsample": self.subsample}

    def setup(self) -> None:
        self.ladder = default_ladder(self.depth)
        self.sampling = SamplingConfig(nodes=NODES, subsample=self.subsample)
        self.cutoffs = {th: build_cutoff(CurveParams(2.0, 1.0, th), NODES, 0.5)
                        for th in self.thetas}

    def make_input(self, rng: np.random.Generator, index: int, path: Path) -> OpInput:
        theta = self.thetas[index % len(self.thetas)]
        params = CurveParams(2.0, 1.0, theta)
        # Phases 0..period-width leave no strip cut by the window edge, so every
        # op scans the same 48 of 128 columns (6,144 cells) and does equal work.
        b, c = self.ladder.block(self.dead_block)
        period = math.floor(params.eta * c * self.n)
        width = math.ceil(b * (params.theta - params.eta) * self.n) + 2 * self.pad
        phase = int(rng.integers(period - width + 1))
        a = dead_strip_set(self.n, params, self.ladder, self.dead_block,
                           pad_cells=self.pad, phase_cells=phase)
        write_pb(a.bitmap, path)
        return OpInput(path, params, rng)

    def run(self, inp: OpInput, outdir: Path) -> dict:
        a = raster.load_raster(inp.path)
        outcome = prospect_mod.prospect(a, self.ladder, inp.params, self.sampling)
        reports.write_json(outdir / "exhaustion.json", reports.exhaustion_to_dict(outcome))
        return {"a": a, "outcome": outcome}

    def check(self, inp: OpInput, out: dict) -> list[str]:
        a, rep = out["a"], out["outcome"]
        if not isinstance(rep, ExhaustionReport):
            return ["search certified a beam on a dead-strip set"]
        expected = a.cell_count if self.subsample is None else min(a.cell_count, self.subsample)
        fails = []
        if rep.scanned != expected or len(rep.points) != expected:
            fails.append(f"scanned {rep.scanned} of {expected} set cells")
        for pt, viol in rep.points:
            if [j for j, _ in viol] != list(range(1, self.depth + 1)):
                fails.append(f"point {pt}: violations {viol} are not one per block")
                continue
            for j, t in viol:
                b, c = self.ladder.block(j)
                if not c <= t <= b:
                    fails.append(f"point {pt}: violating t={t!r} outside [{c}, {b}]")
        cutoff = self.cutoffs[inp.params.theta]
        for k in inp.rng.choice(len(rep.points), size=min(self.check_points, len(rep.points)),
                            replace=False):
            pt, viol = rep.points[int(k)]
            for j, t in viol:
                if arc_hits_set(a, pt, t, cutoff).size:
                    fails.append(f"point {pt}: block {j} arc at t={t!r} meets the set")
        return fails


class Reduce:
    """Dense window -> unit square -> search, verify, square sums."""

    name = "reduce"

    def __init__(self, smoke: bool):
        self.big_n = 512 if smoke else 2048
        self.side = 4.0
        self.background = 0.05
        self.patch_density = 0.6
        self.patch = self.big_n // 2  # cells; 2R = 2 on a side-4 window
        self.delta = 0.4
        self.r_list = (1.0, 0.5)
        self.depth = 3
        self.refinement = 4
        self.rho = 0.25

    def sizes(self) -> dict:
        return {"big_n": self.big_n, "side": self.side, "background": self.background,
                "patch_cells": self.patch, "patch_density": self.patch_density,
                "delta": self.delta, "r_list": list(self.r_list), "ladder_depth": self.depth,
                "nodes": NODES, "refinement": self.refinement, "rho": self.rho}

    def setup(self) -> None:
        self.ladder = default_ladder(self.depth)
        self.sampling = SamplingConfig(nodes=NODES)
        # compute_sq_sums reads only rho and p; tau just has to be valid.
        self.constants = harness.HarnessConstants(tau=0.1, rho=self.rho)

    def make_input(self, rng: np.random.Generator, index: int, path: Path) -> OpInput:
        n, m = self.big_n, self.patch
        bitmap = rng.random((n, n)) < self.background
        y0, x0 = (int(v) for v in rng.integers(0, n - m + 1, size=2))
        bitmap[y0 : y0 + m, x0 : x0 + m] = rng.random((m, m)) < self.patch_density
        write_pb(bitmap, path, side=self.side)
        return OpInput(path, P24, rng)

    def run(self, inp: OpInput, outdir: Path) -> dict:
        big = raster.load_raster(inp.path)
        found = prospect_mod.find_dense_window(big, self.delta, self.r_list)
        if not found.found:
            raise ValueError(f"no window reaches density {self.delta}: best {found.ratio}")
        unit = prospect_mod.normalize_window(big, found.r, found.center)
        unit_path = outdir / "unit.pb"
        raster.save_raster(unit, unit_path)
        cert = prospect_mod.prospect(unit, self.ladder, inp.params, self.sampling)
        verdict = prospect_mod.verify_certificate(unit, cert, self.refinement, self.sampling)
        cert_path = outdir / "certificate.json"
        reports.write_json(cert_path, reports.certificate_to_dict(cert))
        sq = harness.compute_sq_sums(unit, self.ladder, 1, self.depth, self.constants)
        return {"found": found, "unit": unit, "unit_path": unit_path, "cert": cert,
                "verdict": verdict, "cert_path": cert_path, "sq": sq}

    def check(self, inp: OpInput, out: dict) -> list[str]:
        fails = []
        unit, found = out["unit"], out["found"]
        if not (measure(unit) == found.ratio >= self.delta):
            fails.append(f"unit measure {measure(unit)!r} vs window ratio {found.ratio!r}")
        back = load_raster(out["unit_path"])
        if back.grid != unit.grid or not np.array_equal(back.bitmap, unit.bitmap):
            fails.append("saved unit instance does not load back bit for bit")
        cert = out["cert"]
        if not isinstance(cert, BeamCertificate):
            return fails + ["search found no beam on the unit instance"]
        if not out["verdict"].ok:
            fails.append(f"certificate fails verification: {out['verdict'].failures[:3]}")
        with open(out["cert_path"]) as fh:
            if certificate_from_dict(json.load(fh)) != cert:
                fails.append("certificate does not round-trip through JSON")
        if not 2 <= out["sq"].selected_j <= self.depth:
            fails.append(f"selected_j {out['sq'].selected_j} outside [2, {self.depth}]")
        return fails


WORKLOADS = {w.name: w for w in (Decompose, Exhaust, Reduce)}
