"""Command-line surface: gen | prospect | verify | harness | bench.

Exit codes are stable API: 0 success, 1 error, 2 verification failure,
3 exhaustion.  All numeric parameters come from flags or an optional JSON
config file (flags win); only the output directory may come from the
environment (PINBEAM_OUTDIR).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import constructions, fields, smoothing
from .harness import (
    HarnessConstants,
    _block_arcs,
    _block_scales,
    block_fields,
    check_smallt_scaling,
    compute_decomposition,
    compute_j0,
    compute_sq_sums,
    decay_sweep,
)
from .kernel import CurveParams, Cutoff, build_cutoff, curve_average, validate_params
from .prospect import (
    BeamCertificate,
    SamplingConfig,
    default_ladder,
    find_dense_window,
    j_bound,
    prospect,
    verify_certificate,
)
from .raster import (
    GridSpec,
    RasterSet,
    ScalarField,
    generate_random,
    indicator,
    load_raster,
    measure,
    save_raster,
)
from .reports import (
    RunConfig,
    RunReport,
    atomic_write_text,
    certificate_from_dict,
    certificate_to_dict,
    decay_csv,
    exhaustion_to_dict,
    grid_csv,
    harness_to_dict,
    sha256_file,
    write_json,
)
from .smoothing import martingale_average, poisson_smooth

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VERIFY_FAIL = 2
EXIT_EXHAUSTION = 3


def _add_config_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", type=Path, help="JSON config file; flags override it")
    for name, typ in RunConfig.key_types().items():
        sp.add_argument(f"--{name.replace('_', '-')}", type=typ, default=None, dest=name)


def _build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        try:
            file_cfg = json.loads(args.config.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"config {args.config}: not valid JSON: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise ValueError(f"config {args.config}: expected a JSON object, got {file_cfg!r}")
        cfg = RunConfig.from_dict(file_cfg)
    flags = {name: getattr(args, name) for name in RunConfig.key_types()}
    return replace(cfg, **{name: v for name, v in flags.items() if v is not None})


def _params(cfg: RunConfig) -> CurveParams:
    params = CurveParams(cfg.beta, cfg.eta, cfg.theta)
    verdict = validate_params(params)
    if not verdict.ok:
        raise ValueError(f"inadmissible curve parameters: {verdict.reason}")
    return params


def _sampling(cfg: RunConfig) -> SamplingConfig:
    return SamplingConfig(
        nodes=cfg.nodes,
        plateau_frac=cfg.plateau_frac,
        min_per_octave=cfg.t_per_octave,
        subsample=cfg.subsample,
        seed=cfg.seed,
    )


def _carved_quadrant(n: int, block: int, cutoff: Cutoff, min_per_octave: int) -> RasterSet:
    """The full square less every cell hit by block arcs from its lower-left quadrant."""
    full = RasterSet(GridSpec(n), np.ones((n, n), dtype=bool))
    region = np.zeros((n, n), dtype=bool)
    region[: n // 2, : n // 2] = True
    ladder = default_ladder(max(block, 1))
    return constructions.carve_block_arcs(full, region, ladder, block, cutoff, min_per_octave)


# ---------------------------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    grid = GridSpec(cfg.n)
    if args.kind == "random":
        raster = generate_random(grid, cfg.delta, cfg.seed)
    elif args.kind == "full":
        raster = RasterSet(grid, np.ones((cfg.n, cfg.n), dtype=bool))
    elif args.kind == "blocks":
        cells = max(1, cfg.n // 8) if args.block_cells is None else args.block_cells
        raster = constructions.checkerboard(cfg.n, cells)
    elif args.kind == "stripes":
        params = _params(cfg)
        ladder = default_ladder(max(args.block, 1))
        raster = constructions.dead_strip_set(cfg.n, params, ladder, args.block)
    elif args.kind == "carved":
        cutoff = build_cutoff(_params(cfg), cfg.nodes, cfg.plateau_frac)
        raster = _carved_quadrant(cfg.n, args.block, cutoff, cfg.t_per_octave)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown kind {args.kind}")
    save_raster(raster, args.out)
    print(f"wrote {args.out} (measure {measure(raster):.6g})")
    return EXIT_OK


def _cmd_prospect(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    t0 = time.perf_counter()
    raster = load_raster(args.input)
    params = _params(cfg)
    depth = args.ladder_depth
    if depth is None:
        depth = j_bound(min(cfg.delta, 0.5), cfg.cprime)
    ladder = default_ladder(depth)
    outcome = prospect(raster, ladder, params, _sampling(cfg))
    elapsed = time.perf_counter() - t0

    out_path = Path(args.out)
    certified = isinstance(outcome, BeamCertificate)
    report = RunReport(
        config=cfg,
        outcome="certificate" if certified else "exhaustion",
        timings={"prospect_s": elapsed},
        input_digests={str(args.input): sha256_file(args.input)},
    )
    write_json(out_path, certificate_to_dict(outcome) if certified else exhaustion_to_dict(outcome))
    write_json(out_path.with_name(out_path.name + ".run.json"), report.to_dict())
    if certified:
        print(f"certificate: point={outcome.point} j={outcome.j} a_interval={outcome.a_interval}")
        return EXIT_OK
    print(f"exhaustion: no beam over {outcome.scanned} scanned points")
    return EXIT_EXHAUSTION


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    try:
        body = json.loads(Path(args.cert).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"certificate {args.cert}: not valid JSON: {exc}") from None
    cert = certificate_from_dict(body)
    raster = load_raster(args.raster)
    result = verify_certificate(raster, cert, args.refinement, _sampling(cfg))
    if result.ok:
        print(f"certificate verified at refinement {args.refinement}")
        return EXIT_OK
    for f in result.failures:
        print(f"FAIL: {f}")
    return EXIT_VERIFY_FAIL


def _cmd_harness(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    raster = load_raster(args.input)
    params = _params(cfg)
    if params.requires_swap:
        raise ValueError("harness operates in the beta > 1 system; swap axes first")
    grid = raster.grid
    if grid != GridSpec(grid.n):
        raise ValueError(f"harness needs the unit window, got {grid}")
    constants = HarnessConstants.for_density(
        cfg.delta, p=cfg.p, alpha=cfg.alpha, c0=cfg.c0, tau=cfg.tau, rho=cfg.rho
    )
    bound = measure(raster) - 4.0 * constants.tau
    if not np.isfinite(bound):
        raise ValueError(f"the bound integral(f) - 4 tau is {bound} at tau = {constants.tau:g}")
    cutoff = build_cutoff(params, cfg.nodes, cfg.plateau_frac)
    # One rho list serves the square sums, the small-t rows and the decompositions.
    rhos = args.rhos or [constants.rho]
    cvars = [replace(constants, rho=rho) for rho in rhos]

    # Blocks past J0, up to 8, whose rho*c_j resolves on the grid at the smallest rho.
    j0 = compute_j0(constants.tau, params)
    blocks = args.blocks or [
        j for j in range(j0 + 1, 9) if min(rhos) * 2.0 ** (-2 * j) >= grid.h
    ]
    if not blocks:
        raise ValueError("no admissible blocks: raise the resolution, lower rho, or raise tau")
    if min(blocks) <= j0:
        raise ValueError(
            f"block index {min(blocks)} must exceed J0 = {j0} for tau = {constants.tau:g}"
        )
    # Before any work: each block's arcs span a cell but not the window, and
    # its smoothing scale rho * c_j spans a cell at each rho.
    ladder = default_ladder(max(blocks))
    for j in blocks:
        _block_arcs(grid, params, j, ladder.block(j)[0])
        for rho in rhos:
            _block_scales(grid, ladder, j, rho)
    sq = None
    if len(blocks) >= 2 and blocks == list(range(blocks[0], blocks[-1] + 1)):
        sq = [compute_sq_sums(raster, ladder, blocks[0] - 1, blocks[-1], cvar) for cvar in cvars]
    runs, hits = fields.runs, block_fields.hits

    decs, grid_rows, smallt_reports = [], [], []
    for j in blocks:
        smallt = check_smallt_scaling(raster, j, ladder, rhos, cutoff, cfg.t_per_octave)
        smallt_reports.append(smallt)
        for cvar, (_, s_val, s_ratio) in zip(cvars, smallt.rows):
            rep = compute_decomposition(
                raster, j, ladder, cutoff, cvar, cfg.t_per_octave,
                check_hypothesis=args.check_hypothesis,
            )
            decs.append(rep)
            grid_rows.append({**asdict(rep), "smallt_s": s_val, "smallt_s_over_rho": s_ratio})

    level = round(np.log2(grid.n)) - 1
    rng = np.random.default_rng(cfg.seed)
    noise = ScalarField(grid, rng.random((grid.n, grid.n)))
    detail = ScalarField(grid, noise.values - martingale_average(noise, level).values)
    gaps = list(range(0, min(6, level - 1) + 1))
    rows, alpha_fit = decay_sweep(detail, level, gaps, cfg.p, cutoff, cfg.t_per_octave)
    computed = fields.runs - runs
    requested = computed + block_fields.hits - hits
    print(f"fields: computed {computed} of {requested} requested", file=sys.stderr)

    outdir = cfg.resolved_outdir()
    outdir.mkdir(parents=True, exist_ok=True)
    payload = harness_to_dict(decs, smallt_reports, sq)
    payload["decay"] = {"rows": [[g, r] for g, r in rows], "alpha_fit": alpha_fit}
    payload["config"] = cfg.to_dict()
    payload["input_digest"] = sha256_file(args.input)
    write_json(outdir / "harness.json", payload)
    atomic_write_text(outdir / "grid.csv", grid_csv(grid_rows))
    atomic_write_text(outdir / "decay.csv", decay_csv(rows, cfg.p, cfg.seed))
    print(f"wrote {outdir}/harness.json, grid.csv ({len(grid_rows)} rows), decay.csv")
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    n = min(cfg.n, 256)
    grid = GridSpec(n)
    params = _params(cfg)
    cutoff = build_cutoff(params, cfg.nodes, cfg.plateau_frac)

    rows = []

    def timed(name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        rows.append((name, time.perf_counter() - t0))
        return out

    # What every command pays before its work: a fresh interpreter importing
    # the CLI.  VmHWM, not ru_maxrss, which Linux carries across exec.
    src = str(Path(__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    probe = ("import pinbeam.cli\nprint(next(line.split()[1] for line in open('/proc/self/status')"
             " if line.startswith('VmHWM:')))")
    child = timed("cold start", subprocess.run, [sys.executable, "-c", probe],
                  env={**os.environ, "PYTHONPATH": path},
                  capture_output=True, text=True, check=True, timeout=60)
    cold_start_kb = int(child.stdout)

    raster = timed("generate_random", generate_random, grid, cfg.delta, cfg.seed)
    f = indicator(raster)
    timed("curve_average x1000",
          lambda: [curve_average(f, 0.25, (0.3, 0.3), cutoff) for _ in range(1000)])
    # Smoothing loads scipy.fft on first use; time that apart from the work.
    timed("scipy.fft import", importlib.import_module, "scipy.fft")
    timed("poisson_smooth", poisson_smooth, f, 0.05)
    timed("sup field block j=2", fields.extremal_conv_field, f.values, grid, cutoff,
          (0.0625, 0.125), "absmax")
    cert = timed("prospect first cell", prospect, raster, default_ladder(2), params, _sampling(cfg))
    if isinstance(cert, BeamCertificate):  # a sparse --delta may exhaust instead
        with tempfile.TemporaryDirectory() as tmp:
            timed("certificate JSON",
                  lambda: write_json(Path(tmp) / "cert.json", certificate_to_dict(cert)))
        timed("verify refinement 4", verify_certificate, raster, cert, 4, _sampling(cfg))
    timed("carve block 2", _carved_quadrant, n, 2, cutoff, cfg.t_per_octave)

    # Every cell fails both blocks, so the scan runs over all 6,144 cells.
    strip_params = CurveParams(2.0, 1.0, 1.05)
    strips = constructions.dead_strip_set(128, strip_params, default_ladder(2), 2)
    outcome = timed("prospect exhaustion", prospect, strips, default_ladder(2), strip_params,
                    _sampling(cfg))
    with tempfile.TemporaryDirectory() as tmp:
        timed("exhaustion report",
              lambda: write_json(Path(tmp) / "exhaustion.json", exhaustion_to_dict(outcome)))
    # The same scan where it meets tie samples: at theta = 1.04 and 64 nodes,
    # one block-1 scale holds 3, which take point lookups over all 6,144 cells.
    tie_params = CurveParams(2.0, 1.0, 1.04)
    tie_strips = constructions.dead_strip_set(128, tie_params, default_ladder(2), 2)
    timed("prospect exhaustion tie scale", prospect, tie_strips, default_ladder(2), tie_params,
          replace(_sampling(cfg), nodes=64))

    # The reduce flow's square sums: depth 3, rho = 1/4, every s_hi radius
    # capped at n - 1; its kernel spectra are built here, not cached.
    unit = generate_random(GridSpec(1024), cfg.delta, cfg.seed)
    timed("sq sums N=1024", compute_sq_sums, unit, default_ladder(3), 1, 3,
          HarnessConstants(tau=0.1, rho=0.25))
    # One cold kernel spectrum spanning an N=2048 window: rad = n - 1, L = 4096.
    timed("spectra N=2048", smoothing._kernel_spectrum, GridSpec(2048), 0.5,
          smoothing._transform_length(2048, 2047))
    # Only a full window counts, so on a random set both radii are scanned.
    big = generate_random(GridSpec(2048, side=4.0), cfg.delta, cfg.seed)
    timed("dense window N=2048", find_dense_window, big, 1.0, (1.0, 0.5))

    for name, dt in rows:
        print(f"{name:30s} {dt * 1000:10.1f} ms")
    print(f"{'cold start VmHWM':30s} {cold_start_kb / 1024:10.1f} MB")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pinbeam",
        description="Curve-averaging operators and pinned-beam search on raster sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", help="generate a raster set")
    _add_config_args(sp)
    sp.add_argument("--kind", choices=["random", "full", "blocks", "stripes", "carved"],
                    default="random")
    sp.add_argument("--out", required=True)
    sp.add_argument("--block", type=int, default=2, help="ladder block for stripes/carved")
    sp.add_argument("--block-cells", type=int, default=None, help="cells per checker block")
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("prospect", help="search for a pinned beam")
    _add_config_args(sp)
    sp.add_argument("--input", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--ladder-depth", type=int, default=None)
    sp.set_defaults(func=_cmd_prospect)

    sp = sub.add_parser("verify", help="re-check a certificate")
    _add_config_args(sp)
    sp.add_argument("--cert", required=True)
    sp.add_argument("--raster", required=True)
    sp.add_argument("--refinement", type=int, default=1)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("harness", help="evaluate the block decomposition inequalities")
    _add_config_args(sp)
    sp.add_argument("--input", required=True)
    sp.add_argument("--blocks", type=int, nargs="+", default=None)
    sp.add_argument("--rhos", type=float, nargs="+", default=None)
    sp.add_argument("--check-hypothesis", action="store_true")
    sp.set_defaults(func=_cmd_harness)

    sp = sub.add_parser("bench", help="timing micro-benchmarks")
    _add_config_args(sp)
    sp.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
