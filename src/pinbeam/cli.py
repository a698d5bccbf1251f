"""Command-line surface: gen | prospect | verify | harness | bench.

Exit codes are stable API: 0 success, 1 error, 2 verification failure,
3 exhaustion.  All numeric parameters come from flags or an optional JSON
config file (flags win); only the output directory may come from the
environment (PINBEAM_OUTDIR).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import constructions
from .fields import field_cache
from .harness import (
    HarnessConstants,
    _block_scales,
    check_smallt_scaling,
    compute_decomposition,
    compute_j0,
    compute_sq_sums,
    decay_sweep,
)
from .kernel import CurveParams, build_cutoff, curve_average, validate_params
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

_CONFIG_FLAGS = [
    ("beta", float), ("eta", float), ("theta", float), ("delta", float),
    ("n", int), ("nodes", int), ("plateau_frac", float), ("cprime", float),
    ("p", float), ("alpha", float), ("c0", float), ("rho", float),
    ("tau", float), ("seed", int), ("t_per_octave", int), ("subsample", int),
    ("outdir", str),
]


def _add_config_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", type=Path, help="JSON config file; flags override it")
    for name, typ in _CONFIG_FLAGS:
        sp.add_argument(f"--{name.replace('_', '-')}", type=typ, default=None, dest=name)


def _build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        file_cfg, defaults = json.loads(args.config.read_text()), cfg.to_dict()
        if not isinstance(file_cfg, dict):
            raise ValueError(f"config {args.config}: expected a JSON object, got {file_cfg!r}")
        for name, typ in _CONFIG_FLAGS:
            value = file_cfg.get(name)
            # JSON ints are accepted as reals; bool is not an int here.
            ok = type(value) in ((int, float) if typ is float else (typ,))
            if name in file_cfg and not (ok or value is None and defaults[name] is None):
                raise ValueError(f"config key {name!r} must be {typ.__name__}, got {value!r}")
        cfg = RunConfig.from_dict({**defaults, **file_cfg})
    overrides = {
        name: getattr(args, name)
        for name, _ in _CONFIG_FLAGS
        if getattr(args, name, None) is not None
    }
    return replace(cfg, **overrides)


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


# ---------------------------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    grid = GridSpec(cfg.n)
    if args.kind == "random":
        raster = generate_random(grid, cfg.delta, cfg.seed)
    elif args.kind == "full":
        raster = RasterSet(grid, np.ones((cfg.n, cfg.n), dtype=bool))
    elif args.kind == "blocks":
        cells = args.block_cells or max(1, cfg.n // 8)
        raster = constructions.checkerboard(cfg.n, cells)
    elif args.kind == "stripes":
        params = _params(cfg)
        ladder = default_ladder(max(args.block, 1))
        raster = constructions.dead_strip_set(cfg.n, params, ladder, args.block)
    elif args.kind == "carved":
        params = _params(cfg)
        ladder = default_ladder(max(args.block, 1))
        cutoff = build_cutoff(params, cfg.nodes, cfg.plateau_frac)
        full = RasterSet(grid, np.ones((cfg.n, cfg.n), dtype=bool))
        region = np.zeros((cfg.n, cfg.n), dtype=bool)
        region[: cfg.n // 2, : cfg.n // 2] = True
        raster = constructions.carve_block_arcs(full, region, ladder, args.block, cutoff)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown kind {args.kind}")
    save_raster(raster, args.out, write_sidecar=True)
    print(f"wrote {args.out} (measure {measure(raster):.6g})")
    return EXIT_OK


def _cmd_prospect(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    t0 = time.perf_counter()
    raster = load_raster(args.input)
    params = _params(cfg)
    depth = args.ladder_depth or j_bound(min(cfg.delta, 0.5), cfg.cprime)
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
    cert = certificate_from_dict(json.loads(Path(args.cert).read_text()))
    raster = load_raster(args.raster)
    result = verify_certificate(raster, cert, args.refinement, _sampling(cfg))
    if result.ok:
        print(f"certificate verified at refinement {args.refinement}")
        return EXIT_OK
    for f in result.failures:
        print(f"FAIL: {f}")
    return EXIT_VERIFY_FAIL


def _admissible_blocks(constants: HarnessConstants, params: CurveParams,
                       grid: GridSpec, depth: int = 8) -> list[int]:
    j0 = compute_j0(constants.tau, params)
    return [j for j in range(j0 + 1, depth + 1) if constants.rho * 2.0 ** (-2 * j) >= grid.h]


def _cmd_harness(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    raster = load_raster(args.input)
    params = _params(cfg)
    if params.requires_swap:
        raise ValueError("harness operates in the beta > 1 system; swap axes first")
    constants = HarnessConstants.for_density(
        cfg.delta, p=cfg.p, alpha=cfg.alpha, c0=cfg.c0, tau=cfg.tau, rho=cfg.rho
    )
    cutoff = build_cutoff(params, cfg.nodes, cfg.plateau_frac)
    grid = raster.grid

    blocks = args.blocks or _admissible_blocks(constants, params, grid)
    if not blocks:
        raise ValueError(
            "no admissible blocks: raise the resolution, lower rho, or raise tau"
        )
    rhos = args.rhos or [constants.rho]
    ladder = default_ladder(max(blocks))
    square_sums = len(blocks) >= 2 and blocks == list(range(blocks[0], blocks[-1] + 1))
    if square_sums:
        # The square sums run last; check their smoothing scales before any field.
        for j in blocks:
            _block_scales(grid, ladder, j, constants.rho)
    hits, misses = field_cache.hits, field_cache.misses

    decs, grid_rows, smallt_reports = [], [], []
    for j in blocks:
        smallt = check_smallt_scaling(raster, j, ladder, rhos, cutoff, cfg.t_per_octave)
        smallt_reports.append(smallt)
        for rho, s_val, s_ratio in smallt.rows:
            cvar = replace(constants, rho=rho)
            rep = compute_decomposition(
                raster, j, ladder, cutoff, cvar, cfg.t_per_octave,
                check_hypothesis=args.check_hypothesis,
            )
            decs.append(rep)
            grid_rows.append({
                "j": j, "rho": rho, "lhs": rep.lhs,
                "term1": rep.term1, "term2": rep.term2, "term3": rep.term3,
                "term4": rep.term4, "tail": rep.tail,
                "triangle_ok": rep.triangle_ok, "triangle_slack": rep.triangle_slack,
                "smallt_s": s_val, "smallt_s_over_rho": s_ratio,
            })

    sq = None
    if square_sums:
        sq = compute_sq_sums(raster, ladder, blocks[0] - 1, blocks[-1], constants)

    level = round(np.log2(grid.n)) - 1
    rng = np.random.default_rng(cfg.seed)
    noise = ScalarField(grid, rng.random((grid.n, grid.n)))
    detail = ScalarField(grid, noise.values - martingale_average(noise, level).values)
    gaps = list(range(0, min(6, level - 1) + 1))
    rows, alpha_fit = decay_sweep(detail, level, gaps, cfg.p, cutoff, cfg.t_per_octave)
    computed = field_cache.misses - misses
    requested = computed + field_cache.hits - hits
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
    t0 = time.perf_counter()
    raster = generate_random(grid, cfg.delta, cfg.seed)
    rows.append(("generate_random", time.perf_counter() - t0))

    f = indicator(raster)
    t0 = time.perf_counter()
    for _ in range(1000):
        curve_average(f, 0.25, (0.3, 0.3), cutoff)
    rows.append(("curve_average x1000", time.perf_counter() - t0))

    t0 = time.perf_counter()
    poisson_smooth(f, 0.05)
    rows.append(("poisson_smooth", time.perf_counter() - t0))

    from .fields import extremal_conv_field

    t0 = time.perf_counter()
    extremal_conv_field(f.values, grid, cutoff, (0.0625, 0.125), "absmax")
    rows.append(("sup field block j=2", time.perf_counter() - t0))

    t0 = time.perf_counter()
    prospect(raster, default_ladder(2), params, _sampling(cfg))
    rows.append(("prospect first cell", time.perf_counter() - t0))

    # Every cell fails both blocks, so the scan runs over all 6,144 cells.
    strip_params = CurveParams(2.0, 1.0, 1.05)
    strips = constructions.dead_strip_set(128, strip_params, default_ladder(2), 2)
    t0 = time.perf_counter()
    outcome = prospect(strips, default_ladder(2), strip_params, _sampling(cfg))
    rows.append(("prospect exhaustion", time.perf_counter() - t0))

    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        write_json(Path(tmp) / "exhaustion.json", exhaustion_to_dict(outcome))
        rows.append(("exhaustion report", time.perf_counter() - t0))

    # The reduce flow's square sums: depth 3, rho = 1/4, every s_hi radius
    # capped at n - 1; its kernel spectra are built here, not cached.
    unit = generate_random(GridSpec(1024), cfg.delta, cfg.seed)
    t0 = time.perf_counter()
    compute_sq_sums(unit, default_ladder(3), 1, 3, HarnessConstants(tau=0.1, rho=0.25))
    rows.append(("sq sums N=1024", time.perf_counter() - t0))

    # Only a full window counts, so on a random set both radii are scanned.
    big = generate_random(GridSpec(2048, side=4.0), cfg.delta, cfg.seed)
    t0 = time.perf_counter()
    find_dense_window(big, 1.0, (1.0, 0.5))
    rows.append(("dense window N=2048", time.perf_counter() - t0))

    for name, dt in rows:
        print(f"{name:24s} {dt * 1000:10.1f} ms")
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
