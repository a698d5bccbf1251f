"""pinbeam benchmark: one closed-loop client, one workload per process.

Usage (from the repository root):

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 15 --trace 0

One op runs at a time and the next starts when it has finished and been
checked.  Each op's input is generated from (seed, op index) before the op
and is not timed; the op itself (load -> compute -> write) is timed; its
output check runs after the clock stops.  The run stops starting ops once
the timed ops add up to ``--seconds``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced ops and prints the per-layer metrics (see tracing.py).
The last line of stdout is the result object; the line before it holds
provenance and run details.  Both are also saved under ``.perfbench_out/``.
``--smoke`` shrinks every workload so that a run takes seconds.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("decompose", "exhaust", "reduce")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 3  # this process plus two fresh interpreters
WALL_CAP_S = 120.0  # start no op after this; ops take seconds, the run must end by 180 s
TAIL_BEYOND = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def pin_threads() -> dict:
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return {var: os.environ[var] for var in THREAD_VARS}


def tail(walls):
    """Nearest-rank tail: the slowest op with at least k ops beyond it.

    k = TAIL_BEYOND once a run has 4 * TAIL_BEYOND ops.  Shorter runs keep a
    quarter of their ops beyond the tail (k = n // 4), so that it never
    falls below the upper quartile and does not rest on the single slowest
    op.  Returns (value, percentile, k).
    """
    s = sorted(walls)
    k = min(TAIL_BEYOND, len(s) // 4)
    rank = len(s) - k  # 1-based rank of the reported op
    return s[rank - 1], 100.0 * rank / len(s), k


def op_rng(seed: int, index: int):
    import numpy as np

    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def provenance(args, threads, wl) -> dict:
    import hashlib
    import importlib.util

    import numpy
    import scipy

    git_sha, dirty = None, None
    if (ROOT / ".git").exists():
        def git(*cmd):
            return subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                                  text=True, timeout=30, check=True).stdout.strip()
        try:
            git_sha = git("rev-parse", "HEAD")
            dirty = bool(git("status", "--porcelain", "--", "src"))
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for f in sorted((SRC / "pinbeam").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.exists() else []
    cpu = next((line.split(":", 1)[1].strip() for line in lines if line.startswith("model name")),
               platform.processor())
    return {
        "cpu": cpu,
        "git_sha": git_sha,
        "git_dirty_src": dirty,
        "src_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "PINBEAM_DISABLE_NUMBA": os.environ.get("PINBEAM_DISABLE_NUMBA"),
        "threads": threads,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "sizes": wl.sizes(),
    }


def probe_setup(args) -> float:
    """Set-up time of a fresh interpreter running the same workload."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit, so that a running set-up probe is killed
    # and waited for, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "pinbeam" / "__init__.py").is_file():
        print(f"error: pinbeam sources not found under {SRC}", file=sys.stderr)
        return 2
    threads = pin_threads()  # before anything imports numpy
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.smoke)
    wl.setup()
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        t = time.perf_counter()
        warm = wl.make_input(op_rng(args.seed, 0), 0, workdir / "input-0.pb")
        gen_s = time.perf_counter() - t
        warm_out = wl.run(warm, workdir)
        setup_s = time.perf_counter() - _T0 - gen_s
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        fails = wl.check(warm, warm_out)
        if fails:
            print(f"error: warm-up op failed its check: {fails[:3]}", file=sys.stderr)
            return 1
        return timed_run(args, threads, wl, workdir, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def timed_run(args, threads, wl, workdir: Path, setup_s: float) -> int:
    from workloads import remove_pb

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    ops = []
    timed = 0.0
    index = 0
    # The other set-ups run between ops, spread over the timed run, so that
    # the ops sample a longer stretch of the machine's speed drift.
    setups = [setup_s]
    more_setups = 0 if args.trace else SETUP_REPEATS - 1

    def need_more():
        if time.perf_counter() - _T0 > WALL_CAP_S:
            return False
        if timed < args.seconds:
            return True
        # A traced run needs at least one traced and one untraced op.
        return tracer is not None and len({op["traced"] for op in ops}) < 2

    while need_more():
        if more_setups and timed >= args.seconds * len(setups) / SETUP_REPEATS:
            setups.append(probe_setup(args))
            more_setups -= 1
        index += 1
        path = workdir / f"input-{index}.pb"
        inp = wl.make_input(op_rng(args.seed, index), index, path)
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.begin_op(index)
            tracer.install()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out, err = wl.run(inp, workdir), None
        except Exception as exc:  # an op that raises counts as failed; the run goes on
            out, err = None, f"{type(exc).__name__}: {exc}"
        t1, c1 = time.perf_counter(), time.process_time()
        if traced:
            tracer.uninstall()
            tracer.end_op(index, t1 - t0)
        if err is None:
            try:
                fails = wl.check(inp, out)
            except Exception as exc:
                fails = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            fails = [err]
        if fails:
            print(f"op {index} failed: {fails[:3]}", file=sys.stderr)
        ops.append({"wall_s": t1 - t0, "cpu_s": c1 - c0, "traced": traced, "ok": not fails})
        timed += t1 - t0
        remove_pb(path)
    for _ in range(more_setups):
        setups.append(probe_setup(args))

    failed = sum(not op["ok"] for op in ops)
    walls = [op["wall_s"] for op in ops]
    detail = {"ops": len(ops), "failed": failed, "fail_ratio": failed / len(ops),
              "op_walls_s": walls, "setup_runs_s": setups}
    if tracer is None:
        tail_s, tail_pct, beyond = tail(walls)
        detail.update(tail_percentile=tail_pct, tail_ops_beyond=beyond)
        metrics = {
            "ops_per_s": {"value": (len(ops) - failed) / sum(walls), "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(walls), "unit": "s"},
            "op_tail_s": {"value": tail_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    else:
        plain = [op for op in ops if not op["traced"]]
        cpu_over_wall = sum(op["cpu_s"] for op in plain) / sum(op["wall_s"] for op in plain)
        metrics = tracer.metrics([op["wall_s"] for op in plain], cpu_over_wall)

    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    record = {"provenance": provenance(args, threads, wl), "detail": detail, "result": result}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(OUT_DIR / f"{stem}-spans.csv")
    print(json.dumps({"provenance": record["provenance"], "detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
