"""Summarize saved benchmark results: median, quartiles and spread per metric.

    python3 perfbench/summarize.py [--out FILE]

Groups the result files that ``run.py`` saved under ``.perfbench_out/``
(smoke runs excluded) by workload and trace mode.  For every metric it
prints the median over runs and the spread, the distance between the first
and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  With
``--out`` it also writes the summary as JSON, with the provenance fields
the runs share.
"""

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(results_dir: Path) -> dict:
    groups: dict = {}
    provenance: dict | None = None
    for path in sorted(results_dir.glob("*-trace[01].json")):
        record = json.loads(path.read_text())
        prov = record["provenance"]
        key = (prov["workload"], "per_layer" if prov["trace"] else "end_to_end")
        g = groups.setdefault(key, {"sizes": prov["sizes"], "seeds": [], "attempted": [],
                                    "failed": [], "metrics": {}})
        g["seeds"].append(prov["seed"])
        g["attempted"].append(record["result"]["attempted"])
        g["failed"].append(record["result"]["failed"])
        for name, m in record["result"]["metrics"].items():
            g["metrics"].setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
        shared = {k: v for k, v in prov.items() if k not in ("seed", "trace", "sizes")}
        provenance = shared if provenance is None else {
            k: v for k, v in provenance.items() if shared.get(k) == v}

    out: dict = {"provenance": provenance, "workloads": {}}
    for (workload, kind), g in sorted(groups.items()):
        metrics = {}
        for name, m in g["metrics"].items():
            vals = m["values"]
            med = statistics.median(vals)
            entry = {"unit": m["unit"], "median": med, "runs": len(vals)}
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                entry.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
            metrics[name] = entry
        out["workloads"].setdefault(workload, {})[kind] = {
            "sizes": g["sizes"], "seeds": g["seeds"], "ops_attempted": sum(g["attempted"]),
            "ops_failed": sum(g["failed"]), "metrics": metrics,
        }
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path)
    args = p.parse_args()
    summary = summarize(ROOT / ".perfbench_out")
    for workload, kinds in summary["workloads"].items():
        for kind, g in kinds.items():
            print(f"\n{workload} / {kind}: {len(g['seeds'])} runs, "
                  f"{g['ops_failed']} of {g['ops_attempted']} ops failed")
            for name, m in g["metrics"].items():
                spread = f"{m['spread']:.3f}" if "spread" in m else "-"
                print(f"  {name:46s} {m['median']:>14.6g} {m['unit']:6s} spread {spread}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
