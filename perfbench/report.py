"""Run every workload over several seeds and summarise the results.

Usage (from the root of a checkout):

    python3 perfbench/report.py [--seeds 1-10] [--trace-seeds 1-2] [--out FILE]

Runs ``run.py`` once per workload of BENCHMARK.json and seed with
``--trace 0`` and once per trace seed with ``--trace 1``, one run at a time,
for ``run_seconds`` from BENCHMARK.json. Prints, per workload, each metric's
median, quartiles and spread (interquartile range over median) with its
unit, the failure ratio, the RMSE reduction of ``select`` workloads and the
share of traced wall time each layer took. With ``--out`` the same summary is written as JSON; that is
how ``baseline.json`` was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result, record) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    record = next(json.loads(ln[len("record "):]) for ln in lines if ln.startswith("record "))
    return json.loads(lines[-1]), record


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def summarise(results: list[tuple[dict, dict]], spec: dict, traced: list[tuple[dict, dict]]) -> dict:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out: dict = {"metrics": {}, "layers": {}, "layer_share": {}}
    for name, bound in bounds.items():
        vals = [r["metrics"][name]["value"] for r, _ in results]
        out["metrics"][name] = {**summary(vals), "unit": results[0][0]["metrics"][name]["unit"],
                                "bound": bound}
    out["attempted"] = sum(r["attempted"] for r, _ in results)
    out["failed"] = sum(r["failed"] for r, _ in results)
    out["fail_ratio"] = out["failed"] / out["attempted"]
    out["correct"] = all(r["correct"] for r, _ in results + traced)
    reductions = [rec["rmse_reduction_pct"] for _, rec in results if "rmse_reduction_pct" in rec]
    if reductions:
        out["rmse_reduction_pct"] = statistics.median(reductions)
    if traced:
        walls = [rec["traced_wall_s"] for _, rec in traced]
        for m in spec["per_layer"]:
            vals = [r["metrics"][m["name"]]["value"] for r, _ in traced]
            out["layers"][m["name"]] = {"median": statistics.median(vals), "unit": m["unit"]}
            if m["unit"] == "s" and m["name"] != "trace.overhead_s":
                out["layer_share"][m["name"]] = statistics.median(v / w for v, w in zip(vals, walls))
        out["traced_wall_s"] = statistics.median(walls)
    out["record"] = results[0][1]
    return out


def print_summary(workload: str, s: dict) -> None:
    print(f"== {workload}: {s['failed']}/{s['attempted']} failed (fail_ratio {s['fail_ratio']:.3g})")
    for name, m in s["metrics"].items():
        spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
        flag = "" if m["spread"] is None or m["spread"] < m["bound"] / 3 else "  <- spread >= bound/3"
        print(f"  {name:20s} {m['median']:.6g} {m['unit']}  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}"
              f"  spread {spread} (bound {m['bound']}, n={len(m['values'])}){flag}")
    if "rmse_reduction_pct" in s:
        print(f"  {'rmse_reduction_pct':20s} {s['rmse_reduction_pct']:.4f} %")
    for name, share in sorted(s["layer_share"].items(), key=lambda kv: -kv[1]):
        if share > 0:
            print(f"  layer {name:34s} {100.0 * share:5.1f}% of traced wall")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="seed range for end-to-end runs")
    parser.add_argument("--trace-seeds", default="1", help="seed range for traced runs, '' for none")
    parser.add_argument("--out", default=None, help="write the summary as JSON here")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    trace_seeds = _seeds(args.trace_seeds) if args.trace_seeds else []
    report = {}
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run_once(workload, s, spec["run_seconds"], 0) for s in _seeds(args.seeds)]
        traced = [run_once(workload, s, spec["run_seconds"], 1) for s in trace_seeds]
        report[workload] = summarise(results, spec, traced)
        print_summary(workload, report[workload])
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if all(s["correct"] for s in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
