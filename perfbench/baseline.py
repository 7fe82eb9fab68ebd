"""Repeat the benchmark over seeds and summarise it.

    python3 perfbench/baseline.py [--runs 10] [--workloads a,b] [--seconds S] [--write]

Runs `run.py` once per seed (1..runs) on each workload (by default those
of BENCHMARK.json) with tracing off, one run at a time.  Prints every
metric's median and quartile spread (IQR / median) with its unit, and
checks BENCHMARK.json against the metrics `run.py` reports.  With
`--write` each workload also gets one traced run, and its medians,
spreads and per-layer table are saved to `perfbench/baseline.json`.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run
import workloads


def one(workload, seed, seconds, trace):
    """The JSON result of one run."""
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def check_spec(seconds):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["run_seconds"] == seconds, "run_seconds differs from --seconds"
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    for key, metrics in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[key]} == metrics, f"{key} differs"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=None,
                    help="comma-separated; default: those of BENCHMARK.json")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    check_spec(seconds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    for workload in names:
        results, printed = [], []
        for seed in range(1, args.runs + 1):
            results.append(one(workload, seed, seconds, 0))
            printed.append(json.loads((run.WORK / f"run-{workload}-seed{seed}.json").read_text()))
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload}: {args.runs} runs, fail_ratio {failed}/{attempted}")
        rows = {}
        for name, unit in run.END_TO_END.items():
            values = [r["metrics"][name]["value"] for r in results]
            median, iqr = spread(values)
            rows[name] = {"unit": unit, "median": median, "iqr_share": iqr,
                          "values": values}
            flag = "" if iqr < bounds[name] / 3 else "  <-- over a third of the bound"
            print(f"  {name:<14} median {median:12.6f} {unit:<3} IQR/median {iqr:7.3%}"
                  f"  bound {bounds[name]:.0%}{flag}")
            print("      " + " ".join(f"{v:.4g}" for v in values))
        for name in ("cpu_s", "wall_s", "req_p50_s", "req_p90_s"):
            values = [p[name] for p in printed]
            median, iqr = spread(values)
            rows[name] = {"unit": "s", "median": median, "iqr_share": iqr,
                          "values": values, "in_result": False}
            print(f"  {name:<14} median {median:12.6f} s   IQR/median {iqr:7.3%}  (printed only)")
        summary[workload] = {"fail_ratio": failed / attempted, "end_to_end": rows}
        if args.write:
            one(workload, 1, seconds, 1)
            trace_file = run.WORK / f"trace-{workload}-seed1.json"
            layers = json.loads(trace_file.read_text())["per_layer"]
            summary[workload]["per_layer_seed1"] = layers
    if args.write:
        path = run.BENCH / "baseline.json"
        recorded = json.loads(path.read_text()) if path.exists() else {}
        recorded.update(summary)
        path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
