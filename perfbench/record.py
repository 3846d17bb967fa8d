"""Run the benchmark over several seeds and summarise, optionally into baseline.json.

    python3 perfbench/record.py --workloads gosset_certificate --seeds 1-5
    python3 perfbench/record.py --seeds 1-10 --trace-seeds 1-3 --write

Runs perfbench/run.py once per (workload, seed), one run at a time, and prints
for each end-to-end metric the median, the quartiles and the spread (distance
between the quartiles over the median, as statistics.quantiles(n=4) gives
them) next to the metric's bound from BENCHMARK.json. With --trace-seeds it
also makes traced runs and reports the tracing overhead: traced minus
untraced median pass_s.

--write stores the medians, quartiles, per-seed node counts, per-layer medians
and the environment in perfbench/baseline.json, keeping its other keys
(workload reasons and the layer predictions). run.py compares later runs of
the same source tree with the node counts stored there.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                         f"{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values),
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    import run
    import spans

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seeds", default="")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    names = ([w["name"] for w in bench["workloads"]] if args.workloads == "all"
             else args.workloads.split(","))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    path = HERE / "baseline.json"
    baseline = json.loads(path.read_text()) if path.exists() else {}
    for name in names:
        runs = {seed: run_once(name, seed, args.seconds, 0) for seed in _seeds(args.seeds)}
        bad = [seed for seed, r in runs.items() if not r["correct"]]
        if bad:
            raise SystemExit(f"{name}: checks failed on seeds {bad}")
        entry = baseline.setdefault("workloads", {}).setdefault(name, {})
        entry["end_to_end"] = {}
        print(f"== {name}: {len(runs)} runs of {args.seconds} s")
        for metric in bounds:
            s = summary([r["metrics"][metric]["value"] for r in runs.values()])
            entry["end_to_end"][metric] = s
            flag = "" if metric == "setup_s" or s["spread"] < bounds[metric] / 3 else "  WIDE"
            print(f"{metric:>12}: median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.4f}  bound {bounds[metric]}{flag}")
        counts = baseline.setdefault("counts", {}).setdefault(name, {})
        for seed, r in runs.items():
            counts["any" if name in run.SEED_FREE else str(seed)] = {
                "nodes": r["metrics"]["nodes"]["value"],
                "open_values": r["metrics"]["open_values"]["value"]}
        if args.trace_seeds:
            traced = [run_once(name, seed, args.seconds, 1) for seed in _seeds(args.trace_seeds)]
            entry["per_layer_median"] = {
                metric: statistics.median(r["metrics"][metric]["value"] for r in traced)
                for metric, _, _ in spans.PER_LAYER}
            overhead = (entry["per_layer_median"]["trace.pass_s"]
                        - entry["end_to_end"]["pass_s"]["median"])
            entry["trace_overhead_s"] = {
                "traced_minus_untraced_pass_s": overhead,
                "share_of_untraced": overhead / entry["end_to_end"]["pass_s"]["median"],
                "estimated_from_spans_s": entry["per_layer_median"]["trace.overhead_s"],
                "traced_runs": len(traced)}
            print(f"{'trace':>12}: traced pass_s {entry['per_layer_median']['trace.pass_s']:.4f}"
                  f"  overhead {overhead:+.4f} s ({overhead / entry['end_to_end']['pass_s']['median']:+.2%})"
                  f"  span estimate {entry['per_layer_median']['trace.overhead_s']:.4f} s")

    if args.write:
        baseline["source_sha256"] = run.source_digest()
        baseline["environment"] = {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "threads": 1,
            "run_seconds": args.seconds,
            "machine_settings_changed": False,
        }
        path.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
