"""Benchmark harness for unitdist: one workload per run, every output checked.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload alpha_exact --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

Workloads (see workloads.py): alpha_exact, gosset_certificate, chi_grid.

One process, one thread, a closed loop with one caller: the operations of the
workload run in a fixed cycle, each issued after the previous one returns,
until --seconds have passed and every operation has run at least once. Inputs
are built in set-up, which runs SETUP_REPEATS times; its median is setup_s.

With --trace 0 the run reports the end-to-end metrics, with tracing off. With
--trace 1 it wraps the calls into each module (spans.py), reports per-layer
metrics, and writes its spans to .perfbench-trace/ under the repository root.
Figures are per pass: for each operation the median (times) or the value
(counts) over its executions in the run, summed over the operations. Times
are in calibrated seconds (calibrate.py): measured seconds scaled by the speed
of a fixed reference kernel sampled throughout the run, so that the host's
changes of speed cancel out. The measured seconds are printed as well.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. attempted counts operation executions; failed
counts those that raised or failed a check, plus a node count that differs
from the one recorded in baseline.json for the same source tree and seed.
The exit code is 0 when every check passed, 1 when one failed, and 2 when
the program cannot be found or imported (no result is printed then).
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
DEFAULT_SEED = 1
# Workloads whose inputs do not depend on the seed: one node count for all seeds.
SEED_FREE = {"alpha_exact", "chi_grid"}

# name -> (unit, meaning); "better" and "bound" live in BENCHMARK.json.
END_TO_END = {
    "pass_s": ("s", "one pass over the workload's operations, in calibrated seconds"),
    "nodes": ("count", "branch-and-bound nodes of one pass"),
    "nodes_per_s": ("1/s", "nodes / pass_s"),
    "open_values": ("count", "sum over answers of upper - lower + 1; one per exact answer"),
    "setup_s": ("s", "import plus median set-up (graphs, ball, pool file), calibrated"),
    "peak_rss_mb": ("MB", "peak resident memory of the process"),
}


def _import_program() -> float:
    """Import unitdist from src/ of this checkout and return the seconds it
    took, or exit 2 without a result."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    try:
        import unitdist
    except ImportError as exc:
        print(f"perfbench: cannot import unitdist from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(unitdist.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: unitdist imported from {unitdist.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return time.perf_counter() - start


def source_digest() -> str:
    """SHA-256 over the program's source files, to tell one source tree from another."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "unitdist").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _median_time(records) -> float:
    good = [seconds for seconds, out in records if out is not None]
    return statistics.median(good or [seconds for seconds, _ in records])


def _first(records):
    return next((out for _, out in records if out is not None), None)


def run_workload(name: str, seed: int, seconds: float, trace: bool, *,
                 setup=None, small: bool = False, import_s: float = 0.0) -> tuple[dict, list[str]]:
    """Set up, measure and check one workload; (result object, failure messages)."""
    import unitdist
    import calibrate
    import spans
    import workloads

    setup = setup or workloads.WORKLOADS[name]
    tracer = spans.Tracer() if trace else None
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    ref = calibrate.Reference()
    try:
        if tracer:
            tracer.install(unitdist)
        with ref:
            setup_times = []
            for _ in range(SETUP_REPEATS):
                if tracer:
                    tracer.begin_op("setup")
                spent, start = ref.spent, time.perf_counter()
                ops = setup(seed, workdir, small)
                setup_times.append(time.perf_counter() - start - (ref.spent - spent))
                if tracer:
                    tracer.end_op()

            records = {op.name: [] for op in ops}
            messages = []
            executed = 0
            start = time.perf_counter()
            while executed < len(ops) or time.perf_counter() - start < seconds:
                op = ops[executed % len(ops)]
                if tracer:
                    tracer.begin_op(op.name)
                spent, t0 = ref.spent, time.perf_counter()
                try:
                    out = op.run()
                except Exception as exc:  # counted as a failed operation
                    out = None
                    traceback.print_exc(file=sys.stderr)
                    messages.append(f"{op.name}: raised {exc!r}")
                elapsed = time.perf_counter() - t0 - (ref.spent - spent)
                if tracer:
                    tracer.end_op()
                records[op.name].append((elapsed, out))
                executed += 1
        if tracer:
            tracer.uninstall()

        failed = sum(out is None for runs in records.values() for _, out in runs)
        for op in ops:
            first = _first(records[op.name])
            for _, out in records[op.name]:
                if out is None:
                    continue
                errors = op.check(out)
                if (out.nodes, out.open_values) != (first.nodes, first.open_values):
                    errors.append(f"{op.name}: nodes/open values {out.nodes}/{out.open_values} "
                                  f"!= {first.nodes}/{first.open_values} of its first run")
                messages += errors
                failed += bool(errors)

        measured_pass_s = sum(_median_time(runs) for runs in records.values())
        measured_setup_s = import_s + statistics.median(setup_times)
        pass_s = measured_pass_s * ref.factor()
        firsts = [_first(runs) for runs in records.values()]
        nodes = sum(out.nodes for out in firsts if out)
        open_values = sum(out.open_values for out in firsts if out)
        if not small:
            mismatch = _compare_recorded(name, seed, nodes, open_values)
            if mismatch:
                messages.append(mismatch)
                failed += 1

        if tracer:
            values = tracer.layer_metrics([op.name for op in ops], pass_s)
            units = {metric: unit for metric, unit, _ in spans.PER_LAYER}
            tracer.write(ROOT / ".perfbench-trace" / f"{name}-seed{seed}.jsonl")
        else:
            values = {
                "pass_s": pass_s,
                "nodes": nodes,
                "nodes_per_s": nodes / pass_s,
                "open_values": open_values,
                "setup_s": measured_setup_s * ref.factor(),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = {metric: unit for metric, (unit, _) in END_TO_END.items()}
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": failed == 0,
        "attempted": executed,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }
    print(f"measured pass_s={measured_pass_s:.4f} setup_s={measured_setup_s:.4f}; "
          f"reference kernel mean={statistics.fmean(ref.samples) * 1e3:.2f} ms "
          f"over {len(ref.samples)} samples, calibration factor {ref.factor():.4f}")
    for op in ops:
        runs = records[op.name]
        first = _first(runs)
        print(f"op {op.name} runs={len(runs)} measured median_s={_median_time(runs):.4f} "
              f"nodes={first.nodes if first else 'n/a'}")
    return result, messages


def _compare_recorded(name: str, seed: int, nodes: int, open_values: int) -> str | None:
    """A message when this source tree's counts differ from those recorded for it."""
    path = HERE / "baseline.json"
    if not path.exists():
        return None
    recorded = json.loads(path.read_text())
    counts = recorded.get("counts", {}).get(name, {})
    counts = counts.get("any", counts.get(str(seed)))
    if counts is None:
        return None
    same_tree = recorded.get("source_sha256") == source_digest()
    if (nodes, open_values) == (counts["nodes"], counts["open_values"]):
        return None
    text = (f"{name} seed {seed}: nodes={nodes} open_values={open_values}, recorded "
            f"nodes={counts['nodes']} open_values={counts['open_values']}")
    if same_tree:
        return "NODE COUNTS DIFFER between two runs of one source tree: " + text
    print(f"perfbench: node counts changed since baseline.json: {text}", file=sys.stderr)
    return None


def report(result: dict, messages: list[str]) -> None:
    """Print each metric by name with its unit, the failures, then the JSON line."""
    for message in messages:
        print(f"FAIL {message}", file=sys.stderr)
    for metric, entry in result["metrics"].items():
        print(f"metric {metric}={entry['value']:.6g} {entry['unit']}")
    print(f"fail_frac={result['failed']}/{result['attempted']}")
    print(json.dumps(result))


def self_check(import_s: float) -> int:
    """Prove that every metric prints by name with its unit, and that a wrong
    expected value is counted as a failure. Small instances, under a minute."""
    import workloads

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            out = io.StringIO()
            with redirect_stdout(out):
                report(*run_workload(name, DEFAULT_SEED, 0, bool(trace),
                                     small=True, import_s=import_s))
            lines = out.getvalue().splitlines()
            result = json.loads(lines[-1])
            printed = {m: e["unit"] for m, e in result["metrics"].items()}
            for metric, unit in wanted[trace].items():
                if f"metric {metric}=" not in out.getvalue() or printed.get(metric) != unit:
                    problems.append(f"{name} trace={trace}: {metric} [{unit}] not printed")
            if set(printed) != set(wanted[trace]):
                problems.append(f"{name} trace={trace}: metrics {sorted(printed)} "
                                f"differ from BENCHMARK.json")
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: a check failed")

    def wrong_expectation(seed, workdir, small):
        ops = workloads.alpha_exact(seed, workdir, small)
        graph = workloads.hypercube.half_cube(5, 2)[0]
        return [workloads._alpha_op("h5_2_expect_3", graph, 3)] + ops[1:]

    with redirect_stdout(io.StringIO()):
        result, _ = run_workload("alpha_exact", DEFAULT_SEED, 0, False,
                                 setup=wrong_expectation, small=True)
    if result["correct"] or result["failed"] != 1:
        problems.append(f"wrong expected alpha not counted: failed={result['failed']}")
    for problem in problems:
        print(f"self-check FAIL {problem}")
    print("self-check " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["alpha_exact", "gosset_certificate", "chi_grid"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run small instances and prove the metrics and checks work")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    import_s = _import_program()
    if args.self_check:
        return self_check(import_s)
    result, messages = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                    import_s=import_s)
    report(result, messages)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
