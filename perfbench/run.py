"""geoloop benchmark: train steps with and without the OT term, and the metrology calls.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload train_ot --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 12

Each run drives ``geoloop.cli.main`` in this process, one call at a time, and
prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  ``--workload all`` runs every workload
untraced and traced, each in its own process, and prints every metric with
its unit.  See README.md in this directory.
"""
import fixed_env  # noqa: F401  (first: BLAS on one thread before numpy loads)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("train_pre_ot", "train_ot", "eval", "probe")


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_info() -> dict:
    import numpy as np

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads_env": os.environ["OPENBLAS_NUM_THREADS"],
                 "threads_runtime": blas_threads()},
    }


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(args) -> int:
    for needed in ("src/geoloop/cli.py", "configs/enigma_high_si.toml"):
        if not (ROOT / needed).is_file():
            print(f"error: {needed} not found; run from a geoloop source checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    os.chdir(ROOT)
    import tracer as tracing
    import workloads

    info = machine_info()
    if info["blas"]["threads_runtime"] not in (None, 1):
        print(f"error: BLAS runs {info['blas']['threads_runtime']} threads, not 1",
              file=sys.stderr)
        return 2

    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(tracer)
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir()
    try:
        run = workloads.Run(args.workload, args.seed, args.seconds, tracer, work)
        workloads.run_workload(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    fingerprints = run.check_fingerprints(WORK / "fingerprints.json")
    metrics, detail = run.end_to_end(peak_rss_mb)

    if args.trace:
        values = tracer.layer_metrics(workloads.LAYER_KINDS[args.workload])
        values["trace.op_ms_p50"] = metrics["op_ms_p50"][0]
        metrics = {name: (values[name], unit) for name, unit, _ in per_layer_spec()}
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write_spans(spans_path)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
        detail["spans"] = len(tracer.spans)
        detail["by_operation_kind"] = tracer.by_kind()
        detail["sinkhorn_loops"] = tracer.sinkhorn_by_kind()

    results_path = WORK / "results.json"
    results = json.loads(results_path.read_text()) if results_path.exists() else {}
    key = f"{args.workload}/seed{args.seed}/seconds{args.seconds}"
    results[f"{key}/trace{args.trace}"] = {name: value for name, (value, _) in metrics.items()}
    untraced = results.get(f"{key}/trace0", {})
    if args.trace and "op_ms_p50" in untraced:
        detail["tracing_overhead_ms"] = (metrics["trace.op_ms_p50"][0]
                                         - untraced["op_ms_p50"])
    results_path.write_text(json.dumps(results, indent=1, sort_keys=True))

    attempted = sum(tracer.op_counts.values())
    failed = len(run.failures)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    if not args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<14} {fmt(value):>12} {unit}")
    print(f"  {'failed_ratio':<14} {fmt(failed / max(1, attempted)):>12} "
          f"({failed} of {attempted} operations)")
    for op_id, problem in list(run.failures.items())[:20]:
        print(f"  FAILED {op_id}: {problem}")
    print(json.dumps({"detail": {**detail, "fingerprints": fingerprints,
                                 "failures": run.failures, "machine": info}}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


def per_layer_spec() -> list:
    """(name, unit, better) of every per-layer metric, in BENCHMARK.json order."""
    import tracer as tracing

    spec = [(f"{name}.{stat}", unit, better) for name in tracing.span_names()
            for stat, unit, better in tracing.SPAN_STATS]
    return spec + list(tracing.SOLVER_STATS) + [("trace.op_ms_p50", "ms", "lower")]


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a child process."""
    rows, correct, attempted, failed, metrics = [], True, 0, 0, {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace {trace}: exited {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            detail = json.loads(lines[-2])["detail"]
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, entry in result["metrics"].items():
                metrics[f"{workload}.{name}"] = entry
            if not trace:
                rows.append((workload, result, detail))
            else:
                overhead = detail.get("tracing_overhead_ms")
                rows.append((workload, {"metrics": {
                    "tracing_overhead_ms": {"value": overhead, "unit": "ms"},
                    "spans": {"value": detail["spans"], "unit": "count"}}}, None))
    for workload, result, detail in rows:
        for name, entry in result["metrics"].items():
            print(f"{workload:<13} {name:<20} {fmt(entry['value']):>12} {entry['unit']}")
        if detail is not None:
            print(f"{workload:<13} {'failed_ratio':<20} "
                  f"{fmt(result['failed'] / result['attempted']):>12} "
                  f"({result['failed']} of {result['attempted']}; tail is "
                  f"p{detail['tail_percentile']} of {detail['operations']})")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
