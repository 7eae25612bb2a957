"""One-off check that train_ot's lowered warm-up does not change the Sinkhorn solves.

train_ot turns the OT term on at step 20 instead of 200.  This script runs
the traced OT steps both ways, as many as a train_ot run times at
BENCHMARK.json's ``run_seconds``, for seeds 0 and 1, and compares
``ot.entropic_ot.iters`` and ``ot.entropic_ot.converged_ratio``:

    python3 perfbench/check_ot_warmup.py

It writes perfbench/ot_warmup_check.json and takes about a minute per seed.
"""
import fixed_env  # noqa: F401  (first: BLAS on one thread before numpy loads)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = (0, 1)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    os.chdir(ROOT)
    import tracer as tracing
    import workloads
    from geoloop import cli

    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    ot_steps = workloads.op_count("train_ot", run_seconds)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    work = ROOT / ".perfbench_work" / f"ot-warmup-check-{os.getpid()}"
    work.mkdir(parents=True)
    rows = []
    try:
        for seed in SEEDS:
            for warmup in (workloads.OT_WARMUP, 200):
                config = work / f"config-{warmup}.toml"
                workloads.write_config(config, ot_warmup=warmup)
                tracer.solves.clear()
                out = work / f"run-{seed}-{warmup}"
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(["train", "--config", str(config), "--seed", str(seed),
                                     "--max-steps", str(warmup + ot_steps),
                                     "--output-dir", str(out)])
                solves, iters, converged = tracer.solves["other"]
                rows.append({"seed": seed, "ot_warmup": warmup, "exit": code,
                             "solves": solves, "iters_per_solve": iters / solves,
                             "converged_ratio": converged / solves})
                print(json.dumps(rows[-1]))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    same = all(a["iters_per_solve"] == b["iters_per_solve"]
               and a["converged_ratio"] == b["converged_ratio"]
               for a, b in zip(rows[::2], rows[1::2]))
    result = {"ot_steps": ot_steps, "runs": rows, "same_iters_and_convergence": same}
    (HERE / "ot_warmup_check.json").write_text(json.dumps(result, indent=1) + "\n")
    print(f"same ot.entropic_ot.iters and converged_ratio: {same}")
    return 0 if same and all(r["exit"] == 0 for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
