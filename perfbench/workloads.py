"""The workloads: closed-loop calls into ``geoloop.cli.main``, timed from outside.

One caller issues each CLI call and waits for it.  Train steps are timed by
wrapping ``Trainer.train_step``; each CLI call is timed around ``cli.main``.
Every operation (a set-up, a train step, an eval call, a probe call) is
checked, and a run records a sha256 fingerprint of what the program wrote.

Times are the process's CPU time.  geoloop runs on one thread (BLAS too) and
waits for nothing but small file writes, so CPU time is its wall time less
the time the host took the CPU away, which on a shared VM comes in bursts of
10-80 ms.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import statistics
import traceback
from collections import defaultdict
from pathlib import Path
from time import process_time
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
BASE_CONFIG = "configs/enigma_high_si.toml"
HIGH_SI = "src/geoloop/data/toy_high_si.txt"
LOW_SI = "src/geoloop/data/toy_low_si.txt"
REFERENCE_FINGERPRINTS = Path(__file__).resolve().parent / "reference_fingerprints.json"

SETUPS = 5            # set-ups per train run; setup_s is their median
# Fewest timed operations per run.  Ten samples beyond the tail make it p90 at
# 100 operations; eval's 1.5 s calls allow only 12, whose "tail" is p16.7.
MIN_OPS = {"train_pre_ot": 100, "train_ot": 100, "eval": 12, "probe": 100}
PRE_OT_STEPS = 199    # train_pre_ot stays below the config's ot_warmup = 200
OT_WARMUP = 20        # train_ot: lowered from 200, but the clouds must drift first
# The token-index OT diagnostic's Sinkhorn iterations, most of a probe call,
# depend on the distributions probed, and its slow calls cluster by training
# seed.  Probe calls cycle over the set-ups' checkpoint series (one training
# seed each), each call with its own task seed, so a run's median and tail
# are not those of a few distribution pairs.
PROBE_SERIES = 9      # probe set-ups: short runs, one training seed each
PROBE_RUN_STEPS = 20  # each writes checkpoints at steps 0, 5, 10, 15, 20
PROBE_CKPT_EVERY = 5
CAL_ITERS = 100       # one calibration block: about 1.5 ms of kernel
CAL_REF_S = 1.5e-3    # the reference speed: a block takes this long
CAL_SHARE_S = 0.1     # a calibration runs one block per 0.1 s of the operation
SETUP_CAL_BLOCKS = 9
# Seconds per timed operation at this commit (2 cores, BLAS on one thread);
# a run does --seconds worth of them, so a faster commit finishes sooner.
NOMINAL_OP_S = {"train_pre_ot": 0.045, "train_ot": 0.28, "eval": 1.5, "probe": 0.075}
# Operation kinds the per-layer metrics are counted over, per workload.
LAYER_KINDS = {"train_pre_ot": ("setup", "step"), "train_ot": ("setup", "step"),
               "eval": ("eval",), "probe": ("probe",)}


def op_count(workload: str, seconds: int) -> int:
    n = max(MIN_OPS[workload], round(seconds / NOMINAL_OP_S[workload]))
    return min(n, PRE_OT_STEPS) if workload == "train_pre_ot" else n


def tail(values) -> tuple:
    """(value, percentile): the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def sha256_files(paths) -> str:
    digest = hashlib.sha256()
    for path in sorted(paths, key=lambda p: p.name):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def source_digest() -> str:
    """sha256 of the program's sources and configs and of this benchmark:
    fingerprints are compared between runs only when this matches, since a
    commit may change them."""
    digest = hashlib.sha256()
    for top in ("src", "configs", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode() + b"\0"
                              + path.read_bytes() + b"\0")
    return digest.hexdigest()


def write_config(path: Path, **overrides) -> None:
    """Write the base config with its ``key = value`` lines for ``overrides`` replaced."""
    lines = (ROOT / BASE_CONFIG).read_text().splitlines()
    for key, value in overrides.items():
        hits = [i for i, line in enumerate(lines) if line.split("=")[0].strip() == key]
        if len(hits) != 1:
            raise SystemExit(f"{BASE_CONFIG} has no single {key!r} line")
        lines[hits[0]] = f"{key} = {value}"
    path.write_text("\n".join(lines) + "\n")


def step_problems(config, report) -> list:
    """Output checks on one StepReport."""
    from geoloop.trainer import sami_weight_at

    problems = []
    values = (report.loss_total, report.loss_grpo, report.loss_sami,
              report.loss_shaping, report.loss_ot, report.grad_norm)
    if not all(math.isfinite(v) for v in values):
        problems.append("non-finite loss or grad_norm")
    expected = (report.loss_grpo + sami_weight_at(config, report.step) * report.loss_sami
                + report.loss_shaping + report.loss_ot)
    if not math.isclose(report.loss_total, expected, rel_tol=1e-12, abs_tol=1e-12):
        problems.append(f"loss_total {report.loss_total!r} != sum of terms {expected!r}")
    ceiling = math.log(config.shadow_k + 1)
    for name in ("mi_row_clean", "mi_col_clean"):
        value = getattr(report, name)
        if math.isnan(value):
            # A bare NaN with no clean row is a logging defect, not a failure.
            if report.clean_count != 0:
                problems.append(f"{name} is NaN with clean_count {report.clean_count}")
        elif value > ceiling + 1e-12:
            problems.append(f"{name} {value!r} above log(K+1) = {ceiling!r}")
    if report.step < config.ot_warmup and report.loss_ot != 0.0:
        problems.append(f"loss_ot {report.loss_ot!r} before ot_warmup")
    return problems


def eval_problems(out: Path) -> list:
    high = json.loads((out / "report_toy_high_si.json").read_text())
    low = json.loads((out / "report_toy_low_si.json").read_text())
    problems = []
    for key in ("si", "mi_effective"):
        if not high[key] > low[key]:
            problems.append(f"{key}: high-SI {high[key]!r} does not beat low-SI {low[key]!r}")
    return problems


def probe_problems(out: Path) -> list:
    with open(out / "probe_report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return ["probe_report.csv has no rows"]
    problems = []
    for i, row in enumerate(rows):
        bc, fr, hel = float(row["bc"]), float(row["fr_distance"]), float(row["hellinger"])
        if abs(fr - 2.0 * math.acos(bc)) > 1e-12:
            problems.append(f"row {i}: fr != 2 acos(bc)")
        if abs(hel * hel + bc - 1.0) > 1e-12:
            problems.append(f"row {i}: hellinger^2 + bc != 1")
    return problems


class Call(NamedTuple):
    ok: bool
    start: float
    end: float
    calibration: float
    op_id: str


class Calibrator:
    """Times a fixed kernel of small numpy ops and Python arithmetic.

    The kernel runs no geoloop code, so its time tracks only the speed the
    machine gives this process, which on a shared host drifts by up to ~1.7x
    over minutes.  A calibration runs before each operation and set-up, and
    its time is scaled by ``CAL_REF_S`` over the mean of the calibrations
    before and after it.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        rng = np.random.default_rng(0)
        self._a = rng.random((32, 16))
        self._b = rng.random((16, 32))

    def __call__(self, blocks: int) -> float:
        """Median time of ``blocks`` runs of the kernel."""
        return statistics.median(self._block() for _ in range(blocks))

    def _block(self) -> float:
        np = self._np
        start = process_time()
        acc = 0.0
        for _ in range(CAL_ITERS):
            x = self._a @ self._b
            x = np.exp(x - x.max(axis=1, keepdims=True))
            acc += float(x.sum()) + sum(j * j for j in range(20))
        return process_time() - start


class Run:
    """State of one benchmark run: timings, failures and fingerprints.

    Timings are kept raw, each with the calibrations taken around it;
    ``end_to_end`` scales them to the reference speed.
    """

    def __init__(self, workload: str, seed: int, seconds: int, tracer, work: Path):
        from geoloop import cli

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.work = work
        self.calibrator = Calibrator()
        self.cal_blocks = max(1, round(NOMINAL_OP_S[workload] / CAL_SHARE_S))
        self.ops = []                 # (op seconds, window slice seconds, calibration seconds)
        self.setups = []              # [set-up seconds, calibration before, after]
        self.failures = {}            # operation id -> first problem seen
        self.fingerprints = defaultdict(list)   # key -> [(operation id, sha)]
        self.step_kind = None         # set by train(): step number -> operation kind
        self.first_step_at = None
        self.first_eval_at = None
        self.first_step_calibration = None
        self._open_step_at = None     # start of the step whose window slice is open
        self.final_calibration = None
        self._install_hooks()

    # ---------- hooks ----------

    def _install_hooks(self) -> None:
        from geoloop import constitution, trainer

        run = self
        train_step = trainer.Trainer.train_step
        evaluate = constitution.evaluate_principle_set

        def timed_train_step(self):
            # A probe set-up run has no step kinds: it is timed as a whole call.
            if run.step_kind is not None and run.first_step_at is None:
                # The set-up ends here; calibrate right after it.
                run.first_step_at = process_time()
                run.first_step_calibration = run.calibrate(SETUP_CAL_BLOCKS)
            kind = run.step_kind(self.step) if run.step_kind else None
            if kind == "step":
                run.close_step_slice()
                calibration = run.calibrate()
            if kind:
                run.tracer.begin_op(kind)
            start = process_time()
            report = train_step(self)
            end = process_time()
            if kind == "step":
                run.ops.append([end - start, None, calibration])
                run._open_step_at = start
            for problem in step_problems(self.config, report):
                run.fail(f"step {report.step}: {problem}")
            return report

        def timed_evaluate(*args, **kwargs):
            if run.first_eval_at is None:
                run.first_eval_at = process_time()
            return evaluate(*args, **kwargs)

        trainer.Trainer.train_step = timed_train_step
        constitution.evaluate_principle_set = timed_evaluate

    # ---------- bookkeeping ----------

    def calibrate(self, blocks: int | None = None) -> float:
        """One calibration; it also closes a set-up still waiting for the
        calibration after it."""
        with self.tracer.excluded():
            calibration = self.calibrator(blocks or self.cal_blocks)
        if self.setups and self.setups[-1][2] is None:
            self.setups[-1][2] = calibration
        return calibration

    def close_step_slice(self) -> None:
        """End the open step's window slice: the step itself plus the CLI's
        JSONL and checkpoint writes up to the next step or the call's return."""
        if self._open_step_at is not None:
            self.ops[-1][1] = process_time() - self._open_step_at
            self._open_step_at = None

    def fail(self, problem: str, op_id: str | None = None) -> None:
        self.failures.setdefault(op_id or self.tracer.op_id, problem)

    def call_cli(self, argv, kind: str) -> Call:
        """One CLI call as a new operation of ``kind``."""
        calibration = self.calibrate(SETUP_CAL_BLOCKS if kind == "setup" else None)
        self.tracer.begin_op(kind)
        op_id = self.tracer.op_id
        self.first_step_at = self.first_eval_at = None
        start = process_time()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(argv)
        except Exception:  # a raising call is a failed operation; keep going
            traceback.print_exc()
            code = "an exception"
        end = process_time()
        self.close_step_slice()
        if code != 0:
            self.fail(f"geoloop {argv[0]} exited with {code}", op_id)
        return Call(code == 0, start, end, calibration, op_id)

    def fingerprint(self, key: str, paths, op_id: str) -> None:
        self.fingerprints[key].append((op_id, sha256_files(paths)))

    def write_config(self, **overrides) -> str:
        path = self.work / "config.toml"
        write_config(path, **overrides)
        return str(path)

    # ---------- workloads ----------

    def train(self, config: str, first_timed_step: int, max_steps: int) -> None:
        """SETUPS train calls: set-up-only ones (one step) and then the timed one.

        A set-up runs from cli.main entry to the first train_step.  Each timed
        step's window slice runs to the next step, so the window holds the
        per-step JSONL writes and the checkpoint writes.
        """
        for i in range(SETUPS):
            timed = i == SETUPS - 1
            if timed:
                self.step_kind = lambda step: (
                    "step" if step >= first_timed_step else "warmup_step")
            else:
                self.step_kind = lambda step: "extra_step"
            out = self.work / f"train-{i}"
            argv = ["train", "--config", config, "--seed", str(self.seed),
                    "--max-steps", str(max_steps if timed else 1), "--output-dir", str(out)]
            call = self.call_cli(argv, "setup")
            if self.first_step_at is not None:
                self.setups.append([self.first_step_at - call.start, call.calibration,
                                    self.first_step_calibration])
            if call.ok:
                self.fingerprint("steps.jsonl" if timed else "steps.jsonl (one step)",
                                 [out / "steps.jsonl"], call.op_id)

    def run_train_pre_ot(self) -> None:
        self.train(BASE_CONFIG, first_timed_step=0,
                   max_steps=op_count("train_pre_ot", self.seconds))

    def run_train_ot(self) -> None:
        config = self.write_config(ot_warmup=OT_WARMUP)
        self.train(config, first_timed_step=OT_WARMUP,
                   max_steps=OT_WARMUP + op_count("train_ot", self.seconds))

    def run_eval(self) -> None:
        """Repeated eval-constitution calls; a set-up is a call's time to its
        first evaluate_principle_set (argument parsing, task, warm start)."""
        for i in range(op_count("eval", self.seconds)):
            out = self.work / f"eval-{i}"
            argv = ["eval-constitution", HIGH_SI, LOW_SI, "--seed", str(self.seed),
                    "--out-dir", str(out)]
            call = self.call_cli(argv, "eval")
            self.ops.append([call.end - call.start] * 2 + [call.calibration])
            if self.first_eval_at is not None:
                self.setups.append([self.first_eval_at - call.start, call.calibration, None])
            if call.ok:
                for problem in eval_problems(out):
                    self.fail(problem, call.op_id)
                self.fingerprint("eval reports", list(out.iterdir()), call.op_id)
            shutil.rmtree(out, ignore_errors=True)

    def run_probe(self) -> None:
        """Each set-up is a short run writing a series of five checkpoints, one
        training seed per set-up; then repeated probe calls, each over one
        whole series."""
        config = self.write_config(checkpoint_every=PROBE_CKPT_EVERY)
        series = []
        for i in range(PROBE_SERIES):
            out = self.work / f"train-{i}"
            argv = ["train", "--config", config, "--seed", str(self.seed * PROBE_SERIES + i),
                    "--max-steps", str(PROBE_RUN_STEPS), "--output-dir", str(out)]
            call = self.call_cli(argv, "setup")
            self.setups.append([call.end - call.start, call.calibration, None])
            if not call.ok:
                return
            self.fingerprint(f"series {i} steps.jsonl", [out / "steps.jsonl"], call.op_id)
            series.append([str(p) for p in sorted(out.glob("ckpt_*.npz"))])
            expected = PROBE_RUN_STEPS // PROBE_CKPT_EVERY + 1
            if len(series[-1]) != expected:
                self.fail(f"{len(series[-1])} checkpoints, expected {expected}")
                return
        reports = hashlib.sha256()
        for i in range(op_count("probe", self.seconds)):
            out = self.work / f"probe-{i}"
            argv = ["probe", *series[i % PROBE_SERIES], "--constitution", HIGH_SI,
                    "--seed", str(self.seed * 1000 + i // PROBE_SERIES), "--out-dir", str(out)]
            call = self.call_cli(argv, "probe")
            self.ops.append([call.end - call.start] * 2 + [call.calibration])
            if call.ok:
                for problem in probe_problems(out):
                    self.fail(problem, call.op_id)
                reports.update(sha256_files(list(out.iterdir())).encode())
            shutil.rmtree(out, ignore_errors=True)
        self.fingerprints["probe reports, all calls"].append(("run", reports.hexdigest()))

    # ---------- results ----------

    def check_fingerprints(self, store_path: Path) -> dict:
        """Every sample agrees within the run and with earlier runs of the same
        sources in this checkout.  Across sources a fingerprint may change; the
        result says whether it matches the reference."""
        source = source_digest()
        store = json.loads(store_path.read_text()) if store_path.exists() else {}
        try:
            reference = json.loads(REFERENCE_FINGERPRINTS.read_text())
        except FileNotFoundError:
            reference = {}
        report = {}
        for key, samples in sorted(self.fingerprints.items()):
            full_key = f"{self.workload}/seed{self.seed}/seconds{self.seconds}/{key}"
            first = samples[0][1]
            expected = store.setdefault(f"{source}/{full_key}", first)
            for op_id, sha in samples:
                if sha != expected:
                    self.fail(f"{key} fingerprint {sha[:12]} differs from {expected[:12]}",
                              op_id)
            ref = reference.get(full_key)
            report[key] = {"sha256": first, "samples": len(samples), "source": source[:16],
                           "vs_reference": "none" if ref is None
                           else "same" if ref == first else "changed"}
        tmp = store_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
        tmp.replace(store_path)
        return report

    def end_to_end(self, peak_rss_mb: float) -> tuple:
        """(metrics, detail); an operation is a step, an eval call or a probe call.

        Times are scaled to the reference speed by the calibrations around
        each operation; the detail keeps the raw medians.
        """
        # Each operation sits between its own calibration and the next one.
        cals = [cal for _, _, cal in self.ops] + [self.final_calibration]
        scale = [2.0 * CAL_REF_S / (before + after) for before, after in zip(cals, cals[1:])]
        op_ms = [1e3 * op * k for (op, _, _), k in zip(self.ops, scale)]
        window = sum(piece * k for (_, piece, _), k in zip(self.ops, scale))
        setup = [2.0 * s * CAL_REF_S / (before + after) for s, before, after in self.setups]
        value, pct = tail(op_ms)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "op_ms_p50": (statistics.median(op_ms), "ms"),
            "op_ms_tail": (value, "ms"),
            "ops_per_s": (len(op_ms) / window, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        detail = {
            "operations": len(op_ms), "tail_percentile": round(pct, 2),
            "set_ups": len(setup),
            "raw_op_ms_p50": 1e3 * statistics.median(op for op, _, _ in self.ops),
            "raw_setup_s": statistics.median(s for s, _, _ in self.setups),
            "calibration_ms_p50": 1e3 * statistics.median(c for _, _, c in self.ops),
            "setup_s": [round(v, 4) for v in setup],
            "op_ms": [round(v, 3) for v in op_ms],
            "calibration_ms": [round(1e3 * c, 4) for c in cals],
        }
        return metrics, detail


def run_workload(run: Run) -> None:
    getattr(run, f"run_{run.workload}")()
    run.final_calibration = run.calibrate()
    if len(run.ops) < MIN_OPS[run.workload] or not run.setups:
        raise SystemExit(f"{run.workload}: only {len(run.ops)} timed operations and "
                         f"{len(run.setups)} set-ups completed")
