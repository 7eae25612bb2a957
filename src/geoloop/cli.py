"""Command-line entry points: train, eval-constitution, probe.

Run configs are flat key = value files with an explicit schema version; the
serialise(parse(text)) round trip is the identity.  Logs are append-only
JSONL with a fixed field order; wall-clock timestamps live in a sidecar
(run_meta.json) so steps.jsonl stays byte-identical across reruns of the
same config and seed.

Exit codes: 0 success, 1 runtime failure, 2 configuration error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import constitution as consti
from . import mi, ot, prob_metrics
from .errors import ValidationError
from .policy import (ToyPolicy, Vocab, gold_items, make_toy_task, mle_pretrain,
                     principles_from_patterns, transition_counts, warm_start)
from .trainer import TrainConfig, Trainer, load_checkpoint

EXIT_OK, EXIT_RUNTIME, EXIT_CONFIG = 0, 1, 2

SCHEMA_VERSION = 4

DATA_DIR = Path(__file__).parent / "data"


class ConfigError(ValueError):
    """Bad run configuration; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig(TrainConfig):
    """A training run: the trainer hyperparameters plus the run-level fields."""

    schema_version: int = SCHEMA_VERSION
    seed: int = 0
    max_steps: int = 2000
    checkpoint_every: int = 500
    output_dir: str = "run"
    constitution: str = str(DATA_DIR / "toy_high_si.txt")
    warmstart_epochs: int = 200
    warmstart_lr: float = 0.5
    warmstart_bias: float = 0.15
    task_items: int = 32
    prompt_len: int = 2
    task_bias: float = 0.8
    vocab_size: int = 16
    policy_dim: int = 32

    def __post_init__(self):
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {self.schema_version} "
                              f"(this version reads {SCHEMA_VERSION})")
        if self.max_steps <= 0 or self.checkpoint_every <= 0:
            raise ConfigError("max_steps and checkpoint_every must be positive")
        super().__post_init__()

    def config_hash(self) -> str:
        return hashlib.sha256(serialise_config(self).encode()).hexdigest()


def serialise_config(config: RunConfig) -> str:
    """One ``key = value`` line per field, run-level fields first."""
    trainer_fields = {f.name for f in fields(TrainConfig)}
    lines = []
    for f in sorted(fields(RunConfig), key=lambda f: f.name in trainer_fields):
        value = getattr(config, f.name)
        if isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, str):
            rendered = f'"{value}"'
        else:
            rendered = repr(value)
        lines.append(f"{f.name} = {rendered}")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> RunConfig:
    """Parse a config file; unknown keys are reported after the schema check,
    so a file written for another schema fails on its version."""
    known = {f.name for f in fields(RunConfig)}
    raw, unknown = {}, []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {stripped!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in known:
            unknown.append(f"line {lineno}: unknown key {key!r}")
            continue
        raw[key] = _parse_value(value, key, lineno)
    try:
        config = RunConfig(**raw)
    except (TypeError, ValidationError) as exc:
        raise ConfigError(str(exc)) from exc
    if unknown:
        raise ConfigError(unknown[0])
    return config


def _parse_value(value: str, key: str, lineno: int):
    if value.startswith('"') and value.endswith('"') and len(value) >= 2:
        return value[1:-1]
    if value in ("true", "false"):
        return value == "true"
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"line {lineno}: cannot parse value for {key!r}: {value!r}")


def load_config(path, overrides: dict | None = None) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return replace(parse_config(text), **(overrides or {}))


# ---------- shared setup ----------

def _build_task(config: RunConfig, pset: consti.PrincipleSet):
    vocab = Vocab(config.vocab_size)
    patterns = [(p.pid, p.tokens) for p in pset.positives]
    if any(not toks for _, toks in patterns):
        raise ConfigError(
            f"constitution {pset.name!r} has non-token positives; the toy task "
            "needs token patterns (use eval-constitution --components or "
            "--scores for text principle pools)")
    principles = principles_from_patterns(vocab, patterns)
    task = make_toy_task(vocab, n_items=config.task_items,
                         prompt_len=config.prompt_len, bias=config.task_bias,
                         seed=config.seed, principles=principles)
    return vocab, task


def _load_principles(path) -> consti.PrincipleSet:
    try:
        return consti.parse_principle_file(path)
    except OSError as exc:
        raise ConfigError(f"cannot read constitution {path}: {exc}") from exc
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc


# ---------- train ----------

def cmd_train(args) -> int:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.max_steps is not None:
        overrides["max_steps"] = args.max_steps
    if args.output_dir:
        overrides["output_dir"] = args.output_dir
    config = load_config(args.config, overrides)

    pset = _load_principles(config.constitution)
    if not pset.negatives:
        raise ConfigError(f"constitution {pset.name!r} has no negatives")
    vocab, task = _build_task(config, pset)

    out_dir = Path(config.output_dir)
    if out_dir.exists() and any(out_dir.iterdir()):
        raise ConfigError(f"output dir {out_dir} exists and is not empty")
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()

    # Seeded init (exact zeros are a saddle), then the format warm start with
    # a weak filler bias: the policy arrives format-competent with principle
    # binding near (but not at) chance.
    policy = ToyPolicy(vocab, config.policy_dim)
    policy.init_params(config.seed)
    warm_start(policy, task, config.warmstart_epochs, config.warmstart_lr,
               config.seed, bias=config.warmstart_bias)

    trainer = Trainer(policy, task, config, config.max_steps, config.seed)
    config_hash = config.config_hash()
    config_text = serialise_config(config)
    checkpoint_hashes = {}

    def checkpoint(step: int) -> None:
        path = out_dir / f"ckpt_{step:06d}.npz"
        checkpoint_hashes[str(step)] = trainer.save_checkpoint(
            path, config_hash, config_text)

    last_row = None
    steps_path = out_dir / "steps.jsonl"
    checkpoint(0)
    with open(steps_path, "w") as fh:
        for _ in range(config.max_steps):
            report = trainer.train_step()
            last_row = report.jsonl_row()
            fh.write(json.dumps(last_row, allow_nan=False) + "\n")
            if trainer.step % config.checkpoint_every == 0:
                checkpoint(trainer.step)
    if str(config.max_steps) not in checkpoint_hashes:
        checkpoint(config.max_steps)

    (out_dir / "config.txt").write_text(config_text)
    summary = {
        "config": {f.name: getattr(config, f.name) for f in fields(RunConfig)},
        "config_hash": config_hash,
        "last_step": last_row,
        "checkpoint_hashes": checkpoint_hashes,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True,
                                                          allow_nan=False))
    (out_dir / "run_meta.json").write_text(json.dumps(
        {"started_unix": started, "finished_unix": time.time()}))
    print(f"run complete: {out_dir} ({config.max_steps} steps)")
    return EXIT_OK


# ---------- eval-constitution ----------

def cmd_eval_constitution(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.components:
        try:
            rows = json.loads(Path(args.components).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read components file: {exc}") from exc
        reports = [consti.report_from_components(
            row["name"], row["bits"], row["auc"], row["margin_pos"],
            row["margin_neg"], row.get("lb_pos_bits", float("nan")),
            row.get("lb_neg_bits", float("nan"))) for row in rows]
    elif args.scores:
        nll_rows = _read_nll_csv(args.nll)
        try:
            pos_matrix = mi.read_score_csv(args.scores[0])
            neg_matrix = mi.read_score_csv(args.scores[1])
        except OSError as exc:
            raise ConfigError(f"cannot read score matrix: {exc}") from exc
        reports = [consti.evaluate_from_score_files(
            Path(args.scores[0]).stem, pos_matrix, neg_matrix, nll_rows,
            k=args.k, seed=args.seed)]
    else:
        if not args.constitutions:
            raise ConfigError("give at least one constitution file, --components, or --scores")
        reports = []
        for path in args.constitutions:
            pset = _load_principles(path)
            if not pset.negatives:
                raise ConfigError(f"constitution {pset.name!r} has no negatives")
            run_cfg = RunConfig(seed=args.seed, task_items=args.items,
                                constitution=str(path))
            vocab, task = _build_task(run_cfg, pset)
            policy = ToyPolicy(vocab)
            policy.init_params(args.seed)
            # Principle-aware warm start: the measured policy must carry the
            # associations the signals probe, like a pretrained base model.
            mle_pretrain(policy, gold_items(task), args.warm_epochs, args.warm_lr)
            reports.append(consti.evaluate_principle_set(
                policy, task, pset, k=args.k, seed=args.seed))

    if len(reports) >= 2:
        zs = consti.sufficiency_index(
            [r.delta_nll_median for r in reports],
            [r.mi_effective for r in reports],
            [r.auc for r in reports], mode="zscored")
        reports = [consti.SufficiencyReport(
            **{**r.__dict__, "si_zscored": float(z)}) for r, z in zip(reports, zs)]

    per_principle = out_dir / "per_principle.csv"
    with open(per_principle, "w") as fh:
        fh.write("set,pid,delta_nll_bits,leaky\n")
        for report in reports:
            if report.leaky is not None:
                for pid, bits in report.leaky["delta_nll_bits"].items():
                    fh.write(f"{report.name},{pid},{bits!r},1\n")
    for report in reports:
        path = out_dir / f"report_{report.name}.json"
        path.write_text(report.to_json())
        print(f"{report.name}: SI={report.si:.4f} mi_eff={report.mi_effective:.4f} "
              f"auc={report.auc:.4f} bits={report.delta_nll_median:.4f}")
    return EXIT_OK


def _read_nll_csv(path):
    if path is None:
        raise ConfigError("--scores needs --nll with per-item NLL rows")
    rows = []
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            if header != "nll_without_bits,nll_with_bits":
                raise ConfigError(f"bad NLL CSV header: {header!r}")
            for line in fh:
                if line.strip():
                    a, b = line.strip().split(",")
                    rows.append((float(a), float(b)))
    except OSError as exc:
        raise ConfigError(f"cannot read NLL CSV: {exc}") from exc
    return rows


# ---------- probe ----------

def cmd_probe(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    loaded = []
    for path in args.checkpoints:
        try:
            policy, ref, meta = load_checkpoint(path)
        except (OSError, ValidationError, KeyError) as exc:
            print(f"error: cannot load checkpoint {path}: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        loaded.append((policy, ref, meta, path))
    hashes = {meta["config_hash"] for _, _, meta, _ in loaded}
    if len(hashes) > 1:
        raise ConfigError("checkpoints come from different run configs")

    pset = _load_principles(args.constitution)
    run_cfg = RunConfig(seed=args.seed, task_items=args.items,
                        constitution=str(args.constitution))
    vocab, task = _build_task(run_cfg, pset)
    probe_item = task.items[0]
    ptoks = task.principle(probe_item.principle_id).tokens

    dists = [prob_metrics.ProbVector(
        policy.next_token_distribution(probe_item.prompt, ptoks))
        for policy, _, _, _ in loaded]
    steps = [meta["step"] for _, _, meta, _ in loaded]

    records = prob_metrics.probe_report_batch(zip(dists[:-1], dists[1:])) \
        if len(dists) >= 2 else []
    prob_metrics.write_probe_csv(records, out_dir / "probe_report.csv")

    if len(dists) >= 2 and not args.no_path:
        path_stats = prob_metrics.fr_path_stats(
            prob_metrics.ProbePath(tuple(dists), tuple(steps)))
        with open(out_dir / "fr_path.csv", "w") as fh:
            fh.write("segment_index,step_from,step_to,segment_length\n")
            for i, seg in enumerate(path_stats["segment_lengths"]):
                fh.write(f"{i},{steps[i]},{steps[i + 1]},{seg!r}\n")
            fh.write("# cumulative_length,endpoint_geodesic,ratio,degenerate\n")
            fh.write(f"# {path_stats['cumulative_length']!r},"
                     f"{path_stats['endpoint_geodesic']!r},"
                     f"{path_stats['ratio']!r},{path_stats['degenerate']}\n")
        if len(dists) >= 3:
            angles = prob_metrics.turning_angles(
                prob_metrics.ProbePath(tuple(dists), tuple(steps)))
            with open(out_dir / "turning_angles.csv", "w") as fh:
                fh.write("interior_step,angle_radians\n")
                for step, angle in zip(steps[1:-1], angles):
                    fh.write(f"{step},{angle!r}\n")

    # Landscape grid around the last checkpoint's probe distribution.
    alphas = np.linspace(args.alpha_min, args.alpha_max, args.grid)
    betas = np.linspace(0.0, 1.0, args.grid)
    grid = prob_metrics.landscape_grid(dists[-1], alphas, betas, metric=args.metric)
    with open(out_dir / "landscape.csv", "w") as fh:
        fh.write(f"# {prob_metrics.LANDSCAPE_METADATA}\n")
        fh.write(f"# metric={args.metric}\n")
        fh.write("alpha,beta,value\n")
        for i, a in enumerate(alphas):
            for j, b in enumerate(betas):
                fh.write(f"{float(a)!r},{float(b)!r},{float(grid[i, j])!r}\n")

    # Aligned score matrix and per-row diagonal statistics for the last policy.
    # One table over every (item, principle) context: row i * P + j is item
    # i's prompt with principle j, scored against item i's gold.
    last_policy = loaded[-1][0]
    n_principles = len(task.principles)
    sample = task.items[:min(len(task.items), args.items)]
    table = last_policy.forward(last_policy.bag_grid(
        [item.prompt for item in sample],
        [p.tokens for p in task.principles]).reshape(-1, vocab.size))
    golds = transition_counts([item.gold for item in sample], vocab.size)
    scores = table.seq_logprobs(golds).reshape(len(sample), n_principles, len(sample))
    own = np.arange(len(sample))
    matrix = scores[own, :, own] / np.maximum(1, golds.sum(axis=(1, 2)))[:, None]
    true_cols = [next(j for j, p in enumerate(task.principles) if p.pid == item.principle_id)
                 for item in sample]
    aligned = np.zeros_like(matrix)
    for i, j in enumerate(true_cols):
        aligned[i] = np.roll(matrix[i], -j)
    mi.write_score_csv(mi.ScoreMatrix(aligned), out_dir / "icmi_matrix.csv")
    shifted = matrix - matrix.max(axis=1, keepdims=True)
    log_sm = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    with open(out_dir / "icmi_diag.csv", "w") as fh:
        fh.write("row,diag_log_softmax,pmi\n")
        for i, j in enumerate(true_cols):
            val = float(log_sm[i, j])
            fh.write(f"{i},{val!r},{float(val + np.log(n_principles))!r}\n")

    # Exact token-index W2^2 between the first and last checkpoints.
    if len(dists) >= 2:
        w2sq = ot.output_space_ot_diag(dists[0], dists[-1], top_k=args.top_k)
        (out_dir / "output_ot.csv").write_text(
            f"step_from,step_to,token_index_w2sq\n{steps[0]},{steps[-1]},{w2sq!r}\n")

    print(f"probe artifacts written to {out_dir}")
    return EXIT_OK


# ---------- entry point ----------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geoloop",
        description="Single-loop toy trainer and information-geometry metrology")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the training loop from a config file")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--max-steps", type=int, dest="max_steps")
    p_train.add_argument("--output-dir", dest="output_dir")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval-constitution",
                            help="score principle sets for training sufficiency")
    p_eval.add_argument("constitutions", nargs="*")
    p_eval.add_argument("--components", help="JSON file of measured components to replay")
    p_eval.add_argument("--scores", nargs=2, metavar=("POS_CSV", "NEG_CSV"),
                        help="external score matrices (items x principles)")
    p_eval.add_argument("--nll", help="per-item NLL CSV for --scores mode")
    p_eval.add_argument("--items", type=int, default=32)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--k", type=int, default=2)
    p_eval.add_argument("--warm-epochs", type=int, default=120, dest="warm_epochs")
    p_eval.add_argument("--warm-lr", type=float, default=0.5, dest="warm_lr")
    p_eval.add_argument("--out-dir", default="eval_out", dest="out_dir")
    p_eval.set_defaults(func=cmd_eval_constitution)

    p_probe = sub.add_parser("probe", help="geometry probes over checkpoints")
    p_probe.add_argument("checkpoints", nargs="+")
    p_probe.add_argument("--constitution", default=str(DATA_DIR / "toy_high_si.txt"))
    p_probe.add_argument("--items", type=int, default=32)
    p_probe.add_argument("--seed", type=int, default=0)
    p_probe.add_argument("--grid", type=int, default=11)
    p_probe.add_argument("--alpha-min", type=float, default=0.5, dest="alpha_min")
    p_probe.add_argument("--alpha-max", type=float, default=1.5, dest="alpha_max")
    p_probe.add_argument("--metric", choices=("fr", "diag_mi"), default="fr")
    p_probe.add_argument("--top-k", type=int, default=16, dest="top_k")
    p_probe.add_argument("--no-path", action="store_true", dest="no_path")
    p_probe.add_argument("--out-dir", default="probe_out", dest="out_dir")
    p_probe.set_defaults(func=cmd_probe)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
