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
import math
import sys
import time
import zipfile
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import constitution as consti
from . import mi, ot, prob_metrics
from .errors import ValidationError
from .policy import ToyPolicy, mle_pretrain, transition_counts, warm_start
from .task import Vocab, gold_items, make_toy_task, principles_from_patterns
from .trainer import TrainConfig, Trainer, load_checkpoint

EXIT_OK, EXIT_RUNTIME, EXIT_CONFIG = 0, 1, 2

SCHEMA_VERSION = 6

DATA_DIR = Path(__file__).parent / "data"

# The train warm start's learning rate and filler bias.
WARMSTART_LR = 0.5
WARMSTART_BIAS = 0.15


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
    task_items: int = 32
    prompt_len: int = 2
    task_bias: float = 0.8
    vocab_size: int = 16

    def __post_init__(self):
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {self.schema_version} "
                              f"(this version reads {SCHEMA_VERSION})")
        try:
            super().__post_init__()
        except ValidationError as exc:
            raise ConfigError(str(exc)) from exc

    def _rules(self) -> tuple:
        return super()._rules() + (
            ("max_steps", self.max_steps >= 1, "at least 1"),
            ("checkpoint_every", self.checkpoint_every >= 1, "at least 1"),
            ("task_items", self.task_items >= 1, "at least 1"),
            ("prompt_len", self.prompt_len >= 0, "nonnegative"),
            ("vocab_size", self.vocab_size >= 8, "at least 8"),
            ("warmstart_epochs", self.warmstart_epochs >= 0, "nonnegative"),
            ("task_bias", 0 <= self.task_bias <= 1, "between 0 and 1"),
        )

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


def read_config_lines(text: str) -> list:
    """(lineno, key, value) for each ``key = value`` line of a config file,
    its value parsed; blank and ``#`` lines are skipped.  No key, value or
    schema version is checked against RunConfig."""
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {stripped!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        entries.append((lineno, key, _parse_value(value, key, lineno)))
    return entries


def parse_config(text: str) -> RunConfig:
    """Parse a config file.  A key given twice is rejected first; unknown keys
    are reported after the schema check, so a file written for another schema
    fails on its version."""
    known = {f.name for f in fields(RunConfig)}
    entries = read_config_lines(text)
    first_line = {}
    for lineno, key, _ in entries:
        if first_line.setdefault(key, lineno) != lineno:
            raise ConfigError(f"line {lineno}: key {key!r} already set on line {first_line[key]}")
    try:
        config = RunConfig(**{key: value for _, key, value in entries if key in known})
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    for lineno, key, _ in entries:
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
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
    try:
        principles = principles_from_patterns(vocab, patterns)
    except ValidationError as exc:
        raise ConfigError(f"constitution {pset.name!r}: {exc}") from exc
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


def _make_out_dir(path) -> Path:
    """The output directory at `path`, made with its parents if missing."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output dir {out_dir}: {exc.strerror}") from exc
    return out_dir


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

    out_dir = _make_out_dir(config.output_dir)
    if any(out_dir.iterdir()):
        raise ConfigError(f"output dir {out_dir} exists and is not empty")
    started = time.time()

    # Seeded init (exact zeros are a saddle), then the format warm start with
    # a weak filler bias: the policy arrives format-competent with principle
    # binding near (but not at) chance.
    policy = ToyPolicy(vocab)
    policy.init_params(config.seed)
    warm_start(policy, task, config.warmstart_epochs, WARMSTART_LR, config.seed,
               bias=WARMSTART_BIAS)

    trainer = Trainer(policy, task, config, config.max_steps, config.seed)
    config_hash = config.config_hash()
    config_text = serialise_config(config)
    checkpoint_hashes = {}

    def checkpoint(step: int) -> None:
        path = out_dir / f"ckpt_{step:06d}.npz"
        checkpoint_hashes[str(step)] = trainer.save_checkpoint(
            path, config_hash, config_text)

    last_row = None
    # Run-level counts over the rows steps.jsonl holds.
    counts = dict.fromkeys(("ot_unconverged_steps", "geometry_degenerate_steps",
                            "null_row_bound_steps"), 0)
    steps_path = out_dir / "steps.jsonl"
    checkpoint(0)
    with open(steps_path, "w") as fh:
        for _ in range(config.max_steps):
            report = trainer.train_step()
            last_row = report.jsonl_row()
            fh.write(json.dumps(last_row, allow_nan=False) + "\n")
            counts["ot_unconverged_steps"] += last_row["ot_converged"] is False
            counts["geometry_degenerate_steps"] += last_row["geometry_degenerate"]
            counts["null_row_bound_steps"] += last_row["mi_row_clean"] is None
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
        **counts,
        "autoscaler": asdict(trainer.autoscaler),
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True,
                                                          allow_nan=False))
    (out_dir / "run_meta.json").write_text(json.dumps(
        {"started_unix": started, "finished_unix": time.time()}))
    print(f"run complete: {out_dir} ({config.max_steps} steps)")
    return EXIT_OK


# ---------- eval-constitution ----------

def cmd_eval_constitution(args) -> int:
    sources = [name for name, given in (("constitution files", args.constitutions),
                                        ("--components", args.components),
                                        ("--scores", args.scores)) if given]
    if len(sources) != 1:
        raise ConfigError(f"give one of constitution files, --components or --scores; "
                          f"got {' and '.join(sources) or 'none'}")
    if args.nll is not None and not args.scores:
        raise ConfigError("--nll is read only with --scores")
    if not args.components and args.k < 1:
        raise ConfigError(f"--k must be at least 1, got {args.k}")
    if args.constitutions:
        if args.items < 1:
            raise ConfigError(f"--items must be at least 1, got {args.items}")
        if args.warm_epochs < 0:
            raise ConfigError(f"--warm-epochs must be nonnegative, got {args.warm_epochs}")
        if not (math.isfinite(args.warm_lr) and args.warm_lr >= 0):
            raise ConfigError(f"--warm-lr must be finite and nonnegative, got {args.warm_lr}")
    # Every principle set is read and its task built, and a components file
    # or the score matrices and NLL rows read and scored, before --out-dir
    # exists, so a bad input leaves no output behind.
    tasks = []
    for path in args.constitutions:
        pset = _load_principles(path)
        if not pset.negatives:
            raise ConfigError(f"constitution {pset.name!r} has no negatives")
        run_cfg = RunConfig(seed=args.seed, task_items=args.items,
                            constitution=str(path))
        tasks.append((pset, *_build_task(run_cfg, pset)))
    if args.components:
        reports = [consti.report_from_components(*row)
                   for row in _read_components(args.components)]
    if args.scores:
        nll_rows = _read_nll_csv(args.nll)
        try:
            pos_matrix = mi.read_score_csv(args.scores[0])
            neg_matrix = mi.read_score_csv(args.scores[1])
        except OSError as exc:
            raise ConfigError(f"cannot read score matrix: {exc}") from exc
        except ValidationError as exc:
            raise ConfigError(str(exc)) from exc
        reports = [consti.evaluate_from_score_files(
            Path(args.scores[0]).stem, pos_matrix, neg_matrix, nll_rows,
            k=args.k, seed=args.seed)]
    out_dir = _make_out_dir(args.out_dir)

    if args.constitutions:
        reports = []
        # Principle-aware warm start: the measured policy must carry the
        # associations the signals probe, like a pretrained base model.  It
        # depends on the gold triples alone (seed, epochs, rate and vocabulary
        # are fixed within the call), and scoring only reads the policy, so
        # sets that build the same triples share one warm start.
        warmed = {}
        for pset, vocab, task in tasks:
            triples = tuple(gold_items(task))
            if triples not in warmed:
                policy = ToyPolicy(vocab)
                policy.init_params(args.seed)
                mle_pretrain(policy, triples, args.warm_epochs, args.warm_lr)
                warmed[triples] = policy
            policy = warmed[triples]
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


# A --components row's fields, in `report_from_components` order.
_COMPONENT_KEYS = ("name", "bits", "auc", "margin_pos", "margin_neg", "lb_pos_bits",
                   "lb_neg_bits")


def _read_components(path) -> list:
    """The rows of a --components file as `report_from_components` arguments.

    The file holds a JSON list of objects, each with a string `name`, finite
    numbers `bits`, `auc`, `margin_pos` and `margin_neg`, and optional
    numbers or nulls `lb_pos_bits` and `lb_neg_bits` (NaN when null or absent).
    """
    try:
        rows = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read components file: {exc}") from exc
    if not (isinstance(rows, list) and all(isinstance(row, dict) for row in rows)):
        raise ConfigError(f"components file {path}: the top level must be a list of objects")
    components = []
    for index, row in enumerate(rows):
        values = [row.get(key) for key in _COMPONENT_KEYS]
        for key, value in zip(_COMPONENT_KEYS, values):
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if key == "name":
                ok, kind = isinstance(value, str), "a string"
            elif key.startswith("lb_"):
                ok, kind = value is None or number, "a number or null"
            else:
                # An int past the float range is not finite either.
                ok, kind = number and abs(value) <= sys.float_info.max, "a finite number"
            if not ok:
                got = repr(value) if key in row else "nothing"
                raise ConfigError(f"components file {path}, row {index}: "
                                  f"{key!r} must be {kind}, got {got}")
        components.append([math.nan if value is None else value for value in values])
    return components


def _read_nll_csv(path):
    if path is None:
        raise ConfigError("--scores needs --nll with per-item NLL rows")
    rows = []
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            if header != "nll_without_bits,nll_with_bits":
                raise ConfigError(f"bad NLL CSV header: {header!r}")
            for lineno, line in enumerate(fh, start=2):
                if line.strip():
                    try:
                        a, b = line.strip().split(",")
                        rows.append((float(a), float(b)))
                    except ValueError as exc:
                        raise ConfigError(f"NLL CSV {path}, line {lineno}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read NLL CSV: {exc}") from exc
    return rows


# ---------- probe ----------

def cmd_probe(args) -> int:
    for flag, value in (("--items", args.items), ("--grid", args.grid),
                        ("--top-k", args.top_k)):
        if value < 1:
            raise ConfigError(f"{flag} must be at least 1, got {value}")
    # Every landscape alpha is an inverse-temperature exponent and must be
    # positive; a one-point grid uses --alpha-min alone.
    if not (math.isfinite(args.alpha_min) and math.isfinite(args.alpha_max)):
        raise ConfigError(f"--alpha-min and --alpha-max must be finite, "
                          f"got {args.alpha_min!r} and {args.alpha_max!r}")
    alphas = np.linspace(args.alpha_min, args.alpha_max, args.grid)
    if alphas.min() <= 0:
        raise ConfigError(f"--alpha-min and --alpha-max must give positive alphas, "
                          f"got {args.alpha_min!r} and {args.alpha_max!r}")
    # --out-dir is made only once every input checks out; one that names a
    # file fails before any checkpoint is read.
    if Path(args.out_dir).exists() and not Path(args.out_dir).is_dir():
        raise ConfigError(f"output dir {args.out_dir} is not a directory")

    loaded = []
    for path in args.checkpoints:
        try:
            loaded.append(load_checkpoint(path))
        except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
            # np.load raises ValueError on a file that is not an archive and
            # BadZipFile on a cut one; ValidationError is a ValueError too.
            print(f"error: cannot load checkpoint {path}: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
    if len({meta["config_hash"] for _, meta in loaded}) > 1:
        raise ConfigError("checkpoints come from different run configs")

    # The task is the run's own (vocabulary from meta; prompt length and bias
    # from the stored config, read whatever its schema_version, since both
    # mean the same in schemas 3-6), with the probe's seed, item count and
    # principles.  Without a stored config they take their defaults.
    meta = loaded[0][1]
    try:
        stored = {key: value for _, key, value in read_config_lines(meta["config_text"])}
    except ConfigError as exc:
        raise ConfigError(f"checkpoint {args.checkpoints[0]} config: {exc}") from exc
    run_cfg = RunConfig(seed=args.seed, task_items=args.items,
                        constitution=str(args.constitution),
                        vocab_size=int(meta["vocab_size"]),
                        **{key: stored[key] for key in ("prompt_len", "task_bias")
                           if key in stored})
    pset = _load_principles(args.constitution)
    vocab, task = _build_task(run_cfg, pset)
    out_dir = _make_out_dir(args.out_dir)
    probe_item = task.items[0]
    ptoks = task.principle(probe_item.principle_id).tokens

    # The probe context is bagged once; the bag depends on no parameters.
    weights = loaded[0][0].bag([(probe_item.prompt, ptoks)])
    dists = [prob_metrics.ProbVector(policy.forward(weights).next_token_probs(0))
             for policy, _ in loaded]
    steps = [meta["step"] for _, meta in loaded]

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
    # Row i rotated left by its true column: aligned[i, k] = matrix[i, (k + j_i) mod P].
    aligned = matrix[own[:, None],
                     (np.arange(n_principles) + np.array(true_cols)[:, None]) % n_principles]
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
