"""Command-line entry points: train, eval-constitution, probe.

Run configs are TOML, read with tomllib: ``key = value`` lines with an
explicit schema version, and parse_config(serialise_config(c)) == c.  Logs
are append-only JSONL with a fixed field order; wall-clock timestamps live in
a sidecar (run_meta.json) so steps.jsonl stays byte-identical across reruns
of the same config and seed.

Exit codes: 0 success, 1 runtime failure, 2 configuration error.
"""
from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import sys
import time
import tomllib
import zipfile
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import constitution as consti
from . import mi, ot, prob_metrics
from . import task as tk
from .errors import ValidationError
from .policy import ToyPolicy, warm_start
from .task import ToyTask, Vocab, check_pattern, make_toy_task, principles_from_patterns
from .trainer import Trainer, load_checkpoint

EXIT_OK, EXIT_RUNTIME, EXIT_CONFIG = 0, 1, 2

SCHEMA_VERSION = 7

DATA_DIR = Path(__file__).parent / "data"

# The train warm start's epochs, learning rate (the eval's too) and filler bias.
WARMSTART_EPOCHS = 200
WARMSTART_LR = 0.5
WARMSTART_BIAS = 0.15


class ConfigError(ValueError):
    """Bad run configuration; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """A training run, its fields in config.txt order: the run-level fields,
    then the trainer's hyperparameters, whose defaults are the bundled recipe."""

    schema_version: int = SCHEMA_VERSION
    seed: int = 0
    max_steps: int = 2000
    checkpoint_every: int = 500
    output_dir: str = "run"
    constitution: str = str(DATA_DIR / "toy_high_si.txt")
    sami_weight: float = 0.05
    ot_weight: float = 0.01
    ot_warmup: int = 200
    shadow_k: int = 2
    channel_weight: float = 0.15
    jitter_sigma: float = 0.0

    def __post_init__(self):
        """Reject a value the run cannot use before anything runs on it."""
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {self.schema_version} "
                              f"(this version reads {SCHEMA_VERSION})")
        for f in fields(self):
            value = getattr(self, f.name)
            # Every field is an int, a float (an int will do) or a str.
            if isinstance(value, bool) or not isinstance(
                    value, {"int": int, "float": (int, float), "str": str}[f.type]):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
            # A config file holds one key a line by str.splitlines (U+2028 is
            # written raw) and is UTF-8, which holds no lone surrogate.
            if isinstance(value, str) and "".join(value.splitlines()) != value:
                raise ConfigError(f"{f.name} must be one line, got {value!r}")
            if isinstance(value, str) and value.encode(errors="replace").decode() != value:
                raise ConfigError(f"{f.name} must encode as UTF-8, got {value!r}")
            # TOML's \u0000 escape reads as a NUL, which no path can hold.
            if isinstance(value, str) and "\0" in value:
                raise ConfigError(f"{f.name} must not hold a NUL byte, got {value!r}")
        rules = (
            *((name, getattr(self, name) >= 0, "nonnegative")
              for name in ("seed", "sami_weight", "ot_weight", "ot_warmup",
                           "channel_weight", "jitter_sigma")),
            *((name, getattr(self, name) >= 1, "at least 1")
              for name in ("max_steps", "checkpoint_every", "shadow_k")),
            ("output_dir", self.output_dir != "", "non-empty"),
        )
        for name, ok, rule in rules:
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)!r}")

    def config_hash(self) -> str:
        return hashlib.sha256(serialise_config(self).encode()).hexdigest()


def serialise_config(config: RunConfig) -> str:
    """One TOML ``key = value`` line per field, in field order."""
    lines = []
    for f in fields(RunConfig):
        value = getattr(config, f.name)
        # JSON's string escapes are TOML's; TOML also takes U+007F only escaped.
        rendered = (json.dumps(value, ensure_ascii=False).replace("\x7f", "\\u007f")
                    if isinstance(value, str) else repr(value))
        lines.append(f"{f.name} = {rendered}")
    return "\n".join(lines) + "\n"


def _read_toml(text: str, source: str = "config") -> dict:
    """The TOML document `text`; one that does not parse (tomllib names the
    line and column) is a ConfigError naming `source`."""
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def parse_config(text: str) -> RunConfig:
    """Parse a config file.  Unknown keys are reported after the schema
    check, so a file written for another schema fails on its version."""
    known = {f.name for f in fields(RunConfig)}
    values = _read_toml(text)
    config = RunConfig(**{key: value for key, value in values.items() if key in known})
    for key in values:
        if key not in known:
            raise ConfigError(f"unknown key {key!r}")
    return config


def load_config(path, overrides: dict | None = None) -> RunConfig:
    return replace(parse_config(_read_input(path, "config")), **(overrides or {}))


def _read_input(path, what: str, reader=None):
    """`reader(path)`, or the file's text without a reader; every input file
    is read as UTF-8.  A file that does not read or decode is a ConfigError
    naming `what` and the file, and so is the reader's ValidationError."""
    try:
        return reader(path) if reader else Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc


# ---------- shared setup ----------

def _build_task(pset: consti.PrincipleSet, seed: int, vocab: Vocab) -> ToyTask:
    """The toy task over `pset`'s token positives, drawn at `seed` in
    `vocab` with `make_toy_task`'s default settings."""
    patterns = [(p.pid, p.tokens) for p in pset.positives]
    try:
        principles = principles_from_patterns(vocab, patterns)
    except ValidationError as exc:
        raise ConfigError(f"constitution {pset.name!r}: {exc}") from exc
    return make_toy_task(vocab, seed=seed, principles=principles)


def _load_principles(path) -> consti.PrincipleSet:
    return _read_input(path, "constitution", consti.parse_principle_file)


def _load_scored_set(path, vocab: Vocab) -> consti.PrincipleSet:
    """The principle set at `path` for a command that reads its negatives:
    refused unless it has some and each passes `check_pattern` in `vocab`,
    the check `_build_task` makes of the positives."""
    pset = _load_principles(path)
    if not pset.negatives:
        raise ConfigError(f"constitution {pset.name!r} has no negatives")
    try:
        for p in pset.negatives:
            check_pattern(vocab, p.pid, p.tokens)
    except ValidationError as exc:
        raise ConfigError(f"constitution {pset.name!r}: {exc}") from exc
    return pset


def _check_out_dir(path) -> None:
    """Refuse an output dir that names a file or holds files: a command
    writes into a new or empty directory only, so no file of an earlier call
    is left beside its own."""
    out_dir = Path(path)
    if out_dir.exists() and not out_dir.is_dir():
        raise ConfigError(f"output dir {out_dir} is not a directory")
    if out_dir.is_dir() and any(out_dir.iterdir()):
        raise ConfigError(f"output dir {out_dir} exists and is not empty")


def _make_out_dir(path) -> Path:
    """The output directory at `path`, checked by `_check_out_dir` and made
    with its parents if missing."""
    _check_out_dir(path)
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output dir {out_dir}: {exc.strerror}") from exc
    return out_dir


# ---------- train ----------

def cmd_train(args) -> int:
    overrides = {key: getattr(args, key) for key in ("seed", "max_steps", "output_dir")
                 if getattr(args, key) is not None}
    config = load_config(args.config, overrides)

    pset = _load_scored_set(config.constitution, Vocab())
    task = _build_task(pset, config.seed, Vocab())

    out_dir = _make_out_dir(config.output_dir)
    started = time.time()

    # Seeded init (exact zeros are a saddle), then the format warm start with
    # a weak filler bias: the policy arrives format-competent with principle
    # binding near (but not at) chance.
    policy = ToyPolicy(task.vocab)
    policy.init_params(config.seed)
    warm_start(policy, task, WARMSTART_EPOCHS, WARMSTART_LR, config.seed,
               bias=WARMSTART_BIAS)

    trainer = Trainer(policy, task, config)
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
    if not args.components and args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    if args.constitutions and args.warm_epochs < 0:
        raise ConfigError(f"--warm-epochs must be nonnegative, got {args.warm_epochs}")
    # Every principle set is read and its task built, and a components file
    # or the score matrices and NLL rows read and scored, before --out-dir
    # exists, so a bad input leaves no output behind.  A task depends only on
    # the positives, so sets with the same positives share one.
    tasks, built = [], {}
    for path in args.constitutions:
        pset = _load_scored_set(path, Vocab())
        positives = tuple((p.pid, p.tokens) for p in pset.positives)
        if positives not in built:
            built[positives] = _build_task(pset, args.seed, Vocab())
        tasks.append((pset, built[positives]))
    if args.components:
        reports = _read_input(args.components, "components file", consti.read_components)
    if args.scores:
        if args.nll is None:
            raise ConfigError("--scores needs --nll with per-item NLL rows")
        nll_rows = _read_input(args.nll, "NLL CSV", consti.read_nll_csv)
        pos_matrix, neg_matrix = (_read_input(path, "score matrix", mi.read_score_csv)
                                  for path in args.scores)
        for path, matrix in zip(args.scores, (pos_matrix, neg_matrix)):
            if matrix.shape[1] < 2:
                raise ConfigError(f"score CSV {path}: needs at least two principle "
                                  f"columns, got {matrix.shape[1]}")
        if pos_matrix.shape[0] != neg_matrix.shape[0]:
            raise ConfigError(f"score CSVs {args.scores[0]} and {args.scores[1]} hold "
                              f"{pos_matrix.shape[0]} and {neg_matrix.shape[0]} items")
        if len(nll_rows) != pos_matrix.shape[0]:
            raise ConfigError(f"NLL CSV {args.nll}: {len(nll_rows)} rows for "
                              f"{pos_matrix.shape[0]} score CSV items")
        reports = [consti.evaluate_from_score_files(
            Path(args.scores[0]).stem, pos_matrix, neg_matrix, nll_rows, seed=args.seed)]
    # Each report is written to report_<name>.json under --out-dir, which
    # must be one file name of at most 255 bytes.
    names = [pset.name for pset, _ in tasks] if tasks else [r.name for r in reports]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"two reports are named {name!r}; each would write "
                              f"report_{name}.json")
        if "/" in name or os.sep in name:
            raise ConfigError(f"report name {name!r} holds a path separator")
        if "\0" in name:
            raise ConfigError(f"report name {name!r} holds a NUL byte")
        if name.encode(errors="replace").decode() != name:
            raise ConfigError(f"report name {name!r} does not encode as UTF-8")
        if len(os.fsencode(f"report_{name}.json")) > 255:
            raise ConfigError(f"report name {name!r} makes report_<name>.json longer "
                              f"than 255 bytes")
    out_dir = _make_out_dir(args.out_dir)

    if tasks:
        reports = consti.warm_started_reports(tasks, args.seed, args.warm_epochs, WARMSTART_LR)
    reports = consti.with_zscored_si(reports)

    with open(out_dir / "per_principle.csv", "w", newline="") as fh:
        rows = csv.writer(fh, lineterminator="\n")
        rows.writerow(("set", "pid", "delta_nll_bits", "leaky"))
        for report in reports:
            if report.leaky is not None:
                rows.writerows((report.name, pid, bits, 1)
                               for pid, bits in report.leaky["delta_nll_bits"].items())
    for report in reports:
        path = out_dir / f"report_{report.name}.json"
        path.write_text(report.to_json())
        print(f"{report.name}: SI={report.si:.4f} mi_eff={report.mi_effective:.4f} "
              f"auc={report.auc:.4f} bits={report.delta_nll_median:.4f}")
    return EXIT_OK


# ---------- probe ----------

def _write_csv(path, header, rows, before=(), after=()) -> None:
    """The `before` lines, the header, each row's values by repr joined by
    commas, then the `after` lines; every line ends with "\n".  Rows hold
    Python scalars (`.tolist()` values): a numpy scalar's repr is
    np.float64(...)."""
    lines = [*before, header, *(",".join(map(repr, row)) for row in rows), *after]
    Path(path).write_text("".join(line + "\n" for line in lines), newline="")


def cmd_probe(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    # --out-dir is made only once every input checks out; one that names a
    # file or holds files fails before any checkpoint is read.
    _check_out_dir(args.out_dir)

    loaded = []
    for path in args.checkpoints:
        try:
            loaded.append(load_checkpoint(path))
        except (OSError, ValueError, zipfile.BadZipFile) as exc:
            # zipfile raises BadZipFile on a file that is not an archive or
            # is cut; the reader's ValidationError is a ValueError.
            print(f"error: cannot load checkpoint {path}: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
    # A trainer used outside the CLI saves checkpoints with config_hash "",
    # so their shapes are compared too: one probe task is scored through all.
    meta = loaded[0][1]
    for key in ("config_hash", "vocab_size", "dim", "max_len"):
        for path, (_, other) in zip(args.checkpoints, loaded):
            if other.get(key) != meta.get(key):
                raise ConfigError(f"checkpoints {args.checkpoints[0]} and {path} "
                                  f"differ in {key}")

    # The task is the run's own (vocabulary from meta), with the probe's seed
    # and principles.  Schemas 3-6 stored the prompt length and
    # bias, now constants; a stored value other than the constant is refused
    # rather than probed on another run's prompts.
    source = f"checkpoint {args.checkpoints[0]} config"
    config_text = meta.get("config_text")
    if not isinstance(config_text, str):
        raise ConfigError(f"{source}: config_text must be a string, got {config_text!r}")
    stored = _read_toml(config_text, source)
    for key, value in (("prompt_len", tk.PROMPT_LEN), ("task_bias", tk.TASK_BIAS)):
        if stored.get(key, value) != value:
            raise ConfigError(f"{source}: {key} = {stored[key]!r}, but the probe task "
                              f"uses {key} = {value!r}")
    task = _build_task(_load_principles(args.constitution), args.seed, Vocab(meta["vocab_size"]))
    out_dir = _make_out_dir(args.out_dir)
    # The probe context (the first item's prompt and principle) is bagged
    # once; the bag depends on no parameters.
    item = task.items[0]
    weights = loaded[0][0].bag([(item.prompt, task.principles[item.column].tokens)])
    dists = [prob_metrics.ProbVector(policy.forward(weights).next_token_probs(0))
             for policy, _ in loaded]
    steps = [meta["step"] for _, meta in loaded]

    records = prob_metrics.probe_report_batch(zip(dists[:-1], dists[1:]))
    fields = prob_metrics.PROBE_CSV_FIELDS
    _write_csv(out_dir / "probe_report.csv", ",".join(fields),
               ([rec[key] for key in fields] for rec in records))

    if len(dists) >= 2:
        stats = prob_metrics.fr_path_stats(dists)
        summary = "cumulative_length,endpoint_geodesic,ratio,degenerate"
        _write_csv(out_dir / "fr_path.csv", "segment_index,step_from,step_to,segment_length",
                   ((i, steps[i], steps[i + 1], seg)
                    for i, seg in enumerate(stats["segment_lengths"])),
                   after=("# " + summary,
                          "# " + ",".join(repr(stats[key]) for key in summary.split(","))))
        if len(dists) >= 3:
            _write_csv(out_dir / "turning_angles.csv", "interior_step,angle_radians",
                       zip(steps[1:-1], prob_metrics.turning_angles(dists)))
        # Exact token-index W2^2 between the first and last checkpoints.
        _write_csv(out_dir / "output_ot.csv", "step_from,step_to,token_index_w2sq",
                   [(steps[0], steps[-1], ot.output_space_ot_diag(dists[0], dists[-1]))])

    # Landscape grid around the last checkpoint's probe distribution.
    betas = prob_metrics.LANDSCAPE_BETAS.tolist()
    _write_csv(out_dir / "landscape.csv", "alpha,beta,value",
               ((a, b, value) for a, row in zip(prob_metrics.LANDSCAPE_ALPHAS.tolist(),
                                                prob_metrics.landscape_grid(dists[-1]).tolist())
                for b, value in zip(betas, row)),
               before=(f"# {prob_metrics.LANDSCAPE_METADATA}",))

    # Aligned score matrix and per-row diagonal statistics for the last policy.
    aligned, diag = consti.aligned_scores(loaded[-1][0], task)
    mi.write_score_csv(aligned, out_dir / "icmi_matrix.csv")
    log_p = float(np.log(len(task.principles)))
    _write_csv(out_dir / "icmi_diag.csv", "row,diag_log_softmax,pmi",
               ((i, val, val + log_p) for i, val in enumerate(diag.tolist())))

    print(f"probe artifacts written to {out_dir}")
    return EXIT_OK


# ---------- entry point ----------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `geoloop` parser, built once per process: parsing only reads it,
    and `main` looks the command's function up when it is called."""
    parser = argparse.ArgumentParser(
        prog="geoloop",
        description="Single-loop toy trainer and information-geometry metrology")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the training loop from a config file")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--max-steps", type=int, dest="max_steps")
    p_train.add_argument("--output-dir", dest="output_dir")

    p_eval = sub.add_parser("eval-constitution",
                            help="score principle sets for training sufficiency")
    p_eval.add_argument("constitutions", nargs="*")
    p_eval.add_argument("--components", help="JSON file of measured components to replay")
    p_eval.add_argument("--scores", nargs=2, metavar=("POS_CSV", "NEG_CSV"),
                        help="external score matrices (items x principles)")
    p_eval.add_argument("--nll", help="per-item NLL CSV for --scores mode")
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--warm-epochs", type=int, default=120, dest="warm_epochs")
    p_eval.add_argument("--out-dir", default="eval_out", dest="out_dir")

    p_probe = sub.add_parser("probe", help="geometry probes over checkpoints")
    p_probe.add_argument("checkpoints", nargs="+")
    p_probe.add_argument("--constitution", default=str(DATA_DIR / "toy_high_si.txt"))
    p_probe.add_argument("--seed", type=int, default=0)
    p_probe.add_argument("--out-dir", default="probe_out", dest="out_dir")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = {"train": cmd_train, "eval-constitution": cmd_eval_constitution,
               "probe": cmd_probe}[args.command]
    try:
        return command(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
