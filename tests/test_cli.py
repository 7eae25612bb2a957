"""Command-line surface: config round trip, exit codes, artifact layout."""
import hashlib
import io
import json
import math
import os
import re
import struct
import tracemalloc
import zipfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geoloop import cli, mi, ot, prob_metrics
from geoloop import constitution as consti
from geoloop.policy import DEFAULT_DIM, ToyPolicy, mle_pretrain, transition_counts, warm_start
from geoloop.task import ToyPrinciple, Vocab, gold_items, make_toy_principles, make_toy_task
from geoloop.trainer import STEPS_JSONL_FIELDS, Trainer, load_checkpoint

DATA = Path(cli.DATA_DIR)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# Golden outputs written by the code before eval-constitution shared warm
# starts between sets and backward took precomputed count sums; the probe's
# before the table kernel took its log-partitions only when read.
GOLDEN = Path(__file__).resolve().parent / "data"
# The checked-in checkpoint (meta schema 1) of a one-step run; the config it
# stores is schema 4.
SCHEMA_1_CHECKPOINT = GOLDEN / "ckpt_schema1.npz"
# The run config's trainer hyperparameters.
TRAINER_FIELDS = ("sami_weight", "ot_weight", "ot_warmup", "shadow_k", "channel_weight",
                  "jitter_sigma")


def short_config(tmp_path, **overrides) -> Path:
    fields = dict(
        seed=5, max_steps=8, checkpoint_every=4,
        output_dir=str(tmp_path / "run"),
        constitution=str(DATA / "toy_high_si.txt"),
        ot_warmup=4,
    )
    fields.update(overrides)
    config = cli.RunConfig(**fields)
    path = tmp_path / "config.toml"
    path.write_text(cli.serialise_config(config))
    return path


# The tie-breaker settings that schema 4 held, at the values every bundled
# config gave them; schema 5 makes them constants in geoloop.rewards.
RETIRED_SCHEMA_4_KEYS = {"entropy_quantile": 0.8, "sigmoid_slope": 2.5,
                         "autoscale_target": 0.2, "autoscale_eta": 0.05, "ema_decay": 0.99}
# The settings that schema 5 held at one value in every bundled config;
# schema 6 makes them constants (trainer.BLUR, LEARNING_RATE and GRAD_CLIP,
# policy.DEFAULT_DIM, cli.WARMSTART_LR and WARMSTART_BIAS) and drops the
# shaping term.
RETIRED_SCHEMA_5_KEYS = {"shaping_weight": 0.0, "blur": 0.12, "learning_rate": 1.0,
                         "grad_clip": 1.0, "policy_dim": 32, "warmstart_lr": 0.5,
                         "warmstart_bias": 0.15}
# The settings that schema 6 held at one value in every bundled config;
# schema 7 makes them constants (trainer.GROUP_SIZE, MI_WARMUP_STEPS and
# PROMPTS_PER_BATCH, cli.WARMSTART_EPOCHS, TASK_ITEMS, PROMPT_LEN and
# TASK_BIAS, and task.DEFAULT_VOCAB_SIZE).
RETIRED_SCHEMA_6_KEYS = {"group_size": 4, "mi_warmup_steps": 50, "prompts_per_batch": 8,
                         "warmstart_epochs": 200, "task_items": 32, "prompt_len": 2,
                         "task_bias": 0.8, "vocab_size": 16}


def refuse(*args, **kwargs):
    pytest.fail("ran before the output dir was checked")


def out_dir_file_rejected(tmp_path, capsys, argv, inside=False):
    """argv run with --out-dir naming an existing file, or with inside a
    directory that holds one: exit 2, the path in the message, and the file
    as it was."""
    out = tmp_path / "out"
    kept = out / "old.csv" if inside else out
    kept.parent.mkdir(exist_ok=True)
    kept.write_text("keep")
    assert cli.main([*argv, "--out-dir", str(out)]) == cli.EXIT_CONFIG
    assert str(out) in capsys.readouterr().err
    assert kept.read_text() == "keep"
    assert not inside or list(out.iterdir()) == [kept]


class TestConfigRoundTrip:
    def test_parse_serialise_identity(self):
        # A quote, a backslash, a tab and U+007F are written escaped.
        for output_dir in ("run", 'a"b', "a\\b", "a\tb", "a\x7fb"):
            config = cli.RunConfig(seed=7, channel_weight=0.0, jitter_sigma=0.25,
                                   output_dir=output_dir)
            text = cli.serialise_config(config)
            again = cli.parse_config(text)
            assert again == config
            assert cli.serialise_config(again) == text

    def test_unknown_key_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config(f"schema_version = {cli.SCHEMA_VERSION}\nbogus = 3\n")

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_every_accepted_config_round_trips(self, data):
        # Each field drawn from its type, mostly in range: an int from 1
        # where RunConfig requires at least 1, and the output dir non-empty.
        # Half the strings come from an alphabet with lone surrogates, which
        # no UTF-8 file holds; a config that RunConfig accepts must read back
        # equal from its serialised text, stored as UTF-8.
        def strategy(name, kind):
            if kind == "int":
                low = 1 if name in {"max_steps", "checkpoint_every", "shadow_k"} else 0
                return st.integers(low, 10 ** 6)
            if kind == "float":
                return st.one_of(st.integers(0, 100),
                                 st.floats(0, allow_nan=False, allow_infinity=False))
            size = 1 if name == "output_dir" else 0
            return st.one_of(st.text(min_size=size), st.text(st.one_of(
                st.characters(), st.characters(categories=["Cs"])), min_size=size))

        values = {f.name: data.draw(strategy(f.name, f.type), label=f.name)
                  for f in fields(cli.RunConfig) if f.name != "schema_version"}
        try:
            config = cli.RunConfig(**values)
        except cli.ConfigError:
            assume(False)
        assert cli.parse_config(cli.serialise_config(config).encode().decode()) == config

    @pytest.mark.parametrize("value", ["a\nb", "a\r", "\r\n", "a\x0bb", "a\x1cb", "\x85",
                                       "a\u2028b"])
    @pytest.mark.parametrize("key", ["output_dir", "constitution"])
    def test_string_that_splits_into_lines_rejected(self, key, value):
        # serialise_config writes one key a line; str.splitlines splits on
        # each of these, and the writer leaves U+0085 and U+2028 unescaped.
        with pytest.raises(cli.ConfigError, match=f"{key} must be one line"):
            cli.RunConfig(**{key: value})

    def test_bad_ablation_rejected(self):
        # Every ablation key is bad: a run's weights are stated in its file,
        # and no key selects a preset.
        with pytest.raises(cli.ConfigError, match="unknown key 'ablation'"):
            cli.parse_config(f'schema_version = {cli.SCHEMA_VERSION}\nablation = "grpo_cot"\n')

    def test_comments_and_blanks_ignored(self):
        config = cli.parse_config("# comment\n\nseed = 9\n")
        assert config.seed == 9

    @pytest.mark.parametrize("line, key, value", [
        ("seed = 3  # note", "seed", 3),
        ("output_dir = 'runs/a'", "output_dir", "runs/a"),
        ('"seed" = 3', "seed", 3),
    ])
    def test_toml_comment_literal_string_and_quoted_key_read(self, line, key, value):
        assert getattr(cli.parse_config(line + "\n"), key) == value

    def test_schema_version_checked(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config("schema_version = 99\n")

    def test_schema_1_file_fails_on_its_version(self):
        # Schema 1 had a kl_beta key; the version is reported, not the key.
        with pytest.raises(cli.ConfigError, match="schema_version 1"):
            cli.parse_config("schema_version = 1\nkl_beta = 0.0\n")

    def test_schema_2_file_fails_on_its_version(self):
        # Schema 2 had the clip_eps key; the version is reported, not the key.
        with pytest.raises(cli.ConfigError, match="schema_version 2"):
            cli.parse_config("schema_version = 2\nclip_eps = 0.1\n")

    def test_schema_3_file_fails_on_its_version(self):
        # Schema 3 had the ablation, ot_subsample_cap and scale_rewards keys;
        # the version is reported, not the keys.
        with pytest.raises(cli.ConfigError, match="schema_version 3"):
            cli.parse_config('schema_version = 3\nablation = "grpo_cot"\n'
                             'ot_subsample_cap = 512\nscale_rewards = "none"\n')

    def test_schema_4_file_fails_on_its_version(self):
        # Schema 4 had the tie-breaker's five settings, now rewards' constants;
        # the version is reported, not the keys.
        with pytest.raises(cli.ConfigError, match="schema_version 4"):
            cli.parse_config("schema_version = 4\n" + "".join(
                f"{key} = {value}\n" for key, value in RETIRED_SCHEMA_4_KEYS.items()))

    def test_schema_5_file_fails_on_its_version(self):
        # Schema 5 had seven settings that are now constants or gone; the
        # version is reported, not the keys.
        with pytest.raises(cli.ConfigError, match="schema_version 5"):
            cli.parse_config("schema_version = 5\n" + "".join(
                f"{key} = {value}\n" for key, value in RETIRED_SCHEMA_5_KEYS.items()))

    def test_schema_6_file_fails_on_its_version(self):
        # Schema 6 had eight settings that are now constants; the version is
        # reported, not the keys.
        with pytest.raises(cli.ConfigError, match="schema_version 6"):
            cli.parse_config("schema_version = 6\n" + "".join(
                f"{key} = {value}\n" for key, value in RETIRED_SCHEMA_6_KEYS.items()))

    def test_repeated_key_rejected_naming_its_line(self):
        # The last value used to win, so an appended line silently changed the run.
        text = (CONFIGS / "enigma_high_si.toml").read_text()
        n_lines = text.count("\n")
        with pytest.raises(cli.ConfigError,
                           match=re.escape(f"Cannot overwrite a value (at line {n_lines + 1},")):
            cli.parse_config(text + "sami_weight = 0.0\n")

    def test_bad_trainer_field_rejected(self):
        with pytest.raises(cli.ConfigError, match="shadow_k must be at least 1"):
            cli.parse_config(f"schema_version = {cli.SCHEMA_VERSION}\nshadow_k = 0\n")

    @pytest.mark.parametrize("name", ["enigma_high_si", "grpo_cot", "grpo_cot_plus"])
    def test_bundled_configs_round_trip(self, name):
        text = (CONFIGS / f"{name}.toml").read_text()
        assert cli.serialise_config(cli.parse_config(text)) == text

    def test_trainer_defaults_are_the_bundled_recipe(self):
        bundled = cli.load_config(CONFIGS / "enigma_high_si.toml")
        defaults = cli.RunConfig()
        for name in TRAINER_FIELDS:
            assert getattr(bundled, name) == getattr(defaults, name), name


class TestTrainCommand:
    def test_missing_constitution_exits_2_no_output(self, tmp_path):
        config = short_config(tmp_path, constitution=str(tmp_path / "absent.txt"))
        code = cli.main(["train", "--config", str(config)])
        assert code == cli.EXIT_CONFIG
        assert not (tmp_path / "run").exists()

    def test_bad_trainer_field_exits_2_no_output(self, tmp_path):
        config = short_config(tmp_path)
        text = config.read_text().replace("shadow_k = 2", "shadow_k = 0")
        config.write_text(text)
        assert cli.main(["train", "--config", str(config)]) == cli.EXIT_CONFIG
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("field, value", [
        # Each of these once failed with a traceback and partial outputs,
        # after the first checkpoint.
        ("ot_weight", "inf"), ("shadow_k", "0"),
        # This died in numpy's seeding with a traceback (exit 1).
        ("seed", "-1"),
        # A non-finite value in any float field.
        ("sami_weight", "-inf"), ("jitter_sigma", "nan"),
        # A value of another type: these failed after the first checkpoint.
        ("shadow_k", "2.0"), ("output_dir", "5"),
    ])
    def test_out_of_range_field_exits_2_no_output(self, tmp_path, capsys, field, value):
        config = short_config(tmp_path)
        text, n = re.subn(rf"^{field} = .*$", f"{field} = {value}", config.read_text(),
                          flags=re.MULTILINE)
        assert n == 1
        config.write_text(text)
        assert cli.main(["train", "--config", str(config)]) == cli.EXIT_CONFIG
        assert f"config error: {field} must be" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @staticmethod
    def retired_key_rejected(tmp_path, capsys, key, value):
        config = short_config(tmp_path)
        config.write_text(config.read_text() + f"{key} = {value}\n")
        assert cli.main(["train", "--config", str(config)]) == cli.EXIT_CONFIG
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key", sorted(RETIRED_SCHEMA_4_KEYS))
    def test_retired_schema_4_key_exits_2_naming_it(self, tmp_path, capsys, key):
        self.retired_key_rejected(tmp_path, capsys, key, RETIRED_SCHEMA_4_KEYS[key])

    @pytest.mark.parametrize("key", sorted(RETIRED_SCHEMA_5_KEYS))
    def test_retired_schema_5_key_exits_2_naming_it(self, tmp_path, capsys, key):
        self.retired_key_rejected(tmp_path, capsys, key, RETIRED_SCHEMA_5_KEYS[key])

    @pytest.mark.parametrize("key", sorted(RETIRED_SCHEMA_6_KEYS))
    def test_retired_schema_6_key_exits_2_naming_it(self, tmp_path, capsys, key):
        self.retired_key_rejected(tmp_path, capsys, key, RETIRED_SCHEMA_6_KEYS[key])

    def test_output_dir_flag_with_a_line_break_exits_2_no_output(self, tmp_path, capsys):
        # It used to run: the checkpoints' stored config then split the path
        # over two lines, and probe refused every one of them with exit 2.
        config = short_config(tmp_path)
        out = tmp_path / "nl\nrun"
        code = cli.main(["train", "--config", str(config), "--output-dir", str(out)])
        assert code == cli.EXIT_CONFIG
        assert "config error: output_dir must be one line" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [config]

    def test_output_dir_flag_that_is_not_utf8_exits_2_no_output(self, tmp_path, capsys):
        # A path byte that is not UTF-8 reaches Python as a lone surrogate.
        # It used to die in the config hash with a traceback (exit 1), after
        # the warm start, leaving the output directory behind empty.
        config = short_config(tmp_path)
        out = tmp_path / os.fsdecode(b"x\xffy")
        code = cli.main(["train", "--config", str(config), "--output-dir", str(out)])
        assert code == cli.EXIT_CONFIG
        assert "config error: output_dir must encode as UTF-8" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [config]

    def test_negative_seed_flag_exits_2_no_output(self, tmp_path, capsys):
        # It died in numpy's seeding with a traceback (exit 1).
        config = short_config(tmp_path)
        assert cli.main(["train", "--config", str(config), "--seed", "-1"]) == cli.EXIT_CONFIG
        assert "config error: seed must be nonnegative, got -1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_empty_output_dir_in_the_config_exits_2_no_output(self, tmp_path, capsys,
                                                               monkeypatch):
        # It wrote the whole run into the working directory and exited 0.
        config = short_config(tmp_path)
        config.write_text(re.sub(r"(?m)^output_dir = .*$", 'output_dir = ""',
                                 config.read_text()))
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert cli.main(["train", "--config", str(config)]) == cli.EXIT_CONFIG
        assert "config error: output_dir must be non-empty, got ''" in capsys.readouterr().err
        assert list(work.iterdir()) == []

    def test_empty_output_dir_flag_exits_2_no_output(self, tmp_path, capsys):
        # It was ignored, and the run went to the config's output_dir.
        config = short_config(tmp_path)
        code = cli.main(["train", "--config", str(config), "--output-dir", ""])
        assert code == cli.EXIT_CONFIG
        assert "config error: output_dir must be non-empty, got ''" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [config]

    def test_cold_start_has_gradient(self, tmp_path, monkeypatch):
        # Without a warm start the policy must still leave the all-zero saddle.
        monkeypatch.setattr(cli, "WARMSTART_EPOCHS", 0)
        config = short_config(tmp_path, max_steps=3)
        assert cli.main(["train", "--config", str(config)]) == cli.EXIT_OK
        rows = [json.loads(line) for line in
                (tmp_path / "run" / "steps.jsonl").read_text().splitlines()]
        assert any(row["grad_norm"] > 0 for row in rows)

    def test_logs_are_strict_json(self, tmp_path, monkeypatch):
        # A cold start has no clean subset, so the clean bounds are NaN in
        # memory; the logs carry them as null, never as a bare NaN.
        monkeypatch.setattr(cli, "WARMSTART_EPOCHS", 0)
        config = short_config(tmp_path, max_steps=10)
        assert cli.main(["train", "--config", str(config)]) == cli.EXIT_OK
        run = tmp_path / "run"

        def reject(constant):
            raise ValueError(f"non-JSON constant {constant}")

        rows = [json.loads(line, parse_constant=reject)
                for line in (run / "steps.jsonl").read_text().splitlines()]
        json.loads((run / "summary.json").read_text(), parse_constant=reject)
        assert len(rows) == 10
        assert any(row["mi_row_clean"] is None for row in rows)
        for row in rows:
            ot_fields = (row["ot_iters"], row["ot_violation"], row["ot_converged"])
            if row["step"] < 4:
                assert ot_fields == (None, None, None)
            else:
                assert isinstance(row["ot_iters"], int) and row["ot_iters"] > 0
                assert row["ot_violation"] >= 0.0
                assert isinstance(row["ot_converged"], bool)

    # sami_weight reaches the gradient from step 1, when its warm-up leaves
    # zero; a huge jitter overflows the reward spread at step 0.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("key, value, step, overflowed", [
        ("sami_weight", 1e300, 1, "grad_norm"),
        ("sami_weight", 1e160, 1, "grad_norm"),
        ("jitter_sigma", 1e300, 0, "reward_std, grad_norm"),
    ])
    def test_overflowing_step_exits_1_keeping_strict_json_rows(self, tmp_path, capsys, key,
                                                                value, step, overflowed):
        config = cli.load_config(CONFIGS / "enigma_high_si.toml", {
            key: value, "constitution": str(DATA / "toy_high_si.txt"),
            "output_dir": str(tmp_path / "run")})
        path = tmp_path / "config.toml"
        path.write_text(cli.serialise_config(config))
        assert cli.main(["train", "--config", str(path), "--max-steps", "25"]) == cli.EXIT_RUNTIME
        assert capsys.readouterr().err == f"error: step {step}: {overflowed} not finite\n"
        run = tmp_path / "run"

        def reject(constant):
            raise ValueError(f"non-JSON constant {constant}")

        rows = [json.loads(line, parse_constant=reject)
                for line in (run / "steps.jsonl").read_text().splitlines()]
        assert [row["step"] for row in rows] == list(range(step))
        assert sorted(p.name for p in run.iterdir()) == ["ckpt_000000.npz", "steps.jsonl"]

    def test_summary_counts_the_step_rows(self, tmp_path, monkeypatch):
        # A cold start logs null row bounds; OT runs from step 4.
        trainers = []

        class Recorded(cli.Trainer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                trainers.append(self)

        monkeypatch.setattr(cli, "Trainer", Recorded)
        monkeypatch.setattr(cli, "WARMSTART_EPOCHS", 0)
        config = short_config(tmp_path, max_steps=10)
        assert cli.main(["train", "--config", str(config)]) == cli.EXIT_OK
        run = tmp_path / "run"
        rows = [json.loads(line) for line in (run / "steps.jsonl").read_text().splitlines()]
        summary = json.loads((run / "summary.json").read_text())
        assert summary["null_row_bound_steps"] == sum(r["mi_row_clean"] is None for r in rows)
        assert summary["null_row_bound_steps"] > 0
        assert summary["geometry_degenerate_steps"] == sum(r["geometry_degenerate"] for r in rows)
        assert summary["ot_unconverged_steps"] == sum(r["ot_converged"] is False for r in rows)
        state = trainers[0].autoscaler
        assert summary["autoscaler"] == {"ema_mi": state.ema_mi, "ema_base": state.ema_base,
                                         "beta": state.beta}
        assert {f.name for f in fields(state)} == set(summary["autoscaler"])
        assert state.ema_mi > 0.0

    def test_run_directory_contents(self, tmp_path):
        config = short_config(tmp_path)
        assert cli.main(["train", "--config", str(config)]) == cli.EXIT_OK
        run = tmp_path / "run"
        lines = (run / "steps.jsonl").read_text().splitlines()
        assert len(lines) == 8
        row = json.loads(lines[0])
        assert list(row.keys()) == list(STEPS_JSONL_FIELDS)
        assert list(row)[-5:] == ["geometry_degenerate", "beta", "ot_iters",
                                  "ot_violation", "ot_converged"]
        assert row["beta"] == 1.0
        assert isinstance(row["geometry_degenerate"], bool)
        summary = json.loads((run / "summary.json").read_text())
        assert summary["last_step"]["step"] == 7
        assert set(summary["checkpoint_hashes"]) == {"0", "4", "8"}
        for step in (0, 4, 8):
            assert (run / f"ckpt_{step:06d}.npz").exists()
        assert (run / "run_meta.json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        config_a = short_config(tmp_path, output_dir=str(tmp_path / "a"))
        assert cli.main(["train", "--config", str(config_a)]) == cli.EXIT_OK
        config_b = short_config(tmp_path, output_dir=str(tmp_path / "b"))
        assert cli.main(["train", "--config", str(config_b)]) == cli.EXIT_OK
        bytes_a = (tmp_path / "a" / "steps.jsonl").read_bytes()
        bytes_b = (tmp_path / "b" / "steps.jsonl").read_bytes()
        assert bytes_a == bytes_b

    def test_grpo_cot_config_is_what_runs(self, tmp_path):
        # The run records the weights it trained with: those in its file.
        run = tmp_path / "cot"
        code = cli.main(["train", "--config", str(CONFIGS / "grpo_cot.toml"),
                         "--max-steps", "5", "--output-dir", str(run)])
        assert code == cli.EXIT_OK
        rows = [json.loads(line) for line in (run / "steps.jsonl").read_text().splitlines()]
        assert len(rows) == 5
        assert all(row["reward_mi_mean"] == 0.0 for row in rows)
        assert all(row["loss_ot"] == 0.0 for row in rows)
        recorded = json.loads((run / "summary.json").read_text())["config"]
        for name in ("sami_weight", "ot_weight", "channel_weight"):
            assert recorded[name] == 0.0, name

    def test_existing_nonempty_output_rejected(self, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        (run / "junk").write_text("x")
        config = short_config(tmp_path)
        assert cli.main(["train", "--config", str(config)]) == cli.EXIT_CONFIG

    def test_output_dir_that_is_a_file_exits_2_before_the_warm_start(
            self, tmp_path, capsys, monkeypatch):
        run = tmp_path / "run"
        run.write_text("keep")
        monkeypatch.setattr(cli, "warm_start", refuse)
        config = short_config(tmp_path)
        assert cli.main(["train", "--config", str(config),
                         "--output-dir", str(run)]) == cli.EXIT_CONFIG
        assert str(run) in capsys.readouterr().err
        assert run.read_text() == "keep"


class TestEvalCommand:
    def test_components_replay(self, tmp_path):
        out = tmp_path / "eval"
        code = cli.main(["eval-constitution",
                         "--components", str(DATA / "component_replay.json"),
                         "--out-dir", str(out)])
        assert code == cli.EXIT_OK
        report = json.loads((out / "report_1b_baseline.json").read_text())
        assert report["si"] == pytest.approx(0.715, abs=0.01)
        assert report["mi_effective"] == pytest.approx(2.42, abs=0.01)
        report = json.loads((out / "report_4b_rewritten.json").read_text())
        assert report["si"] == pytest.approx(1.956, abs=0.01)

    def test_bundled_sets_ordering(self, tmp_path):
        out = tmp_path / "eval"
        code = cli.main(["eval-constitution",
                         str(DATA / "toy_high_si.txt"), str(DATA / "toy_low_si.txt"),
                         "--items", "24", "--warm-epochs", "80",
                         "--out-dir", str(out)])
        assert code == cli.EXIT_OK
        high = json.loads((out / "report_toy_high_si.json").read_text())
        low = json.loads((out / "report_toy_low_si.json").read_text())
        assert high["si"] > low["si"]
        assert high["si_zscored"] is not None
        # Each flagged negative's row carries the median delta-NLL its flag
        # was computed from, as in the report's leaky entry.
        lines = (out / "per_principle.csv").read_text().splitlines()
        assert lines[0] == "set,pid,delta_nll_bits,leaky"
        rows = [line.split(",") for line in lines[1:]]
        assert rows
        reports = {"toy_high_si": high, "toy_low_si": low}
        for name, pid, bits, leaky in rows:
            assert math.isfinite(float(bits)) and float(bits) > 0.0
            assert float(bits) == reports[name]["leaky"]["delta_nll_bits"][pid]
            assert leaky == "1"

    def test_empty_negatives_schema_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("positives:\n- 4 9 4 9\n- 5 10 5 10\nnegatives:\n")
        code = cli.main(["eval-constitution", str(bad),
                         "--out-dir", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG

    def test_external_score_files(self, tmp_path):
        from geoloop.mi import ScoreMatrix, write_score_csv
        rng = np.random.default_rng(0)
        n, m = 8, 4
        pos = rng.normal(-1.0, 0.05, (n, m))
        for i in range(n):
            pos[i, i % m] += 1.5
        neg = rng.normal(-1.0, 0.05, (n, m))
        write_score_csv(ScoreMatrix(pos), tmp_path / "pos.csv")
        write_score_csv(ScoreMatrix(neg), tmp_path / "neg.csv")
        (tmp_path / "nll.csv").write_text(
            "nll_without_bits,nll_with_bits\n" + "2.0,1.9\n" * n)
        out = tmp_path / "ext"
        code = cli.main(["eval-constitution",
                         "--scores", str(tmp_path / "pos.csv"), str(tmp_path / "neg.csv"),
                         "--nll", str(tmp_path / "nll.csv"),
                         "--out-dir", str(out)])
        assert code == cli.EXIT_OK
        report = json.loads((out / "report_pos.json").read_text())
        assert report["delta_nll_median_bits"] == pytest.approx(0.1)
        assert report["mi_effective"] > 0.5

    def test_scores_without_nll_rejected(self, tmp_path):
        code = cli.main(["eval-constitution",
                         "--scores", "a.csv", "b.csv",
                         "--out-dir", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG

    @staticmethod
    def external_files(tmp_path, pos_body="0.0,-1.0\n-1.0,0.0\n",
                       nll_body="2.0,1.9\n2.0,1.8\n"):
        """--scores and --nll arguments over two items and two principles."""
        for name, body in (("pos", pos_body), ("neg", "0.0,-0.5\n-0.5,0.0\n")):
            (tmp_path / f"{name}.csv").write_text("normalisation=length_mean,N=2,M=2\n" + body)
        (tmp_path / "nll.csv").write_text("nll_without_bits,nll_with_bits\n" + nll_body)
        return ["eval-constitution",
                "--scores", str(tmp_path / "pos.csv"), str(tmp_path / "neg.csv"),
                "--nll", str(tmp_path / "nll.csv"), "--out-dir", str(tmp_path / "out")]

    @pytest.mark.parametrize("body", ["0.0,-1.0\n-1.0,oops\n", "0.0,-1.0\n-1.0\n"],
                             ids=["non_numeric", "ragged"])
    def test_malformed_score_csv_is_an_error_not_a_traceback(self, tmp_path, capsys, body):
        assert cli.main(self.external_files(tmp_path, pos_body=body)) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "pos.csv" in err and "line 3" in err
        assert not (tmp_path / "out").exists()

    def test_score_csv_with_fewer_rows_than_its_header_exits_2(self, tmp_path, capsys):
        assert cli.main(self.external_files(tmp_path, pos_body="0.0,-1.0\n")) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "pos.csv" in err and "does not match header (2,2)" in err
        assert not (tmp_path / "out").exists()

    def test_short_nll_row_is_a_config_error(self, tmp_path, capsys):
        args = self.external_files(tmp_path, nll_body="2.0,1.9\n2.0\n")
        assert cli.main(args) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "nll.csv" in err and "line 3" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("break_input, message, name", [
        (lambda tmp: (tmp / "nll.csv").unlink(), "cannot read NLL CSV", "nll.csv"),
        (lambda tmp: (tmp / "nll.csv").write_text("without,with\n2.0,1.9\n"),
         "bad NLL CSV header", "nll.csv"),
        (lambda tmp: (tmp / "neg.csv").unlink(), "cannot read score matrix", "neg.csv"),
        # Each of the rest exited 1, or (the row count) was accepted.
        (lambda tmp: (tmp / "nll.csv").write_text(
            "nll_without_bits,nll_with_bits\n2.0,nan\n2.0,1.8\n"),
         "line 2: values must be finite", "nll.csv"),
        (lambda tmp: (tmp / "nll.csv").write_text("nll_without_bits,nll_with_bits\n"),
         "has no rows", "nll.csv"),
        (lambda tmp: (tmp / "nll.csv").write_text(
            "nll_without_bits,nll_with_bits\n2.0,1.9\n2.0,1.8\n2.0,1.7\n"),
         "3 rows for 2 score CSV items", "nll.csv"),
        (lambda tmp: (tmp / "neg.csv").write_text(
            "normalisation=length_mean,N=3,M=2\n0.0,-0.5\n-0.5,0.0\n0.0,-0.5\n"),
         "hold 2 and 3 items", "neg.csv"),
        (lambda tmp: (tmp / "pos.csv").write_text(
            "normalisation=length_mean,N=2,M=1\n0.0\n-1.0\n"),
         "needs at least two principle columns, got 1", "pos.csv"),
        (lambda tmp: (tmp / "pos.csv").write_text(
            "normalisation=length_mean,N=2,M=2\n0.0,-1.0\n-1.0,inf\n"),
         "entries must be finite", "pos.csv"),
        # M=-1 let rows of any length through to numpy's inhomogeneous-shape
        # ValueError, a traceback.
        (lambda tmp: (tmp / "pos.csv").write_text(
            "normalisation=length_mean,N=2,M=-1\n0.0,-1.0\n-1.0\n"),
         "header M must be at least 1, got -1", "pos.csv")],
        ids=["missing_nll", "bad_nll_header", "missing_score_csv", "nonfinite_nll",
             "empty_nll", "nll_row_count", "item_count", "one_column", "nonfinite_score",
             "m_below_1"])
    def test_bad_score_input_exits_2_before_any_output(self, tmp_path, capsys,
                                                       break_input, message, name):
        args = self.external_files(tmp_path)
        break_input(tmp_path)
        assert cli.main(args) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err and str(tmp_path / name) in err
        assert not (tmp_path / "out").exists()

    def test_perplexity_ratio_past_the_float_range_is_null(self, tmp_path):
        # 2 ** 2000 raised OverflowError: a traceback and no report.
        components = tmp_path / "components.json"
        components.write_text(json.dumps([{"name": "c", "bits": -2000, "auc": 0.5,
                                           "margin_pos": 1.0, "margin_neg": 0.5}]))
        assert cli.main(["eval-constitution", "--components", str(components),
                         "--out-dir", str(tmp_path / "replay")]) == cli.EXIT_OK
        args = self.external_files(tmp_path, nll_body="0.0,2000.0\n0.0,2000.0\n")
        assert cli.main(args) == cli.EXIT_OK
        for path in (tmp_path / "replay" / "report_c.json", tmp_path / "out" / "report_pos.json"):
            report = json.loads(path.read_text())
            assert report["delta_nll_median_bits"] == -2000
            assert report["perplexity_ratio"] is None
            assert report["perplexity_drop_pct"] is None
            assert report["si"] == consti.sufficiency_index(-2000, report["mi_effective"],
                                                            report["auc"])

    def test_components_row_without_auc_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "components.json"
        path.write_text(json.dumps([{"name": "x", "bits": 0.1, "margin_pos": 1.0,
                                     "margin_neg": 0.5}]))
        code = cli.main(["eval-constitution", "--components", str(path),
                         "--out-dir", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "components.json" in err and "'auc'" in err

    def test_missing_bounds_are_strict_json_nulls(self, tmp_path):
        self.assert_bounds_are_strict_json_nulls(tmp_path, {})

    def test_null_bounds_are_strict_json_nulls(self, tmp_path):
        self.assert_bounds_are_strict_json_nulls(
            tmp_path, {"lb_pos_bits": None, "lb_neg_bits": None})

    @staticmethod
    def assert_bounds_are_strict_json_nulls(tmp_path, bounds):
        path = tmp_path / "components.json"
        path.write_text(json.dumps([{"name": "x", "bits": 0.1, "auc": 0.6,
                                     "margin_pos": 1.0, "margin_neg": 0.5, **bounds}]))
        out = tmp_path / "out"
        code = cli.main(["eval-constitution", "--components", str(path),
                         "--out-dir", str(out)])
        assert code == cli.EXIT_OK

        def reject(constant):
            raise ValueError(f"non-JSON constant {constant}")

        report = json.loads((out / "report_x.json").read_text(), parse_constant=reject)
        assert report["mi_lb_pos_bits"] is None and report["mi_lb_neg_bits"] is None
        assert report["si"] == pytest.approx(0.6 * 0.1 + 0.3 * 0.5 + 0.1 * 0.2)

    @pytest.mark.parametrize("flag, value, message", [
        ("--items", "0", "--items must be at least 1"),
        ("--items", "-3", "--items must be at least 1"),
        ("--warm-epochs", "-1", "--warm-epochs must be nonnegative")])
    def test_bad_warm_start_input_exits_2_before_any_output(self, tmp_path, capsys,
                                                            flag, value, message):
        out = tmp_path / "out"
        assert cli.main(["eval-constitution", str(DATA / "toy_high_si.txt"),
                         flag, value, "--out-dir", str(out)]) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_scores_and_components_ignore_warm_start_flags(self, tmp_path):
        ignored = ["--items", "0", "--warm-epochs", "-1"]
        assert cli.main(self.external_files(tmp_path) + ignored) == cli.EXIT_OK
        assert cli.main(["eval-constitution", "--components",
                         str(DATA / "component_replay.json"),
                         "--out-dir", str(tmp_path / "replay"), *ignored]) == cli.EXIT_OK

    def test_out_dir_that_is_a_file_exits_2_before_the_warm_start(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(consti, "mle_pretrain", refuse)
        out_dir_file_rejected(tmp_path, capsys,
                              ["eval-constitution", str(DATA / "toy_high_si.txt")])

    def test_out_dir_that_holds_files_exits_2_before_the_warm_start(
            self, tmp_path, capsys, monkeypatch):
        # It wrote its reports beside an earlier call's files.
        monkeypatch.setattr(consti, "mle_pretrain", refuse)
        out_dir_file_rejected(tmp_path, capsys,
                              ["eval-constitution", str(DATA / "toy_high_si.txt")], inside=True)

    @pytest.mark.parametrize("source", [[str(DATA / "toy_high_si.txt")],
                                        ["--components", str(DATA / "component_replay.json")]],
                             ids=["constitution_files", "components"])
    def test_nll_without_scores_exits_2_before_any_output(self, tmp_path, capsys,
                                                          monkeypatch, source):
        # --nll was ignored here: the run exited 0 with the other input's reports.
        monkeypatch.setattr(consti, "mle_pretrain", refuse)
        nll = tmp_path / "nll.csv"
        nll.write_text("nll_without_bits,nll_with_bits\n2.0,1.9\n")
        out = tmp_path / "out"
        assert cli.main(["eval-constitution", *source, "--nll", str(nll),
                         "--out-dir", str(out)]) == cli.EXIT_CONFIG
        assert "--nll" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sources", [
        ("constitution files", "--components"), ("constitution files", "--scores"),
        ("--components", "--scores"),
        ("constitution files", "--components", "--scores")])
    def test_more_than_one_input_exits_2_before_any_output(self, tmp_path, capsys,
                                                            sources):
        argv = {"constitution files": [str(DATA / "toy_high_si.txt")],
                "--components": ["--components", str(DATA / "component_replay.json")],
                "--scores": self.external_files(tmp_path)[1:-2]}
        out = tmp_path / "eval"
        assert cli.main(["eval-constitution", *(arg for source in sources
                                                for arg in argv[source]),
                         "--out-dir", str(out)]) == cli.EXIT_CONFIG
        assert " and ".join(sources) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rows, field", [
        ({"name": "x", "bits": 0.1}, "top level"),
        ([[0.1, 0.6]], "top level"),
        ([{"name": "x", "bits": 0.1, "margin_pos": 1.0, "margin_neg": 0.5}], "'auc'"),
        ([{"name": 3, "bits": 0.1, "auc": 0.6, "margin_pos": 1.0, "margin_neg": 0.5}],
         "'name'"),
        ([{"name": "x", "bits": "a", "auc": 0.6, "margin_pos": 1.0, "margin_neg": 0.5}],
         "'bits'"),
        ([{"name": "x", "bits": None, "auc": 0.6, "margin_pos": 1.0, "margin_neg": 0.5}],
         "'bits'"),
        ([{"name": "x", "bits": 0.1, "auc": True, "margin_pos": 1.0, "margin_neg": 0.5}],
         "'auc'"),
        ([{"name": "x", "bits": 0.1, "auc": 0.6, "margin_pos": math.inf,
           "margin_neg": 0.5}], "'margin_pos'"),
        ([{"name": "x", "bits": 0.1, "auc": 0.6, "margin_pos": 1.0,
           "margin_neg": 10 ** 400}], "'margin_neg'"),
        ([{"name": "x", "bits": 0.1, "auc": 0.6, "margin_pos": 1.0, "margin_neg": 0.5,
           "lb_pos_bits": "1.4"}], "'lb_pos_bits'"),
        ([{"name": "x", "bits": 0.1, "auc": 0.6, "margin_pos": 1.0, "margin_neg": 0.5,
           "lb_neg_bits": False}], "'lb_neg_bits'")],
        ids=["object", "list_of_lists", "missing_key", "name", "bits_string", "bits_null",
             "auc_bool", "margin_pos_inf", "margin_neg_past_float", "lb_string",
             "lb_bool"])
    def test_malformed_components_file_exits_2_before_any_output(self, tmp_path, capsys,
                                                                  rows, field):
        path = tmp_path / "components.json"
        path.write_text(json.dumps(rows))
        out = tmp_path / "out"
        assert cli.main(["eval-constitution", "--components", str(path),
                         "--out-dir", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(path) in err and field in err
        assert not out.exists()

    def test_negative_seed_exits_2_before_any_output(self, tmp_path, capsys):
        # It died in numpy's seeding with a traceback (exit 1).
        out = tmp_path / "out"
        for argv in (["eval-constitution", str(DATA / "toy_high_si.txt"),
                      "--out-dir", str(out)], self.external_files(tmp_path)):
            assert cli.main([*argv, "--seed", "-3"]) == cli.EXIT_CONFIG
            assert "--seed must be nonnegative, got -3" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_exits_2_before_any_output(self, tmp_path, capsys, k):
        out = tmp_path / "out"
        policy_path = ["eval-constitution", str(DATA / "toy_high_si.txt"),
                       "--k", k, "--out-dir", str(out)]
        scores_path = self.external_files(tmp_path) + ["--k", k]
        for argv in (policy_path, scores_path):
            assert cli.main(argv) == cli.EXIT_CONFIG
            assert "--k must be at least 1" in capsys.readouterr().err
            assert not out.exists()

    @staticmethod
    def renamed_sets(tmp_path, first, second) -> list:
        """Copies of the two bundled sets whose `name:` lines give the names
        first and second (None: no `name:` line)."""
        paths = []
        for i, (source, name) in enumerate((("toy_high_si", first), ("toy_low_si", second))):
            text = re.sub(r"^name: .*\n", "" if name is None else f"name: {name}\n",
                          (DATA / f"{source}.txt").read_text(), flags=re.MULTILINE)
            paths.append(tmp_path / f"set{i}.txt")
            paths[-1].write_text(text)
        return paths

    @pytest.mark.parametrize("first, second, message", [
        ("toy_high_si", "toy_high_si", "two reports are named 'toy_high_si'"),
        (None, None, "two reports are named 'unnamed'"),
        ("toy_high_si", "a/b", "report name 'a/b' holds a path separator"),
        ("toy_high_si", "x" * 300, f"report name '{'x' * 300}' makes report_<name>.json "
                                   "longer than 255 bytes"),
        ("toy_high_si", "a\0b", "report name 'a\\x00b' holds a NUL byte")],
        ids=["same_name", "both_unnamed", "separator", "too_long", "nul"])
    def test_report_name_that_clobbers_or_escapes_exits_2_before_any_output(
            self, tmp_path, capsys, monkeypatch, first, second, message):
        # The second report overwrote the first's (exit 0), or a set named
        # a/b, or one whose report file name was too long or held a NUL
        # byte, died with a traceback after writing per_principle.csv (exit 1).
        monkeypatch.setattr(consti, "mle_pretrain", refuse)
        out = tmp_path / "out"
        assert cli.main(["eval-constitution", *map(str, self.renamed_sets(
            tmp_path, first, second)), "--out-dir", str(out)]) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("names, message", [
        (["x", "y", "x"], "two reports are named 'x'"),
        (["x", "a/b"], "report name 'a/b' holds a path separator"),
        # 134 characters, but 256 bytes with "report_" and ".json" in UTF-8.
        (["x", "\u00e9" * 122], "makes report_<name>.json longer than 255 bytes"),
        (["x", "a\0b"], "report name 'a\\x00b' holds a NUL byte")],
        ids=["same_name", "separator", "too_long_encoded", "nul"])
    def test_components_name_that_clobbers_or_escapes_exits_2_before_any_output(
            self, tmp_path, capsys, names, message):
        path = tmp_path / "components.json"
        path.write_text(json.dumps([{"name": name, "bits": 0.1, "auc": 0.6,
                                     "margin_pos": 1.0, "margin_neg": 0.5}
                                    for name in names]))
        out = tmp_path / "out"
        assert cli.main(["eval-constitution", "--components", str(path),
                         "--out-dir", str(out)]) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()


def reference_reports(paths, seed=0, items=32, k=2, epochs=120, lr=0.5) -> dict:
    """Each set's report JSON as eval-constitution writes it, from a fresh
    warm start for every set."""
    reports = []
    for path in paths:
        pset = cli._load_principles(path)
        task = cli._build_task(pset, seed, items, Vocab())
        policy = ToyPolicy(task.vocab)
        policy.init_params(seed)
        mle_pretrain(policy, gold_items(task), epochs, lr)
        reports.append(consti.evaluate_principle_set(policy, task, pset, k=k, seed=seed))
    if len(reports) >= 2:
        zs = consti.sufficiency_index([r.delta_nll_median for r in reports],
                                      [r.mi_effective for r in reports],
                                      [r.auc for r in reports], mode="zscored")
        reports = [consti.SufficiencyReport(**{**r.__dict__, "si_zscored": float(z)})
                   for r, z in zip(reports, zs)]
    return {f"report_{r.name}.json": r.to_json() for r in reports}


@pytest.fixture
def built_tasks(monkeypatch):
    """The name of the set each cli._build_task call builds a task for."""
    calls = []
    build = cli._build_task

    def spy(pset, *args):
        calls.append(pset.name)
        return build(pset, *args)

    monkeypatch.setattr(cli, "_build_task", spy)
    return calls


def principle_file(tmp_path, name, positives):
    """A token-pattern set with the given positives and two fixed negatives."""
    path = tmp_path / f"{name}.txt"
    path.write_text(f"name: {name}\npositives:\n"
                    + "".join(f"- {p}\n" for p in positives)
                    + "negatives:\n- 4 4 4\n- 10 10 10\n")
    return path


class TestSharedWarmStart:
    """eval-constitution warm-starts each distinct set of gold triples once."""

    @pytest.fixture
    def warm_starts(self, monkeypatch):
        calls = []

        def spy(policy, triples, epochs, lr):
            calls.append(tuple(triples))
            return mle_pretrain(policy, triples, epochs, lr)

        monkeypatch.setattr(consti, "mle_pretrain", spy)
        return calls

    @pytest.fixture
    def sets(self, tmp_path):
        bundled = [p.split() for p in ("4 9 4 9", "5 10 5 10", "4 10 4 10", "5 9 5 9")]
        return {
            "high": DATA / "toy_high_si.txt",
            "low": DATA / "toy_low_si.txt",
            "reordered": principle_file(tmp_path, "reordered",
                                        [" ".join(p) for p in bundled[::-1]]),
            "other": principle_file(tmp_path, "other",
                                    ["4 9 4", "5 10 5", "9 4 10", "10 5 9"]),
        }

    @pytest.mark.parametrize("names, expected", [
        (["high", "low"], 1), (["high", "other"], 2), (["high", "reordered"], 2),
        (["high", "reordered", "low", "other"], 3)],
        ids=["bundled", "other_positives", "reordered_positives", "four"])
    def test_one_warm_start_per_distinct_gold_set(self, tmp_path, warm_starts, sets,
                                                  names, expected):
        out = tmp_path / "out"
        assert cli.main(["eval-constitution", *(str(sets[n]) for n in names),
                         "--out-dir", str(out)]) == cli.EXIT_OK
        assert len(warm_starts) == expected == len(set(warm_starts))

    @pytest.mark.parametrize("names, expected", [
        (["high", "low"], ["toy_high_si"]), (["high", "other"], ["toy_high_si", "other"]),
        (["high", "reordered", "low", "other"], ["toy_high_si", "reordered", "other"])],
        ids=["bundled", "other_positives", "four"])
    def test_one_task_per_distinct_positive_set(self, tmp_path, built_tasks, sets,
                                                names, expected):
        out = tmp_path / "out"
        assert cli.main(["eval-constitution", *(str(sets[n]) for n in names),
                         "--out-dir", str(out)]) == cli.EXIT_OK
        assert built_tasks == expected

    @pytest.mark.parametrize("names, options", [
        (["high", "low"], {}), (["high", "low"], {"seed": 3}), (["high", "low"], {"k": 1}),
        (["high", "reordered", "low", "other"], {"seed": 2, "items": 12, "epochs": 40})],
        ids=["bundled", "seed3", "k1", "four"])
    def test_reports_equal_a_fresh_warm_start_per_set(self, tmp_path, sets, names, options):
        paths = [sets[n] for n in names]
        out = tmp_path / "out"
        argv = ["eval-constitution", *map(str, paths), "--out-dir", str(out)]
        for name, value in options.items():
            argv += ["--warm-epochs" if name == "epochs" else f"--{name}", str(value)]
        assert cli.main(argv) == cli.EXIT_OK
        expected = reference_reports(paths, **options)
        assert {name: (out / name).read_text() for name in expected} == expected

    def test_scoring_leaves_the_shared_policy_unchanged(self, monkeypatch, tmp_path):
        seen = []
        evaluate = consti.evaluate_principle_set

        def spy(policy, *args, **kwargs):
            before = policy.param_hash()
            report = evaluate(policy, *args, **kwargs)
            seen.append((id(policy), before, policy.param_hash()))
            return report

        monkeypatch.setattr(consti, "evaluate_principle_set", spy)
        assert cli.main(["eval-constitution", str(DATA / "toy_high_si.txt"),
                         str(DATA / "toy_low_si.txt"),
                         "--out-dir", str(tmp_path / "out")]) == cli.EXIT_OK
        assert len(seen) == 2 and seen[0][0] == seen[1][0]
        assert all(before == after == seen[0][1] for _, before, after in seen)


POSITIVES = ["4 9 4", "5 10 5", "9 4 10", "10 5 9", "4 10 4"]


class TestPositiveCounts:
    """Task items cycle over however many positives a set has."""

    @pytest.fixture(params=[3, 5], ids=["three", "five"])
    def constitution(self, request, tmp_path):
        return principle_file(tmp_path, "set", POSITIVES[:request.param])

    def test_items_cycle_over_every_positive(self, constitution):
        pset = cli._load_principles(constitution)
        task = cli._build_task(pset, 0, 32, Vocab())
        n = len(pset.positives)
        assert [item.principle_id for item in task.items] == \
            [task.principles[i % n].pid for i in range(32)]

    def test_eval_constitution(self, tmp_path, constitution):
        out = tmp_path / "out"
        assert cli.main(["eval-constitution", str(constitution), "--out-dir", str(out)]) \
            == cli.EXIT_OK
        assert (out / "report_set.json").exists()

    def test_train(self, tmp_path, constitution):
        config = short_config(tmp_path, constitution=str(constitution))
        assert cli.main(["train", "--config", str(config)]) == cli.EXIT_OK
        assert len((tmp_path / "run" / "steps.jsonl").read_text().splitlines()) == 8


class TestBadTokenPatterns:
    """A positive with a token outside the vocabulary or a reserved token is a
    configuration error: exit 2, and no output directory."""

    @pytest.fixture(params=["4 9 4 20", "4 9 4 15"], ids=["out_of_vocab", "reserved"])
    def constitution(self, request, tmp_path):
        return principle_file(tmp_path, "bad", ["5 10 5 10", request.param])

    def test_train(self, tmp_path, capsys, constitution):
        config = short_config(tmp_path, constitution=str(constitution))
        assert cli.main(["train", "--config", str(config)]) == cli.EXIT_CONFIG
        assert "config error: constitution 'bad': principle 'pos1' uses" \
            in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_eval_constitution(self, tmp_path, capsys, constitution):
        # The bad set comes after a good one: every set is checked before
        # the output directory is made.
        out = tmp_path / "out"
        assert cli.main(["eval-constitution", str(DATA / "toy_high_si.txt"),
                         str(constitution), "--out-dir", str(out)]) == cli.EXIT_CONFIG
        assert "config error: constitution 'bad': principle 'pos1' uses" \
            in capsys.readouterr().err
        assert not out.exists()


class TestTextPrinciplePools:
    """The bundled text pools parse, but the toy task needs token patterns:
    `train` and `eval-constitution` on them are a configuration error, exit
    2, with no output directory (they are for `--scores`)."""

    @pytest.fixture(params=["constitution_high_si.txt", "constitution_low_si.txt"],
                    ids=["high_si", "low_si"])
    def constitution(self, request):
        path = DATA / request.param
        pset = cli._load_principles(path)
        assert (len(pset.positives), len(pset.negatives)) == (9, 9)
        return path, f"config error: constitution {pset.name!r} has non-token positives"

    def test_train(self, tmp_path, capsys, constitution):
        path, message = constitution
        config = short_config(tmp_path, constitution=str(path))
        assert cli.main(["train", "--config", str(config)]) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_eval_constitution(self, tmp_path, capsys, constitution):
        path, message = constitution
        out = tmp_path / "out"
        assert cli.main(["eval-constitution", str(path), "--out-dir", str(out)]) \
            == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("pattern", ["4 ²", "--4 5"], ids=["superscript", "two_signs"])
def test_number_int_does_not_parse_makes_a_text_principle(tmp_path, capsys, pattern):
    # '²' passed str.isdigit and '--4' the sign-stripped test, and int() then
    # raised a ValueError traceback.
    assert consti.Principle.parse("pos1", pattern).tokens == ()
    path = principle_file(tmp_path, "sup", ["5 10 5 10", pattern])
    out = tmp_path / "out"
    assert cli.main(["eval-constitution", str(path), "--out-dir", str(out)]) \
        == cli.EXIT_CONFIG
    assert "config error: constitution 'sup' has non-token positives" \
        in capsys.readouterr().err
    assert not out.exists()


def copy_of_data(tmp, name) -> Path:
    path = tmp / name
    path.write_bytes((DATA / name).read_bytes())
    return path


# Per input reader, the file a call reads and the call's arguments, its
# output going to <tmp>/out.
INPUT_READERS = {
    "config": ("config.toml", lambda tmp: [
        "train", "--config", str(short_config(tmp, output_dir=str(tmp / "out")))]),
    "constitution_train": ("toy_high_si.txt", lambda tmp: [
        "train", "--config", str(short_config(
            tmp, output_dir=str(tmp / "out"),
            constitution=str(copy_of_data(tmp, "toy_high_si.txt"))))]),
    "constitution_eval": ("toy_high_si.txt", lambda tmp: [
        "eval-constitution", str(copy_of_data(tmp, "toy_high_si.txt")),
        "--out-dir", str(tmp / "out")]),
    "constitution_probe": ("toy_high_si.txt", lambda tmp: [
        "probe", str(SCHEMA_1_CHECKPOINT),
        "--constitution", str(copy_of_data(tmp, "toy_high_si.txt")),
        "--out-dir", str(tmp / "out")]),
    "components": ("component_replay.json", lambda tmp: [
        "eval-constitution", "--components", str(copy_of_data(tmp, "component_replay.json")),
        "--out-dir", str(tmp / "out")]),
    "scores": ("pos.csv", TestEvalCommand.external_files),
    "nll": ("nll.csv", TestEvalCommand.external_files),
}


@pytest.mark.parametrize("reader", sorted(INPUT_READERS))
def test_input_file_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys, reader):
    # Each reader ended in a UnicodeDecodeError traceback.
    name, argv = INPUT_READERS[reader]
    argv = argv(tmp_path)
    path = tmp_path / name
    path.write_bytes(path.read_bytes() + b"\xff\n")
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: cannot read " in err and str(path) in err
    assert "can't decode byte 0xff" in err
    assert not (tmp_path / "out").exists()


def bundled_warm_start(seed, bias=cli.WARMSTART_BIAS, lr=cli.WARMSTART_LR,
                       epochs=cli.WARMSTART_EPOCHS):
    """The warm start `geoloop train` runs for the bundled toy_high_si set at
    this seed, with this bias, rate and epoch count: (task, epochs, lr, seed, bias)."""
    task = cli._build_task(cli._load_principles(DATA / "toy_high_si.txt"), seed,
                           cli.TASK_ITEMS, Vocab())
    return task, epochs, lr, seed, bias


def no_prefers_warm_start():
    """Four principles with zero, one, two and zero preferred fillers, so one
    epoch mixes golds that draw a random() before a filler with golds that
    do not."""
    vocab = Vocab()
    principles = tuple(ToyPrinciple(p.pid, p.tokens, p.prefers[:k])
                       for p, k in zip(make_toy_principles(vocab, 4), (0, 1, 2, 0)))
    return make_toy_task(vocab, seed=11, principles=principles), 25, 0.5, 5, 0.15


# Warm starts whose parameter hashes in tests/data were written by the code
# that drew each epoch's golds from its own Generator, one call per draw.
WARM_START_CASES = {
    "bundled_seed0": lambda: bundled_warm_start(0),
    "bundled_seed3": lambda: bundled_warm_start(3),
    "bias0_25_epochs": lambda: bundled_warm_start(42, bias=0.0, epochs=25),
    "bias1_25_epochs": lambda: bundled_warm_start(42, bias=1.0, epochs=25),
    "no_prefers_25_epochs": no_prefers_warm_start,
}


def warm_start_case_hash(case: str) -> str:
    task, epochs, lr, seed, bias = WARM_START_CASES[case]()
    policy = ToyPolicy(task.vocab)
    policy.init_params(seed)
    warm_start(policy, task, epochs, lr, seed, bias=bias)
    return policy.param_hash()


class TestGoldenOutputs:
    """Hashes of warm starts and eval outputs pinned in tests/data."""

    def test_train_warm_start_hash(self):
        config = cli.load_config(CONFIGS / "enigma_high_si.toml",
                                 {"seed": 42, "constitution": str(DATA / "toy_high_si.txt")})
        task = cli._build_task(cli._load_principles(config.constitution), config.seed,
                               cli.TASK_ITEMS, Vocab())
        policy = ToyPolicy(task.vocab)
        policy.init_params(config.seed)
        warm_start(policy, task, cli.WARMSTART_EPOCHS, cli.WARMSTART_LR,
                   config.seed, bias=cli.WARMSTART_BIAS)
        expected = (GOLDEN / "warm_start_enigma_high_si_seed42.param_hash").read_text().strip()
        assert policy.param_hash() == expected

    @pytest.mark.parametrize("case", sorted(WARM_START_CASES))
    def test_frozen_warm_start_hashes(self, case):
        expected = dict(line.split()[::-1] for line in
                        (GOLDEN / "warm_start_cases.param_hash").read_text().splitlines())
        assert warm_start_case_hash(case) == expected[case]

    def test_warm_start_memory(self):
        # Every epoch's golds are drawn before the first epoch: the word
        # block, the golds and an epoch's arrays stay below 512 KiB in all.
        task, epochs, lr, seed, bias = bundled_warm_start(42)
        policy = ToyPolicy(task.vocab)
        policy.init_params(seed)
        tracemalloc.start()
        try:
            warm_start(policy, task, epochs, lr, seed, bias=bias)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024

    def test_eval_warm_start_hash(self):
        path = DATA / "toy_high_si.txt"
        task = cli._build_task(cli._load_principles(path), 0, 32, Vocab())
        policy = ToyPolicy(task.vocab)
        policy.init_params(0)
        mle_pretrain(policy, gold_items(task), 120, 0.5)
        expected = (GOLDEN / "mle_pretrain_toy_high_si_seed0.param_hash").read_text().strip()
        assert policy.param_hash() == expected

    def test_bundled_eval_outputs(self, tmp_path, built_tasks):
        out = tmp_path / "out"
        assert cli.main(["eval-constitution", str(DATA / "toy_high_si.txt"),
                         str(DATA / "toy_low_si.txt"), "--seed", "0",
                         "--out-dir", str(out)]) == cli.EXIT_OK
        # The two sets share their positives, so they share one task.
        assert built_tasks == ["toy_high_si"]
        expected = dict(line.split()[::-1] for line in
                        (GOLDEN / "eval_bundled_seed0.sha256").read_text().splitlines())
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in expected} == expected
        assert sorted(p.name for p in out.iterdir()) == sorted(expected)

    def test_probe_outputs(self, run_dir, tmp_path):
        # Every file the probe writes over the four checkpoints of the short
        # seed-5 run, which reaches its OT term at step 4.
        out = tmp_path / "out"
        assert cli.main(["probe", *sorted(str(p) for p in run_dir.glob("ckpt_*.npz")),
                         "--constitution", str(DATA / "toy_high_si.txt"),
                         "--out-dir", str(out)]) == cli.EXIT_OK
        expected = dict(line.split()[::-1] for line in
                        (GOLDEN / "probe_short_run_seed5.sha256").read_text().splitlines())
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in expected} == expected
        assert sorted(p.name for p in out.iterdir()) == sorted(expected)

    def test_score_file_eval_outputs(self, tmp_path):
        # Inputs from exact formulas: 12 items over five positive and three
        # negative columns, so both bounds draw shadows (seed 0, k = 2).
        n, m_pos, m_neg = 12, 5, 3
        pos = [[-1.0 + (1.5 if j == i % m_pos else 0.0) - ((i * 7 + j * 3) % 11) / 20
                for j in range(m_pos)] for i in range(n)]
        neg = [[-1.0 - ((i * 5 + j * 2) % 7) / 10 for j in range(m_neg)] for i in range(n)]
        mi.write_score_csv(mi.ScoreMatrix(pos), tmp_path / "pos.csv")
        mi.write_score_csv(mi.ScoreMatrix(neg), tmp_path / "neg.csv")
        (tmp_path / "nll.csv").write_text("nll_without_bits,nll_with_bits\n" + "".join(
            f"{2.0 + (i % 3) / 10!r},{1.9 - (i % 4) / 20!r}\n" for i in range(n)))
        out = tmp_path / "out"
        assert cli.main(["eval-constitution", "--scores", str(tmp_path / "pos.csv"),
                         str(tmp_path / "neg.csv"), "--nll", str(tmp_path / "nll.csv"),
                         "--seed", "0", "--out-dir", str(out)]) == cli.EXIT_OK
        expected = dict(line.split()[::-1] for line in
                        (GOLDEN / "eval_scores_seed0.sha256").read_text().splitlines())
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in expected} == expected
        assert sorted(p.name for p in out.iterdir()) == sorted(expected)


def reference_probe(ckpts, out, constitution, items=32, seed=0, metric="fr"):
    """The probe CSVs as written by scoring each checkpoint's probe context
    with its own next_token_distribution call and aligning the score matrix
    row by row with np.roll; `cli.cmd_probe` must write the same bytes.  The
    task is built at the checkpoints' vocabulary."""
    out.mkdir(parents=True)
    loaded = [load_checkpoint(path) for path in ckpts]
    vocab = Vocab(loaded[0][1]["vocab_size"])
    task = cli._build_task(cli._load_principles(constitution), seed, items, vocab)
    item = task.items[0]
    ptoks = task.principle(item.principle_id).tokens
    dists = [prob_metrics.ProbVector(policy.next_token_distribution(item.prompt, ptoks))
             for policy, _ in loaded]
    steps = [meta["step"] for _, meta in loaded]

    records = prob_metrics.probe_report_batch(zip(dists[:-1], dists[1:])) \
        if len(dists) >= 2 else []
    prob_metrics.write_probe_csv(records, out / "probe_report.csv")
    if len(dists) >= 2:
        stats = prob_metrics.fr_path_stats(dists)
        with open(out / "fr_path.csv", "w") as fh:
            fh.write("segment_index,step_from,step_to,segment_length\n")
            for i, seg in enumerate(stats["segment_lengths"]):
                fh.write(f"{i},{steps[i]},{steps[i + 1]},{seg!r}\n")
            fh.write("# cumulative_length,endpoint_geodesic,ratio,degenerate\n")
            fh.write(f"# {stats['cumulative_length']!r},{stats['endpoint_geodesic']!r},"
                     f"{stats['ratio']!r},{stats['degenerate']}\n")
        if len(dists) >= 3:
            with open(out / "turning_angles.csv", "w") as fh:
                fh.write("interior_step,angle_radians\n")
                for step, angle in zip(steps[1:-1], prob_metrics.turning_angles(dists)):
                    fh.write(f"{step},{angle!r}\n")

    alphas = np.linspace(*cli.PROBE_ALPHA_RANGE, cli.PROBE_GRID)
    betas = np.linspace(0.0, 1.0, cli.PROBE_GRID)
    values = prob_metrics.landscape_grid(dists[-1], alphas, betas, metric=metric)
    with open(out / "landscape.csv", "w") as fh:
        fh.write(f"# {prob_metrics.LANDSCAPE_METADATA}\n# metric={metric}\n")
        fh.write("alpha,beta,value\n")
        for i, a in enumerate(alphas):
            for j, b in enumerate(betas):
                fh.write(f"{float(a)!r},{float(b)!r},{float(values[i, j])!r}\n")

    policy = loaded[-1][0]
    n_principles = len(task.principles)
    sample = task.items[:min(len(task.items), items)]
    table = policy.forward(policy.bag_grid(
        [it.prompt for it in sample], [p.tokens for p in task.principles]
    ).reshape(-1, vocab.size))
    golds = transition_counts([it.gold for it in sample], vocab.size)
    scores = table.seq_logprobs(golds).reshape(len(sample), n_principles, len(sample))
    own = np.arange(len(sample))
    matrix = scores[own, :, own] / np.maximum(1, golds.sum(axis=(1, 2)))[:, None]
    true_cols = [next(j for j, p in enumerate(task.principles) if p.pid == it.principle_id)
                 for it in sample]
    aligned = np.zeros_like(matrix)
    for i, j in enumerate(true_cols):
        aligned[i] = np.roll(matrix[i], -j)
    mi.write_score_csv(mi.ScoreMatrix(aligned), out / "icmi_matrix.csv")
    shifted = matrix - matrix.max(axis=1, keepdims=True)
    log_sm = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    with open(out / "icmi_diag.csv", "w") as fh:
        fh.write("row,diag_log_softmax,pmi\n")
        for i, j in enumerate(true_cols):
            val = float(log_sm[i, j])
            fh.write(f"{i},{val!r},{float(val + np.log(n_principles))!r}\n")

    if len(dists) >= 2:
        w2sq = ot.output_space_ot_diag(dists[0], dists[-1], top_k=cli.PROBE_TOP_K)
        (out / "output_ot.csv").write_text(
            f"step_from,step_to,token_index_w2sq\n{steps[0]},{steps[-1]},{w2sq!r}\n")


def csv_bytes(directory) -> dict:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def library_run(tmp_path, vocab_size, config=None, max_steps=4, every=2,
                dim=DEFAULT_DIM) -> list:
    """The checkpoints, every `every` steps, of a bundled-recipe run at this
    vocabulary and policy width, trained through library calls (`geoloop
    train` uses the 16-token vocabulary) and saved with this run config, or
    with none."""
    seed = 5
    task = cli._build_task(cli._load_principles(DATA / "toy_high_si.txt"), seed,
                           cli.TASK_ITEMS, Vocab(vocab_size))
    policy = ToyPolicy(task.vocab, dim)
    policy.init_params(seed)
    warm_start(policy, task, cli.WARMSTART_EPOCHS, cli.WARMSTART_LR, seed,
               bias=cli.WARMSTART_BIAS)
    trainer = Trainer(policy, task, cli.RunConfig(seed=seed, max_steps=max_steps))
    stored = (config.config_hash(), cli.serialise_config(config)) if config else ("", "")
    ckpts = []
    while True:
        if trainer.step % every == 0:
            ckpts.append(tmp_path / f"ckpt_{trainer.step:06d}.npz")
            trainer.save_checkpoint(ckpts[-1], *stored)
        if trainer.step == max_steps:
            return ckpts
        trainer.train_step()


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("probe_run")
    config = short_config(tmp, max_steps=6, checkpoint_every=2,
                          output_dir=str(tmp / "run"))
    assert cli.main(["train", "--config", str(config)]) == cli.EXIT_OK
    return tmp / "run"


def flipped_embed_byte() -> bytes:
    """The checked-in checkpoint with one byte of its embed block flipped."""
    raw = SCHEMA_1_CHECKPOINT.read_bytes()
    info = zipfile.ZipFile(io.BytesIO(raw)).getinfo("embed.npy")
    name_len, extra_len = struct.unpack("<HH", raw[info.header_offset + 26:
                                                  info.header_offset + 30])
    at = info.header_offset + 30 + name_len + extra_len + 128 + 3
    return raw[:at] + bytes([raw[at] ^ 0x10]) + raw[at + 1:]


def edited_embed_entry(*edits) -> bytes:
    """The checked-in checkpoint with, for each (offset, mask), that byte of
    the embed member's central-directory entry ORed with mask: 8 holds the
    flag bits, 22 and 26 the third bytes of the stored and full sizes."""
    raw = bytearray(SCHEMA_1_CHECKPOINT.read_bytes())
    entry = raw.index(b"embed.npy", raw.index(b"PK\x01\x02")) - 46
    for offset, mask in edits:
        raw[entry + offset] |= mask
    return bytes(raw)


def resaved(transform, save=np.savez) -> bytes:
    """The checked-in checkpoint saved again with save(**transform(data)),
    data being its members."""
    with np.load(SCHEMA_1_CHECKPOINT, allow_pickle=False) as archive:
        data = dict(archive)
    buffer = io.BytesIO()
    save(buffer, **transform(data))
    return buffer.getvalue()


def flattened_embed(data) -> dict:
    """data with embed flattened and the meta's param_hash that of the
    flattened block, so only a shape check against the meta refuses it."""
    meta = json.loads(str(data["meta"]))
    policy = ToyPolicy(Vocab(meta["vocab_size"]), meta["dim"])
    for name in policy.param_blocks():
        setattr(policy, name, data[name])
    policy.embed = policy.embed.reshape(-1)
    meta["param_hash"] = policy.param_hash()
    return {**data, "meta": json.dumps(meta, sort_keys=True), "embed": policy.embed}


NOT_NPY = "is not a stored .npy v1.0 array of C-order <f8 or <U"


class TestProbeCommand:
    def test_probe_artifacts(self, run_dir, tmp_path):
        out = tmp_path / "probe"
        ckpts = sorted(str(p) for p in run_dir.glob("ckpt_*.npz"))
        code = cli.main(["probe", *ckpts,
                         "--constitution", str(DATA / "toy_high_si.txt"),
                         "--out-dir", str(out)])
        assert code == cli.EXIT_OK
        assert (out / "probe_report.csv").exists()
        assert (out / "fr_path.csv").exists()
        assert (out / "turning_angles.csv").exists()
        assert (out / "icmi_matrix.csv").exists()
        assert (out / "icmi_diag.csv").exists()
        assert (out / "output_ot.csv").exists()
        landscape = (out / "landscape.csv").read_text().splitlines()
        data_rows = [l for l in landscape if l and not l.startswith("#")][1:]
        assert len(data_rows) == 121  # 11 x 11 default grid
        # the path CSV has one segment per consecutive checkpoint pair
        seg_rows = [l for l in (out / "fr_path.csv").read_text().splitlines()
                    if l and not l.startswith(("segment_index", "#"))]
        assert len(seg_rows) == len(ckpts) - 1
        # Every data field of every CSV is a plain number (a numpy scalar
        # written with !r reads "np.float64(...)").
        for path in sorted(out.glob("*.csv")):
            lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
            assert len(lines) >= 2, path.name
            for line in lines[1:]:
                for field in line.split(","):
                    float(field)
        # output_ot.csv holds the exact token-index W2^2 between the probe
        # distributions of the first and last checkpoints.
        header, row = (out / "output_ot.csv").read_text().splitlines()
        assert header == "step_from,step_to,token_index_w2sq"
        w2sq = float(row.split(",")[2])
        pset = cli._load_principles(DATA / "toy_high_si.txt")
        task = cli._build_task(pset, 0, 32, Vocab())
        item = task.items[0]
        dists = [load_checkpoint(path)[0].next_token_distribution(
            item.prompt, task.principle(item.principle_id).tokens) for path in ckpts]
        assert math.isfinite(w2sq) and w2sq >= 0.0
        assert w2sq == ot.output_space_ot_diag(dists[0], dists[-1], 16)

    def test_single_checkpoint_no_path(self, run_dir, tmp_path):
        out = tmp_path / "probe_single"
        ckpt = sorted(str(p) for p in run_dir.glob("ckpt_*.npz"))[0]
        code = cli.main(["probe", ckpt,
                         "--constitution", str(DATA / "toy_high_si.txt"),
                         "--out-dir", str(out)])
        assert code == cli.EXIT_OK
        assert (out / "probe_report.csv").exists()
        assert not (out / "fr_path.csv").exists()

    def test_out_dir_that_is_a_file_exits_2_before_any_checkpoint_load(
            self, run_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "load_checkpoint", refuse)
        ckpt = sorted(str(p) for p in run_dir.glob("ckpt_*.npz"))[0]
        out_dir_file_rejected(tmp_path, capsys, ["probe", ckpt])

    def test_out_dir_that_holds_files_exits_2_before_any_load(
            self, run_dir, tmp_path, capsys, monkeypatch):
        # It left an earlier call's turning_angles.csv beside an fr_path.csv
        # of other checkpoints.
        monkeypatch.setattr(cli, "load_checkpoint", refuse)
        ckpt = sorted(str(p) for p in run_dir.glob("ckpt_*.npz"))[0]
        out_dir_file_rejected(tmp_path, capsys, ["probe", ckpt], inside=True)

    @pytest.mark.parametrize("second, code", [("not_a_checkpoint", cli.EXIT_RUNTIME),
                                              ("other_config", cli.EXIT_CONFIG)])
    def test_bad_second_checkpoint_leaves_no_out_dir(self, tmp_path, second, code):
        # The first checkpoint loads; the second does not, or comes from
        # another run config.  Either way the output dir is never made.
        if second == "not_a_checkpoint":
            path = tmp_path / "notes.npz"
            path.write_text("not a checkpoint\n")
        else:
            path = self.with_meta(tmp_path, lambda meta: {**meta, "config_hash": "other"})
        out = tmp_path / "px"
        assert cli.main(["probe", str(SCHEMA_1_CHECKPOINT), str(path),
                         "--out-dir", str(out)]) == code
        assert not out.exists()

    def test_mixed_config_checkpoints_rejected(self, run_dir, tmp_path):
        other_tmp = tmp_path / "other"
        other_tmp.mkdir()
        config = short_config(other_tmp, seed=99, max_steps=2, checkpoint_every=2,
                              output_dir=str(other_tmp / "run"))
        assert cli.main(["train", "--config", str(config)]) == cli.EXIT_OK
        first = sorted(str(p) for p in run_dir.glob("ckpt_*.npz"))[0]
        foreign = sorted(str(p) for p in (other_tmp / "run").glob("ckpt_*.npz"))[0]
        code = cli.main(["probe", first, foreign,
                         "--constitution", str(DATA / "toy_high_si.txt"),
                         "--out-dir", str(tmp_path / "mixed")])
        assert code == cli.EXIT_CONFIG
        assert not (tmp_path / "mixed").exists()

    @pytest.mark.parametrize("options", [
        {}, {"seed": 3}, {"metric": "diag_mi"}, {"seed": 7, "items": 5}],
        ids=["default", "seed3", "diag_mi", "small"])
    def test_csvs_equal_the_per_checkpoint_reference(self, run_dir, tmp_path, options):
        ckpts = sorted(run_dir.glob("ckpt_*.npz"))
        constitution = DATA / "toy_high_si.txt"
        reference_probe(ckpts, tmp_path / "ref", constitution, **options)
        argv = ["probe", *map(str, ckpts), "--constitution", str(constitution),
                "--out-dir", str(tmp_path / "probe")]
        for name, value in options.items():
            argv += [f"--{name}", str(value)]
        assert cli.main(argv) == cli.EXIT_OK
        assert csv_bytes(tmp_path / "probe") == csv_bytes(tmp_path / "ref")

    def test_vocab_20_run_probes_with_its_own_vocabulary(self, tmp_path):
        # The task's tags are the vocabulary's top tokens, so a 16-token
        # task would score these checkpoints' contexts with the wrong tags.
        ckpts = library_run(tmp_path, 20, cli.RunConfig(seed=5))
        constitution = DATA / "toy_high_si.txt"
        assert cli.main(["probe", *map(str, ckpts), "--constitution", str(constitution),
                         "--out-dir", str(tmp_path / "probe")]) == cli.EXIT_OK
        reference_probe(ckpts, tmp_path / "ref", constitution)
        assert csv_bytes(tmp_path / "probe") == csv_bytes(tmp_path / "ref")
        assert load_checkpoint(ckpts[0])[1]["vocab_size"] == 20

    @pytest.mark.parametrize("key, value", [("prompt_len", "4"), ("task_bias", "0.5")])
    def test_stored_task_setting_of_another_value_exits_2(self, tmp_path, capsys,
                                                          key, value):
        # Schema 6 and earlier stored the prompt length and bias, now
        # constants.  A run trained on other prompts used to be probed on
        # its own; it is refused rather than probed on the constants'.
        def set_value(text):
            text, n = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.MULTILINE)
            assert n == 1
            return text

        ckpt = self.with_config_text(tmp_path, set_value)
        out = tmp_path / "probe"
        assert cli.main(["probe", str(ckpt), "--out-dir", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"checkpoint {ckpt} config: {key} = {value}," in err
        assert f"the probe task uses {key} = {getattr(cli, key.upper())!r}" in err
        assert not out.exists()

    def test_checkpoints_without_config_probe_the_default_task(self, tmp_path):
        # A checkpoint saved with an empty config_text (a trainer used
        # outside the CLI) is probed on the default task at its vocabulary.
        ckpts = library_run(tmp_path, 20, max_steps=2, every=1)
        assert all(load_checkpoint(ckpt)[1]["config_text"] == "" for ckpt in ckpts)
        constitution = DATA / "toy_high_si.txt"
        assert cli.main(["probe", *map(str, ckpts), "--constitution", str(constitution),
                         "--out-dir", str(tmp_path / "probe")]) == cli.EXIT_OK
        reference_probe(ckpts, tmp_path / "ref", constitution)
        assert csv_bytes(tmp_path / "probe") == csv_bytes(tmp_path / "ref")

    @pytest.mark.parametrize("key, first, second", [
        ("vocab_size", (16, DEFAULT_DIM), (20, DEFAULT_DIM)), ("dim", (16, 8), (16, 32))],
        ids=["vocab_size", "dim"])
    def test_checkpoints_of_other_shapes_exit_2(self, tmp_path, capsys, key, first, second):
        # Checkpoints saved with no config all carry config_hash "", so the
        # config check passes these pairs; the probe task cannot serve both.
        ckpts = []
        for i, (vocab_size, dim) in enumerate((first, second)):
            (tmp_path / str(i)).mkdir()
            ckpts += library_run(tmp_path / str(i), vocab_size, max_steps=1, dim=dim)
        out = tmp_path / "probe"
        assert cli.main(["probe", *map(str, ckpts), "--out-dir", str(out)]) == cli.EXIT_CONFIG
        assert f"checkpoints {ckpts[0]} and {ckpts[1]} differ in {key}" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoints_without_reference_probe_to_the_same_bytes(self, run_dir, tmp_path):
        ckpts = sorted(run_dir.glob("ckpt_*.npz"))
        stripped = []
        for ckpt in ckpts:
            with np.load(ckpt, allow_pickle=False) as archive:
                data = {k: v for k, v in archive.items() if not k.startswith("ref_")}
            stripped.append(tmp_path / ckpt.name)
            np.savez(stripped[-1], **data)
        for name, paths in (("full", ckpts), ("stripped", stripped)):
            assert cli.main(["probe", *map(str, paths),
                             "--constitution", str(DATA / "toy_high_si.txt"),
                             "--out-dir", str(tmp_path / name)]) == cli.EXIT_OK
        assert csv_bytes(tmp_path / "stripped") == csv_bytes(tmp_path / "full")

    def test_checked_in_schema_1_checkpoint_probes(self, tmp_path):
        ckpt = Path(__file__).resolve().parent / "data" / "ckpt_schema1.npz"
        out = tmp_path / "probe"
        assert cli.main(["probe", str(ckpt), "--constitution", str(DATA / "toy_high_si.txt"),
                         "--out-dir", str(out)]) == cli.EXIT_OK
        reference_probe([ckpt], tmp_path / "ref", DATA / "toy_high_si.txt")
        assert csv_bytes(out) == csv_bytes(tmp_path / "ref")

    @staticmethod
    def with_meta(tmp_path, transform) -> Path:
        """A copy of the checked-in checkpoint whose meta is transform(meta)."""
        with np.load(SCHEMA_1_CHECKPOINT, allow_pickle=False) as archive:
            data = dict(archive)
        data["meta"] = json.dumps(transform(json.loads(str(data["meta"]))), sort_keys=True)
        path = tmp_path / "edited.npz"
        np.savez(path, **data)
        return path

    @classmethod
    def with_config_text(cls, tmp_path, transform) -> Path:
        """A copy of the checked-in checkpoint whose stored config text is
        transform(text); its config_hash is left as it was."""
        return cls.with_meta(tmp_path, lambda meta: {
            **meta, "config_text": transform(meta["config_text"])})

    def test_checkpoint_config_of_another_schema_probes(self, tmp_path):
        # The stored config says schema 3 and holds a key that schema 3 had,
        # or says schema 5 and holds the keys that schema 6 retired; the
        # probe checks its prompt length and bias and ignores the rest.
        def to_schema_3(text):
            assert text.startswith("schema_version = 4\n")
            return text.replace("schema_version = 4", "schema_version = 3") \
                + "ot_subsample_cap = 512\n"

        def to_schema_5(text):
            assert all(f"\n{key} = " in text for key in RETIRED_SCHEMA_5_KEYS)
            return "".join(line for line in text.replace(
                "schema_version = 4", "schema_version = 5").splitlines(keepends=True)
                if line.split(" = ")[0] not in RETIRED_SCHEMA_4_KEYS)

        for transform in (to_schema_3, to_schema_5):
            case = tmp_path / transform.__name__
            case.mkdir()
            ckpt = self.with_config_text(case, transform)
            out = case / "probe"
            assert cli.main(["probe", str(ckpt), "--constitution",
                             str(DATA / "toy_high_si.txt"), "--out-dir", str(out)]) \
                == cli.EXIT_OK
            reference_probe([ckpt], case / "ref", DATA / "toy_high_si.txt")
            assert csv_bytes(out) == csv_bytes(case / "ref")

    def test_checkpoint_config_line_that_does_not_parse_exits_2(self, tmp_path, capsys):
        ckpt = self.with_config_text(tmp_path, lambda text: text + "no equals sign\n")
        assert cli.main(["probe", str(ckpt), "--constitution", str(DATA / "toy_high_si.txt"),
                         "--out-dir", str(tmp_path / "probe")]) == cli.EXIT_CONFIG
        assert f"checkpoint {ckpt} config: Expected '=' after a key in a key/value pair " \
            "(at line" in capsys.readouterr().err

    def test_checkpoint_config_text_that_is_not_a_string_exits_2(self, tmp_path, capsys):
        # It died in the config reader with an AttributeError traceback (exit 1).
        ckpt = self.with_config_text(tmp_path, lambda text: 7)
        out = tmp_path / "probe"
        assert cli.main(["probe", str(ckpt), "--constitution", str(DATA / "toy_high_si.txt"),
                         "--out-dir", str(out)]) == cli.EXIT_CONFIG
        assert f"checkpoint {ckpt} config: config_text must be a string, got 7" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_meta_that_is_not_an_object_exits_1(self, tmp_path, capsys):
        # It died in load_checkpoint with a TypeError traceback.
        ckpt = self.with_meta(tmp_path, lambda meta: [meta])
        out = tmp_path / "probe"
        assert cli.main(["probe", str(ckpt), "--constitution", str(DATA / "toy_high_si.txt"),
                         "--out-dir", str(out)]) == cli.EXIT_RUNTIME
        assert f"error: cannot load checkpoint {ckpt}: checkpoint meta must be a JSON " \
            "object, got list" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("transform, message", [
        # A TypeError traceback from int([16]).
        (lambda meta: {**meta, "vocab_size": [16]},
         "checkpoint meta vocab_size must be an int of at least 8, got [16]"),
        # A KeyError traceback after --out-dir was made.
        (lambda meta: {k: v for k, v in meta.items() if k != "step"},
         "checkpoint meta step must be an int of at least 0, got None"),
        # Exit 0, with "x" written as a step label in fr_path.csv.
        (lambda meta: {**meta, "step": "x"},
         "checkpoint meta step must be an int of at least 0, got 'x'"),
        (lambda meta: {**meta, "dim": True}, "checkpoint meta dim must be an int of at least 1, "
         "got True"),
        (lambda meta: {**meta, "param_hash": 5}, "checkpoint meta param_hash must be a string, "
         "got 5"),
    ], ids=["vocab_size_list", "step_missing", "step_string", "dim_bool", "param_hash_int"])
    def test_checkpoint_meta_field_of_the_wrong_type_exits_1(self, tmp_path, capsys,
                                                             transform, message):
        ckpt = self.with_meta(tmp_path, transform)
        out = tmp_path / "probe"
        assert cli.main(["probe", str(SCHEMA_1_CHECKPOINT), str(ckpt),
                         "--constitution", str(DATA / "toy_high_si.txt"),
                         "--out-dir", str(out)]) == cli.EXIT_RUNTIME
        assert f"error: cannot load checkpoint {ckpt}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("make, message", [
        (flipped_embed_byte,
         "checkpoint member 'embed' does not read: Bad CRC-32 for file 'embed.npy'"),
        (lambda: edited_embed_entry((8, 0x01)), "checkpoint member 'embed' does not read: "
         "File 'embed.npy' is encrypted, password required for extraction"),
        (lambda: edited_embed_entry((8, 0x20)), "checkpoint member 'embed' does not read: "
         "compressed patched data (flag bit 5)"),
        (lambda: edited_embed_entry((22, 0x10), (26, 0x10)),
         "checkpoint member 'embed' does not read: EOFError"),
        (lambda: SCHEMA_1_CHECKPOINT.read_bytes()[:5000], "File is not a zip file"),
        (lambda: resaved(lambda d: {k: v for k, v in d.items() if k != "out"}),
         "checkpoint has no member 'out'"),
        (lambda: resaved(lambda d: {**d, "embed": np.asfortranarray(d["embed"])}),
         f"checkpoint member 'embed' {NOT_NPY}"),
        (lambda: resaved(lambda d: {**d, "out": d["out"].astype(np.float32)}),
         f"checkpoint member 'out' {NOT_NPY}"),
        (lambda: resaved(lambda d: {**d, "ctx_scale": d["ctx_scale"].astype(">f8")}),
         f"checkpoint member 'ctx_scale' {NOT_NPY}"),
        (lambda: resaved(lambda d: {**d, "meta": np.array(str(d["meta"]), dtype=object)}),
         f"checkpoint member 'meta' {NOT_NPY}"),
        (lambda: resaved(dict, np.savez_compressed), f"checkpoint member 'meta' {NOT_NPY}"),
        (lambda: resaved(lambda d: {**d, "meta": np.float64(1.0)}),
         "checkpoint member 'meta' is not a unicode string"),
        (lambda: resaved(lambda d: {**d, "meta": "step = 1"}),
         "checkpoint member 'meta' is not JSON: Expecting value: line 1 column 1"),
        (lambda: resaved(flattened_embed),
         "checkpoint block 'embed' is float64 of shape (128,), meta says float64 of (16, 8)"),
    ], ids=["flipped_byte", "encrypted_flag", "patched_data_flag", "sizes_past_the_end",
            "cut", "missing_member", "fortran_order", "float32",
            "big_endian", "object_dtype", "compressed", "float_meta", "meta_not_json",
            "flattened_block_with_its_hash"])
    def test_malformed_checkpoint_exits_1_naming_the_cause(self, tmp_path, capsys,
                                                            make, message):
        ckpt = tmp_path / "broken.npz"
        ckpt.write_bytes(make())
        out = tmp_path / "probe"
        assert cli.main(["probe", str(ckpt), "--constitution", str(DATA / "toy_high_si.txt"),
                         "--out-dir", str(out)]) == cli.EXIT_RUNTIME
        assert f"error: cannot load checkpoint {ckpt}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--items"])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_nonpositive_size_exits_2_before_reading(self, tmp_path, capsys, flag, value):
        # The checkpoint does not exist: reading it would exit 1 instead.
        out = tmp_path / "out"
        code = cli.main(["probe", str(tmp_path / "missing.npz"), flag, value,
                         "--out-dir", str(out)])
        assert code == cli.EXIT_CONFIG
        assert f"{flag} must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_2_before_reading(self, tmp_path, capsys):
        # It died in numpy's seeding with a traceback (exit 1).
        out = tmp_path / "out"
        assert cli.main(["probe", str(tmp_path / "missing.npz"), "--seed", "-1",
                         "--out-dir", str(out)]) == cli.EXIT_CONFIG
        assert "--seed must be nonnegative, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_corrupt_checkpoint_runtime_error(self, run_dir, tmp_path, capsys):
        ckpt = sorted(run_dir.glob("ckpt_*.npz"))[0]
        with np.load(ckpt, allow_pickle=False) as archive:
            data = dict(archive)
        data["embed"] = data["embed"] + 1.0
        tampered = tmp_path / "tampered.npz"
        np.savez(tampered, **data)
        text = tmp_path / "text.npz"
        text.write_text("not a checkpoint\n")
        cut = tmp_path / "cut.npz"
        raw = ckpt.read_bytes()
        cut.write_bytes(raw[:len(raw) // 2])
        for broken in (tampered, text, cut):
            code = cli.main(["probe", str(broken),
                             "--constitution", str(DATA / "toy_high_si.txt"),
                             "--out-dir", str(tmp_path / "x")])
            assert code == cli.EXIT_RUNTIME, broken.name
            assert f"error: cannot load checkpoint {broken}" in capsys.readouterr().err
