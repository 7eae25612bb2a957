"""Command-line surface: config round trip, exit codes, artifact layout."""
import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from geoloop import cli, ot
from geoloop.trainer import STEPS_JSONL_FIELDS, TrainConfig, load_checkpoint

DATA = Path(cli.DATA_DIR)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def short_config(tmp_path, **overrides) -> Path:
    fields = dict(
        seed=5, max_steps=8, checkpoint_every=4,
        output_dir=str(tmp_path / "run"),
        constitution=str(DATA / "toy_high_si.txt"),
        warmstart_epochs=30, task_items=16,
        ot_warmup=4,
    )
    fields.update(overrides)
    config = cli.RunConfig(**fields)
    path = tmp_path / "config.toml"
    path.write_text(cli.serialise_config(config))
    return path


class TestConfigRoundTrip:
    def test_parse_serialise_identity(self):
        config = cli.RunConfig(seed=7, channel_weight=0.0, learning_rate=0.25)
        text = cli.serialise_config(config)
        again = cli.parse_config(text)
        assert again == config
        assert cli.serialise_config(again) == text

    def test_unknown_key_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config(f"schema_version = {cli.SCHEMA_VERSION}\nbogus = 3\n")

    def test_bad_ablation_rejected(self):
        # Every ablation key is bad: a run's weights are stated in its file,
        # and no key selects a preset.
        with pytest.raises(cli.ConfigError, match="unknown key 'ablation'"):
            cli.parse_config(f'schema_version = {cli.SCHEMA_VERSION}\nablation = "grpo_cot"\n')

    def test_comments_and_blanks_ignored(self):
        config = cli.parse_config("# comment\n\nseed = 9\n")
        assert config.seed == 9

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

    def test_bad_trainer_field_rejected(self):
        with pytest.raises(cli.ConfigError, match="group size"):
            cli.parse_config(f"schema_version = {cli.SCHEMA_VERSION}\ngroup_size = 1\n")

    @pytest.mark.parametrize("name", ["enigma_high_si", "grpo_cot", "grpo_cot_plus"])
    def test_bundled_configs_round_trip(self, name):
        text = (CONFIGS / f"{name}.toml").read_text()
        assert cli.serialise_config(cli.parse_config(text)) == text

    def test_trainer_defaults_are_the_bundled_recipe(self):
        bundled = cli.load_config(CONFIGS / "enigma_high_si.toml")
        defaults = TrainConfig()
        for f in fields(TrainConfig):
            assert getattr(bundled, f.name) == getattr(defaults, f.name), f.name


class TestTrainCommand:
    def test_missing_constitution_exits_2_no_output(self, tmp_path):
        config = short_config(tmp_path, constitution=str(tmp_path / "absent.txt"))
        code = cli.main(["train", "--config", str(config)])
        assert code == cli.EXIT_CONFIG
        assert not (tmp_path / "run").exists()

    def test_bad_trainer_field_exits_2_no_output(self, tmp_path):
        config = short_config(tmp_path)
        text = config.read_text().replace("group_size = 4", "group_size = 1")
        config.write_text(text)
        assert cli.main(["train", "--config", str(config)]) == cli.EXIT_CONFIG
        assert not (tmp_path / "run").exists()

    def test_cold_start_has_gradient(self, tmp_path):
        # Without a warm start the policy must still leave the all-zero saddle.
        config = short_config(tmp_path, warmstart_epochs=0, max_steps=3)
        assert cli.main(["train", "--config", str(config)]) == cli.EXIT_OK
        rows = [json.loads(line) for line in
                (tmp_path / "run" / "steps.jsonl").read_text().splitlines()]
        assert any(row["grad_norm"] > 0 for row in rows)

    def test_logs_are_strict_json(self, tmp_path):
        # A cold start has no clean subset, so the clean bounds are NaN in
        # memory; the logs carry them as null, never as a bare NaN.
        config = short_config(tmp_path, warmstart_epochs=0, max_steps=10)
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


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("probe_run")
    config = short_config(tmp, max_steps=6, checkpoint_every=2,
                          output_dir=str(tmp / "run"))
    assert cli.main(["train", "--config", str(config)]) == cli.EXIT_OK
    return tmp / "run"


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
        _, task = cli._build_task(cli.RunConfig(
            seed=0, task_items=32, constitution=str(DATA / "toy_high_si.txt")), pset)
        item = task.items[0]
        dists = [load_checkpoint(path)[0].next_token_distribution(
            item.prompt, task.principle(item.principle_id).tokens) for path in ckpts]
        assert math.isfinite(w2sq) and w2sq >= 0.0
        assert w2sq == ot.output_space_ot_diag(dists[0], dists[-1], 16)

    def test_single_checkpoint_no_path(self, run_dir, tmp_path):
        out = tmp_path / "probe_single"
        ckpt = sorted(str(p) for p in run_dir.glob("ckpt_*.npz"))[0]
        code = cli.main(["probe", ckpt, "--no-path",
                         "--constitution", str(DATA / "toy_high_si.txt"),
                         "--out-dir", str(out)])
        assert code == cli.EXIT_OK
        assert (out / "probe_report.csv").exists()
        assert not (out / "fr_path.csv").exists()

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

    def test_corrupt_checkpoint_runtime_error(self, run_dir, tmp_path):
        import numpy as np_mod
        ckpt = sorted(run_dir.glob("ckpt_*.npz"))[0]
        data = dict(np_mod.load(ckpt, allow_pickle=False))
        data["embed"] = data["embed"] + 1.0
        broken = tmp_path / "broken.npz"
        np_mod.savez(broken, **data)
        code = cli.main(["probe", str(broken),
                         "--constitution", str(DATA / "toy_high_si.txt"),
                         "--out-dir", str(tmp_path / "x")])
        assert code == cli.EXIT_RUNTIME
