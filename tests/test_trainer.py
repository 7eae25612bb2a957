"""Group advantages, the GRPO update, schedules, and the full step loop."""
import hashlib
import io
import json
import math
import re
import warnings
import zipfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoloop.errors import ValidationError
from geoloop.policy import DEFAULT_MAX_LEN, ToyPolicy, transition_counts, warm_start
from geoloop.task import Vocab, make_toy_task
from geoloop import cli, mi, ot, rep_metrics, rewards
from geoloop import policy as pol
from geoloop import trainer as tr
from test_cli import TRAINER_FIELDS
from test_mi import reference_cases, reference_infonce
from test_policy import (add_grad, completions, reference_decode_along_axis,
                         reference_format_reward, zero_grad)
from test_rewards import reference_mi_reward

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# A schema-1 checkpoint (step 1 of a one-step run: seed 7, task_items 8,
# policy_dim 8, warmstart_epochs 2, prompts_per_batch 4) and, in the file of
# the same name ending .param_hash, the hash of its policy parameters.
SCHEMA_1_CHECKPOINT = Path(__file__).resolve().parent / "data" / "ckpt_schema1.npz"
# sha256 of the seed-12 trainer's checkpoints at steps 0 and 5, saved with no
# config hash or text (test_checkpoint_bytes_match_the_golden).
CHECKPOINT_SHA256 = SCHEMA_1_CHECKPOINT.with_name("checkpoint_seed12_steps0_5.sha256")

# The policy-only ablation as configs/grpo_cot.toml states it;
# configs/grpo_cot_plus.toml adds jitter_sigma = 0.5.
GRPO_COT = dict(sami_weight=0.0, ot_weight=0.0, channel_weight=0.0)


@pytest.fixture(autouse=True)
def four_prompts_per_batch(monkeypatch):
    """The trainers here take 4 prompts a step, half a run's batch."""
    monkeypatch.setattr(tr, "PROMPTS_PER_BATCH", 4)


STEP_PHASES = ("sample", "rows", "cols", "jitter")


def step_stream(t, step, phase):
    """Step `step`'s one stream, default_rng((seed, step, 5)), at the start of
    `phase`: the STEP_PHASES before it are spent in that order, by the
    draws the trainer's module docstring declares (the sampling uniforms as
    one block, then each completion's shadow draw as draw_shadows and
    Generator.choice make it)."""
    rng = np.random.default_rng((t.config.seed, step, 5))
    items = [t.task.items[i] for i in t._batch_items(step)]
    b = len(items) * tr.GROUP_SIZE
    spent = STEP_PHASES[:STEP_PHASES.index(phase)]
    if "sample" in spent:
        rng.random((len(items), t.policy.max_len * tr.GROUP_SIZE))
    if "rows" in spent:
        for item in (item for item in items for _ in range(tr.GROUP_SIZE)):
            mi.draw_shadows(range(len(t.task.principles)), item.column, t.config.shadow_k, rng)
    if "cols" in spent:
        for _ in range(b):
            rng.choice(b - 1, size=t.config.shadow_k, replace=False)
    return rng


def small_trainer(seed=0, steps=50, **config_overrides):
    task = make_toy_task(seed=seed, prompt_len=2, n_items=16)
    policy = ToyPolicy(Vocab())
    policy.init_params(seed)
    warm_start(policy, task, 60, 0.5, seed, bias=0.15)
    return tr.Trainer(policy, task,
                      cli.RunConfig(seed=seed, max_steps=steps, **config_overrides))


class TestGroupAdvantages:
    def test_all_equal_rewards(self):
        advantages, std = tr.group_advantages([0.7, 0.7, 0.7, 0.7])
        assert np.all(advantages == 0.0)
        assert std == 0.0

    def test_mean_subtraction_mode_none(self):
        advantages, _ = tr.group_advantages([1.0, 0.0, 0.0, 0.0])
        assert advantages == pytest.approx([0.75, -0.25, -0.25, -0.25])

    def test_needs_two(self):
        with pytest.raises(ValidationError):
            tr.group_advantages([1.0])

    def test_groups_on_the_last_axis(self):
        rng = np.random.default_rng(7)
        rewards = rng.normal(0, 1, (6, 4))
        rewards[2] = 0.3
        advantages, std = tr.group_advantages(rewards)
        for g in range(6):
            one_advantages, one_std = tr.group_advantages(rewards[g])
            assert np.array_equal(advantages[g], one_advantages)
            assert std[g] == one_std
        assert std[2] == 0.0
        assert np.all(advantages[2] == 0.0)

    @pytest.mark.parametrize("shape", [(4,), (8, 4), (3, 7)])
    def test_bits_of_numpys_mean_and_std(self, shape):
        rewards = np.random.default_rng(3).normal(0, 1, shape)
        advantages, std = tr.group_advantages(rewards)
        assert np.array_equal(advantages, rewards - rewards.mean(axis=-1, keepdims=True))
        assert np.array_equal(std, rewards.std(axis=-1))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 12))
    def test_invariants(self, seed, g):
        # Centred, not scaled: the advantages keep the rewards' spread.
        rng = np.random.default_rng(seed)
        rewards = rng.normal(0, 1, g)
        advantages, std = tr.group_advantages(rewards)
        assert advantages.mean() == pytest.approx(0.0, abs=1e-9)
        assert advantages.std() == pytest.approx(std, abs=1e-12)


class TestGrpoUpdate:
    def test_step_follows_the_on_policy_gradient(self, monkeypatch):
        """One grpo_cot_plus step, no OT: the parameters move by -lr times the
        clipped GRPO gradient -sum_kept A_i grad log p_i / (max_len * n_kept),
        built here from per-sequence gradients of the pre-step policy.  At
        max_len 8, 3 of the 16 completions are truncated and the gradient
        norm (0.10) is over the clip."""
        task = make_toy_task(seed=4, prompt_len=2, n_items=16)
        policy = ToyPolicy(Vocab(), max_len=8)
        policy.init_params(4)
        warm_start(policy, task, 60, 0.5, 4, bias=0.15)
        monkeypatch.setattr(tr, "GRAD_CLIP", 0.05)
        config = cli.RunConfig(seed=4, max_steps=10, jitter_sigma=0.5, **GRPO_COT)
        assert config.ot_weight == 0.0 and config.sami_weight == 0.0
        trainer = tr.Trainer(policy, task, config)
        before = policy.clone()

        sampled = []
        sample_groups = policy.sample_groups

        def record_groups(*args, **kwargs):
            out = sample_groups(*args, **kwargs)
            sampled.extend(completions(out))
            return out

        monkeypatch.setattr(policy, "sample_groups", record_groups)
        report = trainer.train_step()

        # The step's advantages, recomputed from the completions: the format
        # reward plus the grpo_cot_plus jitter, centred within each group.
        size = tr.GROUP_SIZE
        reward = np.array([float((not c.truncated)
                                 and reference_format_reward(c.content, policy.vocab) == 1.0)
                           for c in sampled])
        reward = reward + config.jitter_sigma * step_stream(
            trainer, 0, "jitter").standard_normal(len(sampled))
        advantages = [tr.group_advantages(reward[g * size:(g + 1) * size])[0]
                      for g in range(tr.PROMPTS_PER_BATCH)]
        sampled = [sampled[g * size:(g + 1) * size] for g in range(tr.PROMPTS_PER_BATCH)]

        items = task.items[:tr.PROMPTS_PER_BATCH]
        kept = [(item, comp, a) for item, group, adv in zip(items, sampled, advantages)
                for comp, a in zip(group, adv) if not comp.truncated]
        assert 0 < len(kept) < len(items) * tr.GROUP_SIZE
        assert any(a != 0.0 for *_, a in kept)
        loss_grad = zero_grad(policy)
        for item, comp, a in kept:
            ctx = (item.prompt, task.principles[item.column].tokens)
            add_grad(loss_grad, before.grad_seq_logprob(*ctx, comp.tokens),
                     -a / (policy.max_len * len(kept)))
        assert report.loss_grpo == pytest.approx(-sum(a for *_, a in kept) / len(kept),
                                                 abs=1e-12)
        norm = loss_grad.global_norm()
        assert report.grad_norm == pytest.approx(norm, rel=1e-9)
        assert norm > tr.GRAD_CLIP
        step = tr.LEARNING_RATE * tr.GRAD_CLIP / norm
        for name, block in policy.param_blocks().items():
            change = block - before.param_blocks()[name]
            assert np.max(np.abs(change + step * getattr(loss_grad, name))) <= 1e-12, name


class TestStepGradient:
    def test_step_follows_the_surrogate_gradient(self, monkeypatch):
        """A step with every term on moves the parameters by -lr times the
        gradient of its surrogate objective, taken by central differences.

        The surrogate is a function of the parameters alone: the samples and
        the advantages (and so the shadow picks and the MI reward behind
        them) are the step's own, recorded and held fixed.  It is

            -sum_kept A_i log p_i / (max_len * n_kept)
            + sami_weight(step) * (lam_row * row_loss + lam_col * col_loss)
            + ot_weight * S_eps(current cloud, reference cloud).

        The step is step 2, past ot_warmup 2, with the SAMI weight half
        ramped, and the policy is pushed off the reference first so the OT
        term is not negligible.  Each term's largest gradient entry is then
        at least 100 times the tolerance: 0.16 for OT, 0.09 for GRPO and 9e-3
        for SAMI.  The OT solves stop at an L1 marginal
        violation below ot.TOL = 1e-9, so each divergence value may
        be off by up to about tol times the largest cost, 4 for unit
        vectors, and a central difference over step h by ot_weight * 4 * tol
        / h.  At h = 1e-4 that is 2e-5, the tolerance; the O(h^2) truncation
        error is far below it (measured errors are below 1e-7 and grow as
        1/h for smaller h).
        """
        seed, h = 5, 1e-4
        task = make_toy_task(seed=seed, prompt_len=2, n_items=16)
        policy = ToyPolicy(Vocab(), dim=8)
        policy.init_params(seed)
        warm_start(policy, task, 60, 0.5, seed, bias=0.15)
        monkeypatch.setattr(tr, "MI_WARMUP_STEPS", 4)
        config = cli.RunConfig(seed=seed, max_steps=50, sami_weight=0.5, ot_weight=0.5,
                               channel_weight=0.15, ot_warmup=2)
        t = tr.Trainer(policy, task, config)
        policy.embed += np.random.default_rng(0).normal(0, 0.3, policy.embed.shape)
        t.train_step()
        t.train_step()
        step = t.step

        recorded = {}
        sample_groups, group_advantages = policy.sample_groups, tr.group_advantages

        def record_samples(*args, **kwargs):
            recorded["samples"] = sample_groups(*args, **kwargs)
            return recorded["samples"]

        def record_advantages(rewards):
            out = group_advantages(rewards)
            recorded["advantages"] = out[0].ravel()
            return out

        before = policy.clone()
        with monkeypatch.context() as recording:
            recording.setattr(policy, "sample_groups", record_samples)
            recording.setattr(tr, "group_advantages", record_advantages)
            report = t.train_step()

        samples, adv = recorded["samples"], recorded["advantages"]
        assert report.grad_norm < tr.GRAD_CLIP and report.loss_ot > 0
        _, items, contexts, own = step_contexts(t, step)
        groups = np.repeat(np.arange(len(items)), tr.GROUP_SIZE)
        ctx = own[groups]
        counts = samples.counts(policy.vocab.size)
        kept = np.flatnonzero(~samples.truncated)
        true_contexts = [(items[g].prompt, task.principles[items[g].column].tokens)
                         for g in groups]
        ref = rep_metrics.EmpiricalMeasure(
            t.reference.table(true_contexts).summaries(np.arange(groups.size),
                                                       counts.sum(axis=2))[0])
        lam_row, lam_col = tr.rowcol_anneal(step, t.config.max_steps)

        def surrogate(p):
            table = p.table(contexts)
            scores = table.seq_logprobs(counts)
            grpo = -np.sum(adv[kept] * scores[ctx[kept], kept]) / (p.max_len * kept.size)
            losses = mi.infonce_losses(scores[ctx[kept]][:, kept].T
                                       / samples.lengths[kept, None])
            sami = tr.sami_weight_at(config, step) * (lam_row * losses["row_loss"]
                                                      + lam_col * losses["col_loss"])
            cur = rep_metrics.EmpiricalMeasure(table.summaries(ctx, counts.sum(axis=2))[0])
            divergence = ot.sinkhorn_divergence_with_grad(cur, ref, tr.BLUR ** 2)[0]
            return grpo + sami + config.ot_weight * divergence

        tol = config.ot_weight * 4 * ot.TOL / h
        for name, block in before.param_blocks().items():
            change = policy.param_blocks()[name] - block
            for idx in np.ndindex(block.shape):
                values = []
                for shift in (h, -h):
                    shifted = before.clone()
                    shifted.param_blocks()[name][idx] += shift
                    values.append(surrogate(shifted))
                grad = (values[0] - values[1]) / (2 * h)
                assert abs(change[idx] + tr.LEARNING_RATE * grad) <= tol, (name, idx)


class TestSchedules:
    def test_anneal_endpoints(self):
        assert tr.rowcol_anneal(0, 1000) == pytest.approx((0.7, 0.3))
        assert tr.rowcol_anneal(100, 1000) == pytest.approx((0.5, 0.5))
        assert tr.rowcol_anneal(999, 1000) == pytest.approx((0.5, 0.5))

    def test_anneal_midpoint(self):
        assert tr.rowcol_anneal(50, 1000) == pytest.approx((0.6, 0.4))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 5000), st.integers(1, 5000))
    def test_mix_sums_to_one(self, step, max_steps):
        lam_row, lam_col = tr.rowcol_anneal(step, max_steps)
        assert lam_row + lam_col == pytest.approx(1.0)

    def test_sami_warmup(self):
        config = cli.RunConfig()
        assert tr.sami_weight_at(config, 0) == 0.0
        assert tr.sami_weight_at(config, 25) == pytest.approx(0.025)
        assert tr.sami_weight_at(config, 50) == pytest.approx(0.05)
        assert tr.sami_weight_at(config, 500) == pytest.approx(0.05)

    def test_unified_loss_schedule(self, monkeypatch):
        # The step's loss_total follows the schedule: at step 0 both
        # auxiliaries contribute nothing, past the SAMI warmup SAMI counts
        # at full weight, and OT switches on exactly at ot_warmup.
        monkeypatch.setattr(tr, "MI_WARMUP_STEPS", 2)
        t = small_trainer(seed=4, ot_warmup=4)
        reports = [t.train_step() for _ in range(6)]
        first = reports[0]
        assert first.loss_ot == 0.0 and first.loss_total == first.loss_grpo
        for rep in reports[2:]:
            assert rep.loss_total == (rep.loss_grpo + t.config.sami_weight * rep.loss_sami
                                      + rep.loss_ot), rep.step
        assert [rep.loss_ot > 0 for rep in reports] == [False] * 4 + [True] * 2

    @pytest.mark.parametrize("max_steps", [0, -5])
    def test_anneal_needs_a_positive_run_length(self, max_steps):
        with pytest.raises(ValidationError, match="max_steps must be positive"):
            tr.rowcol_anneal(0, max_steps)


def bundled_trainer_config(name) -> dict:
    run = cli.load_config(CONFIGS / f"{name}.toml")
    return {key: getattr(run, key) for key in TRAINER_FIELDS}


class TestAblationPresets:
    """The ablations are bundled config files: the enigma recipe with the
    auxiliary weights at zero, and jitter for grpo_cot_plus."""

    def test_grpo_cot_disables_everything(self):
        config = bundled_trainer_config("grpo_cot")
        assert config == {**bundled_trainer_config("enigma_high_si"), **GRPO_COT}
        assert config["jitter_sigma"] == 0.0

    def test_cot_plus_enables_jitter(self):
        config = bundled_trainer_config("grpo_cot_plus")
        assert config == {**bundled_trainer_config("grpo_cot"), "jitter_sigma": 0.5}


class TestTrainStep:
    def test_determinism(self):
        t1 = small_trainer(seed=3)
        t2 = small_trainer(seed=3)
        for _ in range(5):
            r1 = t1.train_step()
            r2 = t2.train_step()
            assert r1 == r2
        assert t1.policy.param_hash() == t2.policy.param_hash()

    def test_loss_identity(self, monkeypatch):
        # loss_total is the logged terms' sum to the bit, in each bundled
        # config, as the SAMI weight ramps up (from 0 at step 0 to its full
        # value at step 2) and on both sides of ot_warmup 3: the OT term is
        # 0 before it and switches on exactly at it where ot_weight > 0.
        monkeypatch.setattr(tr, "MI_WARMUP_STEPS", 2)
        for name in ("enigma_high_si", "grpo_cot", "grpo_cot_plus"):
            t = small_trainer(seed=4, **{**bundled_trainer_config(name), "ot_warmup": 3})
            for _ in range(6):
                rep = t.train_step()
                assert rep.loss_total == (rep.loss_grpo
                                          + tr.sami_weight_at(t.config, rep.step) * rep.loss_sami
                                          + rep.loss_ot), (name, rep.step)
                ot_on = t.config.ot_weight > 0 and rep.step >= 3
                assert (rep.loss_ot > 0) == ot_on and (rep.ot_iters is None) != ot_on, \
                    (name, rep.step)

    def test_single_principle_pool_rejected(self):
        task = make_toy_task(seed=2, prompt_len=2, n_items=16)
        first = task.principles[0]
        task = replace(task, principles=(first,), items=tuple(
            item for item in task.items if item.column == 0))
        with pytest.raises(ValidationError, match="two"):
            tr.Trainer(ToyPolicy(Vocab()), task, cli.RunConfig(seed=2, max_steps=2))

    def test_reference_untouched(self):
        t = small_trainer(seed=5)
        h0 = t.reference.param_hash()
        for _ in range(3):
            t.train_step()
        assert t.reference.param_hash() == h0
        assert t.policy.param_hash() != h0

    def test_jsonl_row_schema(self):
        t = small_trainer(seed=6)
        row = t.train_step().jsonl_row()
        assert tuple(row.keys()) == tr.STEPS_JSONL_FIELDS == (
            "step", "reward_base_mean", "reward_mi_mean", "reward_std",
            "loss_total", "loss_grpo", "loss_sami", "loss_ot",
            "mi_row_clean", "mi_col_clean",
            "grad_norm", "entropy", "clean_count", "frechet", "effrank", "pr",
            "geometry_degenerate", "beta", "ot_iters", "ot_violation", "ot_converged")
        assert isinstance(row["geometry_degenerate"], bool)
        # beta is the autoscaler's value going into the step.
        beta = t.autoscaler.beta
        assert row["beta"] == 1.0 and t.train_step().jsonl_row()["beta"] == beta

    def test_ot_off_before_warmup(self):
        t = small_trainer(seed=7, ot_warmup=4)
        for step in range(6):
            rep = t.train_step()
            if step < 4:
                assert rep.loss_ot == 0.0

    def test_ot_solves_converge_on_every_ot_step(self):
        t = small_trainer(seed=0, steps=30, ot_warmup=20)
        reports = [t.train_step() for _ in range(30)]
        assert [r.ot_converged for r in reports[20:]] == [True] * 10
        assert all(r.ot_iters < 500 and r.ot_violation < 1e-9 for r in reports[20:])

    def test_frechet_zero_at_step_zero(self):
        # The policy is still the reference, so the two clouds coincide.
        t = small_trainer(seed=8)
        assert t.train_step().frechet == pytest.approx(0.0, abs=1e-7)

    def test_one_forward_pass_per_step(self, monkeypatch):
        # The step's table is the only forward pass, before and after ot_warmup.
        t = small_trainer(seed=8, ot_warmup=2)
        calls = []
        forward = ToyPolicy.forward

        def counted(policy, *args, **kwargs):
            calls.append(policy)
            return forward(policy, *args, **kwargs)

        monkeypatch.setattr(ToyPolicy, "forward", counted)
        for step in range(4):
            calls.clear()
            report = t.train_step()
            assert (report.ot_iters is None) == (step < 2)
            assert calls == [t.policy], step

    def test_saturated_format_zero_signal(self):
        # All-equal rewards in every group: no variance, no policy gradient
        # from the GRPO term (the ablation's collapse mode).
        t = small_trainer(seed=9)
        t.config = replace(t.config, **GRPO_COT)
        zero_std_steps = 0
        zero_grad_given_zero_std = True
        for _ in range(10):
            rep = t.train_step()
            if rep.reward_std == 0.0:
                zero_std_steps += 1
                if rep.grad_norm != 0.0:
                    zero_grad_given_zero_std = False
        assert zero_std_steps >= 8
        assert zero_grad_given_zero_std

    def test_jitter_restores_signal(self):
        t = small_trainer(seed=9)
        t.config = replace(t.config, **GRPO_COT, jitter_sigma=0.5)
        stds, gnorms = [], []
        for _ in range(10):
            rep = t.train_step()
            stds.append(rep.reward_std)
            gnorms.append(rep.grad_norm)
        assert np.mean(stds) > 0.1
        assert np.mean(gnorms) > 0.0


class TestCheckpoints:
    def test_round_trip_and_hash(self, tmp_path):
        t = small_trainer(seed=10)
        t.train_step()
        path = tmp_path / "ckpt.npz"
        saved_hash = t.save_checkpoint(path, config_hash="abc")
        policy, meta = tr.load_checkpoint(path)
        assert policy.param_hash() == saved_hash == t.policy.param_hash()
        assert meta["config_hash"] == "abc"
        assert meta["step"] == 1
        assert meta["schema"] == 1
        # The snapshot still carries the reference, which a load leaves unread.
        with np.load(path, allow_pickle=False) as data:
            for name, arr in t.reference.param_blocks().items():
                assert np.array_equal(data[f"ref_{name}"], arr), name

    def test_max_len_round_trip(self, tmp_path):
        task = make_toy_task(seed=13, prompt_len=2, n_items=16)
        policy = ToyPolicy(Vocab(), max_len=8)
        policy.init_params(13)
        t = tr.Trainer(policy, task, cli.RunConfig(seed=13, max_steps=2))
        path = tmp_path / "ckpt.npz"
        t.save_checkpoint(path)
        policy, meta = tr.load_checkpoint(path)
        assert meta["max_len"] == 8
        assert policy.max_len == 8

    def test_missing_max_len_loads_default(self, tmp_path):
        t = small_trainer(seed=14)
        path = tmp_path / "ckpt.npz"
        t.save_checkpoint(path)
        data = dict(np.load(path, allow_pickle=False))
        meta = json.loads(str(data["meta"]))
        del meta["max_len"]
        data["meta"] = json.dumps(meta, sort_keys=True)
        np.savez(path, **data)
        policy, _ = tr.load_checkpoint(path)
        assert policy.max_len == DEFAULT_MAX_LEN

    def test_corruption_detected(self, tmp_path):
        t = small_trainer(seed=11)
        path = tmp_path / "ckpt.npz"
        t.save_checkpoint(path)
        data = dict(np.load(path, allow_pickle=False))
        data["embed"] = data["embed"] + 1.0
        np.savez(path, **data)
        with pytest.raises(ValidationError):
            tr.load_checkpoint(path)

    def test_reads_only_meta_and_the_policy(self, tmp_path, monkeypatch):
        t = small_trainer(seed=15)
        path = tmp_path / "ckpt.npz"
        t.save_checkpoint(path)
        read = []
        zip_read = zipfile.ZipFile.read

        def recording_read(self, name, pwd=None):
            read.append(name)
            return zip_read(self, name, pwd)

        monkeypatch.setattr(zipfile.ZipFile, "read", recording_read)
        tr.load_checkpoint(path)
        assert sorted(read) == ["ctx_scale.npy", "embed.npy", "meta.npy", "out.npy",
                                "prev_scale.npy"]

    @settings(max_examples=100, deadline=None)
    @given(shapes=st.lists(st.lists(st.integers(0, 4), max_size=2), min_size=1, max_size=4),
           text=st.text(min_size=1), seed=st.integers(0, 2**32 - 1))
    def test_member_reader_matches_np_load(self, shapes, text, seed):
        rng = np.random.default_rng(seed)
        arrays = {f"a{i}": rng.normal(size=shape) for i, shape in enumerate(shapes)}
        buffer = io.BytesIO()
        np.savez(buffer, meta=text, **arrays)
        archive = zipfile.ZipFile(buffer)
        with np.load(buffer, allow_pickle=False) as data:
            for name in ["meta", *arrays]:
                got, want = tr.read_npy_member(archive, name), data[name]
                assert (got.dtype, got.shape, got.tobytes()) == \
                    (want.dtype, want.shape, want.tobytes()), name
                assert got.flags.writeable and got.flags.c_contiguous, name
        assert str(tr.read_npy_member(archive, "meta")) == text.rstrip("\0")

    def test_loads_without_reference_members(self, tmp_path):
        t = small_trainer(seed=16)
        t.train_step()
        path = tmp_path / "ckpt.npz"
        saved_hash = t.save_checkpoint(path)
        data = dict(np.load(path, allow_pickle=False))
        for name in [k for k in data if k.startswith("ref_")]:
            del data[name]
        stripped = tmp_path / "policy_only.npz"
        np.savez(stripped, **data)
        policy, meta = tr.load_checkpoint(stripped)
        assert policy.param_hash() == saved_hash
        assert meta == tr.load_checkpoint(path)[1]

    def test_checkpoint_bytes_match_the_golden(self, tmp_path):
        # A library checkpoint holds no path, so its bytes are pinned: meta,
        # the policy's blocks and the reference's, in that order.
        t = small_trainer(seed=12)
        for step in (0, 5):
            while t.step < step:
                t.train_step()
            path = tmp_path / f"step{step}.npz"
            saved_hash = t.save_checkpoint(path)
            assert tr.load_checkpoint(path)[1]["param_hash"] == saved_hash == t.policy.param_hash()
        expected = dict(line.split()[::-1] for line in CHECKPOINT_SHA256.read_text().splitlines())
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in expected} == expected

    def test_checked_in_schema_1_checkpoint_loads_to_its_hash(self):
        policy, meta = tr.load_checkpoint(SCHEMA_1_CHECKPOINT)
        expected = SCHEMA_1_CHECKPOINT.with_suffix(".param_hash").read_text().strip()
        assert meta["schema"] == 1
        assert policy.param_hash() == expected == meta["param_hash"]

    @pytest.mark.parametrize("cut", [8, -8], ids=["short", "long"])
    def test_member_whose_bytes_disagree_with_its_shape_rejected(self, cut):
        # A stored member whose header says three <f8 values, followed by
        # two or by four.
        npy = io.BytesIO()
        np.save(npy, np.arange(3.0))
        raw = npy.getvalue()
        raw = raw[:-cut] if cut > 0 else raw + bytes(-cut)
        buffer = io.BytesIO()
        with zipfile.ZipFile(buffer, "w", zipfile.ZIP_STORED) as archive:
            archive.writestr("a.npy", raw)
        with pytest.raises(ValidationError,
                           match=re.escape("checkpoint member 'a' does not hold shape (3,)")):
            tr.read_npy_member(zipfile.ZipFile(buffer), "a")


def step_contexts(t, step=0):
    """(item indices, items, contexts, own) of a step, built from the task:
    context p * G + g pairs group g's prompt with pool principle p, and
    own[g] is group g's true context."""
    item_idx = t._batch_items(step)
    items = [t.task.items[i] for i in item_idx]
    pool = t.task.principles
    contexts = [(item.prompt, p.tokens) for p in pool for item in items]
    own = np.array([item.column * len(items) + g for g, item in enumerate(items)])
    return item_idx, items, contexts, own


def step_inputs(t, step=0):
    """What train_step scores: items, the table's (C, B) scores, completions."""
    item_idx, items, contexts, own = step_contexts(t, step)
    table = t.policy.table(contexts)
    samples = t.policy.sample_groups(table, own, tr.GROUP_SIZE, step_stream(t, step, "sample"))
    comps = completions(samples)
    groups = np.repeat(np.arange(len(items)), tr.GROUP_SIZE)
    counts = transition_counts([c.tokens for c in comps], t.policy.vocab.size)
    lengths = np.maximum(1, counts.sum(axis=(1, 2)))
    return item_idx, items, own, table.seq_logprobs(counts), comps, groups, lengths


def mean_logprob(t, prompt, column, comp):
    tokens = t.task.principles[column].tokens
    return float(np.sum(t.policy.token_logprobs(prompt, tokens, comp.tokens))) / comp.length


def step_blocks(seed, monkeypatch) -> dict:
    """The row, column and SAMI score blocks of the first step of a fresh
    small_trainer(seed), as train_step passes them to mi.clean_mi_bounds and
    mi.infonce_losses."""
    seen = {}
    clean_mi_bounds, infonce_losses = mi.clean_mi_bounds, mi.infonce_losses

    def record_bounds(row_scores, col_scores, clean_mask):
        seen["row"], seen["col"] = row_scores, col_scores
        return clean_mi_bounds(row_scores, col_scores, clean_mask)

    def record_losses(scores):
        seen["sami"] = scores
        return infonce_losses(scores)

    with monkeypatch.context() as recording:
        recording.setattr(mi, "clean_mi_bounds", record_bounds)
        recording.setattr(mi, "infonce_losses", record_losses)
        small_trainer(seed=seed).train_step()
    return seen


class TestGatherScorers:
    """The step's blocks equal the gather-then-divide formulas bit for bit,
    and each entry its per-sequence definition."""

    def test_row_scores(self, monkeypatch):
        t = small_trainer(seed=12)
        item_idx, items, own, scores, comps, groups, lengths = step_inputs(t)
        ctx = t._row_candidates(item_idx, groups, step_stream(t, 0, "rows"))
        got = step_blocks(t.config.seed, monkeypatch)["row"]
        assert np.array_equal(got, scores[ctx, np.arange(len(comps))[:, None]] / lengths[:, None])
        rng = step_stream(t, 0, "rows")
        pool = range(len(t.task.principles))
        for b, comp in enumerate(comps):
            item = items[groups[b]]
            draw = mi.draw_shadows(pool, item.column, t.config.shadow_k, rng)
            expected = [mean_logprob(t, item.prompt, column, comp)
                        for column in (item.column, *draw)]
            assert np.max(np.abs(got[b] - expected)) <= 1e-12

    def test_column_scores(self, monkeypatch):
        t = small_trainer(seed=13)
        item_idx, items, own, scores, comps, groups, lengths = step_inputs(t)
        cands = t._col_candidates(len(comps), step_stream(t, 0, "cols"))
        got = step_blocks(t.config.seed, monkeypatch)["col"]
        assert np.array_equal(got, scores[own][groups[:, None], cands] / lengths[cands])
        rng = step_stream(t, 0, "cols")
        for idx, comp in enumerate(comps):
            others = [j for j in range(len(comps)) if j != idx]
            picked = [others[int(i)] for i in
                      rng.choice(len(others), size=t.config.shadow_k, replace=False)]
            item = items[groups[idx]]
            expected = [mean_logprob(t, item.prompt, item.column, comps[j])
                        for j in [idx] + picked]
            assert np.max(np.abs(got[idx] - expected)) <= 1e-12

    def test_sami_matrix(self, monkeypatch):
        t = small_trainer(seed=14)
        item_idx, items, own, scores, comps, groups, lengths = step_inputs(t)
        kept = np.array([i for i, c in enumerate(comps) if not c.truncated])
        assert kept.size >= 2
        got = step_blocks(t.config.seed, monkeypatch)["sami"]
        assert np.array_equal(got, scores[own][groups[kept]][:, kept].T / lengths[kept, None])
        for i, row in enumerate(kept):
            for j, col in enumerate(kept):
                item = items[groups[col]]
                expected = mean_logprob(t, item.prompt, item.column, comps[row])
                assert abs(got[i, j] - expected) <= 1e-12


TABLE_FIELDS = ("weights", "ctx", "cfeat", "pfeat", "a", "b", "ea", "eb", "z", "lse")


class TestRunConstants:
    """The tables a step gathers from the run's bags are the per-step tables, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_step_table_is_the_policy_table(self, monkeypatch, seed):
        monkeypatch.setattr(tr, "PROMPTS_PER_BATCH", 6)
        t = small_trainer(seed=seed, steps=20)
        for step in range(6):
            item_idx, _, contexts, _ = step_contexts(t, step)
            got, expected = t._step_table(item_idx), t.policy.table(contexts)
            for name in TABLE_FIELDS:
                assert np.array_equal(getattr(got, name), getattr(expected, name)), name
            t.train_step()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reference_rows_are_the_reference_table(self, monkeypatch, seed):
        monkeypatch.setattr(tr, "PROMPTS_PER_BATCH", 6)
        t = small_trainer(seed=seed, steps=20)
        for step in range(4):
            item_idx, items, contexts, own = step_contexts(t, step)
            expected = t.reference.table([contexts[c] for c in own])
            for name in ("weights", "ctx", "cfeat", "a", "ea", "z", "lse"):
                assert np.array_equal(getattr(t._ref_table, name)[item_idx],
                                      getattr(expected, name)), name
            for name in ("pfeat", "b", "eb"):
                assert np.array_equal(getattr(t._ref_table, name), getattr(expected, name))
            _, _, _, _, comps, groups, _ = step_inputs(t, step)
            counts = transition_counts([c.tokens for c in comps], t.policy.vocab.size)
            rows = counts.sum(axis=2)
            for got, want in zip(t._ref_table.summaries(item_idx[groups], rows),
                                 expected.summaries(groups, rows)):
                assert np.array_equal(got, want)
            t.train_step()


def per_completion_rewards(t, step, comps, z):
    """(entropies, format_ok, base, mi_reward, advantages, group stds) of a
    step, built one completion and one group at a time with the library's
    per-completion functions and the test references."""
    config = t.config
    entropies = np.array([c.mean_entropy for c in comps])
    entropy_mask = rewards.entropy_gate(entropies)
    format_ok = np.array([(not c.truncated)
                          and reference_format_reward(c.content, t.policy.vocab) == 1.0
                          for c in comps])
    base = format_ok.astype(float)
    if config.jitter_sigma > 0:
        base = base + config.jitter_sigma * step_stream(
            t, step, "jitter").standard_normal(len(comps))
    gate_on = rewards.format_gate_schedule(step, tr.MI_WARMUP_STEPS)
    mi_reward = np.zeros(len(comps))
    if config.channel_weight > 0:
        for i in range(len(comps)):
            gate_open = entropy_mask[i] and (format_ok[i] or not gate_on)
            mi_reward[i] = reference_mi_reward(z[i], config.channel_weight, gate_open,
                                               t.autoscaler.beta)
    total = base + mi_reward
    adv, stds = np.zeros(len(comps)), []
    size = tr.GROUP_SIZE
    for g in range(len(comps) // size):
        adv[g * size:(g + 1) * size], std = tr.group_advantages(total[g * size:(g + 1) * size])
        stds.append(float(std))
    return entropies, format_ok, base, mi_reward, adv, stds


class TestBatchedBookkeeping:
    """The step's array bookkeeping equals the per-completion functions exactly."""

    @pytest.mark.parametrize("overrides", [
        {},
        dict(GRPO_COT, jitter_sigma=0.5),
        GRPO_COT,
        dict(jitter_sigma=0.3),
    ], ids=["enigma", "grpo_cot_plus", "grpo_cot", "enigma_jitter"])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_step_rewards_and_advantages(self, monkeypatch, overrides, seed):
        # A 10-step MI warmup: the format gate opens at step 3 of the 8.
        monkeypatch.setattr(tr, "MI_WARMUP_STEPS", 10)
        t = small_trainer(seed=seed, steps=40, **overrides)
        recorded = {}
        sample_groups, row_z = t.policy.sample_groups, mi.row_positive_logsoftmax

        def record_samples(*args, **kwargs):
            recorded["samples"] = sample_groups(*args, **kwargs)
            return recorded["samples"]

        def record_z(*args, **kwargs):
            recorded["z"] = row_z(*args, **kwargs)
            return recorded["z"]

        monkeypatch.setattr(t.policy, "sample_groups", record_samples)
        monkeypatch.setattr(mi, "row_positive_logsoftmax", record_z)
        long_rows = zero_variance_groups = open_gates = 0
        for step in range(8):
            recorded.clear()
            state = t.autoscaler
            report = t.train_step()
            samples = recorded["samples"]
            comps = completions(samples)
            t.autoscaler, after = state, t.autoscaler
            entropies, format_ok, base, mi_reward, adv, stds = per_completion_rewards(
                t, step, comps, recorded.get("z"))
            t.autoscaler = after

            assert np.array_equal(samples.mean_entropies(), entropies)
            assert np.array_equal(rewards.format_ok(samples.tokens, samples.lengths,
                                                    samples.truncated, t.policy.vocab),
                                  format_ok)
            assert np.array_equal(samples.counts(t.policy.vocab.size),
                                  transition_counts([c.tokens for c in comps],
                                                    t.policy.vocab.size))
            if t.config.channel_weight > 0:
                gate_open = rewards.entropy_gate(entropies) & (
                    format_ok | (not rewards.format_gate_schedule(
                        step, tr.MI_WARMUP_STEPS)))
                assert np.array_equal(rewards.mi_tiebreak_rewards(
                    recorded["z"], t.config.channel_weight, gate_open, state), mi_reward)
                open_gates += int(np.count_nonzero(mi_reward))
            grouped, std = tr.group_advantages((base + mi_reward).reshape(-1, tr.GROUP_SIZE))
            assert np.array_equal(grouped.ravel(), adv)
            assert np.array_equal(std, stds)

            kept = [i for i, c in enumerate(comps) if not c.truncated]
            assert report.entropy == float(entropies.mean())
            assert report.reward_base_mean == float(base.mean())
            assert report.reward_mi_mean == float(mi_reward.mean())
            assert report.reward_std == float(np.mean(stds))
            assert report.loss_grpo == float(sum(-adv[kept]) / max(1, len(kept)))
            long_rows += int(np.sum(samples.lengths >= 9))
            zero_variance_groups += stds.count(0.0)
        # Rows long enough for numpy's pairwise summation to matter, and, where
        # the config has them, open MI gates and zero-variance groups.
        assert long_rows > 0
        if t.config.channel_weight > 0:
            assert open_gates > 0
        if t.config.channel_weight == 0 and t.config.jitter_sigma == 0:
            assert zero_variance_groups > 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shadow_indices_are_draw_shadows(self, monkeypatch, seed):
        monkeypatch.setattr(tr, "PROMPTS_PER_BATCH", 6)
        t = small_trainer(seed=seed, steps=20)
        pool = range(len(t.task.principles))
        for step in range(5):
            item_idx, items, _, _ = step_contexts(t, step)
            groups = np.repeat(np.arange(len(items)), tr.GROUP_SIZE)
            got = t._row_candidates(item_idx, groups, step_stream(t, step, "rows"))
            rng = step_stream(t, step, "rows")
            for b, g in enumerate(groups):
                column = items[g].column
                draw = mi.draw_shadows(pool, column, t.config.shadow_k, rng)
                assert list(got[b]) == [q * len(items) + g for q in (column, *draw)]


class TestGeometryFlags:
    def test_failed_fit_logged_as_null(self):
        one = rep_metrics.EmpiricalMeasure(np.array([[1.0, 0.0]]))
        frechet, effrank, pr, degenerate = tr._geometry(one, one)
        assert math.isnan(frechet) and math.isnan(effrank) and math.isnan(pr)
        assert degenerate

    def test_clamp_flagged_not_warned(self, monkeypatch):
        def clamping_frechet(a, b):
            warnings.warn("clamped", rep_metrics.FrechetClampWarning)
            return 0.0

        monkeypatch.setattr(rep_metrics, "frechet_distance", clamping_frechet)
        points = np.random.default_rng(0).normal(size=(8, 3))
        cloud = rep_metrics.EmpiricalMeasure(
            points / np.linalg.norm(points, axis=1, keepdims=True))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            frechet, effrank, _, degenerate = tr._geometry(cloud, cloud)
        assert frechet == 0.0 and degenerate and effrank > 1.0

    @pytest.mark.parametrize("category", [UserWarning, RuntimeWarning])
    def test_other_warnings_reach_the_caller(self, monkeypatch, category):
        def warning_frechet(a, b):
            warnings.warn("not a clamp", category)
            return 0.5

        monkeypatch.setattr(rep_metrics, "frechet_distance", warning_frechet)
        points = np.random.default_rng(0).normal(size=(8, 3))
        cloud = rep_metrics.EmpiricalMeasure(
            points / np.linalg.norm(points, axis=1, keepdims=True))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            frechet, _, _, degenerate = tr._geometry(cloud, cloud)
        assert [(w.category, str(w.message)) for w in caught] == [(category, "not a clamp")]
        assert frechet == 0.5 and not degenerate
        with warnings.catch_warnings():
            warnings.simplefilter("error", category)
            with pytest.raises(category, match="not a clamp"):
                tr._geometry(cloud, cloud)

    def test_identical_points_flag_the_spectrum(self):
        # A cloud of one point repeated fits a zero covariance: the Fréchet
        # distance to a four-point reference is finite, and the spectrum
        # has no positive eigenvalue, so effrank and pr are NaN and flagged.
        points = np.random.default_rng(1).normal(size=(4, 3))
        ref = rep_metrics.EmpiricalMeasure(
            points / np.linalg.norm(points, axis=1, keepdims=True))
        cur = rep_metrics.EmpiricalMeasure(np.repeat(ref.points[:1], 4, axis=0))
        frechet, effrank, pr, degenerate = tr._geometry(cur, ref)
        assert frechet == rep_metrics.frechet_distance(rep_metrics.fit_gaussian(cur),
                                                       rep_metrics.fit_gaussian(ref)) > 0.0
        assert math.isnan(effrank) and math.isnan(pr) and degenerate

    def test_healthy_fit_not_flagged(self):
        points = np.random.default_rng(1).normal(size=(16, 3))
        cur = rep_metrics.EmpiricalMeasure(
            points / np.linalg.norm(points, axis=1, keepdims=True))
        ref = rep_metrics.EmpiricalMeasure(np.roll(cur.points, 1, axis=1))
        frechet, _, _, degenerate = tr._geometry(cur, ref)
        assert frechet > 0.0 and not degenerate


class TestStepGeometry:
    @pytest.mark.parametrize("ot_warmup", [200, 0])
    def test_calls_per_step(self, monkeypatch, ot_warmup):
        # perfbench/tracer.py wraps these names, so its per-layer metrics
        # count what a step calls: two fits, one distance, one spectrum.
        t = small_trainer(seed=2, ot_warmup=ot_warmup)
        counts = dict.fromkeys(("fit_gaussian", "frechet_distance", "effective_dims"), 0)
        for name in counts:
            def counted(*args, _fn=getattr(rep_metrics, name), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(rep_metrics, name, counted)

        def no_sqrt(mat):
            raise AssertionError("train_step reached psd_sqrt")

        monkeypatch.setattr(rep_metrics, "psd_sqrt", no_sqrt)
        # Only the current cloud's spectrum is read, so only its fit takes
        # the eigenvalues.
        eigvalsh = np.linalg.eigvalsh

        def counted_eigvalsh(*args, **kwargs):
            counts["eigvalsh"] += 1
            return eigvalsh(*args, **kwargs)

        counts["eigvalsh"] = 0
        monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
        t.train_step()
        assert counts == {"fit_gaussian": 2, "frechet_distance": 1, "effective_dims": 1,
                          "eigvalsh": 1}

    @pytest.mark.parametrize("seed", [0, 3])
    def test_spectrum_statistics_match_a_fresh_fit(self, monkeypatch, seed):
        t = small_trainer(seed=seed)
        clouds = []
        geometry = tr._geometry

        def record(cur, ref):
            clouds.append(cur)
            return geometry(cur, ref)

        monkeypatch.setattr(tr, "_geometry", record)
        for _ in range(4):
            rep = t.train_step()
            dims = rep_metrics.effective_dims(rep_metrics.fit_gaussian(clouds[-1]).spectrum())
            assert rep.effrank == dims["effrank"]
            assert rep.pr == dims["participation_ratio"]

    @pytest.mark.parametrize("poisoned", ["current", "reference"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_cloud_logs_nulls(self, monkeypatch, poisoned, bad):
        # A fit of a non-finite cloud raises, so the statistics it feeds are
        # logged as null and the step is flagged degenerate.
        t = small_trainer(seed=1)
        geometry = tr._geometry

        def poison(cur, ref):
            clouds = {"current": cur, "reference": ref}
            points = clouds[poisoned].points.copy()
            points[3, 0] = bad
            clouds[poisoned] = rep_metrics.EmpiricalMeasure(points)
            return geometry(clouds["current"], clouds["reference"])

        monkeypatch.setattr(tr, "_geometry", poison)
        row = t.train_step().jsonl_row()
        assert row["geometry_degenerate"] is True
        assert row["frechet"] is None
        if poisoned == "current":
            assert row["effrank"] is None and row["pr"] is None
        else:
            assert math.isfinite(row["effrank"]) and math.isfinite(row["pr"])

    @pytest.mark.parametrize("seed", range(6))
    def test_sami_weights_equal_the_separate_formula(self, seed):
        # The reference takes its own row and column softmaxes of the matrix.
        t = small_trainer(seed=seed)
        for scores in reference_cases(seed):
            n = len(scores)
            ref = reference_infonce(scores)
            for step, (lam_row, lam_col) in ((3, (0.7, 0.3)), (60, (0.55, 0.45))):
                want = tr.sami_weight_at(t.config, step) * (
                    lam_row * (-(np.eye(n) - ref["row_softmax"]) / n)
                    + lam_col * (-(np.eye(n) - ref["col_softmax"]) / n))
                got = tr._sami_weights(mi.infonce_losses(scores),
                                       tr.sami_weight_at(t.config, step), lam_row, lam_col)
                assert np.array_equal(got, want)

    def test_step_samples_match_along_axis_decode(self, monkeypatch):
        runs = []
        def reference(mass, uniforms, starts):
            # log(0) is -inf, whose mass exp(-inf) is 0 again.
            with np.errstate(divide="ignore"):
                return reference_decode_along_axis(np.log(mass), uniforms)

        for decode in (pol._decode, reference):
            monkeypatch.setattr(pol, "_decode", decode)
            t = small_trainer(seed=1)
            recorded, sample_groups = [], t.policy.sample_groups

            def record(*args, _sample=sample_groups, _out=recorded, **kwargs):
                _out.append(_sample(*args, **kwargs))
                return _out[-1]

            monkeypatch.setattr(t.policy, "sample_groups", record)
            runs.append(([t.train_step().jsonl_row() for _ in range(3)], recorded))
        (got_reports, got), (want_reports, want) = runs
        assert got_reports == want_reports
        for a, b in zip(got, want, strict=True):
            for name in ("tokens", "lengths", "truncated", "entropies"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
