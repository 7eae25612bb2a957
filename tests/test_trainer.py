"""Group advantages, the GRPO update, schedules, and the full step loop."""
import json
import math
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoloop.errors import ValidationError
from geoloop.policy import DEFAULT_MAX_LEN, ParamGrad, ToyPolicy, transition_counts, warm_start
from geoloop.task import Vocab, make_toy_task
from geoloop import cli, mi, ot, rep_metrics, rewards
from geoloop import policy as pol
from geoloop import trainer as tr
from test_policy import completions, reference_decode_along_axis, reference_format_reward
from test_rewards import reference_mi_reward

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# A schema-1 checkpoint (step 1 of a one-step run: seed 7, task_items 8,
# policy_dim 8, warmstart_epochs 2, prompts_per_batch 4) and, in the file of
# the same name ending .param_hash, the hash of its policy parameters.
SCHEMA_1_CHECKPOINT = Path(__file__).resolve().parent / "data" / "ckpt_schema1.npz"

# The policy-only ablation as configs/grpo_cot.toml states it;
# configs/grpo_cot_plus.toml adds jitter_sigma = 0.5.
GRPO_COT = dict(sami_weight=0.0, ot_weight=0.0, channel_weight=0.0)


def small_trainer(seed=0, steps=50, **config_overrides):
    task = make_toy_task(seed=seed, prompt_len=2, n_items=16)
    policy = ToyPolicy(Vocab())
    policy.init_params(seed)
    warm_start(policy, task, 60, 0.5, seed, bias=0.15)
    config = tr.TrainConfig(**{"prompts_per_batch": 4, **config_overrides})
    return tr.Trainer(policy, task, config, max_steps=steps, seed=seed)


class TestGroupAdvantages:
    def test_all_equal_rewards(self):
        out = tr.group_advantages([0.7, 0.7, 0.7, 0.7])
        assert np.all(out.advantages == 0.0)
        assert out.std == 0.0

    def test_mean_subtraction_mode_none(self):
        out = tr.group_advantages([1.0, 0.0, 0.0, 0.0])
        assert out.advantages == pytest.approx([0.75, -0.25, -0.25, -0.25])

    def test_needs_two(self):
        with pytest.raises(ValidationError):
            tr.group_advantages([1.0])

    def test_groups_on_the_last_axis(self):
        rng = np.random.default_rng(7)
        rewards = rng.normal(0, 1, (6, 4))
        rewards[2] = 0.3
        out = tr.group_advantages(rewards)
        for g in range(6):
            one = tr.group_advantages(rewards[g])
            assert np.array_equal(out.advantages[g], one.advantages)
            assert out.std[g] == one.std
        assert out.std[2] == 0.0
        assert np.all(out.advantages[2] == 0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 12))
    def test_invariants(self, seed, g):
        # Centred, not scaled: the advantages keep the rewards' spread.
        rng = np.random.default_rng(seed)
        rewards = rng.normal(0, 1, g)
        out = tr.group_advantages(rewards)
        assert out.advantages.mean() == pytest.approx(0.0, abs=1e-9)
        assert out.advantages.std() == pytest.approx(out.std, abs=1e-12)


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
        config = tr.TrainConfig(prompts_per_batch=4, jitter_sigma=0.5, **GRPO_COT)
        assert config.ot_weight == 0.0 and config.sami_weight == 0.0
        trainer = tr.Trainer(policy, task, config, max_steps=10, seed=4)
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
        size = config.group_size
        reward = np.array([float((not c.truncated)
                                 and reference_format_reward(c.content, policy.vocab) == 1.0)
                           for c in sampled])
        reward = reward + config.jitter_sigma * tr.derive_rng(
            4, 0, tr._CH_JITTER).standard_normal(len(sampled))
        advantages = [tr.group_advantages(reward[g * size:(g + 1) * size]).advantages
                      for g in range(config.prompts_per_batch)]
        sampled = [sampled[g * size:(g + 1) * size] for g in range(config.prompts_per_batch)]

        items = task.items[:config.prompts_per_batch]
        kept = [(item, comp, a) for item, group, adv in zip(items, sampled, advantages)
                for comp, a in zip(group, adv) if not comp.truncated]
        assert 0 < len(kept) < len(items) * config.group_size
        assert any(a != 0.0 for *_, a in kept)
        loss_grad = ParamGrad.zeros(policy.vocab.size, policy.dim)
        for item, comp, a in kept:
            ctx = (item.prompt, task.principle(item.principle_id).tokens)
            loss_grad.add(before.grad_seq_logprob(*ctx, comp.tokens),
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
        violation below ot.DEFAULT_TOL = 1e-9, so each divergence value may
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
        config = tr.TrainConfig(prompts_per_batch=4, sami_weight=0.5, ot_weight=0.5,
                                channel_weight=0.15, mi_warmup_steps=4, ot_warmup=2)
        t = tr.Trainer(policy, task, config, max_steps=50, seed=seed)
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
            recorded["advantages"] = out.advantages.ravel()
            return out

        monkeypatch.setattr(policy, "sample_groups", record_samples)
        monkeypatch.setattr(tr, "group_advantages", record_advantages)
        before = policy.clone()
        report = t.train_step()
        monkeypatch.undo()

        samples, adv = recorded["samples"], recorded["advantages"]
        assert report.grad_norm < tr.GRAD_CLIP and report.loss_ot > 0
        _, items, contexts, own = step_contexts(t, step)
        groups = np.repeat(np.arange(len(items)), config.group_size)
        ctx = own[groups]
        counts = samples.counts(policy.vocab.size)
        kept = np.flatnonzero(~samples.truncated)
        true_contexts = [(items[g].prompt, task.principle(items[g].principle_id).tokens)
                         for g in groups]
        ref = rep_metrics.EmpiricalMeasure(
            t.reference.table(true_contexts).summaries(np.arange(groups.size), counts)[0],
            normalised=True)
        lam_row, lam_col = tr.rowcol_anneal(step, t.max_steps)

        def surrogate(p):
            table = p.table(contexts)
            scores = table.seq_logprobs(counts)
            grpo = -np.sum(adv[kept] * scores[ctx[kept], kept]) / (p.max_len * kept.size)
            matrix = mi.ScoreMatrix(scores[ctx[kept]][:, kept].T
                                    / samples.lengths[kept, None])
            losses = mi.infonce_losses(matrix)
            sami = tr.sami_weight_at(config, step) * (lam_row * losses["row_loss"]
                                                      + lam_col * losses["col_loss"])
            cur = rep_metrics.EmpiricalMeasure(table.summaries(ctx, counts)[0],
                                               normalised=True)
            divergence = ot.sinkhorn_divergence_with_grad(cur, ref, tr.BLUR ** 2,
                                                          max_iter=500)[0]
            return grpo + sami + config.ot_weight * divergence

        tol = config.ot_weight * 4 * ot.DEFAULT_TOL / h
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
        config = tr.TrainConfig()
        assert tr.sami_weight_at(config, 0) == 0.0
        assert tr.sami_weight_at(config, 25) == pytest.approx(0.025)
        assert tr.sami_weight_at(config, 50) == pytest.approx(0.05)
        assert tr.sami_weight_at(config, 500) == pytest.approx(0.05)

    def test_unified_loss_schedule(self):
        config = tr.TrainConfig()
        # step 0: both auxiliaries contribute nothing
        assert tr.enigma_loss(1.5, 9.9, 7.7, config, 0) == pytest.approx(1.5)
        # past warmup: sami at full weight
        assert tr.enigma_loss(1.0, 2.0, 0.0, config, 50) == pytest.approx(1.1)
        # ot switches on exactly at ot_warmup
        assert tr.enigma_loss(0.0, 0.0, 0.5, config, 199) == 0.0
        assert tr.enigma_loss(0.0, 0.0, 0.5, config, 200) == pytest.approx(0.5)


def bundled_trainer_config(name) -> tr.TrainConfig:
    run = cli.load_config(CONFIGS / f"{name}.toml")
    return tr.TrainConfig(**{f.name: getattr(run, f.name) for f in fields(tr.TrainConfig)})


class TestAblationPresets:
    """The ablations are bundled config files: the enigma recipe with the
    auxiliary weights at zero, and jitter for grpo_cot_plus."""

    def test_grpo_cot_disables_everything(self):
        config = bundled_trainer_config("grpo_cot")
        assert config == replace(bundled_trainer_config("enigma_high_si"), **GRPO_COT)
        assert config.jitter_sigma == 0.0

    def test_cot_plus_enables_jitter(self):
        config = bundled_trainer_config("grpo_cot_plus")
        assert config == replace(bundled_trainer_config("grpo_cot"), jitter_sigma=0.5)


class TestTrainStep:
    def test_determinism(self):
        t1 = small_trainer(seed=3)
        t2 = small_trainer(seed=3)
        for _ in range(5):
            r1 = t1.train_step()
            r2 = t2.train_step()
            assert r1 == r2
        assert t1.policy.param_hash() == t2.policy.param_hash()

    def test_loss_identity(self):
        t = small_trainer(seed=4, mi_warmup_steps=2, ot_warmup=3)
        for _ in range(6):
            rep = t.train_step()
            expected = (rep.loss_grpo
                        + tr.sami_weight_at(t.config, rep.step) * rep.loss_sami
                        + rep.loss_ot)
            assert rep.loss_total == pytest.approx(expected, abs=1e-9)

    def test_single_principle_pool_rejected(self):
        task = make_toy_task(seed=2, prompt_len=2, n_items=16)
        first = task.principles[0]
        task = replace(task, principles=(first,), items=tuple(
            item for item in task.items if item.principle_id == first.pid))
        with pytest.raises(ValidationError, match="two"):
            tr.Trainer(ToyPolicy(Vocab()), task, tr.TrainConfig(), max_steps=2, seed=2)

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
            "mi_row_clean", "mi_col_clean", "mi_gap", "diag_mi",
            "grad_norm", "entropy", "clean_count",
            "bhat_angle", "hellinger", "js_bits", "frechet", "effrank", "pr",
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

    def test_probe_identity_at_step_zero(self):
        t = small_trainer(seed=8)
        rep = t.train_step()
        assert rep.bhat_angle == pytest.approx(0.0, abs=1e-7)
        assert rep.hellinger == pytest.approx(0.0, abs=1e-7)
        assert rep.frechet == pytest.approx(0.0, abs=1e-7)

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
        t = tr.Trainer(policy, task, tr.TrainConfig(prompts_per_batch=4),
                       max_steps=2, seed=13)
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
        getitem = np.lib.npyio.NpzFile.__getitem__

        def recording_getitem(self, key):
            read.append(key)
            return getitem(self, key)

        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", recording_getitem)
        tr.load_checkpoint(path)
        assert sorted(read) == ["ctx_scale", "embed", "meta", "out", "prev_scale"]

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

    def test_checked_in_schema_1_checkpoint_loads_to_its_hash(self):
        policy, meta = tr.load_checkpoint(SCHEMA_1_CHECKPOINT)
        expected = SCHEMA_1_CHECKPOINT.with_suffix(".param_hash").read_text().strip()
        assert meta["schema"] == 1
        assert policy.param_hash() == expected == meta["param_hash"]


def step_contexts(t, step=0):
    """(item indices, items, contexts, own) of a step, built from the task:
    context p * G + g pairs group g's prompt with pool principle p, and
    own[g] is group g's true context."""
    item_idx = t._batch_items(step)
    items = [t.task.items[i] for i in item_idx]
    pool = t.task.principles
    contexts = [(item.prompt, p.tokens) for p in pool for item in items]
    pids = [p.pid for p in pool]
    own = np.array([pids.index(item.principle_id) * len(items) + g
                    for g, item in enumerate(items)])
    return item_idx, items, contexts, own


def step_inputs(t, step=0):
    """What train_step scores: items, the table's (C, B) scores, completions."""
    item_idx, items, contexts, own = step_contexts(t, step)
    table = t.policy.table(contexts)
    samples = t.policy.sample_groups(
        table, own, t.config.group_size,
        [tr.derive_rng(t.seed, step, tr._CH_SAMPLE, g) for g in range(len(items))])
    comps = completions(samples)
    groups = np.repeat(np.arange(len(items)), t.config.group_size)
    counts = transition_counts([c.tokens for c in comps], t.policy.vocab.size)
    lengths = np.maximum(1, counts.sum(axis=(1, 2)))
    return item_idx, items, own, table.seq_logprobs(counts), comps, groups, lengths


def mean_logprob(t, prompt, pid, comp):
    tokens = t.task.principle(pid).tokens
    return float(np.sum(t.policy.token_logprobs(prompt, tokens, comp.tokens))) / comp.length


class TestGatherScorers:
    """Each gather over the step's table equals its per-sequence definition."""

    def test_row_scores(self):
        t = small_trainer(seed=12)
        item_idx, items, own, scores, comps, groups, lengths = step_inputs(t)
        ctx = t._row_candidates(item_idx, groups, 0)
        got = scores[ctx, np.arange(len(comps))[:, None]] / lengths[:, None]
        rng = tr.derive_rng(t.seed, 0, tr._CH_SHADOW_P)
        pool = [p.pid for p in t.task.principles]
        for b, comp in enumerate(comps):
            item = items[groups[b]]
            draw = mi.draw_shadows(pool, item.principle_id, t.config.shadow_k, rng)
            expected = [mean_logprob(t, item.prompt, pid, comp)
                        for pid in (item.principle_id, *draw)]
            assert np.max(np.abs(got[b] - expected)) <= 1e-12

    def test_column_scores(self):
        t = small_trainer(seed=13)
        item_idx, items, own, scores, comps, groups, lengths = step_inputs(t)
        cands = t._col_candidates(len(comps), 0)
        got = scores[own][groups[:, None], cands] / lengths[cands]
        rng = tr.derive_rng(t.seed, 0, tr._CH_SHADOW_C)
        for idx, comp in enumerate(comps):
            others = [j for j in range(len(comps)) if j != idx]
            picked = [others[int(i)] for i in
                      rng.choice(len(others), size=t.config.shadow_k, replace=False)]
            item = items[groups[idx]]
            expected = [mean_logprob(t, item.prompt, item.principle_id, comps[j])
                        for j in [idx] + picked]
            assert np.max(np.abs(got[idx] - expected)) <= 1e-12

    def test_sami_matrix(self):
        t = small_trainer(seed=14)
        item_idx, items, own, scores, comps, groups, lengths = step_inputs(t)
        kept = np.array([i for i, c in enumerate(comps) if not c.truncated])
        assert kept.size >= 2
        got = tr._sami_matrix(scores[own], groups, kept, lengths).scores
        for i, row in enumerate(kept):
            for j, col in enumerate(kept):
                item = items[groups[col]]
                expected = mean_logprob(t, item.prompt, item.principle_id, comps[row])
                assert abs(got[i, j] - expected) <= 1e-12


TABLE_FIELDS = ("weights", "ctx", "cfeat", "pfeat", "a", "b", "ea", "eb", "z", "lse")


class TestRunConstants:
    """The tables a step gathers from the run's bags are the per-step tables, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_step_table_is_the_policy_table(self, seed):
        t = small_trainer(seed=seed, steps=20, prompts_per_batch=6)
        for step in range(6):
            item_idx, _, contexts, _ = step_contexts(t, step)
            got, expected = t._step_table(item_idx), t.policy.table(contexts)
            for name in TABLE_FIELDS:
                assert np.array_equal(getattr(got, name), getattr(expected, name)), name
            t.train_step()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reference_rows_are_the_reference_table(self, seed):
        t = small_trainer(seed=seed, steps=20, prompts_per_batch=6)
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
            for got, want in zip(t._ref_table.summaries(item_idx[groups], counts),
                                 expected.summaries(groups, counts)):
                assert np.array_equal(got, want)
            t.train_step()

    def test_probe_distributions(self):
        t = small_trainer(seed=3)
        item = t.task.items[0]
        ctx = (item.prompt, t.task.principle(item.principle_id).tokens)
        assert np.array_equal(t._probe_ref.probs, t.reference.next_token_distribution(*ctx))
        t.train_step()
        assert np.array_equal(t.policy.forward(t._probe_weights).next_token_probs(0),
                              t.policy.next_token_distribution(*ctx))


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
        base = base + config.jitter_sigma * tr.derive_rng(
            t.seed, step, tr._CH_JITTER).standard_normal(len(comps))
    gate_on = rewards.format_gate_schedule(step, config.mi_warmup_steps)
    mi_reward = np.zeros(len(comps))
    if config.channel_weight > 0:
        for i in range(len(comps)):
            gate_open = entropy_mask[i] and (format_ok[i] or not gate_on)
            mi_reward[i] = reference_mi_reward(z[i], config.channel_weight, gate_open,
                                               t.autoscaler.beta)
    total = base + mi_reward
    adv, stds = np.zeros(len(comps)), []
    size = config.group_size
    for g in range(len(comps) // size):
        out = tr.group_advantages(total[g * size:(g + 1) * size])
        adv[g * size:(g + 1) * size] = out.advantages
        stds.append(float(out.std))
    return entropies, format_ok, base, mi_reward, adv, stds


class TestBatchedBookkeeping:
    """The step's array bookkeeping equals the per-completion functions exactly."""

    @pytest.mark.parametrize("overrides", [
        dict(mi_warmup_steps=10),
        dict(GRPO_COT, jitter_sigma=0.5),
        GRPO_COT,
        dict(mi_warmup_steps=10, jitter_sigma=0.3),
    ], ids=["enigma", "grpo_cot_plus", "grpo_cot", "enigma_jitter"])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_step_rewards_and_advantages(self, monkeypatch, overrides, seed):
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
            assert np.array_equal(samples.format_ok(t.policy.vocab), format_ok)
            assert np.array_equal(samples.counts(t.policy.vocab.size),
                                  transition_counts([c.tokens for c in comps],
                                                    t.policy.vocab.size))
            if t.config.channel_weight > 0:
                gate_open = rewards.entropy_gate(entropies) & (
                    format_ok | (not rewards.format_gate_schedule(
                        step, t.config.mi_warmup_steps)))
                assert np.array_equal(rewards.mi_tiebreak_rewards(
                    recorded["z"], t.config.channel_weight, gate_open, state), mi_reward)
                open_gates += int(np.count_nonzero(mi_reward))
            grouped = tr.group_advantages((base + mi_reward).reshape(-1, t.config.group_size))
            assert np.array_equal(grouped.advantages.ravel(), adv)
            assert np.array_equal(grouped.std, stds)

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
    def test_shadow_indices_are_draw_shadows(self, seed):
        t = small_trainer(seed=seed, steps=20, prompts_per_batch=6)
        pool = [p.pid for p in t.task.principles]
        for step in range(5):
            item_idx, items, _, _ = step_contexts(t, step)
            groups = np.repeat(np.arange(len(items)), t.config.group_size)
            got = t._row_candidates(item_idx, groups, step)
            rng = tr.derive_rng(t.seed, step, tr._CH_SHADOW_P)
            for b, g in enumerate(groups):
                pid = items[g].principle_id
                draw = mi.draw_shadows(pool, pid, t.config.shadow_k, rng)
                assert list(got[b]) == [pool.index(q) * len(items) + g
                                        for q in (pid, *draw)]


class TestGeometryFlags:
    def test_failed_fit_logged_as_null(self):
        one = rep_metrics.EmpiricalMeasure(np.array([[1.0, 0.0]]), normalised=True)
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
            points / np.linalg.norm(points, axis=1, keepdims=True), normalised=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            frechet, effrank, _, degenerate = tr._geometry(cloud, cloud)
        assert frechet == 0.0 and degenerate and effrank > 1.0

    def test_healthy_fit_not_flagged(self):
        points = np.random.default_rng(1).normal(size=(16, 3))
        cur = rep_metrics.EmpiricalMeasure(
            points / np.linalg.norm(points, axis=1, keepdims=True), normalised=True)
        ref = rep_metrics.EmpiricalMeasure(np.roll(cur.points, 1, axis=1), normalised=True)
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
        t.train_step()
        assert counts == {"fit_gaussian": 2, "frechet_distance": 1, "effective_dims": 1}

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

    def test_step_samples_match_along_axis_decode(self, monkeypatch):
        runs = []
        for decode in (pol._decode, reference_decode_along_axis):
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
