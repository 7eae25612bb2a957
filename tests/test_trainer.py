"""Group advantages, the GRPO update, schedules, and the full step loop."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoloop.errors import ValidationError
from geoloop.policy import (ParamGrad, ToyPolicy, Vocab, make_toy_task,
                            transition_counts, warm_start)
from geoloop import mi, rep_metrics
from geoloop import trainer as tr


def small_trainer(seed=0, steps=50, **config_overrides):
    task = make_toy_task(seed=seed, prompt_len=2, n_items=16)
    policy = ToyPolicy(Vocab())
    policy.init_params(seed)
    warm_start(policy, task, 60, 0.5, seed, bias=0.15)
    defaults = dict(learning_rate=1.0, scale_rewards="none", prompts_per_batch=4)
    defaults.update(config_overrides)
    config = tr.TrainConfig(**defaults)
    return tr.Trainer(policy, task, config, max_steps=steps, seed=seed)


class TestGroupAdvantages:
    def test_symmetric_group_scaled(self):
        out = tr.group_advantages([1.0, 0.0, 1.0, 0.0], "group")
        assert out.advantages == pytest.approx([1.0, -1.0, 1.0, -1.0])

    def test_all_equal_rewards(self):
        out = tr.group_advantages([0.7, 0.7, 0.7, 0.7], "group")
        assert np.all(out.advantages == 0.0)
        assert out.std == 0.0

    def test_mean_subtraction_mode_none(self):
        out = tr.group_advantages([1.0, 0.0, 0.0, 0.0], "none")
        assert out.advantages == pytest.approx([0.75, -0.25, -0.25, -0.25])

    def test_needs_two(self):
        with pytest.raises(ValidationError):
            tr.group_advantages([1.0], "group")

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 12))
    def test_invariants(self, seed, g):
        rng = np.random.default_rng(seed)
        rewards = rng.normal(0, 1, g)
        out = tr.group_advantages(rewards, "group")
        assert out.advantages.mean() == pytest.approx(0.0, abs=1e-9)
        if out.std > 1e-12:
            assert out.advantages.std() == pytest.approx(1.0, abs=1e-6)


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
        config = tr.TrainConfig(prompts_per_batch=4, grad_clip=0.05).with_ablation(
            "grpo_cot_plus")
        assert config.ot_weight == 0.0 and config.sami_weight == 0.0
        trainer = tr.Trainer(policy, task, config, max_steps=10, seed=4)
        before = policy.clone()

        sampled, advantages = [], []
        sample_groups, group_advantages = policy.sample_groups, tr.group_advantages

        def record_groups(*args, **kwargs):
            out = sample_groups(*args, **kwargs)
            sampled.extend(out)
            return out

        def record_advantages(rewards, mode):
            out = group_advantages(rewards, mode)
            advantages.append(out.advantages)
            return out

        monkeypatch.setattr(policy, "sample_groups", record_groups)
        monkeypatch.setattr(tr, "group_advantages", record_advantages)
        report = trainer.train_step()

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
        assert norm > config.grad_clip
        step = config.learning_rate * config.grad_clip / norm
        for name, block in policy.param_blocks().items():
            change = block - before.param_blocks()[name]
            assert np.max(np.abs(change + step * getattr(loss_grad, name))) <= 1e-12, name


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
        assert tr.enigma_loss(1.5, 9.9, 0.0, 7.7, config, 0) == pytest.approx(1.5)
        # past warmup: sami at full weight
        assert tr.enigma_loss(1.0, 2.0, 0.0, 0.0, config, 50) == pytest.approx(1.1)
        # ot switches on exactly at ot_warmup
        assert tr.enigma_loss(0.0, 0.0, 0.0, 0.5, config, 199) == 0.0
        assert tr.enigma_loss(0.0, 0.0, 0.0, 0.5, config, 200) == pytest.approx(0.5)


class TestAblationPresets:
    def test_grpo_cot_disables_everything(self):
        config = tr.TrainConfig().with_ablation("grpo_cot")
        assert config.sami_weight == 0.0
        assert config.ot_weight == 0.0
        assert config.channel_weight == 0.0
        assert config.jitter_sigma == 0.0

    def test_cot_plus_enables_jitter(self):
        config = tr.TrainConfig().with_ablation("grpo_cot_plus")
        assert config.jitter_sigma == 0.5
        assert config.channel_weight == 0.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            tr.TrainConfig().with_ablation("unknown")


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
                        + rep.loss_shaping + rep.loss_ot)
            assert rep.loss_total == pytest.approx(expected, abs=1e-9)

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
        t.config = t.config.with_ablation("grpo_cot")
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
        t.config = t.config.with_ablation("grpo_cot_plus")
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
        policy, reference, meta = tr.load_checkpoint(path)
        assert policy.param_hash() == saved_hash == t.policy.param_hash()
        assert reference.param_hash() == t.reference.param_hash()
        assert meta["config_hash"] == "abc"
        assert meta["step"] == 1

    def test_corruption_detected(self, tmp_path):
        t = small_trainer(seed=11)
        path = tmp_path / "ckpt.npz"
        t.save_checkpoint(path)
        data = dict(np.load(path, allow_pickle=False))
        data["embed"] = data["embed"] + 1.0
        np.savez(path, **data)
        with pytest.raises(ValidationError):
            tr.load_checkpoint(path)


def step_inputs(t, step=0):
    """What train_step scores: contexts, the table's (C, B) scores, completions."""
    items = t._batch_items(step)
    contexts, own = t._contexts(items)
    table = t.policy.table(contexts)
    sampled = t.policy.sample_groups(
        table, own, t.config.group_size,
        [tr.derive_rng(t.seed, step, tr._CH_SAMPLE, g) for g in range(len(items))])
    comps = [c for group in sampled for c in group]
    groups = np.repeat(np.arange(len(items)), t.config.group_size)
    counts = transition_counts([c.tokens for c in comps], t.policy.vocab.size)
    lengths = np.maximum(1, counts.sum(axis=(1, 2)))
    return items, own, table.seq_logprobs(counts), comps, groups, lengths


def mean_logprob(t, prompt, pid, comp):
    tokens = t.task.principle(pid).tokens
    return float(np.sum(t.policy.token_logprobs(prompt, tokens, comp.tokens))) / comp.length


class TestGatherScorers:
    """Each gather over the step's table equals its per-sequence definition."""

    def test_row_scores(self):
        t = small_trainer(seed=12)
        items, own, scores, comps, groups, lengths = step_inputs(t)
        got = t._row_candidate_scores(items, scores, groups, lengths, 0)
        rng = tr.derive_rng(t.seed, 0, tr._CH_SHADOW_P)
        pool = [p.pid for p in t.task.principles]
        for b, comp in enumerate(comps):
            item = items[groups[b]]
            draw = mi.draw_shadows(pool, item.principle_id, t.config.shadow_k, rng)
            expected = [mean_logprob(t, item.prompt, pid, comp)
                        for pid in (item.principle_id, *draw.shadow_ids)]
            assert np.max(np.abs(got[b] - expected)) <= 1e-12

    def test_column_scores(self):
        t = small_trainer(seed=13)
        items, own, scores, comps, groups, lengths = step_inputs(t)
        got = t._col_candidate_scores(scores[own], groups, lengths, 0)
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
        items, own, scores, comps, groups, lengths = step_inputs(t)
        kept = np.array([i for i, c in enumerate(comps) if not c.truncated])
        assert kept.size >= 2
        got = tr._sami_matrix(scores[own], groups, kept, lengths).scores
        for i, row in enumerate(kept):
            for j, col in enumerate(kept):
                item = items[groups[col]]
                expected = mean_logprob(t, item.prompt, item.principle_id, comps[row])
                assert abs(got[i, j] - expected) <= 1e-12


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
