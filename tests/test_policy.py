"""Toy policy: gradients vs finite differences, sampling, format, task plumbing."""
import math

import numpy as np
import pytest

from geoloop.errors import ValidationError
from geoloop import policy as pol


def randomised_policy(seed, dim=8, max_len=pol.DEFAULT_MAX_LEN):
    p = pol.ToyPolicy(pol.Vocab(), dim=dim, max_len=max_len)
    rng = np.random.default_rng(seed)
    p.embed = rng.normal(0, 0.3, p.embed.shape)
    p.out = rng.normal(0, 0.3, p.out.shape)
    p.ctx_scale = rng.normal(1, 0.2, p.ctx_scale.shape)
    p.prev_scale = rng.normal(1, 0.2, p.prev_scale.shape)
    return p


def finite_difference_max_rel_err(p, prompt, principle, completion, h=1e-6):
    grad = p.grad_seq_logprob(prompt, principle, completion)

    def seq_lp():
        return float(np.sum(p.token_logprobs(prompt, principle, completion)))

    worst = 0.0
    pairs = [(p.embed, grad.embed), (p.out, grad.out),
             (p.ctx_scale, grad.ctx_scale), (p.prev_scale, grad.prev_scale)]
    for arr, g in pairs:
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            original = arr[idx]
            arr[idx] = original + h
            up = seq_lp()
            arr[idx] = original - h
            dn = seq_lp()
            arr[idx] = original
            fd = (up - dn) / (2 * h)
            worst = max(worst, abs(g[idx] - fd) / max(abs(fd), 1e-6))
    return worst


def explicit_token_logprobs(p, prompt, principle, completion):
    """Per-token log-probabilities straight from the architecture's formulas."""
    ctx_tokens = list(prompt) + list(principle)
    ctx = p.embed[ctx_tokens].mean(axis=0) if ctx_tokens else np.zeros(p.dim)
    out = []
    for t, tok in enumerate(completion):
        h = p.ctx_scale * ctx
        if t:
            h = h + p.prev_scale * p.embed[completion[t - 1]]
        logits = h @ p.out
        out.append(logits[tok] - np.log(np.sum(np.exp(logits))))
    return np.array(out)


def reference_decode_one(logits, history, rng):
    """One token the way the per-row sampler drew it (one rng.choice per token)."""
    logits = logits.astype(float).copy()
    if history:
        seen = np.unique(np.asarray(history, dtype=int))
        pos = logits[seen] > 0
        logits[seen[pos]] /= pol.REPETITION_PENALTY
        logits[seen[~pos]] *= pol.REPETITION_PENALTY
    probs = np.exp(logits - np.max(logits))
    probs /= probs.sum()
    order = np.argsort(-probs, kind="stable")
    cum = np.cumsum(probs[order])
    keep = cum - probs[order] < pol.TOP_P
    keep[0] = True
    kept = order[keep]
    probs = np.zeros_like(probs)
    probs[kept] = np.exp(logits[kept] - np.max(logits[kept]))
    probs /= probs.sum()
    return int(rng.choice(probs.size, p=probs))


def reference_sample_group(p, prompt, principle, group_size, seed):
    """The per-row decode loop: members in turn at each position, one stream."""
    rng = np.random.default_rng(seed)
    ctx_tokens = list(prompt) + list(principle)
    ctx = p.embed[ctx_tokens].mean(axis=0) if ctx_tokens else np.zeros(p.dim)
    base_h = p.ctx_scale * ctx
    seqs = [[] for _ in range(group_size)]
    ents = [[] for _ in range(group_size)]
    done = [False] * group_size
    for _ in range(p.max_len):
        for i in range(group_size):
            if done[i]:
                continue
            h = base_h if not seqs[i] else base_h + p.prev_scale * p.embed[seqs[i][-1]]
            logits = h @ p.out
            log_sm = logits - np.log(np.sum(np.exp(logits - logits.max()))) - logits.max()
            ents[i].append(float(-np.sum(np.exp(log_sm) * log_sm)))
            token = reference_decode_one(logits, seqs[i], rng)
            seqs[i].append(token)
            done[i] = token == p.vocab.eos
    return [(tuple(seqs[i]), np.array(ents[i]), not done[i]) for i in range(group_size)]


class TestVocab:
    def test_reserved_tokens_distinct(self):
        v = pol.Vocab()
        assert len(set(v.reserved)) == 5
        assert set(v.fillers).isdisjoint(v.reserved)

    def test_minimum_size(self):
        with pytest.raises(ValidationError):
            pol.Vocab(7)

    def test_filler_split_covers_pool(self):
        v = pol.Vocab()
        assert set(v.reasoning_fillers) | set(v.answer_fillers) == set(v.fillers)
        assert set(v.reasoning_fillers).isdisjoint(v.answer_fillers)


class TestFormatReward:
    def test_valid_template(self):
        v = pol.Vocab()
        toks = (v.r_open, 0, 1, v.r_close, v.a_open, 6, v.a_close)
        assert pol.toy_format_reward(toks, v) == 1.0

    def test_empty_sections_valid(self):
        v = pol.Vocab()
        toks = (v.r_open, v.r_close, v.a_open, v.a_close)
        assert pol.toy_format_reward(toks, v) == 1.0

    def test_missing_tag(self):
        v = pol.Vocab()
        assert pol.toy_format_reward((v.r_open, 0, v.r_close, v.a_open, 6), v) == 0.0

    def test_duplicate_tag(self):
        v = pol.Vocab()
        toks = (v.r_open, v.r_open, v.r_close, v.a_open, v.a_close)
        assert pol.toy_format_reward(toks, v) == 0.0

    def test_trailing_token(self):
        v = pol.Vocab()
        toks = (v.r_open, v.r_close, v.a_open, v.a_close, 0)
        assert pol.toy_format_reward(toks, v) == 0.0

    def test_fuzz_never_raises(self):
        v = pol.Vocab()
        rng = np.random.default_rng(0)
        for _ in range(500):
            toks = tuple(rng.integers(0, v.size, rng.integers(0, 13)))
            assert pol.toy_format_reward(toks, v) in (0.0, 1.0)


class TestLogprobs:
    def test_zero_params_uniform(self):
        p = pol.ToyPolicy(pol.Vocab(), dim=8)
        lp = p.token_logprobs((1, 2), (0, 6), (11, 3, 12))
        assert lp == pytest.approx([-math.log(16)] * 3)

    def test_per_step_distribution_normalised(self):
        p = randomised_policy(1)
        dist = p.next_token_distribution((1, 2, 3), (0, 6), prev=4)
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(dist >= 0)

    def test_raw_sum_score_is_logprob_sum(self):
        p = randomised_policy(2)
        comp = (11, 2, 12, 13, 7, 14, 15)
        lp = p.token_logprobs((1,), (0, 6), comp)
        sums, _ = p.sequence_logprobs_batch((1,), (0, 6), [comp])
        assert sums[0] == pytest.approx(float(lp.sum()))

    def test_out_of_vocab_rejected(self):
        p = pol.ToyPolicy(pol.Vocab(), dim=8)
        with pytest.raises(ValidationError):
            p.token_logprobs((1,), (), (99,))


class TestGradients:
    def test_zero_length_completion(self):
        p = randomised_policy(3)
        grad = p.grad_seq_logprob((1, 2), (0,), ())
        assert grad.global_norm() == 0.0

    def test_finite_difference_random_instances(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for trial in range(10):
            p = randomised_policy(100 + trial, dim=6)
            prompt = tuple(rng.integers(0, 11, 3))
            principle = tuple(rng.integers(0, 11, 2))
            completion = tuple(rng.integers(0, 16, rng.integers(1, 8)))
            worst = max(worst, finite_difference_max_rel_err(
                p, prompt, principle, completion))
        assert worst <= 1e-4

    def test_identical_completions_identical_gradients(self):
        p = randomised_policy(4)
        comp = (11, 2, 12, 13, 7, 14)
        g1 = p.grad_seq_logprob((1,), (0, 6), comp)
        g2 = p.grad_seq_logprob((1,), (0, 6), comp)
        assert np.array_equal(g1.embed, g2.embed)
        assert np.array_equal(g1.out, g2.out)

    def test_weighted_batch_matches_sum_of_singles(self):
        p = randomised_policy(5)
        comps = [(11, 2, 12, 13, 7, 14), (11, 12, 13, 14, 15), (11, 3, 3, 12, 13, 8, 14)]
        coeffs = [0.5, -1.5, 2.0]
        batch = p.weighted_grad_batch((1, 2), (0, 6), comps, coeffs)
        manual = pol.ParamGrad.zeros(p.vocab.size, p.dim)
        for comp, c in zip(comps, coeffs):
            manual.add(p.grad_seq_logprob((1, 2), (0, 6), comp), c)
        assert batch.embed == pytest.approx(manual.embed, abs=1e-12)
        assert batch.out == pytest.approx(manual.out, abs=1e-12)
        assert batch.ctx_scale == pytest.approx(manual.ctx_scale, abs=1e-12)
        assert batch.prev_scale == pytest.approx(manual.prev_scale, abs=1e-12)


class TestHiddenSummary:
    def test_unit_norm(self):
        p = randomised_policy(6)
        summary = p.hidden_summary((1, 2), (0, 6), (11, 3, 12, 13, 7, 14))
        assert np.linalg.norm(summary) == pytest.approx(1.0, abs=1e-9)

    def test_single_token_is_normalised_feature(self):
        p = randomised_policy(7)
        ctx = p.embed[[1, 2, 0, 6]].mean(axis=0)
        feat = p.ctx_scale * ctx
        expected = feat / np.linalg.norm(feat)
        summary = p.hidden_summary((1, 2), (0, 6), (11,))
        assert summary == pytest.approx(expected, abs=1e-12)

    def test_empty_completion_rejected(self):
        p = randomised_policy(8)
        with pytest.raises(ValidationError):
            p.hidden_summary((1,), (0,), ())

    def test_reference_summary_diverges_after_update(self):
        p = randomised_policy(9)
        ref = p.clone()
        comp = (11, 2, 12, 13, 7, 14)
        before = p.hidden_summary((1,), (0, 6), comp)
        grad = p.grad_seq_logprob((1,), (0, 6), comp)
        p.add_scaled(grad, 0.5)
        after = p.hidden_summary((1,), (0, 6), comp)
        ref_summary = ref.hidden_summary((1,), (0, 6), comp)
        assert np.allclose(ref_summary, before)
        assert not np.allclose(after, before)


class TestSampling:
    def test_seed_determinism(self):
        p = randomised_policy(11)
        g1 = p.sample_group((1, 2), (0, 6), 4, np.random.default_rng(99))
        g2 = p.sample_group((1, 2), (0, 6), 4, np.random.default_rng(99))
        assert [c.tokens for c in g1] == [c.tokens for c in g2]

    def test_group_size_minimum(self):
        p = randomised_policy(13)
        with pytest.raises(ValidationError):
            p.sample_group((1,), (0,), 1, np.random.default_rng(0))

    def test_max_len_minimum(self):
        with pytest.raises(ValidationError):
            pol.ToyPolicy(pol.Vocab(), dim=8, max_len=0)

    def test_length_cap(self):
        p = randomised_policy(14)
        group = p.sample_group((1,), (0,), 4, np.random.default_rng(1))
        for c in group:
            assert c.length <= p.max_len
            if not c.truncated:
                assert c.tokens[-1] == p.vocab.eos
                assert c.content == c.tokens[:-1]


CONTEXTS = [((1, 2), (0, 6)), ((3,), (9, 4, 4)), ((), ())]
COMPLETIONS = [(11, 2, 12, 13, 7, 14, 15), (11, 12, 13, 14), (3, 3, 3), (15,),
               (11, 3, 12, 13, 8, 14, 15)]


def assert_grads_close(a, b, tol):
    for name in ("embed", "out", "ctx_scale", "prev_scale"):
        assert np.max(np.abs(getattr(a, name) - getattr(b, name))) <= tol, name


class TestTableKernel:
    def test_token_logprobs_match_formula(self):
        p = randomised_policy(20)
        for ctx in CONTEXTS:
            for comp in COMPLETIONS:
                assert p.token_logprobs(*ctx, comp) == pytest.approx(
                    explicit_token_logprobs(p, *ctx, comp), abs=1e-12)

    def test_sequence_scores_are_gathers(self):
        p = randomised_policy(21)
        scores = p.table(CONTEXTS).seq_logprobs(pol.transition_counts(COMPLETIONS, 16))
        expected = np.array([[np.sum(p.token_logprobs(*ctx, comp)) for comp in COMPLETIONS]
                             for ctx in CONTEXTS])
        assert np.max(np.abs(scores - expected)) <= 1e-12
        for c, ctx in enumerate(CONTEXTS):
            sums, lengths = p.sequence_logprobs_batch(*ctx, COMPLETIONS)
            assert np.max(np.abs(sums - expected[c])) <= 1e-12
            assert list(lengths) == [len(comp) for comp in COMPLETIONS]
        for b, comp in enumerate(COMPLETIONS):
            multi = p.multi_context_logprob(CONTEXTS, comp)
            assert np.max(np.abs(multi - expected[:, b])) <= 1e-12

    def test_next_token_distribution_is_a_table_row(self):
        p = randomised_policy(22)
        for ctx in CONTEXTS:
            first = [math.exp(p.token_logprobs(*ctx, (v,))[0]) for v in range(16)]
            assert p.next_token_distribution(*ctx) == pytest.approx(first, abs=1e-12)
            for prev in (0, 7, 15):
                after = [math.exp(p.token_logprobs(*ctx, (prev, v))[1]) for v in range(16)]
                assert p.next_token_distribution(*ctx, prev=prev) == pytest.approx(
                    after, abs=1e-12)

    def test_backward_matches_sum_of_sequence_gradients(self):
        p = randomised_policy(23)
        weights = np.random.default_rng(0).normal(size=(len(CONTEXTS), len(COMPLETIONS)))
        counts = pol.transition_counts(COMPLETIONS, 16)
        grad = p.backward(p.table(CONTEXTS), np.tensordot(weights, counts, axes=1))
        manual = pol.ParamGrad.zeros(p.vocab.size, p.dim)
        for c, ctx in enumerate(CONTEXTS):
            for b, comp in enumerate(COMPLETIONS):
                manual.add(p.grad_seq_logprob(*ctx, comp), weights[c, b])
        assert_grads_close(grad, manual, 1e-12)

    def test_feature_gradient_matches_summary_gradients(self):
        p = randomised_policy(24)
        ctx_idx = [0, 1, 1, 2, 0]
        summary_grad = np.random.default_rng(1).normal(size=(len(COMPLETIONS), p.dim))
        table = p.table(CONTEXTS)
        counts = pol.transition_counts(COMPLETIONS, 16)
        units, _ = table.summaries(ctx_idx, counts)
        grad = p.backward(table, np.zeros_like(table.logp),
                          table.summary_feat_grad(ctx_idx, counts, summary_grad))
        manual = pol.ParamGrad.zeros(p.vocab.size, p.dim)
        for b, (c, comp) in enumerate(zip(ctx_idx, COMPLETIONS)):
            assert units[b] == pytest.approx(p.hidden_summary(*CONTEXTS[c], comp), abs=1e-12)
            manual.add(p.hidden_summary_grad(*CONTEXTS[c], comp, summary_grad[b]))
        assert_grads_close(grad, manual, 1e-12)

    def test_summary_gradient_finite_difference(self):
        p = randomised_policy(25, dim=6)
        g = np.random.default_rng(2).normal(size=p.dim)
        comp = COMPLETIONS[0]
        grad = p.hidden_summary_grad(*CONTEXTS[1], comp, g)
        h = 1e-6
        for arr, block in [(p.embed, grad.embed), (p.out, grad.out),
                           (p.ctx_scale, grad.ctx_scale), (p.prev_scale, grad.prev_scale)]:
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                original = arr[idx]
                arr[idx] = original + h
                up = g @ p.hidden_summary(*CONTEXTS[1], comp)
                arr[idx] = original - h
                dn = g @ p.hidden_summary(*CONTEXTS[1], comp)
                arr[idx] = original
                assert block[idx] == pytest.approx((up - dn) / (2 * h), abs=1e-7)

    def test_batched_mle_epoch_matches_per_triple_sum(self):
        task = pol.make_toy_task(seed=3)
        triples = pol.format_pretrain_items(task, seed=3)
        p = pol.ToyPolicy(task.vocab)
        p.init_params(3)
        q = p.clone()
        pol.mle_pretrain(p, triples, 1, 0.5)
        total = pol.ParamGrad.zeros(q.vocab.size, q.dim)
        for prompt, principle, gold in triples:
            total.add(q.grad_seq_logprob(prompt, principle, gold))
        q.add_scaled(total, 0.5 / len(triples))
        for name, block in p.param_blocks().items():
            assert np.max(np.abs(block - q.param_blocks()[name])) <= 1e-12, name

    @pytest.mark.parametrize("call", [
        lambda p: pol.transition_counts([(11,), (11, 16)], 16),
        lambda p: pol.transition_counts([(11, -1)], 16),
        lambda p: p.bag([((1, 2), ()), ((1, 99), ())]),
        lambda p: p.table([((1, 2), ()), ((1, 99), ())]),
        lambda p: p.sequence_logprobs_batch((1,), (0,), [(11,), (11, 99)]),
        lambda p: p.multi_context_logprob([((1,), (0,))], (11, 99)),
        lambda p: p.multi_context_logprob([((1,), (0,)), ((1,), (99,))], (11,)),
        lambda p: p.weighted_grad_batch((1,), (0,), [(11,), (99,)], [1.0, 1.0]),
        lambda p: p.hidden_summary((1,), (0,), (11, 99)),
        lambda p: p.hidden_summary_grad((1,), (0,), (11, 99), np.ones(p.dim)),
        lambda p: p.next_token_distribution((1,), (0,), prev=16),
        lambda p: p.sample_group((1, 99), (0,), 4, 0),
        lambda p: pol.mle_pretrain(p, [((1,), (0,), (11,)), ((1,), (0,), (11, 99))], 1, 0.1),
    ], ids=["counts", "counts-negative", "bag", "table", "sequence_logprobs_batch",
            "multi_context_completion", "multi_context_context", "weighted_grad_batch",
            "hidden_summary", "hidden_summary_grad", "next_token_prev", "sample_group",
            "mle_pretrain"])
    def test_out_of_vocab_rejected(self, call):
        with pytest.raises(ValidationError):
            call(randomised_policy(26))


class TestBatchedSampler:
    @staticmethod
    def assert_matches_reference(p):
        table = p.table(CONTEXTS)
        for seed in range(4):
            seeds = [100 * seed + g for g in range(len(CONTEXTS))]
            groups = p.sample_groups(table, range(len(CONTEXTS)), 4, seeds)
            for ctx, group, s in zip(CONTEXTS, groups, seeds):
                for comp, (tokens, ents, truncated) in zip(
                        group, reference_sample_group(p, *ctx, 4, s)):
                    assert comp.tokens == tokens
                    assert comp.truncated == truncated
                    assert np.max(np.abs(comp.entropies - ents)) <= 1e-12

    def test_matches_per_row_decode_at_run_settings(self):
        # Sharper than randomised_policy's near-uniform logits, so EOS, the
        # penalty and the nucleus truncation all matter.
        p = randomised_policy(30)
        p.out *= 6.0
        self.assert_matches_reference(p)

    @pytest.mark.parametrize("logit_scale", [0.0, 0.7, 1.0])
    @pytest.mark.parametrize("max_len", [5, 16])
    @pytest.mark.parametrize("top_p", [0.9, 1.0])
    @pytest.mark.parametrize("penalty", [1.0, 1.3])
    def test_matches_per_row_decode(self, monkeypatch, logit_scale, max_len,
                                    top_p, penalty):
        # The sampler reads the decode constants at call time, so other
        # nucleus masses and penalties, the uniform policy (scale 0), and
        # short and long caps check the same code against the reference.
        monkeypatch.setattr(pol, "TOP_P", top_p)
        monkeypatch.setattr(pol, "REPETITION_PENALTY", penalty)
        p = randomised_policy(30, max_len=max_len)
        p.out *= 6.0 * logit_scale
        self.assert_matches_reference(p)


class TestReference:
    def test_immutable_snapshot(self):
        p = randomised_policy(15)
        ref = p.clone()
        h0 = ref.param_hash()
        for _ in range(5):
            grad = p.grad_seq_logprob((1,), (0, 6), (11, 2, 12, 13, 7, 14))
            p.add_scaled(grad, 0.1)
        assert ref.param_hash() == h0
        assert p.param_hash() != h0

    def test_probe_identity_at_snapshot(self):
        from geoloop.prob_metrics import probe_report
        p = randomised_policy(16)
        ref = p.clone()
        a = p.next_token_distribution((1, 2), (0, 6))
        b = ref.next_token_distribution((1, 2), (0, 6))
        rec = probe_report(a, b)
        assert rec["fr_distance"] == pytest.approx(0.0, abs=1e-9)


class TestTask:
    def test_golds_are_format_valid(self):
        task = pol.make_toy_task(seed=0)
        for item in task.items:
            assert item.gold[-1] == task.vocab.eos
            assert pol.toy_format_reward(item.gold[:-1], task.vocab) == 1.0

    def test_exactly_one_principle_per_item(self):
        task = pol.make_toy_task(seed=1)
        for item in task.items:
            task.principle(item.principle_id)  # raises KeyError if unknown

    def test_principle_tokens_disjoint_from_gold_pools(self):
        task = pol.make_toy_task(seed=2)
        used = set()
        for p in task.principles:
            used.update(p.tokens)
        assert used.isdisjoint(task.gold_r_pool)
        assert used.isdisjoint(task.gold_a_pool)
        for item in task.items:
            assert used.isdisjoint(item.prompt)

    def test_patterns_must_be_fillers(self):
        v = pol.Vocab()
        with pytest.raises(ValidationError):
            pol.principles_from_patterns(v, [("a", (v.eos,)), ("b", (0,))])


class TestWarmStart:
    def test_format_competence(self):
        task = pol.make_toy_task(seed=4)
        p = pol.ToyPolicy(pol.Vocab())
        p.init_params(4)
        pol.warm_start(p, task, 120, 0.5, seed=4)
        ok = total = 0
        for gi, item in enumerate(task.items[:8]):
            ptoks = task.principle(item.principle_id).tokens
            group = p.sample_group(item.prompt, ptoks, 4, np.random.default_rng(gi))
            for c in group:
                total += 1
                ok += (not c.truncated) and pol.toy_format_reward(c.content, p.vocab) == 1.0
        assert ok / total > 0.7

    def test_deterministic(self):
        task = pol.make_toy_task(seed=5)
        p1 = pol.ToyPolicy(pol.Vocab())
        p1.init_params(5)
        pol.warm_start(p1, task, 30, 0.5, seed=5)
        p2 = pol.ToyPolicy(pol.Vocab())
        p2.init_params(5)
        pol.warm_start(p2, task, 30, 0.5, seed=5)
        assert p1.param_hash() == p2.param_hash()


def reference_mle_epochs(p, epoch_triples, lr):
    """One ascent step per epoch, each through its own table(contexts)."""
    for triples in epoch_triples:
        contexts = [(prompt, principle) for prompt, principle, _ in triples]
        counts = pol.transition_counts([gold for _, _, gold in triples], p.vocab.size)
        p.add_scaled(p.backward(p.table(contexts), counts), lr / len(triples))


@pytest.fixture
def token_checks(monkeypatch):
    """Counts ToyPolicy._check_tokens calls; bagging checks each context once."""
    calls = []
    check = pol.ToyPolicy._check_tokens

    def spy(self, tokens):
        calls.append(tuple(tokens))
        return check(self, tokens)

    monkeypatch.setattr(pol.ToyPolicy, "_check_tokens", spy)
    return calls


class TestMleEpochs:
    def test_warm_start_matches_per_epoch_tables(self, token_checks):
        task = pol.make_toy_task(seed=6)
        p = pol.ToyPolicy(task.vocab)
        p.init_params(6)
        q = p.clone()
        pol.warm_start(p, task, 25, 0.5, seed=6, bias=0.15)
        assert len(token_checks) == len(task.items)
        reference_mle_epochs(q, [pol.format_pretrain_items(task, seed=(6, e), bias=0.15)
                                 for e in range(25)], 0.5)
        assert p.param_hash() == q.param_hash()

    def test_mle_pretrain_matches_per_epoch_tables(self, token_checks):
        task = pol.make_toy_task(seed=7)
        triples = pol.gold_items(task)
        p = pol.ToyPolicy(task.vocab)
        p.init_params(7)
        q = p.clone()
        pol.mle_pretrain(p, triples, 25, 0.5)
        assert len(token_checks) == len(triples)
        reference_mle_epochs(q, [triples] * 25, 0.5)
        assert p.param_hash() == q.param_hash()
