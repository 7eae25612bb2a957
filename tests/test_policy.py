"""Toy policy: gradients vs finite differences, sampling, format, task plumbing."""
import itertools
import math
import re
import tracemalloc
import warnings
from dataclasses import dataclass, fields

import numpy as np
import pytest

from geoloop.errors import ValidationError
from geoloop import cli
from geoloop import constitution as consti
from geoloop import policy as pol
from geoloop import rewards
from geoloop import task as tk
from test_draws import reference_format_pretrain_items


def randomised_policy(seed, dim=8, max_len=pol.DEFAULT_MAX_LEN):
    p = pol.ToyPolicy(tk.Vocab(), dim=dim, max_len=max_len)
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


def reference_decode_along_axis(logits, uniforms):
    """policy._decode with the ranking gathered and scattered through
    np.take_along_axis and np.put_along_axis."""
    mass = np.exp(logits - np.max(logits, axis=1, keepdims=True))
    probs = mass / mass.sum(axis=1, keepdims=True)
    order = np.argsort(-probs, axis=1, kind="stable")
    ranked = np.take_along_axis(probs, order, axis=1)
    keep_ranked = np.cumsum(ranked, axis=1) - ranked < pol.TOP_P
    keep_ranked[:, 0] = True
    keep = np.zeros_like(keep_ranked)
    np.put_along_axis(keep, order, keep_ranked, axis=1)
    mass = np.where(keep, mass, 0.0)
    probs = mass / mass.sum(axis=1, keepdims=True)
    cdf = np.cumsum(probs, axis=1)
    cdf /= cdf[:, -1:]
    return np.sum(cdf <= uniforms[:, None], axis=1)


def reference_count_transitions(tok, lengths, vocab_size):
    """policy._count_transitions accumulating each real position's
    (row, table row, token) with np.add.at."""
    mask = np.arange(tok.shape[1]) < lengths[:, None]
    counts = np.zeros((tok.shape[0], vocab_size + 1, vocab_size))
    batch = np.broadcast_to(np.arange(tok.shape[0])[:, None], tok.shape)
    np.add.at(counts, (batch[mask], pol._table_rows(tok)[mask], tok[mask]), 1.0)
    return counts


@dataclass(frozen=True)
class Completion:
    """One row of a Samples, the per-completion view its array methods are
    checked against."""

    tokens: tuple              # includes the trailing EOS unless truncated
    entropies: np.ndarray      # per-step entropy of the plain softmax (nats)
    truncated: bool

    @property
    def content(self) -> tuple:
        """Tokens with the trailing EOS (when present) stripped."""
        return self.tokens if self.truncated else self.tokens[:-1]

    @property
    def length(self) -> int:
        return len(self.tokens)

    @property
    def mean_entropy(self) -> float:
        return float(np.mean(self.entropies))


def completions(samples) -> list:
    """Row b of samples as a Completion of its first lengths[b] positions."""
    return [Completion(tuple(samples.tokens[b, :n].tolist()), samples.entropies[b, :n],
                       bool(samples.truncated[b])) for b, n in enumerate(samples.lengths)]


def reference_sample_group(p, prompt, principle, group_size, rng):
    """The per-row decode loop: members in turn at each position, one stream."""
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


def reserved(vocab: tk.Vocab) -> tuple:
    """The five structure tokens: the four tags and EOS."""
    return (vocab.r_open, vocab.r_close, vocab.a_open, vocab.a_close, vocab.eos)


def zero_grad(policy: pol.ToyPolicy) -> pol.ParamGrad:
    """A zero gradient with the policy's block shapes."""
    return pol.ParamGrad(**{name: np.zeros_like(block)
                            for name, block in policy.param_blocks().items()})


def add_grad(total: pol.ParamGrad, grad: pol.ParamGrad, scale: float = 1.0) -> None:
    """total += scale * grad, block by block."""
    for name, block in vars(total).items():
        block += scale * getattr(grad, name)


class TestVocab:
    def test_reserved_tokens_distinct(self):
        v = tk.Vocab()
        assert len(set(reserved(v))) == 5
        assert set(v.fillers).isdisjoint(reserved(v))

    def test_minimum_size(self):
        with pytest.raises(ValidationError):
            tk.Vocab(7)

    def test_filler_split_covers_pool(self):
        v = tk.Vocab()
        assert set(v.reasoning_fillers) | set(v.answer_fillers) == set(v.fillers)
        assert set(v.reasoning_fillers).isdisjoint(v.answer_fillers)


def reference_format_reward(content_tokens, vocab) -> float:
    """The strict tag reward of one completion's content, one token at a time:
    1.0 iff exactly one R_OPEN..R_CLOSE A_OPEN..A_CLOSE template with nothing
    outside.  The reference for rewards.format_ok and its one-row view
    pol.toy_format_reward."""
    toks = tuple(int(t) for t in content_tokens)
    if not toks or vocab.eos in toks:
        return 0.0
    tags = (vocab.r_open, vocab.r_close, vocab.a_open, vocab.a_close)
    if any(toks.count(tag) != 1 for tag in tags):
        return 0.0
    ro, rc = toks.index(vocab.r_open), toks.index(vocab.r_close)
    ao, ac = toks.index(vocab.a_open), toks.index(vocab.a_close)
    # With exactly one of each tag and no EOS, pinning the tag positions
    # leaves only fillers between them.
    if ro == 0 and ro < rc and ao == rc + 1 and ao < ac and ac == len(toks) - 1:
        return 1.0
    return 0.0


class TestFormatReward:
    def test_equals_the_reference_on_every_short_sequence(self):
        # Every content of up to 5 tokens over two fillers, the four tags and EOS.
        v = tk.Vocab()
        alphabet = (0, 6, v.r_open, v.r_close, v.a_open, v.a_close, v.eos)
        for n in range(6):
            for toks in itertools.product(alphabet, repeat=n):
                assert pol.toy_format_reward(toks, v) == reference_format_reward(toks, v)

    def test_valid_template(self):
        v = tk.Vocab()
        toks = (v.r_open, 0, 1, v.r_close, v.a_open, 6, v.a_close)
        assert pol.toy_format_reward(toks, v) == 1.0

    def test_empty_sections_valid(self):
        v = tk.Vocab()
        toks = (v.r_open, v.r_close, v.a_open, v.a_close)
        assert pol.toy_format_reward(toks, v) == 1.0

    def test_missing_tag(self):
        v = tk.Vocab()
        assert pol.toy_format_reward((v.r_open, 0, v.r_close, v.a_open, 6), v) == 0.0

    def test_duplicate_tag(self):
        v = tk.Vocab()
        toks = (v.r_open, v.r_open, v.r_close, v.a_open, v.a_close)
        assert pol.toy_format_reward(toks, v) == 0.0

    def test_trailing_token(self):
        v = tk.Vocab()
        toks = (v.r_open, v.r_close, v.a_open, v.a_close, 0)
        assert pol.toy_format_reward(toks, v) == 0.0

    def test_fuzz_never_raises(self):
        v = tk.Vocab()
        rng = np.random.default_rng(0)
        for _ in range(500):
            toks = tuple(rng.integers(0, v.size, rng.integers(0, 13)))
            assert pol.toy_format_reward(toks, v) in (0.0, 1.0)


def random_samples(seed, n=400, max_len=12):
    """Padded rows of near-template completions: tags, a few fillers and
    EOS, an untruncated row ending in EOS; half of them templates, some with
    a token replaced or two neighbours swapped."""
    v = tk.Vocab()
    rng = np.random.default_rng(seed)
    tokens = np.zeros((n, max_len), dtype=int)
    lengths = rng.integers(1, max_len + 1, n)
    truncated = (lengths == max_len) & (rng.random(n) < 0.5)
    pool = np.array([*reserved(v), 0, 3, 6, 9])
    for b in range(n):
        row = rng.choice(pool, size=lengths[b])
        content = lengths[b] - 1
        if rng.random() < 0.5 and content >= 4:
            r = rng.integers(0, content - 3)
            row[:content] = rng.choice(v.fillers, size=content)
            row[[0, 1 + r, 2 + r, content - 1]] = [v.r_open, v.r_close, v.a_open, v.a_close]
            if rng.random() < 0.3:
                row[rng.integers(0, content)] = rng.choice(pool)
            if rng.random() < 0.3:
                i = rng.integers(0, content - 1)
                row[[i, i + 1]] = row[[i + 1, i]]
        if not truncated[b]:
            row[-1] = v.eos
        tokens[b, :lengths[b]] = row
    entropies = rng.random((n, max_len)) * 3.0
    return pol.Samples(tokens, lengths, truncated, entropies)


class TestSamples:
    """Each array method, and rewards.format_ok of the arrays, equals its
    one-completion definition exactly."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_format_ok_is_the_format_reward(self, seed):
        v = tk.Vocab()
        samples = random_samples(seed)
        expected = [(not c.truncated) and reference_format_reward(c.content, v) == 1.0
                    for c in completions(samples)]
        assert 50 < sum(expected) < len(expected)
        ok = rewards.format_ok(samples.tokens, samples.lengths, samples.truncated, v)
        assert ok.tolist() == expected

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mean_entropies(self, seed):
        samples = random_samples(seed)
        expected = [c.mean_entropy for c in completions(samples)]
        assert samples.mean_entropies().tolist() == expected

    def test_counts(self):
        samples = random_samples(3)
        expected = pol.transition_counts([c.tokens for c in completions(samples)], 16)
        assert np.array_equal(samples.counts(16), expected)

    @pytest.mark.parametrize("seed", range(6))
    def test_counts_equal_the_add_at_reference(self, seed):
        # Empty, one-token and full rows, repeated transitions, and arbitrary
        # ids past each row's length, which no count may read.
        rng = np.random.default_rng(seed)
        b, m, v = int(rng.integers(1, 40)), int(rng.integers(1, 13)), int(rng.integers(8, 17))
        tok = rng.integers(0, rng.choice([2, v]), (b, m))
        lengths = rng.integers(0, m + 1, b)
        tok[np.arange(m) >= lengths[:, None]] = rng.integers(-5, 3 * v)
        got = pol._count_transitions(tok, lengths, v)
        want = reference_count_transitions(tok, lengths, v)
        assert got.dtype == want.dtype and np.array_equal(got, want)


class TestLogprobs:
    def test_zero_params_uniform(self):
        p = pol.ToyPolicy(tk.Vocab(), dim=8)
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
        p = pol.ToyPolicy(tk.Vocab(), dim=8)
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
        manual = zero_grad(p)
        for comp, c in zip(comps, coeffs):
            add_grad(manual, p.grad_seq_logprob((1, 2), (0, 6), comp), c)
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
        g1 = completions(p.sample_group((1, 2), (0, 6), 4, np.random.default_rng(99)))
        g2 = completions(p.sample_group((1, 2), (0, 6), 4, np.random.default_rng(99)))
        assert [c.tokens for c in g1] == [c.tokens for c in g2]

    def test_group_size_minimum(self):
        p = randomised_policy(13)
        with pytest.raises(ValidationError):
            p.sample_group((1,), (0,), 1, np.random.default_rng(0))

    def test_max_len_minimum(self):
        with pytest.raises(ValidationError):
            pol.ToyPolicy(tk.Vocab(), dim=8, max_len=0)

    def test_length_cap(self):
        p = randomised_policy(14)
        group = completions(p.sample_group((1,), (0,), 4, np.random.default_rng(1)))
        for c in group:
            assert c.length <= p.max_len
            if not c.truncated:
                assert c.tokens[-1] == p.vocab.eos
                assert c.content == c.tokens[:-1]


CONTEXTS = [((1, 2), (0, 6)), ((3,), (9, 4, 4)), ((), ())]
COMPLETIONS = [(11, 2, 12, 13, 7, 14, 15), (11, 12, 13, 14), (3, 3, 3), (15,),
               (11, 3, 12, 13, 8, 14, 15)]


def field_values(*instances) -> list:
    """The dataclass fields' values of each instance in turn; attributes
    cached on a table (its row views, its log-partitions) are not fields."""
    return [getattr(x, f.name) for x in instances for f in fields(x)]


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

    def test_bag_grid_is_bag(self):
        p = randomised_policy(27)
        prompts = [(1, 2), (), (3, 3, 9), (0,)]
        principles = [(0, 6), (9, 4, 4), (), (6,)]
        grid = p.bag_grid(prompts, principles)
        for i, prompt in enumerate(prompts):
            assert np.array_equal(grid[i], p.bag([(prompt, q) for q in principles]))

    def test_context_logprobs_are_one_completion_scores(self):
        p = randomised_policy(28)
        counts = pol.transition_counts(COMPLETIONS, 16)
        table = p.table(CONTEXTS * 2)
        comp_idx = [0, 4, 2, 3, 1, 0]
        got = table.context_logprobs(counts, comp_idx)
        for c, b in enumerate(comp_idx):
            assert got[c] == p.multi_context_logprob([(CONTEXTS * 2)[c]], COMPLETIONS[b])[0]

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
        grad = p.backward(p.table(CONTEXTS), pol.logit_sums(np.tensordot(weights, counts, axes=1)))
        manual = zero_grad(p)
        for c, ctx in enumerate(CONTEXTS):
            for b, comp in enumerate(COMPLETIONS):
                add_grad(manual, p.grad_seq_logprob(*ctx, comp), weights[c, b])
        assert_grads_close(grad, manual, 1e-12)

    def test_tables_and_gradients_held_by_callers_stay_as_returned(self):
        # Only a table or gradient passed as out is written over: a later
        # call on other parameters leaves the ones already returned as they
        # were, and a table written over reads its new log-partitions.
        p = randomised_policy(26)
        weights = p.bag(CONTEXTS)
        sums = pol.logit_sums(pol.transition_counts(COMPLETIONS[:3], 16))
        table = p.forward(weights)
        grad = p.backward(table, sums)
        lse = table.lse.copy()
        held = [block.copy() for block in field_values(table, grad)]
        p.add_scaled(grad, 0.5)
        p.backward(p.forward(weights), sums)
        assert all(np.array_equal(a, b) for a, b in zip(held, field_values(table, grad)))
        assert np.array_equal(table.lse, lse)
        again = p.forward(weights, out=table)
        assert again is table and np.array_equal(table.lse, p.forward(weights).lse)
        assert not np.array_equal(table.lse, lse)
        with pytest.raises(ValidationError, match="same weights"):
            p.forward(weights.copy(), out=table)

    def test_tables_and_gradients_written_over_equal_fresh_ones(self):
        # A warm-start loop writes each epoch's table and gradient over the
        # last epoch's, through the table's row views; after a parameter
        # update they hold the bits a fresh forward and backward return.
        p = randomised_policy(27)
        weights = p.bag(CONTEXTS)
        sums = pol.logit_sums(pol.transition_counts(COMPLETIONS[:3], 16))
        table = p.forward(weights)
        grad = p.backward(table, sums)
        assert table.lse.shape == (len(CONTEXTS), 17)
        for _ in range(3):
            p.add_scaled(grad, 0.5)
            assert p.forward(weights, out=table) is table
            assert p.backward(table, sums, out=grad) is grad
            fresh = p.forward(weights)
            fresh_grad = p.backward(fresh, sums)
            assert all(a.tobytes() == b.tobytes() for a, b in
                       zip(field_values(table, grad), field_values(fresh, fresh_grad)))
            assert table.lse.tobytes() == fresh.lse.tobytes()

    def test_logit_sums_of_counts_are_exact(self):
        # Integer counts sum exactly in any order, so a caller may take the
        # sums by any route, once, and get the bits backward reads.
        counts = pol.transition_counts(COMPLETIONS, 16)
        for got, want in zip(pol.logit_sums(counts),
                             (counts.sum(axis=2), counts.sum(axis=1), counts.sum(axis=0))):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_feature_gradient_matches_summary_gradients(self):
        p = randomised_policy(24)
        ctx_idx = [0, 1, 1, 2, 0]
        summary_grad = np.random.default_rng(1).normal(size=(len(COMPLETIONS), p.dim))
        table = p.table(CONTEXTS)
        counts = pol.transition_counts(COMPLETIONS, 16)
        summaries = table.summaries(ctx_idx, counts.sum(axis=2))
        units = summaries[0]
        grad = p.backward(table, pol.logit_sums(np.zeros_like(table.logp)),
                          table.summary_feat_grad(ctx_idx, counts.sum(axis=2), summaries,
                                                  summary_grad))
        manual = zero_grad(p)
        for b, (c, comp) in enumerate(zip(ctx_idx, COMPLETIONS)):
            assert units[b] == pytest.approx(p.hidden_summary(*CONTEXTS[c], comp), abs=1e-12)
            add_grad(manual, p.hidden_summary_grad(*CONTEXTS[c], comp, summary_grad[b]))
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
        task = tk.make_toy_task(seed=3)
        triples = reference_format_pretrain_items(task, seed=3)
        p = pol.ToyPolicy(task.vocab)
        p.init_params(3)
        q = p.clone()
        pol.mle_pretrain(p, triples, 1, 0.5)
        total = zero_grad(q)
        for prompt, principle, gold in triples:
            add_grad(total, q.grad_seq_logprob(prompt, principle, gold))
        q.add_scaled(total, 0.5 / len(triples))
        for name, block in p.param_blocks().items():
            assert np.max(np.abs(block - q.param_blocks()[name])) <= 1e-12, name

    @pytest.mark.parametrize("call", [
        lambda p: pol.transition_counts([(11,), (11, 16)], 16),
        lambda p: pol.transition_counts([(11, -1)], 16),
        lambda p: p.bag([((1, 2), ()), ((1, 99), ())]),
        lambda p: p.bag_grid([(1, 2)], [(), (99,)]),
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
    ], ids=["counts", "counts-negative", "bag", "bag_grid", "table", "sequence_logprobs_batch",
            "multi_context_completion", "multi_context_context", "weighted_grad_batch",
            "hidden_summary", "hidden_summary_grad", "next_token_prev", "sample_group",
            "mle_pretrain"])
    def test_out_of_vocab_rejected(self, call):
        with pytest.raises(ValidationError):
            call(randomised_policy(26))


def reference_logsumexp_rows(logits):
    peak = np.max(logits, axis=-1, keepdims=True)
    return peak + np.log(np.sum(np.exp(logits - peak), axis=-1, keepdims=True))


def reference_forward(p, weights):
    """(ctx, feats, logp) of the materialised kernel: (C, V+1, d) features
    and the (C, V+1, V) log-softmax of their logits."""
    ctx = weights @ p.embed
    prev = np.vstack([np.zeros(p.dim), p.prev_scale * p.embed])
    feats = (p.ctx_scale * ctx)[:, None, :] + prev[None, :, :]
    logits = feats @ p.out
    return ctx, feats, logits - reference_logsumexp_rows(logits)


def reference_backward(p, weights, coeffs, feat_grad=None):
    """Gradient of sum(coeffs * logp) + sum(feat_grad * feats) through the
    materialised (C, V+1, d) feature gradient."""
    ctx, feats, logp = reference_forward(p, weights)
    delta = coeffs - coeffs.sum(axis=2, keepdims=True) * np.exp(logp)
    grad_h = delta @ p.out.T
    if feat_grad is not None:
        grad_h = grad_h + feat_grad
    per_ctx = grad_h.sum(axis=1)
    per_prev = grad_h[:, 1:].sum(axis=0)
    return pol.ParamGrad(
        embed=p.prev_scale * per_prev + weights.T @ (p.ctx_scale * per_ctx),
        out=feats.reshape(-1, p.dim).T @ delta.reshape(-1, p.vocab.size),
        ctx_scale=np.sum(per_ctx * ctx, axis=0),
        prev_scale=np.sum(per_prev * p.embed, axis=0))


def reference_summaries(feats, ctx_idx, counts):
    """(unit, norm) of the count-weighted mean feature rows."""
    row_counts = counts.sum(axis=2)
    mean = np.einsum("br,brd->bd", row_counts, feats[ctx_idx]) / row_counts.sum(axis=1)[:, None]
    norm = np.linalg.norm(mean, axis=1)
    return mean / norm[:, None], norm


def reference_summary_feat_grad(feats, ctx_idx, counts, summary_grad):
    """(C, V+1, d) feature gradient of sum_b summary_grad[b] . summary_b."""
    unit, norm = reference_summaries(feats, ctx_idx, counts)
    radial = np.sum(unit * summary_grad, axis=1, keepdims=True)
    g_v = (summary_grad - unit * radial) / norm[:, None]
    row_counts = counts.sum(axis=2)
    share = row_counts / row_counts.sum(axis=1, keepdims=True)
    out = np.zeros(feats.shape)
    np.add.at(out, np.asarray(ctx_idx), share[:, :, None] * g_v[:, None, :])
    return out


def assert_rel_close(got, want, rel=1e-12, name=""):
    """max |got - want| <= rel * max |want|: relative to the array's scale,
    since a log-probability near 0 carries the absolute rounding of logits
    many nats larger."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, name
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want)), name


def assert_grads_rel_close(got, want, rel=1e-12):
    for name in ("embed", "out", "ctx_scale", "prev_scale"):
        assert_rel_close(getattr(got, name), getattr(want, name), rel, name)


def task_policy(scale):
    """A 32-context task and a dim-32 policy at the given init scale; scale 2
    gives logits of tens of nats."""
    task = tk.make_toy_task(seed=40)
    p = pol.ToyPolicy(task.vocab)
    p.init_params(40, scale=scale)
    return task, p


class TestFactoredKernel:
    """The outer-sum kernel against the materialised 3-D one."""

    @pytest.mark.parametrize("scale", [0.1, 2.0])
    def test_scores_and_summaries_match_reference(self, scale):
        task, p = task_policy(scale)
        triples = tk.gold_items(task)
        contexts = [(prompt, principle) for prompt, principle, _ in triples]
        golds = [gold for _, _, gold in triples]
        table = p.table(contexts)
        _, feats, logp = reference_forward(p, table.weights)
        assert_rel_close(table.logp, logp, name="logp")
        for c in (0, 7, 31):
            rows = pol._table_rows(np.array(golds[c]))
            assert_rel_close(p.token_logprobs(*contexts[c], golds[c]),
                             logp[c, rows, golds[c]], name="token_logprobs")
        counts = pol.transition_counts(golds, p.vocab.size)
        assert_rel_close(table.seq_logprobs(counts),
                         logp.reshape(len(contexts), -1) @ counts.reshape(len(golds), -1).T,
                         name="seq_logprobs")
        ctx_idx = np.arange(len(golds))[::-1]
        assert_rel_close(table.summaries(ctx_idx, counts.sum(axis=2))[0],
                         reference_summaries(feats, ctx_idx, counts)[0], name="summaries")
        chosen = [3, 3, 17, 0]
        assert_rel_close(table.entropies(chosen),
                         -np.sum(np.exp(logp[chosen]) * logp[chosen], axis=2),
                         name="entropies")

    @pytest.mark.parametrize("scale", [0.1, 2.0])
    def test_backward_matches_reference(self, scale):
        task, p = task_policy(scale)
        triples = tk.gold_items(task)
        table = p.table([(prompt, principle) for prompt, principle, _ in triples])
        counts = pol.transition_counts([gold for _, _, gold in triples], p.vocab.size)
        weights = np.random.default_rng(41).normal(size=(len(triples), len(triples)))
        coeffs = np.tensordot(weights, counts, axes=1)
        sums = pol.logit_sums(coeffs)
        assert_grads_rel_close(p.backward(table, sums),
                               reference_backward(p, table.weights, coeffs))
        _, feats, _ = reference_forward(p, table.weights)
        ctx_idx = np.random.default_rng(42).integers(0, len(triples), len(triples))
        summary_grad = np.random.default_rng(43).normal(size=(len(triples), p.dim))
        assert_grads_rel_close(
            p.backward(table, sums, table.summary_feat_grad(
                ctx_idx, counts.sum(axis=2), table.summaries(ctx_idx, counts.sum(axis=2)),
                summary_grad)),
            reference_backward(p, table.weights, coeffs, reference_summary_feat_grad(
                feats, ctx_idx, counts, summary_grad)))

    @pytest.mark.parametrize("scale", [0.1, 2.0])
    def test_mle_epoch_matches_reference(self, scale):
        task, p = task_policy(scale)
        triples = tk.gold_items(task)
        q = p.clone()
        pol.mle_pretrain(p, triples, 1, 0.5)
        weights = q.bag([(prompt, principle) for prompt, principle, _ in triples])
        counts = pol.transition_counts([gold for _, _, gold in triples], q.vocab.size)
        q.add_scaled(reference_backward(q, weights, counts), 0.5 / len(triples))
        for name, block in p.param_blocks().items():
            assert_rel_close(block, q.param_blocks()[name], name=name)

    def test_no_three_dimensional_temporaries(self):
        # With V = 64 and d = 8 one (C, V+1, V) array is 33 KB a context, and
        # the 2-D factors of a forward and backward pass together about 6 KB:
        # the peak of each stays under half of one such array, for a pass
        # and for an epoch of _mle_epochs over precomputed counts.
        p = pol.ToyPolicy(tk.Vocab(64), dim=8)
        p.init_params(44)
        rng = np.random.default_rng(44)
        fillers = len(p.vocab.fillers)
        contexts = [(tuple(rng.integers(0, fillers, 4)), tuple(rng.integers(0, fillers, 2)))
                    for _ in range(64)]
        weights = p.bag(contexts)
        counts = pol.transition_counts([tuple(rng.integers(0, 64, 10)) for _ in contexts], 64)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            p.backward(p.forward(weights), pol.logit_sums(counts))
            forward_backward = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            pol._mle_epochs(p, contexts, 1, 0.5, [pol.logit_sums(counts)])
            epoch = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert forward_backward < counts.nbytes / 2
        assert epoch < counts.nbytes / 2

    def test_partition_underflow_rejected(self):
        # The context logits peak at token 0 and every row logit after the
        # first at token 1, 800 nats apart: the logits span 1600 nats, and
        # ea @ eb.T underflows although every log-softmax is finite.
        p = pol.ToyPolicy(tk.Vocab(), dim=8)
        p.embed[:, :2] = 1.0
        p.ctx_scale = np.eye(8)[0]
        p.prev_scale = np.eye(8)[1]
        p.out[0] = -800.0
        p.out[0, 0] = 0.0
        p.out[1] = -800.0
        p.out[1, 1] = 0.0
        contexts = [((1, 2), (0, 6))]
        _, feats, logp = reference_forward(p, p.bag(contexts))
        assert np.all(np.isfinite(logp)) and np.ptp(feats @ p.out) > 1500
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="underflow"):
                p.table(contexts)


class TestBatchedSampler:
    @staticmethod
    def assert_matches_reference(p, group_size=4):
        table = p.table(CONTEXTS)
        block = p.max_len * group_size
        for seed in range(4):
            samples = p.sample_groups(table, range(len(CONTEXTS)), group_size,
                                      np.random.default_rng(seed))
            # Rows that finish early keep zeros past their length.
            past = np.arange(p.max_len) >= samples.lengths[:, None]
            assert not np.any(samples.tokens[past])
            comps = completions(samples)
            groups = [comps[group_size * g:group_size * (g + 1)]
                      for g in range(len(CONTEXTS))]
            for g, (ctx, group) in enumerate(zip(CONTEXTS, groups)):
                # Group g's uniforms follow the earlier groups' blocks.
                rng = np.random.default_rng(seed)
                rng.random(g * block)
                for comp, (tokens, ents, truncated) in zip(
                        group, reference_sample_group(p, *ctx, group_size, rng), strict=True):
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


    @pytest.mark.parametrize("group_size", [2, 5])
    def test_eos_heavy_policy(self, group_size):
        # Every embedding shares a large first component that out maps onto
        # EOS, so most rows end at position 0, and the rest (the empty
        # context starts from h = 0) at position 1.
        p = randomised_policy(31)
        p.embed[:, 0] += 3.0
        p.out[0, p.vocab.eos] = 4.0
        lengths = p.sample_groups(p.table(CONTEXTS), range(len(CONTEXTS)), group_size,
                                  np.random.default_rng(0)).lengths
        assert lengths.min() == 1 and lengths.max() == 2
        self.assert_matches_reference(p, group_size)

    @pytest.mark.parametrize("group_size", [2, 5])
    def test_one_position_cap(self, group_size):
        p = randomised_policy(32, max_len=1)
        p.out *= 6.0
        self.assert_matches_reference(p, group_size)

    @pytest.mark.parametrize("group_size", [2, 5])
    def test_group_sizes(self, group_size):
        p = randomised_policy(33)
        p.out *= 6.0
        self.assert_matches_reference(p, group_size)

    def test_underflowing_masses_are_refused(self):
        # Token 3 leads every row but the empty context's first (all 0) by
        # scale to 2 * scale nats, so it is drawn first and then seen: its
        # penalised mass is exp(-logit / 11) and every other mass is 0 past
        # about 750 nats.  Past about 7 800 nats all of a row's masses would
        # be 0 and the draw would be token V; the call must be refused
        # instead, and below the bound every token is in the vocabulary.
        refused = []
        for scale in (1e1, 1e3, 3e3, 1e4, 1e5):
            p = randomised_policy(35)
            p.embed[:, 0] = 1.0
            p.out[0, 3] = scale
            table = p.table(CONTEXTS)
            try:
                samples = p.sample_groups(table, range(len(CONTEXTS)), 4,
                                          np.random.default_rng(0))
            except ValidationError as err:
                assert "sampler masses underflow" in str(err)
                refused.append(scale)
            else:
                assert samples.tokens.max() < p.vocab.size
        assert refused == [1e4, 1e5]

    def test_groups_need_a_group(self):
        p = randomised_policy(34)
        with pytest.raises(ValidationError, match="at least one group"):
            p.sample_groups(p.table(CONTEXTS), [], 4, np.random.default_rng(7))

    def test_groups_need_two_members(self):
        p = randomised_policy(34)
        with pytest.raises(ValidationError, match="groups of at least 2"):
            p.sample_groups(p.table(CONTEXTS), [0], 1, np.random.default_rng(7))

    @pytest.mark.parametrize("group_size", [2, 4])
    def test_sample_group_reads_the_seeds_first_block(self, group_size):
        # sample_group(..., seed) spends default_rng(seed)'s first
        # max_len * group_size uniforms, as the per-row decode reads them.
        p = randomised_policy(30)
        p.out *= 6.0
        ctx = CONTEXTS[0]
        got = completions(p.sample_group(*ctx, group_size, 99))
        expected = reference_sample_group(p, *ctx, group_size, np.random.default_rng(99))
        assert [(c.tokens, c.truncated) for c in got] == [(t, tr) for t, _, tr in expected]
        rng = np.random.default_rng(99)
        p.sample_groups(p.table([ctx]), [0], group_size, rng)
        assert rng.random() == np.random.default_rng(99).random(
            p.max_len * group_size + 1)[-1]


class TestDecodeIndexing:
    """_decode ranks through flat indices offset by each row's start and
    zeroes the dropped mass in place, from the sampler's unnormalised masses;
    the along-axis version, which keeps the top rank explicitly and works on
    the logits, is the reference, token for token."""

    def test_matches_along_axis_on_random_blocks(self):
        # The masses are the sampler's: exp(logit - m) with m the row's plain
        # maximum, the penalised logit where a random mask marks the token
        # as seen (every odd trial) and the plain one elsewhere.
        rng = np.random.default_rng(11)
        for trial in range(3000):
            n = 1 if trial % 5 == 0 else int(rng.integers(2, 65))
            v = int(rng.integers(2, 17))
            raw = rng.normal(0, rng.choice([0.5, 3.0, 12.0]), (n, v))
            if trial % 3 == 0:
                # Ties: logits on a coarse grid, so the stable sort's order
                # among equal probabilities decides the nucleus.
                raw = np.round(raw * 0.5) * 2.0
            if trial % 7 == 0:
                raw[:] = 0.0
            pen = np.where(raw > 0, raw / pol.REPETITION_PENALTY, raw * pol.REPETITION_PENALTY)
            seen = rng.random((n, v)) < (trial % 2) * rng.random()
            peak = raw.max(axis=1, keepdims=True)
            mass = np.where(seen, np.exp(pen - peak), np.exp(raw - peak))
            uniforms = rng.random(n)
            got = pol._decode(mass, uniforms, np.arange(0, n * v, v))
            want = reference_decode_along_axis(np.where(seen, pen, raw), uniforms)
            assert np.array_equal(got, want)

    def test_penalty_never_raises_a_logit(self):
        # The sampler's masses exp(pen - m) stay at most the plain ones, and
        # each position's total at least its row's largest penalised mass,
        # only because the penalty divides a positive logit and multiplies
        # a negative one by at least 1.
        assert pol.REPETITION_PENALTY >= 1


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
        task = tk.make_toy_task(seed=0)
        for item in task.items:
            assert item.gold[-1] == task.vocab.eos
            assert pol.toy_format_reward(item.gold[:-1], task.vocab) == 1.0

    def test_exactly_one_principle_per_item(self):
        task = tk.make_toy_task(seed=1)
        for item in task.items:
            assert type(item.column) is int and 0 <= item.column < len(task.principles)

    def test_principle_tokens_disjoint_from_gold_pools(self):
        task = tk.make_toy_task(seed=2)
        used = set()
        for p in task.principles:
            used.update(p.tokens)
        assert used.isdisjoint(task.gold_r_pool)
        assert used.isdisjoint(task.gold_a_pool)
        for item in task.items:
            assert used.isdisjoint(item.prompt)

    def test_patterns_must_be_fillers(self):
        v = tk.Vocab()
        with pytest.raises(ValidationError):
            tk.principles_from_patterns(v, [("a", (v.eos,)), ("b", (0,))])


def assert_items_index_principles_preferring_two_fillers(task):
    """Item i's column is i mod the principle count, and every principle
    prefers a reasoning filler of the gold_r_pool, then an answer filler of
    the gold_a_pool, as the gold draws take for granted."""
    n = len(task.principles)
    assert [item.column for item in task.items] == [i % n for i in range(len(task.items))]
    for p in task.principles:
        assert len(p.prefers) == 2
        assert p.prefers[0] in task.gold_r_pool and p.prefers[1] in task.gold_a_pool


class TestEveryPrinciplePrefersTwoFillers:
    @pytest.mark.parametrize("vocab_size", [8, 9, 12, 16, 20])
    def test_toy_principles(self, vocab_size):
        vocab = tk.Vocab(vocab_size)
        task = tk.make_toy_task(vocab, seed=vocab_size)
        assert task.principles == tk.make_toy_principles(vocab)
        assert_items_index_principles_preferring_two_fillers(task)

    @pytest.mark.parametrize("name", sorted(p.name for p in cli.DATA_DIR.glob("*.txt")))
    def test_bundled_constitutions(self, name):
        path = cli.DATA_DIR / name
        if name.startswith("constitution_"):
            # A text pool is refused at its first item, line 6.
            with pytest.raises(ValidationError, match=re.escape(
                    f"{path}:6: 'Maintain the independence and integrity of the Australian "
                    "Broadcasting Corporation (ABC).' is not a token pattern")):
                consti.parse_principle_file(path)
            return
        pset = consti.parse_principle_file(path)
        patterns = [(p.pid, p.tokens) for p in pset.positives]
        task = cli._build_task(pset, 0, tk.Vocab())
        assert task.principles == tk.principles_from_patterns(tk.Vocab(), patterns)
        assert [p.tokens for p in task.principles] == [tokens for _, tokens in patterns]
        assert_items_index_principles_preferring_two_fillers(task)


class TestWarmStart:
    def test_format_competence(self):
        task = tk.make_toy_task(seed=4)
        p = pol.ToyPolicy(tk.Vocab())
        p.init_params(4)
        pol.warm_start(p, task, 120, 0.5, seed=4, bias=0.05)
        ok = total = 0
        for gi, item in enumerate(task.items[:8]):
            ptoks = task.principles[item.column].tokens
            group = completions(p.sample_group(item.prompt, ptoks, 4, np.random.default_rng(gi)))
            for c in group:
                total += 1
                ok += (not c.truncated) and reference_format_reward(c.content, p.vocab) == 1.0
        assert ok / total > 0.7

    def test_deterministic(self):
        task = tk.make_toy_task(seed=5)
        p1 = pol.ToyPolicy(tk.Vocab())
        p1.init_params(5)
        pol.warm_start(p1, task, 30, 0.5, seed=5, bias=0.05)
        p2 = pol.ToyPolicy(tk.Vocab())
        p2.init_params(5)
        pol.warm_start(p2, task, 30, 0.5, seed=5, bias=0.05)
        assert p1.param_hash() == p2.param_hash()


def reference_mle_epochs(p, epoch_triples, lr):
    """One ascent step per epoch, each through its own table(contexts)."""
    for triples in epoch_triples:
        contexts = [(prompt, principle) for prompt, principle, _ in triples]
        counts = pol.transition_counts([gold for _, _, gold in triples], p.vocab.size)
        p.add_scaled(p.backward(p.table(contexts), pol.logit_sums(counts)), lr / len(triples))


@pytest.fixture
def bag_calls(monkeypatch):
    """The contexts of each ToyPolicy.bag call, which checks and bags them."""
    calls = []
    bag = pol.ToyPolicy.bag

    def spy(self, contexts):
        calls.append(list(contexts))
        return bag(self, calls[-1])

    monkeypatch.setattr(pol.ToyPolicy, "bag", spy)
    return calls


class TestMleEpochs:
    def test_warm_start_matches_per_epoch_tables(self, bag_calls):
        task = tk.make_toy_task(seed=6)
        p = pol.ToyPolicy(task.vocab)
        p.init_params(6)
        q = p.clone()
        pol.warm_start(p, task, 25, 0.5, seed=6, bias=0.15)
        # The contexts are checked and bagged once, not once per epoch.
        assert [len(contexts) for contexts in bag_calls] == [len(task.items)]
        reference_mle_epochs(q, [reference_format_pretrain_items(task, seed=(6, e), bias=0.15)
                                 for e in range(25)], 0.5)
        assert p.param_hash() == q.param_hash()

    def test_mixed_golds_over_two_count_passes_match_per_epoch_tables(self):
        # Ten epochs of golds of one and two fillers a section, on a task
        # and seeds no golden pins, counted in a full pass and a partial
        # one: the loop's reused table, gradient and flat update give the
        # bits of fresh forward, backward and add_scaled calls.
        task, lr, seed, bias = tk.make_toy_task(seed=11), 0.5, 5, 0.15
        p = pol.ToyPolicy(task.vocab)
        p.init_params(seed)
        q = p.clone()
        pol.warm_start(p, task, 10, lr, seed=seed, bias=bias)
        reference_mle_epochs(q, [reference_format_pretrain_items(task, seed=(seed, e), bias=bias)
                                 for e in range(10)], lr)
        assert p.param_hash() == q.param_hash()

    @pytest.mark.parametrize("vocab_size", [16, 64])
    def test_count_sums_equal_logit_sums(self, vocab_size):
        rng = np.random.default_rng(vocab_size)
        for _ in range(50):
            # Up to 20 epochs, so some runs count in several passes.
            shape = tuple(int(n) for n in rng.integers(1, [21, 40, 12]))
            tok = rng.integers(0, vocab_size, shape).astype(np.uint8)
            lengths = rng.integers(0, shape[2] + 1, shape[:2]).astype(np.uint8)
            got = list(pol._count_sums(tok, lengths, vocab_size))
            assert len(got) == shape[0]
            for epoch, sums in enumerate(got):
                golds = [tuple(row[:n]) for row, n in zip(tok[epoch], lengths[epoch])]
                expected = pol.logit_sums(pol.transition_counts(golds, vocab_size))
                assert all(a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
                           for a, b in zip(sums, expected))

    def test_mle_pretrain_matches_per_epoch_tables(self, bag_calls):
        task = tk.make_toy_task(seed=7)
        triples = tk.gold_items(task)
        p = pol.ToyPolicy(task.vocab)
        p.init_params(7)
        q = p.clone()
        pol.mle_pretrain(p, triples, 25, 0.5)
        assert [len(contexts) for contexts in bag_calls] == [len(triples)]
        reference_mle_epochs(q, [triples] * 25, 0.5)
        assert p.param_hash() == q.param_hash()

    @pytest.mark.parametrize("epochs, lr", [(-1, 0.5), (1, -0.1)],
                             ids=["negative_epochs", "negative_lr"])
    def test_negative_epochs_or_lr_raise(self, epochs, lr):
        p = pol.ToyPolicy(tk.Vocab())
        p.init_params(3)
        before = p.param_hash()
        with pytest.raises(ValidationError, match="epochs and lr must be nonnegative"):
            pol.mle_pretrain(p, tk.gold_items(tk.make_toy_task(seed=3)), epochs, lr)
        assert p.param_hash() == before

    def test_no_triples_leave_the_parameters(self, bag_calls):
        p = pol.ToyPolicy(tk.Vocab())
        p.init_params(3)
        before = p.param_hash()
        pol.mle_pretrain(p, [], 5, 0.5)
        assert p.param_hash() == before and bag_calls == []
