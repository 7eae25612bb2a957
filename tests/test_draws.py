"""mi.shadow_candidates against Generator.choice, and the draw sites against
their Generator versions.

These tests are the guard on numpy's algorithms: if an upgrade changes how
Generator spends PCG64's words for random, integers or choice, they fail
here, in the fast tier, instead of silently changing steps.jsonl.  The warm
start's golds are decoded from PCG64's raw words by `task.warm_start_golds`,
so its oracle, `gold_continuation` on default_rng, is the guard on how
Generator spends its words for random and integers.
"""

import numpy as np
import pytest

from geoloop import cli, mi
from geoloop import constitution as consti
from geoloop import task as tk


class TestShadowCandidatesMatchChoice:
    def test_every_pool_and_sample_size(self):
        # Pools of 1..60 other columns and every K from 1 to one past the
        # pool, so the last two fall back to replacement.  The two
        # generators run on through each m's calls, so every call must leave
        # its generator where the row-by-row choices leave theirs.
        for m in range(2, 62):
            for seed in range(3):
                rng, ref = np.random.default_rng((seed, m)), np.random.default_rng((seed, m))
                for k in range(1, m + 2):
                    true = rng.integers(0, m, 3)
                    assert ref.integers(0, m, 3).tolist() == true.tolist()
                    got = mi.shadow_candidates(rng, true, m, k)
                    expected = [[j, *mi.draw_shadows(range(m), j, k, ref)] for j in true]
                    assert got.tolist() == expected, (m, k, seed)
                assert rng.random() == ref.random(), (m, seed)


def reference_make_toy_task(vocab=None, *, n_items=32, prompt_len=2, bias=0.8, seed=0,
                            principles=None):
    """make_toy_task as it drew from np.random.default_rng(seed)."""
    vocab = vocab or tk.Vocab()
    rng = np.random.default_rng(seed)
    if principles is None:
        principles = tk.make_toy_principles(vocab)
    r_pool, a_pool = tk.gold_filler_pools(vocab, [p.tokens for p in principles])
    prompt_pool = r_pool + a_pool
    items = []
    for i in range(n_items):
        prompt = tuple(int(prompt_pool[rng.integers(len(prompt_pool))])
                       for _ in range(prompt_len))
        column = i % len(principles)
        gold = tk.gold_continuation(vocab, principles[column].prefers, r_pool, a_pool,
                                      bias, rng)
        items.append(tk.TaskItem(prompt, column, gold))
    return tk.ToyTask(vocab, principles, tuple(items), r_pool, a_pool)


def reference_format_pretrain_items(task, seed=0, bias=0.15):
    """format_pretrain_items as it drew from np.random.default_rng(seed)."""
    rng = np.random.default_rng(seed)
    triples = []
    for item in task.items:
        principle = task.principles[item.column]
        gold = tk.gold_continuation(task.vocab, principle.prefers, task.gold_r_pool,
                                      task.gold_a_pool, bias, rng)
        triples.append((item.prompt, principle.tokens, gold))
    return triples


def cli_task_arguments(seed: int) -> dict:
    """make_toy_task's arguments as `geoloop train` builds them for the
    bundled toy_high_si set."""
    pset = consti.parse_principle_file(cli.DATA_DIR / "toy_high_si.txt")
    vocab = tk.Vocab(tk.DEFAULT_VOCAB_SIZE)
    principles = tk.principles_from_patterns(vocab, [(p.pid, p.tokens) for p in pset.positives])
    return dict(vocab=vocab, n_items=tk.TASK_ITEMS, prompt_len=tk.PROMPT_LEN,
                bias=tk.TASK_BIAS, seed=seed, principles=principles)


class CraftedPCG64:
    """Stands in for np.random.PCG64: the seed names a list of raw words."""

    WORDS = {}

    def __init__(self, seed):
        self._seed, self._pos = seed, 0

    def random_raw(self, size):
        """The listed words, then word i = (i + 1) * 2**40 + 1 (low half 1)."""
        listed = self.WORDS[self._seed]
        words = [listed[i] if i < len(listed) else ((i + 1) << 40) | 1
                 for i in range(self._pos, self._pos + size)]
        self._pos += size
        return np.array(words, dtype=np.uint64)


def gold_tuples(tokens, lengths) -> list:
    return [tuple(int(t) for t in row[:n]) for row, n in zip(tokens, lengths)]


def check_warm_start_golds(task, epochs: int, seed: int, bias: float):
    """warm_start_golds against format_pretrain_items' golds, epoch by epoch."""
    tokens, lengths = tk.warm_start_golds(task, epochs, seed, bias)
    for epoch in range(epochs):
        expected = reference_format_pretrain_items(task, seed=(seed, epoch), bias=bias)
        assert gold_tuples(tokens[epoch], lengths[epoch]) == [g for _, _, g in expected]


class TestDrawSites:
    @pytest.mark.parametrize("seed", range(10))
    def test_tasks_and_warm_start_golds(self, seed):
        assert tk.make_toy_task(seed=seed) == reference_make_toy_task(seed=seed)
        kwargs = cli_task_arguments(seed)
        task = tk.make_toy_task(**kwargs)
        assert task == reference_make_toy_task(**kwargs)
        # The warm start's golds: seed (seed, epoch) for epochs 0-199.
        bias = cli.WARMSTART_BIAS
        tokens, lengths = tk.warm_start_golds(task, 200, seed, bias)
        for epoch in range(200):
            expected = reference_format_pretrain_items(task, seed=(seed, epoch), bias=bias)
            assert gold_tuples(tokens[epoch], lengths[epoch]) == [g for _, _, g in expected]

    @pytest.mark.parametrize("patterns", [
        [(7, 8, 7, 8), (9, 10, 9, 10)],         # pools (0, ..., 5) and (6,)
        [(0, 0, 0, 0), (0, 0)],                 # pools (1, ..., 5) and (6, ..., 10)
    ])
    def test_every_draw_rule(self, patterns):
        # Pools of 1 (a span that draws nothing), 5 (2**32 mod span is 1) and
        # 6 (it is 4); the bundled pools of 4 (a span that divides 2**32) and
        # 3 are checked above.
        vocab = tk.Vocab()
        principles = tk.principles_from_patterns(vocab, enumerate(patterns))
        for seed in range(3):
            check_warm_start_golds(tk.make_toy_task(vocab, seed=seed, principles=principles),
                                   60, seed, 0.3)

    @pytest.mark.parametrize("seed", range(10))
    def test_refills(self, seed, monkeypatch):
        # Blocks of 5 words: every row refills many times, from a stream
        # rebuilt and advanced past the words it has drawn.
        monkeypatch.setattr(tk, "_WORD_BLOCK", 5)
        check_warm_start_golds(tk.make_toy_task(**cli_task_arguments(seed)), 20, seed,
                               cli.WARMSTART_BIAS)

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_warm_start_golds_fit_one_block(self, seed, monkeypatch):
        # An epoch's golds spend fewer words than a block, so each epoch's
        # stream is built once, for its first block.
        built, pcg64 = [], np.random.PCG64
        monkeypatch.setattr(np.random, "PCG64", lambda s: (built.append(s), pcg64(s))[1])
        task = tk.make_toy_task(**cli_task_arguments(seed))
        tk.warm_start_golds(task, cli.WARMSTART_EPOCHS, seed, cli.WARMSTART_BIAS)
        assert built == [(seed, epoch) for epoch in range(cli.WARMSTART_EPOCHS)]

    def test_crafted_rejection(self, monkeypatch):
        # bias 0.5: a word's top bit decides random() < bias.  Spans 2 and 4
        # divide 2**32; for span 3, 2**32 mod 3 = 1, so a half of 0 is the
        # one rejected product.
        CraftedPCG64.WORDS = {
            (0, 0): [
                0x80000000_00000000,    # r_n = 1 from the low half, a_n = 2 from the high
                0xFFFFFFFF_FFFFFFFF,    # first reasoning filler: not the preferred one,
                0x00000000_C0000000,    # so pool index 3 from 3 * 2**30; high half 0 buffered
                0x80000000_00000000,    # first answer filler: 0.5, not the preferred one;
                0x55555556_00000000,    # reject the buffered 0, reject the low half 0,
                                        # take the high half: index 1
                0x00000000_00000000,    # second answer filler: the preferred one
            ],
            (0, 1): [
                0x00000000_00000000,    # r_n = a_n = 1
                0x00000000_00000000,    # the preferred reasoning filler
                0xFFFFFFFF_FFFFFFFF,    # not the preferred answer filler, so
                0x00000000_AAAAAAAB,    # pool index 2 from 3 * 0xAAAAAAAB = 2 * 2**32 + 1
            ],
        }
        vocab = tk.Vocab()
        principles = tk.principles_from_patterns(vocab, [("a", (4, 9, 4, 9)),
                                                         ("b", (5, 10, 5, 10))])
        task = tk.make_toy_task(vocab, n_items=1, principles=principles)
        assert (task.gold_r_pool, task.gold_a_pool) == ((0, 1, 2, 3), (6, 7, 8))
        assert task.principles[task.items[0].column].prefers == (0, 6)
        monkeypatch.setattr(np.random, "PCG64", CraftedPCG64)
        tokens, lengths = tk.warm_start_golds(task, 2, 0, 0.5)
        assert gold_tuples(tokens[:, 0], lengths[:, 0]) == [
            (vocab.r_open, 3, vocab.r_close, vocab.a_open, 7, 6, vocab.a_close, vocab.eos),
            (vocab.r_open, 0, vocab.r_close, vocab.a_open, 8, vocab.a_close, vocab.eos)]
