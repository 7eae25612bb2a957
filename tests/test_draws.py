"""mi.shadow_candidates against Generator.choice, draws.Streams against
np.random.default_rng, and the draw sites against their Generator versions.

These tests are the guard on numpy's algorithms: if an upgrade changes how
Generator spends PCG64's words for random, integers or choice, they fail
here, in the fast tier, instead of silently changing steps.jsonl.
"""
from pathlib import Path

import numpy as np
import pytest

from geoloop import cli, mi
from geoloop import constitution as consti
from geoloop import task as tk
from geoloop.draws import Streams


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


def lockstep_plan(seed: int, rows: int, length: int) -> list:
    """(op, args, where) calls with random masks: doubles, small spans,
    spans up to 2**31 - 1, and a span whose products are rejected a quarter
    of the time."""
    plan = np.random.default_rng(seed)
    ops = []
    for _ in range(length):
        where = plan.random(rows) < plan.choice([0.1, 0.5, 0.9, 1.0])
        kind = int(plan.integers(4))
        if kind == 0:
            ops.append(("random", (), where))
        else:
            span = [int(plan.integers(1, 20)), int(plan.integers(1, 2**31)), 3 * 2**29][kind - 1]
            low = int(plan.integers(-5, 6))
            ops.append(("integers", (low, low + span), where))
    return ops


def check_lockstep(seeds, ops):
    streams, singles = Streams(seeds), [np.random.default_rng(seed) for seed in seeds]
    for op, args, where in ops:
        got = getattr(streams, op)(*args, where=where)
        for row in np.flatnonzero(where):
            assert got[row] == getattr(singles[row], op)(*args), (row, op, args)
    # A last draw on every row finds each row where its Generator is.
    assert streams.random().tolist() == [single.random() for single in singles]


class CraftedPCG64:
    """Stands in for np.random.PCG64: the seed names a list of raw words,
    and the state is the position in it."""

    WORDS = {}

    def __init__(self, seed):
        self._seed, self._pos = seed, 0

    @property
    def state(self):
        return {"bit_generator": "PCG64", "state": {"state": self._pos, "inc": self._seed},
                "has_uint32": 0, "uinteger": 0}

    @state.setter
    def state(self, value):
        self._pos, self._seed = value["state"]["state"], value["state"]["inc"]

    def random_raw(self, size):
        """The listed words, then word i = (i + 1) * 2**40 + 1 (low half 1)."""
        listed = self.WORDS[self._seed]
        words = [listed[i] if i < len(listed) else ((i + 1) << 40) | 1
                 for i in range(self._pos, self._pos + size)]
        self._pos += size
        return np.array(words, dtype=np.uint64)


class TestStreamsMatchStream:
    """Row e of Streams(seeds) against the one stream default_rng(seeds[e])."""

    def test_mixed_masks(self):
        # 120 rows of 700 calls: every row refills its block several times.
        seeds = [(7, e) for e in range(100)] + list(range(10)) + [
            np.random.SeedSequence((5, e)) for e in range(10)]
        check_lockstep(seeds, lockstep_plan(0, len(seeds), 700))

    @pytest.mark.parametrize("plan_seed", range(5))
    def test_short_plans(self, plan_seed):
        check_lockstep(list(range(plan_seed * 40, plan_seed * 40 + 40)),
                       lockstep_plan(plan_seed + 1, 40, 150))

    def test_half_carried_across_random(self):
        # Rows 0-2 buffer a high half, rows 3-5 do not; a random() in between
        # takes a whole word on some rows and leaves every buffered half.
        seeds = list(range(6))
        some = np.array([True, False, True, True, False, True])
        first = np.array([True, True, True, False, False, False])
        ops = [("integers", (0, 7), first), ("random", (), some),
               ("integers", (0, 7), np.ones(6, bool)), ("integers", (0, 7), first),
               ("random", (), np.ones(6, bool)), ("integers", (2, 9), some)]
        check_lockstep(seeds, ops)

    def test_crafted_rejection(self, monkeypatch):
        # 2**32 mod 3 = 1: a half of 0 is the one rejected product for span 3.
        CraftedPCG64.WORDS = {
            0: [0x00000007_00000000, 0xFFFFFFFF_00000000],  # reject, then 7 -> 0
            1: [0x00000000_80000000, 0x00000000_00000000],  # 2**31 -> 1, then reject
            2: [0xC0000000_00000000],                       # reject, then 3 * 2**30 -> 2
        }
        monkeypatch.setattr(np.random, "PCG64", CraftedPCG64)
        streams = Streams([0, 1, 2])
        assert streams.integers(0, 3).tolist() == [0, 1, 2]
        # Row 1 rejects its buffered half 0 and both halves of its next word,
        # then takes the low half 1 of its third.
        assert streams.integers(0, 3, where=np.array([False, True, False]))[1] == 0
        # Each row's next whole word: row 0's second, row 1's fourth, row 2's second.
        words = [0xFFFFFFFF_00000000, (4 << 40) | 1, (2 << 40) | 1]
        assert streams.random().tolist() == [(w >> 11) * 2.0**-53 for w in words]

    def test_span_one_draws_nothing(self):
        streams, single = Streams([3, 4]), np.random.default_rng(3)
        assert streams.integers(5, 6).tolist() == [5, 5]
        assert streams.integers(0, 10)[0] == single.integers(10)

    def test_no_rows(self):
        streams = Streams([])
        assert streams.random().shape == streams.integers(0, 5).shape == (0,)

    @pytest.mark.parametrize("low, high", [(0, 2**31), (-1, 2**31 - 1), (0, 0), (3, 2),
                                           (0, 2.5)])
    def test_unsupported_spans_raise(self, low, high):
        with pytest.raises((TypeError, ValueError)):
            Streams([0]).integers(low, high)

    def test_largest_span(self):
        check_lockstep([0, 1, 2], [("integers", (-2**30, 2**30 - 1), np.ones(3, bool))] * 80)


def reference_make_toy_task(vocab=None, *, n_principles=4, n_items=32, prompt_len=4,
                            bias=0.8, seed=0, principles=None):
    """make_toy_task as it drew from np.random.default_rng(seed)."""
    vocab = vocab or tk.Vocab()
    rng = np.random.default_rng(seed)
    if principles is None:
        principles = tk.make_toy_principles(vocab, n_principles)
    r_pool, a_pool = tk.gold_filler_pools(vocab, principles)
    prompt_pool = r_pool + a_pool
    items = []
    for i in range(n_items):
        prompt = tuple(int(prompt_pool[rng.integers(len(prompt_pool))])
                       for _ in range(prompt_len))
        principle = principles[i % len(principles)]
        gold = tk.gold_continuation(vocab, principle.prefers, r_pool, a_pool,
                                      bias, rng)
        items.append(tk.TaskItem(prompt, principle.pid, gold))
    return tk.ToyTask(vocab, principles, tuple(items), r_pool, a_pool, bias=bias)


def reference_format_pretrain_items(task, seed=0, bias=0.15):
    """format_pretrain_items as it drew from np.random.default_rng(seed)."""
    rng = np.random.default_rng(seed)
    triples = []
    for item in task.items:
        principle = task.principle(item.principle_id)
        gold = tk.gold_continuation(task.vocab, principle.prefers, task.gold_r_pool,
                                      task.gold_a_pool, bias, rng)
        triples.append((item.prompt, principle.tokens, gold))
    return triples


CONFIG = cli.load_config(Path(__file__).resolve().parent.parent / "configs"
                         / "enigma_high_si.toml")


def cli_task_arguments(seed: int) -> dict:
    """make_toy_task's arguments as `geoloop train` builds them from the
    bundled enigma_high_si config."""
    pset = consti.parse_principle_file(cli.DATA_DIR / "toy_high_si.txt")
    vocab = tk.Vocab(CONFIG.vocab_size)
    principles = tk.principles_from_patterns(vocab, [(p.pid, p.tokens) for p in pset.positives])
    return dict(vocab=vocab, n_items=CONFIG.task_items, prompt_len=CONFIG.prompt_len,
                bias=CONFIG.task_bias, seed=seed, principles=principles)


def gold_tuples(tokens, lengths) -> list:
    return [tuple(int(t) for t in row[:n]) for row, n in zip(tokens, lengths)]


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
