"""draws.Stream against np.random.Generator, and the draw sites against their
Generator versions.

These tests are the guard on numpy's algorithms: if an upgrade changes how
Generator spends PCG64's words for random, integers or choice, they fail
here, in the fast tier, instead of silently changing steps.jsonl.
"""
from pathlib import Path

import numpy as np
import pytest

from geoloop import cli
from geoloop import constitution as consti
from geoloop import policy as pol
from geoloop.draws import Stream

N_SEEDS = 2000
# Every population 1..60, every sample size 0..n, both replace values.
COMBOS = [(n, k, replace) for n in range(1, 61) for k in range(n + 1)
          for replace in (False, True)]


def run(rng, ops) -> list:
    out = []
    for op, *args in ops:
        if op == "choice":
            n, k, replace = args
            out.append([int(v) for v in rng.choice(n, size=k, replace=replace)])
        else:
            out.append(getattr(rng, op)(*args))
    return out


def interleaved_ops(seed: int) -> list:
    """This seed's share of COMBOS, shuffled among random() and integers()
    calls whose spans run from one value to 61."""
    plan = np.random.default_rng(10_000 + seed)
    ops = [("choice", *combo) for combo in COMBOS[seed::N_SEEDS]]
    for _ in range(3):
        ops.append(("random",))
        ops.append(("integers", int(plan.integers(1, 62))))
        low = int(plan.integers(-5, 6))
        ops.append(("integers", low, low + int(plan.integers(1, 62))))
    return [ops[i] for i in plan.permutation(len(ops))]


class TestStreamMatchesGenerator:
    def test_interleaved_draws(self):
        for seed in range(N_SEEDS):
            ss = np.random.SeedSequence(seed)
            ops = interleaved_ops(seed)
            expected = run(np.random.default_rng(ss), ops)
            got = run(Stream(ss), ops)
            assert got == expected, (seed, ops)

    def test_seed_arguments(self):
        for seed in (0, 7, (3, 199), np.random.SeedSequence((1, 2, 3, 4))):
            rng, stream = np.random.default_rng(seed), Stream(seed)
            assert [rng.random() for _ in range(5)] == [stream.random() for _ in range(5)]

    def test_quarter_rejected_span(self):
        # 2**32 mod 3 * 2**30 = 2**30: a quarter of the products are rejected.
        n = 3 * 2**30
        for seed in range(20):
            rng, stream = np.random.default_rng(seed), Stream(seed)
            ops = [("integers", n)] * 100 + [("random",), ("choice", n, 50, True),
                                             ("integers", 5, 5 + n), ("random",)]
            assert run(stream, ops) == run(rng, ops)

    def test_single_value_spans_consume_nothing(self):
        ops = [("integers", 1), ("integers", -4, -3), ("choice", 1, 3, True),
               ("choice", 1, 1, False), ("choice", 9, 0, False), ("choice", 9, 0, True)]
        for seed in range(50):
            rng, stream = np.random.default_rng(seed), Stream(seed)
            assert run(stream, ops) == run(rng, ops) == [0, -4, [0, 0, 0], [0], [], []]
            fresh = np.random.default_rng(seed)
            assert stream.integers(7) == rng.integers(7) == fresh.integers(7)
            assert stream.random() == rng.random() == fresh.random()

    def test_largest_supported_spans(self):
        for seed in range(5):
            ops = [("choice", 10_000, 30, False), ("integers", 2**32 - 1),
                   ("integers", -2**31, 2**31 - 1), ("choice", 2**32 - 1, 20, True)]
            assert run(Stream(seed), ops) == run(np.random.default_rng(seed), ops)

    @pytest.mark.parametrize("call", [
        lambda s: s.choice(5, size=2, p=[0.2] * 5),
        lambda s: s.choice(10_001, size=2, replace=False),
        lambda s: s.choice(2**32, size=2),
        lambda s: s.choice(5, size=6, replace=False),
        lambda s: s.choice(5, size=-1),
        lambda s: s.choice(5, size=None),
        lambda s: s.choice([1, 2, 3], size=2),
        lambda s: s.integers(2**32),
        lambda s: s.integers(-1, 2**32 - 1),
        lambda s: s.integers(0),
        lambda s: s.integers(3, 2),
        lambda s: s.integers(2.5),
        lambda s: s.random(3),
    ])
    def test_unsupported_arguments_raise(self, call):
        with pytest.raises((TypeError, ValueError)):
            call(Stream(0))


def reference_make_toy_task(vocab=None, *, n_principles=4, n_items=32, prompt_len=4,
                            bias=0.8, seed=0, principles=None):
    """make_toy_task as it drew from np.random.default_rng(seed)."""
    vocab = vocab or pol.Vocab()
    rng = np.random.default_rng(seed)
    if principles is None:
        principles = pol.make_toy_principles(vocab, n_principles)
    r_pool, a_pool = pol.gold_filler_pools(vocab, principles)
    prompt_pool = r_pool + a_pool
    items = []
    for i in range(n_items):
        prompt = tuple(int(prompt_pool[rng.integers(len(prompt_pool))])
                       for _ in range(prompt_len))
        principle = principles[i % n_principles]
        gold = pol._gold_continuation(vocab, principle.prefers, r_pool, a_pool,
                                      bias, rng)
        items.append(pol.TaskItem(prompt, principle.pid, gold))
    return pol.ToyTask(vocab, principles, tuple(items), r_pool, a_pool, bias=bias)


def reference_format_pretrain_items(task, seed=0, bias=0.15):
    """format_pretrain_items as it drew from np.random.default_rng(seed)."""
    rng = np.random.default_rng(seed)
    triples = []
    for item in task.items:
        principle = task.principle(item.principle_id)
        gold = pol._gold_continuation(task.vocab, principle.prefers, task.gold_r_pool,
                                      task.gold_a_pool, bias, rng)
        triples.append((item.prompt, principle.tokens, gold))
    return triples


CONFIG = cli.load_config(Path(__file__).resolve().parent.parent / "configs"
                         / "enigma_high_si.toml")


def cli_task_arguments(seed: int) -> dict:
    """make_toy_task's arguments as `geoloop train` builds them from the
    bundled enigma_high_si config."""
    pset = consti.parse_principle_file(cli.DATA_DIR / "toy_high_si.txt")
    vocab = pol.Vocab(CONFIG.vocab_size)
    principles = pol.principles_from_patterns(vocab, [(p.pid, p.tokens) for p in pset.positives])
    return dict(vocab=vocab, n_items=CONFIG.task_items, prompt_len=CONFIG.prompt_len,
                bias=CONFIG.task_bias, seed=seed, principles=principles)


class TestDrawSites:
    @pytest.mark.parametrize("seed", range(10))
    def test_tasks_and_warm_start_golds(self, seed):
        assert pol.make_toy_task(seed=seed) == reference_make_toy_task(seed=seed)
        kwargs = cli_task_arguments(seed)
        task = pol.make_toy_task(**kwargs)
        assert task == reference_make_toy_task(**kwargs)
        # The warm start's redraws: seed (seed, epoch) for epochs 0-199.
        bias = CONFIG.warmstart_bias
        for epoch in range(200):
            assert (pol.format_pretrain_items(task, seed=(seed, epoch), bias=bias)
                    == reference_format_pretrain_items(task, seed=(seed, epoch), bias=bias))
