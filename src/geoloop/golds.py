"""The task's gold continuations, drawn one at a time or many streams at once.

A gold is R_OPEN, one or two reasoning fillers, R_CLOSE A_OPEN, one or two
answer fillers, A_CLOSE EOS.  Each filler is the principle's preferred one
with probability `bias` (when it has one), else uniform over its pool.

There are two forms of the one draw.  `gold_continuation` draws a gold call
by call from a Stream: `make_toy_task` draws its golds this way because
their draws interleave with the prompt draws on one stream.
`gold_continuations` draws one gold per row of a `Streams`, row e as
`gold_continuation` would from that row's Stream: the warm start's golds
depend only on the stream seeded (seed, epoch) and the item, so
`warm_start_golds` draws every epoch's in one pass, a row per epoch.
"""
from __future__ import annotations

import numpy as np

from .draws import Stream, Streams

GOLD_MAX_LEN = 9


def gold_continuation(vocab, prefers: tuple, r_pool, a_pool, bias: float,
                      rng: Stream | np.random.Generator) -> tuple:
    """One gold, drawn call by call from rng."""
    def fill(pool, pref, n):
        picks = []
        for _ in range(n):
            if pref is not None and rng.random() < bias:
                picks.append(pref)
            else:
                picks.append(int(pool[rng.integers(len(pool))]))
        return picks

    r_pref = prefers[0] if prefers else None
    a_pref = prefers[1] if len(prefers) > 1 else None
    r_n = int(rng.integers(1, 3))
    a_n = int(rng.integers(1, 3))
    toks = ([vocab.r_open] + fill(r_pool, r_pref, r_n)
            + [vocab.r_close, vocab.a_open]
            + fill(a_pool, a_pref, a_n) + [vocab.a_close, vocab.eos])
    return tuple(toks)


def gold_continuations(vocab, prefers: tuple, r_pool, a_pool, bias: float,
                       streams: Streams) -> tuple:
    """The mask form of `gold_continuation`: one gold per row of streams.

    A filler's draws are made by the rows whose gold has that filler, and
    its pool draw by those of them that did not take the preferred one.
    Returns (rows, GOLD_MAX_LEN) tokens, padded with 0, and (rows,) lengths.
    """
    def fill(pool, pref, n):
        pool = np.asarray(pool)
        picks = []
        for k in range(2):
            drawn = n > k
            if pref is None:
                picks.append(pool[streams.integers(0, len(pool), drawn)])
            else:
                take_pref = drawn & (streams.random(drawn) < bias)
                picks.append(np.where(take_pref, pref, pool[streams.integers(
                    0, len(pool), drawn & ~take_pref)]))
        return picks

    r_pref = prefers[0] if prefers else None
    a_pref = prefers[1] if len(prefers) > 1 else None
    r_n = streams.integers(1, 3)
    a_n = streams.integers(1, 3)
    r1, r2 = fill(r_pool, r_pref, r_n)
    a1, a2 = fill(a_pool, a_pref, a_n)
    # Each slot goes to its column in a full-length gold less the fillers
    # missing before it; a missing filler's column is then taken by the tag
    # written after it, and the columns from the length on stay 0.
    lengths = 5 + r_n + a_n
    tokens = np.zeros((len(r_n), GOLD_MAX_LEN), dtype=np.int64)
    rows = np.arange(len(r_n))
    for col, tok in ((0, vocab.r_open), (1, r1), (2, r2), (1 + r_n, vocab.r_close),
                     (2 + r_n, vocab.a_open), (3 + r_n, a1), (4 + r_n, a2),
                     (lengths - 2, vocab.a_close), (lengths - 1, vocab.eos)):
        tokens[rows, col] = tok
    return tokens, lengths


def warm_start_golds(task, epochs: int, seed: int, bias: float) -> tuple:
    """Every epoch's golds for the task's items at this filler bias, epoch e's
    drawn from the stream seeded (seed, e) in item order: (epochs, items,
    GOLD_MAX_LEN) tokens in the smallest dtype that holds one, padded with 0,
    and (epochs, items) lengths."""
    seeds = [(seed, epoch) for epoch in range(epochs)]
    streams = Streams(seeds)
    tokens = np.zeros((len(seeds), len(task.items), GOLD_MAX_LEN),
                      dtype=np.min_scalar_type(task.vocab.size))
    lengths = np.zeros(tokens.shape[:2], dtype=np.int64)
    for c, item in enumerate(task.items):
        tokens[:, c], lengths[:, c] = gold_continuations(
            task.vocab, task.principle(item.principle_id).prefers, task.gold_r_pool,
            task.gold_a_pool, bias, streams)
    return tokens, lengths
