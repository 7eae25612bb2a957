"""The synthetic constitution-conditioned task: vocabulary, principles, items and golds.

The task mirrors a strict tag format at token level: a completion is
format-valid iff it is exactly

    R_OPEN <fillers> R_CLOSE A_OPEN <fillers> A_CLOSE

(anchored, one pair of each tag).  Reasoning and answer sections draw from
disjoint filler subsets so a previous-token policy can represent the grammar,
and each principle biases the filler choice inside the tags, making the true
principle statistically identifiable from completions.

A gold is R_OPEN, one or two reasoning fillers, R_CLOSE A_OPEN, one or two
answer fillers, A_CLOSE EOS.  Each filler is the principle's preferred one
with probability `bias`, else uniform over its pool.
There are two forms of the one draw.  `gold_continuation` draws a gold call
by call from a Generator: `make_toy_task` draws its golds this way because
their draws interleave with the prompt draws on one stream.
`gold_continuations` draws one gold per row of a `draws.Streams`, row e as
`gold_continuation` would from `np.random.default_rng(seeds[e])`: the warm
start's golds depend only on the stream seeded (seed, epoch) and the item,
so `warm_start_golds` draws every epoch's in one pass, a row per epoch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .draws import Streams
from .errors import ValidationError

DEFAULT_VOCAB_SIZE = 16
GOLD_MAX_LEN = 9


@dataclass(frozen=True)
class Vocab:
    """Token ids: fillers first, five reserved structure tokens at the top."""

    size: int = DEFAULT_VOCAB_SIZE

    def __post_init__(self):
        if self.size < 8:
            raise ValidationError("vocabulary needs at least 8 tokens")

    @property
    def r_open(self) -> int:
        return self.size - 5

    @property
    def r_close(self) -> int:
        return self.size - 4

    @property
    def a_open(self) -> int:
        return self.size - 3

    @property
    def a_close(self) -> int:
        return self.size - 2

    @property
    def eos(self) -> int:
        return self.size - 1

    @property
    def fillers(self) -> tuple:
        return tuple(range(self.size - 5))

    @property
    def reasoning_fillers(self) -> tuple:
        fillers = self.fillers
        return fillers[:math.ceil(len(fillers) / 2)]

    @property
    def answer_fillers(self) -> tuple:
        fillers = self.fillers
        return fillers[math.ceil(len(fillers) / 2):]


@dataclass(frozen=True)
class ToyPrinciple:
    """A token-pattern principle and the two gold fillers it biases: a
    reasoning one from the task's `gold_r_pool`, then an answer one from its
    `gold_a_pool`."""

    tokens: tuple
    prefers: tuple


@dataclass(frozen=True)
class TaskItem:
    """A prompt, its principle as a column of the task's `principles`, and its gold."""

    prompt: tuple
    column: int
    gold: tuple  # includes the trailing EOS


@dataclass(frozen=True)
class ToyTask:
    """Prompts, a positive principle per prompt (each item's `column` in
    `principles`), and biased gold continuations.

    Principle renderings use marker fillers that never appear in prompts or
    golds; the gold pools are the remaining fillers.  Keeping the supports
    disjoint is what lets a format-only warm start stay principle-agnostic:
    markers receive no gradient until the association terms provide one.
    """

    vocab: Vocab
    principles: tuple          # positive pool, ToyPrinciple
    items: tuple               # TaskItem
    gold_r_pool: tuple
    gold_a_pool: tuple

    @property
    def true_columns(self) -> list:
        """Each item's principle as its index in `principles`."""
        return [item.column for item in self.items]


def gold_filler_pools(vocab: Vocab, patterns) -> tuple:
    """Reasoning/answer filler pools minus every token of the token patterns."""
    used = {t for tokens in patterns for t in tokens}
    r_pool = tuple(t for t in vocab.reasoning_fillers if t not in used)
    a_pool = tuple(t for t in vocab.answer_fillers if t not in used)
    # Degenerate pattern sets that cover a whole pool fall back to sharing it.
    if not r_pool:
        r_pool = vocab.reasoning_fillers
    if not a_pool:
        a_pool = vocab.answer_fillers
    return r_pool, a_pool


def _principles(vocab: Vocab, patterns) -> tuple:
    """Principles of the token patterns, pattern k preferring the k-th filler
    (cyclically) of each gold pool the patterns leave free."""
    r_pool, a_pool = gold_filler_pools(vocab, patterns)
    return tuple(ToyPrinciple(tokens, (r_pool[k % len(r_pool)], a_pool[k % len(a_pool)]))
                 for k, tokens in enumerate(patterns))


def make_toy_principles(vocab: Vocab) -> tuple:
    """The marker-token patterns (i, j, i, j); preferred fillers assigned positionally.

    Markers are the last two fillers of each pool, and i and j run over the
    reasoning and answer markers: four principles, two on an 8-token
    vocabulary, whose answer pool holds one filler.  The remaining fillers
    stay free for prompts and golds.
    """
    return _principles(vocab, [(i, j, i, j) for i in vocab.reasoning_fillers[-2:]
                               for j in vocab.answer_fillers[-2:]])


def principles_from_patterns(vocab: Vocab, patterns) -> tuple:
    """Token-pattern principles from (pid, tokens) pairs; a pid names its
    pattern in error messages only.

    Preferred gold fillers are assigned positionally over the pools left free
    by the patterns, so a principle's identity (its rendering) and the content
    it biases stay on disjoint token supports.
    """
    checked = []
    for pid, tokens in patterns:
        toks = tuple(int(t) for t in tokens)
        if any(t < 0 or t >= vocab.size for t in toks):
            raise ValidationError(f"principle {pid!r} uses out-of-vocab tokens")
        if any(t not in vocab.fillers for t in toks):
            raise ValidationError(f"principle {pid!r} uses reserved tokens")
        checked.append(toks)
    if len(checked) < 2:
        raise ValidationError("need at least two principles for shadows to exist")
    return _principles(vocab, checked)


def make_toy_task(vocab: Vocab | None = None, *, n_items: int = 32, prompt_len: int = 4,
                  bias: float = 0.8, seed: int = 0,
                  principles: tuple | None = None) -> ToyTask:
    """Seeded synthetic task: random prompts, one positive principle each,
    format-valid golds whose fillers lean toward the principle's preferences.

    Item i takes principle i mod the number of principles, which are
    `make_toy_principles`' when `principles` is not given.
    """
    vocab = vocab or Vocab()
    rng = np.random.default_rng(seed)
    if principles is None:
        principles = make_toy_principles(vocab)
    r_pool, a_pool = gold_filler_pools(vocab, [p.tokens for p in principles])
    prompt_pool = r_pool + a_pool
    items = []
    for i in range(n_items):
        prompt = tuple(prompt_pool[j]
                       for j in rng.integers(len(prompt_pool), size=prompt_len).tolist())
        column = i % len(principles)
        gold = gold_continuation(vocab, principles[column].prefers, r_pool, a_pool, bias, rng)
        items.append(TaskItem(prompt, column, gold))
    return ToyTask(vocab, principles, tuple(items), r_pool, a_pool)


def gold_items(task: ToyTask) -> list:
    """(prompt, principle tokens, gold) triples with the biased golds."""
    return [(item.prompt, task.principles[item.column].tokens, item.gold)
            for item in task.items]


def gold_continuation(vocab: Vocab, prefers: tuple, r_pool, a_pool, bias: float,
                      rng: np.random.Generator) -> tuple:
    """One gold, drawn call by call from rng."""
    def fill(pool, pref, n):
        picks = []
        for _ in range(n):
            if rng.random() < bias:
                picks.append(pref)
            else:
                picks.append(int(pool[rng.integers(len(pool))]))
        return picks

    r_pref, a_pref = prefers
    r_n = int(rng.integers(1, 3))
    a_n = int(rng.integers(1, 3))
    toks = ([vocab.r_open] + fill(r_pool, r_pref, r_n)
            + [vocab.r_close, vocab.a_open]
            + fill(a_pool, a_pref, a_n) + [vocab.a_close, vocab.eos])
    return tuple(toks)


def gold_continuations(vocab: Vocab, prefers: tuple, r_pool, a_pool, bias: float,
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
            take_pref = drawn & (streams.random(drawn) < bias)
            picks.append(np.where(take_pref, pref, pool[streams.integers(
                0, len(pool), drawn & ~take_pref)]))
        return picks

    r_pref, a_pref = prefers
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


def warm_start_golds(task: ToyTask, epochs: int, seed: int, bias: float) -> tuple:
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
            task.vocab, task.principles[item.column].prefers, task.gold_r_pool,
            task.gold_a_pool, bias, streams)
    return tokens, lengths
