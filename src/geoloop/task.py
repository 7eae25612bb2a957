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
their draws interleave with the prompt draws on one stream.  The warm start's
golds depend only on the stream seeded (seed, epoch) and the item, so
`warm_start_golds` decodes every epoch's at once from the raw words of each
epoch's PCG64, a row per epoch, spending them as the Generator would.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

DEFAULT_VOCAB_SIZE = 16
# The toy task of every command: items, prompt length and gold bias.
TASK_ITEMS = 32
PROMPT_LEN = 2
TASK_BIAS = 0.8
GOLD_MAX_LEN = 9
_WORD_BLOCK = 192               # raw words an epoch's stream hands out at a time
_HALF = 1 << 32                 # the values of a 32-bit half
_DOUBLE_SPAN = 1 << 53          # random() keeps 53 bits of a word


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


def check_pattern(vocab: Vocab, pid, tokens) -> tuple:
    """The pattern's tokens as ints, refused naming `pid` unless every one is
    a filler of `vocab`."""
    toks = tuple(int(t) for t in tokens)
    if any(t < 0 or t >= vocab.size for t in toks):
        raise ValidationError(f"principle {pid!r} uses out-of-vocab tokens")
    if any(t not in vocab.fillers for t in toks):
        raise ValidationError(f"principle {pid!r} uses reserved tokens")
    return toks


def principles_from_patterns(vocab: Vocab, patterns) -> tuple:
    """Token-pattern principles from (pid, tokens) pairs, each checked by
    `check_pattern`; a pid names its pattern in error messages only.

    Preferred gold fillers are assigned positionally over the pools left free
    by the patterns, so a principle's identity (its rendering) and the content
    it biases stay on disjoint token supports.
    """
    checked = [check_pattern(vocab, pid, tokens) for pid, tokens in patterns]
    if len(checked) < 2:
        raise ValidationError("need at least two principles for shadows to exist")
    return _principles(vocab, checked)


def make_toy_task(vocab: Vocab | None = None, *, n_items: int = TASK_ITEMS,
                  prompt_len: int = PROMPT_LEN, bias: float = TASK_BIAS, seed: int = 0,
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


def warm_start_golds(task: ToyTask, epochs: int, seed: int, bias: float) -> tuple:
    """Every epoch's golds for the task's items at this filler bias, epoch e's
    as `gold_continuation` draws them from default_rng((seed, e)), in item
    order: (epochs, items, GOLD_MAX_LEN) tokens in the smallest dtype that
    holds one, padded with 0, and (epochs, items) lengths.

    The epochs draw in lockstep, a row each, from the raw 64-bit words of
    `PCG64((seed, e))`, which they spend as numpy's Generator does:

    - `random()`: a double from the top 53 bits of one word.
    - `integers(span)`: Lemire's bounded draw on 32-bit halves (Lemire 2019,
      arXiv:1805.10941), rejecting a product whose low half falls below
      2**32 mod span.  PCG64 hands out a word's low half first and keeps the
      high half for the next 32-bit draw; a `random()` in between uses a
      whole new word and leaves that half in place.  A span of one value
      draws nothing.

    A draw is made by the rows whose gold makes it: a filler's draws by the
    rows whose gold has that filler, its pool draw by those of them that did
    not take the preferred one.  Halves and a double's 53 bits come off a
    word's int64 view with >> and % by a power of two (floor modulo keeps
    the low bits of a negative view), not &: int64 & maps 64 KiB of numpy's
    loops that no other step uses.  Rows keep their unspent words in one
    (epochs, _WORD_BLOCK) block, sized to one epoch's golds: those spend
    145-190 words at the seeds measured, so a row seldom refills, and 200
    rows of 192 words stay within the warm start's memory test (256 would
    not).  A row that spends its block rebuilds its stream as
    PCG64((seed, e)) advanced past the words already drawn, since a PCG64
    object holds about 4.5 kB.
    """
    rows = np.arange(epochs)
    words = np.empty((epochs, _WORD_BLOCK), dtype=np.int64)
    flat, base = words.reshape(-1), rows * _WORD_BLOCK
    pos = np.zeros(epochs, dtype=np.int64)          # each row's next unspent word
    upper = np.zeros(epochs, dtype=np.int64)        # its buffered high half
    has_upper = np.zeros(epochs, dtype=bool)
    drawn = [0] * epochs                            # the words each row has read

    def refill(row):
        bitgen = np.random.PCG64((seed, row))
        if drawn[row]:
            bitgen.advance(drawn[row])
        words[row] = bitgen.random_raw(_WORD_BLOCK).view(np.int64)
        drawn[row] += _WORD_BLOCK
        pos[row] = 0

    def take(where):
        """Every row's next word; the rows in where spend theirs."""
        nonlocal pos
        got = flat[base + pos]
        pos += where
        spent = pos == _WORD_BLOCK
        if spent.any():
            for row in np.flatnonzero(spent).tolist():
                refill(row)
        return got

    def half(where):
        """A 32-bit half for each row in where: the buffered high half if the
        row holds one, else the low half of a new word, whose high half is
        then buffered."""
        nonlocal upper, has_upper
        fresh = where & ~has_upper
        got = take(fresh)
        halves = np.where(fresh, got % _HALF, upper)
        upper = np.where(fresh, (got >> 32) % _HALF, upper)
        has_upper ^= where
        return halves

    def below(span, where):
        """Draws on [0, span) for the rows in where."""
        if span == 1:
            return np.zeros(epochs, dtype=np.int64)
        threshold = _HALF % span
        products = half(where) * span
        if threshold:       # a span that divides 2**32 rejects nothing
            rejected = where & (products % _HALF < threshold)
            while rejected.any():
                products = np.where(rejected, half(rejected) * span, products)
                rejected &= products % _HALF < threshold
        return products >> 32

    for row in range(epochs):
        refill(row)
    vocab, every = task.vocab, np.ones(epochs, dtype=bool)
    pools = np.asarray(task.gold_r_pool), np.asarray(task.gold_a_pool)
    tokens = np.zeros((epochs, len(task.items), GOLD_MAX_LEN),
                      dtype=np.min_scalar_type(vocab.size))
    lengths = np.zeros(tokens.shape[:2], dtype=np.int64)
    for c, item in enumerate(task.items):
        counts = 1 + below(2, every), 1 + below(2, every)
        picks = []
        for pool, pref, n in zip(pools, task.principles[item.column].prefers, counts):
            for k in range(2):
                drawing = n > k
                take_pref = drawing & ((take(drawing) >> 11) % _DOUBLE_SPAN / _DOUBLE_SPAN < bias)
                picks.append(np.where(take_pref, pref,
                                      pool[below(len(pool), drawing & ~take_pref)]))
        # Each slot goes to its column in a full-length gold less the fillers
        # missing before it; a missing filler's column is then taken by the tag
        # written after it, and the columns from the length on stay 0.
        (r1, r2, a1, a2), (r_n, a_n) = picks, counts
        lengths[:, c] = length = 5 + r_n + a_n
        gold = tokens[:, c]
        for col, tok in ((0, vocab.r_open), (1, r1), (2, r2), (1 + r_n, vocab.r_close),
                         (2 + r_n, vocab.a_open), (3 + r_n, a1), (4 + r_n, a2),
                         (length - 2, vocab.a_close), (length - 1, vocab.eos)):
            gold[rows, col] = tok
    return tokens, lengths
