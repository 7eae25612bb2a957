"""The scalar draws of `np.random.default_rng(seed)` for many seeds at once.

`Streams(seeds)` makes the `random()` and `integers(lo, hi)` draws of
`np.random.default_rng(seeds[e])` on row e, bit for bit.  It reads blocks of
raw 64-bit words from `np.random.PCG64(seed)` and spends them as numpy's
Generator does:

- `random()`: a double from the top 53 bits of one word.
- `integers(lo, hi)`: Lemire's bounded draw on 32-bit halves (Lemire 2019,
  arXiv:1805.10941), rejecting a product whose low half falls below
  2**32 mod span.  PCG64 hands out a word's low half first and keeps the
  high half for the next 32-bit draw; a `random()` in between uses a whole
  new word and leaves that half in place.  A span of one value draws
  nothing.

A call takes a mask of the rows that draw, so rows whose sequences of calls
differ only in which draws they skip run in lockstep, and a loop of n draws
costs n numpy calls whatever the number of rows.  The arithmetic is int64,
so a span must be below 2**31.  Halves and a double's 53 bits come off a
word's int64 view with >> and % by a power of two (floor modulo keeps the
low bits of a negative view), not &: int64 & maps 64 KiB of numpy's loops
that no other step uses.  Rows keep their unspent words in one (rows, 192)
block, sized to one epoch's warm-start golds: those spend 145-190 words a
row at the seeds measured, so a row seldom refills, and 200 rows of 192
words stay within the warm start's memory test (256 would not).  A row that
spends its block rebuilds its stream as `PCG64(seed)` advanced past the
words already drawn, since a PCG64 object holds about 4.5 kB.
"""
from __future__ import annotations

import operator

import numpy as np

_BLOCK = 192                    # raw words fetched per refill
_SPAN_MAX = 1 << 32             # the values of a 32-bit half
_STREAMS_SPAN_MAX = 1 << 31     # half * span stays below 2**63
_DOUBLE_SPAN = 1 << 53          # random() keeps 53 bits of a word
_TO_DOUBLE = 1.0 / 9007199254740992.0


class Streams:
    """Row e makes the draws of default_rng(seeds[e]); the rows draw in lockstep.

    Each call returns one value per row.  `where` (a boolean row mask,
    default every row) names the rows that draw; the others spend nothing,
    and their entries are not draws.
    """

    __slots__ = ("_seeds", "_blocks", "_words", "_flat", "_base", "_pos",
                 "_upper", "_has_upper", "_all")

    def __init__(self, seeds):
        rows = len(seeds)
        self._words = np.empty((rows, _BLOCK), dtype=np.int64)
        self._flat = self._words.reshape(-1)
        self._base = np.arange(rows) * _BLOCK
        self._pos = np.zeros(rows, dtype=np.int64)          # next unspent word
        self._upper = np.zeros(rows, dtype=np.int64)        # buffered high half
        self._has_upper = np.zeros(rows, dtype=bool)
        self._all = np.ones(rows, dtype=bool)
        self._seeds = list(seeds)
        self._blocks = [0] * rows       # blocks each row has drawn
        for row in range(rows):
            self._fill(row)

    def _fill(self, row: int) -> None:
        """Draw the row's next block from its stream, rebuilt and advanced
        past the row's earlier blocks."""
        bitgen = np.random.PCG64(self._seeds[row])
        if self._blocks[row]:
            bitgen.advance(self._blocks[row] * _BLOCK)
        self._words[row] = bitgen.random_raw(_BLOCK).view(np.int64)
        self._blocks[row] += 1
        self._pos[row] = 0

    def _take(self, where) -> np.ndarray:
        """The next word of every row; the rows in where spend theirs."""
        words = self._flat[self._base + self._pos]
        self._pos += where
        spent = self._pos == _BLOCK
        if spent.any():
            for row in np.flatnonzero(spent).tolist():
                self._fill(row)
        return words

    def _halves(self, where) -> np.ndarray:
        """A 32-bit half for each row in where: the buffered high half if the
        row holds one, else the low half of a new word, whose high half is
        then buffered."""
        fresh = where & ~self._has_upper
        words = self._take(fresh)
        halves = np.where(fresh, words % _SPAN_MAX, self._upper)
        self._upper = np.where(fresh, (words >> 32) % _SPAN_MAX, self._upper)
        self._has_upper ^= where
        return halves

    def random(self, where=None) -> np.ndarray:
        """Doubles in [0, 1) from whole words, as Generator.random."""
        words = self._take(self._all if where is None else where)
        return (words >> 11) % _DOUBLE_SPAN * _TO_DOUBLE

    def integers(self, low: int, high: int, where=None) -> np.ndarray:
        """int64 draws on [low, high), as Generator.integers; a product in
        Lemire's rejection zone is drawn again for its row only."""
        low = operator.index(low)
        span = operator.index(high) - low
        if not 1 <= span < _STREAMS_SPAN_MAX:
            raise ValueError(f"integers({low}, {high}): the span must be in [1, 2**31)")
        if span == 1:
            return np.full(len(self._pos), low, dtype=np.int64)
        threshold = _SPAN_MAX % span
        where = self._all if where is None else where
        products = self._halves(where) * span
        if threshold:       # a span that divides 2**32 rejects nothing
            rejected = where & (products % _SPAN_MAX < threshold)
            while rejected.any():
                products = np.where(rejected, self._halves(rejected) * span, products)
                rejected &= products % _SPAN_MAX < threshold
        return low + (products >> 32)
