"""The scalar draws of `np.random.default_rng(seed)`, bit for bit, at less cost.

`Stream(seed)` reads blocks of raw 64-bit words from `np.random.PCG64(seed)`
and spends them as numpy's Generator does for the draws this package makes
one at a time:

- `random()`: a double from the top 53 bits of one word.
- `integers(n)`, `integers(lo, hi)`: Lemire's bounded draw on 32-bit halves
  (Lemire 2019, arXiv:1805.10941), rejecting a product whose low half falls
  below 2**32 mod span.  PCG64 hands out a word's low half first and keeps
  the high half for the next 32-bit draw; a `random()` in between uses a
  whole new word and leaves that half in place.  A span of one value draws
  nothing.
- `choice(n, size=k, replace=False)`: Floyd's sampling without replacement,
  one bounded draw on [0, j] for j = n-k .. n-1 (j itself when the draw is
  already taken), then a Fisher-Yates shuffle of the k picks, i = k-1 .. 1.
  With replacement: k bounded draws on [0, n).

Anything else raises: a span of 2**32 or more (numpy switches to 64-bit
draws), a population above 10 000 without replacement (numpy may switch to a
tail shuffle), weights (`p=`), or a size other than a count.  Vector draws
stay with np.random.Generator, whose cost for a scalar draw is almost all
per-call overhead: with numpy 2.4.6 on a 2-core x86-64 VM (timeit), a
bounded integer takes about 2.7 us there and 1.0 us here, and a 2-of-31
choice about 14 us and 4.5 us.

`Streams(seeds)` makes the same `random()` and `integers(lo, hi)` draws for
many seeds at once, one row per seed: row e is `Stream(seeds[e])` bit for
bit.  A call takes a mask of the rows that draw, so rows whose sequences of
calls differ only in which draws they skip run in lockstep, and a loop of n
draws costs n numpy calls whatever the number of rows.  The arithmetic is
int64, so a span must be below 2**31.  Halves and a double's 53 bits come
off a word's int64 view with >> and % by a power of two (floor modulo keeps
the low bits of a negative view), not &: int64 & maps 64 KiB of numpy's
loops that no other step uses.  Rows keep their unspent words in one
(rows, 64) block; a row that spends its block reloads its PCG64 state into a
single shared generator, since a PCG64 object holds about 4.5 kB.
"""
from __future__ import annotations

import operator

import numpy as np

_BLOCK = 64            # raw words fetched per refill
_SPAN_MAX = 1 << 32    # spans from here on use numpy's 64-bit path
_FLOYD_MAX = 10_000    # larger populations may use numpy's tail shuffle
_TO_DOUBLE = 1.0 / 9007199254740992.0


class Stream:
    """The scalar draws of np.random.default_rng(seed), as Python numbers."""

    __slots__ = ("_bitgen", "_words", "_upper")

    def __init__(self, seed):
        self._bitgen = np.random.PCG64(seed)
        self._words = iter(())
        self._upper = None     # the buffered high half of a word, if any

    def _next64(self) -> int:
        word = next(self._words, None)
        if word is None:
            self._words = iter(self._bitgen.random_raw(_BLOCK).tolist())
            word = next(self._words)
        return word

    def _below(self, span: int) -> int:
        """Uniform on [0, span), 1 <= span < 2**32, as numpy bounds it.

        A product whose low half is below 2**32 mod span is drawn again
        (numpy computes that modulo only when the low half is below span,
        which the modulo never exceeds, so the test is the same)."""
        if span == 1:
            return 0
        threshold = _SPAN_MAX % span
        while True:
            half = self._upper
            if half is None:
                word = self._next64()
                self._upper = word >> 32
                half = word & 0xFFFFFFFF
            else:
                self._upper = None
            m = half * span
            if (m & 0xFFFFFFFF) >= threshold:
                return m >> 32

    def random(self) -> float:
        return (self._next64() >> 11) * _TO_DOUBLE

    def integers(self, low: int, high: int | None = None) -> int:
        """Uniform on [0, low) or [low, high), as Generator.integers."""
        if high is None:
            low, high = 0, low
        low = operator.index(low)
        span = operator.index(high) - low
        if not 1 <= span < _SPAN_MAX:
            raise ValueError(f"integers({low}, {high}): the span must be in [1, 2**32)")
        return low + self._below(span)

    def choice(self, n: int, size: int, replace: bool = True) -> list:
        """k = size draws from range(n), as Generator.choice(n, size, replace)."""
        n, size = operator.index(n), operator.index(size)
        if size < 0:
            raise ValueError("size must be nonnegative")
        if size and not 1 <= n < _SPAN_MAX:
            raise ValueError(f"choice over {n} values: n must be in [1, 2**32)")
        if replace:
            return [self._below(n) for _ in range(size)]
        if size > n:
            raise ValueError("cannot take a larger sample than the population "
                             "without replacement")
        if n > _FLOYD_MAX:
            raise ValueError(f"choice without replacement over {n} > {_FLOYD_MAX} values")
        picks = []
        taken = set()
        for j in range(n - size, n):
            val = self._below(j + 1)
            if val in taken:
                val = j
            taken.add(val)
            picks.append(val)
        for i in range(size - 1, 0, -1):
            j = self._below(i + 1)
            picks[i], picks[j] = picks[j], picks[i]
        return picks


_STREAMS_SPAN_MAX = 1 << 31     # half * span stays below 2**63
_DOUBLE_SPAN = 1 << 53          # random() keeps 53 bits of a word


class Streams:
    """Row e makes the draws of Stream(seeds[e]); the rows draw in lockstep.

    Each call returns one value per row.  `where` (a boolean row mask,
    default every row) names the rows that draw; the others spend nothing,
    and their entries are not draws.
    """

    __slots__ = ("_bitgen", "_states", "_words", "_flat", "_base", "_pos",
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
        self._states = [None] * rows    # each row's PCG64 (state, inc) after its last block
        self._bitgen = None
        for row, seed in enumerate(seeds):
            self._bitgen = np.random.PCG64(seed)
            self._fill(row)

    def _fill(self, row: int) -> None:
        """Draw the row's next block from the shared generator, which holds
        the row's state, and keep the state it leaves."""
        self._words[row] = self._bitgen.random_raw(_BLOCK).view(np.int64)
        pcg = self._bitgen.state["state"]
        self._states[row] = (pcg["state"], pcg["inc"])
        self._pos[row] = 0

    def _refill(self, row: int) -> None:
        state, inc = self._states[row]
        self._bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                              "has_uint32": 0, "uinteger": 0}
        self._fill(row)

    def _take(self, where) -> np.ndarray:
        """The next word of every row; the rows in where spend theirs."""
        words = self._flat[self._base + self._pos]
        self._pos += where
        spent = self._pos == _BLOCK
        if spent.any():
            for row in np.flatnonzero(spent).tolist():
                self._refill(row)
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
        """Doubles in [0, 1) from whole words, as Stream.random."""
        words = self._take(self._all if where is None else where)
        return (words >> 11) % _DOUBLE_SPAN * _TO_DOUBLE

    def integers(self, low: int, high: int, where=None) -> np.ndarray:
        """int64 draws on [low, high), as Stream.integers; a product in
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
        rejected = where & (products % _SPAN_MAX < threshold)
        while rejected.any():
            products = np.where(rejected, self._halves(rejected) * span, products)
            rejected &= products % _SPAN_MAX < threshold
        return low + (products >> 32)
