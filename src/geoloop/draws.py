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
