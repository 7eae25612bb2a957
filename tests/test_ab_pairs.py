"""tools/ab_pairs.py: the pair rule's verdict."""
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)

BASE = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.0]


def test_quartiles_interpolate_linearly():
    assert ab_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab_pairs.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)
    assert ab_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


@pytest.mark.parametrize("change, better, expected", [
    # Every pair 5% lower: a gain.
    ([0.95 * b for b in BASE], "lower", (10, True)),
    # The same values where higher is better: no pair won.
    ([0.95 * b for b in BASE], "higher", (0, False)),
    # Nine wins and a tie: 9 of 10 suffices; the tie counts for neither.
    ([0.95 * b for b in BASE[:9]] + [BASE[9]], "lower", (9, True)),
    # Eight wins and two losses: short of nine tenths.
    ([0.95 * b for b in BASE[:8]] + [b + 1.0 for b in BASE[8:]], "lower", (8, False)),
    # Every pair 0.1% lower: the medians differ by less than the base's
    # quartile distance (0.15).
    ([0.999 * b for b in BASE], "lower", (10, False)),
    # Fewer than ten pairs claim nothing.
    ([0.95 * b for b in BASE[:9]], "lower", (9, False)),
])
def test_verdict(change, better, expected):
    assert ab_pairs.verdict(BASE[:len(change)], change, better) == expected
