"""tools/src_lines.py: each line in exactly one of four classes."""
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

SAMPLE = '''"""Module docstring.

Its blank line counts as docstring.
"""
import math  # a trailing comment leaves the line code

# a comment-only line


def f(x):
    """One-line docstring."""
    text = """a string that is

    not a docstring"""
    return math.sqrt(x) + len(text)


class C:
    """Class
    docstring."""
    \t
'''


def test_classes_are_disjoint_and_sum_to_the_line_count(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    counts = src_lines.count_file(path)
    assert counts == {"docstring": 7, "code": 7, "comment": 1, "blank": 6, "lines": 21}
