"""Count the lines of the Python modules under a source tree in four classes.

Each line goes in the first class that applies:

    docstring  inside a module, class or function docstring
    code       holds a token other than a comment or a line break
    comment    holds a comment
    blank      everything else

The classes are disjoint and sum to each file's line count.  Standard
library only; the counted package is never imported.

    python tools/src_lines.py [ROOT]        # ROOT defaults to src/
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

CLASSES = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set:
    """Line numbers spanned by the module's, its classes' and functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_file(path: Path) -> dict:
    source = path.read_text()
    lines = source.splitlines()
    docs = docstring_lines(ast.parse(source, filename=str(path)))
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docs
    comments -= docs | code
    blank = {i for i, line in enumerate(lines, start=1) if not line.strip()} - docs - code
    counts = {"code": len(code), "docstring": len(docs), "comment": len(comments),
              "blank": len(blank)}
    assert sum(counts.values()) == len(lines), f"{path}: classes do not sum to the line count"
    counts["lines"] = len(lines)
    return counts


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0] if argv else "src")
    total = dict.fromkeys(("lines",) + CLASSES, 0)
    print(f"{'module':<40}{'lines':>7}" + "".join(f"{c:>11}" for c in CLASSES))
    for path in sorted(root.rglob("*.py")):
        counts = count_file(path)
        for key in total:
            total[key] += counts[key]
        print(f"{str(path.relative_to(root)):<40}{counts['lines']:>7}"
              + "".join(f"{counts[c]:>11}" for c in CLASSES))
    print(f"{'total':<40}{total['lines']:>7}" + "".join(f"{total[c]:>11}" for c in CLASSES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
