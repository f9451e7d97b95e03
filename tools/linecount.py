"""Count a package's lines: total, code, docstring plus comment, blank.

    python tools/linecount.py [directory]      # default: src/greyimpute

Every line of the directory's ``*.py`` files falls in one class. A line of
a docstring (the string that opens a module, class or function body),
blank lines inside it included, or a line holding only a comment, is
docstring or comment. Any other line holding a token is code. What is
left is blank. The classes add up to the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    docs = docstring_lines(ast.parse(source))
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docs
    total = len(source.splitlines())
    notes = len(docs | (comments - code))
    return {"total": total, "code": len(code), "docstring+comment": notes,
            "blank": total - len(code) - notes}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0] if args else "src/greyimpute")
    sums: dict[str, int] = {}
    for path in sorted(root.glob("*.py")):
        for key, value in count(path.read_text(encoding="utf-8")).items():
            sums[key] = sums.get(key, 0) + value
    for key, value in sums.items():
        print(f"{key:18s} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
