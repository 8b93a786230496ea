"""Size and reach of the `skewalg` sources, with the standard library only.

    python3 tools/srcstats.py lines        # wc -l and code-only lines per module
    python3 tools/srcstats.py unreached    # src/ statements tier-1 never runs
    python3 tools/srcstats.py uncalled     # src/ definitions no src/ code names

`lines` counts a line as code if a token other than a comment or a line
break lies on it and it is not part of a docstring (the string statement
that opens a module, class or function body).  Blank lines, comments and
docstrings are dropped, so a docstring proof and a line of code are not
weighed alike.

`unreached` runs the tier-1 suite (`pytest -q tests`) in this process under
a `sys.settrace` line tracer and lists every statement of `src/skewalg`
that never ran, as `path:line: first line of the statement`.  A statement
counts as run when a line event fires on one of its own lines: its lines
and decorators minus those of the statements nested in it.  Code that
tier-1 runs only in a child process (`python -m skewalg`) is not seen.
Every traced line costs a Python call, so it runs about five times as
long as the plain suite.

`uncalled` lists every function, method and class defined in
`src/skewalg` whose name no code there refers to, as `path:line:
Class.name`.  References are read from the syntax tree: names, attribute
names and imported names, but not docstrings or comments, and not the
imports of `__init__.py`, which only re-export.  A method counts as
referenced only through an attribute (`x.name`), so a local variable of
the same name does not hide it.  Dunder methods are skipped.  The scan
works by name alone, so a definition whose name is also used for something
else (an attribute such as `identity` or `element`) counts as referenced.
It exits 1 when it lists any definition, so dead API can fail a run.
"""

from __future__ import annotations

import ast
import io
import sys
import threading
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "skewalg"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _modules() -> list:
    return sorted(PACKAGE.glob("*.py"))


def _docstrings(tree) -> list:
    """The docstring statements of a module, class or function body."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.append(first)
    return out


def _lines_of(node) -> set:
    return set(range(node.lineno, node.end_lineno + 1))


def code_lines(text: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for doc in _docstrings(ast.parse(text)):
        lines -= _lines_of(doc)
    return len(lines)


def cmd_lines() -> None:
    total_wc = total_code = 0
    print("%7s %7s  module" % ("wc -l", "code"))
    for path in _modules():
        text = path.read_text(encoding="utf-8")
        wc, code = text.count("\n"), code_lines(text)
        total_wc += wc
        total_code += code
        print("%7d %7d  %s" % (wc, code, path.relative_to(ROOT)))
    print("%7d %7d  total" % (total_wc, total_code))


def statements(text: str) -> list:
    """(first line, own lines) of every statement but the docstrings."""
    tree = ast.parse(text)
    docs = {id(d) for d in _docstrings(tree)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docs:
            continue
        own = _lines_of(node)
        for deco in getattr(node, "decorator_list", ()):
            own |= _lines_of(deco)
        for child in ast.walk(node):
            if child is not node and isinstance(child, ast.stmt):
                own -= _lines_of(child)
        out.append((node.lineno, own))
    return sorted(out, key=lambda s: s[0])


def cmd_unreached() -> int:
    sys.path.insert(0, str(SRC))
    prefix = str(PACKAGE) + "/"
    ran: dict = {}          # file name -> set of line numbers

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set())
        return local

    import pytest
    # the statements are read before the run, from the text that runs
    texts = {path: path.read_text(encoding="utf-8") for path in _modules()}
    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for path, text in texts.items():
        seen = ran.get(str(path), set())
        source = text.splitlines()
        for first, own in statements(text):
            if not own & seen:
                missed += 1
                print("%s:%d: %s" % (path.relative_to(ROOT), first,
                                     source[first - 1].strip()))
    print("%d statements never ran (pytest exit status %d)" % (missed, status))
    return 0 if status == 0 else 1


def cmd_uncalled() -> int:
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in _modules()}
    names, attributes = set(), set()
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)) and path.name != "__init__.py":
                names.update(alias.name.rpartition(".")[2] for alias in node.names)

    def definitions(node, owner):
        """(definition, qualified name, whether it is a method) of every
        definition inside node."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield child, owner + child.name, isinstance(node, ast.ClassDef)
                yield from definitions(child, owner + child.name + ".")
            else:
                yield from definitions(child, owner)

    missed = 0
    for path, tree in trees.items():
        for node, qualname, method in definitions(tree, ""):
            name = node.name
            used = attributes if method else names | attributes
            if not (name.startswith("__") and name.endswith("__")) and name not in used:
                missed += 1
                print("%s:%d: %s" % (path.relative_to(ROOT), node.lineno, qualname))
    print("%d definitions never named in src/" % missed)
    return 1 if missed else 0


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args == ["lines"]:
        cmd_lines()
        return 0
    if args == ["unreached"]:
        return cmd_unreached()
    if args == ["uncalled"]:
        return cmd_uncalled()
    print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
