"""Checks on the package source itself."""

import ast
import io
import re
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "scatterlab"


def _checked_names(stmt) -> list:
    """The names a module-level statement defines that some other statement
    must read: a private function, class or constant, and an UPPER_CASE
    constant."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [n for n in names if (n.startswith("_") and not n.startswith("__")) or n.isupper()]


def _reads(stmt) -> set:
    """The names a statement reads, bare or as attributes."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(stmt)
            if isinstance(node, ast.Attribute)
            or isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def test_every_private_module_name_is_used():
    # A module-level private name or UPPER_CASE constant that no other
    # statement of the package reads is dead code, such as a tolerance whose
    # rule is gone: tests alone must not keep it alive.
    statements = [(path.name, stmt) for path in sorted(SRC.glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]
    reads = [_reads(stmt) for _, stmt in statements]
    unused = [f"{module}: {name}" for k, (module, stmt) in enumerate(statements)
              for name in _checked_names(stmt)
              if not any(name in r for j, r in enumerate(reads) if j != k)]
    assert unused == []


def _prose(source: str) -> list:
    """The comments and docstrings of a module's source."""
    texts = [tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
             if tok.type == tokenize.COMMENT]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            texts.append(ast.get_docstring(node) or "")
    return texts


def _defined(tree) -> set:
    """The names a module binds anywhere: functions, classes, arguments,
    variables, fields and attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return names


def test_every_private_name_in_prose_is_defined():
    # A _private name that a comment or docstring cites must exist in the
    # package, so that prose naming a function that was renamed or removed
    # fails here rather than misleading its reader.
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    defined = set().union(*(_defined(ast.parse(text)) for text in sources.values()))
    cited = re.compile(r"(?<![\w.])_[A-Za-z]\w*")
    stale = sorted({f"{module}: {name}" for module, text in sources.items()
                    for prose in _prose(text) for name in cited.findall(prose)
                    if name not in defined})
    assert stale == []


def test_only_the_batched_kernel_takes_body_roots():
    # One hit kernel: inside the package only _kind_pass and _hits call the
    # body rules _quadratic and _phi, so no second, scalar hit rule can grow
    # back beside the batched one.
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            name = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            callers |= {f"{path.name}: {name}" for node in ast.walk(stmt)
                        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id in ("_quadratic", "_phi")}
    assert callers == {"geometry.py: _hits", "geometry.py: _kind_pass"}
