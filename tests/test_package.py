"""Package-wide properties of the ``qsing`` sources."""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

from qsing import linalg, toric

SRC = Path(__file__).resolve().parent.parent / "src" / "qsing"


def test_imports_only_the_standard_library():
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "qsing" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno}: {name}")
    assert outside == []


def _parser_tokens(path: Path) -> int:
    """Tokens the parser reads: every token but comments and non-logical newlines."""
    with path.open(encoding="utf-8") as f:
        skipped = (tokenize.COMMENT, tokenize.NL)
        return sum(tok.type not in skipped for tok in tokenize.generate_tokens(f.readline))


def test_every_module_below_the_token_step():
    # CPython 3.11's parser doubles its token array when a module passes
    # 2^13 tokens, which shows in the compile peak of every fresh import
    counts = {path.name: _parser_tokens(path) for path in sorted(SRC.glob("*.py"))}
    assert all(n < 8192 for n in counts.values()), counts


def _imports_linalg(node: ast.AST) -> bool:
    """Whether ``node`` is an import statement of a library module that imports ``qsing.linalg``."""
    if isinstance(node, ast.Import):
        return any(alias.name == "qsing.linalg" for alias in node.names)
    if not isinstance(node, ast.ImportFrom):
        return False
    module = ("qsing." if node.level else "") + (node.module or "")
    names = {alias.name for alias in node.names}
    return module == "qsing.linalg" or module.rstrip(".") == "qsing" and "linalg" in names


def test_references_live_in_linalg():
    assert toric.hilbert_basis is linalg.hilbert_basis
    assert toric.semigroup_isomorphism is linalg.semigroup_isomorphism
    importers = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _imports_linalg(node)
    ]
    assert importers == ["toric.py"]
