"""The reference that the tests compare the program with stays apart from it."""

import ast
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent


def test_oracle_is_the_bench_module_and_imports_only_the_standard_library():
    path = Path(oracle.__file__).resolve()
    assert path == ROOT / "bench" / "oracle.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported <= {"__future__", "fractions", "math"}
