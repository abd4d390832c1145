import ast
from pathlib import Path

import zetamoments

# module tables rebound by `global`, each keyed on its whole identity: the
# sieve on its limit, the log table on n for log n
REBOUND = {("primes", "_SHARED"), ("zetafn", "_LOGN")}


def _modules():
    src = Path(zetamoments.__file__).resolve().parent
    return {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}


def test_no_memo_keyed_on_object_identity():
    # id() names an object only while it lives; a memo keyed on it outlives it
    calls = [f"{name}.py:{node.lineno}" for name, tree in _modules().items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "id"]
    assert calls == []


def test_only_the_known_tables_are_rebound():
    rebound = {(name, target) for name, tree in _modules().items()
               for node in ast.walk(tree) if isinstance(node, ast.Global)
               for target in node.names}
    assert rebound <= REBOUND
