"""Source hygiene: every module-level import in `src/semicap` is used."""
import ast
from pathlib import Path

import semicap

SRC = Path(semicap.__file__).parent
# `__init__` imports only to re-export, and the benchmark's tracer patches
# `scs_model.empirical_distribution` and `validation.empirical_distribution`,
# which the modules themselves do not call.
ALLOWED = {("scs_model", "empirical_distribution"),
           ("validation", "empirical_distribution")}


def _unused_imports(tree: ast.Module) -> set:
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:  # names listed in __all__ are exported, so used
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts}
    return imported - used


def test_no_unused_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.stem != "__init__")
    assert modules
    unused = {(p.stem, name) for p in modules
              for name in _unused_imports(ast.parse(p.read_text(encoding="utf-8")))}
    assert unused <= ALLOWED, sorted(unused - ALLOWED)
