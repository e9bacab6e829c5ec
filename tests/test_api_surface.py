"""Every public function and class of the package is used outside the unit tests.

A public name counts as used when the package itself (``__init__`` aside,
which re-exports everything), the benchmark harness in ``perfbench/`` or a
script in ``tools/`` refers to it, or when the acceptance criteria import
it. Anything else is API that only unit tests keep alive.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tailfed"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def referenced_names(trees) -> set[str]:
    """Every Name id, Attribute attr and imported name in the trees."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_has_a_caller_outside_the_unit_tests():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    callers = modules + sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))
    used = referenced_names(parse(p) for p in callers)
    acceptance = parse(ROOT / "tests" / "test_acceptance.py")
    used |= {
        alias.name for node in ast.walk(acceptance) if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    unused = [
        f"{path.stem}.{node.name}"
        for path in modules
        for node in parse(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
    ]
    assert unused == []
