"""Every public function and class of the package is used outside the unit
tests, and every name the benchmark harness and the tools read off it exists.

A public name counts as used when the package itself (``__init__`` aside,
which re-exports everything), the benchmark harness in ``perfbench/`` or a
script in ``tools/`` refers to it, or when the acceptance criteria import
it. Anything else is API that only unit tests keep alive.
"""

import ast
import types
from pathlib import Path

import tailfed
import tailfed.cli  # as the harness imports it: the package does not

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


def package_reads(tree: ast.Module) -> set[str]:
    """Dotted names read off the package: chains on ``tf``, ``self.tf`` or
    ``tailfed`` (``tf.cli.main`` is ``cli.main``), and ``from tailfed... import``."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tailfed":
            prefix = node.module.partition(".")[2]
            reads.update(f"{prefix}.{alias.name}".lstrip(".") for alias in node.names)
        if not isinstance(node, ast.Attribute):
            continue
        chain, base = [], node
        while isinstance(base, ast.Attribute):
            chain.insert(0, base.attr)
            base = base.value
        if isinstance(base, ast.Name) and base.id in ("tf", "tailfed"):
            reads.add(".".join(chain))
        elif isinstance(base, ast.Name) and base.id == "self" and chain[0] == "tf" and len(chain) > 1:
            reads.add(".".join(chain[1:]))
    return reads


def test_every_name_the_harness_and_tools_read_off_the_package_exists():
    # A name deleted from src that the benchmark harness still reads would
    # otherwise first show as a failed benchmark run.
    files = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))
    reads = set().union(*(package_reads(parse(p)) for p in files))
    assert {"cli.main", "table_from_population", "secure_quantile_for_round"} <= reads
    missing = []
    for name in sorted(reads):
        obj = tailfed
        for part in name.split("."):
            # Past the package's modules, the chain reads an object's own attributes.
            if not isinstance(obj, types.ModuleType):
                break
            if not hasattr(obj, part):
                missing.append(name)
                break
            obj = getattr(obj, part)
    assert missing == []
