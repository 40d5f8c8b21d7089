"""Module boundaries: no package module imports another one's private names,
and every module exports only names it defines."""

import ast
import importlib
from pathlib import Path

import liouville_mellin

PACKAGE = Path(liouville_mellin.__file__).parent


def _private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("liouville_mellin"):
            continue  # numpy, the standard library
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append(f"{path.name}:{node.lineno} imports {name} from {node.module}")
    return found


def test_no_module_imports_private_names_of_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    assert [hit for m in modules for hit in _private_imports(m)] == []


def test_every_exported_name_exists():
    stale = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__main__":
            continue  # runs the CLI on import
        suffix = "" if path.stem == "__init__" else f".{path.stem}"
        module = importlib.import_module(f"liouville_mellin{suffix}")
        stale += [f"{path.name}: {name}" for name in getattr(module, "__all__", ())
                  if not hasattr(module, name)]
    assert stale == []
