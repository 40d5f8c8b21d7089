"""Module boundaries: no package module imports another one's private names."""

import ast
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
