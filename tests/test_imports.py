"""Module boundaries: no package module imports another one's private names,
every module exports only names it defines, no private name is left unused,
every error class is raised somewhere, no public evaluator or verify group
takes a configuration object, and the CLI starts without the modules the
package imports only on first use."""

import ast
import importlib
import inspect
import subprocess
import sys
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


def test_no_unused_private_names():
    # a module-level _name that nothing in the package references is dead code
    defined, used = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.endswith("__"):
                    defined[name] = f"{path.name}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(f"{where} {name}" for name, where in defined.items()
                  if name not in used) == []


def test_every_error_class_is_raised():
    # an exception class that no `raise X(` in the package names, and that no
    # raised class derives from, is dead code
    raised = {node.exc.func.id
              for path in sorted(PACKAGE.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
              and isinstance(node.exc.func, ast.Name)}
    errors = importlib.import_module("liouville_mellin.errors")
    classes = {name: cls for name, cls in vars(errors).items()
               if isinstance(cls, type) and cls.__module__ == errors.__name__}
    live = [classes[name] for name in raised & classes.keys()]
    assert live
    assert sorted(name for name, cls in classes.items()
                  if not any(issubclass(r, cls) for r in live)) == []


def test_no_public_function_takes_a_configuration():
    # every layer below the CLI derives its budgets, depths and node layout itself
    banned = {"config", "eval_config", "kernel_config", "spec"}
    found = []
    for stem in ("special", "zeta_family", "kernels", "quadrature", "verify"):
        module = importlib.import_module(f"liouville_mellin.{stem}")
        for name in module.__all__:
            obj = getattr(module, name)
            if callable(obj):
                found += [f"{stem}.{name}({p})" for p in inspect.signature(obj).parameters
                          if p in banned]
    assert found == []


def test_cli_leaves_the_run_rules_to_verify():
    # verify owns the grid rules and the manifest's settings: the CLI imports
    # nothing from quadrature and none of the names those rules are made of
    imported = {(node.module, alias.name)
                for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text()))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert [name for module, name in imported if "quadrature" in (module or name)] == []
    assert {name for _, name in imported} & {"DEFAULT_EVAL_CONFIG", "config_for_table",
                                             "GRID_GROUPS", "theorem2_max_x"} == set()


def test_cli_import_leaves_lazy_modules_unloaded():
    # `cli --version` pays for the package import on every start: Gauss nodes
    # import numpy.polynomial on first use, and np.unique (which imports
    # numpy.ma) is kept out of the kernels; mpmath is a test oracle only; the
    # cache's hashing pool imports concurrent.futures (and logging) on first use;
    # eta builds the weights of a Borwein order on its first use
    probe = ("import sys, liouville_mellin.cli; "
             "print(sorted(m for m in ('numpy.polynomial', 'numpy.ma', 'mpmath', "
             "'concurrent.futures') if m in sys.modules), "
             "liouville_mellin.special._borwein_weights.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, cwd=PACKAGE.parent)
    assert out.stdout.strip() == "[] 0"
