"""The import graph: importing a module loads only the ``sei`` modules it uses, and no import hides in a function."""

import ast
import json
import os
import subprocess
import sys
from graphlib import TopologicalSorter
from pathlib import Path

import pytest

import sei

SRC = Path(sei.__file__).parent


@pytest.mark.parametrize(
    "statement, loaded",
    [
        ("import sei", {"sei"}),
        ("import sei.retrieval", {"sei", "sei.errors", "sei.corpus", "sei.retrieval"}),
        ("import sei.fusion, sei.losses", {"sei", "sei.errors", "sei.fusion", "sei.losses"}),
    ],
)
def test_fresh_import_loads_only_what_it_uses(statement, loaded):
    probe = f"import json, sys\n{statement}\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'sei')))"
    assert set(fresh_json(probe)) == loaded


def test_thread_and_process_pools_load_only_when_used():
    """``concurrent.futures`` and ``multiprocessing`` are imported where a pool or a fork is made, not at import."""
    probe = (
        "import json, sys\nimport sei.cli, sei.fusion, sei.losses, sei.retrieval\n"
        "print(json.dumps(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules)))"
    )
    assert fresh_json(probe) == []


def test_package_docstring_names_every_module():
    """``sei/__init__.py``'s docstring is the package's module map."""
    modules = [path.stem for path in sorted(SRC.glob("*.py")) if path.stem not in ("__init__", "__main__")]
    assert [name for name in modules if f"``sei.{name}``" not in sei.__doc__] == []


def fresh_json(probe: str):
    """What ``probe`` prints as JSON, run in a fresh interpreter that imports this ``sei``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC.parent), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def sei_imports(tree: ast.Module) -> list[tuple[ast.stmt, set[str]]]:
    """Each import statement of ``tree`` that names a ``sei`` module, with the modules it names."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                names = {f"sei.{node.module}"}
            else:  # "from . import x": x is a module when sei has a file for it
                names = {"sei"} | {f"sei.{a.name}" for a in node.names if (SRC / f"{a.name}.py").is_file()}
        elif isinstance(node, ast.Import):
            names = {a.name for a in node.names if a.name.split(".")[0] == "sei"}
        elif isinstance(node, ast.ImportFrom):
            names = {node.module} if node.module.split(".")[0] == "sei" else set()
        else:
            continue
        if names:
            found.append((node, names))
    return found


def test_sei_imports_are_top_level_and_acyclic():
    graph = {}
    for path in sorted(SRC.glob("*.py")):
        name = "sei" if path.stem == "__init__" else f"sei.{path.stem}"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports = sei_imports(tree)
        nested = [node.lineno for node, _ in imports if node not in tree.body]
        assert not nested, f"{path.name}: sei imported below module level at lines {nested}"
        graph[name] = set().union(*(names for _, names in imports)) - {"sei", name}

    tuple(TopologicalSorter(graph).static_order())  # a cycle raises CycleError, which names it
