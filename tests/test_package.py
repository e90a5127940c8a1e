"""The package's public names, and what it imports."""

import ast
import sys
from pathlib import Path

import robustnp


def test_all_lists_each_name_once_and_every_name_resolves():
    names = robustnp.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(robustnp, name)]
    assert missing == []


def test_the_package_imports_only_the_standard_library():
    # The runtime is stdlib-only: the top-level name of every absolute import
    # in every module is a standard module. Relative imports stay inside.
    modules = sorted(Path(robustnp.__file__).parent.glob("*.py"))
    names = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.append(node.module)
    assert {"simplex.py", "minimax.py", "cli.py"} <= {path.name for path in modules}
    assert names
    assert [name for name in names if name.split(".")[0] not in sys.stdlib_module_names] == []
