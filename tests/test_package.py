"""What the package depends on."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "thermem"


def test_package_imports_only_stdlib_numpy_scipy():
    outside = []
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) > 10
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one (inside thermem)
            top = {name.split(".")[0] for name in names}
            outside += [f"{path.name}: {name}" for name in top - {"numpy", "scipy", "thermem"}
                        if name not in sys.stdlib_module_names]
    assert outside == []
