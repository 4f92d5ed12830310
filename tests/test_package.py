"""What the package depends on."""

import ast
import importlib
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


def test_benchmark_span_targets_resolve():
    """Every function embench/tracing.py wraps still exists where it looks."""
    tracing = Path(__file__).resolve().parents[1] / "embench" / "tracing.py"
    tree = ast.parse(tracing.read_text(), str(tracing))
    targets = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["SPAN_TARGETS"]
    )
    assert len(targets) > 10
    missing = []
    for module, dotted in [entry[:2] for entry in targets] + [("thermem.solvers", "_dare_fixed_point")]:
        owner = importlib.import_module(module)
        for part in dotted.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{dotted}")
    assert missing == []
