"""Every public function and class of the package has a caller in the
package itself: code that only tests reach belongs in tests/oracles.py."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "noncollide"

# kept without a caller in src/ because perfbench/workloads.py calls or
# traces them by name
BENCHMARK_ONLY = {
    "survival_mc",
    "sample_from_origin",
    "dyson_terminal_batch",
    "dyson_trajectories",
    "inhomogeneous_terminal_batch",
    "eigen_terminal_batch",
    "eigen_trajectories",
}


def _named(node: ast.AST) -> set[str]:
    """Every name, attribute and imported name under node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def test_every_public_definition_has_a_caller_in_src():
    defined = {}
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            names = _named(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.discard(stmt.name)  # its own definition is not a caller
                if not stmt.name.startswith("_"):
                    defined[stmt.name] = path.name
            used |= names
    uncalled = {f"{defined[name]}:{name}" for name in defined.keys() - used - BENCHMARK_ONLY}
    assert not uncalled, f"public names with no caller in src/: {sorted(uncalled)}"
    assert BENCHMARK_ONLY <= defined.keys() - used, "an allow-listed name gained a caller"
