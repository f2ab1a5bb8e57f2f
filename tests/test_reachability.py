"""Every public top-level function and class of relu_lab is reached by the
program or the benchmark.

A name counts as reached when a Name or Attribute node reads it in
src/relu_lab outside its own definition, or anywhere in bench/, or when
bench/spans.py lists it in TRACED (the tracer wraps those by name).  Imports,
docstrings and comments do not count, and neither do the tests: a routine
that only tests call belongs in tests/oracles.py.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _read(tree: ast.AST) -> set[str]:
    """Identifiers that tree's Name and Attribute nodes read."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def _traced(tree: ast.Module) -> set[str]:
    """The strings of the module's TRACED literal."""
    return {n.value for node in tree.body if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "TRACED" for t in node.targets)
            for n in ast.walk(node.value)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def unreached(root: Path) -> list[str]:
    """module.name of every public top-level function or class under
    root/src/relu_lab that neither the rest of src/ nor bench/ reaches."""
    bench = set()
    for path in sorted((root / "bench").glob("*.py")):
        tree = ast.parse(path.read_text())
        bench |= _read(tree) | _traced(tree)
    # (module, top-level statement, identifiers it reads)
    statements = [(path.stem, node, _read(node))
                  for path in sorted((root / "src" / "relu_lab").glob("*.py"))
                  for node in ast.parse(path.read_text()).body]
    found = []
    for module, node, _ in statements:
        if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            continue
        if node.name in bench or any(node.name in names for _, other, names
                                     in statements if other is not node):
            continue
        found.append(f"{module}.{node.name}")
    return found


def test_every_public_name_is_reached():
    missing = unreached(ROOT)
    assert not missing, f"reached by no command or benchmark: {missing}"


def test_a_test_only_name_is_caught(tmp_path):
    # a public function that only a test would call is reported; its own
    # recursion and a docstring naming it do not reach it
    src = tmp_path / "src" / "relu_lab"
    src.mkdir(parents=True)
    (tmp_path / "bench").mkdir()
    (src / "lib.py").write_text(
        "def used():\n    return 1\n\n"
        "def orphan(n):\n    return orphan(n - 1) if n else used()\n")
    (src / "cli.py").write_text(
        '"""orphan is not called here."""\nfrom .lib import orphan, used\n'
        "def main():\n    return used()\n")
    (tmp_path / "bench" / "spans.py").write_text(
        'TRACED = {"cli": ("main",)}\n')
    assert unreached(tmp_path) == ["lib.orphan"]
