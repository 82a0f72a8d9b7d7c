"""The package's public surface: what the commands and scripts reach, and the README example."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "okamoto"

# public definitions that no command or script reaches, each kept for the acceptance criterion that pins it
KEEP = {
    "stopping_cover": "criterion 9: stopping covers are prefix-free and complete",
    "local_dimension_slopes": "criterion 7: local dimension of the projected natural measure",
}


def _names(node) -> set:
    """Every name a piece of code refers to, bare or as an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_every_public_definition_is_reached_or_pinned():
    # roots: the scripts, and the module-level code of every package module
    # (the cli's handler table and entry point); re-exports and imports are not uses
    defs = {}  # name -> module-level function and class definitions of that name
    roots = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((path.stem, node))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _names(node)
    for path in sorted((ROOT / "scripts").glob("*.py")):
        roots |= _names(ast.parse(path.read_text()))

    reached = set()
    frontier = roots & defs.keys()
    while frontier:
        name = frontier.pop()
        reached.add(name)
        for _, node in defs[name]:
            frontier |= (_names(node) & defs.keys()) - reached

    unreached = {
        f"{module}.{name}" for name, nodes in defs.items() if name not in reached and not name.startswith("_")
        for module, _ in nodes
    }
    assert unreached == {f"{module}.{name}" for name in KEEP for module, _ in defs[name]}


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_research_scripts_refuse_a_negative_seed_as_a_usage_error():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for script in ("dimension_grid.py", "slice_experiment.py"):
        done = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / script), "--seed", "-1"], capture_output=True, text=True, env=env
        )
        assert done.returncode == 2
        assert "--seed: expected a non-negative integer" in done.stderr and "Traceback" not in done.stderr
