"""Every name that a ``seqgp`` module imports is used in that module.

The check reads the source with the standard library's ``ast``: a name
bound by ``import`` or ``from ... import`` anywhere in a module must appear
as a ``Name`` somewhere in the same module.  ``__init__`` re-exports by
design and is skipped.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "seqgp"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# perfbench/tracing.py wraps these names in the namespaces of seqgp.cli and
# seqgp.estimators, so both modules bind them without calling them
ALLOWED_UNUSED = {
    "cli.py": {"dense_transform_posterior", "gauge_weight_posterior"},
    "estimators.py": {"dense_transform_posterior", "gauge_weight_posterior"},
}


def unused_imports(source: str) -> set[str]:
    """Names that ``source`` imports but never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_checker_sees_unused_and_used_names():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nnp.zeros(int(pi))\n"
    assert unused_imports(source) == {"os", "tau"}


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    unused = unused_imports((PACKAGE / module).read_text())
    assert unused == ALLOWED_UNUSED.get(module, set())
