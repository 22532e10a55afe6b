"""The package needs nothing beyond the Python standard library."""

import ast
import re
import sys
import types
from pathlib import Path

import suffixconvex

ROOT = Path(__file__).resolve().parents[1]


def test_package_imports_only_the_standard_library():
    sources = sorted((ROOT / "src" / "suffixconvex").glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {name}"


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert re.search(r"^dependencies = \[\]$", project, re.MULTILINE)


def test_public_names_are_pinned():
    # a name leaves the package's surface only on purpose
    public = sorted(
        name for name, value in vars(suffixconvex).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert public == [
        "ClassReport", "ComplexityReport", "Dfa", "DocumentError", "FAMILIES",
        "InputError", "LimitError", "NotationError", "SemigroupSummary",
        "Transformation", "accepts", "apply_dialect", "apply_word",
        "atom_complexities", "atom_complexity", "atom_formula", "atoms",
        "boolean_restricted", "boolean_unrestricted", "classify", "complement",
        "complexity", "compose_many", "concat", "cycle",
        "determinize", "equivalent", "expected", "export_dot", "format_notation",
        "make_dialect", "make_witness", "minimize", "occurring_letters",
        "parse_letter_map", "parse_notation", "quotient_complexities", "read_dfa",
        "reverse", "run_verification", "send_to", "star", "suffix_language",
        "syntactic_semigroup_size", "transition_semigroup", "write_dfa",
    ]
