"""Import layering of the package, read off the source with `ast`.

The command line is a shell over the library: no library module imports
`pvrh.cli`, and no test or benchmark file outside the CLI's own tests
reaches into its private names. The oracle stays independent of the
family formulas and of the dispatch built on them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pvrh"


def _imported_modules(path: Path):
    """Full names of the pvrh modules a file imports, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative: the package has no subpackages
                base = "pvrh." + node.module if node.module else "pvrh"
            else:
                base = node.module or ""
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return {n for n in names if n == "pvrh" or n.startswith("pvrh.")}


def _cli_private_names(path: Path):
    """Private names of pvrh.cli that a file imports or reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = set()  # local names bound to the module pvrh.cli
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "pvrh.cli":
            found.update(a.name for a in node.names if a.name.startswith("_"))
        elif isinstance(node, ast.ImportFrom) and node.module == "pvrh":
            aliases.update(a.asname or a.name for a in node.names
                           if a.name == "cli")
        elif isinstance(node, ast.Import):
            aliases.update(a.asname for a in node.names
                           if a.name == "pvrh.cli" and a.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id in aliases:
                found.add(node.attr)
            elif (isinstance(owner, ast.Attribute) and owner.attr == "cli"
                  and isinstance(owner.value, ast.Name)
                  and owner.value.id == "pvrh"):
                found.add(node.attr)
    return found


def test_library_never_imports_the_cli():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "cli.py":
            assert "pvrh.cli" not in _imported_modules(path), path.name


def test_oracle_stays_independent_of_the_families():
    banned = {"pvrh.asymptotics", "pvrh.rh_dispatch", "pvrh.cli"}
    assert not _imported_modules(PACKAGE / "oracle.py") & banned


def test_only_the_cli_tests_read_cli_privates():
    files = sorted((ROOT / "tests").glob("*.py")) \
        + sorted((ROOT / "perfbench").glob("*.py"))
    allowed = {"test_cli.py", "test_readme.py"}
    for path in files:
        if path.name not in allowed:
            assert not _cli_private_names(path), path.name


def test_the_checks_see_each_import_form(tmp_path):
    # every spelling that reaches pvrh.cli or its private names is caught
    probe = tmp_path / "probe.py"
    for text, modules in (
            ("from .cli import main", {"pvrh.cli"}),
            ("from . import cli", {"pvrh.cli"}),
            ("import pvrh.cli", {"pvrh.cli"}),
            ("def f():\n    from .asymptotics import family_at\n",
             {"pvrh.asymptotics"})):
        probe.write_text(text, encoding="utf-8")
        assert modules <= _imported_modules(probe), text
    for text in ("from pvrh.cli import _parser",
                 "from pvrh import cli\ncli._num(1.0)",
                 "from pvrh import cli as c\nc._emit({})",
                 "import pvrh.cli\npvrh.cli._emit({})",
                 "import pvrh.cli as c\nc._emit({})"):
        probe.write_text(text, encoding="utf-8")
        assert _cli_private_names(probe), text
