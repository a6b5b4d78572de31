"""The ``REPRO_*`` table in docs/runner.md lists exactly the variables the
package reads, each with the module that reads it."""

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
LITERAL = re.compile(r"""["'](REPRO_[A-Z0-9_]+)["']""")


def table_rows() -> "list[list[str]]":
    text = (REPO_ROOT / "docs" / "runner.md").read_text()
    section = text.split("## Environment variables", 1)[1].split("\n## ", 1)[0]
    return [
        [cell.strip().strip("`") for cell in line.strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("| `REPRO_")
    ]


def source_literals() -> "dict[str, set[Path]]":
    found: "dict[str, set[Path]]" = {}
    for path in (SRC / "repro").rglob("*.py"):
        for name in LITERAL.findall(path.read_text()):
            found.setdefault(name, set()).add(path)
    return found


def module_path(module: str) -> Path:
    base = SRC.joinpath(*module.split("."))
    package = base / "__init__.py"
    return package if package.is_file() else base.with_suffix(".py")


def test_table_lists_every_variable_the_source_names():
    names = [row[0] for row in table_rows()]
    assert len(names) == len(set(names))
    assert set(names) == set(source_literals())


def test_reader_column_names_the_defining_module():
    literals = source_literals()
    for name, _sets, _default, module in table_rows():
        assert module_path(module) in literals[name], (name, module)
