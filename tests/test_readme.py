"""The README's library table names only what the modules define."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
ROW = re.compile(r"^\| `(reptile_forge(?:\.\w+)*)` \| (.*) \|$")


def _library_rows() -> list[tuple[str, str]]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    return [m.groups() for m in map(ROW.match, section.splitlines()) if m]


def test_every_listed_name_exists():
    rows = _library_rows()
    assert len(rows) == 6
    missing = []
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        for quoted in re.findall(r"`([^`]+)`", contents):
            for name in quoted.split("/"):
                if not hasattr(module, name):
                    missing.append(f"{module_name}.{name}")
    assert not missing
