"""Every name `vsg` exports has a reader outside the tests.

A reader is README.md, a demo, the perfbench harness or the CLI. Error
classes are exempt: each is an `error: <Kind>` line the CLI can print.
"""

import ast
import re
from pathlib import Path

import vsg

ROOT = Path(__file__).resolve().parent.parent
READERS = [
    ROOT / "README.md",
    ROOT / "src" / "vsg" / "cli.py",
    *sorted((ROOT / "demos").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
]


def exported_names() -> list[str]:
    tree = ast.parse((ROOT / "src" / "vsg" / "__init__.py").read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def is_error_class(name: str) -> bool:
    value = getattr(vsg, name)
    return isinstance(value, type) and issubclass(value, vsg.VsgError)


def test_every_export_has_a_reader_outside_tests():
    text = "\n".join(path.read_text(encoding="utf-8") for path in READERS)
    unread = [
        name for name in exported_names()
        if not is_error_class(name) and not re.search(rf"\b{re.escape(name)}\b", text)
    ]
    assert unread == [], f"exported but read only by tests or their own module: {unread}"
