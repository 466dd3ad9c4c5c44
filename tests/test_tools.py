import importlib.util
import itertools
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

MODULES = sorted((ROOT / "src" / "raghpo").glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_the_kinds_of_each_module_sum_to_its_wc_l(path):
    counts = code_lines.count(path.read_text(encoding="utf-8"))
    wc_l = path.read_bytes().count(b"\n")
    assert counts["lines"] == sum(counts[kind] for kind in code_lines.KINDS) == wc_l


def test_each_line_is_counted_as_its_kind():
    source = '''"""Module docstring.

Second paragraph.
"""
# a comment

def f(x):  # a trailing comment is code
    """One line."""
    text = """a string

    with a blank line"""
    return (x +
            1)
'''
    assert code_lines.count(source) == {
        "lines": 13, "code": 6, "docstring": 4, "comment": 1, "blank": 2
    }


def test_every_field_of_every_dataio_field_table_is_in_the_readme_table():
    from raghpo import dataio

    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| Record | Field | JSON type (default when absent) |")
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2:])
    documented = {name for row in rows for name in re.findall(r"`([^`]+)`", row.split("|")[2])}
    tables = {name: table for name, table in vars(dataio).items() if name.endswith("_FIELDS")}
    assert len(tables) >= 10
    missing = [f"{name}[{field!r}]" for name, table in tables.items() for field in table if field not in documented]
    assert missing == []
