import ast
import importlib.util
import itertools
import re
from collections import Counter
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


#: Names defined in ``src/raghpo`` that nothing else in ``src`` refers to, each with the
#: ROADMAP item that keeps it. Any other such name is API that only tests use.
UNREFERENCED_IN_SRC = {
    "metrics.TOKENIZER_VERSION": "item 6a: table provenance is to record it",
    "pipeline.TEMPLATE_VERSION": "item 6a: table provenance is to record it",
    "evaluator.best_so_far": "item 10: the acceptance tests use it",
    "pipeline.retrieve": "item 10: the acceptance tests use it",
    "dataio.Dataset.doc_ids": "item 10: the acceptance tests use it",
    "searchspace.SearchSpace.neighbors_fixing": "items 5 and 9: perfbench's tracer pins it",
    "optimizers.Optimizer.state_dict": "item 10: removing it means regenerating the trajectory golden",
    "optimizers.Optimizer.load_state_dict": "item 10: removing it means regenerating the trajectory golden",
}


def _definitions(module: str, tree: ast.Module):
    """(qualified name, node) of each function, class, method and constant a module defines."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if isinstance(target, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id):
                yield f"{module}.{target.id}", node
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{module}.{node.name}.{item.name}", item


def _references(tree: ast.AST) -> Counter:
    """How many times each name is read in code: as a variable or as an attribute.

    A name in a docstring, a comment or any other string is not a reference.
    """
    nodes = (node for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))
    return Counter(node.id if isinstance(node, ast.Name) else node.attr for node in nodes)


def test_every_name_defined_in_src_is_referred_to_in_src_or_kept_by_the_roadmap():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    references = sum(map(_references, trees.values()), Counter())
    unreferenced = []
    for path, tree in trees.items():
        for qualified, node in _definitions(path.stem, tree):
            name = qualified.rpartition(".")[2]
            if references[name] == _references(node)[name]:  # no reference outside the definition
                unreferenced.append(qualified)
    assert sorted(unreferenced) == sorted(UNREFERENCED_IN_SRC)
