"""Every function in `src/catcx` has a user in `src/catcx`.

A top-level function, or a method of a class that is not exported, must be
named by some other code of the package: as a name, an attribute, an
imported name, or a string (the codec table names its functions by
string).  Names in `catcx.__all__` and names the acceptance gate imports
are the public API and are exempt, and so are dunders and the methods of
an exported class.  A function that only tests use belongs with them, in
the test module or the reference that keeps it.
"""

import ast
from collections import Counter
from pathlib import Path

import catcx

SRC = Path(catcx.__file__).parent
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"


def mentions(node: ast.AST) -> Counter:
    """How often each name is mentioned inside `node`."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out[n.value] += 1
    return out


def unused_functions(src: Path, exempt: set) -> list:
    """module.function for each function in `src` that no other code there names."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))}
    total = sum((mentions(t) for t in trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        defs = [(f.name, f) for f in tree.body if isinstance(f, ast.FunctionDef)]
        defs += [(f"{c.name}.{f.name}", f) for c in tree.body
                 if isinstance(c, ast.ClassDef) and c.name not in exempt
                 for f in c.body if isinstance(f, ast.FunctionDef)]
        for qualname, f in defs:
            if f.name in exempt or f.name.startswith("__"):
                continue
            if total[f.name] == mentions(f)[f.name]:  # named in its own body only
                found.append(f"{module}.{qualname}")
    return found


def acceptance_imports() -> set:
    tree = ast.parse(ACCEPTANCE.read_text(encoding="utf-8"))
    return {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
            and (n.module or "").startswith("catcx") for a in n.names}


def test_every_src_function_has_a_src_user():
    assert unused_functions(SRC, set(catcx.__all__) | acceptance_imports()) == []
