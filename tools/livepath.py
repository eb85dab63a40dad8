"""List every function under src/flowfx that no command of the manifest reaches.

    python tools/livepath.py

Run it from any directory; it takes no options.  It runs the command set of
``tools/artifacts.py`` (``artifacts.run_set``, so exactly the runs whose
files ARTIFACTS.json hashes) in a temporary directory, with every Python
call recorded by ``sys.setprofile`` and ``threading.setprofile``, so calls
on eval's loading pool and on the guidance worker count too.  It then lists
every ``def`` under ``src/flowfx`` with ``ast``, nested functions and
methods included, and prints ``module:line qualname`` for each one that no
run called, followed by the ``tests/`` files that name it, or "no test"
when none does: a file names ``C.f`` when it uses both ``C`` and ``f`` as
identifiers, attributes or imported names.
Recording starts before flowfx is imported, so functions run only at import
time count as reached.  Exits 0 either way; the listing is the result.
"""

import ast
import os
import sys
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "flowfx"
TESTS = ROOT / "tests"


def definitions(package: Path) -> list:
    """(path, line, qualname) of every def under ``package``, in file and
    line order, with the path resolved.  The line is the one the def's code
    object reports as its first: that of the first decorator, if any, else
    the def's."""
    found = []

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                line = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found.append((path, line, qualname))
                visit(child, path, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(package.resolve().rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), path, "")
    return found


def unreached(defs: list, codes) -> list:
    """The entries of ``defs`` that are the def of no code object in
    ``codes``: none has their file and first line."""
    reached = {(Path(code.co_filename).resolve(), code.co_firstlineno) for code in codes}
    return [d for d in defs if d[:2] not in reached]


def names_in(path: Path) -> set:
    """Every identifier a Python file names: variables, attributes and
    imported names."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


@contextmanager
def recording(reached: set):
    """Add the code object of every Python call made while open, in this
    thread and in threads started meanwhile, to ``reached``."""
    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        yield
    finally:
        sys.setprofile(None)
        threading.setprofile(None)


def main() -> int:
    codes = set()
    with recording(codes):
        sys.path.insert(0, str(ROOT / "tools"))
        import artifacts

        os.chdir(ROOT)
        with tempfile.TemporaryDirectory() as tmp:
            artifacts.run_set(Path(tmp))
    test_names = {path.name: names_in(path) for path in sorted(TESTS.glob("*.py"))}
    defs = definitions(PACKAGE)
    missing = unreached(defs, codes)
    for path, line, qualname in missing:
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        parts = set(qualname.split(".")) - {"<locals>"}
        named = [name for name, ids in test_names.items() if parts <= ids]
        print(f"{module}:{line} {qualname}  [{', '.join(named) or 'no test'}]")
    print(f"{len(missing)} of {len(defs)} functions under src/flowfx reached by no run")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
