import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import fingerbound

# A backticked dotted name, such as `geometry.RowSweep` or `RowSweep.commit`.
REFERENCE = re.compile(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)`")
# A test named by file and path, such as `test_bounds.py::TestBestStatic::test_x`.
TEST_NAME = re.compile(r"`(test_\w+\.py)::([\w:]+)`")
TESTS = Path(__file__).parent
MODULES = [importlib.import_module(f"fingerbound.{info.name}")
           for info in pkgutil.iter_modules(fingerbound.__path__)]


def docstrings(module):
    """(where, docstring) for the module and each class, method and
    function it defines."""
    yield module.__name__, module.__doc__
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        yield f"{module.__name__}.{name}", obj.__doc__
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if inspect.isfunction(member) or isinstance(member, property):
                    yield f"{module.__name__}.{name}.{attr}", member.__doc__


def resolve(module, owner: str, attr: str) -> bool:
    """Whether `owner.attr` names something, with owner a module of the
    package, a name in the docstring's module, or a standard library module."""
    package = {m.__name__.rpartition(".")[2]: m for m in MODULES}
    if owner in package:
        obj = package[owner]
    elif owner in vars(module):
        obj = vars(module)[owner]
    else:
        try:
            obj = importlib.import_module(owner)
        except ImportError:
            return False
    return hasattr(obj, attr)


def test_docstring_references_resolve():
    found = []
    for module in MODULES:
        for where, doc in docstrings(module):
            if isinstance(doc, str):
                found += [(where, f"{owner}.{attr}", resolve(module, owner, attr))
                          for owner, attr in REFERENCE.findall(doc)]
    assert len(found) >= 12
    assert [(where, ref) for where, ref, ok in found if not ok] == []


def test_readme_references_resolve():
    """README's dotted names resolve as a docstring's would, with the package
    as its module, and each test it names is a function or class, or a
    member of one, in that file of the test suite."""
    text = (TESTS.parent / "README.md").read_text()
    refs = REFERENCE.findall(text)
    assert len(refs) >= 4
    assert [f"{owner}.{attr}" for owner, attr in refs
            if not resolve(fingerbound, owner, attr)] == []
    tests = TEST_NAME.findall(text)
    assert len(tests) >= 6
    missing = []
    for file, path in tests:
        scope = ast.parse((TESTS / file).read_text()).body
        for part in path.split("::"):
            defined = {node.name: node for node in scope
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
            if part not in defined:
                missing.append(f"{file}::{path}")
                break
            scope = defined[part].body
    assert missing == []
