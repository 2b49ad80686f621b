import importlib
import inspect
import pkgutil
import re

import fingerbound

# A backticked dotted name, such as `geometry.RowSweep` or `RowSweep.commit`.
REFERENCE = re.compile(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)`")
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
