"""Check that the layer boundaries perfbench wraps still see every call.

Usage: PYTHONPATH=src python tools/check_boundaries.py [SPANS]
(default SPANS: perfbench/spans.py)

``perfbench/spans.py`` wraps each entry of its ``BOUNDARIES`` table in
place, as an attribute of the module or class that defines it. This check
fails, naming each case, when an entry no longer resolves in ``cake``, or
when a class in ``cake`` redefines a wrapped method of a class it derives
from (``MemoryBlobStore.get`` over ``BlobStore.get``, say): that class's
calls would bypass the wrapper and vanish from the per-layer metrics. The
spans module is loaded from its file and no bytecode is written. Prints
``ok`` and exits 0 when there is nothing to report.
"""

import importlib
import importlib.util
import pkgutil
import sys
from typing import Iterable

import cake


def load_boundaries(path: str) -> list[tuple]:
    """The ``BOUNDARIES`` table of the spans module at ``path``."""
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module.BOUNDARIES


def problems(boundaries: Iterable[tuple]) -> list[str]:
    """One line per entry of ``boundaries`` that does not resolve, and per
    ``cake`` class that hides a wrapped method of its base."""
    modules = [importlib.import_module(f"cake.{info.name}")
               for info in pkgutil.iter_modules(cake.__path__)]
    classes = {obj for module in modules for obj in vars(module).values()
               if isinstance(obj, type) and obj.__module__.startswith("cake.")}
    found = []
    for module_name, path, *_ in boundaries:
        name = f"{module_name}.{path}"
        *owners, attr = path.split(".")
        try:
            owner = importlib.import_module(f"cake.{module_name}")
            for part in owners:
                owner = getattr(owner, part)
        except (ImportError, AttributeError):
            owner = None
        if owner is None or attr not in vars(owner):
            found.append(f"{name} does not resolve in cake")
            continue
        if isinstance(owner, type):
            found += [f"{cls.__module__}.{cls.__qualname__}.{attr} hides {name}"
                      for cls in classes
                      if cls is not owner and issubclass(cls, owner) and attr in vars(cls)]
    return sorted(found)


if __name__ == "__main__":
    found = problems(load_boundaries(sys.argv[1] if len(sys.argv) > 1
                                     else "perfbench/spans.py"))
    print("\n".join(found) or "ok")
    sys.exit(1 if found else 0)
