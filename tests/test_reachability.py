"""Every module under ``src/repro`` is imported by code that runs.

The callers are the library itself, the benchmarks, the examples and
the ``ecobench`` harness; tests do not count, so a module that only its
own tests import fails here.  A module counts as reached when another
caller file imports it by dotted path, or imports a name that its
package's ``__init__`` re-exports from it.  Package ``__init__`` and
``__main__`` files are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CALLER_DIRS = ("benchmarks", "examples", "ecobench")


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imports(path: Path) -> Iterator[Tuple[str, List[ast.alias]]]:
    """``(module, imported names)`` per absolute import statement."""
    source = path.read_text(encoding="utf-8")
    for node in ast.walk(ast.parse(source, str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, []
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module, node.names


Export = Tuple[str, str]


def _package_exports() -> Dict[Export, Export]:
    """``(package, name) -> (module, name)`` each ``__init__`` re-exports."""
    exports = {}
    for init in SRC.rglob("__init__.py"):
        package = _module_name(init)
        for module, aliases in _imports(init):
            for alias in aliases:
                exports[(package, alias.asname or alias.name)] = \
                    (module, alias.name)
    return exports


def _reached_by(path: Path, modules: Set[str],
                exports: Dict[Export, Export]) -> Set[str]:
    reached = set()
    for module, aliases in _imports(path):
        reached.add(module)
        for alias in aliases:
            if f"{module}.{alias.name}" in modules:
                reached.add(f"{module}.{alias.name}")
                continue
            # follow re-exports down to the module that defines the name
            source = (module, alias.name)
            while source in exports:
                source = exports[source]
                reached.add(source[0])
    return reached


def unreached_modules() -> List[str]:
    sources = sorted(SRC.rglob("*.py"))
    modules = {_module_name(p) for p in sources}
    callers = [p for p in sources if p.name != "__init__.py"]
    for directory in CALLER_DIRS:
        callers += sorted((ROOT / directory).rglob("*.py"))
    exports = _package_exports()
    reached: Set[str] = set()
    for path in callers:
        own = _module_name(path) if path.is_relative_to(SRC) else None
        reached |= _reached_by(path, modules, exports) - {own}
    return sorted(
        _module_name(p) for p in sources
        if p.name not in ("__init__.py", "__main__.py")
        and _module_name(p) not in reached)


def test_every_module_is_reached():
    assert unreached_modules() == []
