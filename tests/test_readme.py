"""The README's Library example runs, and the package exports what it documents."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import cloneleak as cl

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
MODULES = [
    importlib.import_module(f"cloneleak.{info.name}") for info in pkgutil.iter_modules(cl.__path__)
]


def library_block():
    (code,) = re.findall(r"```python\n(.*?)```", README, flags=re.S)
    return code


def documented_in_prose():
    """Backticked names outside code blocks that a cloneleak module defines."""
    prose = re.sub(r"```.*?```", "", README, flags=re.S)
    names = {span for span in re.findall(r"`([^`\n]+)`", prose) if span.isidentifier()}
    return {
        name
        for name in names
        for module in MODULES
        if name in vars(module) and not inspect.ismodule(vars(module)[name])
    }


def test_library_example_runs():
    namespace = {}
    exec(compile(library_block(), "README.md", "exec"), namespace)
    assert namespace["report"].all_agree


def test_all_is_what_the_readme_documents():
    used = set(re.findall(r"\bcl\.(\w+)", library_block()))
    assert set(cl.__all__) == used | documented_in_prose()
    assert len(cl.__all__) == len(set(cl.__all__))
    assert all(hasattr(cl, name) for name in cl.__all__)
