"""Package surface: every exported name loads lazily from the submodule that
defines it, and the README's library example runs."""
import importlib
import re
from pathlib import Path

import pytest

import pintlab


@pytest.mark.parametrize("name", pintlab.__all__)
def test_export_is_its_defining_modules_object(name):
    module = importlib.import_module(f"pintlab.{pintlab._EXPORTS[name]}")
    value = getattr(pintlab, name)
    assert value is getattr(module, name)
    # the table names where a class or function is defined, not a re-export
    assert getattr(value, "__module__", module.__name__) == module.__name__


def test_dir_and_star_import_list_every_export():
    assert set(pintlab.__all__) <= set(dir(pintlab))
    namespace = {}
    exec("from pintlab import *", namespace)
    assert set(pintlab.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(pintlab, name) for name in pintlab.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pintlab.no_such_name
    with pytest.raises(ImportError):
        exec("from pintlab import no_such_name", {})


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    example = next(b for b in blocks if "from pintlab import (" in b)
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out.count("\n") == 2  # the factors, then the async run
