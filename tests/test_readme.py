"""README examples run as written, and the package exports what it lists."""

import ast
import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

import centralspin

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_and_exports():
    section = README.read_text().split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, str(README), "exec"), {})
    # The Born weights of the example: |a_up|^2 = 0.4 up, 0.6 down, no quantum mass.
    assert ast.literal_eval(printed.getvalue().strip()) == pytest.approx((0.4, 0.6, 0.0), abs=1e-6)
    missing = [name for name in centralspin.__all__ if not hasattr(centralspin, name)]
    assert not missing, f"centralspin.__all__ names missing attributes: {missing}"


def test_module_names_in_backticks_resolve():
    names = set(re.findall(r"`(core|engine|observables|universe)\.(\w+)", README.read_text()))
    assert names
    missing = [
        f"{module}.{attr}"
        for module, attr in sorted(names)
        if not hasattr(importlib.import_module(f"centralspin.{module}"), attr)
    ]
    assert not missing, f"README names attributes the package lacks: {missing}"
