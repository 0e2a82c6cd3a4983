"""README examples run as written, and the package exports what it lists."""

import ast
import contextlib
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
