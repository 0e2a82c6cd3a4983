"""README examples run as written, and the package exports what it lists."""

import ast
import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

import centralspin
from centralspin import cli

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


def test_config_docs_list_exactly_the_config_keys():
    block = re.search(r"Config files are flat.*?```\n(.*?)```", README.read_text(), re.S).group(1)
    cli.parse_config(block)
    readme_keys = {
        line.split("#", 1)[0].split("=", 1)[0].strip() for line in block.splitlines() if "=" in line
    }
    # The module docstring's key list: one key, or a comma list of keys, at a 4-space indent.
    # It is the one hand-kept copy of the key set in cli, so each key appears there once.
    section = cli.__doc__.split("rejected by name):\n\n", 1)[1].split("\n\n", 1)[0]
    doc_keys = []
    for line in section.splitlines():
        if match := re.match(r"    (\w+(?:, \w+)*)(?: |$)", line):
            doc_keys += match.group(1).split(", ")
    assert readme_keys == set(cli._KEY_PARSERS)
    assert sorted(doc_keys) == sorted(cli._KEY_PARSERS)


def test_cli_synopsis_lists_exactly_the_parser_commands_and_flags(capsys):
    block = re.search(r"## CLI\n\n```\n(.*?)```", README.read_text(), re.S).group(1)
    synopsis = {line.split()[1]: line for line in block.splitlines()}
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    commands = re.search(r"\{([\w,-]+)\}", capsys.readouterr().out).group(1).split(",")
    assert sorted(synopsis) == sorted(commands)
    for command in commands:
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        flags = set(re.findall(r"--[\w-]+", capsys.readouterr().out)) - {"--help"}
        assert set(re.findall(r"--[\w-]+", synopsis[command])) == flags, command
