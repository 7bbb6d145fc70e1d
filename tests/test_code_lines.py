"""tools/code_lines.py counts code lines: not blank, not comments and not
docstrings.  The simplicity figures quoted for `src/` come from it."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SOURCE = '''"""Module docstring."""

import os  # a comment after code


# a comment-only line
class Thing:
    """Class docstring
    that spans two lines.
    """

    def method(self):
        "Function docstring."
        return os.path.join(
            "a",
            # a comment inside the call
            "b",
        )


"""A string statement after code is no docstring,
so both of its lines count."""
'''
# import, class, def, the four lines of the call, the two string lines.
CODE_LINES = 9


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_of_a_module():
    assert load_tool().code_lines(SOURCE) == CODE_LINES


def test_cli_total(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "thing.py").write_text(SOURCE)
    (tmp_path / "empty.py").write_text("# only a comment\n\n")
    out = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path)], capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out == [
        f"{0:6d}  empty.py",
        f"{CODE_LINES:6d}  pkg/thing.py",
        f"{CODE_LINES:6d}  total",
    ]
