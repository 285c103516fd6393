import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

import numpy as np  # a trailing comment keeps its line


class Thing:
    """Class docstring."""

    # a comment line
    def method(self):
        """Method docstring."""
        text = """a string that is not a docstring
spans two lines"""
        return (text,
                np.pi)
'''


def test_counts_code_and_skips_docstrings_comments_and_blank_lines():
    # import, class, def, the two lines of the string, the two of the return
    assert code_lines.code_lines(SOURCE) == 7
