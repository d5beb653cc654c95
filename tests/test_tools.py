"""tools/count_code_lines.py, the code-line count the roadmap quotes."""

import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_code_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("count_code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MODULE = textwrap.dedent('''\
    """Module docstring,
    on two lines."""

    # A comment.
    import os


    class Thing:
        """Class docstring."""

        size = 2  # a trailing comment does not hide the code


        def method(self):
            """Method docstring,

            on three lines."""
            return os.sep


    def build():
        """Function docstring."""
            # An indented comment.
        text = """a multi-line string
    that is not a docstring
    """
        return text
    ''')


def test_code_lines_skips_docstrings_comments_and_blanks(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(MODULE)
    # import, class, size, def method, return, def build, the three lines of
    # the string assignment, return.
    assert load_tool().code_lines(path) == 10


def test_total_is_the_sum_of_the_files():
    result = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                            check=True)
    lines = [line.split() for line in result.stdout.splitlines()]
    *files, (total, label) = lines
    assert label == "total"
    assert len(files) >= 1 and all(name.endswith(".py") for _, name in files)
    assert int(total) == sum(int(count) for count, _ in files)
