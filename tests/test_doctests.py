"""Keep the docstring examples and the README tour honest."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

import avoiders.bijection
import avoiders.enumeration
import avoiders.perms
import avoiders.series
from avoiders.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize(
    "module",
    [avoiders.perms, avoiders.enumeration, avoiders.bijection, avoiders.series],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0


def test_readme_python_blocks():
    # Each block is checked as `python -m doctest README.md` reads it, closing
    # fence included: expected output runs on to the next blank line.
    text = README.read_text()
    blocks = list(re.finditer(r"^```python\n(.*?^```)$", text, re.M | re.S))
    assert blocks
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    for block in blocks:
        lineno = text.count("\n", 0, block.start(1))
        test = parser.get_doctest(block.group(1), {}, "README.md", str(README), lineno)
        result = runner.run(test)
        assert result.failed == 0
        assert result.attempted > 0


def test_readme_command_lines_give_their_stated_results(capsys):
    # An ``avoiders`` line in a sh block whose comment begins with a digit
    # states its stdout there, up to the first comma.
    text = README.read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```$", text, re.M | re.S)
    stated = re.findall(r"^avoiders (.*?)\s+# (\d[^,\n]*)", "".join(blocks), re.M)
    assert [result for _, result in stated] == [
        "87", "4", "9", "1 2 | 1 2 | 1 2 | 1 2", "1 2 3 4 5",
    ]
    for command, result in stated:
        assert main(shlex.split(command)) == 0, command
        assert capsys.readouterr().out == result + "\n", command
