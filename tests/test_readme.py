"""The README's examples run, and print what their comments say.

Each python block of README.md runs in order, in one namespace, as a reader
pasting them one after another would; the threshold command runs through
cli.main and must print the JSON line written under it.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

from bayescfar import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.M | re.S)


def test_python_examples_print_what_their_comments_say():
    namespace = {}
    printed = []
    for source in _blocks("python"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(source, str(README), "exec"), namespace)
        printed.append(out.getvalue().splitlines())
    tour, sweep, scan = printed
    assert tour[0] == "Verdict.H1"
    assert tour[1].startswith("0.0909")
    assert tour[2:] == ["0.1"]
    assert len(sweep) == 4
    for line in sweep:
        estimate, low, high = map(float, line.split())
        assert low <= estimate <= high
    assert scan == ["Verdict.H1", "[True, False, False]"]


def test_threshold_command_prints_the_documented_record(capsys):
    lines = "\n".join(_blocks("sh")).splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("bayescfar threshold"))
    command, comment = lines[at], lines[at + 1]
    assert comment.startswith("# {")
    capsys.readouterr()
    assert cli.main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == comment[2:] + "\n"
