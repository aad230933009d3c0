"""The README's command-line examples, run and compared with their printed output.

Each ``$ evsim ...`` line in a README text block is one example, and the
lines after it, up to the next example, a blank line or the block's end,
are its stdout.  Every example whose input the README defines runs, in
README order and in one directory (``simulate`` reads the ``oval.json``
that ``make-oval`` writes), and must print those lines exactly, so the
documented numbers cannot drift from the code.
"""

import re
import shlex
from pathlib import Path

from evsim import cli

README = Path(__file__).resolve().parents[1] / "README.md"

#: Examples that read a file the README never makes: correlate's capture.txt.
NOT_RUN = {"correlate"}


def readme_examples():
    """(argv after "evsim", expected stdout lines) for each example, in README order."""
    examples = []
    for block in re.findall(r"^```text\n(.*?)^```", README.read_text(), re.M | re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *out = chunk.split("\n\n")[0].rstrip("\n").split("\n")
            program, *argv = shlex.split(command)
            assert program == "evsim", command
            examples.append((argv, out))
    return examples


def test_every_example_is_found():
    assert [argv[0] for argv, _ in readme_examples()] == [
        "design-gains", "make-oval", "simulate", "inject", "isolate", "correlate",
        "packet", "packet"]


def test_examples_print_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv, expected in readme_examples():
        if argv[0] not in NOT_RUN:
            assert cli.main(argv) == 0, argv
            assert capsys.readouterr().out.splitlines() == expected, argv
