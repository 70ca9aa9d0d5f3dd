"""The README's command line examples, run as printed.

Every ``$ cdposets ...`` line of the Command line section runs through
``main(argv)`` in a temporary directory, in order, and its stdout must
equal the block printed under it byte for byte.  The README's grammar
block must name exactly the constructors of the parser's table.
"""

import re
import shlex
from pathlib import Path

from cdposets import exprs
from cdposets.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
SECTION = README.split("## Command line\n")[1].split("\n## ")[0]


def examples():
    """(argv, comment, printed stdout) for each ``$ cdposets`` line."""
    out = []
    for block in re.findall(r"```sh\n(.*?)```", SECTION, re.S):
        for row in filter(None, block.split("\n")):
            if row.startswith("$ "):
                line, _, comment = row[2:].partition("#")
                argv = shlex.split(line)
                assert argv[0] == "cdposets", row
                out.append((argv[1:], comment.strip(), ""))
            else:
                argv, comment, printed = out[-1]
                out[-1] = (argv, comment, printed + row + "\n")
    return out


def test_command_line_examples_print_what_the_readme_shows(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # build -o family.json writes here
    found = examples()
    assert len(found) == 10
    for argv, comment, printed in found:
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        if printed or not comment:
            assert out == printed, argv
        else:
            # verify all: the table is not printed, the comment gives its size
            suites, checks = re.fullmatch(r"(\w+) suites, (\d+) checks, exit 0 when green", comment).groups()
            *rows, last = out.splitlines()[2:]
            assert len({row.split()[0] for row in rows}) == {"seven": 7}[suites]
            assert last == f"{checks}/{checks} checks passed"


def test_readme_grammar_names_the_parser_constructors():
    block = SECTION.split("Construction expressions:\n\n```\n")[1].split("```")[0]
    assert set(re.findall(r"\b(\w+)\(", block)) == set(exprs._GRAMMAR)
