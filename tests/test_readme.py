"""README's examples, run as written: the library quick start and the CLI transcripts."""

import os
import re
from pathlib import Path

import pytest

import gramexpect
import gramexpect.cli as cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
TRANSCRIBED = ("expect", "traces", "moments", "simulate", "trend")


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.S | re.M)


def _transcripts() -> list[tuple[list[str], str]]:
    """(argv, stdout) of each ``$ gramexpect`` line in a text block whose command is transcribed.

    A command's stdout is every line after it up to the next command or the
    end of the block, less trailing blank lines.
    """
    found = []
    for block in _blocks("text"):
        for chunk in re.split(r"^\$ gramexpect ", block, flags=re.M)[1:]:
            command, _, stdout = chunk.partition("\n")
            argv = command.split()
            if argv[0] in TRANSCRIBED:
                found.append((argv, stdout.rstrip("\n") + "\n"))
    return found


TRANSCRIPTS = _transcripts()


def test_quick_start_runs():
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})


def test_every_transcribed_command_has_one_transcript():
    assert sorted(argv[0] for argv, _ in TRANSCRIPTS) == sorted(TRANSCRIBED)


def _api_table_names() -> list[str]:
    """Every backticked name in the second column of the Library API table."""
    section = README.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[2] for line in section.splitlines() if line.startswith("| ")][1:]
    return [name for row in rows for name in re.findall(r"`(\w+)`", row)]


def test_library_api_table_is_the_export_list():
    names = _api_table_names()
    assert sorted(names) == sorted(set(gramexpect.__all__) - {"__version__"})
    assert len(names) == len(set(names)) == len(gramexpect.__all__) - 1
    for name in names:
        assert getattr(gramexpect, name) is not None


@pytest.mark.parametrize("argv, stdout", TRANSCRIPTS, ids=[argv[0] for argv, _ in TRANSCRIPTS])
def test_transcript_stdout_is_byte_equal(argv, stdout, capsys, monkeypatch):
    for name in [k for k in os.environ if k.startswith(cli.ENV_PREFIX)]:
        monkeypatch.delenv(name)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == stdout


ORACLE_LINES = [
    line.partition("#")[0].split()
    for block in _blocks("text")
    for line in re.findall(r"^\$ gramexpect (oracle .*)$", block, re.M)
]


@pytest.mark.parametrize("argv", ORACLE_LINES, ids=[argv[1] for argv in ORACLE_LINES])
def test_oracle_line_is_accepted(argv):
    # Parsed, and holding only flags its oracle reads: the part of a run that needs no files.
    args = cli.build_parser().parse_args(argv)
    cli._select_oracle_inputs(args)
