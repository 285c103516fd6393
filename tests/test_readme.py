"""The README's CLI section against the CLI: every command it shows parses,
and its generate and evaluate commands run as written."""

import csv
import io
import shlex
from pathlib import Path

import pytest

from examweight import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_commands():
    """Each `examweight ...` command in the sh blocks of the README's CLI
    section, continuation lines joined and leading VAR=value settings
    dropped, as an argv without the program name."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    commands = []
    for block in section.split("```sh\n")[1:]:
        text = block.split("```", 1)[0].replace("\\\n", " ")
        for line in text.splitlines():
            if line.strip() and not line.lstrip().startswith("#"):
                words = shlex.split(line)
                while "=" in words[0]:
                    words.pop(0)
                assert words[0] == "examweight", line
                commands.append(words[1:])
    return commands


def test_the_cli_section_shows_every_command():
    assert {argv[0] for argv in cli_commands()} == {"generate", "evaluate", "fit", "analyze"}


def seed7_paths():
    """{flag: path} of the gradebook files the README's first evaluate
    command names, those its generate command writes."""
    argv = next(argv for argv in cli_commands() if argv[0] == "evaluate")
    return {flag: path for flag, path in zip(argv, argv[1:]) if flag.startswith("--")}


@pytest.mark.parametrize("argv", cli_commands(), ids=lambda argv: " ".join(argv[:2]))
def test_every_readme_command_parses(argv):
    # "..." stands for the file the flag before it names
    paths = seed7_paths()
    argv = [paths[flag] if word == "..." else word for flag, word in zip(["", *argv], argv)]
    assert "..." not in argv
    parser = cli.build_parser()
    args = parser.parse_args(argv)
    cli._check_combinations(parser, args)
    assert args.command == argv[0]


def test_generate_then_evaluate_run_as_written(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = {argv[0]: argv for argv in cli_commands() if "..." not in argv}
    assert cli.main(commands["generate"]) == 0
    capsys.readouterr()
    assert cli.main(commands["evaluate"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["overall_score", "uniform", "actual", "linear_intercept", "huber",
                       "ols_closed_form", "nnls"]
    assert [row[0] for row in rows[1:]] == ["final (actual)", "final (normalized)"]
