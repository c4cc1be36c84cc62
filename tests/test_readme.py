"""The README's examples run as written: every command of the construct,
verify and catalog blocks under "CLI", in order, in one fresh directory,
and the "Library use" block."""

import re
import shlex
from pathlib import Path

from mcd_forge.cli import EXIT_OK, SEED_ENV_VAR, main

README = (Path(__file__).resolve().parent.parent
          / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str, start: int = 0) -> str:
    """The first ``lang`` code block after the line ``heading``, searched
    from ``start``."""
    at = README.index(f"\n{heading}\n", start)
    return re.compile(rf"```{lang}\n(.*?)```", re.S).search(README, at)[1]


def _cli_commands() -> list[list[str]]:
    cli = README.index("\n## CLI\n")
    commands = []
    for sub in ("construct", "verify", "catalog"):
        block = _block(f"### {sub}", "sh", cli)
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv:
                assert argv[:2] == ["mcd-forge", sub], line
                commands.append(argv[1:])
    return commands


def test_readme_cli_examples_exit_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    commands = _cli_commands()
    assert [argv[0] for argv in commands] == (
        ["construct"] * 4 + ["verify"] * 3 + ["catalog"] * 3)
    for argv in commands:
        code = main(argv)
        assert code == EXIT_OK, (argv, code, capsys.readouterr())
        capsys.readouterr()


def test_readme_library_example_runs(capsys):
    exec(compile(_block("## Library use", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out == "(81, 4) (81, 9)\n"
