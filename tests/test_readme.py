"""Every `bmn` command in the README's CLI block runs as shown.

A command must exit 0; a `# ...` line right after it gives the first line
the command prints. The block includes a 10^6-match simulate, so this file
expects the C kernel to be quick; the pure-Python kernel takes minutes.
"""

import shlex
from pathlib import Path

import pytest

from bmn import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _cli_examples():
    """(argv, expected first stdout line or None) for each README command."""
    text = README.read_text()
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    examples = []
    for i, line in enumerate(lines):
        if line.startswith("bmn "):
            after = lines[i + 1] if i + 1 < len(lines) else ""
            expected = after[2:] if after.startswith("# ") else None
            examples.append((shlex.split(line)[1:], expected))
    return examples


EXAMPLES = _cli_examples()


def test_readme_block_has_every_subcommand():
    assert {argv[0] for argv, _ in EXAMPLES} == {
        "play", "simulate", "loops", "backward", "factory"}


@pytest.mark.parametrize("argv, expected", EXAMPLES,
                         ids=[" ".join(argv[:3]) for argv, _ in EXAMPLES])
def test_readme_command_runs(argv, expected, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0, capsys.readouterr().err
    if expected is not None:
        assert capsys.readouterr().out.splitlines()[0] == expected
