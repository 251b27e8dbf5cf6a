"""The README's Python quick start and command lines run as written and print
what they say."""

import re
import shlex
from pathlib import Path

import pytest

from invmet.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "1.0 1.0 1.0"
    assert out[-1] == "half-space affine-disc"


def _cli_examples():
    """(command line, the output lines the README shows under it) per example."""
    block = re.search(r"```sh\n(invmet .*?)```", README.read_text(), re.S).group(1)
    examples = []
    for line in block.splitlines():
        if line.startswith("invmet "):
            examples.append((line, []))
        elif line.startswith("# "):
            examples[-1][1].append(line[2:])
    return examples


# verify-all runs in the acceptance battery (criterion 8)
@pytest.mark.parametrize("line,shown", [
    pytest.param(line, shown, id=line.split(" --")[0][len("invmet "):])
    for line, shown in _cli_examples() if not line.startswith("invmet verify-all")])
def test_readme_cli_lines_run(line, shown, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(line)[1:]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:len(shown)] == shown
