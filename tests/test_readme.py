"""The README's quick-start snippet and shell example must stay runnable as
written."""

import re
import shlex
from pathlib import Path

from egta.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_quick_start_snippet_executes(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README, flags=re.S)
    assert blocks, "README lost its quick-start code block"
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 2  # one radius line, one progressive-sampling line
    assert float(out[0]) > 0


def test_shell_example_runs(tmp_path, monkeypatch):
    # the one sh block whose lines all call egta: generate a game, learn it
    # with psp, and write the decay CSV with its plot
    blocks = [b for b in re.findall(r"```sh\n(.*?)```", README, flags=re.S) if b.startswith("egta ")]
    assert len(blocks) == 1, "README lost its egta shell example"
    commands = [shlex.split(line) for line in blocks[0].strip().splitlines()]
    assert len(commands) == 3 and all(args[0] == "egta" for args in commands)
    monkeypatch.chdir(tmp_path)
    for args in commands:
        assert main(args[1:]) == 0
    for name in ("game.json", "result.json", "decay.csv", "decay.csv.svg"):
        assert (tmp_path / name).stat().st_size > 0
