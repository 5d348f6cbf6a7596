"""Each `knncompress` line of README's "Command line" block runs, in order,
to exit 0, so that a documented command that breaks fails here."""
import json
import os
import re
import shlex

from knncompress import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _readme_commands() -> list[list[str]]:
    with open(os.path.join(ROOT, "README.md")) as f:
        text = f.read()
    block = re.search(r"^## Command line\n.*?```sh\n(.*?)```", text,
                      re.M | re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("knncompress ")]


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with open("plan.json", "w") as f:  # bench's plan, which README names
        json.dump({"methods": ["subsample"], "ratios": [0.08]}, f)
    commands = _readme_commands()
    assert [argv[0] for argv in commands] == [
        "gen-cov", "gen-hist", "compress", "eval", "bench", "selfcheck"]
    for argv in commands:
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)
