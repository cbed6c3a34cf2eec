"""The README's CLI examples, run as written.

Each ``seq ...`` line of the code block under "## CLI" goes through
``cli.main``; where the README shows the output, as a ``# ...`` comment at
the end of the line or on the line right after it, the output must be that
text.  The config-file example names a file the README does not ship and is
skipped.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from seqdiv.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _cli_examples():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n.*?```sh\n(.*?)```", text, re.S | re.M).group(1)
    lines = block.splitlines()
    examples = []
    for i, line in enumerate(lines):
        if not line.startswith("seq ") or "--config campaign.cfg" in line:
            continue
        command, _, shown = line.partition(" # ")
        if not shown and i + 1 < len(lines) and lines[i + 1].startswith("# "):
            shown = lines[i + 1][2:]
        examples.append((shlex.split(command)[1:], shown.strip() or None))
    return examples


EXAMPLES = _cli_examples()


def test_the_cli_block_has_its_examples():
    assert len(EXAMPLES) == 7
    assert sum(shown is not None for _, shown in EXAMPLES) == 4


@pytest.mark.parametrize("argv,shown", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_readme_cli_example(capsys, argv, shown):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    if shown is not None:
        assert captured.out == shown + "\n"


def test_module_entry_point_exits_with_the_code_of_main():
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-m", "seqdiv.cli", "cyclo", "--n", "6"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "X^2-X*Y+Y^2\n", "")
    done = subprocess.run(
        [sys.executable, "-m", "seqdiv.cli", "cyclo", "--n", "101"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 2 and done.stderr.startswith("ConfigInvalid: --n")
