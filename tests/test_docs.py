"""The demo scripts and the README's Python quick start run as written, and
the README's command lines parse."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from liouville_mellin import arith, cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_four_demos_listed():
    assert [p.name[:3] for p in DEMOS] == ["01_", "02_", "03_", "04_"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = _run([str(demo)])
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    proc = _run(["-c", blocks[0]])
    assert proc.returncode == 0, proc.stderr


def test_readme_command_lines_parse():
    # every command of README's "Command line" block is one the parser takes
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Command line\n\n```\n(.*?)```", readme, re.S).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(lines) >= 9 and all(words[0] == "liouville-mellin" for words in lines)
    for words in lines:
        cli.build_parser().parse_args(words[1:])  # SystemExit(2) on a stale flag


def test_readme_environment_overrides_are_the_ones_cli_reads():
    readme = (ROOT / "README.md").read_text()
    paragraph = re.search(r"Environment overrides for CI:.*?\n\n", readme, re.S).group(0)
    documented = set(re.findall(r"`(LIOUMEL_\w+)`", paragraph))
    cli = (ROOT / "src" / "liouville_mellin" / "cli.py").read_text()
    read = {f"LIOUMEL_{name}" for name in re.findall(r'_env\("(\w+)"', cli)}
    assert documented == read and read


def test_readme_cache_paragraph_names_the_format():
    # the README's table-cache paragraph names the magic save_table writes and
    # every field it stores, so a format change cannot leave it stale
    readme = (ROOT / "README.md").read_text()
    paragraph = re.search(r"The table cache \(magic `(\w+)`\).*?\n\n", readme, re.S)
    assert paragraph.group(1) == arith.CACHE_MAGIC.decode("ascii")
    assert [name for name, _, _ in arith._layout(1)
            if f"`{name}`" not in paragraph.group(0)] == []
