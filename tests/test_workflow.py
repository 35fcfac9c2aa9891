"""Every shell step of the CI workflow parses, and none holds Python.

The checks live in the tier-1 tests, so the workflow only runs commands: it
holds no ``<<'EOF'`` heredoc and no ``python -c`` string. The shell of each
``run:`` step is read by its indentation (PyYAML is not a test dependency)
and checked with ``bash -n``. So a syntax error shows up in the tier-1 suite
and not first on a CI runner.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import textwrap
from pathlib import Path

import pytest

WORKFLOW = (Path(__file__).resolve().parent.parent / ".github" / "workflows"
            / "tests.yml")
RUN = re.compile(r"( *)run: (.*)")


def run_blocks(text):
    """The shell of each ``run:`` step: the value on its line, or after
    ``run: |`` the lines indented deeper than the key, dedented."""
    lines = text.splitlines()
    blocks = []
    for i, line in enumerate(lines):
        if not (m := RUN.fullmatch(line)):
            continue
        if m[2] != "|":
            blocks.append(m[2])
            continue
        body = []
        for nxt in lines[i + 1:]:
            if nxt.strip() and len(nxt) - len(nxt.lstrip()) <= len(m[1]):
                break
            body.append(nxt)
        blocks.append(textwrap.dedent("\n".join(body)) + "\n")
    return blocks


@pytest.mark.skipif(shutil.which("bash") is None, reason="needs bash")
def test_workflow_shell_blocks_parse():
    text = WORKFLOW.read_text()
    assert "<<'EOF'" not in text and not re.search(r"python3? -c", text)
    blocks = run_blocks(text)
    assert len(blocks) == text.count("run:") == 6, blocks
    for i, body in enumerate(blocks):
        done = subprocess.run(["bash", "-n"], input=body, text=True,
                              capture_output=True)
        assert done.returncode == 0, (i, body, done.stderr)
