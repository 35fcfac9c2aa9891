"""Every inline Python block and every shell step of the CI workflow parses.

The workflow runs Python in two forms: ``python - ... <<'EOF'`` heredocs and
``python -c "..."`` strings. Both are read here with regular expressions
(PyYAML is not a test dependency), dedented and compiled. The shell of each
``run:`` step is read by its indentation and checked with ``bash -n``. So a
syntax error shows up in the tier-1 suite and not first on a CI runner.
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
HEREDOC = re.compile(r"<<'EOF'\n(.*?)\n[ \t]*EOF\n", re.DOTALL)
INLINE = re.compile(r'python3? -c "([^"]*)"')
RUN = re.compile(r"( *)run: (.*)")


def test_workflow_python_blocks_compile():
    text = WORKFLOW.read_text()
    heredocs = HEREDOC.findall(text)
    inline = INLINE.findall(text)
    assert len(heredocs) >= 3 and len(inline) >= 3, (heredocs, inline)
    for i, body in enumerate(heredocs):
        compile(textwrap.dedent(body), f"{WORKFLOW.name}:heredoc {i}", "exec")
    for i, body in enumerate(inline):
        # the shell would expand these inside double quotes; none is used,
        # so the string compiled here is the one Python receives
        assert not set("$`\\") & set(body), body
        compile(body, f"{WORKFLOW.name}:python -c {i}", "exec")


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
    blocks = run_blocks(text)
    assert len(blocks) == text.count("run:") >= 9, blocks
    for i, body in enumerate(blocks):
        done = subprocess.run(["bash", "-n"], input=body, text=True,
                              capture_output=True)
        assert done.returncode == 0, (i, body, done.stderr)
