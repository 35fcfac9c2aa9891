"""Every inline Python block of the CI workflow compiles.

The workflow runs Python in two forms: ``python - ... <<'EOF'`` heredocs and
``python -c "..."`` strings. Both are read here with regular expressions
(PyYAML is not a test dependency), dedented and compiled, so a syntax error
shows up in the tier-1 suite and not first on a CI runner.
"""

from __future__ import annotations

import re
import textwrap
from pathlib import Path

WORKFLOW = (Path(__file__).resolve().parent.parent / ".github" / "workflows"
            / "tests.yml")
HEREDOC = re.compile(r"<<'EOF'\n(.*?)\n[ \t]*EOF\n", re.DOTALL)
INLINE = re.compile(r'python3? -c "([^"]*)"')


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
