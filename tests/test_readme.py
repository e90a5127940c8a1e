"""README.md's examples run and print what their comments say."""

import contextlib
import io
import re
from pathlib import Path

from robustnp.cli import load_problem

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(lang, after):
    """The first fenced ``lang`` block after the heading ``after``."""
    text = README.read_text(encoding="utf-8")
    start = text.index(after)
    return re.search(rf"```{lang}\n(.*?)```", text[start:], re.S).group(1)


def test_quickstart_prints_its_comments():
    code = _block("python", "## Library quickstart")
    expected = [
        line.split("#", 1)[1].strip()
        for line in code.splitlines()
        if line.startswith("print(") and "#" in line
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert expected and out.getvalue().splitlines() == expected


def test_command_line_spec_loads(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(_block("json", "## Command line"), encoding="utf-8")
    prob = load_problem(str(spec))
    assert prob.space.atoms == ("w1", "w2", "w3")
    assert len(prob.p_family) == 1 and len(prob.q_family) == 2
