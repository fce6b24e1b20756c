"""tools/code_lines.py, the count of code lines that ROADMAP and CHANGES.md cite."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "code_lines.py"


def _run(*args):
    run = subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    return [line.split() for line in run.stdout.splitlines()]


def test_code_lines_leaves_out_docstrings_comments_and_blanks(tmp_path):
    (tmp_path / "mod.py").write_text(
        '"""Module notes."""\n\n# a comment\nimport math\n\n\n'
        'def f(x):\n    """Two lines\n    of notes."""\n    return x  # a trailing comment\n\n\n'
        'class C:\n    """Notes."""\n\n    s = """a string, not a docstring"""\n'
    )
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "empty.py").write_text("")
    assert _run(str(tmp_path)) == [["mod.py", "5"], ["sub/empty.py", "0"], ["total", "5"]]
    # with no argument it counts src/ampo: one row per module, then their sum
    rows = _run()
    modules = sorted(p.name for p in (ROOT / "src" / "ampo").glob("*.py"))
    assert [name for name, _ in rows[:-1]] == modules
    assert rows[-1][0] == "total"
    assert int(rows[-1][1].replace(",", "")) == sum(int(n.replace(",", "")) for _, n in rows[:-1])
