"""The committed tools: tools/code_lines.py, the count of code lines that
ROADMAP and CHANGES.md cite, and tools/outcomes.py, the seeded outcome
table of every public function."""

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "code_lines.py"
OUTCOMES = ROOT / "tools" / "outcomes.py"


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


def _outcomes(*args, hash_seed="0", code=0):
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    run = subprocess.run([sys.executable, str(OUTCOMES), *args], capture_output=True, text=True,
                         timeout=60, env=env)
    assert run.returncode == code, run.stderr
    return run.stdout.splitlines()


def test_outcome_digests_are_the_same_under_any_hash_seed():
    start = time.perf_counter()
    first = _outcomes("--seed", "3", "--draws", "8", hash_seed="0")
    second = _outcomes("--seed", "3", "--draws", "8", hash_seed="12345")
    assert time.perf_counter() - start < 3.0
    assert first == second
    # one sha256 per function, then one over all rows
    names = [line.split()[1] for line in first]
    assert names[-1] == "all" and len(names) == len(set(names)) > 30
    assert {"price", "MarketParams", "lattice_price", "optimize_q", "validate_checks"} <= set(names)
    assert all(len(line.split()[0]) == 64 for line in first)
    # another seed draws other rows
    assert _outcomes("--seed", "4", "--draws", "8")[-1] != first[-1]


def test_outcomes_against_the_same_tree_list_no_row():
    src = str(ROOT / "src")
    assert _outcomes("--seed", "3", "--draws", "4", "--src", src, "--against", src)[-1].split()[:3] == [
        "0", "rows", "differ"
    ]


def test_outcomes_against_a_perturbed_formula_exits_1(tmp_path):
    # --against is the bit-identity gate: an exact-float row that differs exits 1
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    pricing = src / "ampo" / "pricing.py"
    formula = "math.exp(-s.amort * "
    text = pricing.read_text()
    assert text.count(formula) == 1
    pricing.write_text(text.replace(formula, "math.exp(-1.000001 * s.amort * "))
    lines = _outcomes("--seed", "3", "--draws", "4", "--src", str(src), "--against",
                      str(ROOT / "src"), code=1)
    # the counts per function and kind, then the total: only notional_at moved
    counts = [line.split(None, 1)[1] for line in lines if line[:7].strip().isdigit()]
    assert "notional_at: exact-float row" in counts
    assert all(kind.startswith("notional_at: ") for kind in counts[:-1])
