"""The committed tools: tools/code_lines.py, the count of code lines that
ROADMAP and CHANGES.md cite, tools/outcomes.py, the seeded outcome
table of every public function, and the summary of tools/pairs.py, the
paired benchmark (tier-1 runs no benchmark)."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "code_lines.py"
OUTCOMES = ROOT / "tools" / "outcomes.py"
_PAIRS = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_PAIRS)
_PAIRS.loader.exec_module(pairs)


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


def test_pairs_summary_on_fixed_numbers():
    parent = [10.0, 12.0, 11.0, 13.0, 10.0]
    change = [9.0, 12.0, 10.0, 10.0, 11.0]
    s = pairs.summarize(parent, change, "lower", 0.2)
    assert s["parent"] == {"median": 11.0, "q1": 10.0, "q3": 12.0}
    assert s["change"] == {"median": 10.0, "q1": 10.0, "q3": 11.0}
    # pair 2 ties and pair 5 reads worse
    assert (s["change_better_pairs"], s["pairs"]) == (3, 5)
    assert s["median_change_rel"] == -1.0 / 11.0
    assert s["parent_quartile_spread_rel"] == 2.0 / 11.0
    assert (s["bound"], s["within_bound"], s["unresolved"], s["shows_gain"]) == (0.2, True, False, False)
    # where higher is better the same numbers read the other way
    s = pairs.summarize(parent, change, "higher", 0.05)
    assert s["change_better_pairs"] == 1
    assert (s["within_bound"], s["unresolved"], s["shows_gain"]) == (False, True, False)
    # a gain: better in at least 9 of 10 pairs, by more than the parent's quartile spread
    parent = [100.0 + k for k in range(10)]
    s = pairs.summarize(parent, [p - 10.0 for p in parent[:9]] + [parent[9]], "lower", 0.2)
    assert (s["change_better_pairs"], s["shows_gain"]) == (9, True)
    s = pairs.summarize(parent, [p - 4.0 for p in parent], "lower", 0.2)
    assert (s["change_better_pairs"], s["shows_gain"]) == (10, False)


def test_pairs_summary_reproduces_a_committed_bench_record():
    bench = json.loads((ROOT / "BENCH_32.json").read_text(encoding="utf-8"))
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    for group in bench["groups"]:
        for m in metrics:
            values = [[run[side]["result"]["metrics"][m["name"]]["value"] for run in group["pairs"]]
                      for side in ("parent", "change")]
            s = pairs.summarize(*values, m["better"], m["bound"])
            del s["shows_gain"]
            assert s == group["summary"][m["name"]], (group["workload"], group["seed"], m["name"])
