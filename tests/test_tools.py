"""The committed tools: tools/code_lines.py, the count of code lines that
ROADMAP and CHANGES.md cite, tools/domains.py, the seeded input domains,
tools/outcomes.py, the seeded outcome table of every public function,
which test_floats draws through, and the summary of tools/pairs.py, the
paired benchmark (tier-1 runs no benchmark)."""

import ast
import importlib.util
import inspect
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import ampo
import domains
import outcomes

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


# each domain's first draw at seed 1 as float.hex: rate, vol, q, spot, strike
_FIRST = {
    "box": ["0x1.32eebb4bc5bd4p-5", "0x1.0c249e0cdf5afp-1", "0x1.285029d954021p+0", "0x1.610a9a33d80a0p+6",
            "0x1.9000000000000p+6"],
    "full": ["0x1.bfbfef595b4a4p-3", "0x1.8d6c84bc6deb9p-2", "0x1.5b3ae0c47d86dp-16", "0x1.26311ec20d341p+3",
             "0x1.3e832d857dcd3p+2"],
    "whole": ["0x1.3c95465fe57cdp-534", "0x1.d41ac859e4e80p-148", "0x1.accf0986d5b04p+525",
              "0x1.2c5e238660409p-729", "0x1.67858f30e0473p+692"],
}
_ZERO_RATES = {"box": 0, "full": 192, "whole": 190}
_BOUNDS = {"box": {**domains.BOX, "strike": (domains.BOX_STRIKE,) * 2}, "full": domains.FULL, "whole": domains.WHOLE}


def test_each_domain_draws_the_same_floats_inside_its_bounds():
    # the seeded tests and outcomes' digests rest on these draws: a change to
    # a bound or to the order of the draws moves the first one, and a change
    # to the share of rate 0 moves the count of zero rates in 2,000 draws
    for name, draw in domains.DRAWS.items():
        assert [x.hex() for x in draw(random.Random(1))] == _FIRST[name], name
        one, other = random.Random(5), random.Random(5)
        points = [draw(one) for _ in range(2000)]
        assert points == [draw(other) for _ in range(2000)], name
        # about a tenth of the rates are 0, outside the box
        assert [point.rate for point in points].count(0.0) == _ZERO_RATES[name], name
        for point in points:
            for field, value in point._asdict().items():
                lo, hi = _BOUNDS[name][field]
                # log_uniform's logs round, so its edges hold to 1e-12
                assert (field, value) == ("rate", 0.0) or lo * (1 - 1e-12) <= value <= hi * (1 + 1e-12), name


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


def test_the_outcome_table_calls_every_public_function_and_input_record():
    # test_floats' cross-type and refusal rules run over this table, so a
    # public function without a row would escape both
    public = {name for name in ampo.__all__ if inspect.isfunction(getattr(ampo, name))}
    records = {"MarketParams", "ContractParams", "AmortizationSchedule", "StrategySpec", "LatticeConfig"}
    assert set(outcomes.functions(ampo)) == public | records


def _tools_imported(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names & {p.stem for p in (ROOT / "tools").glob("*.py")}


def test_conftest_imports_every_tools_module_a_test_imports():
    # hypothesis draws some floats from the literals of every imported
    # non-test module, so a tools/ module imported by one test file alone
    # would give the properties other examples alone than in the whole suite
    tests = ROOT / "tests"
    wanted = set().union(*map(_tools_imported, tests.glob("*.py")))
    assert {"domains", "golden", "outcomes"} <= wanted
    assert wanted - _tools_imported(tests / "conftest.py") == set()


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


def _canned_run(p50: float) -> dict:
    return pairs.read_run(0, f"provenance {{}}\n" + json.dumps(
        {"correct": True, "failed": 0, "metrics": {"p50_ms": {"value": p50, "unit": "ms"}}}), "")


def test_pairs_keeps_each_runs_provenance_record():
    prov = {"workload": "cli", "seed": 4, "seconds": 20.0, "trace": 0, "git_sha": "unknown",
            "src_sha256": "ab" * 32, "samples": {"ops": 352, "raw_p50_ms": 70.1}}
    result = {"correct": True, "attempted": 353, "failed": 0,
              "metrics": {"p50_ms": {"value": 62.5, "unit": "ms"}}}
    stdout = ("workload  cli\np50_ms    62.500000 ms\n"
              f"provenance {json.dumps(prov)}\n{json.dumps(result)}\n")
    assert pairs.read_run(0, stdout, "ignored") == {"provenance": prov, "exit": 0, "result": result}
    # a failed run keeps what it printed of its provenance and the tail of its stderr
    run = pairs.read_run(1, f"provenance {json.dumps(prov)}\n", "x" * 3000 + "Traceback")
    assert (run["provenance"], run["result"], run["exit"]) == (prov, None, 1)
    assert run["stderr"] == ("x" * 3000 + "Traceback")[-2000:]


def test_pairs_summarises_the_change_against_a_baseline():
    # the change reads 1.4% worse than its parent, inside a 2% bound, and
    # 5.5% worse than the baseline two steps back, outside it
    metrics = [{"name": "p50_ms", "better": "lower", "bound": 0.02}]
    base = [100.0, 101.0, 99.0, 100.5, 100.0]
    runs = [{side: _canned_run(b * scale) for side, scale in
             (("baseline", 1.0), ("parent", 1.04), ("change", 1.055))} for b in base]
    vs_parent = pairs.summaries(runs, metrics, "parent")["p50_ms"]
    vs_baseline = pairs.summaries(runs, metrics, "baseline")["p50_ms"]
    parent, change = [b * 1.04 for b in base], [b * 1.055 for b in base]
    assert vs_parent == pairs.summarize(parent, change, "lower", 0.02)
    assert vs_baseline == pairs.summarize(base, change, "lower", 0.02)
    assert vs_parent["median_change_rel"] == (100.0 * 1.055 - 100.0 * 1.04) / (100.0 * 1.04)
    assert (vs_parent["within_bound"], vs_baseline["within_bound"]) == (True, False)
    assert vs_baseline["parent"]["median"] == 100.0
    assert vs_baseline["change_better_pairs"] == 0
    # pairs where either side has no result are left out, and fewer than two give no summary
    runs[0]["baseline"] = pairs.read_run(1, "", "boom")
    assert pairs.summaries(runs, metrics, "baseline")["p50_ms"]["pairs"] == 4
    assert pairs.summaries(runs, metrics, "parent")["p50_ms"]["pairs"] == 5
    assert pairs.summaries(runs[:2], metrics, "baseline") == {}
