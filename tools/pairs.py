"""Paired benchmark runs of two commits, summarised against BENCHMARK.json.

Each side is exported from git with `git archive` into a temporary
directory. For each workload and seed, each pair runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once in each tree, one run at a time, with PYTHONDONTWRITEBYTECODE=1;
the order of the sides reverses from pair to pair, starting with the
parent. A run keeps its exit status, its last stdout line (the result)
and the record of the provenance line before it.

With --baseline REV a third tree, a fixed older commit, runs in the same
alternation (parent, change, baseline, then the reverse), and each group
also summarises the change against it, so creep that stays under each
step's bound shows.

The output is a BENCH_<n>.json record: the commits, the host, and one
group per workload and seed holding its pairs and, per end-to-end metric
of BENCHMARK.json, the summary that `summarize` describes. It is
rewritten after every group, so a cut run keeps its finished groups.

Run from the root of a checkout:

    python3 tools/pairs.py --parent REV --change REV [--baseline REV] \\
        --workload W [W ...] --seed S [S ...] --pairs N --seconds T --out BENCH_<n>.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
RULES = (
    "Quartiles are statistics.quantiles(n=4, method='inclusive'). median_change_rel is "
    "(change - parent) / parent of the medians; change_better_pairs counts pairs where the "
    "change reads better, ties counting for neither. within_bound: the change's median reads "
    "worse than the parent's by no more than the metric's bound. A metric is 'unresolved' "
    "where the parent's own quartile spread, relative to its median, is wider than the "
    "metric's bound and the change does not read better in every pair. shows_gain: the change "
    "reads better in at least nine of ten pairs and its median differs from the parent's by "
    "more than the parent's quartile spread. baseline_summary, where a baseline ran, is the "
    "same summary with the baseline in the parent's place."
)


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric over paired runs: parent[i] and change[i] are pair i's values.

    `better` is "lower" or "higher", and `bound` the relative amount by
    which the change's median may read worse than the parent's.
    """
    p, c = _quartiles(parent), _quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) < 0.0)
    rel = (c["median"] - p["median"]) / p["median"]
    spread = p["q3"] - p["q1"]
    return {
        "parent": p,
        "change": c,
        "change_better_pairs": wins,
        "pairs": len(parent),
        "median_change_rel": rel,
        "bound": bound,
        "parent_quartile_spread_rel": spread / p["median"],
        "within_bound": sign * rel <= bound,
        "unresolved": spread / p["median"] > bound and wins < len(parent),
        "shows_gain": 10 * wins >= 9 * len(parent) and sign * (c["median"] - p["median"]) < -spread,
    }


def read_run(returncode: int, stdout: str, stderr: str) -> dict:
    """One run of run.py: its exit status, its provenance record, and its
    result (the last stdout line), or the tail of its stderr if it failed."""
    lines = stdout.splitlines()
    run = {"provenance": None, "exit": returncode, "result": None}
    for line in lines:
        if line.startswith("provenance "):
            run["provenance"] = json.loads(line[len("provenance "):])
    if returncode == 0 and lines:
        run["result"] = json.loads(lines[-1])
    else:
        run["stderr"] = stderr[-2000:]
    return run


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    return read_run(done.returncode, done.stdout, done.stderr)


def summaries(runs: list[dict], metrics: list[dict], against: str) -> dict:
    """Per metric, `summarize` of the change against side `against` (its
    "parent"), over the pairs where both sides have a result."""
    complete = [r for r in runs if r[against]["result"] and r["change"]["result"]]
    if len(complete) < 2:
        return {}
    out = {}
    for m in metrics:
        values = [[r[side]["result"]["metrics"][m["name"]]["value"] for r in complete]
                  for side in (against, "change")]
        out[m["name"]] = summarize(*values, m["better"], m["bound"])
    return out


def _group(trees: dict, workload: str, seed: int, pairs: int, seconds: float, metrics: list) -> dict:
    sides = list(trees)
    runs = []
    for k in range(pairs):
        order = sides if k % 2 == 0 else sides[::-1]
        pair = {"workload": workload, "seed": seed, "pair": k + 1, "first": order[0]}
        for side in order:
            pair[side] = _run(trees[side], workload, seed, seconds)
        runs.append(pair)
        print(f"{workload} seed {seed} pair {k + 1}: " + ", ".join(
            f"{side} exit {pair[side]['exit']}" for side in sides), file=sys.stderr)
    group = {"workload": workload, "seed": seed, "summary": summaries(runs, metrics, "parent")}
    if "baseline" in trees:
        group["baseline_summary"] = summaries(runs, metrics, "baseline")
    return {
        **group,
        "all_correct": all(r[side]["result"] and r[side]["result"]["correct"] for r in runs for side in sides),
        "failed": {side: sum(r[side]["result"]["failed"] for r in runs if r[side]["result"]) for side in sides},
        "pairs": runs,
    }


def _export(rev: str, into: Path) -> str:
    sha = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, capture_output=True, text=True,
                         check=True).stdout.strip()
    into.mkdir()
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return sha


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--baseline", help="a fixed older commit, also run and summarised against")
    ap.add_argument("--workload", nargs="+", required=True, choices=["book", "studies", "validate", "cli"])
    ap.add_argument("--seed", nargs="+", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    with tempfile.TemporaryDirectory(prefix="ampo-pairs-") as tmp:
        sides = SIDES + (("baseline",) if args.baseline else ())
        trees = {side: Path(tmp) / side for side in sides}
        shas = {side: _export(getattr(args, side), trees[side]) for side in sides}
        record = {
            "description": (
                f"ampo benchmark: {args.pairs} pairs of {args.seconds:g} s runs of the parent commit and "
                f"of the change{' and of a baseline commit' if args.baseline else ''} for "
                f"{', '.join(args.workload)} at seeds {', '.join(map(str, args.seed))}, made by "
                "tools/pairs.py. Runs go one at a time and reverse the order of the sides from pair to "
                "pair, each from its own tree exported by git archive, with PYTHONDONTWRITEBYTECODE=1; "
                "each run keeps its exit status, the last stdout line (result) and the provenance "
                "record before it. " + RULES
            ),
            "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
            **shas,
            "host": (f"{platform.machine()}, {len(os.sched_getaffinity(0))} usable CPUs, Python "
                     f"{platform.python_version()}, PYTHONDONTWRITEBYTECODE=1"),
            "groups": [],
        }
        for workload in args.workload:
            for seed in args.seed:
                record["groups"].append(_group(trees, workload, seed, args.pairs, args.seconds, metrics))
                args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
