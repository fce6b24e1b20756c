"""Regenerate the golden CLI corpus under tests/golden/.

For each invocation below it runs ampo.cli.main in this process, with
AMPO_OUTPUT unset and the root of the checkout as the working directory
(config paths are relative to it), and stores its stdout as
tests/golden/<name>.out; the argument lists, exit codes and stderr go to
tests/golden/index.json. The tier-1 test
test_cli.py::test_cli_output_matches_the_golden_corpus replays each
invocation and compares stdout, stderr and the exit code byte for byte,
so a change to the corpus is a change to what the CLI prints.

Run from anywhere: python tools/golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

INVOCATIONS = {
    **{
        f"examples{n}-{output}": ["examples", str(n), "--output", output]
        for n in (1, 2, 3) for output in ("table", "csv", "json")
    },
    "examples3-budget-100": ["examples", "3", "--budget", "100"],
    "examples3-budget-1e308": ["examples", "3", "--budget", "1e308"],
    **{f"optimize-{kind}": ["optimize", "--kind", kind] for kind in ("put", "call", "straddle")},
    "optimize-q-steps-0": ["optimize", "--kind", "put", "--q-steps", "0"],
    **{
        f"greeks-put-{output}": ["greeks", "--kind", "put", "--amort", "0.1", "--output", output]
        for output in ("table", "json")
    },
    **{
        f"price-call-{output}": ["price", "--kind", "call", "--amort", "0.1", "--output", output]
        for output in ("table", "json")
    },
    "statics": ["statics", "--kind", "put", "--amort", "0.1"],
    "statics-json": ["statics", "--kind", "put", "--amort", "0.1", "--output", "json"],
    "validate": ["validate", "--kind", "put", "--amort", "0.1"],
    "validate-json": ["validate", "--kind", "put", "--amort", "0.1", "--output", "json"],
    **{
        f"price-spot-1e-12-{kind}": ["price", "--kind", kind, "--amort", "0.1", "--spot", "1e-12"]
        for kind in ("put", "call")
    },
    "examples1-spot-1e-200-strike-1e200": ["examples", "1", "--spot", "1e-200", "--strike", "1e200"],
    # argv that argparse alone reads: an abbreviation, a positional after a
    # flag, and each kind of argument error
    "price-abbreviated-strike": ["price", "--kind", "put", "--amort", "0.1", "--str", "90"],
    "examples1-after-a-flag": ["examples", "--rate", "0.05", "1", "--q-steps", "2"],
    "price-rate-negative-exponent": ["price", "--kind", "put", "--amort", "0.1", "--rate", "-1e-3"],
    "price-output-xml": ["price", "--kind", "put", "--amort", "0.1", "--output", "xml"],
    "price-spot-equals-x": ["price", "--kind", "put", "--amort", "0.1", "--spot=x"],
    "examples1-q-steps-3.0": ["examples", "1", "--q-steps", "3.0"],
    "price-amort-without-value": ["price", "--kind", "put", "--amort"],
    "price-bogus-flag": ["price", "--kind", "put", "--amort", "0.1", "--bogus", "1"],
    "examples4": ["examples", "4"],
    "price-config-help": ["price", "--kind", "put", "--amort", "0.1", "--config", "tests/golden/help.cfg"],
}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from ampo.cli import main as cli_main

    os.environ.pop("AMPO_OUTPUT", None)
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    index = {}
    for name, argv in INVOCATIONS.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
        (GOLDEN / f"{name}.out").write_text(out.getvalue(), encoding="utf-8")
        index[name] = {"argv": argv, "exit": code, "stderr": err.getvalue()}
        print(f"{code}  {name}")
    (GOLDEN / "index.json").write_text(json.dumps(index, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
